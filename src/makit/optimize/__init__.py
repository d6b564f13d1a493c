"""Antenna-placement optimizers: closed forms, exact discrete methods, and local/global search."""

from .beams import (fpa_ula, grating_lobe_apv, max_min_awv, multibeam_ao, svo_null_apv,
                    widebeam_ao)
from .gma import gma_opt
from .mimo import isac_constrained_opt, mimo_position_ao, multiuser_position_opt
from .miso import SampledLine, graph_opt_miso
from .report import OptReport
from .search import grid_search_position, gradient_position_search, pso, siso_gain_bounds
from .sensing import crb_metric_2d, effective_variances, sensing_1d_optimal, sensing_2d_ao

__all__ = [
    "OptReport",
    "siso_gain_bounds",
    "grid_search_position",
    "gradient_position_search",
    "pso",
    "SampledLine",
    "graph_opt_miso",
    "svo_null_apv",
    "grating_lobe_apv",
    "multibeam_ao",
    "widebeam_ao",
    "fpa_ula",
    "max_min_awv",
    "mimo_position_ao",
    "multiuser_position_opt",
    "isac_constrained_opt",
    "sensing_1d_optimal",
    "sensing_2d_ao",
    "effective_variances",
    "crb_metric_2d",
    "gma_opt",
]
