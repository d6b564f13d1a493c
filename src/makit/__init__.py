"""makit: simulation, optimization, and channel acquisition for movable-antenna systems.

Subpackages and modules:
  geometry     coordinate systems, orientations, movement regions, placement checks
  channel      field-response channel synthesis and random scenario generation
  beamforming  steering vectors, combiners, power allocation, rate metrics
  optimize     placement optimizers (closed forms, exact discrete, local/global search)
  sensing      snapshot model, estimation CRBs, subspace direction estimation
  estimate     pilot measurement, sparse recovery, model-free reconstruction
  experiments  declarative experiment catalog and Monte Carlo runner
"""

import logging

__version__ = "0.1.0"  # set before the submodule imports: experiments records it
logging.getLogger("makit").addHandler(logging.NullHandler())  # silent unless configured

from . import beamforming, channel, estimate, experiments, geometry, optimize, sensing
from .errors import ConfigError, InfeasibleError

__all__ = [
    "geometry",
    "channel",
    "beamforming",
    "optimize",
    "sensing",
    "estimate",
    "experiments",
    "ConfigError",
    "InfeasibleError",
    "__version__",
]
