import pathlib
import sys

import pytest
from hypothesis import settings

# allow running pytest from a fresh checkout without installing
_src = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(_src) not in sys.path:
    sys.path.insert(0, str(_src))

from makit import sensing  # noqa: E402
from makit.optimize import report  # noqa: E402

# Property tests draw the same examples on every run, so a failure reproduces;
# each test still sets its own max_examples and deadline.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def _cold_caches():
    """Clear the process-wide result caches before each test, so that no count a test
    reads depends on the tests that ran before it."""
    for memo in report._memos:  # every optimizer's memo of starts
        memo.clear()
    sensing._music_grid_table.cache_clear()
