import pathlib
import sys

from hypothesis import settings

# allow running pytest from a fresh checkout without installing
_src = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(_src) not in sys.path:
    sys.path.insert(0, str(_src))

# Property tests draw the same examples on every run, so a failure reproduces;
# each test still sets its own max_examples and deadline.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
