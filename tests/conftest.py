"""One Hypothesis profile for every property test: the same examples on
every run, no time limit per example and no example database, so tier-1
stays deterministic.  Property tests set only max_examples."""
import warnings

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")

# Hypothesis reports a failing example through libcst, whose import emits a
# DeprecationWarning (from mypy_extensions); under filterwarnings = error that
# aborts the whole session instead of failing one test.  Import it here, once.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is not installed: Hypothesis skips the patch
        pass
