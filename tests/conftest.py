"""Suite-wide settings: a deterministic, bounded hypothesis profile.

Property tests draw their examples from a fixed seed and keep no example
database, so every run of the suite checks the same cases in bounded time.
Another registered profile can be chosen with ``--hypothesis-profile``.

The suite runs with warnings as errors (``filterwarnings`` in
pyproject.toml).  When a property test fails, hypothesis imports its patch
writer, which imports libcst, whose import emits a DeprecationWarning from
mypy_extensions; raised as an error inside pytest's report hook, that would
abort the whole session instead of reporting the failure.  The patch writer
is therefore imported here, once, with only that import's warnings silenced.
"""

import warnings

from hypothesis import settings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:     # libcst missing: hypothesis then writes no patch
        pass

settings.register_profile("blockjacobi", derandomize=True, deadline=None,
                          max_examples=100, database=None)
settings.load_profile("blockjacobi")
