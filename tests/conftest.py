"""Suite-wide settings: a deterministic, bounded hypothesis profile.

Property tests draw their examples from a fixed seed and keep no example
database, so every run of the suite checks the same cases in bounded time.
Another registered profile can be chosen with ``--hypothesis-profile``.
"""

from hypothesis import settings

settings.register_profile("blockjacobi", derandomize=True, deadline=None,
                          max_examples=100, database=None)
settings.load_profile("blockjacobi")
