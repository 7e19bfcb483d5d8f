"""One hypothesis profile for the whole suite: reproducible examples, no
example database, no per-example deadline (numerical examples vary in cost)."""

from hypothesis import settings

settings.register_profile("peribond", derandomize=True, database=None, deadline=None)
settings.load_profile("peribond")
