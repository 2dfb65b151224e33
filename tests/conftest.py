"""One hypothesis profile for the whole suite: every property test draws the
same examples on every run (derandomize), and none has a deadline, as a
draw may build a field or brute-force a whole one.  A test's own @settings
sets only its max_examples."""

from hypothesis import settings

settings.register_profile("permlab", derandomize=True, deadline=None)
settings.load_profile("permlab")
