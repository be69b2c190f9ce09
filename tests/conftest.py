"""Hypothesis profiles for the test suite.

``tier1`` (the default) draws the same examples on every run, so a
tier-1 run checks the same programs and operands each time.  ``soak``
draws fresh examples: ``pytest --hypothesis-profile=soak``.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.register_profile("soak", deadline=None)
settings.load_profile("tier1")
