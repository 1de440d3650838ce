"""Shared test settings: one derandomized hypothesis profile, so property
tests draw the same examples on every run and never fail on a deadline."""

from hypothesis import settings

settings.register_profile("focalgroups", derandomize=True, deadline=None, max_examples=60, database=None)
settings.load_profile("focalgroups")
