"""Test-suite settings shared by every module.

Property tests run under a derandomized hypothesis profile with no per-example
deadline, so a tier-1 run explores the same examples every time and a slow,
shared machine cannot turn a passing example into a timeout failure.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
