"""Test-session settings shared by every test module.

Property tests run under a derandomized hypothesis profile: the examples are
derived from each test itself, so a failure repeats on every rerun, and no
per-example deadline applies (timings vary on a shared machine).
"""

from hypothesis import settings

settings.register_profile("bargainlab", derandomize=True, deadline=None)
settings.load_profile("bargainlab")
