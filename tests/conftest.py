"""Shared test configuration.

Property tests draw the same examples on every run (``derandomize``), so a
failure reproduces, and carry no per-example deadline, because wall time on
a small shared host varies too much to fail a test on.
"""

from hypothesis import settings

settings.register_profile("cxho", derandomize=True, deadline=None)
settings.load_profile("cxho")
