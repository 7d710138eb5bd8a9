"""Shared test settings.

Property tests draw their examples from a fixed derandomized sequence and
keep no example database, so every run of the suite tries the same inputs.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None, max_examples=100)
settings.load_profile("reproducible")
