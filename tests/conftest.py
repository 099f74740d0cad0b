"""Test-suite configuration: property tests draw the same examples on every
machine and run, and are never failed for being slow."""

from hypothesis import settings

settings.register_profile("sparsedyn", derandomize=True, deadline=None)
settings.load_profile("sparsedyn")
