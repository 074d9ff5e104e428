"""Test-suite set-up: property tests draw the same examples on every run.

Hypothesis derives its examples from each test's name instead of a random
seed (``derandomize``) and keeps no example database, so a run neither
depends on earlier runs nor writes ``.hypothesis/``.  Each test keeps its
own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
