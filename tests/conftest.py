"""Hypothesis profiles for the suites under ``tests/``.

``default``, which tier-1 runs, draws the same examples on every run and
every machine (``derandomize=True``) and replays nothing from a local
database, so one tree gets one verdict.  ``fuzz`` searches instead: fresh
random examples on each run, each property's own ``max_examples`` of them,
and the failures it finds kept in their own database, ``.hypothesis/fuzz``::

    python -m pytest tests --hypothesis-profile=fuzz

Repeated fuzz runs widen the search.  A counterexample one finds becomes an
``@example`` of its property.
"""

from hypothesis import settings
from hypothesis.database import DirectoryBasedExampleDatabase

# Registering the active profile's name takes effect at once.
settings.register_profile("default", derandomize=True, database=None)
settings.register_profile("fuzz", derandomize=False,
                          database=DirectoryBasedExampleDatabase(".hypothesis/fuzz"))
