"""Deterministic testing infrastructure shared by the test suites.

:mod:`repro.testing.faults` provides named injection points that the
production backend/pool code calls on its hot paths; when no plan is
installed the call is a single global read, so the harness costs nothing
in normal operation.  :mod:`repro.testing.queries` generates seeded
fragment-conformant queries for the differential sweeps, and
:mod:`repro.testing.corpus` holds the two hand-written query corpora: the
paper's Q1-Q6 (``WORKLOAD``) and the adapted XMark Q1-Q20 suite
(``XMARK_SUITE``).
"""

from repro.testing.faults import FaultPlan, fire, injection_counts

__all__ = ["FaultPlan", "fire", "injection_counts"]
