"""Finite, executable model of time-indexed processes.

Values live over a finite time scale and are observed at a pair (present
time, horizon); processes record values over an interval and may stop
with a result.  The package provides the expansion, joining, and merging
operators on such processes, unique-solution solvers for corecursive and
recursive definitions, and an exhaustive law-checking harness that
verifies every structural law by elementwise comparison.  The modules are
the API (`proccat.temporal`, `proccat.laws`, ...); this root only documents.
"""

__version__ = "0.1.0"
