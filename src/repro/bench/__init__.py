"""Experiment drivers shared by the benchmark suite and the examples.

One module per paper artefact: Fig. 10 (deployment/execution/cost by
instance type), Fig. 11 (transfer rate by method and file size), the
Sec. V-A use case, and the design-choice ablations DESIGN.md calls out.

On top of the drivers sit the fan-out layers: ``harness`` (the parallel
orchestrator), ``suites`` (the spec registry mapping artefacts onto
harness columns), ``trajectory`` (the per-commit perf series), and
``cli`` (``gp-bench`` / ``python -m repro.bench``).  Those load on
first import, never from this package: ``python -m repro.bench.trajectory``
must find the module unimported, or it would run twice.
"""

from . import ablations, figure10, figure11, pricing_sweep, scale, usecase

__all__ = [
    "ablations",
    "figure10",
    "figure11",
    "harness",
    "pricing_sweep",
    "scale",
    "suites",
    "trajectory",
    "usecase",
]
