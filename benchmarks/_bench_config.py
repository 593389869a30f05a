"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
(see the E1..E7 index in README.md; ARCHITECTURE.md maps the modules) and
prints a paper-vs-measured report.  Heavy computations (full CAD flows) run
once in module-scoped fixtures; the ``benchmark`` fixture then times a
representative kernel of the experiment so ``pytest-benchmark`` output stays
meaningful.

Environment knobs
-----------------
``REPRO_FULL=1``
    Use the paper's full FloPoCo format (6-bit exponent, 26-bit mantissa) and
    channel width 10 for the Table I experiment.  The default is a reduced
    format (5/10) at channel width 12 so the whole harness completes in a few
    minutes; the qualitative shape (who wins, by how much) is preserved.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.flopoco.format import FPFormat, PAPER_FORMAT

RESULTS_DIR = Path(__file__).parent / "results"

FULL_MODE = os.environ.get("REPRO_FULL", "0") not in ("", "0", "false", "False")

#: benchmark-scale knobs, switched by REPRO_FULL
if FULL_MODE:  # pragma: no cover - opt-in heavy configuration
    BENCH_FP_FORMAT = PAPER_FORMAT
    BENCH_CHANNEL_WIDTH = 10
    BENCH_PLACEMENT_EFFORT = 1.0
    BENCH_ROUTER_ITERATIONS = 40
    BENCH_FIND_MIN_CW = True
    BENCH_IMAGE_SIZE = 96
else:
    BENCH_FP_FORMAT = FPFormat(we=5, wf=10)
    BENCH_CHANNEL_WIDTH = 12
    BENCH_PLACEMENT_EFFORT = 0.5
    BENCH_ROUTER_ITERATIONS = 20
    BENCH_FIND_MIN_CW = False
    BENCH_IMAGE_SIZE = 56


def write_report(name: str, lines) -> Path:
    """Write a benchmark report to benchmarks/results/ and echo it to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    text = "\n".join(lines) + "\n"
    path.write_text(text)
    print("\n" + text)
    return path

