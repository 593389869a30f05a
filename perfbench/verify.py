"""Output checks of the Table-I flow benchmark (run outside the timed region).

* :func:`check_mac` evaluates a mapped PE on seeded stimuli and compares every
  output word against the FloPoCo reference model
  (:func:`repro.flopoco.arithmetic.fp_mac`) and the counter compare flag.
* :func:`table_qor` extracts one comparison's Table-I quality of result.  A
  flow that did not route at the requested width yields no wirelength,
  critical path or channel width: an unrouted result is not comparable.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping


def draw_word(fmt, rng: random.Random) -> int:
    """A FloPoCo word of a finite value spread over a few binades (or zero)."""
    if rng.random() < 0.05:
        return fmt.encode(0.0)
    return fmt.encode(rng.choice((-1.0, 1.0)) * rng.uniform(0.01, 8.0))


def draw_params(fmt, counter_width: int, rng: random.Random) -> Dict[str, int]:
    """One seeded setting of the PE's parameter inputs, MAC function selected:
    ``out = in[sel_b] + in[sel_a] * coeff``."""
    from repro.core.pe import PEOp

    return {
        "coeff": draw_word(fmt, rng),
        "sel_a": rng.randrange(2),
        "sel_b": rng.randrange(2),
        "op": PEOp.MAC,
        "count_limit": rng.randrange(1 << counter_width),
    }


def draw_stimuli(fmt, counter_width: int, limit: int, vectors: int,
                 rng: random.Random) -> Dict[str, List[int]]:
    """Seeded input words; about a quarter of the counts hit the limit."""
    return {
        "in0": [draw_word(fmt, rng) for _ in range(vectors)],
        "in1": [draw_word(fmt, rng) for _ in range(vectors)],
        "count": [
            limit if rng.random() < 0.25 else rng.randrange(1 << counter_width)
            for _ in range(vectors)
        ],
    }


def check_mac(network, fmt, params: Mapping[str, int],
              stimuli: Mapping[str, List[int]]) -> int:
    """Number of vectors whose ``out`` or ``done`` differs from the reference."""
    from repro.flopoco.arithmetic import fp_mac

    got = network.evaluate_words(stimuli, params)
    operands = (stimuli["in0"], stimuli["in1"])
    mismatches = 0
    for p, count in enumerate(stimuli["count"]):
        sample = operands[params["sel_a"]][p]
        acc = operands[params["sel_b"]][p]
        want_out = fp_mac(fmt, acc, sample, params["coeff"])
        want_done = int(count == params["count_limit"])
        if got["out"][p] != want_out or got["done"][p] != want_done:
            mismatches += 1
    return mismatches


def table_qor(comparison) -> Dict[str, object]:
    """Table-I quality of result of both flows, keyed like the benchmark metrics."""
    qor: Dict[str, object] = {}
    for tag, flow in (("conv", comparison.conventional), ("param", comparison.parameterized)):
        row = flow.table1_row()
        qor[f"luts_{tag}"] = row["luts"]
        qor[f"depth_{tag}"] = row["logic_depth"]
        qor[f"routed_{tag}"] = row["routed"]
        qor[f"degraded_{tag}"] = bool(flow.par.degraded)
        if row["routed"]:
            qor[f"wl_{tag}"] = row["wirelength"]
            qor[f"cpd_{tag}_ns"] = row["critical_path_ns"]
            qor[f"cw_{tag}"] = row["channel_width"]
    return qor


def python_fallbacks(comparison) -> List[str]:
    """Flow steps whose compiled kernel fell back to its Python twin."""
    found = []
    for flow in (comparison.conventional, comparison.parameterized):
        par = flow.par
        if par.routing.kernel == "astar" and not (par.routing.telemetry or {}).get("native"):
            found.append(f"{flow.flow}: astar route")
        place_tm = par.placement.telemetry or {}
        if place_tm.get("native") is False:
            found.append(f"{flow.flow}: batched placement")
    return found
