#!/usr/bin/env python3
"""End-to-end Table-I flow benchmark with per-layer attribution.

One Processing Element (FloPoCo 5/10, 2 inputs, counter width 4) goes
through the conventional and the fully parameterized flow side by side
(``repro.core.flows.compare_pe_flows``), then the Specialized Configuration
Generator specializes the parameterized result for a series of coefficient
changes.  One closed-loop caller in one process; no worker pool.

Run from the repository root::

    python3 perfbench/run.py --workload table1_w16 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs one untraced and one traced comparison on the same placement seed and
reports the per-layer metrics (:mod:`layers`).  Every run checks the mapped
PEs against the FloPoCo reference model outside the timed region
(:mod:`verify`).  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is non-zero
when any check fails.

Workloads (all: placement effort 0.25, 25 router iterations):

* ``table1_w16`` -- the default user flow (wirelength objective) at W=16,
  where both flows route: ``examples/quickstart.py`` with placement and
  routing on.
* ``mincw_timing`` -- the timing objective with the minimum-channel-width
  search from W=16: min-CW probes, STA and the native batched annealer.

The seed picks the placement seeds of the flow loop, the SCG coefficients
and the verification stimuli.  The flow loop runs at least ``flows``
comparisons and keeps going while ``--seconds`` have not elapsed, each on a
fresh placement seed, so the median spans as many seeds as the run allows.
``flow_s`` is the median comparison time; the quality of result is the mean
over the first ``flows`` placement seeds (the same seeds whatever the host
speed), as Table-I numbers are averaged over placement seeds.  Every
comparison is followed by the workload's ``scg_changes`` coefficient changes
on its parameterized result (more on ``mincw_timing``, which fits fewer
comparisons in a run), so that ``scg_p90_ms`` keeps 24+ samples beyond it.
End-to-end times are taken at a nominal host speed (see :func:`run_scg`,
:class:`PacedClock` and :func:`setup_samples`); the per-layer times of
``--trace 1`` are measured wall times.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"

#: Ambient knobs that would make a run non-hermetic: a warm PaR cache, a
#: trace sink, or injected faults.
AMBIENT_VARS = ("REPRO_PAR_CACHE", "REPRO_TRACE", "REPRO_FAULT_PLAN")
#: One caller, one thread: no BLAS/OpenMP helper threads competing for the
#: host's cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

PE = {"we": 5, "wf": 10, "num_inputs": 2, "counter_width": 4}
FLOW = {"placement_effort": 0.25, "router_iterations": 25}

WORKLOADS = {
    "table1_w16": {"flows": 6, "scg_changes": 40, "kwargs": {"channel_width": 16}},
    "mincw_timing": {
        "flows": 3,
        "scg_changes": 80,
        "kwargs": {"channel_width": 16, "objective": "timing", "find_min_channel_width": True},
    },
}

SETUP_SAMPLES = 9
#: :func:`host_probe` on a quiet host (2-vCPU Xeon VM, Python 3.11).
HOST_PROBE_NOMINAL_S = 0.00196
VERIFY_SETS = 8
VERIFY_VECTORS = 64
NATIVE_KERNELS = ("annealer", "astar")

QOR_UNITS = {
    "luts_conv": "count", "luts_param": "count",
    "depth_conv": "levels", "depth_param": "levels",
    "wl_conv": "wires", "wl_param": "wires",
    "cpd_conv_ns": "ns", "cpd_param_ns": "ns",
    "cw_conv": "tracks", "cw_param": "tracks",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing program, wrong backend)."""


def host_probe() -> float:
    """Wall time of a fixed pure-Python loop: how fast the host runs the
    interpreter at this moment (imports nothing of ``repro``)."""
    acc = 0
    t0 = time.perf_counter()
    for i in range(40_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def make_hermetic() -> None:
    """Environment of this process and its children: no ambient caches or
    faults, the native build cache and compiler scratch inside the checkout."""
    for name in AMBIENT_VARS:
        os.environ.pop(name, None)
    for name in THREAD_VARS:
        os.environ[name] = "1"
    os.environ["REPRO_NATIVE_CACHE"] = str(BUILD_DIR / "repro-native")
    os.environ["TMPDIR"] = str(BUILD_DIR / "tmp")
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    (BUILD_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))


def setup() -> Dict[str, object]:
    """Import the flow, load the native kernels, elaborate the PE; timed."""
    t0 = time.perf_counter()
    from repro.core.pe import ProcessingElementSpec, build_pe_design
    from repro.flopoco.format import FPFormat
    from repro.native.annealer import annealer_kernel
    from repro.native.astar import astar_kernel
    import repro.core.flows  # noqa: F401  (the flow entry points)
    import repro.core.specialization  # noqa: F401

    t1 = time.perf_counter()
    annealer_kernel()
    astar_kernel()
    t2 = time.perf_counter()
    fmt = FPFormat(we=PE["we"], wf=PE["wf"])
    spec = ProcessingElementSpec(
        fmt=fmt, num_inputs=PE["num_inputs"], counter_width=PE["counter_width"]
    )
    circuit = build_pe_design(spec).circuit
    t3 = time.perf_counter()
    return {
        "fmt": fmt,
        "circuit": circuit,
        "setup_s": t3 - t0,
        "native_load_s": t2 - t1,
    }


def setup_samples(count: int) -> List[float]:
    """Set-up time of ``count`` fresh processes (warm native build cache), at
    the nominal host speed of :func:`host_probe` calls around each."""
    samples = []
    for _ in range(count):
        before = host_probe()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        scale = HOST_PROBE_NOMINAL_S / (0.5 * (before + host_probe()))
        samples.append(scale * json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def check_native() -> Dict[str, object]:
    from repro.native.build import build_status

    status = build_status()
    missing = [k for k in NATIVE_KERNELS if k not in status["loaded"]]
    if missing:
        raise BenchError(
            f"native kernels {missing} fell back to the Python twins "
            f"({status['last_error']}); that is a different program, not a slowdown"
        )
    return status


class PacedClock:
    """Wall time of a comparison at the nominal host speed.

    Like an SCG change (:func:`run_scg`), but a comparison takes seconds, so
    a :func:`host_probe` runs at every entry to and exit from a layer call
    (the :data:`layers.WRAPS` bindings).  Each stretch between two marks is
    scaled by the mean of the probes at its ends; the probes themselves are
    not timed.  ``raw`` is the measured wall time of the same stretches.
    """

    def __init__(self) -> None:
        self.raw = self.scaled = 0.0
        self._saved: List[tuple] = []
        self._probe = host_probe()
        self._t = time.perf_counter()

    def mark(self) -> None:
        wall = time.perf_counter() - self._t
        probe = host_probe()
        self.raw += wall
        self.scaled += wall * HOST_PROBE_NOMINAL_S / (0.5 * (self._probe + probe))
        self._probe = probe
        self._t = time.perf_counter()

    def _wrap(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.mark()
            try:
                return fn(*args, **kwargs)
            finally:
                self.mark()

        return wrapper

    def __enter__(self) -> "PacedClock":
        from layers import WRAPS

        for module_name, attr in dict.fromkeys((w[0], w[1]) for w in WRAPS):
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original))
        self._probe = host_probe()
        self._t = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.mark()
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def run_comparison(ctx, workload: dict, seed: int):
    """One comparison; returns it with its measured wall time."""
    from repro.core.flows import compare_pe_flows

    gc.collect()  # each comparison starts from the same heap, not the last one's garbage
    t0 = time.perf_counter()
    comparison = compare_pe_flows(circuit=ctx["circuit"], seed=seed, **FLOW, **workload["kwargs"])
    return comparison, time.perf_counter() - t0


def run_paced_comparison(ctx, workload: dict, seed: int):
    """One comparison; returns it with its time at the nominal host speed and
    its measured wall time (see :class:`PacedClock`)."""
    from repro.core.flows import compare_pe_flows

    gc.collect()
    with PacedClock() as clock:
        comparison = compare_pe_flows(circuit=ctx["circuit"], seed=seed, **FLOW, **workload["kwargs"])
    return comparison, clock.scaled, clock.raw


def mean_qor(qors: List[Dict[str, object]]) -> Dict[str, float]:
    """Mean of each QoR metric over placement seeds; missing if any seed lacks it."""
    return {
        name: statistics.fmean(float(q[name]) for q in qors)
        for name in QOR_UNITS
        if all(name in q for q in qors)
    }


def run_scg(comparison, base: Dict[str, int], coeffs: List[int]) -> Dict[str, object]:
    """Specialize the parameterized PE once, then once per coefficient change.

    The benchmark's host is shared, and how fast it runs the interpreter
    swings by more than 2x within seconds.  A change takes ~10-25 ms, so each
    one is timed between two :func:`host_probe` calls and its ``times`` entry
    is its wall time at the nominal probe time ``HOST_PROBE_NOMINAL_S``;
    ``wall`` keeps the measured times.
    """
    from repro.core.reconfiguration import HWICAP, ReconfigurationCostModel
    from repro.core.specialization import SpecializedConfigurationGenerator

    flow = comparison.parameterized
    gc.collect()
    t0 = time.perf_counter()
    scg = SpecializedConfigurationGenerator(flow.network, flow.par)
    scg.specialize(base)  # the initial full configuration
    setup_s = time.perf_counter() - t0
    times, walls, frames = [], [], []
    before = host_probe()
    for coeff in coeffs:
        t = time.perf_counter()
        outcome = scg.specialize({**base, "coeff": coeff})
        wall = time.perf_counter() - t
        after = host_probe()
        times.append(wall * HOST_PROBE_NOMINAL_S / (0.5 * (before + after)))
        walls.append(wall)
        frames.append(outcome.num_frames)
        before = after
    model = ReconfigurationCostModel(HWICAP)
    functions = scg.ppc.num_boolean_functions
    reconf = [model.time_from_frames_ms(f, functions) for f in frames]
    return {"times": times, "wall": walls, "frames": frames, "reconf_ms": reconf,
            "total_s": setup_s + sum(walls)}


def run_verify(fmt, comparison, param_sets, rng: random.Random) -> Dict[str, float]:
    import verify

    t0 = time.perf_counter()
    vectors = mismatches = 0
    for params in param_sets:
        stimuli = verify.draw_stimuli(
            fmt, PE["counter_width"], params["count_limit"], VERIFY_VECTORS, rng
        )
        for flow in (comparison.conventional, comparison.parameterized):
            mismatches += verify.check_mac(flow.network, fmt, params, stimuli)
            vectors += VERIFY_VECTORS
    return {"s": time.perf_counter() - t0, "vectors": vectors, "mismatches": mismatches}


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Run:
    """One benchmark run: seeded inputs, operation accounting, metrics."""

    def __init__(self, workload_name: str, seed: int) -> None:
        import verify

        self.workload = WORKLOADS[workload_name]
        self.flows = self.workload["flows"]
        rng = random.Random(f"{workload_name}:{seed}")
        # Separate streams: how many seeds and coefficients a run consumes
        # depends on the host's speed, the sequence drawn does not.
        self.seed_rng = random.Random(f"{workload_name}:{seed}:placement")
        self.coeff_rng = random.Random(f"{workload_name}:{seed}:coeff")
        self.flow_seeds = [self.next_seed() for _ in range(self.flows)]
        self.ctx = setup()  # warms the native build cache before anything is timed
        self.native = check_native()
        fmt = self.ctx["fmt"]
        self.param_sets = [
            verify.draw_params(fmt, PE["counter_width"], rng) for _ in range(VERIFY_SETS)
        ]
        self.rng = rng
        self.attempted = self.failed = 0
        self.correct = True
        self.metrics: Dict[str, Dict[str, object]] = {}
        self.notes: List[str] = [f"native: {', '.join(self.native['loaded'])} loaded"]

    def next_seed(self) -> int:
        return self.seed_rng.randrange(1 << 31)

    def account_flows(self, comparison) -> Dict[str, object]:
        """Count both flows of a comparison; an unrouted flow is a failure."""
        import verify

        fallbacks = verify.python_fallbacks(comparison)
        if fallbacks:
            raise BenchError(f"Python kernel twins ran: {fallbacks}")
        qor = verify.table_qor(comparison)
        for tag in ("conv", "param"):
            self.attempted += 1
            if not qor[f"routed_{tag}"]:
                self.failed += 1
                self.notes.append(f"{tag} flow did not route; its wl/cpd/cw are missing")
        return qor

    def scg(self, comparison) -> Dict[str, object]:
        import verify

        fmt = self.ctx["fmt"]
        coeffs = [verify.draw_word(fmt, self.coeff_rng)
                  for _ in range(self.workload["scg_changes"])]
        self.attempted += len(coeffs)
        return run_scg(comparison, self.param_sets[0], coeffs)

    def untraced(self, seconds: float):
        """End-to-end metrics; returns the first comparison for verification.

        Set-up probes and SCG changes run between the timed comparisons, so
        that no metric samples only one stretch of the host's speed.
        """
        probes_per_flow = -(-SETUP_SAMPLES // self.flows)
        setup_s: List[float] = []
        times, walls, qors, scg_times, scg_walls, scg_reconf = [], [], [], [], [], []
        t_loop = time.perf_counter()
        while len(times) < self.flows or time.perf_counter() - t_loop < seconds:
            index = len(times)
            seed = self.flow_seeds[index] if index < self.flows else self.next_seed()
            comparison, elapsed, wall = run_paced_comparison(self.ctx, self.workload, seed)
            times.append(elapsed)
            walls.append(wall)
            qor = self.account_flows(comparison)
            if index < self.flows:
                qors.append(qor)
            scg = self.scg(comparison)
            scg_times += scg["times"]
            scg_walls += scg["wall"]
            scg_reconf += scg["reconf_ms"]
            setup_s += setup_samples(min(probes_per_flow, SETUP_SAMPLES - len(setup_s)))
            if index == 0:
                first = comparison
            del comparison

        m = self.metrics
        m["setup_s"] = metric(statistics.median(setup_s), "s")
        m["flow_s"] = metric(statistics.median(times), "s")
        m["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        for name, value in mean_qor(qors).items():
            m[name] = metric(value, QOR_UNITS[name])
        m["scg_ms"] = metric(1e3 * statistics.median(scg_times), "ms")
        m["scg_p90_ms"] = metric(1e3 * statistics.quantiles(scg_times, n=10)[8], "ms")
        m["reconf_ms"] = metric(statistics.fmean(scg_reconf), "ms")
        self.notes += [
            f"setup_s: median of {len(setup_s)} fresh processes",
            f"flow_s: median of {len(times)} comparisons, one placement seed each, at "
            f"nominal host speed ({', '.join(f'{t:.2f}' for t in times)} s; measured "
            f"{', '.join(f'{t:.2f}' for t in walls)} s); QoR: mean of the first {len(qors)}",
            f"scg_ms/scg_p90_ms: {len(scg_times)} coefficient changes "
            f"({len(scg_times) // 10} beyond p90) at nominal host speed; measured median "
            f"{1e3 * statistics.median(scg_walls):.2f} ms; reconf_ms: mean over them",
        ]
        if any(q["degraded_conv"] or q["degraded_param"] for q in qors):
            self.notes.append("a route came through the astar->fast degradation chain")
        return first

    def traced(self):
        """Per-layer metrics from one traced comparison, with an untraced twin
        on the same placement seed as the overhead base and QoR reference."""
        import verify
        from layers import LAYERS, LayerTracer

        untraced, base_s = run_comparison(self.ctx, self.workload, self.flow_seeds[0])
        qor_untraced = verify.table_qor(untraced)
        del untraced
        tracer = LayerTracer()
        with tracer:
            first, traced_s = run_comparison(self.ctx, self.workload, self.flow_seeds[0])
        qor = self.account_flows(first)
        if qor != qor_untraced:
            self.failed += 1
            self.notes.append(f"traced QoR {qor} != untraced QoR {qor_untraced}")
        scg = self.scg(first)

        layer_s = {layer: tracer.self_s.get(layer, 0.0) for layer in LAYERS}
        unattributed = traced_s - sum(layer_s.values())
        if abs(sum(tracer.self_s.values()) - tracer.covered_s()) > 1e-6 or unattributed < 0:
            self.correct = False
            self.notes.append("layer self times do not reconcile with traced flow_s")
        counts = tracer.counts
        m = self.metrics
        for layer, value in layer_s.items():
            m[f"{layer}.s"] = metric(value, "s")
        for name in ("techmap.luts", "device.calls", "device.rr_nodes", "place.calls",
                     "place.moves", "route.calls", "route.iters", "route.nodes_expanded",
                     "route.degraded", "route.overused", "mincw.probes", "sta.calls"):
            m[name] = metric(counts[name], "count")
        m["place.accept_frac"] = metric(ratio(counts["place.accepted"], counts["place.moves"]), "ratio")
        m["place.hpwl"] = metric(counts["place.hpwl"], "tiles")
        m["route.converged_frac"] = metric(ratio(counts["route.converged"], counts["route.calls"]), "ratio")
        m["mincw.probe_converged_frac"] = metric(
            ratio(counts["mincw.probes_converged"], counts["mincw.probes"]), "ratio")
        m["scg.s"] = metric(scg["total_s"], "s")
        m["scg.calls"] = metric(len(scg["times"]) + 1, "count")
        m["scg.frames"] = metric(sum(scg["frames"]), "count")
        m["native.load_s"] = metric(self.ctx["native_load_s"], "s")
        m["native.loaded"] = metric(len(self.native["loaded"]), "count")
        m["unattributed.s"] = metric(unattributed, "s")
        m["flow.traced_s"] = metric(traced_s, "s")
        m["flow.untraced_s"] = metric(base_s, "s")
        m["trace_overhead"] = metric(traced_s / base_s, "ratio")
        shares = sorted(layer_s.items(), key=lambda kv: -kv[1])
        self.notes.append("layer shares of traced flow_s: " + ", ".join(
            f"{layer} {value / traced_s:.0%}" for layer, value in shares if value > 0)
            + f", unattributed {unattributed / traced_s:.1%}")
        return first

    def verify(self, comparison, trace: bool) -> None:
        check = run_verify(self.ctx["fmt"], comparison, self.param_sets, self.rng)
        self.attempted += check["vectors"]
        self.failed += check["mismatches"]
        if trace:
            self.metrics["verify.s"] = metric(check["s"], "s")
            self.metrics["verify.vectors"] = metric(check["vectors"], "count")
            self.metrics["verify.mismatches"] = metric(check["mismatches"], "count")
        self.notes.append(f"verify: {check['vectors'] - check['mismatches']}/{check['vectors']} "
                          f"vectors match the FloPoCo reference")

    def result(self) -> dict:
        return {"correct": self.correct and self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": self.metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    make_hermetic()

    if args.setup_probe:
        print(json.dumps({"setup_s": setup()["setup_s"]}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        run = Run(args.workload, args.seed)
        first = run.traced() if args.trace else run.untraced(args.seconds)
        run.verify(first, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 3
    result = run.result()
    for note in run.notes:
        print(f"# {note}")
    for name, m in result["metrics"].items():
        print(f"{name:<28} {m['value']:>14.6g} {m['unit']}")
    print(f"attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
