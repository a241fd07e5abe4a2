"""tensortract benchmark: one closed-loop client, one process, no threads.

Usage (from the repository root):

    python3 bench/run.py --workload count_sweep --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` next to this directory; without it the
run stops with a nonzero exit code.  A run builds the workload's op list
from the seed, runs one untimed warm-up pass, then repeats passes over the
list in a seed-shuffled order for ``--seconds``.  Every result is checked
against ``pins.json`` and against identities that need no pin; a wrong
result, an exception or a budget error is a failed op and makes the exit
code 1.

Times are reported in reference seconds.  Other tenants of a shared machine
slow every process on it by 20-40% for stretches of seconds to minutes, far
more than the changes the benchmark must resolve.  So a fixed pure-Python
calibration loop is timed before and after every tenth of a second of ops,
and each op's wall time is scaled by ``REF_PROBE_S`` over the mean of the
two loop times around it: the time the op would take at the speed where the
loop takes ``REF_PROBE_S``, about an idle core of the 2-vCPU Xeon virtual
machine the benchmark was written on.  A change to the package does not
touch the loop, so it moves these times as it moves wall times.  Wall times
are printed too.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
``BENCHMARK.json``: ``pass_s`` is the sum over the op list of each op's
median time, ``ops_per_s`` and ``tuples_per_s`` divide one pass's ops and
counted tuples by it, and ``op_ms_p50`` / ``op_ms_p90`` are percentiles of
the ops' median times.  ``setup_s`` is the median over fresh interpreters
of the time to import the package and build the inputs.

With ``--trace 1`` half the time runs untraced and half traced (see
``tracing.py``) and the last line carries the per-layer metrics, each per
traced pass; ``*_s`` layer metrics are self times.  The spans are written to
``bench/.out/``.

Lines before the last one give run metadata, each op's returned tuple count
next to its median time, and every metric by name and unit.  ``failed_frac``
is printed there; the result line carries it as ``failed`` of ``attempted``.

The benchmark's own tests: ``python3 -m pytest bench/selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / ".out"

#: Fresh interpreters timed for setup_s, after one untimed warm-up.
SETUP_RUNS = 9

PROBE_LOOPS = 75_000
REF_PROBE_S = 0.005
PROBE_EVERY_S = 0.1


def import_package():
    """Import tensortract from this checkout's src/, never from elsewhere."""
    init = SRC / "tensortract" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: {init} not found; run from a checkout with src/")
    sys.path.insert(0, str(SRC))
    import tensortract
    if Path(tensortract.__file__).resolve() != init.resolve():
        sys.exit(f"bench: imported tensortract from {tensortract.__file__}, not {init}")
    return tensortract


def probe() -> float:
    """Wall time of the calibration loop."""
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return time.perf_counter() - t0


# ------------------------------------------------------------------ runs

class Timings:
    """Per-op lists of reference and wall seconds, plus every probe time."""

    def __init__(self, n_ops: int):
        self.ref = [[] for _ in range(n_ops)]
        self.wall = [[] for _ in range(n_ops)]
        self.probes: list = []

    def add(self, samples: list, probe_before: float, probe_after: float) -> None:
        scale = REF_PROBE_S / (0.5 * (probe_before + probe_after))
        for i, dt in samples:
            self.wall[i].append(dt)
            self.ref[i].append(dt * scale)
        self.probes.append(probe_after)

    def medians(self) -> list:
        return [statistics.median(ts) for ts in self.ref]


class Runner:
    """Runs passes over one op list, checks every result, keeps the failures."""

    def __init__(self, ops: list, pins: dict, seed: int, tracer=None):
        self.ops = ops
        self.pins = pins
        self.order_rng = random.Random(seed)
        self.tracer = tracer
        self.attempted = 0
        self.failures: list = []
        self.tuples = [0] * len(ops)
        self.output_bytes = [0] * len(ops)

    def run_pass(self, timings: Timings | None = None, traced: bool = False) -> None:
        """One pass in a fresh shuffled order, timed into ``timings`` if given."""
        order = list(range(len(self.ops)))
        self.order_rng.shuffle(order)
        tracer = self.tracer if traced else None
        results = [None] * len(self.ops)
        errors = [None] * len(self.ops)
        clock = time.perf_counter
        last_probe = probe() if timings is not None else 0.0
        last_t = clock()
        pending = []
        for pos, i in enumerate(order):
            op = self.ops[i]
            if tracer:
                tracer.op_id = op.id
                tracer.on = True
            t0 = clock()
            try:
                results[i] = op.run()
            except Exception as exc:  # a failed op is recorded, the run goes on
                errors[i] = f"{type(exc).__name__}: {exc}"
            dt = clock() - t0
            if tracer:
                tracer.on = False
            if timings is not None:
                pending.append((i, dt))
                if clock() - last_t >= PROBE_EVERY_S or pos == len(order) - 1:
                    p = probe()
                    timings.add(pending, last_probe, p)
                    pending = []
                    last_probe = p
                    last_t = clock()
        # Checks run after the pass, in op-list order (see NthErrorOp).
        for i, op in enumerate(self.ops):
            self.attempted += 1
            err = errors[i] or op.verify(results[i], self.pins)
            if err:
                self.failures.append((op.id, err))
                continue
            self.tuples[i] = op.tuples(results[i])
            self.output_bytes[i] = op.output_bytes(results[i])

    def run_for(self, seconds: float, traced: bool = False) -> Timings:
        """Passes until the next one would end more than half a pass past the
        deadline, at least one."""
        timings = Timings(len(self.ops))
        start = time.perf_counter()
        passes = 0
        while True:
            if traced:
                self.tracer.pass_no += 1
            self.run_pass(timings, traced)
            passes += 1
            elapsed = time.perf_counter() - start
            if elapsed * (1.0 + 0.5 / passes) >= seconds:
                return timings


def end_to_end(runner: Runner, timings: Timings, setup_s: float, peak_rss_mb: float) -> dict:
    medians = timings.medians()
    pass_s = sum(medians)
    deciles = statistics.quantiles(medians, n=10, method="inclusive")
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (pass_s, "s"),
        "ops_per_s": (len(runner.ops) / pass_s, "1/s"),
        "op_ms_p50": (1e3 * deciles[4], "ms"),
        "op_ms_p90": (1e3 * deciles[8], "ms"),
        "tuples_per_s": (sum(runner.tuples) / pass_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(runner: Runner, tracer, traced: Timings, untraced: Timings) -> dict:
    """Per-layer totals over the traced passes, divided by their number;
    seconds are scaled to reference speed by the traced passes' median probe."""
    n = len(traced.ref[0])
    scale = REF_PROBE_S / statistics.median(traced.probes)
    spans = tracer.self_times()
    counts = tracer.counts

    def calls(name):
        return (spans.get(name, (0, 0, 0.0))[0] / n, "count")

    def self_s(name):
        return (spans.get(name, (0, 0, 0.0))[2] * scale / n, "s")

    nodes, tuples = counts["complexity.nodes"], counts["complexity.tuples"]
    entries, requested = counts["complexity.topk_entries"], counts["complexity.topk_requested"]
    return {
        "seqcore.scalar_calls": (counts["seqcore.scalar_calls"] / n, "count"),
        "seqcore.scalar_s": (counts["seqcore.scalar_s"] * scale / n, "s"),
        "seqcore.vector_calls": (counts["seqcore.vector_calls"] / n, "count"),
        "seqcore.vector_s": (counts["seqcore.vector_s"] * scale / n, "s"),
        "complexity.threshold_calls": calls("complexity.threshold"),
        "complexity.threshold_s": self_s("complexity.threshold"),
        "complexity.count_calls": calls("complexity.count"),
        "complexity.count_s": self_s("complexity.count"),
        "complexity.count_failed": (spans.get("complexity.count", (0, 0, 0.0))[1] / n, "count"),
        "complexity.nodes": (nodes / n, "count"),
        "complexity.tuples": (tuples / n, "count"),
        "complexity.nodes_per_tuple": (nodes / tuples if tuples else 0.0, "ratio"),
        "complexity.topk_calls": calls("complexity.topk"),
        "complexity.topk_s": self_s("complexity.topk"),
        "complexity.topk_entries": (entries / n, "count"),
        "complexity.topk_overshoot": (entries / requested if requested else 0.0, "ratio"),
        "tractability.classify_calls": calls("tractability.classify"),
        "tractability.classify_s": self_s("tractability.classify"),
        "tractability.summability_s": self_s("tractability.summability"),
        "verify.oracle_calls": calls("verify.oracle"),
        "verify.oracle_s": self_s("verify.oracle"),
        "verify.oracle_box_cells": (counts["verify.oracle_box_cells"] / n, "count"),
        "verify.sandwich_s": self_s("verify.sandwich"),
        "cli.load_config_s": self_s("cli.load_config"),
        "cli.run_s": self_s("cli.run"),
        "cli.emit_s": self_s("cli.main"),
        "cli.output_bytes": (sum(runner.output_bytes), "B"),
        "trace.overhead_frac": (sum(traced.medians()) / sum(untraced.medians()) - 1.0, "frac"),
    }


# ------------------------------------------------------------- set-up

def setup_probe(workload: str, seed: int) -> None:
    """Child mode: time importing the package and building the inputs, then
    print that time and the calibration loop's median time around it."""
    loops = [probe() for _ in range(3)]
    t0 = time.perf_counter()
    import_package()
    import workloads
    workloads.build(workload, seed)
    elapsed = time.perf_counter() - t0
    loops += [probe() for _ in range(3)]
    print(repr(elapsed), repr(statistics.median(loops)))


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh interpreters of the set-up time, in reference seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_RUNS + 1):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        elapsed, loop = map(float, out.stdout.split())
        times.append(elapsed * REF_PROBE_S / loop)
    return statistics.median(times[1:])


# ----------------------------------------------------------- metadata

def git_sha() -> str | None:
    """HEAD's commit from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(np_version: str) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np_version,
        "git_sha": git_sha(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


# ---------------------------------------------------------------- main

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import_package()
    import numpy
    import workloads
    if args.workload not in workloads.BUILDERS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.BUILDERS)}")

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    ops = workloads.build(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    runner = Runner(ops, workloads.load_pins(), args.seed, tracer)
    runner.run_pass()  # warm-up, checked but not timed
    # The high-water mark of set-up plus one pass of every op, before the
    # timing lists grow with the number of passes.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        timings = runner.run_for(args.seconds / 2)
        tracer.install()
        try:
            traced = runner.run_for(args.seconds / 2, traced=True)
        finally:
            tracer.uninstall()
        metrics = per_layer(runner, tracer, traced, timings)
    else:
        timings = runner.run_for(args.seconds)
        metrics = end_to_end(runner, timings, setup_s, peak_rss_mb)

    meta = metadata(numpy.__version__)
    meta.update(workload=args.workload, seed=args.seed, trace=args.trace,
                timed_passes=len(timings.ref[0]), ops_per_pass=len(ops),
                probe_median_s=statistics.median(timings.probes), ref_probe_s=REF_PROBE_S)
    op_rows = [{"op": op.id, "tuples": n, "median_ms": 1e3 * statistics.median(ref),
                "wall_median_ms": 1e3 * statistics.median(wall), "samples": len(ref)}
               for op, n, ref, wall in zip(ops, runner.tuples, timings.ref, timings.wall)]
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        tracer.write_spans(OUT_DIR / f"{stem}-spans.csv")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {"meta": meta, "ops": op_rows, "failures": runner.failures, **result}, indent=1),
        encoding="utf-8")

    print("meta " + json.dumps(meta, sort_keys=True))
    _print_ops(op_rows)
    for op_id, err in runner.failures[:20]:
        print(f"FAILED {op_id}: {err}", file=sys.stderr)
    print(f"metric failed_frac {len(runner.failures) / runner.attempted!r} frac "
          f"({len(runner.failures)} of {runner.attempted} ops)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(json.dumps(result))
    return 1 if runner.failures else 0


def _print_ops(op_rows: list) -> None:
    """One line per op; kinds with more than 100 ops are summed in one line."""
    kinds: dict = {}
    for row in op_rows:
        kinds.setdefault(row["op"].split(":", 1)[0], []).append(row)
    for kind, rows in kinds.items():
        if len(rows) <= 100:
            for r in rows:
                print(f"op {r['op']} tuples={r['tuples']} median_ms={r['median_ms']:.4f} "
                      f"wall_median_ms={r['wall_median_ms']:.4f} n={r['samples']}")
        else:
            print(f"op {kind}:* ops={len(rows)} tuples={sum(r['tuples'] for r in rows)} "
                  f"median_ms_sum={sum(r['median_ms'] for r in rows):.4f} "
                  f"wall_median_ms_sum={sum(r['wall_median_ms'] for r in rows):.4f}")


if __name__ == "__main__":
    sys.exit(main())
