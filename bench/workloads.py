"""The benchmark's workloads: fixed op lists, their pinned values and checks.

Each op is one call into the package's public API.  ``Op.run`` is the timed
call; ``Op.project`` reduces its result to the JSON value pinned in
``pins.json`` (never the ``nodes`` column, whose meaning a new counter may
change); ``Op.check`` tests the identities that need no pin; ``Op.tuples``
is the number of tensor eigenvalues (tuples) the call counted or emitted.

Ops look package functions up through their modules at call time, so the
tracer's patches see them.  Checks call the functions bound below at import,
before any patching, and run with the tracer off.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from pathlib import Path

from tensortract import cli, complexity, goldens, tractability, verify
from tensortract.complexity import Query
from tensortract.seqcore import (
    DoubleExpPower,
    EigenSeq,
    ExpPower,
    IterLog,
    LogPower,
    PowerLaw,
    Tabulated,
    TripleExp,
    WeightSeq,
)
from tensortract.tractability import Notion

_reference_count = complexity.info_complexity

BENCH_DIR = Path(__file__).resolve().parent
PINS_PATH = BENCH_DIR / "pins.json"
CONFIG_DIR = BENCH_DIR / ".out" / "configs"

#: Draws of random tabulated instances per small_calls pass.
SMALL_DRAWS = 2000


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


class Op:
    """One timed call.  Subclasses override run and, as needed, the rest."""

    pinned = True

    def __init__(self, op_id: str):
        self.id = op_id

    def run(self):
        raise NotImplementedError

    def project(self, result):
        return None

    def check(self, result) -> str | None:
        return None

    def tuples(self, result) -> int:
        return 0

    def output_bytes(self, result) -> int:
        return 0

    def verify(self, result, pins: dict) -> str | None:
        """Error message for a wrong result, or None when the result is right."""
        if self.pinned:
            if self.id not in pins:
                return "no pinned value for this op"
            got = self.project(result)
            if got != pins[self.id]:
                return f"pinned value mismatch: got {got!r}, want {pins[self.id]!r}"
        return self.check(result)


# ---------------------------------------------------------------- CLI ops

def _write_config(name: str, doc: dict) -> str:
    CONFIG_DIR.mkdir(parents=True, exist_ok=True)
    path = CONFIG_DIR / name
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if not path.is_file() or path.read_text(encoding="utf-8") != text:
        path.write_text(text, encoding="utf-8")
    return str(path)


class CliOp(Op):
    """``cli.main`` in-process on one config; stdout is captured, not printed."""

    def __init__(self, op_id: str, command: str, config_path: str):
        super().__init__(op_id)
        self.argv = [command, "--config", config_path]

    def run(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv)
        return code, buf.getvalue()

    @staticmethod
    def rows(result) -> list:
        return list(csv.DictReader(io.StringIO(result[1])))

    def check(self, result) -> str | None:
        code = result[0]
        return None if code == cli.EXIT_OK else f"cli exit code {code}"

    def output_bytes(self, result) -> int:
        return len(result[1].encode("utf-8"))


_SWEEP_COLUMNS = ("E", "d", "j_eps", "d_eps", "count", "truncated_dimension", "error")


class SweepOp(CliOp):
    """One ``sweep`` call over one E row: every d of the grid at that E.

    Keeping a whole row in one call keeps the (E, d=20) and (E, d=30) cells,
    which share one count after truncation, inside the same call.
    """

    def project(self, result):
        return [[row[c] for c in _SWEEP_COLUMNS] for row in self.rows(result)]

    def check(self, result) -> str | None:
        err = super().check(result)
        if err:
            return err
        by_d = {row["d"]: row["count"] for row in self.rows(result)}
        if "20" in by_d and "30" in by_d and by_d["20"] != by_d["30"]:
            return f"count(E, d=20) = {by_d['20']} != count(E, d=30) = {by_d['30']}"
        return None

    def tuples(self, result) -> int:
        return sum(int(row["count"]) for row in self.rows(result) if row["count"])


def _topk_identity(lam, gam, d: int, K: int, costs: list) -> str | None:
    """With B the K-th cost, count(E = B/2, d) is the number of costs < B."""
    if len(costs) < K:
        return f"only {len(costs)} entries for K = {K}"
    if any(b < a for a, b in zip(costs, costs[1:])):
        return "costs are not non-decreasing"
    B = costs[K - 1]
    below = sum(1 for c in costs if c < B)
    count = _reference_count(lam, gam, Query(B / 2.0, d)).count
    if count != below:
        return f"count(E={B / 2.0!r}, d={d}) = {count} != {below} emitted costs below B"
    return None


class _VerifiedOnce:
    """Runs an expensive identity once per distinct result."""

    def __init__(self):
        self.verified = None

    def verify(self, key, check) -> str | None:
        if key == self.verified:
            return None
        err = check()
        self.verified = None if err else key
        return err


class CliTopkOp(CliOp):
    def __init__(self, op_id, config_path, lam, gam, d, K):
        super().__init__(op_id, "topk", config_path)
        self.lam, self.gam, self.d, self.K = lam, gam, d, K
        self._once = _VerifiedOnce()

    def project(self, result):
        return len(self.rows(result))

    def check(self, result) -> str | None:
        err = super().check(result)
        if err:
            return err
        costs = tuple(float(row["cost"]) for row in self.rows(result))
        return self._once.verify(costs, lambda: _topk_identity(
            self.lam, self.gam, self.d, self.K, list(costs)))

    def tuples(self, result) -> int:
        return len(self.rows(result))


# -------------------------------------------------------------- API ops

class TopkOp(Op):
    def __init__(self, op_id, lam, gam, d, K):
        super().__init__(op_id)
        self.lam, self.gam, self.d, self.K = lam, gam, d, K
        self._once = _VerifiedOnce()

    def run(self):
        return complexity.top_eigenvalues(self.lam, self.gam, self.d, self.K)

    def project(self, result):
        return len(result)

    def check(self, result) -> str | None:
        costs = tuple(float(c) for c in result)
        return self._once.verify(costs, lambda: _topk_identity(
            self.lam, self.gam, self.d, self.K, list(costs)))

    def tuples(self, result) -> int:
        return len(result)


class NthErrorOp(Op):
    """log(1/e(n)) must be half the (n+1)-th cost of a verified top-K list.

    Checks run in op-list order, so ``reference`` is checked before this op.
    """

    def __init__(self, op_id, lam, gam, d, n, reference: TopkOp):
        super().__init__(op_id)
        self.lam, self.gam, self.d, self.n = lam, gam, d, n
        self.reference = reference

    def run(self):
        return complexity.nth_minimal_error(self.lam, self.gam, self.d, self.n)

    def project(self, result):
        return repr(float(result))

    def check(self, result) -> str | None:
        ref = self.reference._once.verified
        if ref is None:
            return f"reference op {self.reference.id} did not verify"
        want = 0.5 * ref[self.n]
        if float(result) != want:
            return f"nth_minimal_error = {float(result)!r} != half the reference cost {want!r}"
        return None

    def tuples(self, result) -> int:
        return self.n + 1


def _sandwich_counts(report) -> int:
    """count(E, d) + count(2 d_eps E, d_eps) + count(E, d_eps), where computed."""
    total = 0
    for chk in report.checks:
        if chk.name.startswith("count_sandwich.lower"):
            total += int(chk.lhs)
        elif chk.rhs.isdigit():
            total += int(chk.rhs)
    return total


class SandwichOp(Op):
    def __init__(self, pair, E, d):
        super().__init__(f"sandwich:{pair.name}:E={E!r}:d={d}")
        self.pair, self.E, self.d = pair, E, d

    def run(self):
        return verify.check_count_sandwich(self.pair.lam, self.pair.gam, self.E, self.d)

    def project(self, result):
        return [result.instance, [[c.name, c.passed, c.lhs, c.rhs] for c in result.checks]]

    def check(self, result) -> str | None:
        return None if result.passed else "sandwich audit failed"

    def tuples(self, result) -> int:
        return _sandwich_counts(result)


class DrawOp(Op):
    """One random tabulated instance, counted and checked against the oracle."""

    pinned = False

    def __init__(self, i, lam, gam, q, box):
        super().__init__(f"draw:{i}")
        self.lam, self.gam, self.q, self.box = lam, gam, q, box

    def run(self):
        n = complexity.info_complexity(self.lam, self.gam, self.q).count
        return n, verify.brute_force_count(self.lam, self.gam, self.q, self.box)

    def check(self, result) -> str | None:
        n, oracle = result
        return None if n == oracle else f"count {n} != brute-force count {oracle}"

    def tuples(self, result) -> int:
        return result[0]


class ClassifyOp(Op):
    def __init__(self, pair, key, notion):
        super().__init__(f"classify:{pair.name}:{key}")
        self.pair, self.notion = pair, notion

    def run(self):
        return tractability.classify(self.pair.lam, self.pair.gam, self.notion)

    def project(self, result):
        return result.status.value


class ThresholdOp(Op):
    def __init__(self, seq, E):
        super().__init__(f"j_of_eps:{seq.family.name}:E={E!r}")
        self.seq, self.E = seq, E

    def run(self):
        return complexity.j_of_eps(self.seq, self.E)

    def project(self, result):
        return result


class ReportOp(Op):
    """A verify audit call whose report must pass."""

    def __init__(self, op_id, fn_name, *args, pinned=True, **kwargs):
        super().__init__(op_id)
        self.pinned = pinned
        self.fn_name, self.args, self.kwargs = fn_name, args, kwargs

    def run(self):
        return getattr(verify, self.fn_name)(*self.args, **self.kwargs)

    def project(self, result):
        return [[c.name, c.passed, c.lhs, c.rhs] for c in result.checks]

    def check(self, result) -> str | None:
        return None if result.passed else f"{self.fn_name} report failed"


# ------------------------------------------------------------ workloads

_POWER_EXP = (EigenSeq(PowerLaw(2.0)), WeightSeq(ExpPower(1.0, 1.0)))
_DOUBLE_EXP = (EigenSeq(DoubleExpPower(1.0, 1.0)), WeightSeq(DoubleExpPower(1.0, 1.0)))


def _sweep_ops(name: str, pair, Es, ds) -> list:
    lam, gam = pair
    ops = []
    for E in Es:
        path = _write_config(f"sweep_{name}_E{E:g}.json", {
            "schema": 1, "lambda": lam.descriptor(), "gamma": gam.descriptor(),
            "queries": {"E": [E], "d": list(ds)}})
        ops.append(SweepOp(f"sweep:{name}:E={E!r}", "sweep", path))
    return ops


def count_sweep(seed: int) -> list:
    sharp = goldens.DOUBLE_EXP_SHARP
    return (_sweep_ops("power_law-exp_power", _POWER_EXP, (4.0, 6.0, 8.0, 9.0), (10, 20, 30))
            + _sweep_ops("double_exp", _DOUBLE_EXP, (100.0, 1000.0, 3000.0), (7, 10))
            + [SandwichOp(sharp, 1000.0, 10)])


def spectrum_topk(seed: int) -> list:
    lam, gam = _POWER_EXP
    smooth = goldens.DOUBLE_EXP_SMOOTH
    ops = [TopkOp(f"topk:power_law-exp_power:K={K}:d={d}", lam, gam, d, K)
           for K in (1000, 10000) for d in (10, 20)]
    ops.append(TopkOp("topk:double_exp_smooth:K=10000:d=10", smooth.lam, smooth.gam, 10, 10000))
    ref = ops[3]  # K = 10000, d = 20
    ops.append(NthErrorOp("nth_minimal_error:power_law-exp_power:n=5000:d=20",
                          lam, gam, 20, 5000, ref))
    path = _write_config("topk_power_law-exp_power.json", {
        "schema": 1, "lambda": lam.descriptor(), "gamma": gam.descriptor(),
        "queries": {"E": [1.0], "d": [10]}, "k": 10000})
    ops.append(CliTopkOp("cli_topk:power_law-exp_power:K=10000:d=10", path, lam, gam, 10, 10000))
    return ops


_NOTIONS = (("spt", Notion.spt()), ("pt", Notion.pt()), ("qpt", Notion.qpt()),
            ("wt", Notion.wt()), ("st(1,1)", Notion.st_weak(1.0, 1.0)),
            ("st(0.5,2)", Notion.st_weak(0.5, 2.0)))

_E_DECADES = (1, 2, 3, 5, 10, 20, 50, 100, 200, 300)

#: Threshold families with the largest E decade each resolves.  Beyond it the
#: index exceeds 2**62 and the family has no closed-form hint, which
#: j_of_eps reports as NonCompact by design.
_THRESHOLD_FAMILIES = (
    (PowerLaw(2.0), 2),
    (ExpPower(1.0, 1.0), 300),
    (DoubleExpPower(1.0, 1.0), 300),
    (TripleExp(1.0), 300),
    (LogPower(2.0), 5),
    (IterLog(), 3),
    (Tabulated(tuple(0.5 * j for j in range(40))), 300),
)


def _oracle_box(lam, gam, q) -> int:
    """Smallest box that holds every qualifying level (as the audit suite does)."""
    B = 2.0 * q.E
    g1 = gam.G(1)
    max_level = 1
    j = 2
    while not math.isinf(lam.L(j)) and g1 + lam.L(j) < B:
        max_level = j
        j += 1
    return max_level + 1


def small_calls(seed: int) -> list:
    rng = random.Random(seed)
    ops = []
    for i in range(SMALL_DRAWS):
        lam, gam, q = verify.random_tabulated_instance(rng)
        ops.append(DrawOp(i, lam, gam, q, _oracle_box(lam, gam, q)))
    for pair in goldens.GOLDEN_PAIRS:
        for key, notion in _NOTIONS:
            ops.append(ClassifyOp(pair, key, notion))
    for fam, top in _THRESHOLD_FAMILIES:
        seq = EigenSeq(fam)
        for k in _E_DECADES:
            if k <= top:
                ops.append(ThresholdOp(seq, 10.0**k))
    for pair in goldens.GOLDEN_PAIRS:
        for E in pair.audit_E:
            for d in pair.audit_d:
                # These two cells take 0.4 s each; count_sweep audits one.
                if pair is goldens.DOUBLE_EXP_SHARP and E == 1000.0:
                    continue
                ops.append(SandwichOp(pair, E, d))
    for label, fam in (("power_law(1)", PowerLaw(1.0)), ("power_law(2)", PowerLaw(2.0)),
                       ("log_power(2)", LogPower(2.0)), ("exp_power(1,1)", ExpPower(1.0, 1.0))):
        ops.append(ReportOp(f"summability:{label}", "check_summability_equivalence",
                            EigenSeq(fam), (2.0, 1.0, 0.5, 0.1)))
    iterated = goldens.iterated_log_pair()
    ops.append(ReportOp(f"summability:{iterated.name}",
                        "check_summability_equivalence", iterated.lam, (2.0, 1.0)))
    ops.append(ReportOp("power_sum_suite", "power_sum_suite", seed=seed, pinned=False))
    return ops


BUILDERS = {"count_sweep": count_sweep, "spectrum_topk": spectrum_topk,
            "small_calls": small_calls}


def build(workload: str, seed: int) -> list:
    return BUILDERS[workload](seed)
