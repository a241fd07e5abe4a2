"""Independent oracles and audit checks.

The brute-force counter enumerates the full level box and shares the exact
floating-point accumulation order with the production counter, so integer
equality between the two is meaningful at every knife edge.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .complexity import (DEFAULT_NODE_BUDGET, _INDEX_LIMIT, Query, _check_positive_int,
                         _max_index_below, d_of_eps, info_complexity, j_of_eps)
from .errors import BoxTooSmall, GuardExceeded
from .seqcore import _INDEX_LOGS_CAP, EigenSeq, Tabulated, WeightSeq
from .tractability import _power_sums

_CHUNK_ELEMS = 4_000_000
_GUARD = 10**8  # most tuples in the brute-force box


@dataclass(frozen=True)
class AuditCheck:
    name: str
    passed: bool
    lhs: str
    rhs: str
    note: str = ""


@dataclass(frozen=True)
class AuditReport:
    instance: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def brute_force_count(lam: EigenSeq, gam: WeightSeq, q: Query, box: int) -> int:
    """Exhaustive count over the level box {1..box}**d.

    Raises BoxTooSmall when a qualifying tuple would touch the box boundary
    (so levels above the box could qualify too), and GuardExceeded when the
    box holds more than ``_GUARD`` tuples; every prefix enumerated then
    holds at most box**(d-1) of them.
    """
    _check_positive_int("box", box)
    if box**q.d > _GUARD:
        raise GuardExceeded(f"box**d = {box**q.d} exceeds the guard ({_GUARD})")
    B = 2.0 * q.E
    levels = [lam.L(j) for j in range(2, box + 1)]
    cols = []
    for k in range(1, q.d + 1):
        g = gam.G(k)
        cols.append(np.array([0.0] + [g + lv for lv in levels], dtype=float))
    # A tuple at the boundary level of axis k qualifies iff the tuple that is
    # all-ones except that axis does (costs are additive and nonnegative), so
    # the boundary test reduces to the single-coordinate cost.
    for k, col in enumerate(cols):
        if col[box - 1] < B:
            raise BoxTooSmall(
                f"level {box} on coordinate {k + 1} still qualifies; enlarge the box")
    # The long prefix runs along numpy's inner loop; IEEE addition commutes,
    # so each sum is still the left fold in coordinate order.
    prefix = cols[0]
    for col in cols[1:-1]:
        prefix = (col[:, None] + prefix).ravel()
    if q.d == 1:
        return int(np.count_nonzero(prefix < B))
    last = cols[-1]
    count = 0
    chunk = max(1, _CHUNK_ELEMS // box)
    for i in range(0, prefix.size, chunk):
        total = last[:, None] + prefix[i:i + chunk]
        count += int(np.count_nonzero(total < B))
    return count


def check_count_sandwich(lam: EigenSeq, gam: WeightSeq, E: float, d: int,
                         node_budget: int = DEFAULT_NODE_BUDGET) -> AuditReport:
    """Audit the threshold-power sandwich on the exact counts.

    Checks count(E, d) <= j(eps)**min(d, d(eps)) <= count(2*d(eps)*E, d(eps))
    and the dimension-truncation equality count(E, d) = count(E, d(eps)) for
    d >= d(eps).  All comparisons are exact integer comparisons.
    """
    jeps = j_of_eps(lam, E)
    deps = d_of_eps(gam, E)
    n1 = info_complexity(lam, gam, Query(E, d), node_budget=node_budget).count
    mid = max(jeps, 1) ** min(d, deps)
    checks = [AuditCheck("count_sandwich.lower: count <= j_eps**min(d,d_eps)",
                         n1 <= mid, str(n1), str(mid))]
    if deps >= 1:
        Ep = (2.0 * deps) * E
        if math.isinf(Ep):
            checks.append(AuditCheck(
                "count_sandwich.upper: j_eps**min(d,d_eps) <= count(2*d_eps*E, d_eps)",
                True, str(mid), "inf",
                note="amplified budget saturates the floating range; vacuously true"))
        else:
            nR = info_complexity(lam, gam, Query(Ep, deps), node_budget=node_budget).count
            checks.append(AuditCheck(
                "count_sandwich.upper: j_eps**min(d,d_eps) <= count(2*d_eps*E, d_eps)",
                mid <= nR, str(mid), str(nR)))
        if d >= deps:
            nT = info_complexity(lam, gam, Query(E, deps), node_budget=node_budget).count
            checks.append(AuditCheck(
                "dimension_truncation: count(E, d) == count(E, d_eps)",
                n1 == nT, str(n1), str(nT)))
    else:
        checks.append(AuditCheck(
            "count_sandwich.upper: j_eps**min(d,d_eps) <= count(2*d_eps*E, d_eps)",
            True, str(mid), "n/a", note="d_eps = 0; upper bound vacuous"))
    inst = f"E={E!r} d={d} j_eps={jeps} d_eps={deps}"
    return AuditReport(inst, tuple(checks))


def power_sum_split(s: float, a) -> float:
    """alpha with (a_1 + ... + a_m)**s = alpha * (a_1**s + ... + a_m**s).

    Uses the 0**0 = 1 convention; alpha always lies in [1, m**(s-1)] for
    s >= 1 and in [m**(s-1), 1] for s < 1.
    """
    vals = [float(x) for x in a]
    if not vals:
        raise ValueError("need at least one summand")
    if s < 0.0 or not math.isfinite(s):
        raise ValueError(f"s must be a nonnegative finite real, got {s!r}")
    if any(x < 0.0 or not math.isfinite(x) for x in vals):
        raise ValueError("summands must be nonnegative finite reals")
    if s == 0.0:
        # Every x**0 is 1 under the convention, including 0**0.
        return 1.0 / len(vals)
    den = sum(x**s for x in vals)
    if den == 0.0:
        return 1.0  # all summands zero: 0 = alpha * 0 for any alpha
    alpha = math.fsum(vals)**s / den
    return alpha


def power_sum_bounds_ok(s: float, m: int, alpha: float) -> bool:
    lo, hi = (1.0, math.pow(m, s - 1.0)) if s >= 1.0 else (math.pow(m, s - 1.0), 1.0)
    slack = 1e-9 * max(1.0, hi)
    return lo - slack <= alpha <= hi + slack


def check_summability_equivalence(seq, c_list) -> AuditReport:
    """Cross-check power-sum convergence against the analytic log-ratio class.

    A divergent log-ratio class means the sum converges for every exponent; a
    bounded class with limit ell splits convergence at c = 1/ell.  Every
    exponent is summed over ``_INDEX_LOGS_CAP`` terms, and a tail bound on
    the computed sum reads convergent.
    """
    rc = seq.family.ratio_class(1.0)
    cs = tuple(c_list)
    checks = []
    for c, res in zip(cs, _power_sums(seq, cs, _INDEX_LOGS_CAP)):
        got = "convergent" if res.tail_bound is not None else "divergent"
        expected = "convergent" if seq.family.summable(c) else "divergent"
        note = (f"class={rc.kind}({rc.limit:g}); expected {expected}; "
                f"partial={res.value:.6g} tail_bound={res.tail_bound!r}")
        checks.append(AuditCheck(f"summability[c={c:g}]", got == expected, got, expected, note))
    return AuditReport(f"family={seq.descriptor()!r}", tuple(checks))


def random_tabulated_instance(rng: random.Random):
    """One random monotone tabulated eigen/weight pair with a small query."""
    llen = rng.randint(2, 20)
    glen = rng.randint(1, 20)
    if rng.random() < 0.8:
        lvals = (0.0,) + tuple(sorted(rng.uniform(0.0, 7.0) for _ in range(llen - 1)))
    else:
        lvals = tuple(sorted(rng.uniform(0.05, 7.0) for _ in range(llen)))
    gvals = tuple(sorted(rng.uniform(0.0, 5.0) for _ in range(glen)))
    lam = EigenSeq(Tabulated(lvals))
    gam = WeightSeq(Tabulated(gvals))
    q = Query(rng.uniform(0.3, 4.0), rng.randint(1, 4))
    return lam, gam, q


def oracle_equivalence_suite(instances: int = 200, seed: int = 20240,
                             node_budget: int = DEFAULT_NODE_BUDGET) -> AuditReport:
    """Exact equality of the production counter and the brute-force oracle
    over randomized tabulated instances."""
    rng = random.Random(seed)
    checks = []
    for i in range(instances):
        lam, gam, q = random_tabulated_instance(rng)
        # One past the last level that fits on coordinate 1, level 1 at least.
        g1 = gam.G(1)
        box = max(_max_index_below(lambda j: g1 + lam.L(j), 2.0 * q.E, _INDEX_LIMIT), 1) + 1
        res = info_complexity(lam, gam, q, node_budget=node_budget)
        bf = brute_force_count(lam, gam, q, box)
        checks.append(AuditCheck(
            f"oracle_equivalence[{i}]", res.count == bf, str(res.count), str(bf),
            note=f"E={q.E:.6g} d={q.d} box={box}"))
    return AuditReport(f"{instances} randomized tabulated instances (seed={seed})",
                       tuple(checks))


def power_sum_suite(draws: int = 1000, seed: int = 4711) -> AuditReport:
    """Exponent-split identity bounds over random draws."""
    rng = random.Random(seed)
    checks = []
    failures = 0
    for i in range(draws):
        s = rng.uniform(0.01, 4.0)
        m = rng.randint(1, 8)
        a = [0.0 if rng.random() < 0.1 else rng.uniform(0.0, 3.0) for _ in range(m)]
        alpha = power_sum_split(s, a)
        ok = power_sum_bounds_ok(s, m, alpha)
        if not ok:
            failures += 1
            checks.append(AuditCheck(
                f"power_sum_split[{i}]", False, f"alpha={alpha!r}",
                f"bounds for s={s!r} m={m}", note=f"a={a!r}"))
    checks.append(AuditCheck("power_sum_split.bounds", failures == 0,
                             f"{failures} violations", "0", note=f"{draws} draws"))
    return AuditReport(f"{draws} random power-sum draws (seed={seed})", tuple(checks))
