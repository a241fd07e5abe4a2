"""Exact information complexity for weighted tensor product problems.

A tuple (n_1, ..., n_d) qualifies at threshold E = log(1/eps) when its
additive cost sum_{k: n_k >= 2} (G(k) + L(n_k)) stays strictly below the
budget B = 2E.  The count of qualifying tuples equals the number of tensor
eigenvalues exceeding eps**2, which is the information complexity.
"""

from __future__ import annotations

import math
import struct
import sys
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import BudgetExceeded, NonCompact
from .seqcore import _BLOCK_MIN, _EXACT_LIMIT, EigenSeq, WeightSeq, log_inv_table

DEFAULT_NODE_BUDGET = 10**8
#: The largest integer that converts to a float: a threshold index past it
#: cannot be resolved.
_INDEX_LIMIT = int(sys.float_info.max)
_DOUBLE = struct.Struct("<d")
_BITS = struct.Struct("<q")
#: Bit patterns of 2**53 and of +inf, the ends of the search over doubles.
_EXACT_BITS = _BITS.unpack(_DOUBLE.pack(float(_EXACT_LIMIT)))[0]
_INF_BITS = _BITS.unpack(_DOUBLE.pack(math.inf))[0]
#: Head entries whose Python cost matches the fixed numpy cost of one tail
#: step (about 60 us, against 0.2-0.3 us per head entry).
_TAIL_STEP_ENTRIES = 256
#: Fewest active coordinates for which the counter starts a tail.  With fewer,
#: the head reaches the last coordinate within a few steps and grows alone;
#: it still becomes an array past ``_TAIL_STEP_ENTRIES`` entries.
_SPLIT_MIN_COORDS = 5
#: Top-K candidates past K above which the fold cuts them at ``_staircase``'s
#: bound: its 24-66 us of numpy calls up to K = 10**4, at 4-9 ns per candidate sorted.
_STAIRCASE_ENTRIES = 8192


@dataclass(frozen=True)
class Query:
    """Error threshold in log form (E = log(1/eps), natural units) plus dimension."""

    E: float
    d: int

    def __post_init__(self):
        object.__setattr__(self, "E", _check_threshold(self.E))
        _check_positive_int("d", self.d)


@dataclass(frozen=True)
class CountResult:
    """Exact qualifying-tuple count, entries enumerated, and active prefix length."""

    count: int
    nodes_visited: int
    truncated_dimension: int


def _check_threshold(E: float) -> float:
    """float(E) for a positive finite E that is neither a boolean nor a string."""
    e = math.nan if isinstance(E, (bool, str)) else float(E)
    if not math.isfinite(e) or e <= 0.0:
        raise ValueError(f"threshold E must be positive and finite, got {E!r}")
    return e


def _check_positive_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _last_below(f, budget: float, lo: int, hi: int) -> int:
    """Largest j in [lo, hi) with f(j) < budget, for f non-decreasing on (lo, hi).

    The caller knows f(lo) < budget <= f(hi); neither end is evaluated, so
    either may be a sentinel outside f's domain.
    """
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if f(mid) < budget:
            lo = mid
        else:
            hi = mid
    return lo


def _last_double_below(eval_at, budget: float) -> int:
    """max{j : eval_at(j) < budget}, for eval_at non-decreasing that reads j
    only through float(j) past 2**53, given eval_at(2**53) < budget.

    Bisects the bit patterns of the doubles in [2**53, MAX], which order as
    the doubles do, evaluating at int(x); +inf is the upper sentinel.  Every
    integer that rounds to the last double x found has eval_at(x), so the
    answer is the largest of them.  Ties round to the even mantissa, so that
    is x + ulp(x)/2 when x is even and one less when x is odd.
    """
    bits = _last_below(lambda b: eval_at(int(_DOUBLE.unpack(_BITS.pack(b))[0])),
                       budget, _EXACT_BITS, _INF_BITS)
    x = _DOUBLE.unpack(_BITS.pack(bits))[0]
    return int(x) + int(math.ulp(x)) // 2 - (bits & 1)


def _max_index_below(eval_at, budget: float, cap: int) -> int | None:
    """max{j >= 1 : eval_at(j) < budget}, for eval_at non-decreasing; 0 when none.

    Gallops by doubling j until eval_at reaches the budget, then bisects.
    Past 2**53 it searches over doubles instead (``_last_double_below``), so
    it makes at most 116 calls: 54 to reach 2**53, 62 over the doubles.  None when the answer exceeds ``cap``, or
    the float range, where eval_at need not read j through float(j).
    """
    if not (eval_at(1) < budget):
        return 0
    lo, hi = 1, 2
    while eval_at(hi) < budget:
        lo, hi = hi, hi * 2
        if lo > cap:
            return None
        if lo == _EXACT_LIMIT:
            j = _last_double_below(eval_at, budget)
            break
    else:
        j = _last_below(eval_at, budget, lo, hi)
    return j if j <= min(cap, _INDEX_LIMIT) else None


def _last_level(L, g1: float, B: float, cap: int, too_long: str) -> int:
    """J = max{j : g1 + L(j) < B}, the last entry of a level table; J past
    ``cap`` raises ``too_long``."""
    J = _max_index_below(lambda j: g1 + L(j), B, cap)
    if J is None:
        raise BudgetExceeded(too_long)
    return J


def _threshold_index(fam, E: float, cap: int | None, noun: str) -> int:
    """max{j : fam.log_inv(j) < 2E}, or ``cap`` when that is unresolvable.

    The index is resolved, by ``_max_index_below`` on ``log_inv`` alone, when
    the family decays and log_inv(_INDEX_LIMIT) reaches 2E.  The check comes
    first because log_inv saturates to inf once j itself overflows a float
    (ExpPower with beta < 1), which would stop the search at the float range.
    Without a cap an unresolvable index raises NonCompact, naming ``noun``.
    """
    budget = 2.0 * _check_threshold(E)
    if not fam.limit_zero:
        reason = f"{noun}s do not decay to zero; supply a search cap"
    elif fam.log_inv(_INDEX_LIMIT) >= budget:
        return _max_index_below(fam.log_inv, budget, _INDEX_LIMIT)
    else:
        reason = f"{noun} threshold could not be resolved: the index exceeds the float range"
    if cap is None:
        raise NonCompact(reason)
    return cap


def j_of_eps(seq: EigenSeq, E: float, *, cap: int | None = None) -> int:
    """Largest index whose eigenvalue exceeds eps**2, i.e. max{j : L(j) < 2E}.

    The index comes from the family's ``log_inv`` alone, by a galloping
    search and bisection, so a resolved index never depends on ``cap``.
    ``cap`` is the value returned, instead of a NonCompact error, when the
    index cannot be resolved: the eigenvalues do not decay, or the index
    exceeds the float range.
    """
    return _threshold_index(seq.family, E, cap, "eigenvalue")


def d_of_eps(seq: WeightSeq, E: float, *, cap: int | None = None) -> int:
    """Largest index whose weight exceeds eps**2; 0 when already gamma_1 <= eps**2.

    Resolved as in ``j_of_eps``; ``cap`` is returned instead of NonCompact
    when the weights do not decay or the index exceeds the float range.
    """
    return _threshold_index(seq.family, E, cap, "weight")


def _extend_head(head, g: float, reach_next: float, Ltab: list, B: float, room: int):
    """Give every head tuple a level on the next coordinate, whose weight is g.

    ``head`` holds the fold costs of the open head tuples: those that can
    still take a level on this coordinate.  A tuple of cost c gains one child
    per level that keeps ``c + (g + L)`` below B.  Parent and children stay
    open when they can take a level on the coordinate after this one, that is
    when ``cost + reach_next < B``; the others are finished, since their only
    completion puts every later coordinate on level 1, and they are counted
    without being stored.  Stops early once more than ``room`` tuples are
    open.  Returns (finished tuples, new open entries, open costs of the
    extended head), as ``_extend_head_array`` does.  Up to
    ``_TAIL_STEP_ENTRIES`` entries the costs are a list, left in parent-major
    order since nothing reads it; past it they are an ascending float64
    array, as the array step and the merge need.
    """
    out = []
    done = 0
    nL = len(Ltab)
    g_top = g + Ltab[-1]
    B_g = B - g
    for c in head:
        # n = number of levels that fit; the fold is monotone in the level.
        if c + g_top < B:
            n = nL
        else:
            n = bisect_left(Ltab, B_g - c)  # float estimate, checked exactly
            if not (0 < n < nL and c + (g + Ltab[n - 1]) < B and not (c + (g + Ltab[n]) < B)):
                # Default arguments, not a closure: c, g and Ltab stay fast locals.
                n = _last_below(lambda j, c=c, g=g, L=Ltab: c + (g + L[j]), B, -1, nL) + 1
        if c + reach_next < B:
            out.append(c)
        else:
            done += 1
        # Children that stay open form a prefix of the levels.
        j = 0
        while j < n:
            c2 = c + (g + Ltab[j])
            if not (c2 + reach_next < B):
                break
            out.append(c2)
            j += 1
        done += n - j
        if len(out) > room:
            break
    return done, len(out), (np.sort(np.array(out)) if len(out) > _TAIL_STEP_ENTRIES else out)


def _step(x: np.ndarray, k: int) -> np.ndarray:
    """The doubles k steps above the doubles x >= 0 (below, for k < 0): these
    order like their int64 bit patterns, +inf included.  The step below +0.0
    and the step above +inf are NaNs, which compare false."""
    return (x.view(np.int64) + k).view(np.float64)


def _thresholds(w: np.ndarray, tau) -> np.ndarray:
    """Smallest double p >= 0 with ``p + w >= tau``, elementwise, for w >= 0
    and tau >= 0 either an array or one float.

    Under round-to-nearest, p + w reaches tau once the exact sum passes the
    midpoint tau - h between tau and the double below it, h being half their
    gap; for tau = inf the midpoint is the one above MAX, MAX + 2**970.  So
    the estimate is (tau - w) - h, clamped at 0.  Where w < tau it lies
    within a few ulp of the answer: tau - w is at least the gap 2h, so the
    answer is at least half of it, and each of the two roundings moves the
    estimate by at most one ulp of the answer.  The estimate then moves one
    double at a time (``_step``), up while the predicate fails and down
    while the double below also satisfies it, so the result is exact.  The
    walk down stops at 0, whose step below is a NaN.  p + w is monotone in
    p.  Where w >= tau the answer is 0.  One float tau keeps the gap and the
    tau = inf case scalar, with no array of bounds.
    """
    one = isinstance(tau, float)
    at = (lambda i: tau) if one else tau.__getitem__
    # Sums past MAX round to inf; fmax clamps a NaN estimate (tau = 0) to 0.
    with np.errstate(over="ignore", invalid="ignore"):
        if not one:
            p = (tau - w) - 0.5 * (tau - _step(tau, -1))  # NaN where tau is 0 or inf
            big = (tau == math.inf).nonzero()[0]
            p[big] = (sys.float_info.max - w[big]) + 2.0**970
        elif tau == math.inf:
            p = (sys.float_info.max - w) + 2.0**970
        else:
            p = (tau - w) - 0.5 * (tau - math.nextafter(tau, 0.0))
        np.fmax(p, 0.0, out=p)
        todo = (p + w < tau).nonzero()[0]
        while todo.size:
            p[todo] = _step(p[todo], 1)
            todo = todo[p[todo] + w[todo] < at(todo)]
        todo = (_step(p, -1) + w >= tau).nonzero()[0]
        while todo.size:
            p[todo] = _step(p[todo], -1)
            todo = todo[_step(p[todo], -1) + w[todo] >= at(todo)]
    return p


def _extend_head_array(head: np.ndarray, g: float, reach_next: float, levels: np.ndarray,
                       B: float, room: int):
    """``_extend_head`` on an ascending float64 array of open costs, in a few
    numpy passes, level by level as ``top_eigenvalues`` folds.

    A cost q stays open when q + reach_next < B, that is when q < T for the
    smallest double T with T + reach_next >= B.  For a level row w_j,
    c + w_j < T exactly when c lies below the threshold of w_j against T
    (``_thresholds``), and c + w_j is monotone in c; so the costs with a child
    on that level that stays open are a prefix of the head, found by one
    search, and likewise against B for the children that fit.  Returns
    (finished tuples, new open entries, ascending open costs); past ``room``
    the head comes back unchanged, before the new one is allocated.
    """
    with np.errstate(over="ignore"):  # sums past the float range saturate to inf
        # Level 1 is the zero entry: a cost that stays open is its own child.
        w = np.concatenate(([0.0], g + levels))  # the same float sums as the scalar g + L
        T = float(_thresholds(np.array([reach_next]), B)[0])  # 0 once reach_next >= B
        wT = w[:w.searchsorted(T)]
        n = head.searchsorted(_thresholds(wT, T))
        new = int(n.sum())
        if new > room:
            return 0, new, head
        wB = w[:w.searchsorted(B)]
        done = int(head.searchsorted(_thresholds(wB, B)).sum()) - new
        out = head[np.arange(new) - (n.cumsum() - n).repeat(n)] + wT.repeat(n)
    out.sort()
    return done, new, out


def _levels_below(g: float, levels: np.ndarray, B: float) -> np.ndarray:
    """g + L for the ascending levels L with g + L < B: the rows of the
    counter's tail block, and every top-K row, whose B is the double after a
    cost c, so that g + L <= c.  Each such L is at most the double nearest
    B - g, so the cut starts there and moves down exactly; it is taken before
    g is added, so no sum reaches B or overflows, and no full row is built."""
    n = int(levels.searchsorted(B - g, "right"))
    if n and not g + float(levels[n - 1]) < B:
        n = _last_below(lambda j: g + float(levels[j]), B, -1, n - 1) + 1
    return g + levels[:n]


def _extend_tail(taus, w: np.ndarray, B: float, room: int):
    """Prepend to the tail a coordinate whose ascending level row is w.

    A tail tuple s is a choice of levels on the coordinates after the head,
    stored only as its threshold tau_s: the smallest head cost p whose fold
    through s reaches B.  Folding is monotone in p, so a head of cost p
    completes with s exactly when p < tau_s.  The empty tail has tau = B,
    and no tau exceeds its parent's.  A level of weight w fits in front of
    s when w < tau_s; the new tuple's threshold is the smallest p with
    p + w >= tau_s.  Returns (new entries, grown thresholds); past ``room``
    the thresholds come back unchanged, before anything is allocated.
    """
    src = np.concatenate(([B], taus))
    n = w.searchsorted(src)
    new = int(n.sum())
    if new > room:
        return new, taus
    lev = np.arange(new) - (n.cumsum() - n).repeat(n)
    return new, np.concatenate((taus, _thresholds(w[lev], src.repeat(n))))


def active_prefix(lam: EigenSeq, gam: WeightSeq, q: Query) -> int:
    """Largest m <= d with G(m) + L(2) < 2E; 0 when no coordinate can leave level 1.

    The weights are non-increasing, so the coordinates that can take a level
    form a prefix, and every d >= m has the count of d = m.  A negative or
    NaN L(2), G(1) or G(k) read by the search, which reads G(m + 1) when
    m < d, raises ValueError, as in ``top_eigenvalues``: the counter's
    thresholds need costs >= 0, and a NaN would read as the end of the prefix.
    """
    L2 = _check_cost(lam.family.log_inv(2))
    G = gam.family.log_inv
    _check_cost(G(1))
    return _last_below(lambda k: _check_cost(G(k)) + L2, 2.0 * q.E, 0, q.d + 1)


def info_complexity(lam: EigenSeq, gam: WeightSeq, q: Query,
                    node_budget: int = DEFAULT_NODE_BUDGET, *, _heads: dict | None = None
                    ) -> CountResult:
    """Exact count of tuples with cost strictly below 2E, in arbitrary precision.

    Coordinates whose cheapest nontrivial level already exhausts the budget
    are forced to level 1 and dropped up front (weights are non-increasing,
    so the active coordinates form a prefix).  Level 1 always costs nothing,
    matching the convention that the first tensor factor is unweighted.

    The count meets in the middle.  A head of open tuples grows forward one
    coordinate at a time (``_extend_head``); tuples that no later coordinate
    fits are counted in bulk, never stored; it starts from coordinate 1's
    level row.  On larger cells a tail of thresholds grows backward from the
    last coordinate in numpy (``_extend_tail``); its first step folds the
    far coordinates, where no tuple that counts leaves level 1 twice, as one.
    The smaller side grows next, with the tail's fixed numpy cost counted as
    ``_TAIL_STEP_ENTRIES`` head entries, and cells of fewer than
    ``_SPLIT_MIN_COORDS`` active coordinates never start a tail.  On every
    cell, a head of more than ``_TAIL_STEP_ENTRIES`` entries becomes an
    ascending float64 array and grows in numpy from then on, one threshold
    search in it per level (``_extend_head_array``); smaller heads stay in
    pure Python, where a step costs less than numpy's fixed cost.
    When the sides meet, one search of the tail thresholds in the ascending
    head counts the (head, tail) pairs whose fold stays below 2E.  Each
    tuple's cost is the same left fold
    ``cost + (G_k + L_j)`` in coordinate order as in the oracle, from the
    families' scalar ``log_inv``, so counts are exact at every knife edge.

    ``nodes_visited`` is the number of head and tail entries enumerated, and
    ``node_budget`` caps it before the merge.  Every step but the last head
    step adds one, and each coordinate of the tail's first block adds at
    least one, so more active coordinates than the budget fail at once.

    ``_heads``, passed only by the CLI's ``sweep``, holds one E's head steps
    as (finished, new entries, open costs) under (B, k, reach[k + 1]).  A
    head step reads only these, the weights, the level table and the head
    it extends, and that head grows the same way from coordinate 1 in every
    cell of the E.  A step is taken from it when its new entries fit the
    call's room; any other step runs as above and is stored when it fits.
    A call past a step has it stored, as a step that does not fit raises, so
    after one miss the later lookups of the call miss too.  So the count,
    ``nodes_visited`` and any budget error are those of a call without it.
    """
    _check_positive_int("node_budget", node_budget)
    m = active_prefix(lam, gam, q)
    if m == 0:
        return CountResult(1, 1, 0)
    if m > node_budget:
        raise _over_budget(m, node_budget)
    B = 2.0 * q.E
    # Every index below is generated here, so the tables read the families
    # directly rather than through the validating accessors L and G.
    L = lam.family.log_inv
    Gs = list(map(_check_cost, map(gam.family.log_inv, range(1, m + 1))))
    # Level table shared by all coordinates: levels j >= 2 usable anywhere
    # satisfy G(1) + L(j) < B (coordinate 1 has the most slack); m > 0 puts
    # L(2) in it.  It is one array, kept for the numpy steps, with a list
    # view built when a Python head step first reads it; a short table maps
    # its list from L directly, below numpy's fixed cost, and becomes an
    # array only if the head does.
    J = _last_level(L, Gs[0], B, node_budget,
                    f"admissible level range exceeds the node budget ({node_budget})")
    table, Ltab = None, None
    if J > _BLOCK_MIN:
        table = log_inv_table(lam.family, 2, J + 1)
        _check_cost(float(np.min(table)))  # NaN propagates
    else:
        Ltab = list(map(_check_cost, map(L, range(2, J + 1))))
    if m == 1:  # the root and its J - 1 children on coordinate 1
        return CountResult(J, 1, 1)
    row = table if Ltab is None else Ltab
    # reach[k]: the cheapest cost a level adds on coordinate k (none past m).
    reach = [g + float(row[0]) for g in Gs] + [math.inf]

    # Coordinate 1 folds onto the root's cost 0.0, and 0.0 + x == x for
    # x >= 0, so the root's children are the level row g1 + L(j) itself.
    # Every level fits (the definition of J); the open children are a
    # prefix, and the root stays open, since coordinate 2 is active.
    g1 = Gs[0]
    n = _last_below(lambda j: (g1 + float(row[j])) + reach[1], B, -1, J - 1) + 1
    total = J - 1 - n
    entries = 2 + n
    if entries > node_budget:
        raise _over_budget(entries, node_budget)
    if n + 1 > _TAIL_STEP_ENTRIES:
        table = np.array(Ltab) if table is None else table
        head = np.concatenate(([0.0], g1 + table[:n]))
    else:
        head = [0.0] + [g1 + lv for lv in (table[:n].tolist() if Ltab is None else Ltab[:n])]
    taus = ()  # thresholds of the nonempty tails; none until the tail starts
    k, t = 1, m  # the head covers coordinates [0, k), the tail [t, m)
    while k < t:
        room = node_budget - entries
        if table is None and not isinstance(head, list):
            table = np.array(Ltab)
        if m < _SPLIT_MIN_COORDS or len(head) <= _TAIL_STEP_ENTRIES + len(taus):
            step = _heads and _heads.get((B, k, reach[k + 1]))
            if not step or step[1] > room:
                if isinstance(head, list):
                    Ltab = Ltab or table.tolist()
                    step = _extend_head(head, Gs[k], reach[k + 1], Ltab, B, room)
                else:
                    step = _extend_head_array(head, Gs[k], reach[k + 1], table, B, room)
                if _heads is not None and step[1] <= room:
                    _heads[B, k, reach[k + 1]] = step
            done, new, head = step
            total += done
            k += 1
        else:
            # While the tail is empty and reach[s - 1] + reach[s] >= B, no tail
            # tuple from coordinate s - 1 on leaves level 1 twice: these
            # coordinates fold as one, whose row is the sorted union of theirs,
            # each adding the entries its own step would.  The block stops where
            # the size rule or the budget would end the run of tail steps, so
            # before the head: a head step on k - 1 with reach[k - 1] + reach[k]
            # >= B opens no child, so it cannot have grown the head past the rule.
            s = t - 1
            rows = [_levels_below(Gs[s], table, B)]
            grown = len(rows[0])
            while (not len(taus) and not (reach[s - 1] + reach[s] < B)
                   and len(head) > _TAIL_STEP_ENTRIES + grown and grown <= room):
                s -= 1
                rows.append(_levels_below(Gs[s], table, B))
                grown += len(rows[-1])
            w = rows[0] if len(rows) == 1 else np.sort(np.concatenate(rows))
            new, taus = _extend_tail(taus, w, B, room)
            t = s
        entries += new
        if entries > node_budget:
            raise _over_budget(entries, node_budget)
    # Each open head tuple completes with the empty tail and with every tail
    # whose threshold lies above its cost.  A tail step needs a head of more
    # than _TAIL_STEP_ENTRIES entries, and a list head holds at most that
    # many, so with a tail the head is an ascending array.
    total += len(head)
    if len(taus):  # no numpy call on a count done in Python
        total += int(head.searchsorted(taus).sum())
    return CountResult(total, entries, m)


def _over_budget(entries: int, node_budget: int) -> BudgetExceeded:
    return BudgetExceeded(f"node budget exceeded: the count needs at least {entries} enumerated "
                          f"entries, over the budget of {node_budget}")


def _rank_starts(K: int) -> tuple:
    """The first i of each run of jw[i] = ceil(K/(i+1)) - 1 over i >= 0, and jw there:
    each i < r = isqrt(K), then one i per value q, from i + 1 = ceil(K/q)."""
    r = math.isqrt(K)
    n = -(-K // np.arange(-(-K // (r + 1)), 0, -1))
    i = np.concatenate((np.arange(r), n[n > r] - 1))
    return i, (K + i) // (i + 1) - 1


def _staircase(costs: np.ndarray, w: np.ndarray, n: np.ndarray, K: int) -> float:
    """t >= the K-th least candidate costs[i] + w[j], i < n[j], given sum(n) >= K:
    the m-th least of every st-th candidate of each level's run, m = ceil(K/st).
    fl(c + w) does not decrease in c, so a sample <= t stands for the st distinct
    candidates <= t of its run that end at it, and m samples for m st >= K.  There
    are sum_j floor(n_j/st) >= (sum(n) - len(w) st**2)/st >= K/st samples, so m."""
    st = max(1, math.isqrt((int(n.sum()) - K) // len(w)))
    c = n // st
    s = costs[(np.arange(c.sum()) - (c.cumsum() - c).repeat(c) + 1) * st - 1] + w.repeat(c)
    s.partition((K - 1) // st)  # the m-th least, m - 1 = (K - 1) // st
    return float(s[(K - 1) // st])


def top_eigenvalues(lam: EigenSeq, gam: WeightSeq, d: int, K: int) -> list[float]:
    """K largest tensor eigenvalues as non-decreasing log(1/value) costs.

    Folds the coordinates in order, keeping the ascending partial costs no
    larger than the K-th cheapest: a partial tuple completes at the same cost
    with level 1 on every later coordinate, so no tuple among the K cheapest
    is dropped.  Each cost is the counter's left fold ``cost + (G_k + L_j)``;
    coordinate 1 folds onto the one cost 0, so its costs are its level row.
    Each level row is cut at the K-th cost kept before the add, which drops no
    candidate and no term of the rank bound u on the K-th cost: run start K-1
    puts u at or below that cost.  Each level keeps the candidates <= u, and,
    past ``_STAIRCASE_ENTRIES`` more than K, those <= ``_staircase``'s bound,
    also at or above the K-th cost: the same costs and ties.  The fold stops
    at the first coordinate whose cheapest level, G_k + L(2), is infinite or,
    once K costs are kept, exceeds the K-th of them; weights only grow, so no
    later coordinate can add a tuple or a tie.  Once the cheapest levels of
    coordinates k and k + 1 sum above the K-th cost kept, which only falls, no
    kept tuple leaves level 1 on two coordinates from k on: those up to the
    stop fold as one step, whose level row is the sorted union of theirs.  The
    block's stop is taken against a bound on the K-th cost that each of its
    cheapest levels lowers, so it spans at most K coordinates besides ties,
    and may read a few weights past the stop of one coordinate at a time.  A
    block whose pairs exceed the cap folds coordinate k alone instead, so the
    cap raises only where, and as, one coordinate at a time does.  Cost ties
    are emitted in full, so the result may exceed K entries; with fewer than K
    positive eigenvalues it is padded with +inf costs to K.  A fold that
    overflows to +inf is a zero eigenvalue, so it pads and is never a tie.
    """
    _check_positive_int("d", d)
    _check_positive_int("K", K)
    cap = max(4096, 32 * K * max(d, 2))
    over = f"top-{K} search needs {{}} candidates on coordinate {{}}, over the cap of {cap}"

    # Indices are generated here, so the families are read directly.
    L, G = lam.family.log_inv, gam.family.log_inv
    # The tuples (j, 1, ..., 1) with j <= K cost at most G(1) + L(K), and a
    # level j costs at least G(1) + L(j) on any coordinate.  A log_inv below 0
    # (an eigenvalue or weight above 1) is rejected as it is read: _thresholds
    # needs w >= 0, and no fold cost is then negative or NaN.
    g1 = _check_cost(G(1))
    J = _last_level(L, g1, math.nextafter(g1 + _check_cost(L(K)), math.inf), cap,
                    over.format(f"more than {cap}", 1))
    levels = log_inv_table(lam.family, 2, J + 1)
    _check_cost(float(np.min(levels, initial=0.0)))  # NaN propagates
    L2 = float(levels[0]) if len(levels) else math.inf
    costs = np.zeros(1)
    starts, jw = _rank_starts(K)
    g = g1
    with np.errstate(over="ignore"):  # sums past the float range saturate to inf
        for k in range(1, d + 1):
            c = float(costs[-1]) if len(costs) >= K else math.inf  # the K-th cost kept
            if g + L2 == math.inf or g + L2 > c:
                break
            g_next = _check_cost(G(k + 1)) if k < d else math.inf
            top = math.nextafter(c, math.inf)  # g + L <= c: finite sums for c = inf
            block = (g + L2) + (g_next + L2) > c
            if block:
                # A second level from coordinate k on costs at least this pair
                # sum, above a K-th cost that only falls: the coordinates up to
                # the stop fold as one, whose row is the sorted union of theirs.
                # Each one's cheapest level, on the zero cost, is a candidate, so
                # with r of them the K-th cost is at most b, the K-th of these and
                # the costs kept: the least over i <= min(r, K) of max(i-th of
                # them, costs[K-1-i] for i < K).  The block stops at the first
                # cheapest level above b, and each row is cut at b.
                b, rows = c, []
                for gs in chain((g, g_next), map(_check_cost, map(G, range(k + 2, d + 1)))):
                    f = gs + L2
                    if not f <= b:
                        break
                    i = K - 2 - len(rows)
                    b = min(b, max(f, float(costs[i]) if i >= 0 else 0.0))
                    rows.append(_levels_below(gs, levels, math.nextafter(b, math.inf)))
                w = np.sort(np.concatenate(rows))
            else:
                w = _levels_below(g, levels, top)
            w = np.concatenate(([0.0], w))  # level 1
            if k == 1:  # folded onto the one cost 0, with zeros as +0.0
                cand = 0.0 + w
            else:
                while True:
                    # The (i+1) * (jw[i]+1) sums costs[:i+1] + w[:jw[i]+1] are at most
                    # costs[i] + w[jw[i]], least at a run start: u bounds the K-th cost.
                    # A sum <= u is below the double after u, so per level the costs
                    # kept are those below w's threshold against it (finite sums for inf).
                    keep = (starts < len(costs)) & (jw < len(w))
                    u = float(np.min(costs[starts[keep]] + w[jw[keep]], initial=math.inf))
                    w = w[:w.searchsorted(u, "right")]
                    n = costs.searchsorted(_thresholds(w, math.nextafter(u, math.inf)))
                    total = int(n.sum())
                    if not (block and total > cap):
                        break
                    # The block's pairs share one bound: past the cap, fold
                    # coordinate k alone, as one coordinate at a time does.
                    block, w = False, np.concatenate(([0.0], _levels_below(g, levels, top)))
                if total > cap:
                    raise BudgetExceeded(over.format(total, k))
                if total - K > _STAIRCASE_ENTRIES:
                    w = w[:w.searchsorted(t := _staircase(costs, w, n, K), "right")]
                    n = costs.searchsorted(_thresholds(w, math.nextafter(t, math.inf)))
                    total = int(n.sum())
                cand = np.sort(costs[np.arange(total) - (n.cumsum() - n).repeat(n)] + w.repeat(n))
            costs = cand[:cand.searchsorted(cand[K - 1], "right")] if len(cand) > K else cand
            if block:
                break
            g = g_next
    return costs.tolist() + [math.inf] * (K - len(costs))


def _check_cost(c: float) -> float:
    """c, for a log-magnitude c >= 0 (or +inf); a negative or NaN c raises ValueError."""
    if not c >= 0.0:
        raise ValueError(f"log-magnitude must be >= 0 (or +inf), got {c!r}")
    return c


def nth_minimal_error(lam: EigenSeq, gam: WeightSeq, d: int, n: int) -> float:
    """log(1/e(n)): half the cost of the (n+1)-th largest tensor eigenvalue."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    return 0.5 * top_eigenvalues(lam, gam, d, n + 1)[n]
