"""Exact information complexity for weighted tensor product problems.

A tuple (n_1, ..., n_d) qualifies at threshold E = log(1/eps) when its
additive cost sum_{k: n_k >= 2} (G(k) + L(n_k)) stays strictly below the
budget B = 2E.  The count of qualifying tuples equals the number of tensor
eigenvalues exceeding eps**2, which is the information complexity.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, NonCompact
from .seqcore import EigenSeq, ExtLogMag, WeightSeq

DEFAULT_NODE_BUDGET = 10**8
_SEARCH_CAP = 2**62
#: Head entries whose Python cost matches the fixed numpy cost of one tail
#: step (about 60 us, against 0.2-0.3 us per head entry).
_TAIL_STEP_ENTRIES = 256
#: Fewest active coordinates for which the counter starts a tail.  With fewer,
#: the head reaches the last coordinate within a few steps; a split saved
#: about 0.1 ms per call on the largest d <= 4 tabulated draws.
_SPLIT_MIN_COORDS = 5


@dataclass(frozen=True)
class Query:
    """Error threshold in log form (E = log(1/eps), natural units) plus dimension."""

    E: float
    d: int

    def __post_init__(self):
        e = float(self.E)
        if not math.isfinite(e) or e <= 0.0:
            raise ValueError(f"E must be positive and finite, got {self.E!r}")
        object.__setattr__(self, "E", e)
        if isinstance(self.d, bool) or not isinstance(self.d, int) or self.d < 1:
            raise ValueError(f"d must be a positive integer, got {self.d!r}")


@dataclass(frozen=True)
class CountResult:
    """Exact qualifying-tuple count, entries enumerated, and active prefix length."""

    count: int
    nodes_visited: int
    truncated_dimension: int


def _check_threshold(E: float) -> float:
    e = float(E)
    if not math.isfinite(e) or e <= 0.0:
        raise ValueError(f"threshold E must be positive and finite, got {E!r}")
    return e


def _adjust_candidate(eval_at, budget: float, cand: int) -> int | None:
    """Turn a closed-form candidate into the exact strict threshold index.

    Brackets the candidate multiplicatively (float hints can be off by many
    integers at astronomical scales) and bisects with the exact predicate.
    """
    cand = max(1, cand)
    for slack in (1e-12, 1e-9, 1e-6, 1e-3, 0.5):
        lo = max(1, int(cand * (1.0 - slack)) - 2)
        hi = int(cand * (1.0 + slack)) + 2
        if eval_at(lo) < budget and not (eval_at(hi) < budget):
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if eval_at(mid) < budget:
                    lo = mid
                else:
                    hi = mid
            return lo
    return None


def _max_index_below(eval_at, family, budget: float, cap: int) -> int | None:
    """max{j >= 1 : eval_at(j) < budget}; 0 when none; None when unresolvable.

    Uses an exact table lookup when the family provides one, then a galloping
    search with bisection, then a closed-form hint refined to exactness.
    """
    if family is not None:
        exact = family.threshold_exact(budget)
        if exact is not None:
            return exact
    if not (eval_at(1) < budget):
        return 0
    lo, hi = 1, 2
    while eval_at(hi) < budget:
        lo, hi = hi, hi * 2
        if lo > cap:
            if family is None:
                return None
            hint = family.threshold_hint(budget)
            if hint is None:
                return None
            return _adjust_candidate(eval_at, budget, hint)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if eval_at(mid) < budget:
            lo = mid
        else:
            hi = mid
    return lo


def _level_table(L, g1: float, B: float, cap: int, too_long: str) -> list:
    """[L(2), ..., L(J)] for J = max{j : g1 + L(j) < B}; J past ``cap`` raises ``too_long``."""
    J = _max_index_below(lambda j: g1 + L(j), None, B, cap)
    if J is None:
        raise BudgetExceeded(too_long)
    return list(map(L, range(2, J + 1)))


def _threshold_index(fam, E: float, cap: int | None, noun: str) -> int:
    """max{j : fam.log_inv(j) < 2E}, or ``cap`` when that is unresolvable.

    Without a cap an unresolvable index raises NonCompact, naming ``noun``.
    """
    budget = 2.0 * _check_threshold(E)
    if not fam.compact:
        reason = f"{noun}s do not decay to zero; supply a search cap"
    else:
        res = _max_index_below(fam.log_inv, fam, budget, cap if cap is not None else _SEARCH_CAP)
        if res is not None:
            return res
        reason = (f"{noun} threshold could not be resolved within the search cap "
                  "(no closed form, or the index exceeds the representable range)")
    if cap is None:
        raise NonCompact(reason)
    return cap


def j_of_eps(seq: EigenSeq, E: float, *, cap: int | None = None) -> int:
    """Largest index whose eigenvalue exceeds eps**2, i.e. max{j : L(j) < 2E}.

    With a caller-supplied cap the result is truncated at the cap instead of
    raising NonCompact when the threshold lies beyond it.
    """
    return _threshold_index(seq.family, E, cap, "eigenvalue")


def d_of_eps(seq: WeightSeq, E: float, *, cap: int | None = None) -> int:
    """Largest index whose weight exceeds eps**2; 0 when already gamma_1 <= eps**2."""
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
    open.  Returns (finished tuples, open costs of the extended head).
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
                lo, hi = 0, nL
                while lo < hi:
                    mid = (lo + hi) // 2
                    if c + (g + Ltab[mid]) < B:
                        lo = mid + 1
                    else:
                        hi = mid
                n = lo
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
    return done, out


def _thresholds(w: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Smallest double p >= 0 with ``p + w >= tau``, elementwise, for 0 <= w < tau.

    ``p + w`` is monotone in p, so the answer is found by bisection over the
    bit patterns of non-negative doubles, which order like their values.  The
    bracket tau - w +- 2 ulp(tau) holds the answer; where rounding or an
    infinite tau breaks it, it falls back to [0, tau].
    """
    p = tau - w
    slack = 2.0 * np.spacing(tau)
    lo = p - slack
    hi = np.minimum(p + slack, tau)
    lo[~((lo >= 0.0) & (lo + w < tau))] = 0.0
    bad = ~(hi + w >= tau)
    hi[bad] = tau[bad]
    lo = lo.view(np.int64)
    hi = hi.view(np.int64)
    todo = np.flatnonzero(hi - lo > 1)
    with np.errstate(over="ignore"):  # p + w may round to inf when tau is inf
        while todo.size:
            a, b = lo[todo], hi[todo]
            mid = a + (b - a) // 2
            up = mid.view(np.float64) + w[todo] >= tau[todo]
            hi[todo] = np.where(up, mid, b)
            lo[todo] = np.where(up, a, mid)
            todo = todo[hi[todo] - lo[todo] > 1]
    return hi.view(np.float64)


def _extend_tail(taus, g: float, levels: np.ndarray, B: float, room: int):
    """Prepend the coordinate of weight g to the tail.

    A tail tuple s is a choice of levels on the coordinates after the head,
    stored only as its threshold tau_s: the smallest head cost p whose fold
    through s reaches B.  Folding is monotone in p, so a head of cost p
    completes with s exactly when p < tau_s.  The empty tail has tau = B.
    A level of weight w fits in front of s when w < tau_s, and the new
    tuple's threshold is the smallest p with p + w >= tau_s.  Returns (new
    entries, grown thresholds); past ``room`` the thresholds come back
    unchanged, before anything is allocated.
    """
    with np.errstate(over="ignore"):
        w = g + levels  # the same float sums as the scalar g + L
    w = w[:np.searchsorted(w, B)]
    src = np.concatenate(([B], taus))
    n = np.searchsorted(w, src)
    new = int(n.sum())
    if new > room:
        return new, taus
    lev = np.arange(new) - np.repeat(np.cumsum(n) - n, n)
    return new, np.concatenate((taus, _thresholds(w[lev], np.repeat(src, n))))


def info_complexity(lam: EigenSeq, gam: WeightSeq, q: Query,
                    node_budget: int = DEFAULT_NODE_BUDGET) -> CountResult:
    """Exact count of tuples with cost strictly below 2E, in arbitrary precision.

    Coordinates whose cheapest nontrivial level already exhausts the budget
    are forced to level 1 and dropped up front (weights are non-increasing,
    so the active coordinates form a prefix).  Level 1 always costs nothing,
    matching the convention that the first tensor factor is unweighted.

    The count meets in the middle.  A head of open tuples grows forward one
    coordinate at a time in pure Python (``_extend_head``); tuples that no
    later coordinate fits are counted in bulk, never stored.  On larger cells
    a tail of thresholds grows backward from the last coordinate in numpy
    (``_extend_tail``).  The smaller side grows next, with the tail's fixed
    numpy cost counted as ``_TAIL_STEP_ENTRIES`` head entries, and cells of
    fewer than ``_SPLIT_MIN_COORDS`` active coordinates never start a tail.
    When the sides meet, a sorted merge counts the (head, tail) pairs whose
    fold stays below 2E.  Each tuple's cost is the same left fold
    ``cost + (G_k + L_j)`` in coordinate order as in the oracle, from the
    families' scalar ``log_inv``, so counts are exact at every knife edge.

    ``nodes_visited`` is the number of head and tail entries enumerated, and
    ``node_budget`` caps it before the merge.
    """
    B = 2.0 * q.E
    # Every index below is generated here, so the tables read the families
    # directly rather than through the validating accessors L and G.
    L = lam.family.log_inv
    G = gam.family.log_inv
    L2 = L(2)

    if not (G(1) + L2 < B):
        return CountResult(1, 1, 0)
    # Active prefix: largest m <= d with G(m) + L(2) < B (monotone in m).
    if G(q.d) + L2 < B:
        m = q.d
    else:
        lo, hi = 1, q.d  # predicate true at lo, false at hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if G(mid) + L2 < B:
                lo = mid
            else:
                hi = mid
        m = lo

    # Level table shared by all coordinates: levels j >= 2 usable anywhere
    # satisfy G(1) + L(j) < B (coordinate 1 has the most slack).
    Ltab = _level_table(L, G(1), B, node_budget,
                        f"admissible level range exceeds the node budget ({node_budget})")
    Gs = list(map(G, range(1, m + 1)))
    # reach[k]: the cheapest cost a level adds on coordinate k (none past m).
    reach = [g + L2 for g in Gs] + [math.inf]

    total = 0
    head = [0.0]
    taus = ()  # thresholds of the nonempty tails; none until the tail starts
    levels = None  # Ltab as an array, once the tail starts
    entries = 1
    k, t = 0, m  # the head covers coordinates [0, k), the tail [t, m)
    while k < t:
        room = node_budget - entries
        if m < _SPLIT_MIN_COORDS or len(head) <= _TAIL_STEP_ENTRIES + len(taus):
            done, head = _extend_head(head, Gs[k], reach[k + 1], Ltab, B, room)
            total += done
            entries += len(head)
            k += 1
        else:
            if levels is None:
                levels = np.array(Ltab)
            new, taus = _extend_tail(taus, Gs[t - 1], levels, B, room)
            entries += new
            t -= 1
        if entries > node_budget:
            raise BudgetExceeded(
                f"node budget exceeded: the count needs at least {entries} enumerated "
                f"entries, over the budget of {node_budget}")
    # Each open head tuple completes with the empty tail and with every tail
    # whose threshold lies above its cost.
    total += len(head)
    if len(taus) and len(head):
        taus.sort()
        costs = np.array(head)
        total += len(taus) * len(costs) - int(np.searchsorted(taus, costs, side="right").sum())
    return CountResult(total, entries, m)


def top_eigenvalues(lam: EigenSeq, gam: WeightSeq, d: int, K: int) -> list:
    """K largest tensor eigenvalues as non-decreasing log(1/value) costs.

    Folds the coordinates in order, keeping the ascending partial costs no
    larger than the K-th cheapest: a partial tuple completes at the same cost
    with level 1 on every later coordinate, so no tuple among the K cheapest
    is dropped.  Each cost is the counter's left fold ``cost + (G_k + L_j)``.
    Cost ties are emitted in full, so the result may exceed K entries; with
    fewer than K positive eigenvalues it is padded with +inf costs to K.
    """
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise ValueError(f"d must be a positive integer, got {d!r}")
    if isinstance(K, bool) or not isinstance(K, int) or K < 1:
        raise ValueError(f"K must be a positive integer, got {K!r}")
    cap = max(4096, 32 * K * max(d, 2))
    over = f"top-{K} search needs {{}} candidates on coordinate {{}}, over the cap of {cap}"

    # Indices are generated here, so the families are read directly.
    L = lam.family.log_inv
    Gs = list(map(gam.family.log_inv, range(1, d + 1)))
    # The tuples (j, 1, ..., 1) with j <= K cost at most G(1) + L(K), and a
    # level j costs at least G(1) + L(j) on any coordinate.
    levels = np.array(_level_table(L, Gs[0], math.nextafter(Gs[0] + L(K), math.inf), cap,
                                   over.format(f"more than {cap}", 1)))
    costs = np.zeros(1)
    with np.errstate(over="ignore"):  # sums past the float range saturate to inf
        for k, g in enumerate(Gs, 1):
            w = g + levels
            w = np.concatenate(([0.0], w[:np.searchsorted(w, math.inf)]))  # finite only
            # The (i+1) * ceil(K/(i+1)) sums costs[:i+1] + w[:ceil(K/(i+1))]
            # are all no larger than costs[i] + w[ceil(K/(i+1)) - 1].
            i = np.arange(len(costs))
            jw = (K + i) // (i + 1) - 1
            fit = jw < len(w)
            u = float(np.min(costs[fit] + w[jw[fit]], initial=math.inf))
            # Per level, the costs with cost + w <= u form a prefix; a bound
            # 2 ulp(u) wide finds a superset of it, filtered exactly below.
            n = np.searchsorted(costs, (u - w) + 2.0 * math.ulp(u), side="right")
            total = int(n.sum())
            if total > cap:
                raise BudgetExceeded(over.format(total, k))
            cand = costs[np.arange(total) - np.repeat(np.cumsum(n) - n, n)] + np.repeat(w, n)
            cand = cand[cand <= u]
            if len(cand) > K:
                cand = cand[cand <= np.partition(cand, K - 1)[K - 1]]
            costs = np.sort(cand)
    return [ExtLogMag(c) for c in costs.tolist() + [math.inf] * (K - len(costs))]


def nth_minimal_error(lam: EigenSeq, gam: WeightSeq, d: int, n: int) -> ExtLogMag:
    """log(1/e(n)): half the cost of the (n+1)-th largest tensor eigenvalue."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    ev = top_eigenvalues(lam, gam, d, n + 1)
    return ExtLogMag(0.5 * float(ev[n]))
