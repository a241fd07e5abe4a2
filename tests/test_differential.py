"""Differential and knife-edge net for the exact counter and the top-K list.

Every count here is checked against ``verify.brute_force_count``, which
enumerates the whole level box with the same left-associated float fold.
The closed-form families reach the oracle through hypothesis strategies.
Integer and dyadic tables put tuple costs exactly on the budget 2E, so the
strict ``cost < 2E`` comparison decides them.  Every top-K list is checked
against ``reference_top``, which sorts the fold costs of the whole box.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tensortract import (
    ConstantOne,
    DoubleExpPower,
    EigenSeq,
    EventuallyZero,
    ExpPower,
    IterLog,
    LogPower,
    PowerLaw,
    Query,
    Tabulated,
    TripleExp,
    WeightSeq,
    brute_force_count,
    info_complexity,
    nth_minimal_error,
    top_eigenvalues,
)
from tensortract import complexity
from tensortract.cli import RunConfig, run_count
from tensortract.complexity import _last_level, _rank_starts, _staircase, _thresholds
from tensortract.errors import BudgetExceeded
from tensortract.goldens import GOLDEN_PAIRS, GoldenPair
from tensortract.seqcore import _BLOCK_MIN, log_inv_table
from tensortract.tractability import DEFAULT_POLICY

#: Largest level box (box**d cells) the oracle enumerates per example.
BOX_CELLS = 200_000


def _param(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


CLOSED_FORMS = st.one_of(
    st.builds(PowerLaw, _param(0.3, 4.0)),
    st.builds(ExpPower, _param(0.1, 3.0), _param(0.3, 2.5)),
    st.builds(DoubleExpPower, _param(0.1, 1.5), _param(0.3, 2.0)),
    st.builds(LogPower, _param(1.05, 3.0)),
    st.builds(IterLog),
)

EVENTUALLY_ZERO = st.integers(1, 6).flatmap(
    lambda j_star: st.lists(_param(0.0, 4.0), min_size=j_star - 1, max_size=j_star - 1)
    .map(lambda prefix: EventuallyZero(j_star, tuple(sorted(prefix)))))

WEIGHT_FAMILIES = st.one_of(CLOSED_FORMS, EVENTUALLY_ZERO)


def oracle_box(lam, gam, B):
    """One past the largest level that fits on the cheapest coordinate."""
    g1 = gam.G(1)
    j = 2
    while g1 + lam.L(j) < B:
        j += 1
    return j


def max_dimension(box, cap=6):
    d = 1
    while d < cap and box ** (d + 1) <= BOX_CELLS:
        d += 1
    return d


def check_against_oracle(lam, gam, B, d):
    q = Query(B / 2.0, d)
    assert 2.0 * q.E == B
    box = oracle_box(lam, gam, B)
    got = info_complexity(lam, gam, q).count
    assert got == brute_force_count(lam, gam, q, box), (lam, gam, B, d)
    return got


@settings(max_examples=250, deadline=None)
@given(fam=CLOSED_FORMS, wfam=WEIGHT_FAMILIES, j_top=st.integers(2, 10),
       frac=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), _param(0.0, 1.0)),
       data=st.data())
def test_closed_forms_match_oracle(fam, wfam, j_top, frac, data):
    """Budgets between consecutive level costs of coordinate 1, both ends included."""
    lam, gam = EigenSeq(fam), WeightSeq(wfam)
    g1 = gam.G(1) if math.isfinite(gam.G(1)) else 0.0
    lo, hi = g1 + lam.L(j_top), g1 + lam.L(j_top + 1)
    B = lo + frac * (hi - lo)
    d = data.draw(st.integers(1, max_dimension(oracle_box(lam, gam, B))))
    check_against_oracle(lam, gam, B, d)


#: Cells whose level tables have more than _BLOCK_MIN entries, so that the
#: counter builds them from blocks of _formula: the hypothesis draws above
#: stay under ten levels.  Budgets fall around level j_top of coordinate 1.
_BLOCK_CELLS = [
    (PowerLaw(0.5), ExpPower(1.0, 1.0), 120),
    (ExpPower(0.25, 0.5), PowerLaw(2.0), 100),
    (IterLog(tuple(0.07 * i for i in range(100))), ExpPower(1.0, 1.0), 110),
    (LogPower(2.0), ExpPower(2.0, 1.0), 100),
    (DoubleExpPower(0.2, 0.5), ExpPower(1.0, 1.0), 100),
    (TripleExp(0.01), ExpPower(1.0, 1.0), 80),
]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("frac", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("fam, wfam, j_top", _BLOCK_CELLS,
                         ids=["power_law", "exp_power_beta_half", "iter_log_long_prefix",
                              "log_power", "double_exp", "triple_exp"])
def test_block_built_level_tables_match_oracle(fam, wfam, j_top, frac, d):
    lam, gam = EigenSeq(fam), WeightSeq(wfam)
    lo, hi = gam.G(1) + lam.L(j_top), gam.G(1) + lam.L(j_top + 1)
    B = lo + frac * (hi - lo)
    assert oracle_box(lam, gam, B) - 1 > _BLOCK_MIN
    check_against_oracle(lam, gam, B, d)


@settings(max_examples=250, deadline=None)
@given(scale=st.sampled_from([1.0, 0.5, 0.125, 2.0 ** -10]),
       levels=st.lists(st.integers(1, 8), min_size=1, max_size=9),
       weights=st.lists(st.integers(0, 4), min_size=1, max_size=7),
       budget=st.integers(1, 24), data=st.data())
def test_exact_ties_match_oracle(scale, levels, weights, budget, data):
    """Integer and dyadic tables: every fold is exact, so many costs equal 2E."""
    lam = EigenSeq(Tabulated((0.0,) + tuple(scale * v for v in sorted(levels))))
    gam = WeightSeq(Tabulated(tuple(scale * v for v in sorted(weights))))
    B = scale * budget
    d = data.draw(st.integers(1, max_dimension(oracle_box(lam, gam, B))))
    check_against_oracle(lam, gam, B, d)


def test_knife_edge_is_strict():
    """Costs on the budget are excluded; one ulp more budget admits them."""
    lam = EigenSeq(Tabulated((0.0, 1.0, 2.0, 3.0)))
    gam = WeightSeq(Tabulated((0.0, 1.0, 1.0)))
    at = check_against_oracle(lam, gam, 4.0, 3)
    above = check_against_oracle(lam, gam, math.nextafter(4.0, math.inf), 3)
    # (1,4,1), (1,1,4), (3,2,1), (3,1,2), (2,3,1), (2,1,3) and (1,2,2) cost exactly 4
    assert (at, above) == (10, 17)


#: Cells whose counts are large enough for the counter to split its
#: coordinates into a head and a tail.  Each is checked in full by the oracle.
LARGE_CELLS = [
    pytest.param((0.0, 2.0, 3.0, 4.0, 5.0), (0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0), 16.0, 8,
                 id="integer-8d"),
    pytest.param((0.0, 1.0, 2.0, 2.0, 3.0, 4.0), (0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0), 14.0, 7,
                 id="integer-repeated-levels-7d"),
    pytest.param((0.0, 1.5, 2.25, 2.25, 3.125), (0.0, 0.0, 0.5, 0.5, 1.0, 1.0, 1.5, 1.5), 12.0, 8,
                 id="dyadic-8d"),
]


@pytest.mark.parametrize("lvals, gvals, B, d", LARGE_CELLS)
def test_large_tables_match_oracle(lvals, gvals, B, d):
    check_against_oracle(EigenSeq(Tabulated(lvals)), WeightSeq(Tabulated(gvals)), B, d)


@pytest.mark.parametrize("E, d, count", [(1000.0, 7, 113867), (3000.0, 7, 1255273),
                                         (14000.0, 7, 5948295)])
def test_large_double_exp_cells_match_oracle(E, d, count):
    """The double_exp_sharp pair; E = 14000, d = 7 is its amplified sandwich cell."""
    lam = EigenSeq(DoubleExpPower(1.0, 1.0))
    gam = WeightSeq(DoubleExpPower(1.0, 1.0))
    assert check_against_oracle(lam, gam, 2.0 * E, d) == count


def test_counter_uses_scalar_values_only():
    """The counter builds its level and weight tables from scalar log_inv,
    the one formula per family, and matches the oracle on closed forms."""
    cases = [
        (ExpPower(0.7, 2.5), ExpPower(0.7, 2.5), 24.0, 6),
        (DoubleExpPower(0.2, 0.5), DoubleExpPower(0.2, 0.5), 0.6, 4),
        (LogPower(1.5), LogPower(2.0), 4.0, 4),
        (DoubleExpPower(1.0, 1.0), DoubleExpPower(1.0, 1.0), 2000.0, 7),
        (PowerLaw(2.0), ExpPower(1.0, 1.0), 6.0, 5),
    ]
    for fam, wfam, B, d in cases:
        check_against_oracle(EigenSeq(fam), WeightSeq(wfam), B, d)


def count_or_message(lam, gam, q, node_budget, **shared):
    try:
        return info_complexity(lam, gam, q, node_budget=node_budget, **shared)
    except BudgetExceeded as exc:
        return str(exc)


def check_sweep_rows(lam, gam, Es, ds, node_budget):
    """Each row of one ``sweep`` call, whose cells of one E share the
    counter's head steps, against a standalone count of its cell.  The cells
    of each E also run in both orders of d with one shared ``_heads``, and
    must give the standalone result or budget message."""
    cfg = RunConfig(lam=lam, gam=gam, E_list=Es, d_list=ds, notion=None,
                    node_budget=node_budget, search_cap=None, k=1, policy=DEFAULT_POLICY,
                    audit={}, out_format="csv", out_path=None)
    rows, _ = run_count(cfg)  # cells in COUNT_COLUMNS order
    assert [(d, E) for E, d, *_ in rows] == sorted((d, E) for d in ds for E in Es)
    for E, d, _, _, *got in rows:
        try:
            res = info_complexity(lam, gam, Query(E, d), node_budget=node_budget)
        except BudgetExceeded:
            assert got == ["", "", "", "budget_exceeded"], (E, d)
        else:
            assert got == [res.count, res.nodes_visited, res.truncated_dimension, ""], (E, d)
    for E in set(Es):
        for order in (sorted(set(ds)), sorted(set(ds), reverse=True)):
            heads = {}
            for d in order:
                q = Query(E, d)
                assert (count_or_message(lam, gam, q, node_budget, _heads=heads)
                        == count_or_message(lam, gam, q, node_budget)), (E, d, order)


def repeating_grid(values):
    """Lists of 1-6 values drawn from ``values``, repeats included."""
    return st.lists(values, min_size=1, max_size=3, unique=True).flatmap(
        lambda base: st.lists(st.sampled_from(base), min_size=1, max_size=6))


D_GRIDS = st.lists(st.integers(1, 14), min_size=1, max_size=5)
#: The golden cells below take at most 6,360 entries; on the tables a budget
#: bounds the cells, and so the time and memory of an example.
SWEEP_BUDGETS = st.integers(1, 20_000)


@settings(max_examples=120, deadline=None)
@given(pair=st.sampled_from(GOLDEN_PAIRS), frac=repeating_grid(st.sampled_from(
       [0.0, 0.125, 0.25, 0.5, 0.75, 1.0])), ds=D_GRIDS, node_budget=SWEEP_BUDGETS)
def test_sweep_rows_match_standalone_counts_on_golden_pairs(pair, frac, ds, node_budget):
    """E from the pair's least audit E to three times its largest."""
    lo, hi = min(pair.audit_E), 3.0 * max(pair.audit_E)
    check_sweep_rows(pair.lam, pair.gam, [lo + f * (hi - lo) for f in frac], ds, node_budget)


@settings(max_examples=150, deadline=None)
@given(scale=st.sampled_from([1.0, 0.5, 0.1]),
       levels=st.lists(st.integers(1, 8), min_size=1, max_size=9),
       weights=st.lists(st.integers(0, 4), min_size=1, max_size=14),
       budgets=repeating_grid(st.integers(1, 24)), ds=D_GRIDS, node_budget=SWEEP_BUDGETS)
def test_sweep_rows_match_standalone_counts_on_tables(scale, levels, weights, budgets, ds,
                                                      node_budget):
    """Integer tables, scaled by 1, 0.5 or 0.1, with E at 2E = scale * budget:
    knife edges wherever the scaled sums are exact."""
    lam = EigenSeq(Tabulated((0.0,) + tuple(scale * v for v in sorted(levels))))
    gam = WeightSeq(Tabulated(tuple(scale * v for v in sorted(weights))))
    check_sweep_rows(lam, gam, [scale * b / 2.0 for b in budgets], ds, node_budget)


def ascending_heads(mp):
    """Wrap the counter's head steps in ``mp`` so that every array head the
    numpy step receives, and every array head a step returns, must be
    ascending: the step and the merge search the head by bisection.  Returns
    the list of head lengths the numpy step received."""
    seen = []
    real_array, real_list = complexity._extend_head_array, complexity._extend_head

    def ascending(head):
        assert isinstance(head, np.ndarray) and not (head[1:] < head[:-1]).any()

    def array_step(head, *args):
        ascending(head)
        seen.append(len(head))
        got = real_array(head, *args)
        ascending(got[2])
        return got

    def list_step(head, *args):
        got = real_list(head, *args)
        if not isinstance(got[2], list):
            ascending(got[2])
        return got

    mp.setattr(complexity, "_extend_head_array", array_step)
    mp.setattr(complexity, "_extend_head", list_step)
    return seen


@pytest.mark.parametrize("lam, gam, E, d", [
    (EigenSeq(DoubleExpPower(1.0, 1.0)), WeightSeq(DoubleExpPower(1.0, 1.0)), 1e8, 10),
    (EigenSeq(PowerLaw(2.0)), WeightSeq(ExpPower(1.0, 1.0)), 12.0, 40),
    (EigenSeq(ExpPower(1.0, 1.0)), WeightSeq(ExpPower(1.0, 1.0)), 30.0, 40),
    (EigenSeq(PowerLaw(1.0)), WeightSeq(PowerLaw(0.7)), 3.0, 40),
], ids=["double_exp-1e8", "power_law-exp_power-12", "exp_power-30", "power_law-power_law-3"])
def test_reach_cells_grow_ascending_heads(monkeypatch, lam, gam, E, d):
    """The reach cells pinned in test_complexity.py."""
    seen = ascending_heads(monkeypatch)
    info_complexity(lam, gam, Query(E, d), node_budget=3 * 10**7)
    assert seen


@settings(max_examples=150, deadline=None)
@given(scale=st.sampled_from([1.0, 0.5, 0.125]),
       levels=st.lists(st.integers(1, 8), min_size=1, max_size=9),
       weights=st.lists(st.integers(0, 4), min_size=1, max_size=14),
       budgets=repeating_grid(st.integers(1, 24)), ds=D_GRIDS, node_budget=SWEEP_BUDGETS,
       tail_step_entries=st.sampled_from([0, 16, 256]))
def test_shared_heads_stay_ascending(scale, levels, weights, budgets, ds, node_budget,
                                     tail_step_entries):
    """Integer and dyadic tables through ``check_sweep_rows``: a sweep, each
    cell alone, and each E's cells in both orders of d on one ``_heads``.
    A lower ``_TAIL_STEP_ENTRIES`` turns small heads into arrays, which few
    cells under these budgets grow past 256 entries."""
    lam = EigenSeq(Tabulated((0.0,) + tuple(scale * v for v in sorted(levels))))
    gam = WeightSeq(Tabulated(tuple(scale * v for v in sorted(weights))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexity, "_TAIL_STEP_ENTRIES", tail_step_entries)
        ascending_heads(mp)
        check_sweep_rows(lam, gam, [scale * b / 2.0 for b in budgets], ds, node_budget)


def reference_columns(lam, gam, d, K):
    """Per coordinate, 0.0 for level 1 and every level cost up to T = G(1) + L(K).

    The tuples (j, 1, ..., 1) with j <= K bound the K-th cost by T, and a
    fold of non-negative terms costs at least each of its terms.  So a level
    that costs more than T on its coordinate is in no tuple among the K
    cheapest, nor in their tie class.  Past the last coordinate that can hold
    a level within T, every column is [0.0].
    """
    T = gam.G(1) + lam.L(K)
    box = oracle_box(lam, gam, math.nextafter(T, math.inf))
    cols = []
    for k in range(1, d + 1):
        g = gam.G(k)
        cols.append(np.array([0.0] + [c for c in (g + lam.L(j) for j in range(2, box + 1))
                                      if c <= T]))
    return cols


def reference_top(lam, gam, d, K):
    """Brute-force top-K: every fold cost over ``reference_columns``, sorted.

    Returns all costs up to the K-th, or the finite costs padded with inf to
    K entries when fewer than K are finite.
    """
    costs = np.zeros(1)
    for col in reference_columns(lam, gam, d, K):
        with np.errstate(over="ignore"):  # sums past the float range saturate to inf
            costs = (costs[:, None] + col).ravel()
    costs.sort()
    finite = costs[np.isfinite(costs)].tolist()
    if len(finite) < K:
        return finite + [math.inf] * (K - len(finite))
    return costs[costs <= costs[K - 1]].tolist()


def check_top_against_reference(lam, gam, d, K):
    top = top_eigenvalues(lam, gam, d, K)
    ref = reference_top(lam, gam, d, K)
    assert all(type(c) is float for c in top)
    assert top == ref, (lam, gam, d, K)
    # The error after K - 1 functionals is half the K-th cost.
    err = nth_minimal_error(lam, gam, d, K - 1)
    assert type(err) is float and err == 0.5 * ref[K - 1]


def draw_dimension(data, lam, gam, K, cap=12):
    """d <= cap whose reference box stays within BOX_CELLS.

    Coordinates past the active ones add a one-entry column, so fast-decaying
    weights reach d = cap: the draws where the fold stops before d.
    """
    sizes = [len(col) for col in reference_columns(lam, gam, cap, K)]
    d, cells = 1, sizes[0]
    while d < cap and cells * sizes[d] <= BOX_CELLS:
        cells *= sizes[d]
        d += 1
    return data.draw(st.integers(1, d))


@settings(max_examples=150, deadline=None)
@given(fam=CLOSED_FORMS, wfam=WEIGHT_FAMILIES, K=st.integers(1, 300), data=st.data())
def test_top_closed_forms_match_reference(fam, wfam, K, data):
    lam, gam = EigenSeq(fam), WeightSeq(wfam)
    check_top_against_reference(lam, gam, draw_dimension(data, lam, gam, K), K)


@settings(max_examples=150, deadline=None)
@given(scale=st.sampled_from([1.0, 0.5, 0.125, 2.0 ** -10, 0.1]),
       levels=st.lists(st.integers(1, 8), min_size=1, max_size=9),
       weights=st.lists(st.integers(0, 4), min_size=1, max_size=7),
       lam_inf=st.booleans(), gam_inf=st.booleans(),
       K=st.integers(1, 300), data=st.data())
def test_top_tables_match_reference(scale, levels, weights, lam_inf, gam_inf, K, data):
    """Integer and dyadic tables give exact ties; decimal tables (multiples of 0.1)
    give sums that round (0.1 + 0.2 > 0.3), so fold costs land a few ulp from
    the K-th; tables ending in inf give zero eigenvalues."""
    lam = EigenSeq(Tabulated((0.0,) + tuple(scale * v for v in sorted(levels))
                             + (math.inf,) * lam_inf))
    gam = WeightSeq(Tabulated(tuple(scale * v for v in sorted(weights)) + (math.inf,) * gam_inf))
    check_top_against_reference(lam, gam, draw_dimension(data, lam, gam, K), K)


@settings(max_examples=100, deadline=None)
@given(fam=CLOSED_FORMS, wfam=st.one_of(
           st.builds(ExpPower, _param(0.5, 3.0), _param(0.8, 2.5)),
           st.builds(DoubleExpPower, _param(0.5, 1.5), _param(0.5, 2.0)),
           EVENTUALLY_ZERO),
       K=st.integers(1, 40), data=st.data())
def test_top_fast_decaying_weights_match_reference(fam, wfam, K, data):
    """Small K and fast-decaying weights: most draws fold fewer coordinates than d."""
    lam, gam = EigenSeq(fam), WeightSeq(wfam)
    check_top_against_reference(lam, gam, draw_dimension(data, lam, gam, K), K)


#: (eigenvalues, weights, K) whose K cheapest tuples use only a few coordinates.
ACTIVE_CASES = [
    pytest.param(PowerLaw(2.0), ExpPower(1.0, 1.0), 50, id="power_law-exp_power"),
    pytest.param(ExpPower(0.7, 1.0), DoubleExpPower(1.0, 1.0), 200, id="exp_power-double_exp"),
    pytest.param(LogPower(2.0), ExpPower(2.0, 1.5), 7, id="log_power-exp_power"),
    pytest.param(Tabulated((0.0, 1.0, 1.0, 2.0)), EventuallyZero(4, (0.0, 0.5, 1.0)), 30,
                 id="table-eventually_zero"),
]


@pytest.mark.parametrize("fam, wfam, K", ACTIVE_CASES)
def test_top_stops_at_active_dimension(monkeypatch, fam, wfam, K):
    """Past the active dimension m the list is the list at m, and on these
    pairs no weight past m + 1 is read.

    m is the last coordinate that can hold a level within the K-th cost:
    G(m) + L(2) <= cost_K < G(m + 1) + L(2).  A far block can read further:
    its stop is taken against a bound on cost_K, which can exceed it
    (``test_a_bad_weight_in_the_far_block_is_rejected``).
    """
    lam, gam = EigenSeq(fam), WeightSeq(wfam)
    read = []
    log_inv = type(wfam).log_inv
    monkeypatch.setattr(type(wfam), "log_inv", lambda self, j: read.append(j) or log_inv(self, j))
    top = top_eigenvalues(lam, gam, 200, K)
    monkeypatch.undo()
    kth = float(top[K - 1])
    m = max(k for k in range(1, 201) if gam.G(k) + lam.L(2) <= kth)
    assert m < 200 and max(read) <= m + 1
    assert all(type(c) is float for c in top)
    assert top == top_eigenvalues(lam, gam, m, K) == reference_top(lam, gam, m, K)


def frozen_thresholds(w, tau):
    """The threshold kernel as it stood before its steps went by bit pattern:
    the smallest double p >= 0 with ``p + w >= tau``, for arrays w, tau >= 0,
    by ``np.nextafter`` steps from the midpoint estimate.  Kept, apart from
    ``src/``, as the frozen fold's kernel and as the reference for
    ``test_thresholds_match_the_frozen_kernel``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        p = (tau - w) - 0.5 * (tau - np.nextafter(tau, 0.0))
        big = np.flatnonzero(tau == math.inf)
        p[big] = (sys.float_info.max - w[big]) + 2.0**970
        np.maximum(p, 0.0, out=p)
        todo = np.flatnonzero(p + w < tau)
        while todo.size:
            p[todo] = np.nextafter(p[todo], math.inf)
            todo = todo[p[todo] + w[todo] < tau[todo]]
        todo = np.flatnonzero((p > 0.0) & (np.nextafter(p, 0.0) + w >= tau))
        while todo.size:
            p[todo] = np.nextafter(p[todo], 0.0)
            todo = todo[(p[todo] > 0.0) & (np.nextafter(p[todo], 0.0) + w[todo] >= tau[todo])]
    return p


INF_BITS = 0x7FF0000000000000  # the bit pattern of +inf
#: Bit patterns of doubles in [0, inf], with 0, the two smallest positive
#: doubles, MAX and inf drawn often.
BIT_PATTERNS = st.integers(0, INF_BITS) | st.sampled_from([0, 1, 2, INF_BITS - 1, INF_BITS])


def from_bits(bits):
    return np.array(bits, dtype=np.int64).view(np.float64)


def near(t):
    """A bit pattern anywhere in [0, inf], or within 64 patterns below t."""
    return BIT_PATTERNS | st.integers(max(0, t - 64), t)


@settings(max_examples=300, deadline=None)
@given(BIT_PATTERNS.flatmap(lambda t: st.tuples(st.just(t), st.lists(near(t), min_size=1))),
       st.lists(BIT_PATTERNS.flatmap(lambda t: st.tuples(near(t), st.just(t))), min_size=1))
def test_thresholds_match_the_frozen_kernel(one, pairs):
    """The bit-pattern kernel gives the frozen kernel's bits, against one
    float bound and against an array of bounds, w >= tau included."""
    t, ws = one
    w, tau = from_bits(ws), from_bits([t] * len(ws))
    want = frozen_thresholds(w, tau).view(np.int64).tolist()
    assert _thresholds(w, float(tau[0])).view(np.int64).tolist() == want
    assert _thresholds(w, tau).view(np.int64).tolist() == want
    w, tau = from_bits([b for b, _ in pairs]), from_bits([b for _, b in pairs])
    want = frozen_thresholds(w, tau).view(np.int64).tolist()
    assert _thresholds(w, tau).view(np.int64).tolist() == want


def frozen_top_eigenvalues(lam, gam, d, K):
    """The top-K fold as it stood before its rank bounds were cached: the
    rank-bound table is rebuilt on every coordinate and read through boolean
    masks, coordinate 1 goes through the same pairing as the others, the
    cut is a partition, and the thresholds are ``frozen_thresholds``.  Kept
    as the reference for ``test_fold_bits_match_the_frozen_fold``, with the
    same budget messages.
    """
    cap = max(4096, 32 * K * max(d, 2))
    over = f"top-{K} search needs {{}} candidates on coordinate {{}}, over the cap of {cap}"
    L, G = lam.family.log_inv, gam.family.log_inv
    g1 = G(1)
    J = _last_level(L, g1, math.nextafter(g1 + L(K), math.inf), cap,
                    over.format(f"more than {cap}", 1))
    levels = log_inv_table(lam.family, 2, J + 1)
    L2 = float(levels[0]) if len(levels) else math.inf
    costs = np.zeros(1)
    with np.errstate(over="ignore"):
        for k in range(1, d + 1):
            g = G(k)
            if g + L2 == math.inf or (len(costs) >= K and g + L2 > costs[-1]):
                break
            w = g + levels
            w = np.concatenate(([0.0], w[:np.searchsorted(w, math.inf)]))
            i = np.arange(len(costs))
            jw = (K + i) // (i + 1) - 1
            fit = jw < len(w)
            u = float(np.min(costs[fit] + w[jw[fit]], initial=math.inf))
            w = w[w <= u]
            next_u = math.nextafter(u, math.inf)
            n = np.searchsorted(costs, frozen_thresholds(w, np.full(len(w), next_u)))
            total = int(n.sum())
            if total > cap:
                raise BudgetExceeded(over.format(total, k))
            cand = costs[np.arange(total) - np.repeat(np.cumsum(n) - n, n)] + np.repeat(w, n)
            if len(cand) > K:
                cand = cand[cand <= np.partition(cand, K - 1)[K - 1]]
            costs = np.sort(cand)
    return costs.tolist() + [math.inf] * (K - len(costs))


#: Pairs at the fold's edges, each with a tie class that some K cuts.
EDGE_PAIRS = (
    # Zero entries of both signs: every zero cost in the output is +0.0.
    GoldenPair("signed_zeros", EigenSeq(Tabulated((-0.0, -0.0, -0.0, 1.0, 2.0, 2.0, 3.0))),
               WeightSeq(Tabulated((-0.0, -0.0, 0.5, 1.0))), (), ()),
    # A tie class of zero costs that grows threefold per coordinate, past the
    # candidate cap at K = 1 and 7 by d = 12 (and at K = 500 on coordinate 12).
    GoldenPair("zero_tie_class", EigenSeq(Tabulated((0.0, 0.0, 0.0, 1.0))),
               WeightSeq(Tabulated((0.0,) * 12)), (), ()),
    # Two levels on two coordinates: 9 finite costs, padded with inf to K.
    GoldenPair("short_row", EigenSeq(Tabulated((0.0, 1.0, 2.0))),
               WeightSeq(Tabulated((0.0, 0.5))), (), ()),
    # Sums past the float range saturate to inf, a zero eigenvalue.
    GoldenPair("saturating", EigenSeq(Tabulated((0.0, 1e308, 1e308, 1.5e308))),
               WeightSeq(Tabulated((0.0, 5e307, 6e307))), (), ()),
    # At d = 12 and K = 500 the cheapest levels of two coordinates sum to
    # exactly the K-th cost kept: a tuple with both ties with it, so those
    # coordinates may not fold as one block.
    GoldenPair("pair_on_the_kth_cost", EigenSeq(Tabulated((0.0, 0.0, 1.0, 2.0, 7.0, 10.0))),
               WeightSeq(Tabulated((0.0, 0.5, 1.0, 1.0, 1.5, 2.0, 2.5, 2.5, 2.5, 2.5))), (), ()),
    # The far coordinates fold as one block that runs to d: coordinates 3 to
    # 5 at d = 5 and K = 7, 9 to 12 at K = 500, 10 to 12 at K = 3000.
    GoldenPair("block_to_the_last_coordinate",
               EigenSeq(Tabulated((0.0, 1.0, 2.0, 2.0, 2.0, 3.0, 7.0, 9.0, 10.0))),
               WeightSeq(Tabulated((0.0, 0.5, 0.5, 1.0, 1.0, 1.0, 1.5, 1.5, 1.5) + (3.0,) * 5)),
               (), ()),
    # Tie classes that grow eightfold per coordinate, up to the cap: a block
    # whose pairs exceed the cap (d = 5 at K = 1 and 7, d = 12 at K = 3000)
    # folds coordinate k alone instead, so it raises only where, and with
    # the message that, one coordinate at a time raises.
    GoldenPair("block_over_the_cap",
               EigenSeq(Tabulated((0.0,) * 8 + (0.25,) + (0.5,) * 3 + (0.75,) * 3 + (1.0,) * 4
                                  + (1.25,) * 3 + (1.5,) * 2)),
               WeightSeq(Tabulated((0.0,) * 7 + (0.25,) * 2 + (0.75,) * 3 + (1.0,) * 2)), (), ()),
)


@pytest.mark.parametrize("pair", GOLDEN_PAIRS + EDGE_PAIRS,
                         ids=[p.name for p in GOLDEN_PAIRS + EDGE_PAIRS])
def test_fold_bits_match_the_frozen_fold(pair):
    """Every golden and edge pair at d in (1, 2, 5, 12) and K in (1, 7, 500,
    3000): the same costs, bit for bit, as the frozen fold, and the same
    ``nth_minimal_error`` at rank K - 1; or, where the frozen fold overruns
    its cap, the same BudgetExceeded message."""
    overshoot = 0
    for d in (1, 2, 5, 12):
        for K in (1, 7, 500, 3000):
            try:
                ref = frozen_top_eigenvalues(pair.lam, pair.gam, d, K)
            except BudgetExceeded as exc:
                with pytest.raises(BudgetExceeded) as got:
                    top_eigenvalues(pair.lam, pair.gam, d, K)
                assert str(got.value) == str(exc), (d, K)
                continue
            top = top_eigenvalues(pair.lam, pair.gam, d, K)
            assert list(map(float.hex, top)) == list(map(float.hex, ref)), (d, K)
            err = nth_minimal_error(pair.lam, pair.gam, d, K - 1)
            assert err.hex() == (0.5 * ref[K - 1]).hex()
            overshoot += len(top) > K
    # Each pair has a tie class that some K cuts: results longer than K are covered.
    assert overshoot


def test_constant_weights_match_the_frozen_fold():
    """Equal weights on 3,000 coordinates: once two cheapest levels exceed the
    K-th cost, every later coordinate joins one block, in one step."""
    lam, gam = EigenSeq(ExpPower(1.0, 1.0)), WeightSeq(ConstantOne())
    top = top_eigenvalues(lam, gam, 3000, 10)
    ref = frozen_top_eigenvalues(lam, gam, 3000, 10)
    assert list(map(float.hex, top)) == list(map(float.hex, ref))


def test_fold_bits_match_the_frozen_fold_at_gate_0(monkeypatch):
    """The two tests above with the staircase bound taken on every coordinate
    that has more than K candidates, down to a single one past K."""
    monkeypatch.setattr(complexity, "_STAIRCASE_ENTRIES", 0)
    for pair in GOLDEN_PAIRS + EDGE_PAIRS:
        test_fold_bits_match_the_frozen_fold(pair)
    test_constant_weights_match_the_frozen_fold()


@pytest.mark.parametrize("d", [10, 20])
def test_large_K_matches_the_frozen_fold(d):
    """At the default gate and K = 10**4, coordinates 2 and 3 of this pair
    hold 5.8 K and 2.0 K candidates under the rank bound, so both take the
    staircase bound."""
    lam, gam = EigenSeq(PowerLaw(2.0)), WeightSeq(ExpPower(1.0, 1.0))
    top = top_eigenvalues(lam, gam, d, 10**4)
    ref = frozen_top_eigenvalues(lam, gam, d, 10**4)
    assert list(map(float.hex, top)) == list(map(float.hex, ref))


@settings(max_examples=200, deadline=None)
@given(scale=st.sampled_from([1.0, 0.5, 0.1]),
       levels=st.lists(st.just(0) | st.integers(0, 6), min_size=1, max_size=9),
       weights=st.lists(st.just(0) | st.integers(0, 3), min_size=1, max_size=12),
       d=st.integers(1, 12), K=st.integers(1, 20) | st.integers(1, 3000))
def test_tie_heavy_tables_match_the_frozen_fold(scale, levels, weights, d, K):
    """Small integer tables (scaled, so decimal ones round) with many zero
    levels and weights: tie classes that the staircase bound must keep whole,
    and that can run past the cap.  With the bound on every coordinate, the
    costs are the frozen fold's bit for bit, or its BudgetExceeded message."""
    lam = EigenSeq(Tabulated((0.0,) + tuple(scale * v for v in sorted(levels))))
    gam = WeightSeq(Tabulated(tuple(scale * v for v in sorted(weights))))
    try:
        ref = frozen_top_eigenvalues(lam, gam, d, K)
    except BudgetExceeded as exc:
        ref = exc
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexity, "_STAIRCASE_ENTRIES", 0)
        if isinstance(ref, BudgetExceeded):
            with pytest.raises(BudgetExceeded) as got:
                top_eigenvalues(lam, gam, d, K)
            assert str(got.value) == str(ref)
        else:
            top = top_eigenvalues(lam, gam, d, K)
            assert list(map(float.hex, top)) == list(map(float.hex, ref))


@settings(max_examples=300, deadline=None)
@given(costs=st.lists(st.integers(0, 40), min_size=1, max_size=60),
       runs=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 60)), min_size=1, max_size=30),
       scale=st.sampled_from([1.0, 0.1]), kfrac=st.floats(0.0, 1.0))
@example(costs=list(range(10)), runs=[(0, 10)], scale=1.0, kfrac=0.5)
def test_staircase_bound_covers_K_candidates(costs, runs, scale, kfrac):
    """The staircase bound t is at or above the K-th least candidate: the
    pairs costs[i] + w[j] with i < n[j], counted one by one, number at least
    K at or below t, for any run lengths n and any K <= sum(n).  One run of
    ten distinct costs at K = 5 has st = 2, so t must be the third sample,
    costs[5], and not the second."""
    costs = np.array(sorted(costs)) * scale
    w = np.array(sorted(v for v, _ in runs)) * scale
    n = np.array([min(r, len(costs)) for _, r in runs])
    K = max(1, math.ceil(kfrac * n.sum()))
    if K <= n.sum():
        t = _staircase(costs, w, n, K)
        assert sum(costs[i] + w[j] <= t for j in range(len(w)) for i in range(n[j])) >= K


def test_rank_bound_reads_only_run_starts():
    """The rank bound read at the run starts of jw[i] = ceil(K/(i+1)) - 1
    equals the bound over every i, bit for bit, for every K < 300 and
    len(w) < 320, on ascending costs and levels with ties, and on cost
    counts that cut the runs."""
    rng = np.random.default_rng(3)
    i = np.arange(400)
    lw = np.arange(1, 320)[:, None]  # one row per len(w)
    for K in range(1, 300):
        starts, jw = _rank_starts(K)
        full = (K + i) // (i + 1) - 1
        assert jw.tolist() == full[starts].tolist()
        assert starts.tolist() == [j for j in range(K) if j == 0 or full[j] < full[j - 1]]
        costs = np.sort(rng.integers(0, 50, 400) / 8.0)
        w = np.sort(rng.integers(0, 50, 319) / 8.0)
        for n in (K, int(rng.integers(1, 401)), 400):
            want = np.where(full[:n] < lw, costs[:n] + w[np.minimum(full[:n], 318)], math.inf)
            keep = (starts < n) & (jw < lw)
            got = np.where(keep, costs[np.minimum(starts, n - 1)] + w[np.minimum(jw, 318)],
                           math.inf)
            assert got.min(axis=1).tobytes() == want.min(axis=1).tobytes(), (K, n)
