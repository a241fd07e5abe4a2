"""Differential and knife-edge net for the exact counter and the top-K list.

Every count here is checked against ``verify.brute_force_count``, which
enumerates the whole level box with the same left-associated float fold.
The closed-form families reach the oracle through hypothesis strategies.
Integer and dyadic tables put tuple costs exactly on the budget 2E, so the
strict ``cost < 2E`` comparison decides them.  Every top-K list is checked
against ``reference_top``, which sorts the fold costs of the whole box.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tensortract import (
    DoubleExpPower,
    EigenSeq,
    EventuallyZero,
    ExpPower,
    IterLog,
    LogPower,
    PowerLaw,
    Query,
    Tabulated,
    WeightSeq,
    brute_force_count,
    info_complexity,
    top_eigenvalues,
)
from tensortract import seqcore

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


def test_counter_uses_scalar_values_only(monkeypatch):
    """The counter builds its level and weight tables from scalar log_inv.

    Vector log_inv_many drifts from scalar log_inv in the last ulp (235 of
    5,000 indices for ExpPower(0.7, 2.5), 215 for DoubleExpPower(0.2, 0.5)),
    so a counter built on it would lose oracle identity.  With every vector
    override refusing, the counter must still count, and match the oracle.
    """
    def refuse(self, js):
        raise AssertionError("the counter must not call log_inv_many")

    for cls in vars(seqcore).values():
        if isinstance(cls, type) and issubclass(cls, seqcore._FamilyBase):
            monkeypatch.setattr(cls, "log_inv_many", refuse)
    cases = [
        (ExpPower(0.7, 2.5), ExpPower(0.7, 2.5), 24.0, 6),
        (DoubleExpPower(0.2, 0.5), DoubleExpPower(0.2, 0.5), 0.6, 4),
        (LogPower(1.5), LogPower(2.0), 4.0, 4),
        (DoubleExpPower(1.0, 1.0), DoubleExpPower(1.0, 1.0), 2000.0, 7),
        (PowerLaw(2.0), ExpPower(1.0, 1.0), 6.0, 5),
    ]
    for fam, wfam, B, d in cases:
        check_against_oracle(EigenSeq(fam), WeightSeq(wfam), B, d)


def reference_top(lam, gam, d, K):
    """Brute-force top-K: every fold cost in the level box, sorted.

    The tuples (j, 1, ..., 1) with j <= K bound the K-th cost by
    G(1) + L(K), so the box holds every tuple that can be among the K
    cheapest.  Returns all costs up to the K-th, or the finite costs padded
    with inf to K entries when fewer than K are finite.
    """
    box = oracle_box(lam, gam, math.nextafter(gam.G(1) + lam.L(K), math.inf))
    costs = np.zeros(1)
    for k in range(1, d + 1):
        g = gam.G(k)
        col = np.array([0.0] + [g + lam.L(j) for j in range(2, box + 1)])
        with np.errstate(over="ignore"):  # sums past the float range saturate to inf
            costs = (costs[:, None] + col).ravel()
    costs.sort()
    finite = costs[np.isfinite(costs)].tolist()
    if len(finite) < K:
        return finite + [math.inf] * (K - len(finite))
    return costs[costs <= costs[K - 1]].tolist()


def check_top_against_reference(lam, gam, d, K):
    got = [float(c) for c in top_eigenvalues(lam, gam, d, K)]
    assert got == reference_top(lam, gam, d, K), (lam, gam, d, K)


def draw_dimension(data, lam, gam, K):
    box = oracle_box(lam, gam, math.nextafter(gam.G(1) + lam.L(K), math.inf))
    return data.draw(st.integers(1, max_dimension(box, cap=5)))


@settings(max_examples=150, deadline=None)
@given(fam=CLOSED_FORMS, wfam=WEIGHT_FAMILIES, K=st.integers(1, 300), data=st.data())
def test_top_closed_forms_match_reference(fam, wfam, K, data):
    lam, gam = EigenSeq(fam), WeightSeq(wfam)
    check_top_against_reference(lam, gam, draw_dimension(data, lam, gam, K), K)


@settings(max_examples=150, deadline=None)
@given(scale=st.sampled_from([1.0, 0.5, 0.125, 2.0 ** -10]),
       levels=st.lists(st.integers(1, 8), min_size=1, max_size=9),
       weights=st.lists(st.integers(0, 4), min_size=1, max_size=7),
       lam_inf=st.booleans(), gam_inf=st.booleans(),
       K=st.integers(1, 300), data=st.data())
def test_top_tables_match_reference(scale, levels, weights, lam_inf, gam_inf, K, data):
    """Integer and dyadic tables give exact ties; tables ending in inf give zero eigenvalues."""
    lam = EigenSeq(Tabulated((0.0,) + tuple(scale * v for v in sorted(levels))
                             + (math.inf,) * lam_inf))
    gam = WeightSeq(Tabulated(tuple(scale * v for v in sorted(weights)) + (math.inf,) * gam_inf))
    check_top_against_reference(lam, gam, draw_dimension(data, lam, gam, K), K)
