import math
import random
import re
from types import SimpleNamespace

import numpy as np
import pytest

from tensortract import complexity
from tensortract import (
    BudgetExceeded,
    ConstantOne,
    DoubleExpPower,
    EigenSeq,
    EventuallyZero,
    ExpPower,
    NonCompact,
    PowerLaw,
    Query,
    Tabulated,
    WeightSeq,
    brute_force_count,
    d_of_eps,
    info_complexity,
    j_of_eps,
    nth_minimal_error,
    top_eigenvalues,
)
from tensortract.verify import random_tabulated_instance

LN2 = math.log(2.0)
DYADIC = EigenSeq(ExpPower(LN2, 1.0))  # lambda_j = 2**-(j-1)
ONES = WeightSeq(ConstantOne())


def brute_pairs(lam, gam, E, d, box):
    """Tiny in-test oracle: nested loops over the level box."""
    B = 2.0 * E
    count = 0
    levels = list(range(1, box + 1))
    import itertools
    for tup in itertools.product(levels, repeat=d):
        cost = 0.0
        for k, lv in enumerate(tup, start=1):
            if lv >= 2:
                cost = cost + (gam.G(k) + lam.L(lv))
        if cost < B:
            count += 1
    return count


class TestThresholdIndices:
    def test_power_law_strict_boundary(self):
        # lambda_10 = 10**-2 equals eps**2 exactly and is excluded.
        assert j_of_eps(EigenSeq(PowerLaw(2.0)), math.log(10.0)) == 9

    def test_only_first_survives(self):
        lam = EigenSeq(Tabulated((0.0, 100.0)))
        assert j_of_eps(lam, 1.0) == 1

    def test_unnormalized_double_exp_table(self):
        lam = EigenSeq(Tabulated(tuple(math.exp(j) for j in range(1, 13))))
        assert j_of_eps(lam, 100.0) == 5
        # matches ceil(log(log(1/eps**2)))**1 - 1 at this scale
        assert math.ceil(math.log(200.0)) - 1 == 5

    def test_weight_threshold(self):
        gam = WeightSeq(Tabulated((1.0, 2.0, 3.0, 4.0, 5.0)))
        assert d_of_eps(gam, 1.75) == 3

    def test_weight_threshold_zero(self):
        gam = WeightSeq(Tabulated((math.log(4.0),)))  # gamma_1 = 0.25
        assert d_of_eps(gam, math.log(2.0)) == 0  # gamma_1 == eps**2: excluded

    def test_eventually_zero_threshold(self):
        gam = WeightSeq(EventuallyZero(4, (0.0, 0.0, 0.0)))
        for E in (0.1, 1.0, 50.0):
            assert d_of_eps(gam, E) == 3

    def test_noncompact_weights(self):
        with pytest.raises(NonCompact):
            d_of_eps(ONES, 1.0)
        assert d_of_eps(ONES, 1.0, cap=12) == 12

    def test_closed_form_beyond_search_cap(self):
        # threshold ~ exp(50) > the cap: still resolved exactly by the closed form
        lam = EigenSeq(PowerLaw(2.0))
        exact = j_of_eps(lam, 50.0, cap=1000)
        assert exact > 10**21
        assert lam.L(exact) < 100.0 <= lam.L(exact + 1)
        assert j_of_eps(lam, 50.0) == exact

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            j_of_eps(DYADIC, 0.0)
        with pytest.raises(ValueError):
            j_of_eps(DYADIC, math.inf)


class TestInfoComplexity:
    def test_dyadic_unweighted(self):
        res = info_complexity(DYADIC, ONES, Query(0.5 * math.log(5.0), 2))
        assert res.count == 6
        assert res.truncated_dimension == 2
        assert res.nodes_visited >= 1

    def test_trivial_budget(self):
        gam = WeightSeq(Tabulated((2.0, 3.0)))
        res = info_complexity(DYADIC, gam, Query(1.0, 2))  # G(1)+L(2) = 2.69 >= 2
        assert res.count == 1
        assert res.truncated_dimension == 0

    def test_weighted_dyadic(self):
        gam = WeightSeq(Tabulated((LN2, 2.0 * LN2)))  # gamma = (1/2, 1/4)
        res = info_complexity(DYADIC, gam, Query(0.5 * math.log(16.0), 2))
        assert res.count == 4

    def test_matches_in_test_oracle(self):
        rng = random.Random(99)
        for _ in range(25):
            lam = EigenSeq(Tabulated((0.0,) + tuple(sorted(rng.uniform(0, 5) for _ in range(6)))))
            gam = WeightSeq(Tabulated(tuple(sorted(rng.uniform(0, 3) for _ in range(5)))))
            E = rng.uniform(0.3, 3.0)
            d = rng.randint(1, 3)
            got = info_complexity(lam, gam, Query(E, d)).count
            assert got == brute_pairs(lam, gam, E, d, 8)

    def test_monotone_in_threshold_and_dimension(self):
        gam = WeightSeq(ExpPower(1.0, 1.0))
        rng = random.Random(5)
        for _ in range(20):
            E = rng.uniform(0.4, 3.0)
            E2 = E + rng.uniform(0.0, 2.0)
            d = rng.randint(1, 4)
            d2 = d + rng.randint(0, 3)
            base = info_complexity(DYADIC, gam, Query(E, d)).count
            assert info_complexity(DYADIC, gam, Query(E2, d)).count >= base
            assert info_complexity(DYADIC, gam, Query(E, d2)).count >= base

    def test_dimension_truncation_equality(self):
        gam = WeightSeq(ExpPower(1.0, 1.0))
        for E in (0.8, 1.5, 2.5):
            deps = d_of_eps(gam, E)
            ref = info_complexity(DYADIC, gam, Query(E, max(deps, 1))).count
            for extra in (1, 3, 10):
                assert info_complexity(DYADIC, gam, Query(E, deps + extra)).count == ref

    def test_node_budget(self):
        with pytest.raises(BudgetExceeded):
            info_complexity(DYADIC, WeightSeq(ExpPower(1.0, 1.0)), Query(8.0, 6),
                            node_budget=10)

    def test_query_validation(self):
        with pytest.raises(ValueError):
            Query(-1.0, 2)
        with pytest.raises(ValueError):
            Query(1.0, 0)
        with pytest.raises(ValueError):
            Query(1.0, 2.5)


DOUBLE_EXP = (EigenSeq(DoubleExpPower(1.0, 1.0)), WeightSeq(DoubleExpPower(1.0, 1.0)))


class TestSplitCounter:
    """The head/tail split: reach, budget, and independence of the split point."""

    def test_double_exp_reach(self):
        # Out of reach for a tuple-by-tuple search: 2.2e11 tuples.
        res = info_complexity(*DOUBLE_EXP, Query(1e6, 10))
        assert res.count == 222_207_101_746
        assert res.truncated_dimension == 10
        assert res.nodes_visited < 2 * 10**6

    @pytest.mark.parametrize("tail_step_entries", [0, 16, 256, 10**9])
    def test_split_point_does_not_change_counts(self, monkeypatch, tail_step_entries):
        monkeypatch.setattr(complexity, "_TAIL_STEP_ENTRIES", tail_step_entries)
        monkeypatch.setattr(complexity, "_SPLIT_MIN_COORDS", 1)
        cells = [(DOUBLE_EXP, 3000.0, 10, 3_054_254), (DOUBLE_EXP, 14000.0, 7, 5_948_295),
                 ((DYADIC, WeightSeq(ExpPower(1.0, 1.0))), 3.0, 6, None),
                 ((EigenSeq(PowerLaw(2.0)), WeightSeq(ExpPower(1.0, 1.0))), 8.0, 20, 55_662)]
        for (lam, gam), E, d, want in cells:
            q = Query(E, d)
            got = info_complexity(lam, gam, q).count
            assert got == (want if want is not None else brute_force_count(lam, gam, q, 10))

    def test_merge_path_is_taken(self, monkeypatch):
        calls = []
        real = complexity._extend_tail
        monkeypatch.setattr(complexity, "_extend_tail",
                            lambda *args: calls.append(1) or real(*args))
        assert info_complexity(*DOUBLE_EXP, Query(3000.0, 10)).count == 3_054_254
        assert calls

    def test_small_draws_make_no_numpy_call(self, monkeypatch):
        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"numpy.{name} called on a small draw")

        rng = random.Random(7)
        draws = [random_tabulated_instance(rng) for _ in range(300)]
        want = [brute_pairs(lam, gam, q.E, q.d, 21) if q.d <= 2 else None
                for lam, gam, q in draws]
        monkeypatch.setattr(complexity, "np", NoNumpy())
        for (lam, gam, q), w in zip(draws, want):
            got = info_complexity(lam, gam, q).count
            assert w is None or got == w

    def test_budget_caps_enumerated_entries(self):
        q = Query(3000.0, 10)
        full = info_complexity(*DOUBLE_EXP, q)
        again = info_complexity(*DOUBLE_EXP, q, node_budget=full.nodes_visited)
        assert again == full
        with pytest.raises(BudgetExceeded) as exc:
            info_complexity(*DOUBLE_EXP, q, node_budget=full.nodes_visited - 1)
        needed = int(re.search(r"needs at least (\d+) enumerated entries", str(exc.value))[1])
        assert full.nodes_visited - 1 < needed <= full.nodes_visited

    def test_budget_fails_before_large_work(self):
        with pytest.raises(BudgetExceeded, match="needs at least"):
            info_complexity(*DOUBLE_EXP, Query(1e6, 10), node_budget=1000)


class TestThresholds:
    """_thresholds(w, tau): the smallest double p >= 0 with p + w >= tau."""

    @staticmethod
    def check(w, tau):
        got = complexity._thresholds(np.array(w), np.array(tau))
        for p, wi, ti in zip(got.tolist(), w, tau):
            assert p >= 0.0 and p + wi >= ti
            assert p == 0.0 or not (math.nextafter(p, 0.0) + wi >= ti)

    def test_random_and_knife_edge(self):
        rng = random.Random(3)
        w, tau = [], []
        for _ in range(3000):
            t = rng.choice([1.0, 2.0, 1e-300, 1e300, rng.uniform(0.0, 100.0)])
            x = rng.choice([0.0, rng.uniform(0.0, t), t * (1 - 2**-52), math.nextafter(t, 0.0),
                            t / 2, t - 2.0 ** rng.randint(-60, 0)])
            if 0.0 <= x < t:
                w.append(x)
                tau.append(t)
        self.check(w, tau)

    def test_infinite_threshold(self):
        self.check([0.0, 1.0, 1e308], [math.inf, math.inf, math.inf])


class TestSpectrum:
    def test_dyadic_top_six(self):
        costs = [float(c) for c in top_eigenvalues(DYADIC, ONES, 2, 6)]
        assert costs == [0.0, LN2, LN2, 2 * LN2, 2 * LN2, 2 * LN2]

    def test_top_one_is_unit(self):
        for d in (1, 3, 7):
            assert float(top_eigenvalues(DYADIC, ONES, d, 1)[0]) == 0.0

    def test_tie_class_completes(self):
        # asking inside the tie class at cost 2*ln2 returns the whole class
        costs = [float(c) for c in top_eigenvalues(DYADIC, ONES, 2, 4)]
        assert len(costs) == 6
        assert costs[3:] == [2 * LN2] * 3

    def test_count_matches_top_k(self):
        q = Query(0.5 * math.log(5.0), 2)
        count = info_complexity(DYADIC, ONES, q).count
        costs = top_eigenvalues(DYADIC, ONES, 2, count + 1)
        below = sum(1 for c in costs if float(c) < 2.0 * q.E)
        assert below == count == 6

    def test_zero_eigenvalues_reported_as_infinite_cost(self):
        lam = EigenSeq(Tabulated((0.0, LN2)))
        gam = WeightSeq(Tabulated((0.0,)))
        costs = top_eigenvalues(lam, gam, 1, 4)
        assert [math.isinf(c) for c in costs] == [False, False, True, True]

    def test_nth_minimal_error_examples(self):
        assert float(nth_minimal_error(DYADIC, ONES, 2, 0)) == 0.0
        assert float(nth_minimal_error(DYADIC, ONES, 2, 1)) == 0.5 * LN2
        assert float(nth_minimal_error(DYADIC, ONES, 2, 3)) == LN2

    def test_frontier_cap(self):
        # all 50**6 tuples cost 0, so the tie class of the top eigenvalue runs away
        with pytest.raises(BudgetExceeded):
            top_eigenvalues(EigenSeq(Tabulated((0.0,) * 50)), ONES, 6, 1)

    @pytest.mark.parametrize("n, d, message", [
        (50, 6, "top-1 search needs 125000 candidates on coordinate 3, over the cap of 4096"),
        (10000, 1, "top-1 search needs more than 4096 candidates on coordinate 1, "
                   "over the cap of 4096"),
    ])
    def test_budget_names_count_coordinate_and_cap(self, n, d, message):
        with pytest.raises(BudgetExceeded, match=re.escape(message)):
            top_eigenvalues(EigenSeq(Tabulated((0.0,) * n)), ONES, d, 1)


class TestLargeScaleThresholds:
    def test_huge_threshold_galloping(self):
        lam = EigenSeq(ExpPower(1.0, 1.0))  # L(j) = j - 1
        assert j_of_eps(lam, 1e6) == 2 * 10**6
        got = j_of_eps(lam, 1e300)
        assert lam.L(got) < 2e300
        assert not (lam.L(got + 1) < 2e300)

    def test_double_exp_weights_at_extreme_scale(self):
        gam = WeightSeq(DoubleExpPower(1.0, 1.0))
        deps = d_of_eps(gam, 1e300)
        assert deps == 691


class TestThresholdIndexErrors:
    """j_of_eps and d_of_eps name their own sequence when they cannot resolve."""

    def test_noncompact_family(self):
        # No eigenvalue family is non-compact, so a stand-in carries ConstantOne.
        flat = SimpleNamespace(family=ConstantOne())
        with pytest.raises(NonCompact, match="^eigenvalues do not decay"):
            j_of_eps(flat, 1.0)
        with pytest.raises(NonCompact, match="^weights do not decay"):
            d_of_eps(ONES, 1.0)
        assert j_of_eps(flat, 1.0, cap=7) == 7
        assert d_of_eps(ONES, 1.0, cap=7) == 7

    def test_index_beyond_the_search_cap(self):
        # 2E / a is past log(float max): no closed-form hint, and the
        # galloping search passes its cap.
        fam = PowerLaw(2.0)
        with pytest.raises(NonCompact, match="could not be resolved") as j_err:
            j_of_eps(EigenSeq(fam), 1000.0)
        with pytest.raises(NonCompact, match="^weight threshold could not be resolved") as d_err:
            d_of_eps(WeightSeq(fam), 1000.0)
        assert "weight" not in str(j_err.value)
        assert j_of_eps(EigenSeq(fam), 1000.0, cap=5) == 5
        assert d_of_eps(WeightSeq(fam), 1000.0, cap=5) == 5
