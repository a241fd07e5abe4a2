import math
import random
import sys

import pytest
from hypothesis import given, strategies as st

from tensortract import (
    BoxTooSmall,
    ConstantOne,
    EigenSeq,
    ExpPower,
    GuardExceeded,
    LogPower,
    PowerLaw,
    Query,
    Tabulated,
    WeightSeq,
    brute_force_count,
    check_count_sandwich,
    check_summability_equivalence,
    info_complexity,
    oracle_equivalence_suite,
    power_sum_split,
    power_sum_suite,
)
from tensortract.goldens import GOLDEN_PAIRS
from tensortract.seqcore import RatioClass
from tensortract.verify import power_sum_bounds_ok

LN2 = math.log(2.0)
DYADIC = EigenSeq(ExpPower(LN2, 1.0))
ONES = WeightSeq(ConstantOne())


class TestBruteForce:
    def test_dyadic_unweighted(self):
        assert brute_force_count(DYADIC, ONES, Query(0.5 * math.log(5.0), 2), 10) == 6

    def test_trivial(self):
        gam = WeightSeq(Tabulated((2.0, 2.0)))
        assert brute_force_count(DYADIC, gam, Query(1.0, 2), 6) == 1

    def test_weighted_dyadic(self):
        gam = WeightSeq(Tabulated((LN2, 2 * LN2)))
        assert brute_force_count(DYADIC, gam, Query(0.5 * math.log(16.0), 2), 8) == 4

    def test_box_boundary_detected(self):
        with pytest.raises(BoxTooSmall):
            brute_force_count(DYADIC, ONES, Query(3.0, 2), 4)  # level 4 still qualifies

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            brute_force_count(DYADIC, ONES, Query(0.5, 4), 200)

    def test_dimension_one(self):
        assert brute_force_count(DYADIC, ONES, Query(1.0, 1), 6) == \
            info_complexity(DYADIC, ONES, Query(1.0, 1)).count


class TestOracleEquivalence:
    def test_randomized_instances(self):
        report = oracle_equivalence_suite(instances=80, seed=123)
        assert report.passed
        failing = [c for c in report.checks if not c.passed]
        assert failing == []


class TestCountSandwich:
    def test_golden_pairs(self):
        for pair in GOLDEN_PAIRS:
            for E in pair.audit_E:
                for d in pair.audit_d:
                    report = check_count_sandwich(pair.lam, pair.gam, E, d)
                    assert report.passed, (pair.name, E, d, report.checks)

    def test_single_survivor_is_vacuous(self):
        lam = EigenSeq(Tabulated((0.0, 50.0)))
        gam = WeightSeq(ExpPower(1.0, 1.0))
        report = check_count_sandwich(lam, gam, 2.0, 3)
        assert report.passed

    def test_double_exp_mid_term(self):
        lam = EigenSeq(Tabulated(tuple(math.exp(j) for j in range(1, 12))))
        gam = WeightSeq(Tabulated(tuple(math.exp(k) for k in range(1, 12))))
        report = check_count_sandwich(lam, gam, 100.0, 10)
        assert report.passed
        # the mid term should be j_eps**min(d, d_eps) = 5**5 here
        assert any(c.rhs == str(5**5) for c in report.checks)

    def test_no_active_weight_is_vacuous(self):
        # gamma_1 is below eps**2 already: d_eps = 0 and the count is 1.
        report = check_count_sandwich(DYADIC, WeightSeq(Tabulated((5.0,))), 1.0, 3)
        assert report.passed and report.instance.endswith("d_eps=0")
        assert [(c.lhs, c.rhs, c.note) for c in report.checks] == [
            ("1", "1", ""), ("1", "n/a", "d_eps = 0; upper bound vacuous")]

    def test_amplified_budget_past_the_float_range_is_vacuous(self):
        # 2E is finite but 2 * d_eps * E = 4E overflows to inf.
        E = sys.float_info.max / 3
        lam = EigenSeq(Tabulated((0.0, 1.0, math.inf)))
        report = check_count_sandwich(lam, WeightSeq(Tabulated((0.0, 0.5, math.inf))), E, 2)
        assert report.passed and report.instance.endswith("j_eps=2 d_eps=2")
        upper = report.checks[1]
        assert (upper.lhs, upper.rhs) == ("4", "inf") and "saturates" in upper.note


class TestPowerSumSplit:
    def test_two_equal_terms_square(self):
        assert power_sum_split(2.0, (1.0, 1.0)) == pytest.approx(2.0, rel=1e-15)

    def test_identity_case(self):
        for a in ((3.0,), (0.5, 2.5, 1.0)):
            assert power_sum_split(1.0, a) == pytest.approx(1.0, rel=1e-12)

    def test_sqrt_case(self):
        got = power_sum_split(0.5, (1.0, 1.0))
        assert got == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-15)
        assert got == pytest.approx(2 ** (0.5 - 1.0), rel=1e-15)  # lower bound tight

    def test_zero_convention(self):
        assert power_sum_split(0.0, (0.0, 0.0, 0.0)) == pytest.approx(1.0 / 3.0)
        assert power_sum_split(2.0, (0.0, 0.0)) == 1.0

    @pytest.mark.parametrize("s, a, message", [
        (1.0, (), "need at least one summand"),
        (-1.0, (1.0,), "s must be a nonnegative finite real"),
        (math.inf, (1.0,), "s must be a nonnegative finite real"),
        (1.0, (1.0, -1.0), "summands must be nonnegative finite reals"),
        (1.0, (math.nan,), "summands must be nonnegative finite reals"),
    ], ids=["empty", "s-negative", "s-inf", "summand-negative", "summand-nan"])
    def test_rejected_inputs(self, s, a, message):
        with pytest.raises(ValueError, match=message):
            power_sum_split(s, a)

    def test_seeded_draws(self):
        report = power_sum_suite(draws=1000, seed=4711)
        assert report.passed

    @given(st.floats(min_value=0.01, max_value=4.0),
           st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=8))
    def test_bounds_property(self, s, a):
        alpha = power_sum_split(s, a)
        assert power_sum_bounds_ok(s, len(a), alpha)


class TestSummabilityEquivalence:
    @pytest.mark.parametrize("fam", [PowerLaw(1.0), PowerLaw(2.0), LogPower(2.0),
                                     ExpPower(1.0, 1.0)], ids=repr)
    def test_reference_families(self, fam):
        report = check_summability_equivalence(EigenSeq(fam), (2.0, 1.0, 0.5, 0.1))
        assert report.passed, report.checks

    def test_saturated_tail_exponent(self):
        # LogPower(400) raised OverflowError in its tail exponent from J = 374 on.
        report = check_summability_equivalence(EigenSeq(LogPower(400.0)), (2.0, 1.0, 0.5, 0.1))
        assert report.passed, report.checks

    def test_one_table_per_family(self, monkeypatch):
        calls = []
        scalar = LogPower.log_inv

        def counted(self, j):
            calls.append(j)
            return scalar(self, j)

        monkeypatch.setattr(LogPower, "log_inv", counted)
        J = 1 << 17
        report = check_summability_equivalence(EigenSeq(LogPower(2.0)), (2.0, 1.0, 0.5, 0.1))
        assert report.passed
        assert J <= len(calls) < J + 100  # not J per exponent

    def test_divergent_claim_checked_against_the_sum(self):
        # A class that wrongly claims divergence for every exponent: the
        # c = 2 sum has a tail bound, so the audit must fail there.
        class ClaimsDivergent(PowerLaw):
            def ratio_class(self, s):
                return RatioClass("bounded", 0.0)

        report = check_summability_equivalence(EigenSeq(ClaimsDivergent(1.0)), (2.0, 0.5))
        rows = {c.name: c for c in report.checks}
        assert rows["summability[c=2]"].lhs == "convergent" and not rows["summability[c=2]"].passed
        assert rows["summability[c=0.5]"].passed
        assert not report.passed

    def test_split_point_matches_exponent(self):
        # a = 2: convergent for c = 1 (> 1/2), divergent for c = 0.4 (< 1/2)
        report = check_summability_equivalence(EigenSeq(PowerLaw(2.0)), (1.0, 0.4))
        rows = {c.name: c for c in report.checks}
        assert rows["summability[c=1]"].lhs == "convergent"
        assert rows["summability[c=0.4]"].lhs == "divergent"
        assert report.passed


def test_random_monotone_instances_cross_check():
    rng = random.Random(2718)
    for _ in range(40):
        lvals = (0.0,) + tuple(sorted(rng.uniform(0.0, 6.0) for _ in range(9)))
        gvals = tuple(sorted(rng.uniform(0.0, 4.0) for _ in range(7)))
        lam, gam = EigenSeq(Tabulated(lvals)), WeightSeq(Tabulated(gvals))
        q = Query(rng.uniform(0.4, 3.5), rng.randint(1, 4))
        assert info_complexity(lam, gam, q).count == brute_force_count(lam, gam, q, 11)
