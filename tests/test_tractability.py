import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from tensortract import (
    ConstantOne,
    DivergentTail,
    DoubleExpPower,
    EigenSeq,
    EventuallyZero,
    ExpPower,
    IterLog,
    LogPower,
    Notion,
    NotionKind,
    PowerLaw,
    ProbePolicy,
    Tabulated,
    TripleExp,
    UnsupportedNotion,
    VerdictStatus,
    WeightSeq,
    b_qpt_estimate,
    b_spt_estimate,
    classify,
    divergence_check,
    eta_exponent,
    family_from_descriptor,
    summability,
    wt_s_below_one_check,
)
from tensortract import seqcore
from tensortract.cli import _dump_json
from tensortract.goldens import GOLDEN_PAIRS, iterated_log_pair
from tensortract.tractability import _power_sums

LN2 = math.log(2.0)
GRID = (1e3, 1e6, 1e12, 1e100, 1e300)

INTRO_LAM = EigenSeq(DoubleExpPower(1.0, 1.0))
INTRO_GAM = WeightSeq(TripleExp(1.0))


class TestLimitEstimators:
    def test_intro_family_ratios_decrease(self):
        est = b_spt_estimate(INTRO_LAM, INTRO_GAM, GRID)
        ratios = [r for _, r in est.probes]
        assert est.trend == "decreasing"
        assert ratios == sorted(ratios, reverse=True)
        assert ratios[-1] == pytest.approx(0.0568, abs=5e-4)

    def test_growing_family_ratios_increase(self):
        lam = EigenSeq(ExpPower(1.0, 1.0))        # lambda_j = exp(-(j-1))
        gam = WeightSeq(DoubleExpPower(1.0, 1.0))  # doubly-exponential weights
        est = b_spt_estimate(lam, gam, GRID)
        ratios = [r for _, r in est.probes]
        assert est.trend == "increasing"
        assert ratios[0] == pytest.approx(7.70, abs=0.01)
        assert ratios[1] == pytest.approx(14.70, abs=0.01)

    def test_flat_zero_when_only_first_eigenvalue_survives(self):
        lam = EigenSeq(Tabulated((0.0, 1e9)))
        gam = WeightSeq(ExpPower(1.0, 1.0))
        est = b_spt_estimate(lam, gam, (10.0, 100.0, 1000.0))
        assert all(r == 0.0 for _, r in est.probes)
        assert est.tail_sup == 0.0

    def test_degenerate_probes_are_recorded(self):
        gam = WeightSeq(Tabulated((math.log(4.0), 5.0)))  # gamma_1 = 1/4
        lam = EigenSeq(ExpPower(1.0, 1.0))
        est = b_spt_estimate(lam, gam, (1.01, 10.0))
        hmm = [E for E, _ in est.skipped]
        assert hmm == []  # gamma_1 > eps**2 already at E = 1.01

        gam0 = WeightSeq(Tabulated((3.0, 5.0)))  # gamma_1 = e**-3
        est0 = b_spt_estimate(lam, gam0, (1.2, 10.0))
        assert [E for E, _ in est0.skipped] == [1.2]

    def test_qpt_estimate_matches_sharp_family(self):
        est = b_qpt_estimate(EigenSeq(DoubleExpPower(1.0, 1.0)),
                             WeightSeq(DoubleExpPower(1.0, 1.0)), GRID)
        by_E = dict(est.probes)
        assert by_E[1e100] == pytest.approx(0.9989, abs=1e-3)

    def test_qpt_skips_small_effective_dimension(self):
        est = b_qpt_estimate(INTRO_LAM, INTRO_GAM, (10.0, 100.0))
        assert (10.0, "d(eps) = 1 < 2") in est.skipped

    def test_estimator_matches_closed_form(self):
        # independent closed-form thresholds for the normalized double-exp pair
        lam = EigenSeq(DoubleExpPower(1.0, 1.0))
        gam = WeightSeq(DoubleExpPower(1.0, 2.0))
        for E in (10.0, 100.0, 1000.0):
            j_cf = max(j for j in range(1, 40) if math.exp(j) - math.e < 2.0 * E)
            d_cf = max(k for k in range(1, 10) if math.exp(k**2) - math.e < 2.0 * E)
            want = d_cf * math.log(j_cf) / math.log(E)
            (probe,) = b_spt_estimate(lam, gam, (E,)).probes
            assert probe[1] == pytest.approx(want, abs=1e-12)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            b_spt_estimate(INTRO_LAM, INTRO_GAM, (100.0, 10.0))
        with pytest.raises(ValueError):
            b_spt_estimate(INTRO_LAM, INTRO_GAM, (0.5, 10.0))

    def test_unresolvable_probe_is_skipped_alone(self):
        # d(eps) is 7 at E = 2 and 22,026 at E = 10, and past the float range at E = 1e4.
        v = classify(EigenSeq(ExpPower(1.0, 1.0)), WeightSeq(PowerLaw(2.0)), Notion.spt(),
                     ProbePolicy(E_grid=(2.0, 10.0, 1e4)))
        est = {d.name: d.value for d in v.evidence}["b_spt_probes"]
        assert [E for E, _ in est.probes] == [2.0, 10.0]
        assert est.probes[0][1] == pytest.approx(7 * math.log(4.0) / LN2, rel=1e-15)
        assert est.skipped == ((1e4, "weight threshold could not be resolved: "
                                     "the index exceeds the float range"),)

    @pytest.mark.parametrize("E_grid, j_grid", [
        ((0.5, 10.0), (4,)), ((), (4,)), ((100.0, 10.0), (4,)), ((10.0,), (1, 4))])
    def test_policy_rejects_unusable_grids(self, E_grid, j_grid):
        with pytest.raises(ValueError):
            ProbePolicy(E_grid, j_grid)

    @pytest.mark.parametrize("j_grid", [(4, math.inf), (4, 10**400), (2.5,), (4, math.nan), (True, 4)],
                             ids=["inf", "past-float-range", "fraction", "nan", "bool"])
    def test_policy_rejects_probe_indices_the_probes_cannot_read(self, j_grid):
        with pytest.raises(ValueError, match="probe j values must"):
            ProbePolicy((10.0,), j_grid)
        with pytest.raises(ValueError, match="probe j values must"):
            divergence_check(EigenSeq(PowerLaw(2.0)), 1.0, j_grid)

    def test_probe_indices_up_to_the_float_range(self):
        top = int(sys.float_info.max)
        res = divergence_check(EigenSeq(PowerLaw(2.0)), 1.0, (4.0, np.int64(16), top))
        assert [j for j, _ in res.evidence.probes] == [4.0, 16.0, sys.float_info.max]
        assert all(r == 2.0 for _, r in res.evidence.probes)
        v = classify(EigenSeq(PowerLaw(2.0)), WeightSeq(PowerLaw(2.0)), Notion.wt(),
                     ProbePolicy((10.0,), (4, top)))
        ratio = {d.name: d.value for d in v.evidence}["lambda_log_ratio[s=1]"]
        assert ratio.evidence.probes == ((4.0, 2.0), (sys.float_info.max, 2.0))


class TestDivergence:
    def test_power_law_bounded_limit(self):
        res = divergence_check(EigenSeq(PowerLaw(3.0)), 1.0)
        assert res.kind == "bounded" and res.limit == 3.0 and res.mode == "analytic"
        assert all(r == 3.0 for _, r in res.evidence.probes)
        assert res.evidence.trend == "flat"

    def test_log_power_diverges(self):
        assert divergence_check(EigenSeq(LogPower(2.0)), 1.0).kind == "diverges"

    def test_iterated_log_diverges(self):
        assert divergence_check(EigenSeq(IterLog()), 1.0).kind == "diverges"

    def test_exponent_scaling(self):
        assert divergence_check(EigenSeq(PowerLaw(2.0)), 2.0).kind == "diverges"
        res = divergence_check(EigenSeq(LogPower(2.0)), 0.25)
        assert res.kind == "bounded" and res.limit == 0.0

    @pytest.mark.parametrize("fam, s, limit", [
        (PowerLaw(3.0), 0.5, 0.0), (LogPower(2.0), 0.5, 1.0), (IterLog(), 0.5, 0.0)],
        ids=["power_law-s<1", "log_power-s*beta=1", "iter_log-s<1"])
    def test_bounded_ratio_classes(self, fam, s, limit):
        res = divergence_check(EigenSeq(fam), s)
        assert (res.kind, res.limit) == ("bounded", limit)
        ratios = [r for _, r in res.evidence.probes]
        assert ratios == [math.pow(fam.log_inv(int(j)), s) / math.log(j)
                          for j, _ in res.evidence.probes]

    @pytest.mark.parametrize("s", [0.0, -1.0, math.inf])
    def test_exponent_must_be_positive_and_finite(self, s):
        with pytest.raises(ValueError, match="s must be positive and finite"):
            divergence_check(EigenSeq(PowerLaw(2.0)), s)

    def test_overflowing_probe_power_saturates(self):
        # log(1/lambda_j) = 1e300 * log j: its square passes the float range.
        res = divergence_check(EigenSeq(PowerLaw(1e300)), 2.0)
        assert res.kind == "diverges"
        assert [r for _, r in res.evidence.probes] == [math.inf] * 6
        assert res.evidence.tail_sup == math.inf


def _assert_power_sum_reads(calls, J, n):
    """The log_inv reads of one _power_sums call: at most 2 log2(J) + 2 by
    the stop search, then indices 1..n once and in order (the table), then
    only indices from J on (the tail bounds).  Each reads index 1 once."""
    k = len(calls) - 1 - calls[::-1].index(1)
    assert k <= 2 * math.log2(J) + 2
    assert calls[k:k + n] == list(range(1, n + 1))
    assert all(j >= J for j in calls[k + n:])


class TestSummability:
    def test_basel_value_with_integral_tail(self):
        res = summability(EigenSeq(PowerLaw(2.0)), 1.0, 10**6)
        assert res.tail_bound is not None and res.tail_bound <= 1.0000001e-6
        assert abs(math.pi**2 / 6.0 - res.value) <= res.tail_bound * 1.0000001

    def test_large_exponent_tends_to_one(self):
        res = summability(EigenSeq(PowerLaw(2.0)), 500.0, 100)
        assert 1.0 <= res.value < 1.0 + 1e-12

    def test_harmonic_diverges(self):
        with pytest.raises(DivergentTail):
            summability(EigenSeq(PowerLaw(1.0)), 1.0, 100)
        with pytest.raises(DivergentTail):
            summability(WeightSeq(ConstantOne()), 3.0, 100)

    def test_geometric_tail_bound_is_valid(self):
        res = summability(EigenSeq(ExpPower(LN2, 1.0)), 1.0, 30)
        # true from-two tail: sum_{j>J} 2**-(j-1) = 2**-(J-1); full sum = 2
        assert res.tail_bound is not None
        # the partial sum carries its own float rounding, hence the slack
        assert 2.0 - res.value <= res.tail_bound + 1e-12

    def test_slow_log_power_tail(self):
        res = summability(EigenSeq(LogPower(2.0)), 0.1, 1 << 17)
        assert res.tail_bound is not None and res.tail_bound > 0.0

    def test_tabulated_zero_tail_is_exact(self):
        res = summability(EigenSeq(Tabulated((0.0, LN2, math.inf))), 1.0, 10)
        assert res.value == pytest.approx(1.5)
        assert res.tail_bound == 0.0

    @pytest.mark.parametrize("seq", [
        EigenSeq(PowerLaw(20.0)), EigenSeq(ExpPower(0.7, 2.5)),
        EigenSeq(DoubleExpPower(0.2, 0.5)), EigenSeq(TripleExp(0.5)),
        EigenSeq(LogPower(1.5)), EigenSeq(IterLog()),
        EigenSeq(Tabulated((0.0, LN2, 1.5, math.inf))),
        WeightSeq(EventuallyZero(4, (0.0, 0.25, 3.0))),
    ], ids=lambda seq: seq.family.name)
    @pytest.mark.parametrize("c", [0.1, 1.0])
    def test_sum_reads_the_scalar_formula(self, seq, c):
        J = 1000
        ls = np.array([seq.family.log_inv(j) for j in range(1, J + 1)])
        assert summability(seq, c, J).value == float(np.exp(-c * ls).sum())

    @pytest.mark.parametrize("c", [-1.0, 0.0, math.nan])
    def test_exponent_must_be_positive_and_finite(self, c):
        with pytest.raises(ValueError, match="c must be positive and finite"):
            summability(EigenSeq(PowerLaw(2.0)), c, 100)

    @pytest.mark.parametrize("J", [True, 2.5, 3.0])
    def test_non_integer_truncation_rejected(self, J):
        with pytest.raises(ValueError, match="J must be an integer"):
            summability(EigenSeq(PowerLaw(2.0)), 1.0, J)

    @pytest.mark.parametrize("fam,c", [
        (PowerLaw(2.0), 1.0), (PowerLaw(3.0), 1.0), (PowerLaw(6.0), 0.5), (ExpPower(0.3, 0.5), 1.0),
        (ExpPower(1.0, 1.0), 0.1), (LogPower(2.0), 1.0), (LogPower(3.0), 2.0),
        (Tabulated((0.3, 0.5, 1.0, 3.0)), 1.0)])
    def test_tail_bound_covers_the_longer_sum(self, fam, c):
        """Each truncation plus its tail bound lies above the sum to 2**16."""
        seq = EigenSeq(fam)
        full = summability(seq, c, 2**16).value
        prev = 0.0
        for J in (64, 512, 4096):
            res = summability(seq, c, J)
            slack = 1e-12 * full  # the partial sums carry their own rounding
            assert prev <= res.value <= full + slack
            if res.tail_bound is not None:
                assert full <= res.value + res.tail_bound + slack
            prev = res.value

    def test_integral_tail_at_the_truncation(self):
        # PowerLaw(2) at c = 1: the tail past J is at most the integral 1/J.
        res = summability(EigenSeq(PowerLaw(2.0)), 1.0, 100)
        assert res.tail_bound == 0.01 and res.terms == 100
        assert res.value == pytest.approx(sum(j**-2.0 for j in range(1, 101)), rel=1e-14)

    def test_divergence_raises_before_any_table(self, monkeypatch):
        calls = []
        scalar = PowerLaw.log_inv
        monkeypatch.setattr(PowerLaw, "log_inv", lambda self, j: calls.append(j) or scalar(self, j))
        with pytest.raises(DivergentTail):
            summability(EigenSeq(PowerLaw(1.0)), 1.0, 10**6)
        assert len(calls) <= 2  # the summable() check reads a term, no table is built

    @pytest.mark.parametrize("fam", [PowerLaw(2.0), ExpPower(0.3, 0.5), LogPower(2.0)],
                             ids=lambda fam: fam.name)
    def test_power_sums_share_one_table(self, fam, monkeypatch):
        """_power_sums reads log_inv once per index for every exponent, and
        matches summability wherever the series converges."""
        seq, J, cs = EigenSeq(fam), 500, (0.25, 1.0, 2.0)
        calls = []
        scalar = type(fam).log_inv
        monkeypatch.setattr(type(fam), "log_inv",
                            lambda self, j: calls.append(j) or scalar(self, j))
        sums = _power_sums(seq, cs, J)
        # The stop search, one table of J terms, then the tail bounds from J on.
        _assert_power_sum_reads(calls, J, J)
        monkeypatch.undo()
        for c, res in zip(cs, sums):
            if fam.summable(c):
                assert res == summability(seq, c, J)
            else:
                with pytest.raises(DivergentTail):
                    summability(seq, c, J)
                ls = np.array([fam.log_inv(j) for j in range(1, J + 1)])
                assert res.value == float(np.exp(-c * ls).sum())


    @pytest.mark.parametrize("fam,read", [
        (ExpPower(1.0, 1.0), 8000),  # log_inv(j) = j - 1
        (ExpPower(0.3, 0.5), 2**17),  # no term underflows
        (DoubleExpPower(1.0, 1.0), 8),
        (TripleExp(1.0), 2),
        # Sums below 1e-299 (0.0 at c = 2), subnormal and underflowing terms
        # inside the table, then inf.
        (Tabulated((690.0, 700.0, 740.0, 7400.0, 7999.0, math.inf)), 5),
    ], ids=["exp_power", "exp_power_slow", "double_exp", "triple_exp", "table_to_inf"])
    def test_power_sums_stop_where_every_term_underflows(self, fam, read, monkeypatch):
        """Past the last index whose log_inv is below 800 / min(cs), every
        term is 0.0: the table stops at that index (``read``), and each
        exponent's sum keeps the bits of numpy's sum over all J terms."""
        J, cs = 2**17, (2.0, 1.0, 0.5, 0.1)
        seq, calls, scalar = EigenSeq(fam), [], type(fam).log_inv
        monkeypatch.setattr(type(fam), "log_inv",
                            lambda self, j: calls.append(j) or scalar(self, j))
        sums = _power_sums(seq, cs, J)
        _assert_power_sum_reads(calls, J, read)
        monkeypatch.undo()
        ls = np.array([fam.log_inv(j) for j in range(1, J + 1)])
        for c, res in zip(cs, sums):
            with np.errstate(over="ignore"):
                assert res.value == float(np.exp(-c * ls).sum())

    def test_power_sums_read_every_index_without_underflow(self, monkeypatch):
        seq, J, calls = EigenSeq(PowerLaw(2.0)), 5000, []
        monkeypatch.setattr(PowerLaw, "log_inv",
                            lambda self, j, scalar=PowerLaw.log_inv: calls.append(j) or scalar(self, j))
        _power_sums(seq, (2.0, 1.0, 0.5, 0.1), J)
        _assert_power_sum_reads(calls, J, J)

    @pytest.mark.parametrize("fam,J,read", [
        (PowerLaw(2.0), 5000, 5000), (LogPower(2.0), 2**17, 2**17), (IterLog(), 3000, 3000),
        (ExpPower(1.0, 1.0), 2**17, 8000)], ids=["power_law", "log_power", "iter_log", "exp_power"])
    def test_power_sums_read_blocks_of_the_formula(self, fam, J, read, monkeypatch):
        """On a family whose log_inv is not patched, the table comes from
        _formula on blocks of indices: each index from _formula_start up to
        the stop is read once and in order, the guarded ones by log_inv
        alone.  Scalar _formula calls come from the stop search before the
        blocks and from the tail bounds, past J, after them."""
        seq, calls = EigenSeq(fam), []
        formula = type(fam)._formula
        monkeypatch.setattr(type(fam), "_formula",
                            lambda self, j, m: calls.append((j, m)) or formula(self, j, m))
        sums = _power_sums(seq, (2.0, 1.0, 0.5, 0.1), J)
        is_block = [m is not math for j, m in calls]
        first, last = is_block.index(True), len(calls) - is_block[::-1].index(True)
        assert all(is_block[first:last])
        assert np.concatenate([j for j, m in calls[first:last]]).tolist() == list(
            range(fam._formula_start, read + 1))
        assert first <= 2 * math.log2(J) + 2
        assert all(j > J for j, m in calls[last:])
        monkeypatch.undo()
        ls = np.array([fam.log_inv(j) for j in range(1, J + 1)])
        for c, res in zip((2.0, 1.0, 0.5, 0.1), sums):
            assert res.value == float(np.exp(-c * ls).sum())

    @pytest.mark.parametrize("fam", [PowerLaw(1.0), LogPower(2.0), IterLog()],
                             ids=lambda fam: fam.name)
    def test_power_sums_on_cold_and_warm_index_logs(self, fam, monkeypatch):
        """The sums keep their bits whether the blocks' shared log(j) table
        is built by this call (cold) or read as an earlier call left it."""
        J, cs = 5000, (2.0, 1.0, 0.5, 0.1)
        ls = np.array([fam.log_inv(j) for j in range(1, J + 1)])
        want = [float.hex(float(np.exp(-c * ls).sum())) for c in cs]
        monkeypatch.setattr(seqcore, "_index_logs", np.empty(0))
        for size in (0, J):
            assert len(seqcore._index_logs) == size
            assert [float.hex(res.value) for res in _power_sums(EigenSeq(fam), cs, J)] == want

    def test_log_power_tail_exponent_saturates(self):
        # (log J)**(beta - 1) passes the float range from J = 374 on.
        res = summability(EigenSeq(LogPower(400.0)), 2.0, 5000)
        assert (res.value, res.tail_bound) == (2.0, 0.0)
        assert LogPower(400.0).tail_bound(0.1, 2**17) == 0.0


class TestBoundaryRatio:
    def test_power_law_diagonal_vanishes(self):
        lam = EigenSeq(PowerLaw(2.0))
        est = wt_s_below_one_check(lam, WeightSeq(ConstantOne()), 0.5,
                                   [(d, 1, d) for d in (4, 16, 64, 256, 1024)])
        ratios = [r for _, r in est.probes]
        assert est.trend == "decreasing"
        assert ratios[-1] == pytest.approx(math.sqrt(2 * math.log(1024)) /
                                           (math.sqrt(1024) * math.log(1024)), rel=1e-12)

    def test_saturated_numerator_gives_infinite_ratios(self):
        lam = EigenSeq(TripleExp(1.0))
        est = wt_s_below_one_check(lam, WeightSeq(ConstantOne()), 0.5,
                                   [(4, 1, 8), (16, 1, 8)])
        assert all(math.isinf(r) for _, r in est.probes)

    def test_fixed_dimension_log_power(self):
        lam = EigenSeq(LogPower(2.0))
        triples = [(1, 1, j) for j in (4, 64, 4096, 2**20)]
        est = wt_s_below_one_check(lam, WeightSeq(ConstantOne()), 0.9, triples)
        assert est.trend == "increasing"  # s*beta = 1.8 > 1

    def test_validation(self):
        with pytest.raises(ValueError):
            wt_s_below_one_check(EigenSeq(PowerLaw(2.0)), WeightSeq(ConstantOne()),
                                 1.5, [(2, 1, 2)])
        with pytest.raises(ValueError):
            wt_s_below_one_check(EigenSeq(PowerLaw(2.0)), WeightSeq(ConstantOne()),
                                 0.5, [(2, 3, 2)])
        with pytest.raises(ValueError, match="triples require j >= 2"):
            wt_s_below_one_check(EigenSeq(PowerLaw(2.0)), WeightSeq(ConstantOne()),
                                 0.5, [(2, 1, 1)])


class TestEta:
    def test_values(self):
        assert eta_exponent(0.5, 2.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert eta_exponent(0.5, 1.4) == pytest.approx(2.0 / 9.0, abs=1e-15)

    def test_equal_exponents_rejected(self):
        with pytest.raises(ValueError, match="eta requires t != s"):
            eta_exponent(2.0, 2.0)


class TestIntroCounts:
    def test_intro_family_count_grows_slower_than_sqrt_E(self):
        # The least-squares slope of log n(E, 8) against log(1 + E) on the
        # intro family (the counts are 5, 27, 81, 141 and 195).
        from tensortract import Query, info_complexity
        Es = (1e2, 1e3, 1e4, 1e5, 1e6)
        counts = [info_complexity(INTRO_LAM, INTRO_GAM, Query(E, 8)).count for E in Es]
        assert counts == sorted(counts) and counts[0] >= 1
        slope = np.polyfit(np.log1p(Es), np.log(counts), 1)[0]
        assert slope < 0.5


class TestClassifier:
    def test_strong_polynomial_holds_with_zero_exponent(self):
        v = classify(INTRO_LAM, WeightSeq(DoubleExpPower(1.0, 2.0)), Notion.spt())
        assert v.status is VerdictStatus.HOLDS
        assert v.exponent == 0.0

    def test_quasi_polynomial_with_unit_exponent(self):
        gam = WeightSeq(DoubleExpPower(1.0, 1.0))
        v = classify(INTRO_LAM, gam, Notion.qpt())
        assert v.status is VerdictStatus.HOLDS and v.exponent == 1.0
        v2 = classify(INTRO_LAM, gam, Notion.spt())
        assert v2.status is VerdictStatus.FAILS

    def test_plain_polynomial_delegates(self):
        v = classify(INTRO_LAM, WeightSeq(DoubleExpPower(1.0, 2.0)), Notion.pt())
        assert v.status is VerdictStatus.HOLDS and v.exponent == 0.0
        assert any(d.name == "delegated" for d in v.evidence)

    def test_weak_tractability_iterated_log(self):
        pair = iterated_log_pair()
        v = classify(pair.lam, pair.gam, Notion.wt())
        assert v.status is VerdictStatus.HOLDS

    def test_weak_fails_without_weight_decay(self):
        v = classify(EigenSeq(LogPower(2.0)), WeightSeq(ConstantOne()), Notion.wt())
        assert v.status is VerdictStatus.FAILS

    def test_unit_multiplicity_needs_a_small_weight(self):
        lam = EigenSeq(IterLog((0.0, 0.0)))  # lambda_2 = 1
        v = classify(lam, WeightSeq(ConstantOne()), Notion.st_weak(2.0, 1.0))
        assert v.status is VerdictStatus.FAILS
        v2 = classify(lam, WeightSeq(ExpPower(1.0, 1.0)), Notion.st_weak(2.0, 1.0))
        assert v2.status is VerdictStatus.HOLDS

    def test_eta_regime(self):
        v = classify(EigenSeq(LogPower(2.0)), WeightSeq(ConstantOne()),
                     Notion.st_weak(0.5, 2.0))
        (eta,) = [d.value for d in v.evidence if d.name == "eta"]
        assert eta == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert v.status is VerdictStatus.FAILS  # eta*beta = 2/3 < 1
        v2 = classify(EigenSeq(LogPower(4.0)), WeightSeq(ConstantOne()),
                      Notion.st_weak(0.5, 2.0))
        assert v2.status is VerdictStatus.HOLDS  # eta*beta = 4/3 > 1

    def test_boundary_regime_fails_with_witness(self):
        v = classify(EigenSeq(PowerLaw(2.0)), WeightSeq(ConstantOne()),
                     Notion.st_weak(0.5, 1.0))
        assert v.status is VerdictStatus.FAILS
        assert any(d.name == "bounded_net_witness" for d in v.evidence)

    def test_trivial_all_zero_weights(self):
        gam = WeightSeq(EventuallyZero(1, ()))
        v = classify(INTRO_LAM, gam, Notion.spt())
        assert v.status is VerdictStatus.HOLDS and v.exponent == 0.0

    def test_implication_chain_on_goldens(self):
        order = (Notion.spt(), Notion.qpt(), Notion.wt())
        for pair in GOLDEN_PAIRS:
            statuses = [classify(pair.lam, pair.gam, n).status for n in order]
            for stronger, weaker in zip(statuses, statuses[1:]):
                if stronger is VerdictStatus.HOLDS:
                    assert weaker is VerdictStatus.HOLDS, pair.name

    def test_st_monotonicity(self):
        lam = EigenSeq(LogPower(2.0))
        gam = WeightSeq(ExpPower(1.0, 1.0))
        grid = [(1.0, 1.0), (1.0, 1.5), (1.5, 1.0), (1.5, 1.5), (2.0, 3.0)]
        holds = {(s, t): classify(lam, gam, Notion.st_weak(s, t)).status
                 is VerdictStatus.HOLDS for s, t in grid}
        for (s1, t1) in grid:
            for (s2, t2) in grid:
                if s2 >= s1 and t2 >= t1 and holds[(s1, t1)]:
                    assert holds[(s2, t2)]

    def test_unsupported_notions(self):
        with pytest.raises(UnsupportedNotion):
            Notion.st_weak(0.5, 0.99)
        with pytest.raises(UnsupportedNotion):
            Notion.st_weak(-1.0, 2.0)
        for s, t in ((0.5, 3.0), (2.0, 1.0), (1.0, None), (None, 1.0)):
            with pytest.raises(UnsupportedNotion, match="EXP-WT is EXP-"):
                Notion(NotionKind.EXP_WT, s, t)
        for kind in (NotionKind.EXP_SPT, NotionKind.EXP_PT, NotionKind.EXP_QPT):
            with pytest.raises(UnsupportedNotion, match="takes no \\(s, t\\) parameters"):
                Notion(kind, 1.0)
        for s, t in ((2.0, None), (None, 2.0), (None, None)):
            with pytest.raises(UnsupportedNotion, match="requires both s and t"):
                Notion(NotionKind.EXP_ST_WT, s, t)

    def test_wt_alias(self):
        assert Notion.st_weak(1.0, 1.0) == Notion.wt() == Notion(NotionKind.EXP_WT, 1.0, 1.0)

    def test_super_polynomial_effective_dimension_fails(self):
        v = classify(EigenSeq(ExpPower(1.0, 1.0)), WeightSeq(LogPower(2.0)), Notion.spt())
        assert v.status is VerdictStatus.FAILS
        assert v.exponent is None
        assert [d.name for d in v.evidence] == [
            "limit_lambda_zero", "limit_gamma_zero", "threshold_growth", "b_spt_probes",
            "b_spt_limit"]
        assert v.evidence[2].value == "super-polynomial effective dimension"
        assert v.evidence[-1].value == math.inf

    def test_bounded_effective_dimension_qpt_delegates(self):
        v = classify(EigenSeq(ExpPower(1.0, 1.0)), WeightSeq(Tabulated((0.2,))), Notion.qpt())
        assert v.status is VerdictStatus.HOLDS
        assert v.exponent == 1.0
        assert [d.name for d in v.evidence] == [
            "limit_lambda_zero", "limit_gamma_zero", "b_qpt_growth", "b_spt_probes",
            "b_qpt_probes", "b_qpt_limit"]
        assert v.evidence[2].note == "bounded effective dimension; delegated to the plain limit"

    @pytest.mark.parametrize("fam", [ExpPower(0.5, 1e-4), DoubleExpPower(0.5, 1e-4)], ids=repr)
    def test_threshold_growth_past_the_float_range_saturates(self, fam):
        # alpha**(-1/beta) = 2**10000 overflows a float: the coefficient
        # saturates to inf, as log_inv does, on either side of the pair.
        assert fam.threshold_growth().coef == math.inf
        for lam, gam in ((fam, PowerLaw(2.0)), (PowerLaw(2.0), fam)):
            v = classify(EigenSeq(lam), WeightSeq(gam), Notion.spt())
            assert v.status is VerdictStatus.FAILS and v.evidence[-1].value == math.inf

    def test_unit_s_small_t_needs_both_ratios_divergent(self):
        names = ["gamma_log_ratio[s=1]", "lambda_log_ratio[s=1]"]
        gam = WeightSeq(ExpPower(1.0, 1.0))
        v = classify(EigenSeq(LogPower(2.0)), gam, Notion.st_weak(1.0, 0.5))
        assert v.status is VerdictStatus.HOLDS
        assert v.exponent is None and [d.name for d in v.evidence] == names
        assert [d.value.kind for d in v.evidence] == ["diverges", "diverges"]
        v = classify(EigenSeq(PowerLaw(2.0)), gam, Notion.st_weak(1.0, 0.5))
        assert v.status is VerdictStatus.FAILS
        assert v.exponent is None and [d.name for d in v.evidence] == names
        assert [d.value.kind for d in v.evidence] == ["diverges", "bounded"]

    def test_numeric_promotion_flag(self):
        lam = EigenSeq(Tabulated(tuple(0.3 * j**1.2 for j in range(0, 40))))
        gam = WeightSeq(ExpPower(1.0, 1.0))
        # tabulated data is analytically divergent via the zero tail
        v = classify(lam, gam, Notion.wt())
        assert v.status is VerdictStatus.HOLDS


# The verdict pins: every call of classify over these axes, with its status,
# its exponent as float.hex and the SHA-256 of its evidence as the CLI prints
# it.  `python tests/test_tractability.py` rewrites the file.
VERDICT_BITS = Path(__file__).parent / "verdict_bits.json"
_VERDICT_NOTIONS = {n.label: n for n in (
    Notion.spt(), Notion.pt(), Notion.qpt(), Notion.wt(),
    *(Notion.st_weak(s, t) for s, t in (
        (1.0, 0.5), (1.0, 2.0), (2.0, 0.5), (2.0, 1.0), (0.5, 2.0), (0.5, 1.0), (3.0, 3.0))))}
_VERDICT_POLICIES = {"default": ProbePolicy(),
                     "small": ProbePolicy((2.0, 10.0, 1e4), (4, 64, 4096))}


def _verdict_pin(lam, gam, notion, policy) -> list:
    v = classify(lam, gam, notion, policy)
    exponent = None if v.exponent is None else float.hex(v.exponent)
    digest = hashlib.sha256(_dump_json(v.evidence).encode("utf-8")).hexdigest()
    return [v.status.value, exponent, digest]


def _write_verdict_bits() -> None:
    lams = [PowerLaw(2.0), PowerLaw(49.0), ExpPower(1.0, 1.0), ExpPower(0.5, 1e-4),
            DoubleExpPower(1.0, 1.0), TripleExp(1.0), LogPower(2.0), IterLog(),
            IterLog((0.0, 0.0)), Tabulated((0.0, 0.7, math.inf)),
            Tabulated(tuple(0.1 * j for j in range(40)))]
    gams = lams + [ConstantOne(), EventuallyZero(3, (0.0, 0.5)), Tabulated((math.inf,)),
                   Tabulated((0.3,))]
    lines = []
    for lam in lams:
        for gam in gams:
            pins = {}
            for label, notion in _VERDICT_NOTIONS.items():
                for grid, policy in _VERDICT_POLICIES.items():
                    pins[f"{label} {grid}"] = _verdict_pin(
                        EigenSeq(lam), WeightSeq(gam), notion, policy)
            lines.append(json.dumps({"lambda": lam.descriptor(), "gamma": gam.descriptor(),
                                     "verdicts": pins}).replace("Infinity", '"inf"'))
    VERDICT_BITS.write_text("[\n" + ",\n".join(lines) + "\n]\n")


_VERDICT_BITS = json.loads(VERDICT_BITS.read_text())


@pytest.mark.parametrize("pin", _VERDICT_BITS, ids=[
    f"{i}-{p['lambda']['family']}-{p['gamma']['family']}" for i, p in enumerate(_VERDICT_BITS)])
def test_verdict_bits_are_pinned(pin):
    """Status, exponent bits and evidence bytes of classify, for every family
    as eigenvalues and as weights, tables with 0, 1, 2 and 40 finite entries,
    every notion and every (s, t) regime, on the default and a small probe grid."""
    lam = EigenSeq(family_from_descriptor(pin["lambda"]))
    gam = WeightSeq(family_from_descriptor(pin["gamma"]))
    for key, expected in pin["verdicts"].items():
        label, grid = key.rsplit(" ", 1)
        got = _verdict_pin(lam, gam, _VERDICT_NOTIONS[label], _VERDICT_POLICIES[grid])
        assert got == expected, key


if __name__ == "__main__":
    _write_verdict_bits()
