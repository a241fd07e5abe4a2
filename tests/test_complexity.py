import math
import random
import re
import struct
import sys
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tensortract import complexity
from tensortract import (
    BudgetExceeded,
    ConstantOne,
    CountResult,
    DoubleExpPower,
    EigenSeq,
    EventuallyZero,
    ExpPower,
    IterLog,
    LogPower,
    NonCompact,
    PowerLaw,
    Query,
    Tabulated,
    TripleExp,
    WeightSeq,
    brute_force_count,
    check_count_sandwich,
    d_of_eps,
    info_complexity,
    j_of_eps,
    nth_minimal_error,
    top_eigenvalues,
)
from tensortract.goldens import DYADIC_EXP, ZERO_TAIL
from tensortract.seqcore import _FamilyBase
from tensortract.verify import random_tabulated_instance

LN2 = math.log(2.0)
DYADIC = EigenSeq(ExpPower(LN2, 1.0))  # lambda_j = 2**-(j-1)
ONES = WeightSeq(ConstantOne())
INTEGER_LEVELS = EigenSeq(Tabulated(tuple(map(float, range(30)))))  # L(j) = j - 1
MAX = sys.float_info.max
INF_BITS = 0x7FF0000000000000  # the bit pattern of +inf


class Rising(_FamilyBase):
    """log_inv(j) = j - 3 from j = 2: below zero at j = 2, against the contract."""

    name = "rising"

    def _formula(self, j, m):
        return j - 3.0


class Falling(Rising):
    _formula_start = 1  # from j = 1 on


class NaNFromTwo(Rising):
    def _formula(self, j, m):
        return math.nan


class NaNFromOne(NaNFromTwo):
    _formula_start = 1


def to_bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def from_bits(b: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", b))[0]


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
        # threshold ~ exp(50) > the cap: the search runs past it, since the
        # cap only stands in for an index that cannot be resolved
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

    @pytest.mark.parametrize("bad", ["3", True])
    def test_threshold_rejects_booleans_and_strings(self, bad):
        with pytest.raises(ValueError, match="threshold E must be positive and finite"):
            j_of_eps(EigenSeq(PowerLaw(2.0)), bad)


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

    @pytest.mark.parametrize("top, want", [(100.0, 99), (101.0, 100), (102.0, None),
                                           (121.0, None), (129.0, None)])
    def test_level_table_stops_at_the_node_budget(self, top, want):
        # L(j) = log j below 2E = log(top): the level table needs J = ceil(top) - 1,
        # which must not pass the node budget of 100.
        args = EigenSeq(PowerLaw(1.0)), WeightSeq(ExpPower(1.0, 1.0)), Query(math.log(top) / 2, 1)
        if want is None:
            with pytest.raises(BudgetExceeded, match=r"level range exceeds the node budget \(100\)"):
                info_complexity(*args, node_budget=100)
        else:
            assert info_complexity(*args, node_budget=100).count == want

    def test_level_tables_read_formula_blocks(self, monkeypatch):
        """Level tables of closed forms come from _formula on blocks of
        indices 2..J; a patched log_inv maps the scalar instead, to the
        same count and spectrum."""
        lam, gam = EigenSeq(PowerLaw(1.0)), WeightSeq(ExpPower(1.0, 1.0))
        q = Query(math.log(5000.0) / 2, 3)  # G(1) = 0: levels j < 5000
        blocks = []
        formula = PowerLaw._formula
        monkeypatch.setattr(PowerLaw, "_formula", lambda self, j, m:
                            (m is not math and blocks.append(j)) or formula(self, j, m))
        res = info_complexity(lam, gam, q)
        assert np.concatenate(blocks).tolist() == list(range(2, 5000))
        top = top_eigenvalues(lam, gam, 3, 2000)
        monkeypatch.undo()
        scalar = PowerLaw.log_inv
        monkeypatch.setattr(PowerLaw, "log_inv", lambda self, j: scalar(self, j))
        assert info_complexity(lam, gam, q) == res
        assert top_eigenvalues(lam, gam, 3, 2000) == top

    def test_query_validation(self):
        with pytest.raises(ValueError):
            Query(-1.0, 2)
        with pytest.raises(ValueError):
            Query(1.0, 0)
        with pytest.raises(ValueError):
            Query(1.0, 2.5)

    @pytest.mark.parametrize("E, d", [("5", 2), (True, 1)])
    def test_query_rejects_boolean_and_string_thresholds(self, E, d):
        with pytest.raises(ValueError, match="threshold E must be positive and finite"):
            Query(E, d)

    @pytest.mark.parametrize("budget", [0, -1, 2.5, True, "100"])
    @pytest.mark.parametrize("E", [2.0, 0.1])  # 0.1: no coordinate is active, m = 0
    def test_node_budget_must_be_a_positive_int(self, budget, E):
        with pytest.raises(ValueError, match="node_budget must be a positive integer"):
            info_complexity(DYADIC, WeightSeq(ExpPower(1.0, 1.0)), Query(E, 3),
                            node_budget=budget)

    def test_sandwich_rejects_a_bad_node_budget(self):
        with pytest.raises(ValueError, match="node_budget must be a positive integer"):
            check_count_sandwich(DYADIC, WeightSeq(ExpPower(1.0, 1.0)), 2.0, 3, node_budget=0)

    def test_node_budget_of_one(self):
        # The root entry alone: m = 0 fits, and any active coordinate does not.
        gam = WeightSeq(ExpPower(1.0, 1.0))
        assert info_complexity(DYADIC, gam, Query(0.1, 3), node_budget=1) == CountResult(1, 1, 0)
        with pytest.raises(BudgetExceeded):
            info_complexity(DYADIC, gam, Query(2.0, 3), node_budget=1)

    @pytest.mark.parametrize("d", [1, 2, 3, 6])
    @pytest.mark.parametrize("bad", ["eigenvalues", "weights", "nan-eigenvalues", "nan-weights"])
    def test_negative_cost_rejected(self, bad, d):
        """log_inv(j) = j - 3 goes below zero, from j = 2 as eigenvalues
        (Rising) and from k = 1 as weights (Falling), and each returned a
        count; a NaN L(2) made m = 0 and a count of 1."""
        lam, gam = {"eigenvalues": (EigenSeq(Rising()), ONES),
                    "weights": (DYADIC, WeightSeq(Falling())),
                    "nan-eigenvalues": (EigenSeq(NaNFromTwo()), ONES),
                    "nan-weights": (DYADIC, WeightSeq(NaNFromOne()))}[bad]
        with pytest.raises(ValueError, match="log-magnitude must be >= 0"):
            info_complexity(lam, gam, Query(10.0, d))

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_a_later_negative_weight_is_rejected(self, d):
        """Rising as weights has G(1) = 0 but G(2) < 0, which every d >= 2
        reads; d = 1 reads only G(1)."""
        assert info_complexity(DYADIC, WeightSeq(Rising()), Query(10.0, 1)).count == 29
        with pytest.raises(ValueError, match="log-magnitude must be >= 0"):
            info_complexity(DYADIC, WeightSeq(Rising()), Query(10.0, d))

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_a_nan_weight_past_the_prefix_is_rejected(self, d):
        """NaNFromTwo as weights has G(1) = 0 and a NaN G(2), which reads as
        "does not fit" and so ended the active prefix at m = 1, with a count
        of 29; every d >= 2 now reads G(m + 1) and rejects it.  d = 1 reads
        only G(1)."""
        assert info_complexity(DYADIC, WeightSeq(NaNFromTwo()), Query(10.0, 1)).count == 29
        with pytest.raises(ValueError, match="log-magnitude must be >= 0"):
            info_complexity(DYADIC, WeightSeq(NaNFromTwo()), Query(10.0, d))

    @pytest.mark.parametrize("bad", [math.nan, -1.0])
    @pytest.mark.parametrize("a, J", [(1.0, 403), (2.0, 20)], ids=["table", "list"])
    def test_a_bad_later_level_is_rejected(self, a, J, bad):
        """A NaN or negative L(5), a level the active prefix does not read,
        was counted: 707 (a = 1) and 41 (a = 2) with NaN, 1,502 with -1.0 at
        a = 1, where top-K raised.  J levels past _BLOCK_MIN take the numpy
        table (a = 1); fewer are mapped in Python (a = 2)."""
        class BadAtFive(PowerLaw):
            def log_inv(self, j):
                return bad if j == 5 else super().log_inv(j)

        assert j_of_eps(EigenSeq(PowerLaw(a)), 3.0) == J
        assert (J > complexity._BLOCK_MIN) == (a == 1.0)
        lam, gam = EigenSeq(BadAtFive(a)), WeightSeq(ExpPower(1.0, 1.0))
        with pytest.raises(ValueError, match="log-magnitude must be >= 0"):
            info_complexity(lam, gam, Query(3.0, 2))
        with pytest.raises(ValueError, match="log-magnitude must be >= 0"):
            top_eigenvalues(lam, gam, 2, 10)

    def test_budget_on_coordinate_1_entries(self):
        # Coordinate 1's three levels all stay open, since coordinate 2 takes
        # any level within the budget 2E = 3: its start alone makes 5 entries.
        # With a third coordinate the next step would make 9, not 5.
        lam, q = EigenSeq(Tabulated((0, 1, 1, 1))), Query(1.5, 3)
        for weights in ((0, 0), (0, 0, 0)):
            with pytest.raises(BudgetExceeded, match="at least 5 enumerated entries, over the budget of 4"):
                info_complexity(lam, WeightSeq(Tabulated(weights)), q, node_budget=4)
        gam = WeightSeq(Tabulated((0, 0)))
        assert info_complexity(lam, gam, q, node_budget=5) == CountResult(16, 5, 2)
        assert brute_force_count(lam, gam, q, 6) == 16

    def test_shared_heads_keep_only_steps_that_fit(self):
        # At E = 7 and budget 1603, d = 5 raises in a head step after its tail
        # steps; d = 4 grows its head alone, takes that step with room to
        # spare, and counts 12120 from 1603 entries, not a truncated head.
        pair = EigenSeq(PowerLaw(2.0)), WeightSeq(ExpPower(1.0, 1.0))
        want = CountResult(12120, 1603, 4)
        for order in ((5, 4), (4, 5)):
            heads = {}
            for d in order:
                if d == 4:
                    assert info_complexity(*pair, Query(7.0, d), 1603, _heads=heads) == want
                else:
                    with pytest.raises(BudgetExceeded, match="at least 2051 enumerated"):
                        info_complexity(*pair, Query(7.0, d), 1603, _heads=heads)

    def test_shared_heads_raise_as_alone(self):
        # A list head step stops past its room with a partial entry count: a
        # step stored under a larger budget is counted again, so the budget
        # message names 150 entries, not the step's full 169.
        pair, q = (EigenSeq(PowerLaw(2.0)), WeightSeq(ExpPower(1.0, 1.0))), Query(5.0, 6)
        heads = {}
        info_complexity(*pair, q, _heads=heads)
        for shared in ({}, {"_heads": heads}):
            with pytest.raises(BudgetExceeded, match="at least 150 enumerated entries, over the "
                               "budget of 149"):
                info_complexity(*pair, q, 149, **shared)

    def test_dimension_past_the_machine_integers(self):
        # The active prefix is bisected over Python ints: a bisect over
        # range(d + 1) raises OverflowError once d passes 2**63.
        exp = (EigenSeq(ExpPower(1.0, 1.0)), WeightSeq(ExpPower(1.0, 1.0)))
        assert info_complexity(*exp, Query(5.0, 10**30)) == CountResult(217, 84, 9)
        assert info_complexity(*exp, Query(5.0, 9)) == CountResult(217, 84, 9)


class TestActivePrefix:
    """active_prefix against a linear scan of G(k) + L(2) < 2E over k <= d."""

    @staticmethod
    def scan(lam, gam, q):
        m = 0
        while m < q.d and gam.G(m + 1) + lam.L(2) < 2.0 * q.E:
            m += 1
        return m

    def test_matches_linear_scan(self):
        rng = random.Random(7)
        for _ in range(400):
            lam, gam, q = random_tabulated_instance(rng)
            q = Query(q.E, rng.randint(1, 30))  # d runs past the weight table too
            assert complexity.active_prefix(lam, gam, q) == self.scan(lam, gam, q)

    @pytest.mark.parametrize("E,d,want", [
        (0.5, 3, 0),  # G(1) + L(2) = 2E exactly: no coordinate leaves level 1
        (0.5, 1, 0),
        (0.6, 1, 1),  # d = 1
        (1.0, 5, 2),  # G(3) + L(2) = 2E exactly
        (1.3, 3, 3),  # G(d) + L(2) < 2E: the whole dimension
        (1.3, 5, 4),
        (9.0, 8, 5),  # past the table end the weights are zero
    ])
    def test_edges(self, E, d, want):
        lam = EigenSeq(Tabulated((0.0, 1.0)))
        gam = WeightSeq(Tabulated((0.0, 0.5, 1.0, 1.5, 2.0)))
        q = Query(E, d)
        assert complexity.active_prefix(lam, gam, q) == self.scan(lam, gam, q) == want


DOUBLE_EXP = (EigenSeq(DoubleExpPower(1.0, 1.0)), WeightSeq(DoubleExpPower(1.0, 1.0)))


class TestSplitCounter:
    """The head/tail split: reach, budget, and independence of the split point."""

    def test_double_exp_reach(self):
        # Out of reach for a tuple-by-tuple search: 2.2e11 tuples.
        res = info_complexity(*DOUBLE_EXP, Query(1e6, 10))
        assert res.count == 222_207_101_746
        assert res.truncated_dimension == 10
        assert res.nodes_visited < 2 * 10**6

    @pytest.mark.parametrize("pair,E,d,want", [
        (DOUBLE_EXP, 1e8, 10, CountResult(4_185_037_489_100, 4_559_912, 10)),
        ((EigenSeq(PowerLaw(2.0)), WeightSeq(ExpPower(1.0, 1.0))), 12.0, 40,
         CountResult(8_956_759, 713_037, 23)),
        # The cell where the tail thresholds cost the most.
        ((EigenSeq(ExpPower(1.0, 1.0)), WeightSeq(ExpPower(1.0, 1.0))), 30.0, 40,
         CountResult(2_299_709_390, 12_635_545, 40)),
        # The size rule ends the far block after coordinate 40; folding
        # coordinate 39 into it would enumerate 6,337 entries.
        ((EigenSeq(PowerLaw(1.0)), WeightSeq(PowerLaw(0.7))), 3.0, 40,
         CountResult(23_516, 6_869, 40)),
    ], ids=["double_exp-1e8", "power_law-exp_power-12", "exp_power-30", "power_law-power_law-3"])
    def test_reach_cells_are_pinned(self, pair, E, d, want):
        # Large heads and tails on both sides of the split; nodes_visited
        # pins the split decisions as well as the count.
        assert info_complexity(*pair, Query(E, d), node_budget=3 * 10**7) == want

    @pytest.mark.parametrize("E", [MAX / 2, MAX], ids=["B=MAX", "B=inf"])
    def test_budget_at_the_top_of_the_float_range(self, E):
        # Every one of the 10**8 tuples fits; the split still starts a tail,
        # whose thresholds sit next to MAX or at inf.
        lam = EigenSeq(Tabulated(tuple(map(float, range(10)))))
        res = info_complexity(lam, WeightSeq(Tabulated((0.0,) * 8)), Query(E, 8))
        assert res.count == 10**8

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

    @staticmethod
    def first_tail_step(monkeypatch, gam, q):
        """The count, and (thresholds, row entries) of the first tail step."""
        steps = []
        real = complexity._extend_tail
        monkeypatch.setattr(complexity, "_extend_tail", lambda taus, w, B, room: (
            steps.append((len(taus), len(w))) or real(taus, w, B, room)))
        got = info_complexity(INTEGER_LEVELS, gam, q)
        monkeypatch.undo()
        return got, steps[0]

    def test_far_block_across_pairs_on_the_budget(self, monkeypatch):
        # Levels 0, 1, 2, ... and B = 20.  On coordinates 6 to 11 the cheapest
        # level costs 9, 10, 10, 10, 11, 11, so the pairs (7, 8) and (8, 9)
        # cost exactly B: no tail tuple leaves level 1 twice on 7 to 11, which
        # fold as one step of 10 + 10 + 10 + 9 + 9 entries.  The pair (6, 7)
        # costs 19 and ends the block.
        gam = WeightSeq(Tabulated((0.0, 0.0, 0.0, 1.0, 2.0, 8.0, 9.0, 9.0, 9.0, 10.0, 10.0)))
        q = Query(10.0, 11)
        assert self.first_tail_step(monkeypatch, gam, q) == (CountResult(36_666, 2_139, 11),
                                                             (0, 48))
        # The block starts at 1,350 entries and adds 9, 9, 10, 10 and 10.  A
        # budget inside it names the entries of the step that crossed it.
        with pytest.raises(BudgetExceeded, match="needs at least 1378 enumerated entries"):
            info_complexity(INTEGER_LEVELS, gam, q, node_budget=1370)
        monkeypatch.setattr(complexity, "_TAIL_STEP_ENTRIES", 10**9)  # a Python head alone
        assert info_complexity(INTEGER_LEVELS, gam, q).count == 36_666

    def test_far_block_stops_at_the_size_rule(self, monkeypatch):
        # The pair (5, 6) costs exactly B = 20, so coordinates 5 to 7 could
        # fold as one.  After 7 and 6 (19 entries) the head of 267 entries no
        # longer exceeds _TAIL_STEP_ENTRIES + 19, and coordinate 5 goes to the
        # head, as it did one coordinate at a time; folding it into the block
        # would enumerate 537 entries.
        gam = WeightSeq(Tabulated((0.0, 1.0, 3.0, 5.0, 9.0, 9.0, 10.0)))
        q = Query(10.0, 7)
        assert self.first_tail_step(monkeypatch, gam, q) == (CountResult(2_678, 628, 7), (0, 19))
        monkeypatch.setattr(complexity, "_TAIL_STEP_ENTRIES", 10**9)
        assert info_complexity(INTEGER_LEVELS, gam, q).count == 2_678

    def test_merge_path_is_taken(self, monkeypatch):
        calls = []
        real = complexity._extend_tail
        monkeypatch.setattr(complexity, "_extend_tail",
                            lambda *args: calls.append(1) or real(*args))
        assert info_complexity(*DOUBLE_EXP, Query(3000.0, 10)).count == 3_054_254
        assert calls

    def test_small_draws_make_no_numpy_call(self, monkeypatch):
        """A draw of at most _TAIL_STEP_ENTRIES + 1 entries has no head past
        _TAIL_STEP_ENTRIES, so it stays in pure Python; the few larger draws
        take the array head and are checked against the oracle."""
        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"numpy.{name} called on a small draw")

        rng = random.Random(7)
        draws = [random_tabulated_instance(rng) for _ in range(300)]
        want = [brute_pairs(lam, gam, q.E, q.d, 21) if q.d <= 2 else None
                for lam, gam, q in draws]
        full = [info_complexity(lam, gam, q) for lam, gam, q in draws]
        small = [res.nodes_visited <= complexity._TAIL_STEP_ENTRIES + 1 for res in full]
        assert small.count(False) == 4
        for (lam, gam, q), res, w, is_small in zip(draws, full, want, small):
            assert w is None or res.count == w
            if not is_small:
                assert res.count == brute_force_count(lam, gam, q, 21)
        monkeypatch.setattr(complexity, "np", NoNumpy())
        for (lam, gam, q), res, is_small in zip(draws, full, small):
            if is_small:
                assert info_complexity(lam, gam, q) == res

    @pytest.mark.parametrize("pair,q,want", [
        (DYADIC_EXP, Query(16.0, 4), CountResult(107_938, 10_202, 4)),
        (ZERO_TAIL, Query(36.0, 3), CountResult(182_310, 5_255, 3)),
    ], ids=["dyadic_exp-16", "zero_tail-36"])
    def test_short_cells_grow_an_array_head(self, monkeypatch, pair, q, want):
        # Fewer than _SPLIT_MIN_COORDS active coordinates: no tail starts,
        # but a head past _TAIL_STEP_ENTRIES entries still becomes an array.
        calls = []
        for name in ("_extend_head_array", "_extend_tail"):
            real = getattr(complexity, name)
            monkeypatch.setattr(complexity, name,
                                lambda *args, name=name, real=real: calls.append(name) or real(*args))
        assert info_complexity(pair.lam, pair.gam, q) == want
        assert "_extend_head_array" in calls and "_extend_tail" not in calls

    @pytest.mark.parametrize("pair,q", [
        (DOUBLE_EXP, Query(3000.0, 10)),
        ((DYADIC_EXP.lam, DYADIC_EXP.gam), Query(16.0, 4)),  # array head, no tail
    ], ids=["double_exp-3000", "dyadic_exp-16"])
    def test_budget_caps_enumerated_entries(self, pair, q):
        full = info_complexity(*pair, q)
        again = info_complexity(*pair, q, node_budget=full.nodes_visited)
        assert again == full
        with pytest.raises(BudgetExceeded) as exc:
            info_complexity(*pair, q, node_budget=full.nodes_visited - 1)
        needed = int(re.search(r"needs at least (\d+) enumerated entries", str(exc.value))[1])
        assert full.nodes_visited - 1 < needed <= full.nodes_visited

    def test_budget_fails_before_large_work(self):
        with pytest.raises(BudgetExceeded, match="needs at least"):
            info_complexity(*DOUBLE_EXP, Query(1e6, 10), node_budget=1000)

    def test_budget_fails_on_the_active_prefix_alone(self, monkeypatch):
        # Every step but the last head step adds an entry, so a count of m
        # active coordinates needs at least m entries; the counter rejects
        # m > node_budget from active_prefix's bisection reads alone.
        reads = []
        monkeypatch.setattr(ConstantOne, "log_inv", lambda self, k: reads.append(k) or 0.0)
        with pytest.raises(BudgetExceeded, match=re.escape(
                "needs at least 2000000 enumerated entries, over the budget of 1000")):
            info_complexity(EigenSeq(ExpPower(1.0, 1.0)), ONES, Query(1.0, 2 * 10**6),
                            node_budget=1000)
        assert 0 < len(reads) < 64


class TestLevelsBelow:
    def test_exact_cut_at_rounded_ties(self):
        # Levels a few ulp either side of B - g, where B - g can round the
        # other way from g + L, with ties: the row is g + L for exactly the
        # levels with g + L < B.
        rng = random.Random(13)
        for _ in range(600):
            B = rng.uniform(0.5, 60.0)
            g = rng.uniform(0.0, 0.5 * B)
            levels = [rng.uniform(0.0, B - g) for _ in range(rng.randint(0, 4))]
            for _ in range(rng.randint(1, 6)):
                lv = B - g
                for _ in range(rng.randint(0, 3)):
                    lv = math.nextafter(lv, rng.choice([0.0, math.inf]))
                levels += [lv] * rng.randint(1, 2)
            levels.sort()
            got = complexity._levels_below(g, np.array(levels), B).tolist()
            assert got == [g + lv for lv in levels if g + lv < B]

    def test_bound_after_a_cost_keeps_the_sums_up_to_it(self):
        # The top-K rows: B the double after a cost c, with sums that land on
        # c exactly (small integers) or round onto it from a few ulp either
        # side of c - g; the row is g + L for exactly the levels with g + L <= c.
        rng = random.Random(17)
        for _ in range(600):
            if rng.random() < 0.5:
                c, g = float(rng.randint(0, 12)), float(rng.randint(0, 4))
                levels = [float(rng.randint(0, 12)) for _ in range(rng.randint(0, 8))]
            else:
                c = rng.uniform(0.5, 60.0)
                g = rng.uniform(0.0, 0.5 * c)
                levels = []
                for _ in range(rng.randint(1, 6)):
                    lv = c - g
                    for _ in range(rng.randint(0, 3)):
                        lv = math.nextafter(lv, rng.choice([0.0, math.inf]))
                    levels += [lv] * rng.randint(1, 2)
            levels.sort()
            got = complexity._levels_below(g, np.array(levels), math.nextafter(c, math.inf))
            assert got.tolist() == [g + lv for lv in levels if g + lv <= c]

    @pytest.mark.parametrize("B", [1e308, MAX, math.inf])
    @pytest.mark.parametrize("g", [0.0, 1.0, 1e308])
    def test_infinite_levels_and_sums_past_the_float_range(self, g, B):
        # inf levels and sums that round past MAX to inf are cut, and with
        # B = inf (a cost of MAX, or none kept yet) every finite sum is kept;
        # no sum that overflows is taken, so numpy warns of none.
        levels = [0.0, 1.0, 1e307, 7e307, 1e308, MAX, math.inf, math.inf]
        got = complexity._levels_below(g, np.array(levels), B).tolist()
        assert got == [g + lv for lv in levels if g + lv < B]

    @pytest.mark.parametrize("B", [0.0, 1.0, math.inf])
    def test_empty_table(self, B):
        assert complexity._levels_below(0.5, np.array([]), B).tolist() == []


class TestArrayHead:
    """_extend_head_array against the pure-Python _extend_head, on knife-edge heads."""

    @staticmethod
    def check(head, g, reach_next, levels, B):
        done, new, out = complexity._extend_head(list(head), g, reach_next, list(levels), B,
                                                 10**9)
        got = complexity._extend_head_array(np.sort(head), g, reach_next, np.array(levels), B,
                                            10**9)
        assert got[:2] == (done, new) and new == len(out)
        # The array step takes and returns an ascending head.
        assert got[2].tolist() == sorted(out)

    def test_exact_ties(self):
        # Small integers: many folds and reach sums land exactly on B.
        rng = random.Random(11)
        for _ in range(400):
            B = float(rng.randint(2, 16))
            levels = sorted(float(rng.randint(0, 8)) for _ in range(rng.randint(1, 6)))
            reach_next = rng.choice([math.inf, float(rng.randint(0, 18))])
            head = [float(rng.randint(0, int(B) - 1)) for _ in range(rng.randint(1, 30))]
            self.check(head, float(rng.randint(0, 3)), reach_next, levels, B)

    def test_rounded_sums(self):
        # Costs a few ulp either side of B - w_j and of B - reach_next, where
        # B - c can round the other way from c + w_j.
        rng = random.Random(12)
        for _ in range(400):
            B = rng.uniform(0.5, 60.0)
            g = rng.uniform(0.0, 0.3 * B)
            levels = sorted(rng.uniform(0.0, 0.6 * B) for _ in range(rng.randint(1, 12)))
            reach_next = rng.uniform(0.0, 1.2 * B)
            head = []
            for edge in [B - reach_next] + [B - (g + lv) for lv in levels]:
                c = edge
                for _ in range(rng.randint(0, 3)):
                    c = math.nextafter(c, rng.choice([0.0, math.inf]))
                if 0.0 <= c < B:
                    head.append(c)
            if head:
                self.check(head, g, reach_next, levels, B)

    @staticmethod
    def threshold(w, tau):
        """The smallest double p >= 0 with p + w >= tau, by a walk from tau - w."""
        p = max(tau - w, 0.0)
        while p + w < tau:
            p = math.nextafter(p, math.inf)
        while p > 0.0 and math.nextafter(p, 0.0) + w >= tau:
            p = math.nextafter(p, 0.0)
        return p

    def test_heads_on_level_thresholds(self):
        # Head costs exactly on each level's threshold against T (the child
        # stays open below it) and against B (the child fits below it), one
        # ulp either side, each many times over: a search that counts the
        # costs on a threshold, or a head left unsorted, miscounts.
        rng = random.Random(13)
        for _ in range(300):
            if rng.random() < 0.5:
                B = float(rng.randint(2, 16))
                g = float(rng.randint(0, 3))
                levels = sorted(float(rng.randint(0, 8)) for _ in range(rng.randint(1, 6)))
                reach_next = float(rng.randint(0, 18))
            else:
                B = rng.uniform(0.5, 60.0)
                g = rng.uniform(0.0, 0.3 * B)
                levels = sorted(rng.uniform(0.0, 0.6 * B) for _ in range(rng.randint(1, 12)))
                reach_next = rng.uniform(0.0, 1.2 * B)
            T = self.threshold(reach_next, B)
            head = []
            for w in [0.0] + [g + lv for lv in levels]:
                for t in (self.threshold(w, T), self.threshold(w, B)):
                    for c in (t, t, math.nextafter(t, 0.0), math.nextafter(t, math.inf)):
                        if 0.0 <= c < B:
                            head += [c] * rng.randint(1, 4)
            self.check(head, g, reach_next, levels, B)

    def test_largest_step_peaks_under_32_bytes_per_new_entry(self, monkeypatch):
        # The largest array head step of this cell adds 266,489 entries to a
        # head of 192,658.  Its traced peak above its start, the new head's
        # 8 B per entry included, is about 21 B per new entry (README states
        # the bound next to the node budget).
        steps = []
        real = complexity._extend_head_array

        def traced(head, *args):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            got = real(head, *args)
            steps.append((got[1], tracemalloc.get_traced_memory()[1] - start))
            return got

        monkeypatch.setattr(complexity, "_extend_head_array", traced)
        tracemalloc.start()
        try:
            got = info_complexity(EigenSeq(PowerLaw(2.0)), WeightSeq(ExpPower(1.0, 1.0)),
                                  Query(12.0, 40))
        finally:
            tracemalloc.stop()
        assert got == CountResult(8_956_759, 713_037, 23)
        new, peak = max(steps)
        assert new == 266_489 and peak <= 32 * new, peak / new

    def test_budget_checked_before_allocation(self):
        head = np.zeros(4)
        done, new, out = complexity._extend_head_array(head, 0.0, 0.5, np.array([1.0, 2.0]),
                                                       4.0, 11)
        assert (done, new, out is head) == (0, 12, True)


class TestThresholds:
    """_thresholds(w, tau): the smallest double p >= 0 with p + w >= tau."""

    @staticmethod
    def check(w, tau):
        got = complexity._thresholds(np.array(w), np.array(tau))
        for p, wi, ti in zip(got.tolist(), w, tau):
            assert p >= 0.0 and p + wi >= ti and math.copysign(1.0, p) == 1.0
            assert p == 0.0 or not (math.nextafter(p, 0.0) + wi >= ti)
        # Each tau, as one float bound for its w, gives the array form's bits.
        for t in set(tau):
            at = [i for i, ti in enumerate(tau) if ti == t]
            one = complexity._thresholds(np.array([w[i] for i in at]), float(t))
            assert one.view(np.int64).tolist() == got.view(np.int64)[at].tolist()

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

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, INF_BITS).flatmap(lambda t: st.tuples(
        st.integers(0, t - 1) | st.integers(max(0, t - 64), t - 1), st.just(t))), min_size=1))
    def test_random_bit_patterns(self, pairs):
        # Non-negative doubles order like their bit patterns, so w < tau.
        self.check([from_bits(w) for w, _ in pairs], [from_bits(t) for _, t in pairs])

    @staticmethod
    def pairs(pairs):
        """The w list and the tau list of (w, tau) pairs."""
        pairs = list(pairs)
        return [w for w, _ in pairs], [t for _, t in pairs]

    def cases(self, taus, offsets):
        """(w, tau) with w the k-th double below tau, for each k in offsets."""
        return self.pairs((from_bits(to_bits(t) - k), t) for t in taus for k in offsets
                          if to_bits(t) - k >= 0)

    def test_w_within_a_few_ulp_below_tau(self):
        # The answer is about ulp(tau), itself many of its own ulps wide.
        rng = random.Random(5)
        taus = [1.0, 3.0, 1e-300, 1e300, 7.5e200] + [rng.uniform(0.0, 1e6) for _ in range(200)]
        self.check(*self.cases(taus, range(1, 9)))

    def test_w_far_below_ulp_of_tau(self):
        # tau - w rounds to tau; the answer is tau or the double below it.
        self.check(*self.pairs((x, t) for t in (1e20, 2.0 ** 80, 3.0 * 2.0 ** 90, 1e300)
                               for x in (0.5, 1.0, 2.0 ** -30, 3.0, 1e-300, 1e10)))

    def test_tau_a_power_of_two(self):
        # The gap below 2**e is half the gap above it.
        taus = [2.0 ** e for e in range(-1074, 1024, 7)]
        self.check(*self.cases(taus, [1, 2, 3, 2**20, 2**51, 2**52, 2**52 + 1, 2**60]))
        self.check(*self.pairs((f * t, t) for t in taus for f in (0.5, 0.75) if f * t < t))

    @pytest.mark.parametrize("odd", [0, 1], ids=["even", "odd"])
    def test_ties_at_the_rounding_midpoint(self, odd):
        # For w in [tau/2, tau), m - w is a double p: p + w is exactly the
        # midpoint m between tau and the double below, a tie that rounds to
        # tau only when tau's mantissa is even.
        rng = random.Random(11 + odd)
        w, tau = [], []
        for _ in range(500):
            t = from_bits((to_bits(rng.uniform(1.0, 2.0)) & ~1) | odd) * 2.0 ** rng.randint(-1020, 1020)
            x = min(rng.uniform(t / 2, t), math.nextafter(t, 0.0))
            h = (t - math.nextafter(t, 0.0)) / 2
            p = (t - x) - h
            assert Fraction(p) + Fraction(x) == Fraction(t) - Fraction(h)
            w.append(x)
            tau.append(t)
        self.check(w, tau)
        got = complexity._thresholds(np.array(w), np.array(tau)).tolist()
        ties = [(t - x) - (t - math.nextafter(t, 0.0)) / 2 for x, t in zip(w, tau)]
        assert got == [math.nextafter(p, math.inf) if odd else p for p in ties]

    def test_ties_in_tau_minus_w(self):
        # tau - w lies halfway between two doubles, so it rounds to the even
        # one; a second tie at the midpoint can then round one double past
        # the answer.
        rng = random.Random(13)
        w, tau = [], []
        for _ in range(500):
            t = from_bits((to_bits(rng.uniform(1.25, 2.0)) & ~1) | rng.randint(0, 1))
            diff = 1 + Fraction(2 * rng.randrange(2**50) + 1, 2**53)  # odd multiple of ulp/2
            x = float(Fraction(t) - diff)
            assert Fraction(x) == Fraction(t) - diff
            scale = 2.0 ** rng.randint(-1000, 1000)
            w.append(x * scale)
            tau.append(t * scale)
        self.check(w, tau)

    def test_answers_in_the_subnormal_range(self):
        taus = [5e-324, 1e-320, 2.0 ** -1022, math.nextafter(2.0 ** -1022, 1.0), 1e-310, 1e-300]
        self.check(*self.cases(taus, [1, 2, 5, 1000, 2**40]))
        got = complexity._thresholds(np.array([2.0 ** -1022 - 5e-324]), np.array([2.0 ** -1022]))
        assert got.tolist() == [5e-324]

    def test_zero_w_gives_tau(self):
        taus = [5e-324, 1e-300, 1.0, 2.0 ** 100, 1e300, MAX, math.inf]
        assert complexity._thresholds(np.zeros(len(taus)), np.array(taus)).tolist() == taus

    def test_largest_finite_and_infinite_tau(self):
        w = [0.0, 1.0, 1e300, MAX / 2, math.nextafter(MAX / 2, 0.0), 1e308,
             math.nextafter(MAX, 0.0), math.nextafter(math.nextafter(MAX, 0.0), 0.0)]
        self.check(w, [MAX] * len(w))
        self.check(w + [MAX], [math.inf] * (len(w) + 1))
        # p + w overflows to inf once it passes the midpoint above MAX.
        got = complexity._thresholds(np.array([math.nextafter(MAX, 0.0)]), np.array([math.inf]))
        assert got.tolist() == [3.0 * 2.0 ** 970]

    def test_zero_tau_and_signed_zero_w(self):
        # The step below tau = +0.0 is a NaN, so is the estimate; it clamps to +0.0.
        w = [0.0, -0.0, 5e-324, 1.0, math.inf]
        got = complexity._thresholds(np.array(w), np.zeros(len(w)))
        assert got.view(np.int64).tolist() == [0] * len(w)
        self.check(w, [0.0] * len(w))
        self.check([0.0, -0.0], [1.0, 5e-324])

    @pytest.mark.parametrize("t", [5e-324, 3e-323, 1e-310, 2.0 ** -1022, MAX, math.inf])
    def test_one_float_bound_at_the_ends(self, t):
        # Subnormal taus, whose gap is the smallest double, and the largest
        # finite and infinite taus, as one float bound (``check``) and as an
        # array; w from 0 up past tau.
        w = [0.0, -0.0, 5e-324, 1e-320, 2.0 ** -1022, 1.0, 1e300, MAX / 2,
             math.nextafter(MAX, 0.0), MAX, math.inf]
        w += [from_bits(to_bits(t) - k) for k in (1, 2, 3, 2**20, 2**52) if to_bits(t) >= k]
        self.check(w, [t] * len(w))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, INF_BITS).map(from_bits)
                    | st.sampled_from([0.0, 5e-324, MAX, math.inf]), min_size=1))
    def test_bit_steps_are_nextafter(self, xs):
        # One step of the bit pattern is math.nextafter, up and down; past
        # the ends, below 0 and above inf, it is a NaN.
        x = np.array(xs)
        ups, downs = complexity._step(x, 1).tolist(), complexity._step(x, -1).tolist()
        for xi, up, down in zip(xs, ups, downs):
            want_up = math.nextafter(xi, math.inf) if xi < math.inf else math.nan
            want_down = math.nextafter(xi, 0.0) if xi > 0.0 else math.nan
            assert (up.hex(), down.hex()) == (want_up.hex(), want_down.hex())

    def test_up_walk_takes_a_second_step(self):
        # tau - w = 1 + 2**-53 ties to 1.0, so the estimate is 1 - 2**-53;
        # 1.0 + w ties back to 1.0, below tau, so the answer is a second step up.
        w, tau = 2.0 ** -53, 1.0 + 2.0 ** -52
        self.check([w], [tau])
        assert complexity._thresholds(np.array([w]), tau).tolist() == [tau]

    def test_w_at_or_above_tau_gives_zero(self):
        # 0 already meets p + w >= tau, and the walk down stops there.
        got = complexity._thresholds(np.array([0.0, 1.0, 3.0, 0.0]), np.array([0.0, 1.0, 2.0, 1.0]))
        assert got.tolist() == [0.0, 0.0, 0.0, 1.0]
        self.check([math.inf, MAX, 1e-300, 5e-324], [math.inf, MAX, 5e-324, 5e-324])


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
        assert costs == [0.0, LN2, math.inf, math.inf]
        assert [type(c) for c in costs] == [float] * 4

    def test_saturated_costs_pad_to_k(self):
        # Two levels of 1e308 sum to inf: a zero eigenvalue, so it pads the
        # list to K entries instead of forming a tie class of inf costs.
        lam = EigenSeq(Tabulated((0.0, 1e308)))
        gam = WeightSeq(Tabulated((0.0, 0.0, 0.0)))
        costs = [float(c) for c in top_eigenvalues(lam, gam, 3, 5)]
        assert costs == [0.0, 1e308, 1e308, 1e308, math.inf]

    def test_nth_minimal_error_examples(self):
        assert float(nth_minimal_error(DYADIC, ONES, 2, 0)) == 0.0
        assert float(nth_minimal_error(DYADIC, ONES, 2, 1)) == 0.5 * LN2
        assert float(nth_minimal_error(DYADIC, ONES, 2, 3)) == LN2

    @pytest.mark.parametrize("n", [-1, True, 1.0])
    def test_nth_minimal_error_rejects_a_bad_rank(self, n):
        with pytest.raises(ValueError, match="n must be a nonnegative integer"):
            nth_minimal_error(DYADIC, ONES, 2, n)

    @pytest.mark.parametrize("K", [1, 100])  # 100: the level table is built in blocks
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("bad", ["eigenvalues", "weights", "nan-eigenvalues", "nan-weights"])
    def test_negative_cost_rejected(self, bad, d, K):
        # log_inv(j) = j - 3 goes below zero: no eigenvalue may exceed
        # lambda_1 = 1, and no weight may exceed 1.  The eigenvalue family
        # starts at j = 2, the weight family at k = 1, and the NaN family at
        # index 1.  With d >= 2 the fold once looped for ever in _thresholds
        # before it reached a check.
        lam, gam = {"eigenvalues": (EigenSeq(Rising()), ONES),
                    "weights": (DYADIC, WeightSeq(Falling())),
                    "nan-eigenvalues": (EigenSeq(NaNFromOne()), ONES),
                    "nan-weights": (DYADIC, WeightSeq(NaNFromOne()))}[bad]
        with pytest.raises(ValueError, match="log-magnitude must be >= 0"):
            top_eigenvalues(lam, gam, d, K)

    def test_a_bad_weight_in_the_far_block_is_rejected(self):
        # One coordinate at a time, this fold reads weights up to coordinate
        # 3.  From coordinate 3 the far coordinates fold as one block, whose
        # stop is taken against a bound on the K-th cost that holds before the
        # block is folded; it reads coordinate 4, so a NaN weight there raises.
        class NaNFromFour(ExpPower):
            def log_inv(self, j):
                return math.nan if j >= 4 else super().log_inv(j)

        lam = EigenSeq(PowerLaw(2.0))
        assert len(top_eigenvalues(lam, WeightSeq(ExpPower(1.0, 1.0)), 30, 7)) == 7
        with pytest.raises(ValueError, match="log-magnitude must be >= 0"):
            top_eigenvalues(lam, WeightSeq(NaNFromFour(1.0, 1.0)), 30, 7)

    @pytest.mark.parametrize("a, K, last", [(0.1, 3, 3), (0.1, 50, 50)])
    def test_far_block_reads_few_weights(self, monkeypatch, a, K, last):
        # Slowly growing G(k) = a log k: after coordinate 1 the costs are
        # (0, 1, 1.9), and from coordinate 2 every pair of cheapest levels
        # exceeds 1.9, so the far coordinates fold as one block.  Each one's
        # cheapest level is a candidate that lowers the bound on the K-th
        # cost, so the block stops after about K coordinates, where one
        # coordinate at a time stops, and not where a log k passes 0.9.
        read = []
        log_inv = PowerLaw.log_inv
        monkeypatch.setattr(PowerLaw, "log_inv", lambda self, j: read.append(j) or log_inv(self, j))
        top = top_eigenvalues(EigenSeq(Tabulated((0.0, 1.0, 1.9))), WeightSeq(PowerLaw(a)),
                              10**8, K)
        monkeypatch.undo()
        assert read == list(range(1, last + 1))
        assert top[:2] == [0.0, 1.0] and top[2] == 1.0 + PowerLaw(a).log_inv(2)

    def test_large_K_stays_near_K_candidates(self):
        # The staircase bound cuts coordinate 2's 7.2 K candidates under the
        # rank bound to 1.12 K, so the traced peak, the 100,008 result floats
        # included, is 6.7 MiB; without the bound it is 13.9 MiB.
        lam, gam = EigenSeq(PowerLaw(2.0)), WeightSeq(ExpPower(1.0, 1.0))
        top_eigenvalues(lam, gam, 20, 1000)  # first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            assert len(top_eigenvalues(lam, gam, 20, 10**5)) == 100_008
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20, peak

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

    @pytest.mark.parametrize("fam, E", [
        (LogPower(2.0), 1e5), (IterLog(), 1e3), (DoubleExpPower(1.0, 0.1), 1e50),
        (TripleExp(1e-18), 1e50),
    ], ids=["log_power", "iter_log", "double_exp_power", "triple_exp"])
    def test_search_resolves_past_2_62(self, fam, E):
        lam = EigenSeq(fam)
        j = j_of_eps(lam, E)
        assert j > 2**62
        assert lam.L(j) < 2.0 * E <= lam.L(j + 1)

    def test_table_past_the_search_cap(self):
        # A resolvable index does not depend on the cap.
        lam = EigenSeq(Tabulated(tuple(0.5 * j for j in range(100))))
        for E in (2.6, 10.0, 24.75, 30.0):  # 2E = 20 and 49.5 are entries; 60 is past the end
            j = j_of_eps(lam, E, cap=5)
            assert j == j_of_eps(lam, E) and j > 5
            assert lam.L(j) < 2.0 * E <= lam.L(j + 1)


#: Every family, with the parameters where a threshold's float arithmetic is
#: delicate: beta < 1 (log_inv saturates once j overflows a float), alpha < 1,
#: a zero IterLog prefix, and tables with and without a zero tail.
THRESHOLD_FAMILIES = [
    PowerLaw(2.0), PowerLaw(0.5), ExpPower(1.0, 1.0), ExpPower(0.001, 2.0), ExpPower(2.0, 0.5),
    DoubleExpPower(1.0, 1.0), DoubleExpPower(1.0, 0.1), TripleExp(1.0), TripleExp(1e-18),
    LogPower(2.0), LogPower(1.1), IterLog(), IterLog((0.0, 0.0)),
    Tabulated((0.0, 0.5, 1.0, 1e300)), Tabulated((0.0, 2.0, math.inf)),
    EventuallyZero(3, (0.0, 1.0)), ConstantOne(),
]
THRESHOLD_E = [1e-3, 0.05, 0.1, 0.5, 1.0, 2.0, 10.0, 50.0, 1e3, 1e5, 1e10, 1e50, 1e100,
               1e300, 1e305, 1e306, 1e307, 1e308]


class TestThresholdSearch:
    """j_of_eps and d_of_eps meet L(j) < 2E <= L(j+1) wherever j fits a float."""

    @pytest.mark.parametrize("cap", [None, 1, 1000])
    @pytest.mark.parametrize("fam", THRESHOLD_FAMILIES, ids=repr)
    def test_index_brackets_the_budget_or_is_unresolvable(self, fam, cap):
        L = fam.log_inv
        lookups = [(d_of_eps, WeightSeq(fam))]
        if not isinstance(fam, (ConstantOne, EventuallyZero)):
            lookups.append((j_of_eps, EigenSeq(fam)))
        for E in THRESHOLD_E:
            budget = 2.0 * E
            resolvable = fam.limit_zero and L(int(sys.float_info.max)) >= budget
            for index_of, seq in lookups:
                if resolvable:
                    j = index_of(seq, E, cap=cap)
                    assert (j == 0 or L(j) < budget) and budget <= L(j + 1)
                elif cap is None:
                    with pytest.raises(NonCompact):
                        index_of(seq, E)
                else:
                    assert index_of(seq, E, cap=cap) == cap


def integer_search(L, budget):
    """max{j : L(j) < budget} by a doubling gallop and a bisection over the
    integers alone: the reference for the search over doubles."""
    if not (L(1) < budget):
        return 0
    lo, hi = 1, 2
    while L(hi) < budget:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if L(mid) < budget:
            lo = mid
        else:
            hi = mid
    return lo


class Identity:
    """Test-only family with log_inv(j) = float(j), j's nearest double."""

    limit_zero = True

    def log_inv(self, j):
        return float(j)


class TestSearchOverDoubles:
    """Past 2**53 the threshold search bisects doubles; its answer is the
    largest integer that rounds to the last double below the budget."""

    @pytest.mark.parametrize("x", [
        2.0**53 - 1, 2.0**53, 2.0**53 + 2, 2.0**53 + 4, 2.0**54, 2.0**54 + 4, 2.0**54 + 8,
        2.0**60 + 2**8, 2.0**60 + 2**9, math.nextafter(2.0**61, 0.0), 2.0**100, 1e300,
        2.0**1023, math.nextafter(2.0**1023, 0.0), math.nextafter(MAX, 0.0),
    ])
    def test_knife_edges(self, x):
        seq = SimpleNamespace(family=Identity())
        # Below the double after x, exactly the integers that round to x or less qualify.
        j = j_of_eps(seq, math.nextafter(x, math.inf) / 2)
        assert float(j) == x and float(j + 1) > x
        # Below x itself, those that round below x.
        j = j_of_eps(seq, x / 2)
        assert float(j) < x and float(j + 1) == x

    def test_ties_round_to_the_even_mantissa(self):
        seq = SimpleNamespace(family=Identity())
        assert j_of_eps(seq, math.nextafter(2.0**53, math.inf) / 2) == 2**53 + 1
        assert j_of_eps(seq, math.nextafter(2.0**53 + 2, math.inf) / 2) == 2**53 + 2

    def test_past_the_float_range_is_unresolvable(self):
        for cap in (complexity._INDEX_LIMIT, 2**2000):
            assert complexity._max_index_below(float, math.inf, cap) is None

    @pytest.mark.parametrize("fam", THRESHOLD_FAMILIES, ids=repr)
    def test_matches_the_integer_search(self, fam):
        L = fam.log_inv
        rng = random.Random(repr(fam))
        lookups = [(d_of_eps, WeightSeq(fam))]
        if not isinstance(fam, (ConstantOne, EventuallyZero)):
            lookups.append((j_of_eps, EigenSeq(fam)))
        for E in THRESHOLD_E + [10.0 ** rng.uniform(-3.0, 308.0) for _ in range(8)]:
            budget = 2.0 * E  # inf at E = 1e308
            if not (fam.limit_zero and L(complexity._INDEX_LIMIT) >= budget):
                continue
            want = integer_search(L, budget)
            for index_of, seq in lookups:
                for cap in (None, 1, 1000):
                    assert index_of(seq, E, cap=cap) == want
            for cap in (1, 1000, complexity._INDEX_LIMIT):
                got = complexity._max_index_below(L, budget, cap)
                assert got == (want if want <= cap else None)

    def test_calls_at_the_top_of_the_float_range(self, monkeypatch):
        seq, calls = EigenSeq(ExpPower(1.0, 1.0)), []
        scalar = ExpPower.log_inv
        monkeypatch.setattr(ExpPower, "log_inv", lambda self, j: calls.append(j) or scalar(self, j))
        j = j_of_eps(seq, 1e300)
        # The resolvability check, 54 gallop steps to 2**53, 62 bisection steps.
        assert len(calls) <= 117
        monkeypatch.undo()
        assert j == integer_search(ExpPower(1.0, 1.0).log_inv, 2e300)


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
        # 2E / a is past log(float max): the index exceeds the float range,
        # so it is NonCompact, or the cap when one is given.
        fam = PowerLaw(2.0)
        with pytest.raises(NonCompact, match="could not be resolved: the index exceeds the "
                                             "float range$") as j_err:
            j_of_eps(EigenSeq(fam), 1000.0)
        with pytest.raises(NonCompact, match="^weight threshold could not be resolved") as d_err:
            d_of_eps(WeightSeq(fam), 1000.0)
        assert "weight" not in str(j_err.value)
        assert j_of_eps(EigenSeq(fam), 1000.0, cap=5) == 5
        assert d_of_eps(WeightSeq(fam), 1000.0, cap=5) == 5
