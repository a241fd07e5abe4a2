import json
import math
import random
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tensortract import (
    ConstantOne,
    DoubleExpPower,
    EigenSeq,
    EventuallyZero,
    ExpPower,
    InvalidIndex,
    IterLog,
    LogPower,
    PowerLaw,
    SequenceError,
    Tabulated,
    TripleExp,
    WeightSeq,
    d_of_eps,
    family_from_descriptor,
    j_of_eps,
    load_log_table,
)
from tensortract import seqcore
from tensortract.seqcore import SUPER_POLYNOMIAL, _FamilyBase, log_inv_table

EIGEN_FAMILIES = [
    PowerLaw(2.0),
    PowerLaw(0.5),
    ExpPower(1.0, 1.0),
    ExpPower(0.3, 0.5),
    ExpPower(math.log(2.0), 1.0),
    DoubleExpPower(1.0, 1.0),
    DoubleExpPower(0.5, 2.0),
    TripleExp(1.0),
    LogPower(2.0),
    LogPower(1.5),
    IterLog(),
    Tabulated((0.0, 0.5, 1.5, 1.5, math.inf)),
]


class TestEvaluation:
    def test_exp_power_first_is_one(self):
        assert EigenSeq(ExpPower(1.0, 1.0)).L(1) == 0.0

    def test_power_law_value(self):
        got = EigenSeq(PowerLaw(2.0)).L(10)
        assert got == 2.0 * math.log(10.0)

    def test_triple_exp_saturates(self):
        assert math.isinf(EigenSeq(TripleExp(1.0)).L(8))

    def test_constant_one_weight(self):
        assert WeightSeq(ConstantOne()).G(17) == 0.0

    def test_exp_weight_value(self):
        # gamma_k = exp(-(k-1)) so log(1/gamma_4) = 3
        assert WeightSeq(ExpPower(1.0, 1.0)).G(4) == 3.0

    def test_eventually_zero_tail(self):
        seq = WeightSeq(EventuallyZero(3, (0.0, math.log(2.0))))
        assert math.isinf(seq.G(5))
        assert seq.G(2) == math.log(2.0)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_invalid_index(self, bad):
        with pytest.raises(InvalidIndex):
            EigenSeq(PowerLaw(1.0)).L(bad)
        with pytest.raises(InvalidIndex):
            WeightSeq(ConstantOne()).G(bad)

    def test_non_integer_index_rejected(self):
        with pytest.raises(InvalidIndex):
            EigenSeq(PowerLaw(1.0)).L(2.0)


class TestInvariants:
    @pytest.mark.parametrize("fam", EIGEN_FAMILIES, ids=lambda f: repr(f))
    def test_monotone_nondecreasing(self, fam):
        seq = EigenSeq(fam)
        js = sorted({1, 2, 3, 4, 7, 10, 31, 100, 316, 1000, 31622, 10**6})
        vals = [seq.L(j) for j in js]
        for a, b in zip(vals, vals[1:]):
            assert a <= b

    @pytest.mark.parametrize("fam", [f for f in EIGEN_FAMILIES
                                     if not isinstance(f, Tabulated)],
                             ids=lambda f: repr(f))
    def test_first_value_is_exactly_zero(self, fam):
        assert EigenSeq(fam).L(1) == 0.0

    def test_saturation_beats_every_finite_budget(self):
        v = EigenSeq(TripleExp(2.0)).L(100)
        assert math.isinf(v)
        for budget in (1e-300, 1.0, 1e300):
            assert not (v < budget)

    @pytest.mark.parametrize("alpha, beta", [(0.9, 1.0), (0.001, 2.0), (1e-300, 1.0),
                                             (0.5, 3.0), (0.25, 0.5), (2.0, 1.0)])
    def test_exp_power_monotone_across_the_overflow_boundary(self, alpha, beta):
        """Past the first j whose j**beta leaves the float range, alpha * j**beta
        may still be finite (alpha < 1): log_inv must not drop there."""
        fam = ExpPower(alpha, beta)
        lo, hi = 1, 2 ** (int(1024 / beta) + 2)  # j**beta is finite at lo, overflows at hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                math.pow(mid, beta)
                lo = mid
            except OverflowError:
                hi = mid
        offsets = {0} | {sign * k << e for sign in (-1, 1) for k in (1, 3)
                         for e in range(0, hi.bit_length() - 3, 8)}
        js = sorted(hi + o for o in offsets)
        vals = [fam.log_inv(j) for j in js]
        assert vals == sorted(vals)
        assert js[0] <= lo < hi <= js[-1]

    def test_exp_power_past_the_float_range_of_j_to_the_beta(self):
        # 0.001 * j**2 < 2e305 although j**2 overflows: j_eps is sqrt(2) * 1e154.
        j = j_of_eps(EigenSeq(ExpPower(0.001, 2.0)), 1e305)
        assert float(j) == pytest.approx(math.sqrt(2.0) * 1e154, rel=1e-12)
        # With beta < 1 it is j itself that leaves the float range.
        assert ExpPower(0.25, 0.5).log_inv(2**1030) == pytest.approx(2.0**513, rel=1e-12)

    @pytest.mark.parametrize("fam", [
        *(PowerLaw(a) for a in (0.1, 1.0, 7.0)),
        *(ExpPower(alpha, beta) for alpha in (1e-300, 0.001, 1.0, 3.0)
          for beta in (0.1, 0.5, 1.0, 2.0, 3.0)),
        *(DoubleExpPower(alpha, beta) for alpha in (0.1, 1.0) for beta in (0.01, 0.1, 1.0)),
        *(TripleExp(alpha) for alpha in (1e-300, 1e-18, 1.0)),
        *(LogPower(beta) for beta in (1.1, 2.0, 3.0)),
        IterLog(), IterLog((0.0, 0.0)), IterLog((0.0, 0.1, 0.2, 0.3)),
        Tabulated((0.0, 0.5, 1.5, math.inf)), Tabulated((0.0, 1e300)),
        EventuallyZero(3, (0.0, 1.0)), ConstantOne(),
    ], ids=repr)
    def test_log_inv_reads_large_indices_through_float(self, fam):
        """Past 2**53, log_inv(j) depends on j only through float(j): the
        threshold search bisects over doubles there."""
        rng = random.Random(repr(fam))
        top = int(sys.float_info.max)
        js = [2**53, 2**53 + 1, 2**53 + 3, 2**54 - 1, 2**54 + 2, top - 1, top,
              top + 2**970 - 1]
        for _ in range(200):
            e = rng.randrange(53, 1024)
            js.append(rng.randrange(2**e, min(2**(e + 1), top + 1)))
        for j in js:
            assert fam.log_inv(j) == fam.log_inv(int(float(j))), j

    def test_weight_monotone(self):
        seq = WeightSeq(DoubleExpPower(1.0, 1.0))
        vals = [seq.G(k) for k in range(1, 40)]
        assert vals == sorted(vals)
        assert vals[0] == 0.0


#: (family, parameter under test, every parameter as a valid int).
_CLOSED_FORM_PARAMS = [
    (PowerLaw, "a", {"a": 2}),
    (ExpPower, "alpha", {"alpha": 1, "beta": 2}),
    (ExpPower, "beta", {"alpha": 1, "beta": 2}),
    (DoubleExpPower, "alpha", {"alpha": 1, "beta": 2}),
    (DoubleExpPower, "beta", {"alpha": 1, "beta": 2}),
    (TripleExp, "alpha", {"alpha": 1}),
    (LogPower, "beta", {"beta": 2}),
]
#: Values no closed-form parameter takes, with their repr in the message.
_NOT_POSITIVE_FINITE = [(True, "True"), ("2", "'2'"), (None, "None"), (math.nan, "nan"),
                        (math.inf, "inf"), (-math.inf, "-inf"), (0.0, "0.0"), (-1.0, "-1.0")]


class TestConstruction:
    def test_rejects_nonmonotone_table(self):
        with pytest.raises(SequenceError):
            Tabulated((0.0, 1.0, 0.5))

    def test_rejects_negative_table(self):
        with pytest.raises(SequenceError):
            Tabulated((-0.5, 1.0))

    def test_rejects_bad_params(self):
        with pytest.raises(SequenceError):
            PowerLaw(0.0)
        with pytest.raises(SequenceError):
            ExpPower(-1.0, 1.0)
        with pytest.raises(SequenceError):
            LogPower(1.0)  # needs beta > 1
        with pytest.raises(SequenceError):
            TripleExp(math.inf)
        with pytest.raises(SequenceError):
            PowerLaw(True)
        with pytest.raises(SequenceError):
            ExpPower(1.0, False)

    @pytest.mark.parametrize("cls, name, ints", _CLOSED_FORM_PARAMS,
                             ids=[f"{cls.name}.{name}" for cls, name, _ in _CLOSED_FORM_PARAMS])
    def test_parameter_messages_are_pinned(self, cls, name, ints):
        # Integer parameters are stored, and described, as floats.
        want = {"family": cls.name, **{k: float(v) for k, v in ints.items()}}
        assert json.dumps(cls(**ints).descriptor()) == json.dumps(want)
        cases = [(bad, f"{name} must be a positive finite number, got {text}")
                 for bad, text in _NOT_POSITIVE_FINITE]
        if cls is LogPower:
            cases += [(1, "beta must exceed 1, got 1"), (0.5, "beta must exceed 1, got 0.5")]
        for bad, message in cases:
            with pytest.raises(SequenceError) as exc:
                cls(**{**ints, name: bad})
            assert str(exc.value) == message

    @pytest.mark.parametrize("make, message", [
        (lambda: IterLog((0.0,)), "prefix must cover at least indices 1 and 2"),
        (lambda: IterLog((0.0, math.inf)), "table entry 2 must be finite"),
        (lambda: Tabulated(()), "table must be non-empty"),
        (lambda: Tabulated([None, 1.0]), "table entry must be a number, got None"),
        (lambda: EventuallyZero(0, ()), "j_star must be a positive integer, got 0"),
        (lambda: EigenSeq(3.0), "not a sequence family: 3.0"),
        (lambda: WeightSeq("x"), "not a sequence family: 'x'"),
    ], ids=["iter_log-short", "iter_log-inf", "tabulated-empty", "tabulated-none",
            "eventually_zero-j_star", "eigen-not-a-family", "weight-not-a-family"])
    def test_construction_messages(self, make, message):
        with pytest.raises(SequenceError) as exc:
            make()
        assert str(exc.value) == message

    def test_eigen_rejects_weight_only_families(self):
        with pytest.raises(SequenceError):
            EigenSeq(ConstantOne())
        with pytest.raises(SequenceError):
            EigenSeq(EventuallyZero(3, (0.0, 1.0)))

    def test_eigen_rejects_vanishing_second_value(self):
        with pytest.raises(SequenceError):
            EigenSeq(Tabulated((0.0,)))
        with pytest.raises(SequenceError):
            EigenSeq(Tabulated((0.0, math.inf)))

    def test_eventually_zero_prefix_length(self):
        with pytest.raises(SequenceError):
            EventuallyZero(4, (0.0,))

    def test_iterlog_prefix_junction(self):
        with pytest.raises(SequenceError):
            IterLog((0.0, 5.0))  # prefix above the tail value at j = 3

    def test_unnormalized_table_allowed(self):
        seq = EigenSeq(Tabulated((math.e, 10.0)))
        assert seq.L(1) == math.e

    @given(st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=2, max_size=12))
    def test_sorted_tables_always_accepted(self, vals):
        Tabulated(tuple(sorted(vals)))


class TestSerialization:
    def test_descriptor_round_trip(self):
        for fam in EIGEN_FAMILIES + [ConstantOne(), EventuallyZero(3, (0.0, 1.0))]:
            desc = fam.descriptor()
            assert family_from_descriptor(desc) == fam

    def test_unknown_family_rejected(self):
        with pytest.raises(SequenceError):
            family_from_descriptor({"family": "mystery"})

    @pytest.mark.parametrize("desc, message", [
        ([1], "family descriptor must be a dict with a 'family' key, got [1]"),
        ({"family": "power_law", "a": 2.0, "b": 1},
         "unknown parameters ['b'] for family 'power_law'"),
        ({"family": "exp_power", "alpha": 1.0}, "bad parameters for family 'exp_power': "),
    ], ids=["not-a-dict", "unknown-parameter", "missing-parameter"])
    def test_malformed_descriptors_rejected(self, desc, message):
        with pytest.raises(SequenceError) as exc:
            family_from_descriptor(desc)
        assert str(exc.value).startswith(message)

    @pytest.mark.parametrize("line, message", [
        ("2 0.5 1.0", "expected 'index value'"), ("2", "expected 'index value'"),
        ("two 0.5", "unparsable entry"), ("2 half", "unparsable entry"),
    ])
    def test_malformed_table_lines(self, tmp_path, line, message):
        path = tmp_path / "t.txt"
        path.write_text(f"1 0.0\n{line}\n")
        with pytest.raises(SequenceError) as exc:
            load_log_table(path)
        assert str(exc.value).startswith(f"{path}:2: {message}")

    def test_table_file_round_trip(self, tmp_path):
        values = (0.0, 0.1 + 0.2, math.pi, 1e300, math.inf)
        path = tmp_path / "table.txt"
        path.write_text("".join(f"{i} {v!r}\n" for i, v in enumerate(values, start=1)))
        back = load_log_table(path)
        assert back == values  # bit-identical via repr round trip

    def test_table_file_comments_and_errors(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("# header\n1 0.0\n2 0.5 # trailing comment\n\n3 1.5\n")
        assert load_log_table(path) == (0.0, 0.5, 1.5)
        path.write_text("1 0.0\n3 0.5\n")
        with pytest.raises(SequenceError):
            load_log_table(path)
        path.write_text("1 0.5\n2 0.1\n")
        with pytest.raises(SequenceError):
            load_log_table(path)


_PREFIXES = st.lists(st.floats(min_value=0.0, max_value=20.0), max_size=10).map(
    lambda vals: tuple(sorted(vals)))


class TestTableFamilies:
    """A table with a zero tail reads the same as Tabulated or as EventuallyZero."""

    @given(_PREFIXES, st.lists(st.floats(min_value=0.0, max_value=25.0), max_size=5))
    def test_tabulated_and_eventually_zero_agree(self, prefix, budgets):
        tab = Tabulated(prefix + (math.inf,))
        ez = EventuallyZero(len(prefix) + 1, prefix)
        js = range(1, len(prefix) + 4)  # runs past the end of both tables
        assert [tab.log_inv(j) for j in js] == [ez.log_inv(j) for j in js]
        tw, ew = WeightSeq(tab), WeightSeq(ez)
        for budget in [*prefix, *budgets]:
            if budget / 2 > 0.0:
                assert d_of_eps(tw, budget / 2) == d_of_eps(ew, budget / 2)
        # The largest finite E, whose budget 2E overflows to inf.
        assert d_of_eps(tw, sys.float_info.max) == d_of_eps(ew, sys.float_info.max) == len(prefix)
        for c in (0.5, 1.0, 2.0):
            assert tab.summable(c) is True and ez.summable(c) is True
            for J in range(1, len(prefix) + 3):
                # Tabulated sums one more (zero) term, which numpy's pairwise
                # summation may group differently: equal up to rounding.
                assert tab.tail_bound(c, J) == pytest.approx(ez.tail_bound(c, J), rel=1e-14)


_LOG_INV_BITS = json.loads((Path(__file__).parent / "log_inv_bits.json").read_text())


@pytest.mark.parametrize("pin", _LOG_INV_BITS["pins"],
                         ids=[json.dumps(p["family"]) for p in _LOG_INV_BITS["pins"]])
def test_log_inv_bits_are_pinned(pin):
    """float.hex of log_inv at small, 2**53-adjacent and float-overflowing
    indices, with parameters at the overflow edges of each formula.  The
    pins were written by the formulas themselves; counts and CLI bytes
    depend on every bit of them."""
    fam = family_from_descriptor(pin["family"])
    assert [float.hex(fam.log_inv(j)) for j in _LOG_INV_BITS["j"]] == pin["hex"]


#: Every family, with parameters at the overflow edges of each formula: the
#: scalar log_inv overflows from j = 11 for ExpPower(1, 300), j = 374 for
#: LogPower(400), j = 2 for DoubleExpPower(709, 1) and j = 14 for
#: TripleExp(0.5), and every index of DoubleExpPower(710, 1) and
#: TripleExp(7) overflows.  The custom IterLog prefix ends at index 100,
#: the tables at 3,001 and 1,499 entries.
_TABLE_FAMILIES = [
    PowerLaw(2.0), PowerLaw(1e300),
    ExpPower(1.0, 300.0), ExpPower(0.001, 2.0), ExpPower(1.0, 1.0), ExpPower(0.25, 0.5),
    LogPower(150.0), LogPower(400.0), LogPower(2.0),
    IterLog(), IterLog(tuple(0.07 * i for i in range(100))),
    DoubleExpPower(709.0, 1.0), DoubleExpPower(710.0, 1.0), DoubleExpPower(0.2, 0.5),
    TripleExp(0.5), TripleExp(7.0),
    Tabulated(tuple(0.01 * j for j in range(3000)) + (math.inf,)),
    EventuallyZero(1500, tuple(0.01 * j for j in range(1499))),
    ConstantOne(),
]

#: Ranges across index 1, the IterLog prefix junction (101), the indices
#: 1,024 and 2,048, the block edges 2,050 and 4,098 (blocks of
#: 2,048 from index 2), each overflow edge above, the table ends, and
#: 2**53, past which tables map the scalar log_inv; empty and short ones.
_TABLE_RANGES = [(1, 70), (1, 5000), (3, 4200), (90, 200), (1000, 1100), (2000, 2100),
                 (10, 100), (300, 2500), (8, 20), (7, 7), (2**53 - 3000, 2**53 + 1),
                 (2**53 - 100, 2**53 + 100)]


def _hex_table(fam, lo, hi):
    return [float.hex(float(v)) for v in log_inv_table(fam, lo, hi)]


def _hex_scalar(fam, lo, hi):
    return [float.hex(fam.log_inv(j)) for j in range(lo, hi)]


#: A table of 5,000 entries whose last ten are zeros (inf).
_TABLE_VALUES = tuple(0.01 * j for j in range(4990)) + (math.inf,) * 10


class TestLogInvTable:
    """log_inv_table is the scalar log_inv bit for bit: the blocks map the
    same math calls, and numpy's + - * round as Python's do."""

    @pytest.mark.parametrize("lo,hi", _TABLE_RANGES)
    @pytest.mark.parametrize("fam", _TABLE_FAMILIES, ids=repr)
    def test_table_bits_match_the_scalar(self, fam, lo, hi):
        table = log_inv_table(fam, lo, hi)
        assert table.dtype == np.float64 and table.shape == (hi - lo,)
        assert _hex_table(fam, lo, hi) == _hex_scalar(fam, lo, hi)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(_TABLE_FAMILIES), st.integers(1, 2**53), st.integers(0, 2500))
    def test_random_ranges(self, fam, lo, n):
        hi = min(lo + n, 2**53 + 1)
        assert _hex_table(fam, lo, hi) == _hex_scalar(fam, lo, hi)

    @pytest.mark.parametrize("pin", _LOG_INV_BITS["pins"],
                             ids=[json.dumps(p["family"]) for p in _LOG_INV_BITS["pins"]])
    def test_pinned_points(self, pin):
        """A table from each pinned index up to 2**53 starts with the pin."""
        fam = family_from_descriptor(pin["family"])
        for j, want in zip(_LOG_INV_BITS["j"], pin["hex"]):
            if j <= 2**53 - 100:
                got = _hex_table(fam, j, j + 100)
                assert got[0] == want
                assert got == _hex_scalar(fam, j, j + 100)

    @pytest.mark.parametrize("fam, values", [
        (Tabulated(_TABLE_VALUES), _TABLE_VALUES), (Tabulated(_TABLE_VALUES[:4990]), _TABLE_VALUES[:4990]),
        (EventuallyZero(4991, _TABLE_VALUES[:4990]), _TABLE_VALUES[:4990])],
        ids=["tabulated_zeros", "tabulated", "eventually_zero"])
    @pytest.mark.parametrize("n", [40, 64, 3000])
    @pytest.mark.parametrize("past", [-10, 0, 1, 2500])
    def test_ranges_across_a_table_end(self, fam, values, n, past):
        """A range of n entries whose last index lies ``past`` indices past the
        table's end reads the entries, then inf: mapped below 64 entries, in
        blocks from 64, and in more than one block past 2,048."""
        hi = len(values) + past + 1
        lo = hi - n
        want = [float.hex(v) for v in (values + (math.inf,) * max(past, 0))[lo - 1:hi - 1]]
        assert _hex_table(fam, lo, hi) == want == _hex_scalar(fam, lo, hi)


class TestLogInvTablePath:
    """log_inv_table picks its path by the family's log_inv at call time: a
    wrapper installed on the shared method keeps the blocks, tables
    included, while a subclass override or a patch on one class is mapped."""

    @pytest.mark.parametrize("fam, head", [
        (PowerLaw(2.0), 0), (ExpPower(0.25, 0.5), 1), (LogPower(2.0), 1),
        (IterLog(tuple(0.07 * i for i in range(100))), 100), (DoubleExpPower(0.2, 0.5), 1),
        (TripleExp(0.001), 1), (Tabulated(tuple(0.01 * j for j in range(600)) + (math.inf,) * 50), 650),
        (EventuallyZero(500, tuple(0.01 * j for j in range(499))), 499), (EventuallyZero(1, ()), 0)],
        ids=["power_law", "exp_power", "log_power", "iter_log_long_prefix", "double_exp", "triple_exp",
             "tabulated", "eventually_zero", "eventually_zero_empty"])
    def test_a_wrapped_shared_method_keeps_the_blocks(self, fam, head, monkeypatch):
        want = _hex_table(fam, 1, 5000)
        shared, formula = _FamilyBase.log_inv, type(fam)._formula
        scalar, blocks = [], []
        monkeypatch.setattr(_FamilyBase, "log_inv",
                            lambda self, j: scalar.append(j) or shared(self, j))
        monkeypatch.setattr(type(fam), "_formula", lambda self, j, m:
                            (m is not math and blocks.append(j)) or formula(self, j, m))
        assert _hex_table(fam, 1, 5000) == want
        assert scalar == []  # the head is sliced, not mapped
        assert len(blocks) == 3 and np.concatenate(blocks).tolist() == list(range(head + 1, 5000))

    def test_a_wrapped_shared_method_maps_only_overflowing_blocks(self, monkeypatch):
        """ExpPower(1, 300) overflows from j = 11: the first block maps the
        wrapped method, whose _overflowed gives the value there."""
        fam = ExpPower(1.0, 300.0)
        want = _hex_table(fam, 2, 3000)
        shared = _FamilyBase.log_inv
        scalar = []
        monkeypatch.setattr(_FamilyBase, "log_inv",
                            lambda self, j: scalar.append(j) or shared(self, j))
        assert _hex_table(fam, 2, 3000) == want
        assert scalar == list(range(2, 3000))

    def test_a_subclass_override_is_mapped(self):
        class Shifted(PowerLaw):
            def log_inv(self, j):
                return PowerLaw.log_inv(self, j) + 1.0

        fam = Shifted(0.5)
        assert _hex_table(fam, 1, 3000) == [float.hex(0.5 * math.log(j) + 1.0)
                                            for j in range(1, 3000)]

    def test_a_patched_class_is_mapped(self, monkeypatch):
        fam = ExpPower(1.0, 1.0)
        want = _hex_table(fam, 2, 3000)
        scalar, calls = ExpPower.log_inv, []
        monkeypatch.setattr(ExpPower, "log_inv", lambda self, j: calls.append(j) or scalar(self, j))
        assert _hex_table(fam, 2, 3000) == want
        assert calls == list(range(2, 3000))


#: The families whose _formula takes log of the block's own indices:
#: PowerLaw reads only that log, LogPower and IterLog take a second log of it.
_INDEX_LOG_FAMILIES = [PowerLaw(2.0), PowerLaw(1e300), LogPower(2.0), IterLog(),
                       IterLog(tuple(0.07 * i for i in range(100)))]

#: Ranges across powers of two up to 2**17 and across 2**17, past which
#: blocks map math.log; in shuffled order, a range may start past the end of
#: the shared log(j) table, inside it, or at it, and a long one fills most
#: of it at once.
_INDEX_LOG_RANGES = [(1, 70), (2000, 2100), (4000, 4200), (8150, 8250), (16300, 16400),
                     (32700, 32800), (65500, 65600), (2**17 - 3000, 2**17 + 3000),
                     (2**17 - 70, 2**17 + 2), (2**17, 2**17 + 100), (3, 40000)]


class TestIndexLogs:
    """The blocks read log(j) of their own indices from one table shared by
    every log_inv_table call, math.log(j) for j up to 2**17, filled on first
    need: the tables keep the scalar bits whatever order they are built in."""

    @pytest.fixture(autouse=True)
    def cold(self, monkeypatch):
        monkeypatch.setattr(seqcore, "_index_logs", np.empty(0))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_cold_table_in_shuffled_order(self, seed):
        cases = [(fam, lo, hi) for fam in _INDEX_LOG_FAMILIES for lo, hi in _INDEX_LOG_RANGES]
        random.Random(seed).shuffle(cases)
        for fam, lo, hi in cases:
            assert _hex_table(fam, lo, hi) == _hex_scalar(fam, lo, hi), (fam, lo, hi)
        logs = seqcore._index_logs
        assert 40000 <= len(logs) <= 2**17 and not logs.flags.writeable
        assert [float.hex(v) for v in logs.tolist()] == [float.hex(math.log(j))
                                                          for j in range(1, len(logs) + 1)]

    def test_the_table_stops_at_its_cap(self):
        fam = PowerLaw(1.0)
        assert _hex_table(fam, 1, 2**17 + 3000) == _hex_scalar(fam, 1, 2**17 + 3000)
        assert len(seqcore._index_logs) == 2**17

    def test_only_the_blocks_own_indices_are_served(self):
        """An array derived from j, even one equal to a slice of the shared
        table's indices, is mapped, not served from the table."""
        class Shifted(PowerLaw):
            def _formula(self, j, m):
                return self.a * m.log(j + 1.0)

        fam = Shifted(1.0)
        for _ in ("cold", "warm"):
            assert _hex_table(fam, 1, 5000) == _hex_scalar(fam, 1, 5000) == [
                float.hex(math.log(j + 1)) for j in range(1, 5000)]
            log_inv_table(PowerLaw(1.0), 1, 5000)


_GROWTH_BITS = json.loads((Path(__file__).parent / "growth_bits.json").read_text())


def _growth_hex(growth):
    if growth is SUPER_POLYNOMIAL:
        return "super_polynomial"
    return {f.name: float.hex(getattr(growth, f.name)) for f in fields(growth)}


@pytest.mark.parametrize("pin", _GROWTH_BITS, ids=[json.dumps(p["family"]) for p in _GROWTH_BITS])
def test_growth_bits_are_pinned(pin):
    """Every Growth field of threshold_growth and log_threshold_growth as
    float.hex, on parameters where 1/(1/a) != a, a reciprocal overflows or
    underflows, and tables have 0, 1, 2 or many finite entries.  A family
    without limit_zero has no threshold growth, and a weight-only family is
    never asked for a log-threshold growth, so their pins leave them out."""
    fam = family_from_descriptor(pin["family"])
    assert fam.limit_zero is ("threshold_growth" in pin)
    if fam.limit_zero:
        assert _growth_hex(fam.threshold_growth()) == pin["threshold_growth"]
    if "log_threshold_growth" in pin:
        assert _growth_hex(fam.log_threshold_growth()) == pin["log_threshold_growth"]


class TestFamilyRules:
    """summable and tail_bound against their closed forms, on a grid where
    a * c is exactly 1, just above 1, and past the float range."""

    A = (0.5, 1.0, 2.0, 4.0, 1e300)
    C = (0.25, 0.5, 1.0, math.nextafter(1.0, math.inf), 2.0, 1e10, 1e300)
    JS = (2, 3, 64, 2**22, 10**15)

    def test_power_law(self):
        products = {a * c for a in self.A for c in self.C}
        assert {1.0, math.nextafter(1.0, math.inf), math.inf} <= products
        for a in self.A:
            fam = PowerLaw(a)
            for c in self.C:
                p = a * c
                assert fam.summable(c) is (p > 1.0)
                for J in self.JS:
                    got = fam.tail_bound(c, J)
                    if p <= 1.0:
                        assert got is None
                    else:
                        assert float.hex(got) == float.hex(math.pow(J, 1.0 - p) / (p - 1.0))

    def test_constant_one_and_tables(self):
        tables = (Tabulated((0.0, 0.5, math.inf)), EventuallyZero(3, (0.0, 0.5)),
                  EventuallyZero(1, ()))
        for c in self.C:
            assert ConstantOne().summable(c) is False
            for fam in tables:
                assert fam.summable(c) is True
