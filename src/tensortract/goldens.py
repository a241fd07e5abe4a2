"""Reference eigenvalue/weight pairs exercised by the audit suites and tests.

Each pair keeps both sandwich sides at desk scale on its audit grid: the
amplified-budget count on the right of the sandwich grows like
j_eps**d_eps, so only fast-decaying combinations are auditable exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .seqcore import (
    DoubleExpPower,
    EigenSeq,
    EventuallyZero,
    ExpPower,
    IterLog,
    Tabulated,
    TripleExp,
    WeightSeq,
)

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class GoldenPair:
    name: str
    lam: EigenSeq
    gam: WeightSeq
    audit_E: tuple
    audit_d: tuple


#: Dyadic eigenvalues 2**-(j-1) with singly-exponential weights.
DYADIC_EXP = GoldenPair(
    "dyadic_exp_weights",
    EigenSeq(ExpPower(_LN2, 1.0)),
    WeightSeq(ExpPower(1.0, 1.0)),
    (0.7, 1.3, 2.0),
    (1, 2, 5),
)

#: Dyadic eigenvalues with the two-entry weight table (1/2, 1/4).
DYADIC_TAB = GoldenPair(
    "dyadic_tabulated_weights",
    EigenSeq(ExpPower(_LN2, 1.0)),
    WeightSeq(Tabulated((_LN2, 2.0 * _LN2))),
    (0.9, 1.4, 2.1),
    (2, 3),
)

#: Doubly-exponential decay on both sides (equal shape parameters).
DOUBLE_EXP_SHARP = GoldenPair(
    "double_exp_sharp",
    EigenSeq(DoubleExpPower(1.0, 1.0)),
    WeightSeq(DoubleExpPower(1.0, 1.0)),
    (10.0, 100.0, 1000.0),
    (2, 10),
)

#: Doubly-exponential eigenvalues with faster (beta = 2) weight decay.
DOUBLE_EXP_SMOOTH = GoldenPair(
    "double_exp_smooth",
    EigenSeq(DoubleExpPower(1.0, 1.0)),
    WeightSeq(DoubleExpPower(1.0, 2.0)),
    (10.0, 100.0, 1000.0),
    (2, 10),
)

#: Doubly-exponential eigenvalues with triply-exponential weights.
DOUBLE_TRIPLE = GoldenPair(
    "double_exp_triple_weights",
    EigenSeq(DoubleExpPower(1.0, 1.0)),
    WeightSeq(TripleExp(1.0)),
    (100.0, 1e4),
    (3, 8),
)

#: Dyadic eigenvalues with a hard zero weight tail after index 3.
ZERO_TAIL = GoldenPair(
    "zero_tail_weights",
    EigenSeq(ExpPower(_LN2, 1.0)),
    WeightSeq(EventuallyZero(4, (0.0, _LN2, _LN2))),
    (1.0, 2.5, 6.0),
    (2, 6),
)

GOLDEN_PAIRS = (DYADIC_EXP, DYADIC_TAB, DOUBLE_EXP_SHARP, DOUBLE_EXP_SMOOTH,
                DOUBLE_TRIPLE, ZERO_TAIL)


def iterated_log_pair() -> GoldenPair:
    """Slowly decaying eigenvalues j**(-loglog j) with 32 weights 1/log(k+2)."""
    gam = WeightSeq(Tabulated(tuple(math.log(math.log(k + 2.0)) for k in range(1, 33))))
    return GoldenPair("iterated_log_decay", EigenSeq(IterLog()), gam, (0.5, 1.0), (2, 4))
