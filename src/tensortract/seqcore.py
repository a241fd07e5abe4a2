"""Log-domain sequence families for eigenvalues and product weights.

Everything downstream works with T = log(1/x) for x in [0, 1] (natural log):
products of eigenvalues become additive costs, error thresholds become
additive budgets, and underflow disappears.  T = +inf encodes x = 0, and
saturating to +inf is order-correct for every threshold comparison made by
the counting and classification layers.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass, fields
from functools import partial
from itertools import repeat, starmap
from typing import ClassVar

import numpy as np

from .errors import InvalidIndex, SequenceError

#: Every integer up to here is a double; past it the threshold search steps
#: over doubles, and tables map the scalar log_inv.
_EXACT_LIMIT = 2**53


def _saturated(f, *args) -> float:
    """f(*args) with overflow saturated to +inf."""
    try:
        return f(*args)
    except OverflowError:
        return math.inf


def _as_float(name: str, value, kind: str = "a number") -> float:
    """float(value); a boolean, a string other than "inf" (the reports' spelling
    of an infinite entry), or a value that float rejects, is a SequenceError."""
    try:
        if isinstance(value, bool) or (isinstance(value, str) and value != "inf"):
            raise TypeError(value)
        return float(value)
    except (TypeError, ValueError):
        raise SequenceError(f"{name} must be {kind}, got {value!r}") from None


def _positive_param(name: str, value) -> float:
    v = _as_float(name, value, "a positive finite number")
    if not math.isfinite(v) or v <= 0.0:
        raise SequenceError(f"{name} must be a positive finite number, got {value!r}")
    return v


def _table_entries(name: str, values) -> tuple:
    """Entries of a list or tuple as floats under ``_as_float``'s checks, in one
    map when none is a boolean or a string."""
    if not isinstance(values, (list, tuple)):
        raise SequenceError(f"{name} must be a list of numbers, got {values!r}")
    kinds = set(map(type, values))
    if bool not in kinds and str not in kinds:
        try:
            return tuple(map(float, values))
        except (TypeError, ValueError):
            pass
    return tuple(_as_float(f"{name} entry", v) for v in values)


@dataclass(frozen=True)
class RatioClass:
    """Analytic behaviour of (log(1/x_j))**s / log j as j grows."""

    kind: str  # "diverges" | "bounded"
    limit: float  # +inf for diverges, the limit value otherwise


DIVERGES = RatioClass("diverges", math.inf)


@dataclass(frozen=True)
class Growth:
    """Leading-order growth coef * exp(e*B) * B**p * (log B)**q * (loglog B)**r * (logloglog B)**u.

    The exponent tuple is ordered by dominance, so a lexicographic sign test
    on (e, p, q, r, u) decides the limit of the expression as B -> inf.
    """

    coef: float
    e: float = 0.0
    p: float = 0.0
    q: float = 0.0
    r: float = 0.0
    u: float = 0.0

    def mul(self, other: "Growth") -> "Growth":
        return Growth(self.coef * other.coef, self.e + other.e, self.p + other.p,
                      self.q + other.q, self.r + other.r, self.u + other.u)

    def div(self, other: "Growth") -> "Growth":
        return Growth(self.coef / other.coef, self.e - other.e, self.p - other.p,
                      self.q - other.q, self.r - other.r, self.u - other.u)

    def limit(self) -> float:
        """Limit as B -> inf: 0.0, the coefficient, or +inf."""
        for a in (self.e, self.p, self.q, self.r, self.u):
            if a > 0.0:
                return math.inf
            if a < 0.0:
                return 0.0
        return self.coef

    def log(self) -> "Growth | None":
        """Leading term of log(self); None when it degenerates or leaves the taxonomy."""
        if self.e > 0.0:
            return Growth(self.e, p=1.0)
        if self.p > 0.0:
            return Growth(self.p, q=1.0)
        if self.q > 0.0:
            return Growth(self.q, r=1.0)
        if self.r > 0.0:
            return Growth(self.r, u=1.0)
        if self.u > 0.0:
            return None
        if self.coef > 1.0:
            return Growth(math.log(self.coef))
        return None


#: The comparison scale log(B) used by the limit estimators.
LOG_BUDGET = Growth(1.0, q=1.0)


@dataclass(frozen=True)
class SuperPolynomial:
    """Marker for thresholds growing faster than any power of the budget
    (but sub-exponentially), outside the Growth taxonomy."""


SUPER_POLYNOMIAL = SuperPolynomial()


class _FamilyBase:
    """Shared defaults for sequence families.

    A family's dataclass fields are parameters, positive finite floats that
    the base ``__post_init__`` checks, so a family adds only its own rules
    (a table family checks its tables itself).  A family defines only what
    cannot be derived from its other facts: log_inv(j) = log(1/x_j) and
    ``ratio_class`` always; ``threshold_growth``, the growth of the index
    count above a threshold, when ``limit_zero``; and ``log_threshold_growth``
    only when that growth is super-polynomial, since otherwise it is the
    leading term of the log of ``threshold_growth``.
    Threshold indices are searched on ``log_inv`` alone, and that search
    terminates exactly when ``limit_zero``.  ``log_inv`` never decreases,
    and for j from 2**53 to ``int(sys.float_info.max)`` it reads j only
    through float(j) (``math.log`` and ``math.pow`` convert such an int to
    its nearest double, ``alpha * j`` multiplies by it, and a table is
    constant past its end), so the search bisects over doubles there.

    A closed form, tables included, gives log_inv as data for the shared
    ``log_inv`` below: its arithmetic, once, as ``_formula(j, m)``;
    ``_head``, the values below index ``_formula_start`` (copied onto each
    instance by ``_set``, where ``log_inv`` reads it faster; a table's
    entries, whose formula is infinite); and ``_overflowed(j)``, the value
    where a math call overflows.  ``log_inv_table`` slices the same
    ``_head`` and runs the same formula on blocks of indices, whose log(j)
    it may read from a shared table, so ``_formula`` must not write into
    ``m.log(j)``.
    """

    name: ClassVar[str]
    limit_zero: ClassVar[bool] = True      # x_j -> 0
    all_ones: ClassVar[bool] = False       # x_j == 1 for every j
    _formula_start: ClassVar[int] = 2      # first index of _formula
    _head: ClassVar[tuple] = (0.0,)        # log_inv below _formula_start: x_1 = 1
    _geometric_tail: ClassVar[bool] = False  # increments never decrease: tail_bound is geometric

    def log_inv(self, j: int) -> float:
        if j < self._formula_start:
            return self._head[j - 1]
        try:
            return self._formula(j, math)
        except OverflowError:
            return self._overflowed(j)

    def __post_init__(self):
        self._set(**{f.name: _positive_param(f.name, getattr(self, f.name))
                     for f in fields(self)})

    def _overflowed(self, j: int) -> float:
        """log_inv(j) where a math call of ``_formula`` overflows."""
        return math.inf

    def _set(self, **attrs) -> None:
        """Set attributes on the frozen instance, ``_formula_start`` too."""
        for name, value in {"_formula_start": self._formula_start, **attrs}.items():
            object.__setattr__(self, name, value)

    def log_threshold_growth(self) -> Growth:
        """Leading term of log of the threshold growth; 0 for a table with at
        most one finite entry, whose log count does not grow."""
        return self.threshold_growth().log() or Growth(0.0)

    def summable(self, c: float) -> bool:
        """Whether sum_j x_j**c converges."""
        rc = self.ratio_class(1.0)
        if rc.kind == "diverges":
            return True
        if rc.limit == 0.0:
            return False
        prod = c * rc.limit
        return prod > 1.0

    def _tail_exponent(self, c: float, J: int) -> float | None:
        """Lower bound on c * log_inv(j)/log(j) over j >= J, when available."""
        return None

    def tail_bound(self, c: float, J: int) -> float | None:
        """Upper bound on sum_{j > J} x_j**c, or None when unavailable."""
        if self._geometric_tail:
            l1 = self.log_inv(J + 1)
            if math.isinf(l1):
                return 0.0
            t1 = math.exp(-c * l1)
            l2 = self.log_inv(J + 2)
            if math.isinf(l2):
                return t1
            delta = l2 - l1
            if delta <= 0.0:
                return None
            rho = math.exp(-c * delta)
            if rho >= 1.0:
                return None
            # tiny inflation keeps the reported bound conservative under the
            # float rounding of t1 and rho
            return t1 / (1.0 - rho) * (1.0 + 1e-12)
        p = self._tail_exponent(c, J)
        if p is None or p <= 1.0 or not math.isfinite(p):
            if p is not None and math.isinf(p):
                return 0.0
            return None
        return math.pow(J, 1.0 - p) / (p - 1.0)

    def descriptor(self) -> dict:
        out = {"family": self.name}
        for f in fields(self):  # type: ignore[arg-type]
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out


@dataclass(frozen=True)
class PowerLaw(_FamilyBase):
    """x_j = j**(-a); log_inv(j) = a * log(j)."""

    a: float
    name: ClassVar[str] = "power_law"
    _formula_start: ClassVar[int] = 1
    _head: ClassVar[tuple] = ()

    def _formula(self, j, m):
        return self.a * m.log(j)

    def threshold_growth(self) -> Growth:
        return Growth(1.0, e=1.0 / self.a)

    def ratio_class(self, s: float) -> RatioClass:
        if s > 1.0:
            return DIVERGES
        if s == 1.0:
            return RatioClass("bounded", self.a)
        return RatioClass("bounded", 0.0)

    def _tail_exponent(self, c: float, J: int) -> float:
        return self.a * c


@dataclass(frozen=True)
class ExpPower(_FamilyBase):
    """x_j = exp(-alpha * (j**beta - 1)); the j = 1 exponent is subtracted so x_1 = 1."""

    alpha: float
    beta: float
    name: ClassVar[str] = "exp_power"

    def _formula(self, j, m):
        return self.alpha * (m.pow(j, self.beta) - 1.0)

    def _overflowed(self, j: int) -> float:
        # j or j**beta is past the float range, alpha * j**beta need not be;
        # the clamp, the largest value of the formula (reached at j = MAX
        # when beta < 1), keeps log_inv non-decreasing.
        return max(self.alpha * math.pow(sys.float_info.max, min(self.beta, 1.0)),
                   _saturated(math.exp, math.log(self.alpha) + self.beta * math.log(j)))

    def threshold_growth(self) -> Growth:
        return Growth(_saturated(math.pow, self.alpha, -1.0 / self.beta), p=1.0 / self.beta)

    def ratio_class(self, s: float) -> RatioClass:
        return DIVERGES

    @property
    def _geometric_tail(self) -> bool:
        return self.beta >= 1.0

    def _tail_exponent(self, c: float, J: int) -> float | None:
        # log_inv(j)/log(j) is unimodal with a dip near exp(1/beta); take the
        # minimum over that dip and J to lower-bound the exponent on [J, inf).
        cands = {max(2, J)}
        dip = _saturated(math.exp, 1.0 / self.beta)
        if math.isfinite(dip) and dip < 2**40:
            base = int(dip)
            cands.update(x for x in (base, base + 1) if x >= max(2, J))
        return c * min(self.log_inv(x) / math.log(x) for x in cands)


@dataclass(frozen=True)
class DoubleExpPower(_FamilyBase):
    """x_j = exp(-(exp(alpha * j**beta) - exp(alpha))); normalized so x_1 = 1."""

    alpha: float
    beta: float
    name: ClassVar[str] = "double_exp_power"
    _geometric_tail: ClassVar[bool] = True

    def _formula(self, j, m):
        return m.exp(self.alpha * m.pow(j, self.beta)) - math.exp(self.alpha)

    def threshold_growth(self) -> Growth:
        return Growth(_saturated(math.pow, self.alpha, -1.0 / self.beta), q=1.0 / self.beta)

    def ratio_class(self, s: float) -> RatioClass:
        return DIVERGES


@dataclass(frozen=True)
class TripleExp(_FamilyBase):
    """x_j = exp(-(exp(exp(alpha * j)) - exp(exp(alpha)))); normalized so x_1 = 1."""

    alpha: float
    name: ClassVar[str] = "triple_exp"
    _geometric_tail: ClassVar[bool] = True

    def _formula(self, j, m):
        return m.exp(m.exp(self.alpha * j)) - math.exp(math.exp(self.alpha))

    def threshold_growth(self) -> Growth:
        return Growth(1.0 / self.alpha, r=1.0)

    def ratio_class(self, s: float) -> RatioClass:
        return DIVERGES


@dataclass(frozen=True)
class LogPower(_FamilyBase):
    """x_j = exp(-(log j)**beta) for beta > 1; x_1 = 1 automatically."""

    beta: float
    name: ClassVar[str] = "log_power"

    def __post_init__(self):
        raw = self.beta  # the message shows beta as given, not as a float
        super().__post_init__()
        if self.beta <= 1.0:
            raise SequenceError(f"beta must exceed 1, got {raw!r}")

    def _formula(self, j, m):
        return m.pow(m.log(j), self.beta)

    def threshold_growth(self):
        return SUPER_POLYNOMIAL

    def log_threshold_growth(self) -> Growth:
        return Growth(1.0, p=1.0 / self.beta)

    def ratio_class(self, s: float) -> RatioClass:
        sb = s * self.beta
        if sb > 1.0:
            return DIVERGES
        if sb == 1.0:
            return RatioClass("bounded", 1.0)
        return RatioClass("bounded", 0.0)

    def _tail_exponent(self, c: float, J: int) -> float:
        return c * _saturated(math.pow, math.log(max(J, 2)), self.beta - 1.0)


_ITERLOG_DEFAULT_PREFIX = (0.0, -math.log(0.95))


@dataclass(frozen=True)
class IterLog(_FamilyBase):
    """x_j = j**(-loglog j) beyond a tabulated prefix (default prefix: 1, 0.95).

    The tail formula is undefined below j = 3, so the prefix must cover at
    least the first two indices.
    """

    prefix: tuple = _ITERLOG_DEFAULT_PREFIX
    name: ClassVar[str] = "iter_log"

    def __post_init__(self):
        pref = _table_entries("prefix", self.prefix)
        if len(pref) < 2:
            raise SequenceError("prefix must cover at least indices 1 and 2")
        _validate_table(pref, allow_inf=False)
        tail_start = len(pref) + 1
        if pref[-1] > self._formula(tail_start, math):
            raise SequenceError("prefix must not exceed the tail value at its junction")
        self._set(prefix=pref, _head=pref, _formula_start=tail_start)

    def _formula(self, j, m):
        lj = m.log(j)
        return m.log(lj) * lj

    def threshold_growth(self):
        return SUPER_POLYNOMIAL

    def log_threshold_growth(self) -> Growth:
        return Growth(1.0, p=1.0, q=-1.0)

    def ratio_class(self, s: float) -> RatioClass:
        if s >= 1.0:
            return DIVERGES
        return RatioClass("bounded", 0.0)

    def _tail_exponent(self, c: float, J: int) -> float:
        return c * math.log(math.log(max(J, 3)))


class _TableFamily(_FamilyBase):
    """A finite non-decreasing table of log(1/x_j); x_j = 0 past its end.

    Subclasses set the table as the shared ``log_inv``'s ``_head``, with
    ``_formula_start`` one past its end; the formula past it is infinite,
    for a scalar j and for a block alike.  The zero tail makes the family
    limit_zero and summable.
    """

    def _formula(self, j, m):
        return j * math.inf

    def threshold_growth(self) -> Growth:
        # The number of leading finite entries (positive underlying values).
        return Growth(float(max(bisect_left(self._head, math.inf), 1)))

    def ratio_class(self, s: float) -> RatioClass:
        return DIVERGES

    def tail_bound(self, c: float, J: int) -> float:
        if J >= len(self._head):
            return 0.0
        return float(np.exp(-c * np.asarray(self._head[J:], dtype=float)).sum())


@dataclass(frozen=True)
class Tabulated(_TableFamily):
    """Finite table of log(1/x_j) values; x_j = 0 beyond the table end."""

    values: tuple
    name: ClassVar[str] = "tabulated"

    def __post_init__(self):
        vals = _table_entries("table", self.values)
        if not vals:
            raise SequenceError("table must be non-empty")
        _validate_table(vals, allow_inf=True)
        self._set(values=vals, _head=vals, _formula_start=len(vals) + 1)


@dataclass(frozen=True)
class ConstantOne(_FamilyBase):
    """x_j = 1 for every j (the un-moderated weight sequence)."""

    name: ClassVar[str] = "constant_one"
    limit_zero: ClassVar[bool] = False
    all_ones: ClassVar[bool] = True

    def log_inv(self, j: int) -> float:
        return 0.0

    def ratio_class(self, s: float) -> RatioClass:
        return RatioClass("bounded", 0.0)


@dataclass(frozen=True)
class EventuallyZero(_TableFamily):
    """Weights with a hard zero tail: x_k from the prefix for k < j_star, else 0."""

    j_star: int
    prefix: tuple
    name: ClassVar[str] = "eventually_zero"

    def __post_init__(self):
        if isinstance(self.j_star, bool) or not isinstance(self.j_star, int) or self.j_star < 1:
            raise SequenceError(f"j_star must be a positive integer, got {self.j_star!r}")
        pref = _table_entries("prefix", self.prefix)
        if len(pref) != self.j_star - 1:
            raise SequenceError("prefix length must be j_star - 1")
        _validate_table(pref, allow_inf=False)
        self._set(prefix=pref, _head=pref, _formula_start=self.j_star)


def _validate_table(values: tuple, *, allow_inf: bool) -> None:
    prev = -math.inf
    for i, v in enumerate(values):
        if math.isnan(v) or v < 0.0:
            raise SequenceError(f"table entry {i + 1} must be >= 0, got {v!r}")
        if not allow_inf and math.isinf(v):
            raise SequenceError(f"table entry {i + 1} must be finite")
        if v < prev:
            raise SequenceError(
                f"table must be non-decreasing in log(1/x); entry {i + 1} = {v!r} "
                f"drops below {prev!r}")
        prev = v


_FAMILY_TYPES = {
    cls.name: cls
    for cls in (PowerLaw, ExpPower, DoubleExpPower, TripleExp, LogPower,
                IterLog, Tabulated, ConstantOne, EventuallyZero)
}

_WEIGHT_ONLY = (ConstantOne, EventuallyZero)


#: Fewest entries for which a table is built in blocks; a shorter one maps
#: the scalar log_inv, which costs less than numpy's fixed cost per block.
_BLOCK_MIN = 64
#: Most indices per block, so that the temporaries of a block stay small.
_BLOCK_LEN = 2048


def _mapped(f, x: np.ndarray, *consts) -> np.ndarray:
    """[f(v, *consts) for v in x] as a float64 array, one C-level map."""
    return np.fromiter(map(f, x.tolist(), *map(repeat, consts)), float, len(x))


def _mapped_log(x: np.ndarray) -> np.ndarray:
    """``_mapped(math.log, x)``.  math.log, whose base is optional, takes its
    arguments as a tuple; starmap hands it zip's instead of a new one per call."""
    return np.fromiter(starmap(math.log, zip(x.tolist())), float, len(x))


#: math.log(j) for j = 1, 2, ..., len, shared by every table: a read-only
#: view of one buffer of 2**17 entries (1 MB, the summability audit's J),
#: filled up to the highest index asked for so far.
_index_logs = np.empty(0)
_INDEX_LOGS_CAP = 2**17


class _BlockMath:
    """``m`` of a closed form's ``_formula`` on the block ``j`` of indices
    range(a, b): the same math calls as the scalar formula, mapped over the
    block, so each entry is the float the scalar call returns (``log`` of
    ``j`` itself, no other array, is sliced from ``_index_logs``); numpy
    does the + - * in between, which round as Python's float arithmetic does."""

    pow = staticmethod(partial(_mapped, math.pow))
    exp = staticmethod(partial(_mapped, math.exp))

    def __init__(self, a: int, b: int):
        self.j, self._a, self._b = np.arange(a, b, dtype=float), a, b

    def log(self, x: np.ndarray) -> np.ndarray:
        global _index_logs
        logs, n = _index_logs, self._b - 1
        if x is not self.j or n > _INDEX_LOGS_CAP:
            return _mapped_log(x)
        if n > len(logs):
            buf = np.empty(_INDEX_LOGS_CAP) if logs.base is None else logs.base
            buf[len(logs):n] = _mapped_log(np.arange(len(logs) + 1, n + 1, dtype=float))
            logs = _index_logs = buf[:n]
            logs.flags.writeable = False
        return logs[self._a - 1:n]


def log_inv_table(fam, lo: int, hi: int) -> np.ndarray:
    """[fam.log_inv(j) for j in range(lo, hi)] as a float64 array, bit for bit.

    The family's ``log_inv`` picks the path at call time.  The shared
    ``_FamilyBase.log_inv``, also under a wrapper installed on it, slices
    ``_head`` and runs ``_formula`` on the rest, block by block, with ``m``
    a ``_BlockMath`` that reads log(j) from the shared ``_index_logs``; a
    block in which a math call overflows maps ``log_inv``, whose
    ``_overflowed`` gives the value there.  Any other ``log_inv``
    (``ConstantOne``'s, a subclass override, a patch on one class) is
    mapped throughout, as are tables shorter than ``_BLOCK_MIN`` or
    reaching past ``_EXACT_LIMIT``.
    """
    n = hi - lo
    scalar = fam.log_inv
    if type(fam).log_inv is not _FamilyBase.log_inv or n < _BLOCK_MIN or hi > _EXACT_LIMIT + 1:
        return np.fromiter(map(scalar, range(lo, hi)), float, n)
    out = np.empty(n)
    start = min(max(lo, fam._formula_start), hi)
    out[:start - lo] = fam._head[lo - 1:start - 1]
    with np.errstate(over="ignore"):  # products past the float range are inf, as in Python
        for a in range(start, hi, _BLOCK_LEN):
            b = min(a + _BLOCK_LEN, hi)
            m = _BlockMath(a, b)
            try:
                out[a - lo:b - lo] = fam._formula(m.j, m)
            except OverflowError:
                out[a - lo:b - lo] = list(map(scalar, range(a, b)))
    return out


def family_from_descriptor(desc: dict):
    """Rebuild a family from its descriptor dict ({"family": name, **params})."""
    if not isinstance(desc, dict) or "family" not in desc:
        raise SequenceError(f"family descriptor must be a dict with a 'family' key, got {desc!r}")
    kind = desc["family"]
    cls = _FAMILY_TYPES.get(kind)
    if cls is None:
        raise SequenceError(f"unknown family {kind!r}; expected one of {sorted(_FAMILY_TYPES)}")
    kwargs = {}
    for f in fields(cls):
        if f.name in desc:
            v = desc[f.name]
            kwargs[f.name] = tuple(v) if isinstance(v, list) else v
    extra = set(desc) - {"family"} - {f.name for f in fields(cls)}
    if extra:
        raise SequenceError(f"unknown parameters {sorted(extra)} for family {kind!r}")
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise SequenceError(f"bad parameters for family {kind!r}: {exc}") from None


class _SeqView:
    """Common behaviour of the eigenvalue and weight wrappers."""

    family: object

    def __post_init__(self):
        if not isinstance(self.family, _FamilyBase):
            raise SequenceError(f"not a sequence family: {self.family!r}")

    def log_inv(self, j: int) -> float:
        """log(1/x_j) as a raw float (saturated to +inf); InvalidIndex unless j is an int >= 1."""
        if isinstance(j, bool) or not isinstance(j, int):
            raise InvalidIndex(f"index must be a positive integer, got {j!r}")
        if j < 1:
            raise InvalidIndex(f"index must be >= 1, got {j}")
        return self.family.log_inv(j)

    def descriptor(self) -> dict:
        return self.family.descriptor()


@dataclass(frozen=True)
class EigenSeq(_SeqView):
    """Non-increasing squared singular values in log(1/x) form.

    The closed-form families are normalized so the first value is exactly 1;
    tabulated data may be un-normalized (log_inv(1) > 0) but the second value
    must stay positive.
    """

    family: object

    def __post_init__(self):
        if isinstance(self.family, _WEIGHT_ONLY):
            raise SequenceError(
                f"family {self.family.name!r} is weight-only and cannot serve as eigenvalues")
        super().__post_init__()
        if math.isinf(self.family.log_inv(2)):
            raise SequenceError("the second eigenvalue must be positive")

    L = _SeqView.log_inv  #: log(1/lambda_j)


@dataclass(frozen=True)
class WeightSeq(_SeqView):
    """Non-increasing product weights in log(1/x) form (all values <= 1)."""

    family: object

    G = _SeqView.log_inv  #: log(1/gamma_k), +inf for zero weights


def load_log_table(path) -> tuple:
    """Read a two-column text table "index log_inv_value" with '#' comments.

    Indices must run consecutively from 1; values must be non-decreasing
    and nonnegative ('inf' marks zeros).
    """
    values = []
    expected = 1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise SequenceError(f"{path}:{lineno}: expected 'index value', got {raw!r}")
            try:
                idx = int(parts[0])
                val = float(parts[1])
            except ValueError:
                raise SequenceError(f"{path}:{lineno}: unparsable entry {raw!r}") from None
            if idx != expected:
                raise SequenceError(f"{path}:{lineno}: index {idx} out of order (expected {expected})")
            values.append(val)
            expected += 1
    vals = tuple(values)
    _validate_table(vals, allow_inf=True)
    return vals
