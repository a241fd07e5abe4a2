"""Exponential-tractability estimators, condition checkers, and the classifier.

Every verdict is analytic: the limit constants characterizing EXP-SPT and
EXP-QPT, and the log-ratio classes of the weak notions, are decided from the
growth metadata every sequence family carries.  The estimates on finite
threshold and index grids (a true limsup is not computable from finitely
many probes) are attached as evidence and never decide a verdict.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .complexity import _INDEX_LIMIT, _max_index_below, d_of_eps, j_of_eps
from .errors import DivergentTail, NonCompact, UnsupportedNotion
from .seqcore import (
    EigenSeq,
    LOG_BUDGET,
    SuperPolynomial,
    WeightSeq,
    _saturated,
    log_inv_table,
)

#: Doubly-exponential default threshold grid (E = log(1/eps), natural units).
DEFAULT_E_GRID = (1e3, 1e6, 1e12, 1e100, 1e300)

#: Default index grid for divergence probes.
DEFAULT_J_GRID = (4, 16, 256, 65536, 2**24, 2**48)

#: Dimension net for the s < 1, t = 1 ratio probes.
DEFAULT_NET_D = (4, 16, 64, 256, 1024)


class NotionKind(str, Enum):
    EXP_SPT = "EXP-SPT"
    EXP_PT = "EXP-PT"
    EXP_QPT = "EXP-QPT"
    EXP_WT = "EXP-WT"
    EXP_ST_WT = "EXP-(s,t)-WT"


@dataclass(frozen=True)
class Notion:
    """A tractability notion; (s, t) parameters apply to the weak family only."""

    kind: NotionKind
    s: float | None = None
    t: float | None = None

    def __post_init__(self):
        if self.kind in (NotionKind.EXP_SPT, NotionKind.EXP_PT, NotionKind.EXP_QPT):
            if self.s is not None or self.t is not None:
                raise UnsupportedNotion(f"{self.kind.value} takes no (s, t) parameters")
            return
        if self.kind is NotionKind.EXP_WT:
            if (self.s, self.t) not in ((None, None), (1.0, 1.0)):
                raise UnsupportedNotion(f"EXP-WT is EXP-(1,1)-WT, got ({self.s}, {self.t})")
            object.__setattr__(self, "s", 1.0)
            object.__setattr__(self, "t", 1.0)
            return
        if self.s is None or self.t is None:
            raise UnsupportedNotion("EXP-(s,t)-WT requires both s and t")
        s, t = float(self.s), float(self.t)
        if not (math.isfinite(s) and math.isfinite(t) and s > 0.0 and t > 0.0):
            raise UnsupportedNotion(f"s and t must be positive and finite, got ({self.s}, {self.t})")
        if max(s, t) < 1.0:
            raise UnsupportedNotion(
                f"EXP-(s,t)-WT with max(s,t) < 1 is not supported (got s={s}, t={t})")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)
        if s == 1.0 and t == 1.0:
            object.__setattr__(self, "kind", NotionKind.EXP_WT)

    @classmethod
    def spt(cls) -> "Notion":
        return cls(NotionKind.EXP_SPT)

    @classmethod
    def pt(cls) -> "Notion":
        return cls(NotionKind.EXP_PT)

    @classmethod
    def qpt(cls) -> "Notion":
        return cls(NotionKind.EXP_QPT)

    @classmethod
    def wt(cls) -> "Notion":
        return cls(NotionKind.EXP_WT)

    @classmethod
    def st_weak(cls, s: float, t: float) -> "Notion":
        return cls(NotionKind.EXP_ST_WT, s, t)

    @property
    def label(self) -> str:
        if self.kind is NotionKind.EXP_ST_WT:
            return f"EXP-({self.s:g},{self.t:g})-WT"
        return self.kind.value


class VerdictStatus(str, Enum):
    HOLDS = "holds"
    FAILS = "fails"


@dataclass(frozen=True)
class Diagnostic:
    """One named piece of evidence attached to a verdict."""

    name: str
    value: object
    note: str = ""


@dataclass(frozen=True)
class LimitEstimate:
    """Finite-grid surrogate for a limit: probes, running tail supremum, trend."""

    probes: tuple
    tail_sup: float
    trend: str
    skipped: tuple = ()


@dataclass(frozen=True)
class DivergenceResult:
    kind: str  # "diverges" | "bounded"
    limit: float
    mode: str = "analytic"
    evidence: LimitEstimate | None = None


@dataclass(frozen=True)
class SummabilityResult:
    value: float
    tail_bound: float | None  # None = unknown
    terms: int


@dataclass(frozen=True)
class Verdict:
    notion: Notion
    status: VerdictStatus
    exponent: float | None
    evidence: tuple


def _trend(ratios: list) -> str:
    if len(ratios) < 2:
        return "flat"
    finite = [abs(v) for v in ratios if math.isfinite(v)]
    tol = 1e-9 * max([1.0] + finite)
    inc = dec = False
    for a, b in zip(ratios, ratios[1:]):
        d = b - a
        if math.isnan(d):
            continue
        if d > tol:
            inc = True
        elif d < -tol:
            dec = True
    if inc and dec:
        return "oscillating"
    if inc:
        return "increasing"
    if dec:
        return "decreasing"
    return "flat"


def _limit_estimate(probes, skipped=()) -> LimitEstimate:
    probes = tuple(probes)
    ratios = [r for _, r in probes]
    tail = ratios[len(ratios) // 2:] if ratios else []
    tail_sup = max(tail) if tail else 0.0
    return LimitEstimate(probes, tail_sup, _trend(ratios), tuple(skipped))


def _check_egrid(Egrid) -> list:
    grid = [float(E) for E in Egrid]
    if not grid:
        raise ValueError("threshold grid must be non-empty")
    for E in grid:
        if not math.isfinite(E) or E <= 1.0:
            raise ValueError(f"threshold probes must satisfy E > 1, got {E!r}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("threshold grid must be strictly increasing")
    return grid


def _check_jgrid(jgrid) -> list:
    """The probe indices as ints: integral numbers, not booleans, from 2 up
    to ``_INDEX_LIMIT``, past which log j and float(j) overflow."""
    grid = list(jgrid)
    for j in grid:
        if isinstance(j, bool) or not (isinstance(j, numbers.Integral)
                                       or isinstance(j, float) and j.is_integer()):
            raise ValueError(f"probe j values must be integers, got {j!r}")
        if j < 2:
            raise ValueError("probe j values must be >= 2")
        if j > _INDEX_LIMIT:
            raise ValueError("probe j values must not exceed the float range")
    return [int(j) for j in grid]


@dataclass(frozen=True)
class ProbePolicy:
    """Probe-grid configuration for the classifier and estimators; a grid
    the probes cannot run on raises ValueError here."""

    E_grid: tuple = DEFAULT_E_GRID
    j_grid: tuple = DEFAULT_J_GRID

    def __post_init__(self):
        _check_egrid(self.E_grid)
        _check_jgrid(self.j_grid)


DEFAULT_POLICY = ProbePolicy()


def _probe_estimate(lam, gam, Egrid, floor: int, skip_note: str, den) -> LimitEstimate:
    """Probe d(eps) * log j(eps) / den(d(eps), E) along the grid.

    Probes with d(eps) < floor are skipped and recorded with
    ``skip_note.format(d(eps))``, and probes whose d(eps) or j(eps) cannot be
    resolved with the NonCompact text; j(eps) <= 1 contributes a zero ratio.
    """
    probes = []
    skipped = []
    for E in _check_egrid(Egrid):
        try:
            deps = d_of_eps(gam, E)
            if deps < floor:
                skipped.append((E, skip_note.format(deps)))
                continue
            jeps = j_of_eps(lam, E)
        except NonCompact as exc:
            skipped.append((E, str(exc)))
            continue
        probes.append((E, deps * math.log(jeps) / den(deps, E) if jeps >= 1 else 0.0))
    return _limit_estimate(probes, skipped)


def b_spt_estimate(lam: EigenSeq, gam: WeightSeq, Egrid=DEFAULT_E_GRID) -> LimitEstimate:
    """Probe d(eps) * log j(eps) / log log(1/eps) along the grid.

    Probes with d(eps) = 0 or an unresolvable threshold are skipped (and
    recorded).
    """
    return _probe_estimate(lam, gam, Egrid, 1, "d(eps) = {}", lambda deps, E: math.log(E))


def b_qpt_estimate(lam: EigenSeq, gam: WeightSeq, Egrid=DEFAULT_E_GRID) -> LimitEstimate:
    """Probe d(eps) * log j(eps) / (log d(eps) * log log(1/eps)).

    Probes with d(eps) < 2 would divide by log 1 = 0 and are skipped."""
    return _probe_estimate(lam, gam, Egrid, 2, "d(eps) = {} < 2",
                           lambda deps, E: math.log(deps) * math.log(E))


def divergence_check(seq, s: float, jgrid=DEFAULT_J_GRID) -> DivergenceResult:
    """Classify (log(1/x_j))**s / log j as j -> inf.

    The answer comes from the family's ratio class; the probe ratios along
    ``jgrid`` and their trend are attached as evidence.
    """
    if not (s > 0.0 and math.isfinite(s)):
        raise ValueError(f"s must be positive and finite, got {s!r}")
    probes = [(float(j), _saturated(math.pow, seq.log_inv(j), s) / math.log(j))
              for j in _check_jgrid(jgrid)]
    rc = seq.family.ratio_class(s)
    return DivergenceResult(rc.kind, rc.limit, evidence=_limit_estimate(probes))


def _check_power_sum(cs, J) -> None:
    for c in cs:
        if not (c > 0.0 and math.isfinite(c)):
            raise ValueError(f"c must be positive and finite, got {c!r}")
    if isinstance(J, bool) or not isinstance(J, int) or J < 2:
        raise ValueError(f"J must be an integer >= 2, got {J!r}")


def _power_sums(seq, cs, J: int) -> list:
    """summability(seq, c, J) for each c in cs, divergent exponents included;
    all exponents sum over one ``log_inv_table``, bit for bit the scalar
    log_inv, up to the last index whose terms do not all underflow."""
    _check_power_sum(cs, J)
    fam = seq.family
    # log_inv never decreases, so past the last index with log_inv below
    # 800 / c every c * log_inv is past 745.2, where exp(-x) underflows to
    # exactly 0.0; the table stops there for the least c.  numpy's exp is
    # slow on such inputs, so each c fills only its prefix of a zeroed array
    # of J terms, and numpy's pairwise sum keeps its bits.
    n = _max_index_below(fam.log_inv, 800.0 / min(cs), J)
    ls = log_inv_table(fam, 1, (J if n is None else n) + 1)
    sums = []
    for c in cs:
        k = int(np.searchsorted(ls, 800.0 / c))
        terms = np.zeros(J)
        np.exp(-c * ls[:k], out=terms[:k])
        sums.append(SummabilityResult(float(terms.sum()), fam.tail_bound(c, J), J))
    return sums


def summability(seq, c: float, J: int) -> SummabilityResult:
    """Truncated power sum sum_{j<=J} x_j**c with a rigorous tail bound when
    the family admits one (None marks an unknown tail).

    Raises DivergentTail when the family certifies divergence of the series,
    before any table is built.
    """
    _check_power_sum((c,), J)
    if not seq.family.summable(c):
        raise DivergentTail(f"sum of x_j**{c} diverges for this family")
    res, = _power_sums(seq, (c,), J)
    return res


def wt_s_below_one_check(lam: EigenSeq, gam: WeightSeq, s: float,
                         triples) -> LimitEstimate:
    """Probe ((log 1/gamma_k)**s + (log 1/lambda_j)**s) / (d**(1-s) * log j)
    on (d, k, j) triples; reports the minimum ratio at each scale."""
    if not (0.0 < s < 1.0):
        raise ValueError(f"s must lie in (0, 1), got {s!r}")
    by_scale: dict = {}
    for d, k, j in triples:
        if j < 2:
            raise ValueError("triples require j >= 2")
        if not (1 <= k <= d):
            raise ValueError("triples require 1 <= k <= d")
        num = _saturated(math.pow, gam.G(k), s) + _saturated(math.pow, lam.L(j), s)
        ratio = num / (d**(1.0 - s) * math.log(j))
        scale = float(max(d, j))
        by_scale[scale] = min(by_scale.get(scale, math.inf), ratio)
    probes = sorted(by_scale.items())
    return _limit_estimate(probes)


def eta_exponent(s: float, t: float) -> float:
    """Effective divergence exponent s*(t-1)/(t-s) for the s < 1 < t regime."""
    if t == s:
        raise ValueError("eta requires t != s")
    return s * (t - 1.0) / (t - s)


def _polynomial_limit_constant(lam, gam, qpt: bool, ev) -> float:
    """Analytic limit constant for the SPT (or QPT) characterization:
    +inf, 0 or a finite value."""
    d_growth = gam.family.threshold_growth()
    lnj_growth = lam.family.log_threshold_growth()
    if isinstance(d_growth, SuperPolynomial):
        # The effective dimension outgrows every power of the budget while
        # log j(eps) eventually stays >= log 2, so the limit is infinite.
        ev.append(Diagnostic("threshold_growth", "super-polynomial effective dimension"))
        return math.inf
    log_d = d_growth.log() if qpt else None
    note = ""
    if qpt and log_d is None:
        # Bounded effective dimension with log d(eps) -> 0: the polynomial
        # and quasi-polynomial notions coincide, so reuse the plain limit.
        note = "bounded effective dimension; delegated to the plain limit"
    den = LOG_BUDGET if log_d is None else log_d.mul(LOG_BUDGET)
    mon = d_growth.mul(lnj_growth).div(den)
    ev.append(Diagnostic("b_qpt_growth" if qpt else "b_spt_growth", mon, note=note))
    return mon.limit()


def _classify_polynomial(lam, gam, notion, policy) -> Verdict:
    """The notion holds exactly when the limit constant is finite; it has no
    limit when a sequence does not tend to 0."""
    qpt = notion.kind is NotionKind.EXP_QPT
    lz_l = lam.family.limit_zero
    lz_g = gam.family.limit_zero
    ev = [Diagnostic("limit_lambda_zero", lz_l), Diagnostic("limit_gamma_zero", lz_g)]
    limit = _polynomial_limit_constant(lam, gam, qpt, ev) if lz_l and lz_g else None
    estimates = (("b_spt_probes", b_spt_estimate), ("b_qpt_probes", b_qpt_estimate))
    for name, estimate in estimates[:1 + qpt]:
        ev.append(Diagnostic(name, estimate(lam, gam, policy.E_grid)))
    if limit is not None:
        ev.append(Diagnostic("b_qpt_limit" if qpt else "b_spt_limit", limit))
    holds = limit is not None and not math.isinf(limit)
    return Verdict(notion, VerdictStatus.HOLDS if holds else VerdictStatus.FAILS,
                   limit if holds else None, tuple(ev))


def _classify_weak(lam, gam, notion, policy) -> Verdict:
    """Each (s, t) regime is a weight condition, recorded in the evidence,
    and a list of (sequence, exponent, evidence name) whose log-ratios must
    diverge; the notion holds when the condition does and all of them diverge."""
    s, t = notion.s, notion.t
    ev: list[Diagnostic] = []
    holds = True
    lam_ratio = (lam, s, f"lambda_log_ratio[s={s:g}]")
    if s == 1.0 and t == 1.0:
        holds = gam.family.limit_zero
        ev.append(Diagnostic("limit_gamma_zero", holds))
        diverging = [lam_ratio]
    elif s == 1.0 and t < 1.0:
        diverging = [(gam, 1.0, "gamma_log_ratio[s=1]"), lam_ratio]
    elif s == 1.0:  # t > 1
        ev.append(Diagnostic("gamma_condition", True, note="weights unconstrained in this regime"))
        diverging = [lam_ratio]
    elif s > 1.0:
        lambda2_unit = lam.L(2) == 0.0
        ev.append(Diagnostic("lambda2_is_one", lambda2_unit))
        if t <= 1.0 and lambda2_unit:
            holds = not gam.family.all_ones
            ev.append(Diagnostic("exists_gamma_below_one", holds))
        diverging = [lam_ratio]
    elif t > 1.0:  # s < 1 < t
        eta = eta_exponent(s, t)
        ev.append(Diagnostic("eta", eta, note="effective divergence exponent s(t-1)/(t-s)"))
        diverging = [(lam, eta, f"lambda_log_ratio[s={eta:.12g}]")]
    else:  # s < 1, t == 1
        return _classify_weak_boundary(lam, gam, notion)
    for seq, expo, name in diverging:
        res = divergence_check(seq, expo, policy.j_grid)
        ev.append(Diagnostic(name, res))
        holds = holds and res.kind != "bounded"
    status = VerdictStatus.HOLDS if holds else VerdictStatus.FAILS
    return Verdict(notion, status, None, tuple(ev))


def _classify_weak_boundary(lam, gam, notion) -> Verdict:
    """s < 1, t = 1: the ratio must diverge along every admissible (d, k, j) net."""
    s = notion.s
    g1 = gam.G(1)  # finite: classify answers gamma_1 = 0 as the trivial problem
    triples = []
    for d in DEFAULT_NET_D:
        triples.append((d, 1, 2))            # d grows, k and j fixed
        triples.append((d, 1, d + 1))        # diagonal in d and j
        triples.append((4 * max(DEFAULT_NET_D), 1, d + 1))  # j grows, d fixed
    ev = [Diagnostic("boundary_ratio_probes", wt_s_below_one_check(lam, gam, s, triples))]
    # Along the net with k = 1 and j = 2 fixed and d -> inf the numerator is
    # the constant G(1)**s + L(2)**s while the denominator d**(1-s) log 2
    # grows, so the required divergence fails.
    ev.append(Diagnostic(
        "bounded_net_witness",
        {"net": "k=1, j=2, d->inf", "numerator": g1**s + lam.L(2)**s, "ratio_limit": 0.0},
        note="constant numerator against a growing denominator"))
    return Verdict(notion, VerdictStatus.FAILS, None, tuple(ev))


def classify(lam: EigenSeq, gam: WeightSeq, notion: Notion,
             policy: ProbePolicy = DEFAULT_POLICY) -> Verdict:
    """Decide a tractability notion for the given eigenvalue/weight pair.

    The polynomial notions reduce to the finiteness of a limit constant
    (whose value is the optimal exponent); the weak family dispatches on
    (s, t) to the matching combination of weight conditions and divergence
    checks.  The plain polynomial notion delegates to the strong one, to
    which it is equivalent.
    """
    if math.isinf(gam.G(1)):
        # All weights vanish: the only positive eigenvalue is the all-ones
        # tuple and every notion holds trivially.
        ev = (Diagnostic("trivial_problem", True, note="gamma_1 = 0 (count is always 1)"),)
        exponent = None if notion.kind in (NotionKind.EXP_WT, NotionKind.EXP_ST_WT) else 0.0
        return Verdict(notion, VerdictStatus.HOLDS, exponent, ev)
    if notion.kind is NotionKind.EXP_PT:
        base = classify(lam, gam, Notion.spt(), policy)
        ev = base.evidence + (Diagnostic(
            "delegated", "EXP-SPT", note="the polynomial and strong polynomial notions coincide"),)
        return Verdict(notion, base.status, base.exponent, ev)
    if notion.kind in (NotionKind.EXP_SPT, NotionKind.EXP_QPT):
        return _classify_polynomial(lam, gam, notion, policy)
    return _classify_weak(lam, gam, notion, policy)
