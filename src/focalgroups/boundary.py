"""Boundary invariants over the exact distance oracle: translation
numbers, horokernels along the fixed end, the Busemann quasicharacter,
isometry- and action-type classification, Schottky subsemigroups.

Orientation.  The end fixed by the whole group is the limit of the ray
alpha^-1, alpha^-2, ...: the configuration part of any element is
absorbed along it, whereas no nontrivial h fixes the limit of the
forward ray (the Gromov products (alpha^n | h alpha^n) stay bounded).
Horokernels therefore follow the backward ray, and are reported with
the orientation of the height function b that increases along
{alpha^n}, so that beta(alpha) = +1 and hyperbolic elements attracted
to the forward direction get positive values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .families import FamilyError
from .metric import QIReport, Report, qi_embedding_check
from .words import (
    Products,
    _identity_row_lengths,
    _require_validated,
    alpha_point,
    breadth_first,
    identity_point,
    word_length,
)


class StabilizationError(RuntimeError):
    """A horokernel value failed to settle within the horizon."""

    def __init__(self, message, trace):
        super().__init__(f"{message}; trace={trace}")
        self.trace = trace


# ---------------------------------------------------------------------------
# Translation numbers and isometry types
# ---------------------------------------------------------------------------


@dataclass
class TranslationReport(Report):
    estimate: Fraction
    upper_bound: Fraction
    exact: bool
    value: Fraction | None
    horizon: int


def orbit_lengths(g, N):
    """d(1, g^n) for n = 1..N, computed incrementally."""
    out, x = [], identity_point(g.family)
    for _ in range(N):
        x = x * g
        out.append(word_length(x))
    return out


def translation_number(g, N=32):
    """Estimate lim d(1, g^n)/n.

    The limit is the infimum of d(1, g^n)/n by subadditivity, so the
    minimum over n <= N is a true upper bound.  For the registered
    families the exact value is |m(g)|: the exponent projection is
    1-Lipschitz, and the orbit excess d(1, g^n) - n|m| stabilizes.
    """
    lengths = orbit_lengths(g, N)
    estimate = Fraction(lengths[-1], N)
    upper = min(Fraction(dn, n + 1) for n, dn in enumerate(lengths))
    exact = g.family.a_length_validated
    value = Fraction(abs(g.m)) if exact else None
    return TranslationReport(estimate, upper, exact, value, N)


ELLIPTIC = "elliptic"
PARABOLIC = "parabolic"
HYPERBOLIC = "hyperbolic"


@dataclass
class IsometryType(Report):
    kind: str
    evidence_horizon: int
    exact: bool
    witness: dict = field(default_factory=dict)

    def as_dict(self):
        out = super().as_dict()
        out["type"] = out.pop("kind")
        return out


def isometry_type(g, N=32):
    """Elliptic / parabolic / hyperbolic from a family-level certificate:
    m != 0, finite order, or unbounded cyclic growth.  An element with
    none of them is a FamilyError: every family certifies its elements of
    infinite order, and a guess from orbit growth is not a verdict."""
    family = g.family
    if g.m != 0:
        # translation number |m| > 0, validated for registered families.
        exact = family.a_length_validated
        return IsometryType(HYPERBOLIC, N, exact, {"translation_number": abs(g.m)})
    order = family.element_order(g.h)
    if order is not None:
        return IsometryType(ELLIPTIC, N, True, {"order": order})
    if family.h_unbounded(g.h):
        return IsometryType(PARABOLIC, N, True, {"certificate": "unbounded cyclic growth, zero translation number"})
    raise FamilyError(f"{family.name}: no isometry-type certificate for {g}")


# ---------------------------------------------------------------------------
# Horokernels and the Busemann quasicharacter
# ---------------------------------------------------------------------------


def horokernel(x, y, N=None, stable_window=6):
    """Height difference b(y) - b(x) along the fixed end: the stabilized
    value of d(y, alpha^-t) - d(x, alpha^-t) for t -> N.

    When N is omitted it is sized from the word lengths of x and y,
    beyond which the value is provably constant for the registered
    families.  Raises StabilizationError (carrying the trace) when the
    last `stable_window` values do not agree.
    """
    family = x.family
    if N is None:
        depth = word_length(x) + word_length(y)
        N = depth + abs(x.m) + abs(y.m) + stable_window + 2
    trace = []
    for t in range(1, N + 1):
        ray = alpha_point(family, -t)
        trace.append(word_length(y.inverse() * ray) - word_length(x.inverse() * ray))
    tail = trace[-stable_window:]
    if len(set(tail)) != 1:
        raise StabilizationError(f"horokernel not constant over the last {stable_window} steps", trace)
    return tail[-1]


@dataclass
class QuasicharacterEstimate(Report):
    value: Fraction
    defect_bound: Fraction
    horizon: int
    estimate: Fraction
    increment: int


def busemann_quasicharacter(g, N=16):
    """Homogeneous quasicharacter of the fixed end, evaluated at g.

    Numerically: h(1, g^N)/N for the oriented horokernel h.  For the
    registered families the value is exactly m(g) (beta(alpha) = 1 and
    beta vanishes on H), and the defect bound is 0; the plain increment
    h(1, g) is reported alongside, staying within a bounded distance of
    the value.  N must be at least 1 (ValueError otherwise).
    """
    if N < 1:
        raise ValueError(f"horizon N = {N} < 1")
    family = g.family
    one = identity_point(family)
    increment = horokernel(one, g)
    estimate = Fraction(horokernel(one, g**N), N)
    if family.a_length_validated:
        value = Fraction(g.m)
        defect = Fraction(0)
    else:
        value = estimate
        defect = abs(estimate - Fraction(increment))
    return QuasicharacterEstimate(value, defect, N, estimate, increment)


# ---------------------------------------------------------------------------
# Action classification
# ---------------------------------------------------------------------------

BOUNDED = "bounded"
HOROCYCLIC = "horocyclic"
LINEAL = "lineal"
FOCAL = "focal"


@dataclass
class ActionVerdict(Report):
    kind: str
    horizon: int
    exact: bool
    witnesses: dict = field(default_factory=dict)
    low_confidence: bool = False
    complete: bool = True  # False when the subgroup closure hit its cap

    def as_dict(self):
        out = super().as_dict()
        out["type"] = out.pop("kind")
        return out


def axis_distance(x):
    """Distance from x to the cyclic axis {alpha^k}.

    For x = (h, m) the exponent projection gives d(x, alpha^k) >= |m - k|,
    so only k within base = d(x, alpha^m) of m can do better than base.
    No verdict rests on it: action_type decides lineal or focal from
    fixed points, not from distances to the axis."""
    base = word_length(x.inverse() * alpha_point(x.family, x.m))
    best = base
    for k in range(x.m - base, x.m + base + 1):
        best = min(best, word_length(x.inverse() * alpha_point(x.family, k)))
    return best


def _subgroup_closure(generators, L, cap):
    """Elements reachable by words of length <= L over the generators and
    their inverses, a Sweep in BFS order; returns (sweep, closed, capped).
    With the cap hit, the sweep stops at the first element beyond cap."""
    gens, seen = [], set()
    for g in list(generators) + [g.inverse() for g in generators]:
        if g.key() not in seen:
            seen.add(g.key())
            gens.append(g)
    sweep = breadth_first(Products(gens, L), L, cap=cap)
    return sweep, sweep.closed, sweep.capped


def action_type(generators, L=8, cap=20000):
    """Classify the action of the subgroup generated by `generators`.

    General type is never emitted: these ambient groups fix an end omega,
    so every subgroup action is bounded, horocyclic, lineal or focal.

    With a hyperbolic generator g0 = (h0, m0) (the first with m0 != 0),
    the subgroup is lineal exactly when it fixes a second boundary point,
    which can only be g0's other fixed point xi0 (Gromov 1987, 8.2).  H is
    abelian and acts on the boundary minus omega by xi -> h + alpha^m(xi),
    so a generator (h, m) fixes xi0 iff (1 - alpha^m0) h = (1 - alpha^m) h0,
    which is the identity g0 * g == g * g0.  Each generator is tested once:
    no closure, word length, delta or horizon enters the verdict, and L is
    only reported.  The verdict is exact on validated families; on the
    trusted copy of another it rests on the family's own group law alone
    (the spoof family's alpha = id makes every pair commute: lineal).

    With every m = 0 the subgroup lies in H: horocyclic when a generator
    is certified unbounded, bounded when the closure of words of length
    <= L closes, and horocyclic (not exact) when it does not.
    """
    if not generators:
        raise ValueError("need at least one generator")
    family = generators[0].family
    _require_validated(family)
    g0 = next((g for g in generators if g.m != 0), None)

    if g0 is not None:
        witnesses = {"fixed_point_of": repr(g0)}
        mover = next((g for g in generators if g0 * g != g * g0), None)
        if mover is not None:
            witnesses["moves_it"] = repr(mover)
        return ActionVerdict(LINEAL if mover is None else FOCAL, L, exact=family.a_length_validated, witnesses=witnesses)

    # Everything in the kernel of the exponent: bounded or horocyclic.
    certificate = next((g for g in generators if family.h_unbounded(g.h)), None)
    if certificate is not None:
        return ActionVerdict(
            HOROCYCLIC,
            L,
            exact=True,
            witnesses={"unbounded_generator": repr(certificate)},
        )
    sweep, closed, capped = _subgroup_closure(generators, L, cap)
    diameter = int(_identity_row_lengths(family, sweep.law.basis, sweep.enc, sweep.ms).max())
    if closed:
        return ActionVerdict(
            BOUNDED, L, exact=True, witnesses={"subgroup_order": len(sweep), "orbit_diameter": diameter}
        )
    return ActionVerdict(
        HOROCYCLIC,
        L,
        exact=False,
        witnesses={"elements_seen": len(sweep), "orbit_diameter": diameter},
        low_confidence=capped,
        complete=not capped,
    )


# ---------------------------------------------------------------------------
# Schottky subsemigroups
# ---------------------------------------------------------------------------


@dataclass
class SchottkyReport(Report):
    report: QIReport
    injective: bool
    words_checked: int
    collision: tuple | None

    def as_dict(self):
        """The embedding report's keys, then this report's, which win."""
        out = super().as_dict()
        return {**out.pop("report").as_dict(), **out}


def schottky_semigroup_check(a, b, L=10):
    """Evaluate every positive word in {a, b} of length <= L; report
    injectivity of the evaluation and the tightest embedding constants
    between word length and d(1, value).  Each level is one Products call,
    and its lengths are the identity row over the level's encoded values
    on the same basis: no value is decoded."""
    if L > 14:
        raise ValueError("more than 2^14 words requested")
    law = Products([a, b], L)
    enc, ms = law.encode([identity_point(a.family)])
    labels = [""]
    seen = {}
    samples = set()
    collision = None
    count = 0
    for level in range(1, L + 1):
        enc, ms = law.times(enc, ms)
        labels = [w + tag for w in labels for tag in "ab"]
        for key, w in zip(law.keys(enc, ms), labels):
            if key not in seen:
                seen[key] = w
            elif collision is None:
                collision = (seen[key], w)
        lengths = _identity_row_lengths(law.family, law.basis, enc, ms)
        samples.update((level, v) for v in set(lengths.tolist()))
        count += len(labels)
    injective = collision is None
    report = qi_embedding_check(sorted(samples))
    report.injective = report.injective and injective
    return SchottkyReport(report, injective, count, collision)
