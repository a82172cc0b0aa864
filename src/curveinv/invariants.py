"""Local invariants of plane curve germs in arbitrary characteristic.

Everything here is exact: intersection numbers are certified orders of series
pullbacks with Bezout cutoffs, delta comes from the blow-up tree, and the
generic-polar quantities (kappa and the coordinate gamma) are evaluated
per branch as minima of pullback orders, which is what a generic direction
realizes; no direction is ever sampled.

The gamma minimum over coordinate changes is a search: it returns an exact
value only with a certificate (coordinates where the coordinate gamma hits
2*delta - r + 1, which is simultaneously the theoretical floor), and an
honest interval otherwise.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, total_ordering
from typing import Optional

from .algebra import MPoly, embed_poly, gcd_bivar, squarefree_decomposition
from .blowup import NeedsExtension, strict_transform
from .errors import (
    DegenerateDirection,
    InternalCheckError,
    NotReduced,
    NotSingularAtOrigin,
    UndefinedAtOrigin,
    UnsupportedInput,
)
from .field import FieldCtx, FieldElement
from .hne import BranchSet, _axis_order, _require_reduced, decompose_reduced
from .series import series_order


@total_ordering
class ExtNat:
    """A natural number or infinity, with saturating arithmetic."""

    __slots__ = ("value",)

    def __init__(self, value: int | None):
        self.value = value

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def _other(self, x) -> "ExtNat":
        if isinstance(x, ExtNat):
            return x
        if isinstance(x, int):
            return ExtNat(x)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, x):
        o = self._other(x)
        if o is NotImplemented:
            return NotImplemented
        if self.value is None or o.value is None:
            return INF
        return ExtNat(self.value + o.value)

    __radd__ = __add__

    def __sub__(self, x):
        o = self._other(x)
        if o is NotImplemented:
            return NotImplemented
        if o.value is None:
            raise InternalCheckError("cannot subtract infinity")
        if self.value is None:
            return INF
        return ExtNat(self.value - o.value)

    def __eq__(self, x) -> bool:
        if isinstance(x, ExtNat):
            return self.value == x.value
        if isinstance(x, int):
            return self.value == x
        return NotImplemented

    def __lt__(self, x) -> bool:
        o = self._other(x)
        if o is NotImplemented:
            return NotImplemented
        if self.value is None:
            return False
        if o.value is None:
            return True
        return self.value < o.value

    def __hash__(self):
        return hash(("ExtNat", self.value))

    def __int__(self) -> int:
        if self.value is None:
            raise InternalCheckError("infinite value")
        return self.value

    def __repr__(self) -> str:
        return "inf" if self.value is None else str(self.value)

    def to_json(self):
        return "inf" if self.value is None else self.value


INF = ExtNat(None)


def char_exceeds(p: int, n) -> bool:
    """Whether the characteristic is zero or strictly larger than n."""
    if p == 0:
        return True
    if isinstance(n, ExtNat):
        if not n.is_finite:
            return False
        n = n.value
    return p > n


def _require_origin(f: MPoly) -> None:
    if not f.constant_term().is_zero():
        raise NotSingularAtOrigin("the origin is not on the curve")


def _branch_order_sum(bs: BranchSet, hs: tuple[MPoly, ...]) -> int | None:
    """Sum over the branches of bs of the least pullback order among the
    nonzero hs; None when all of them vanish on some branch.

    No finite order exceeds the Bezout number deg(bs.f) * max deg h, so
    orders past it certify a pullback that vanishes.
    """
    hs = [h for h in hs if not h.is_zero()]
    bound = bs.f.degree() * max((h.degree() for h in hs), default=0)
    total = 0
    for b in bs.branches:
        orders = [o for h in hs if (o := series_order(h, b.series, bound)) is not None]
        if not orders:
            return None
        total += min(orders)
    return total


class Germ:
    """One reduced germ, the ideal (f), and everything derived from it.

    Obtained through :func:`germ`, which checks reducedness once.  The branch
    decomposition and each invariant are computed on first use and kept, so
    the public functions below, and every derived curve they build, read one
    shared copy instead of recomputing it.  ``f`` is the first generator the
    memo saw; a constant multiple c*f is the same germ and shares this object,
    since no invariant and no branch datum sees the constant (tangent-cone
    factors are monic, and neither Newton's step nor the chart maps scale).
    """

    def __init__(self, f: MPoly):
        _require_reduced(f)
        self.f = f

    @cached_property
    def branches(self) -> BranchSet:
        return decompose_reduced(self.f)

    @property
    def mt(self) -> int:
        return self.branches.mt

    @property
    def r(self) -> int:
        return self.branches.r

    @cached_property
    def delta(self) -> int:
        """Sum of m(m-1)/2 over the infinitely near tree."""
        return self.branches.tree.delta_contribution()

    @cached_property
    def partials(self) -> tuple[MPoly, MPoly]:
        """The two partials of f, shared by mu and :attr:`polars`."""
        return self.f.partial(0), self.f.partial(1)

    @cached_property
    def polars(self) -> tuple[MPoly, MPoly]:
        """The two partials of the branches' equation, shared by kappa and the
        coordinate gamma: those of f unless the branches needed a larger field."""
        fl = self.branches.f
        return self.partials if fl is self.f else (fl.partial(0), fl.partial(1))

    @cached_property
    def mu(self) -> ExtNat:
        """Milnor number as the intersection number of the two partials."""
        _require_origin(self.f)
        if self.f.order() == 1:
            return ExtNat(0)
        fx, fy = self.partials
        if fx.is_zero() and fy.is_zero():
            raise InternalCheckError("both partials vanish on a reduced curve")
        return intersection_multiplicity(fx, fy)

    @cached_property
    def kappa(self) -> ExtNat:
        """Intersection number with a generic polar, branch by branch."""
        return ExtNat(_branch_order_sum(self.branches, self.polars))  # None: infinite

    @cached_property
    def gamma_tilde(self) -> int:
        """The gamma invariant in the given coordinates.

        Axis factors are split off first (each at most once for reduced f),
        the convenient cofactor is handled through its branches, and the
        pieces are recombined with twice their mutual intersection number
        minus one.
        """
        f = self.f
        k = 1 if all(e[0] >= 1 for e in f.reps) else 0
        l = 1 if all(e[1] >= 1 for e in f.reps) else 0
        if k == 0 and l == 0:
            return self._convenient_gamma_tilde()
        g = f.divexact(MPoly(f.ctx, f.vars, {(k, l): f.ctx.one}))
        base = 0 if k + l == 1 else 1
        cross = 0
        for axis, split in ((0, k), (1, l)):
            if split:
                o = _axis_order(g, axis)
                if o is None:
                    raise InternalCheckError("an axis divides the cofactor")
                cross += o
        rest = germ(g).gamma_tilde if g.constant_term().is_zero() else 1
        return base + rest + 2 * cross - 1

    def _convenient_gamma_tilde(self) -> int:
        g = self.f
        if not g.constant_term().is_zero():
            return 1  # unit germ
        bs = self.branches
        gl = bs.f
        ctx, vars = gl.ctx, gl.vars
        x = MPoly.variable(ctx, vars, vars[0])
        y = MPoly.variable(ctx, vars, vars[1])
        fx, fy = self.polars
        total = _branch_order_sum(bs, (x * fx, y * fy))
        if total is None:
            raise InternalCheckError("both polar pullbacks vanish on a branch")
        ix = _axis_order(g, 0)
        iy = _axis_order(g, 1)
        if ix is None or iy is None:
            raise InternalCheckError("an axis divides a convenient germ")
        return total - ix - iy + 1

    @cached_property
    def swan(self) -> ExtNat | None:
        """Swan conductor mu - (2*delta - r + 1); None when mu is infinite."""
        mu = self.mu
        if not mu.is_finite:
            return None
        return mu - (2 * self.delta - self.r + 1)

    @cached_property
    def m_good(self) -> bool:
        p = self.f.ctx.char
        return p == 0 or all(b.mt % p != 0 for b in self.branches.branches)

    @cached_property
    def im_good(self) -> bool:
        p = self.f.ctx.char
        if p == 0:
            return True
        return all(
            (b.ix is not None and b.ix % p != 0) or (b.iy is not None and b.iy % p != 0)
            for b in self.branches.branches
        )


# One public call and the derived curves it builds (up to ~20 gamma
# candidates, f*line, f*u, the R9 chart, squarefree pieces) fit well inside
# this many germs, as do a few separate calls on the same f, or on a constant
# multiple of it, after gamma; reuse across unrelated calls is not needed.
_GERM_MEMO_SIZE = 64
_GERMS: OrderedDict = OrderedDict()


def germ(f: MPoly) -> Germ:
    """The :class:`Germ` of f, from a memo of the most recently used ones.

    The memo is keyed on the monic normalization of f, so ``germ(c*f) is
    germ(f)`` for every constant c != 0: both generate the same ideal.
    Raises NotReduced when f is zero or has a repeated component.
    """
    key = (f.ctx._key, f.vars, frozenset(f.normalized().reps.items()))
    g = _GERMS.get(key)
    if g is not None:
        _GERMS.move_to_end(key)
        return g
    g = Germ(f)
    _GERMS[key] = g
    if len(_GERMS) > _GERM_MEMO_SIZE:
        _GERMS.popitem(last=False)
    return g


def _local_pair(f: MPoly, g: MPoly) -> ExtNat | tuple[MPoly, MPoly]:
    """The edge rules of an intersection number at the origin, shared by
    :func:`intersection_multiplicity` and the resultant oracle: the number
    when they decide it, else f and g with any common factor divided out."""
    f._check(g)
    if not f.is_zero() and not f.constant_term().is_zero():
        raise UndefinedAtOrigin(
            "intersection numbers are taken at the origin, which is not on the first curve"
        )
    if not g.constant_term().is_zero():
        return ExtNat(0)
    if f.is_zero() or g.is_zero():
        return INF
    d = gcd_bivar(f, g)
    if d.degree() >= 1:
        if d.constant_term().is_zero():
            return INF
        # a common factor that misses the origin is a local unit on both sides
        f, g = f.divexact(d), g.divexact(d)
    return f, g


def intersection_multiplicity(f: MPoly, g: MPoly) -> ExtNat:
    """Local intersection number of f and g at the origin.

    f must vanish at the origin; g is arbitrary (a unit gives 0).  f need not
    be reduced: branches of its squarefree pieces are weighted by their
    multiplicity in f.
    """
    pair = _local_pair(f, g)
    if isinstance(pair, ExtNat):
        return pair
    f, g = pair
    total = 0
    for h, e in squarefree_decomposition(f):
        if not h.constant_term().is_zero():
            continue
        bs = germ(h).branches
        o = _branch_order_sum(bs, (g if bs.ctx is g.ctx else embed_poly(g, bs.ctx),))
        if o is None:
            return INF
        total += e * o
    return ExtNat(total)


def multiplicity(f: MPoly) -> int:
    m = f.order()
    if m is None:
        raise UnsupportedInput("the zero polynomial has no multiplicity")
    return m


def milnor(f: MPoly) -> ExtNat:
    """Milnor number as the intersection number of the two partials."""
    return germ(f).mu


def delta(f: MPoly) -> int:
    """Delta invariant: sum of m(m-1)/2 over the infinitely near tree."""
    return germ(f).delta


def branch_count(f: MPoly) -> int:
    return germ(f).r


def kappa(f: MPoly) -> ExtNat:
    """Intersection number with a generic polar, branch by branch."""
    return germ(f).kappa


def gamma_tilde(f: MPoly) -> int:
    """The gamma invariant in the given coordinates; see :attr:`Germ.gamma_tilde`."""
    return germ(f).gamma_tilde


def swan(f: MPoly) -> ExtNat | None:
    """Swan conductor mu - (2*delta - r + 1); None when mu is infinite."""
    return germ(f).swan


# ---------------------------------------------------------------------------
# Coordinate changes and the gamma search


def _trunc(f: MPoly, d: int) -> MPoly:
    return MPoly._from_reps(f.ctx, f.vars, {e: c for e, c in f.reps.items() if sum(e) <= d})


# The seeded coordinate search of gamma: how many random linear changes and
# smooth changes it tries, the top degree of a smooth change's terms (also the
# truncation of every candidate's inverse), and the default seed.
LINEAR_TRIES = 4
SMOOTH_TRIES = 6
SMOOTH_DEGREE = 3
GAMMA_SEED = 0x5EED


@dataclass
class CoordinateChange:
    """Polynomial coordinate change with invertible linear part.

    The images are exact polynomials, so applying the change to a polynomial
    is exact; the truncation degree only governs how far the formal inverse
    is computed for the validity check.
    """

    x_image: MPoly
    y_image: MPoly
    truncation: int = SMOOTH_DEGREE
    label: str = "change"

    def __post_init__(self):
        a, b = self.x_image.coefficient((1, 0)), self.x_image.coefficient((0, 1))
        c, d = self.y_image.coefficient((1, 0)), self.y_image.coefficient((0, 1))
        if (a * d - b * c).is_zero():
            raise InternalCheckError("linear part is not invertible")
        if not (
            self.x_image.constant_term().is_zero()
            and self.y_image.constant_term().is_zero()
        ):
            raise InternalCheckError("a coordinate change must fix the origin")
        self._lin = (a, b, c, d)

    def apply(self, f: MPoly) -> MPoly:
        return f.substitute([self.x_image, self.y_image])

    def truncated_inverse(self) -> tuple[MPoly, MPoly]:
        """Formal inverse to the truncation degree, by Newton iteration on
        the linear part; verified before returning."""
        ctx, vars = self.x_image.ctx, self.x_image.vars
        a, b, c, d = self._lin
        det_inv = (a * d - b * c).inverse()
        x = MPoly.variable(ctx, vars, vars[0])
        y = MPoly.variable(ctx, vars, vars[1])
        u = x.scale(d * det_inv) - y.scale(b * det_inv)
        v = y.scale(a * det_inv) - x.scale(c * det_inv)
        n = self.truncation
        for _ in range(n):
            ex = _trunc(self.x_image.substitute([u, v]), n) - x
            ey = _trunc(self.y_image.substitute([u, v]), n) - y
            if ex.is_zero() and ey.is_zero():
                break
            u = _trunc(u - (ex.scale(d * det_inv) - ey.scale(b * det_inv)), n)
            v = _trunc(v - (ey.scale(a * det_inv) - ex.scale(c * det_inv)), n)
        ex = _trunc(self.x_image.substitute([u, v]), n) - x
        ey = _trunc(self.y_image.substitute([u, v]), n) - y
        if not (ex.is_zero() and ey.is_zero()):
            raise InternalCheckError("coordinate change inverse did not converge")
        return u, v


def _linear_change(ctx: FieldCtx, vars: tuple[str, ...], a, b, c, d, label: str):
    """The linear change (a*x + b*y, c*x + d*y), from four elements of ctx."""
    x = MPoly.variable(ctx, vars, vars[0])
    y = MPoly.variable(ctx, vars, vars[1])
    return CoordinateChange(x.scale(a) + y.scale(b), x.scale(c) + y.scale(d), label=label)


def tangent_shear(
    ctx: FieldCtx, vars: tuple[str, ...], direction: tuple[FieldElement, FieldElement]
) -> CoordinateChange:
    """The change aligning the tangent line beta*y = alpha*x with y = 0.

    For direction (beta, alpha) it fixes x and sends y to (alpha*x - y)/beta,
    so applying it to f gives g with g(x, alpha*x - beta*y) = f(x, y); beta = 0
    is rejected since the line is then vertical.
    """
    beta, alpha = direction
    if beta.is_zero():
        raise DegenerateDirection("the tangent line is the y-axis")
    inv = beta.inverse()
    return _linear_change(ctx, vars, ctx.one, ctx.zero, alpha * inv, -inv, "shear")


@dataclass
class GammaResult:
    kind: str  # "exact" or "interval"
    value: Optional[int] = None
    lower: Optional[int] = None
    upper: Optional[int] = None
    safe_lower: Optional[int] = None
    witness: Optional[CoordinateChange] = None

    @property
    def certified(self) -> bool:
        """Whether the witness attains the floor, so the value is exact."""
        return self.kind == "exact"

    def to_json(self):
        if self.kind == "exact":
            return {"kind": "exact", "value": self.value}
        return {
            "kind": "interval",
            "lower": self.lower,
            "upper": self.upper,
            "safe_lower": self.safe_lower,
        }


def _germ_part(f: MPoly) -> MPoly:
    """Product of the factors of f through the origin, with multiplicity.

    Factors that are units at the origin do not change any local invariant,
    so they are stripped before germ-level computations on derived curves.
    """
    out = MPoly.constant(f.ctx, f.vars, f.ctx.one)
    for h, e in squarefree_decomposition(f):
        if h.constant_term().is_zero():
            if e > 1:
                raise InternalCheckError("derived curve is not reduced at the origin")
            out = out * h
    return out


def _candidates(G: Germ, f: MPoly, rng: random.Random):
    """The coordinate changes gamma tries, in order, each with the polynomial
    it applies to (None for the germ G of f itself): the identity, the swap,
    random linear changes, a shear per branch tangent that is neither axis
    (over the branches' field), then random smooth changes."""
    ctx, vars = f.ctx, f.vars
    one, zero = ctx.one, ctx.zero
    yield _linear_change(ctx, vars, one, zero, zero, one, "identity"), None
    yield _linear_change(ctx, vars, zero, one, one, zero, "swap"), f
    for _ in range(LINEAR_TRIES):
        for _ in range(40):
            a, b, c, d = (ctx.sample(rng) for _ in range(4))
            if not (a * d - b * c).is_zero():
                break
        else:
            break  # 40 singular draws in a row end the linear part
        yield _linear_change(ctx, vars, a, b, c, d, "linear"), f
    bs = G.branches
    for br in bs.branches:
        beta, alpha = br.tangent
        if not (beta.is_zero() or alpha.is_zero()):
            yield tangent_shear(bs.ctx, bs.f.vars, br.tangent), bs.f
    for _ in range(SMOOTH_TRIES):
        images = [MPoly.variable(ctx, vars, v) for v in vars]
        for i in range(4):  # two terms each, drawn alternately for x and y
            e = (rng.randint(0, SMOOTH_DEGREE), rng.randint(0, SMOOTH_DEGREE))
            if 2 <= e[0] + e[1] <= SMOOTH_DEGREE:
                images[i % 2] = images[i % 2] + MPoly(ctx, vars, {e: ctx.sample(rng)})
        yield CoordinateChange(*images, label="smooth"), f


def gamma(f: MPoly, *, seed: int = GAMMA_SEED) -> GammaResult:
    """Minimum of the coordinate gamma over coordinate changes.

    Exact if and only if some tested coordinate system attains the floor
    2*delta - r + 1 (that system is then a certificate of right im-goodness);
    otherwise an interval with the floor reported alongside as safe_lower.
    The systems are those of :func:`_candidates`, whose draws the seed picks.
    """
    G = germ(f)
    target = 2 * G.delta - G.r + 1
    best: Optional[int] = None
    witness: Optional[CoordinateChange] = None
    for cand, h in _candidates(G, f, random.Random(seed)):
        cand.truncated_inverse()
        value = (G if h is None else germ(_germ_part(cand.apply(h)))).gamma_tilde
        if value == target:
            return GammaResult("exact", target, target, target, target, witness=cand)
        if best is None or value < best:
            best, witness = value, cand
    return GammaResult(
        "interval", lower=target + 1, upper=best, safe_lower=target, witness=witness
    )


# ---------------------------------------------------------------------------
# Relation verifier


def _line_not_dividing(f: MPoly):
    ctx, vars = f.ctx, f.vars
    x = MPoly.variable(ctx, vars, vars[0])
    y = MPoly.variable(ctx, vars, vars[1])
    count = min(ctx.order, 8) if ctx.order is not None else 8
    for i in range(count):
        c = ctx.element_at(i) if ctx.order is not None else ctx.from_int(i)
        line = y - x.scale(c)
        if not f.substitute([x, x.scale(c)]).is_zero():
            return line
    return x if _axis_order(f, 0) is not None else None


def _unit_candidates(ctx, vars, rng, tries):
    one = MPoly.constant(ctx, vars, ctx.one)
    for _ in range(tries):
        u = one
        for _ in range(2):
            e = (rng.randint(0, 2), rng.randint(0, 2))
            if 1 <= e[0] + e[1]:
                u = u + MPoly(ctx, vars, {e: ctx.sample(rng)})
        if u.degree() != 0:
            yield u


def _germ_if_reduced(f: MPoly) -> Germ | None:
    try:
        return germ(f)
    except NotReduced:
        return None


def verify_relations(f: MPoly) -> dict[str, str]:
    """Pass/fail/skip verdicts for the ten structural relations.

    Any "fail" is a defect in this library, never in the input.
    """
    G = germ(f)
    _require_origin(f)
    p = f.ctx.char
    bs = G.branches
    dlt, r, mt = G.delta, G.r, G.mt
    mu, kap, gt = G.mu, G.kappa, G.gamma_tilde
    m_good, im_good = G.m_good, G.im_good
    target = 2 * dlt - r + 1
    out: dict[str, str] = {}

    def verdict(name, applicable, ok):
        out[name] = "skip" if not applicable else ("pass" if ok else "fail")

    verdict("R1", mu.is_finite, mu >= target)
    verdict("R2", True, gt >= target and ((gt == target) == im_good))
    verdict(
        "R3",
        kap.is_finite,
        kap.is_finite
        and gt <= int(kap) - mt + 1
        and (not m_good or gt == int(kap) - mt + 1),
    )
    polar_target = 2 * dlt + mt - r
    verdict("R4", True, kap >= polar_target and ((kap == polar_target) == m_good))
    sw = G.swan
    verdict(
        "R5",
        char_exceeds(p, mt) and mu.is_finite,
        sw is not None and mu - gt == sw,
    )
    r6_applies = kap.is_finite and char_exceeds(p, kap)
    verdict(
        "R6",
        r6_applies,
        not r6_applies
        or (
            sw is not None
            and sw == 0
            and mu.is_finite
            and kap == mu + mt - 1
            and kap == polar_target
        ),
    )

    line = _line_not_dividing(f)
    if line is None:
        out["R7"] = out["R8"] = "skip"
    else:
        prod, ln = germ(f * line), germ(line)
        i_fl = intersection_multiplicity(f, line)
        if not i_fl.is_finite:
            raise InternalCheckError("the line shares a component with the curve")
        verdict("R7", True, prod.gamma_tilde == gt + ln.gamma_tilde + 2 * int(i_fl) - 1)
        applicable = kap.is_finite and prod.kappa.is_finite and ln.kappa.is_finite
        verdict(
            "R8",
            applicable,
            applicable and int(prod.kappa) == int(kap) + int(ln.kappa) + 2 * int(i_fl),
        )

    if r == 1:
        b = bs.branches[0]
        try:
            charts = strict_transform(bs.f)
        except NeedsExtension as e:
            raise InternalCheckError("splitting field did not split a tangent") from e
        if len(charts) != 1:
            raise InternalCheckError("one branch produced several tangent points")
        law = mt * mt - mt + germ(charts[0].local_eq).gamma_tilde
        if b.ix != b.iy:
            verdict("R9", True, gt == law)
        else:
            verdict("R9", True, gt >= law)
    else:
        out["R9"] = "skip"

    rng = random.Random(0xA11CE)
    r10 = True
    checked_unit = False
    for u in _unit_candidates(f.ctx, f.vars, rng, 6):
        fu = _germ_if_reduced(f * u)
        if fu is None:
            continue
        checked_unit = True
        r10 = (
            fu.f.order() == mt
            and fu.r == r
            and fu.delta == dlt
            and fu.kappa == kap
            and fu.gamma_tilde == gt
            and _axis_order(fu.f, 0) == _axis_order(f, 0)
            and _axis_order(fu.f, 1) == _axis_order(f, 1)
        )
        break
    if checked_unit and r10 and m_good:
        one, zero = f.ctx.one, f.ctx.zero
        g = _linear_change(f.ctx, f.vars, zero, one, one, zero, "swap").apply(f)
        for u in _unit_candidates(f.ctx, f.vars, rng, 4):
            gu = _germ_if_reduced(g * u)
            if gu is None:
                continue
            r10 = r10 and gu.gamma_tilde == gt
            break
    verdict("R10", checked_unit, r10)
    return out


# ---------------------------------------------------------------------------
# The report


@dataclass
class InvariantReport:
    char: int
    field: str
    poly: str
    mt: int
    r: int
    delta: int
    mu: ExtNat
    kappa: ExtNat
    gamma_tilde: int
    gamma: GammaResult
    swan: ExtNat | None
    m_good: bool
    im_good: bool
    right_im_good: str
    relations: dict[str, str]

    def to_json(self) -> dict:
        return {
            "char": self.char,
            "field": self.field,
            "poly": self.poly,
            "mt": self.mt,
            "r": self.r,
            "delta": self.delta,
            "mu": self.mu.to_json(),
            "kappa": self.kappa.to_json(),
            "gamma_tilde": self.gamma_tilde,
            "gamma": self.gamma.to_json(),
            "swan": "undefined" if self.swan is None else self.swan.to_json(),
            "m_good": self.m_good,
            "im_good": self.im_good,
            "right_im_good": self.right_im_good,
            "relations": dict(self.relations),
        }


def analyze_local(f: MPoly, *, seed: int = GAMMA_SEED) -> InvariantReport:
    """Full invariant report for a reduced germ at the origin.

    A failed structural relation raises InternalCheckError: the report is
    rejected rather than published.
    """
    G = germ(f)
    _require_origin(f)
    gm = gamma(f, seed=seed)
    relations = verify_relations(f)
    failed = sorted(k for k, v in relations.items() if v == "fail")
    if failed:
        raise InternalCheckError("structural relations failed: " + ", ".join(failed))
    return InvariantReport(
        char=f.ctx.char,
        field=f.ctx.descriptor(),
        poly=str(f),
        mt=G.mt,
        r=G.r,
        delta=G.delta,
        mu=G.mu,
        kappa=G.kappa,
        gamma_tilde=G.gamma_tilde,
        gamma=gm,
        swan=G.swan,
        m_good=G.m_good,
        im_good=G.im_good,
        right_im_good="yes" if gm.certified else "unknown",
        relations=relations,
    )
