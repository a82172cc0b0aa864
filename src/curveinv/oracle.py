"""Brute-force recounts of the main invariants, for tests and comparisons.

Nothing here is part of the public library surface.  Each oracle reaches the
same number as the corresponding main-path computation along a road of its
own, with the inputs named below taken from the main path:

* :func:`i_resultant` reads an intersection number off the x-adic order of a
  resultant, after a shear whose validity is certified rather than assumed
  (the edge rules, a unit or a common factor, are the main path's own);
* :func:`delta_semigroup` recounts delta as the codimension of the monomial
  pullback span inside truncated parametrization space, a rank computation;
  its window (twice the tree's delta) and its pullback series come from hne;
* :func:`dual_degree_elim` recovers deg(rho) times the dual degree by
  eliminating the pencil of lines through a random point and stripping the
  factors contributed by singular points; of those it reads only their
  coordinates and multiplicities (no kappa, mu or delta), and the
  multiplicities give the ceiling d(d-1) - sum m(m-1) that ends its search.

Oracles are allowed to give up (ShearExhausted, EliminationDegenerate) but a
value they do return is exact, not approximate: every randomized choice is
gated by a certificate or by cross-frame agreement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import MPoly, embed_poly, resultant
from .errors import EliminationDegenerate, InternalCheckError, ShearExhausted, UnsupportedInput
from .field import FieldCtx, FieldElement, _flat_finite_ctx, embed
from .hne import BranchSet
from .invariants import ExtNat, _linear_change, _local_pair, germ
from .projective import _validated_degree, dehomogenize, singular_points
from .unipoly import UniPoly

__all__ = [
    "SemigroupData",
    "branch_semigroup",
    "delta_semigroup",
    "dual_degree_elim",
    "i_resultant",
]


# ---------------------------------------------------------------------------
# Intersection numbers via resultants
# ---------------------------------------------------------------------------


def _certified_order(F: MPoly, G: MPoly) -> int | None:
    """ord_x Res_y(F, G) when the shear certificate holds, else None.

    The certificate has three parts: neither curve contains the line x = 0,
    neither leading y-coefficient vanishes at x = 0 (so no root of either
    escapes to infinity along the x-adic disc), and the only common zero on
    the line x = 0 is the origin.  Under those conditions the order of the
    resultant counts exactly the pairs of Puiseux roots meeting at the
    origin, which is the local intersection number.
    """
    ctx = F.ctx
    F0 = F.subs_const(0, ctx.zero)
    if F0.is_zero():
        return None
    G0 = G.subs_const(0, ctx.zero)
    if G0.is_zero():
        return None
    if F.coeff_list(1)[-1].constant_term().is_zero():
        return None
    if G.coeff_list(1)[-1].constant_term().is_zero():
        return None
    h = F0.to_unipoly(1).gcd(G0.to_unipoly(1))
    if any(not h.coefficient(i).is_zero() for i in range(h.degree())):
        return None
    r = resultant(F, G, F.vars[1])
    if r.is_zero():
        raise InternalCheckError("common factor survived the gcd division")
    return r.order_in(0)


def _quadratic_enlargement(f: MPoly, g: MPoly) -> tuple[MPoly, MPoly]:
    big = _flat_finite_ctx(f.ctx.char, 2 * f.ctx.absdegree)
    return embed_poly(f, big), embed_poly(g, big)


def i_resultant(f: MPoly, g: MPoly, *, seed: int = 0x51EA4, retries: int = 10) -> ExtNat:
    """Intersection number of f and g at the origin, by resultant order.

    Shares the edge rules of the branch-based computation
    (:func:`curveinv.invariants._local_pair`).  Shear directions are drawn at
    random until the certificate of :func:`_certified_order` holds; tiny
    fields that run out of directions are replaced by their quadratic
    extensions, and each field gets its own ``retries`` draws.  Raises
    ShearExhausted after ``retries`` uncertified draws in one field, which
    ends the search in the first field with at least ``retries`` elements; a
    returned value is always exact.
    """
    pair = _local_pair(f, g)
    if isinstance(pair, ExtNat):
        return pair
    f, g = pair
    rng = random.Random(seed)
    used: set[FieldElement] = set()
    attempts = 0
    while attempts < retries:
        ctx = f.ctx
        if ctx.order is not None and len(used) == ctx.order:
            f, g = _quadratic_enlargement(f, g)
            used, attempts = set(), 0
            continue
        c = ctx.sample(rng)
        if ctx.order is not None:
            while c in used:
                c = ctx.sample(rng)
            used.add(c)
        attempts += 1
        shear = _linear_change(ctx, f.vars, ctx.one, c, ctx.zero, ctx.one, "shear")
        value = _certified_order(shear.apply(f), shear.apply(g))
        if value is not None:
            return ExtNat(value)
    raise ShearExhausted(f"no certified shear direction in {retries} draws")


# ---------------------------------------------------------------------------
# Delta via semigroup gaps
# ---------------------------------------------------------------------------


def _pullback_rows(bs: BranchSet, prec: int) -> list[list]:
    """One row of raw reps per monomial that some branch sees below the
    truncation order.

    The row of x^a y^b is the concatenation over branches of the truncated
    pullback (x o phi)^a (y o phi)^b.  Monomials of order > prec - 1 on every
    branch truncate to zero and are skipped; nothing else ever contributes,
    because coordinate orders are at least one on each branch.
    """
    ctx = bs.ctx
    # each branch's coordinate orders, prec standing in for an axis's infinity
    axes = [(prec if br.ix is None else br.ix, prec if br.iy is None else br.iy) for br in bs.branches]
    params = [b.series.at(prec) for b in bs.branches]

    def axis_pows(ser: list, order: int) -> list[list]:
        """The powers of a series of this order that survive the truncation."""
        pows = [[ctx.rone] + [ctx.rzero] * (prec - 1)]
        for _ in range((prec - 1) // order):
            pows.append(ctx.rconv(pows[-1], ser, prec))
        return pows

    xpows = [axis_pows(xs, ix) for (xs, _), (ix, _) in zip(params, axes)]
    ypows = [axis_pows(ys, iy) for (_, ys), (_, iy) in zip(params, axes)]
    # (least order, a, b, order on each branch); the orders grow with a and b
    monos = []
    for a in range(prec):
        b = 0
        while min(orders := [a * ix + b * iy for ix, iy in axes]) < prec:
            monos.append((min(orders), a, b, orders))
            b += 1
        if not b:
            break
    monos.sort()
    rows, zeros = [], [ctx.rzero] * prec
    for _, a, b, orders in monos:
        row = []
        for o, xp, yp in zip(orders, xpows, ypows):
            row += ctx.rconv(xp[a], yp[b], prec) if o < prec else zeros  # zero past the window
        rows.append(row)
    return rows


def _pivot_columns(ctx: FieldCtx, rows: list[list]) -> list[int]:
    """Pivot columns of the row space of rows of raw reps over ``ctx``."""
    zero, rsub, rmul = ctx.rzero, ctx.rsub, ctx.rmul
    pivots: list[tuple[int, list]] = []
    for row in rows:
        for col, prow in pivots:
            c = row[col]
            if c != zero:
                row = [a if b == zero else rsub(a, rmul(c, b)) for a, b in zip(row, prow)]
        lead = next((j for j, a in enumerate(row) if a != zero), None)
        if lead is None:
            continue
        inv = ctx.rinv(row[lead])
        pivots.append((lead, [rmul(a, inv) for a in row]))
    return sorted(col for col, _ in pivots)


@dataclass
class SemigroupData:
    """Value semigroup of one branch, observed below a conductor bound."""

    values: set[int]
    conductor: int
    gaps: int


def branch_semigroup(f: MPoly) -> SemigroupData:
    """Observed value semigroup of an irreducible germ.

    The realizable pullback orders of a space of functions are the pivot
    columns of their truncated-coefficient matrix, so one row reduction
    reads off the whole staircase.  The probe ceiling 2*delta + 2 is past
    the conductor, which keeps the gap count complete.  That delta is the
    blow-up tree's, and the pullbacks run along the branch series of hne.
    """
    bs = germ(f).branches
    if bs.r != 1:
        raise UnsupportedInput("value semigroups are attached to single branches")
    prec = 2 * bs.tree.delta_contribution() + 3
    values = set(_pivot_columns(bs.ctx, _pullback_rows(bs, prec)))
    missing = sorted(set(range(prec)) - values)
    conductor = missing[-1] + 1 if missing else 0
    return SemigroupData(values=values, conductor=conductor, gaps=len(missing))


def delta_semigroup(f: MPoly) -> int:
    """Delta recounted as a codimension, a rank rather than a sum over the tree.

    K[[x, y]] maps onto the local ring of the germ, which sits inside the
    product of the branch parametrization rings; delta is the codimension
    of that inclusion.  Truncating at one past twice delta loses nothing,
    since the conductor of the normalization lands that deep at worst, so
    delta = r * prec - rank of the monomial pullback matrix.  The window is
    still sized from the blow-up tree's delta (``bs.tree.delta_contribution()``),
    and the pullbacks run along the branch series of hne.
    """
    bs = germ(f).branches
    prec = 2 * bs.tree.delta_contribution() + 3
    rank = len(_pivot_columns(bs.ctx, _pullback_rows(bs, prec)))
    return bs.r * prec - rank


# ---------------------------------------------------------------------------
# Dual degree via elimination
# ---------------------------------------------------------------------------


def _det3(m: list[list[FieldElement]]) -> FieldElement:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _apply_matrix(F: MPoly, m: list[list[FieldElement]]) -> MPoly:
    images = []
    for i in range(3):
        img = MPoly.zero(F.ctx, F.vars)
        for j in range(3):
            img = img + MPoly.variable(F.ctx, F.vars, F.vars[j]).scale(m[i][j])
        images.append(img)
    return F.substitute(images)


def _inverse_image(trip: tuple, m: list[list[FieldElement]], det: FieldElement):
    """adj(m) applied to the point; a nonzero multiple of m^-1 * trip."""
    ctx = det.ctx
    cof = [
        [
            m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
            - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3]
            for i in range(3)
        ]
        for j in range(3)
    ]
    out = []
    for i in range(3):
        acc = ctx.zero
        for j in range(3):
            acc = acc + cof[i][j] * trip[j]
        out.append(acc)
    return tuple(out)


def _one_frame(
    FT: MPoly, sing: list[tuple], d: int, rng: random.Random
) -> int | None:
    """Tangent count from one random vantage point, or None if degenerate.

    Lines through Q = (q0, q1) are parametrized by slope; the s-resultant of
    the restricted curve and its s-derivative is a polynomial in the slope
    whose roots are the tangent and singular directions.  A random projective
    change first moves every singular point into the affine chart, so no
    exceptional factor can hide at slope infinity.  The frame is accepted
    only when the eliminant reaches its full degree d(d-1); the remainder
    after stripping all factors at singular slopes is the tangent count.
    """
    ctx = FT.ctx
    for _ in range(8):
        m = [[ctx.sample(rng) for _ in range(3)] for _ in range(3)]
        det = _det3(m)
        if det.is_zero():
            continue
        G = _apply_matrix(FT, m)
        moved = [_inverse_image(t, m, det) for t in sing]
        if any(t[2].is_zero() for t in moved):
            continue
        affine = [(t[0] * t[2].inverse(), t[1] * t[2].inverse()) for t in moved]

        q = None
        for _ in range(8):
            q0, q1 = ctx.sample(rng), ctx.sample(rng)
            if G.eval([q0, q1, ctx.one]).is_zero():
                continue
            if any((a - q0).is_zero() for a, _ in affine):
                continue
            q = (q0, q1)
            break
        if q is None:
            continue

        g2 = dehomogenize(G, "z")
        x = MPoly.variable(ctx, g2.vars, g2.vars[0])
        y = MPoly.variable(ctx, g2.vars, g2.vars[1])
        # x plays the parameter along each line, y plays the slope
        pencil = g2.substitute([x + MPoly.constant(ctx, g2.vars, q[0]),
                                y * x + MPoly.constant(ctx, g2.vars, q[1])])
        coeffs = pencil.coeff_list(0)
        if len(coeffs) - 1 != d:
            continue
        elim = resultant(pencil, pencil.partial(0), g2.vars[0])
        if elim.is_zero():
            continue
        # Res(g, dg/ds) = lc_s(g) * disc_s(g); only the discriminant counts
        # tangent lines, the leading factor just marks asymptotic slopes.
        D, lc_rem = divmod(elim.to_unipoly(1), coeffs[-1].to_unipoly(1))
        if not lc_rem.is_zero():
            continue
        if D.degree() != d * (d - 1):
            continue

        slopes = {(b - q[1]) * (a - q[0]).inverse() for a, b in affine}
        for s in slopes:
            lin = UniPoly(ctx, [-s, ctx.one])
            while D.degree() >= 1:
                quo, rem = divmod(D, lin)
                if not rem.is_zero():
                    break
                D = quo
        return D.degree()
    return None


# How many seeded pencil frames dual_degree_elim draws.
DUAL_FRAMES = 6


def dual_degree_elim(F: MPoly, *, seed: int = 0xD0A1) -> int:
    """deg(rho) times the dual degree, by pencil elimination.

    Desk-scale recount for tame plane curves of degree at most four: the
    eliminant of the pencil through a generic point has degree d(d-1), and
    removing the factors at slopes of singular points leaves one degree per
    tangent line counted with its multiplicity.  A frame whose vantage point
    is unlucky strips too much (the polar contribution at a singular point
    only goes up on special lines), never too little, so each frame's value
    is at most the truth and generic frames hit it exactly.  The maximum
    over ``DUAL_FRAMES`` seeded frames is returned once two of them attain it;
    anything less conclusive raises EliminationDegenerate.

    No frame can pass the ceiling d(d-1) - sum of m(m-1) over the singular
    points, m the multiplicity: the product is d(d-1) - sum of kappa, and
    kappa >= 2 delta - r + mt >= m(m-1) at each point in every characteristic
    (2 delta >= m(m-1) and r <= mt).  In the tame characteristics accepted
    here the ceiling is the product exactly when every singular point is an
    ordinary m-fold point.  So two frames at the ceiling already decide the
    rule above and end the search, and a frame above it stripped too little,
    a defect that raises InternalCheckError.
    """
    d = _validated_degree(F)
    if d > 4:
        raise UnsupportedInput("elimination is desk-scale; degree at most four")
    if d < 2:
        raise UnsupportedInput("a line has no dual curve")
    p = F.ctx.char
    if p != 0 and p <= d * (d - 1):
        raise UnsupportedInput("tame characteristic required: zero or p > d(d-1)")

    pts = singular_points(F, analyze=False)
    ctx = pts[0].coords[0].ctx if pts else F.ctx
    # over a tiny field the vantage point lands on a special line too often;
    # a couple of quadratic extensions make that a rarity
    while ctx.order is not None and ctx.order < 100:
        ctx = _flat_finite_ctx(ctx.char, 2 * ctx.absdegree)
    FT = embed_poly(F, ctx)
    sing = [tuple(embed(c, ctx) for c in p_.coords) for p_ in pts]

    ceiling = d * (d - 1) - sum(m * (m - 1) for m in (p_.local_eq.order() for p_ in pts))
    rng = random.Random(seed)
    best: int | None = None
    hits = 0
    for _ in range(DUAL_FRAMES):
        v = _one_frame(FT, sing, d, rng)
        if v is None:
            continue
        if v > ceiling:
            raise InternalCheckError(f"a pencil frame counted {v} tangents, past the ceiling {ceiling}")
        if best is None or v > best:
            best, hits = v, 1
        elif v == best:
            hits += 1
        if best == ceiling and hits == 2:  # no later frame can pass it
            break
    if best is None or hits < 2:
        raise EliminationDegenerate("pencil frames kept degenerating or disagreeing")
    return best
