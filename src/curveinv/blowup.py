"""Point blow-ups of plane curve germs and the infinitely near tree.

``blow_up(f, chart, center)`` pulls a germ of multiplicity m back through
(x, y) -> (x, x(y+c)) in the x-chart, or (x, y) -> (y(x+c), y) in the
y-chart, and strips the exceptional factor x^m (resp. y^m) exactly; the
identity f(u, u(v+c)) = u^m * g(u,v) is an invariant the tests replay
literally.  Chart centers are the tangent directions of the germ.  Every
"does it split, or which field comes next" question goes through
:func:`split`: it returns the roots when a univariate splits over the
coefficient field, and otherwise raises the private :class:`NeedsExtension`
with the least nonlinear factor, which escapes to :func:`run_with_restarts`;
that driver builds the next field from that factor, without factoring it
again, and restarts, so all published results live in a single context.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from .algebra import MPoly, _sum_ops, embed_poly
from .errors import InternalCheckError, NotSingularAtOrigin
from .field import FieldElement, _rp_mul
from .unipoly import UniPoly


class NeedsExtension(Exception):
    """A polynomial fails to split over the working field (a tangent
    direction, or a coordinate of a projective singular point).  ``poly`` is
    its least nonlinear factor, monic and irreducible, which :func:`split`
    chose; the next field is built from it."""

    def __init__(self, poly: UniPoly):
        super().__init__(str(poly))
        self.poly = poly


# The blow-ups of f, f*u, the R9 chart and f*line ask about the same cones; one
# seed-42 pass asks about 66 distinct ones on projective_desk, 56 on corpus_charp
# and 26 on char0_classical.
_SPLIT_MEMO_SIZE = 256
_SPLITS: OrderedDict = OrderedDict()


def split(u: UniPoly) -> list[tuple[FieldElement, int]]:
    """Roots of ``u`` with multiplicities, sorted by sort key, when ``u``
    splits over its field; otherwise :class:`NeedsExtension` carrying the
    least nonlinear factor by (degree, sort key).

    Both answers are read off :meth:`~curveinv.unipoly.UniPoly.factor` and
    kept in a memo of the most recently used ones, keyed by the field and the
    monic ``u``, so a cone asked about again is not factored again.
    """
    if u.degree() < 1:
        return []
    key = (u.ctx._key, u.monic().reps)
    hit = _SPLITS.get(key)
    if hit is None:
        factors = u.factor()
        hit = next((g for g, _ in factors if g.degree() > 1), None)
        if hit is None:
            hit = sorted(((-g.coefficient(0), m) for g, m in factors), key=lambda rm: rm[0].sort_key())
        _SPLITS[key] = hit
        if len(_SPLITS) > _SPLIT_MEMO_SIZE:
            _SPLITS.popitem(last=False)
    else:
        _SPLITS.move_to_end(key)
    if isinstance(hit, UniPoly):
        raise NeedsExtension(hit)
    return list(hit)


def blow_up(f: MPoly, chart: str, center: FieldElement) -> MPoly:
    """Strict transform in the x- or y-chart at the direction ``center``.

    Returns g with f(x, x*(y+center)) = x^m * g(x, y) in the x-chart, or
    f(y*(x+center), y) = y^m * g(x, y) in the y-chart, m = ord f; the new
    origin is the intersection with the exceptional line.
    """
    m = f.order()
    if m is None or m < 1:
        raise InternalCheckError("blow-up needs a germ through the origin")
    ctx, c = f.ctx, f.ctx.rcoerce(center)
    k = 1 if chart == "x" else 0  # the variable that moves by the center
    if ctx.ris_zero(c):  # each term goes to one monomial, and no two to the same
        return MPoly._from_reps(ctx, f.vars, {
            (i + j - m, j) if k else (i, i + j - m): a for (i, j), a in f.reps.items()
        })
    # the coefficients of (v + c)^j, v the moving variable, one row per j
    rows, moved = [[ctx.rone]], [c, ctx.rone]
    radd, rmul = _sum_ops(ctx)
    sums: dict = {}
    for e, a in f.reps.items():
        while len(rows) <= e[k]:
            rows.append(_rp_mul(ctx, rows[-1], moved))
        s = e[0] + e[1] - m
        for l, b in enumerate(rows[e[k]]):
            key = (s, l) if k else (l, s)
            t = rmul(a, b)
            cur = sums.get(key)
            sums[key] = t if cur is None else radd(cur, t)
    return MPoly._from_sums(ctx, f.vars, sums)


def tangent_cone_poly(f: MPoly) -> UniPoly:
    """The multiplicity-m part in the x-chart, sum of c_ij w^j over i+j = m."""
    m = f.order()
    out = [f.ctx.rzero] * (m + 1)
    for (i, j), c in f.reps.items():
        if i + j == m:
            out[j] = c
    return UniPoly._from_reps(f.ctx, out)


@dataclass(frozen=True)
class StrictTransformChart:
    chart: str  # "x" or "y"
    center: FieldElement | None  # None encodes the direction opposite the chart
    local_eq: MPoly


def strict_transform(f: MPoly) -> list[StrictTransformChart]:
    """One chart per point of the strict transform on the exceptional line.

    Raises :class:`NeedsExtension` when a tangent direction is not rational
    over the coefficient field.  Chart order is deterministic: sorted finite
    centers first, then the opposite-chart point if present.
    """
    m = f.order()
    if m is None or m < 1:
        raise NotSingularAtOrigin("germ does not vanish at the origin")
    cone = tangent_cone_poly(f)
    charts = [StrictTransformChart("x", r, blow_up(f, "x", r)) for r, _ in split(cone)]
    if cone.degree() < m:
        charts.append(StrictTransformChart("y", None, blow_up(f, "y", f.ctx.zero)))
    return charts


@dataclass
class InfinitelyNearTree:
    """A point of the resolution: its multiplicity, and the points on its
    blow-up by chart and center.  The walks below keep their own stack, so
    a long chain cannot overflow Python's."""

    mult: int
    children: list[tuple[str, FieldElement | None, "InfinitelyNearTree"]] = field(
        default_factory=list
    )

    def nodes(self):
        """Every node in preorder, children in chart order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            for _, _, sub in reversed(node.children):
                stack.append(sub)

    def delta_contribution(self) -> int:
        return sum(n.mult * (n.mult - 1) // 2 for n in self.nodes())

    def to_json(self):
        out = {"mult": self.mult, "children": []}
        work = [(self, out)]
        while work:
            node, data = work.pop()
            for chart, center, sub in node.children:
                tree = {"mult": sub.mult, "children": []}
                data["children"].append(
                    {"chart": chart, "center": "inf" if center is None else str(center), "tree": tree}
                )
                work.append((sub, tree))
        return out


def run_with_restarts(f: MPoly, builder):
    """Run ``builder(f)``, enlarging the field and restarting on
    :class:`NeedsExtension`; returns (f over the final context, result)."""
    for _ in range(64):
        try:
            return f, builder(f)
        except NeedsExtension as e:
            ctx2 = f.ctx.extend_with_root(e.poly)
            if ctx2 is f.ctx:
                raise InternalCheckError("field extension made no progress")
            f = embed_poly(f, ctx2)
    raise InternalCheckError("too many field extensions while resolving")
