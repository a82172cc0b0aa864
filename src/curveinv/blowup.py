"""Point blow-ups of plane curve germs and the infinitely near tree.

A germ of multiplicity m is pulled back through (x, y) -> (x, x(y+c)) in the
x-chart, or (x, y) -> (y(x+c), y) in the y-chart, and the exceptional factor
x^m (resp. y^m) is stripped exactly; the identity f(u, u(v+c)) = u^m * g(u,v)
is an invariant the tests replay literally.  Chart centers are the tangent
directions of the germ; when one lives outside the coefficient field the
private :class:`NeedsExtension` escapes to a driver that enlarges the field
and restarts, so all published results live in a single context.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import MPoly, embed_poly
from .errors import InternalCheckError, NotSingularAtOrigin
from .field import FieldElement
from .unipoly import UniPoly


class NeedsExtension(Exception):
    """A polynomial fails to split over the working field (a tangent
    direction, or a coordinate of a projective singular point); carries it."""

    def __init__(self, poly: UniPoly):
        super().__init__(str(poly))
        self.poly = poly


def blow_up_x(f: MPoly, center: FieldElement) -> MPoly:
    """Strict transform in the x-chart at direction y/x = center.

    Returns g with f(x, x*(y+center)) = x^m * g(x, y), m = ord f; the new
    origin is the intersection with the exceptional line.
    """
    m = f.order()
    assert m is not None and m >= 1
    ctx, vars = f.ctx, f.vars
    ypc = MPoly(ctx, vars, {(0, 1): ctx.one, (0, 0): center})
    pows = [MPoly.constant(ctx, vars, ctx.one)]
    out = MPoly.zero(ctx, vars)
    for (i, j), c in sorted(f.terms.items()):
        while len(pows) <= j:
            pows.append(pows[-1] * ypc)
        shift = MPoly(ctx, vars, {(i + j - m, 0): c})
        out = out + shift * pows[j]
    return out


def blow_up_y(f: MPoly, center: FieldElement) -> MPoly:
    """Strict transform in the y-chart at direction x/y = center."""
    m = f.order()
    assert m is not None and m >= 1
    ctx, vars = f.ctx, f.vars
    xpc = MPoly(ctx, vars, {(1, 0): ctx.one, (0, 0): center})
    pows = [MPoly.constant(ctx, vars, ctx.one)]
    out = MPoly.zero(ctx, vars)
    for (i, j), c in sorted(f.terms.items()):
        while len(pows) <= i:
            pows.append(pows[-1] * xpc)
        shift = MPoly(ctx, vars, {(0, i + j - m): c})
        out = out + shift * pows[i]
    return out


def tangent_cone_poly(f: MPoly, chart: str) -> UniPoly:
    """The multiplicity-m part as a univariate: sum of c_ij w^j (x-chart)
    or c_ij w^i (y-chart) over i+j = m."""
    m = f.order()
    coeffs: dict[int, FieldElement] = {}
    for (i, j), c in f.terms.items():
        if i + j == m:
            k = j if chart == "x" else i
            coeffs[k] = coeffs.get(k, f.ctx.zero) + c
    out = [f.ctx.zero] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return UniPoly(f.ctx, out)


@dataclass(frozen=True)
class StrictTransformChart:
    chart: str  # "x" or "y"
    center: FieldElement | None  # None encodes the direction opposite the chart
    local_eq: MPoly
    m: int


def strict_transform(f: MPoly, prefer: str = "x_first") -> list[StrictTransformChart]:
    """One chart per point of the strict transform on the exceptional line.

    Raises :class:`NeedsExtension` when a tangent direction is not rational
    over the coefficient field.  Chart order is deterministic: sorted finite
    centers first, then the opposite-chart point if present.
    """
    m = f.order()
    if m is None or m < 1:
        raise NotSingularAtOrigin("germ does not vanish at the origin")
    primary = "x" if prefer == "x_first" else "y"
    cone = tangent_cone_poly(f, primary)
    roots = cone.roots_with_multiplicity()
    covered = sum(mult for _, mult in roots)
    if covered < cone.degree():
        residual = cone
        for r, mult in roots:
            residual = residual // UniPoly(f.ctx, [-r, f.ctx.one]) ** mult
        raise NeedsExtension(residual)
    charts = []
    for r, _ in roots:
        local = blow_up_x(f, r) if primary == "x" else blow_up_y(f, r)
        charts.append(StrictTransformChart(primary, r, local, m))
    if cone.degree() < m:
        other = "y" if primary == "x" else "x"
        local = blow_up_y(f, f.ctx.zero) if other == "y" else blow_up_x(f, f.ctx.zero)
        charts.append(StrictTransformChart(other, None, local, m))
    return charts


@dataclass
class InfinitelyNearTree:
    mult: int
    children: list[tuple[str, FieldElement | None, "InfinitelyNearTree"]] = field(
        default_factory=list
    )

    def nodes(self):
        yield self
        for _, _, sub in self.children:
            yield from sub.nodes()

    def delta_contribution(self) -> int:
        return sum(n.mult * (n.mult - 1) // 2 for n in self.nodes())

    def multiplicities(self) -> list[int]:
        return [n.mult for n in self.nodes()]

    def to_json(self):
        return {
            "mult": self.mult,
            "children": [
                {
                    "chart": chart,
                    "center": "inf" if center is None else str(center),
                    "tree": sub.to_json(),
                }
                for chart, center, sub in self.children
            ],
        }


def run_with_restarts(f: MPoly, builder):
    """Run ``builder(f)``, enlarging the field and restarting on
    :class:`NeedsExtension`; returns (f over the final context, result)."""
    for _ in range(64):
        try:
            return f, builder(f)
        except NeedsExtension as e:
            ctx2, _root, _emb = f.ctx.extend_with_root(e.poly)
            if ctx2 is f.ctx:
                raise InternalCheckError("field extension made no progress")
            f = embed_poly(f, ctx2)
    raise InternalCheckError("too many field extensions while resolving")
