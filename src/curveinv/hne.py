"""Branch decomposition of a reduced plane curve germ.

The germ is resolved by iterated point blow-ups; each multiplicity-one end is
solved as a power series graph and the parametrization is lifted back down
the chart maps, so every branch comes with an exact parametrization
(x(t), y(t)), its chain of infinitely near multiplicities, and its contact
orders with the axes.  Pairwise intersection numbers fall out of the shared
part of the chains.

Every decomposition is certified before it is returned: the parametrization
annihilates the input to past the Bezout bound, the exponent window up to
the conductor proves primitivity, and the multiplicity chains reproduce the
blow-up tree's delta two ways.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import MPoly, squarefree_part
from .blowup import InfinitelyNearTree, run_with_restarts, strict_transform
from .errors import (
    InternalCheckError,
    NotReduced,
    NotSingularAtOrigin,
)
from .field import FieldCtx, FieldElement
from .series import Param, series_order

# An edge in the blow-up tree: (chart, center); the root carries None.
Edge = tuple[str, FieldElement | None] | None


@dataclass
class Branch:
    """One analytically irreducible component through the origin.

    ``ix`` and ``iy`` are the contact orders with the axes x = 0 and y = 0;
    None means the coordinate vanishes identically on the branch (the branch
    is that axis).  ``path`` lists (edge, multiplicity) pairs root-first
    along the branch's chain of infinitely near points.
    """

    series: Param
    path: list[tuple[Edge, int]]
    ix: int | None
    iy: int | None
    mt: int
    tangent: tuple[FieldElement, FieldElement]
    delta: int

    def param(self, prec: int) -> tuple[list[FieldElement], list[FieldElement]]:
        ctx = self.series.ctx
        xs, ys = self.series.at(max(prec, 0))  # the CLI passes --prec unchecked
        return [FieldElement(ctx, c) for c in xs], [FieldElement(ctx, c) for c in ys]


@dataclass
class BranchSet:
    f: MPoly
    ctx: FieldCtx
    branches: list[Branch]
    tree: InfinitelyNearTree
    _pairwise: dict[tuple[int, int], int]

    @property
    def r(self) -> int:
        return len(self.branches)

    @property
    def mt(self) -> int:
        return self.f.order()

    def pairwise(self, i: int, j: int) -> int:
        if i == j:
            raise ValueError("a branch has no self-intersection number")
        a, b = min(i, j), max(i, j)
        return self._pairwise[(a, b)]

    def pairwise_total(self) -> int:
        return sum(self._pairwise.values())


@dataclass
class _Raw:
    series: Param
    path: list[tuple[Edge, int]]


def _solve_leaf(g: MPoly) -> _Raw:
    solve_for = "x" if g.partial(1).constant_term().is_zero() else "y"
    return _Raw(Param(g, solve_for), [(None, 1)])


def _coordinate_orders(param: Param, vars: tuple[str, ...], bound: int):
    """Orders of x(t) and y(t) through ``bound``, None past it."""
    return tuple(series_order(MPoly.variable(param.ctx, vars, v), param, bound) for v in vars)


def _decompose(g: MPoly) -> tuple[InfinitelyNearTree, list[_Raw]]:
    m = g.order()
    node = InfinitelyNearTree(m)
    if m == 1:
        return node, [_solve_leaf(g)]
    out: list[_Raw] = []
    total_here = 0
    for ch in strict_transform(g):
        subtree, subs = _decompose(ch.local_eq)
        node.children.append((ch.chart, ch.center, subtree))
        for raw in subs:
            raw.series.push(ch.chart, ch.center)
            orders = [o for o in _coordinate_orders(raw.series, g.vars, m) if o is not None]
            if not orders:
                raise InternalCheckError("lifted parametrization lost its order")
            m_here = min(orders)
            total_here += m_here
            path = [(None, m_here), ((ch.chart, ch.center), raw.path[0][1])]
            path.extend(raw.path[1:])
            out.append(_Raw(raw.series, path))
    if total_here != m:
        raise InternalCheckError("branch multiplicities do not add up to the node order")
    return node, out


def _tangent(
    ctx: FieldCtx, param: Param, ix: int | None, iy: int | None
) -> tuple[FieldElement, FieldElement]:
    if ix is None:
        return ctx.zero, ctx.one
    if iy is None or ix < iy:
        return ctx.one, ctx.zero
    if ix > iy:
        return ctx.zero, ctx.one
    xs, ys = param.at(ix + 1)
    return ctx.one, FieldElement(ctx, ys[iy]) / FieldElement(ctx, xs[ix])


def _certify(f: MPoly, param: Param, delta_b: int, mt_b: int) -> None:
    bound = (f.degree() + 1) ** 2
    # the pullback is expected to vanish, so no smaller precision can stop early
    bad = series_order(f, param, bound, start=bound + 1)
    if bad is not None:
        raise InternalCheckError(
            f"parametrization does not annihilate the curve (order {bad})"
        )
    window = 2 * delta_b + mt_b + 1
    zero = param.ctx.rzero
    xs, ys = param.at(window + 1)
    exps = [n for n in range(1, window + 1) if xs[n] != zero or ys[n] != zero]
    if math.gcd(*exps) != 1:
        raise InternalCheckError("parametrization is not primitive")


def branch_decompose(f: MPoly, *, certify: bool = True) -> BranchSet:
    """All branches of the reduced germ f at the origin, over one common field.

    Tangent directions met during resolution that are not rational over the
    coefficient field trigger a field extension and a clean restart, so the
    returned :class:`BranchSet` lives over a single (possibly larger) context.
    """
    if f.is_zero():
        raise NotReduced("the zero polynomial is not reduced")
    if f.constant_term().is_zero() and not squarefree_part(f)[1]:
        raise NotReduced("the curve has a repeated component")
    return decompose_reduced(f, certify=certify)


def decompose_reduced(f: MPoly, *, certify: bool = True) -> BranchSet:
    """:func:`branch_decompose` for a germ whose caller has already checked
    that it is reduced."""
    if not f.constant_term().is_zero():
        raise NotSingularAtOrigin(
            "branch decomposition was requested for a curve missing the origin"
        )
    f2, (tree, raws) = run_with_restarts(f, _decompose)
    ctx = f2.ctx
    deg = f2.degree()

    branches: list[Branch] = []
    for raw in raws:
        ix, iy = _coordinate_orders(raw.series, f2.vars, deg + 1)
        finite = [o for o in (ix, iy) if o is not None]
        if not finite:
            raise InternalCheckError("branch parametrization is identically zero")
        mt_b = min(finite)
        delta_b = sum(m * (m - 1) // 2 for _, m in raw.path)
        if certify:
            _certify(f2, raw.series, delta_b, mt_b)
        branches.append(
            Branch(
                series=raw.series,
                path=raw.path,
                ix=ix,
                iy=iy,
                mt=mt_b,
                tangent=_tangent(ctx, raw.series, ix, iy),
                delta=delta_b,
            )
        )

    if sum(b.mt for b in branches) != f2.order():
        raise InternalCheckError("branch multiplicities do not sum to the germ order")

    pairwise: dict[tuple[int, int], int] = {}
    for i in range(len(branches)):
        for j in range(i + 1, len(branches)):
            pairwise[(i, j)] = _contact(branches[i].path, branches[j].path)

    total = sum(b.delta for b in branches) + sum(pairwise.values())
    if total != tree.delta_contribution():
        raise InternalCheckError("Noether's formula failed on the blow-up tree")

    return BranchSet(f=f2, ctx=ctx, branches=branches, tree=tree, _pairwise=pairwise)


def _contact(pa: list[tuple[Edge, int]], pb: list[tuple[Edge, int]]) -> int:
    """Intersection number of two branches from their multiplicity chains:
    the sum of products of multiplicities over shared infinitely near points."""
    total = pa[0][1] * pb[0][1]
    for (ea, ma), (eb, mb) in zip(pa[1:], pb[1:]):
        if ea != eb:
            break
        total += ma * mb
    return total
