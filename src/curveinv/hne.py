"""Branch decomposition of a reduced plane curve germ.

The germ is resolved by point blow-ups, walked in one loop through at most
``MAX_CHAIN`` singular points per chain; each multiplicity-one end is solved
as a power series graph and the parametrization is lifted back down the chart
maps, so every branch comes with an exact parametrization (x(t), y(t)), its
chain of infinitely near multiplicities, its contact orders with the axes and
its tangent.  These numbers come from the charts alone (Casas-Alvero,
*Singularities of Plane Curves*, ch. 3): a leaf's coordinate orders are its
axis orders, and each chart map fixes them one level down.  Pairwise
intersection numbers fall out of the shared part of the chains.  The series
only certifies all this before it is returned: the coordinates pull back with
exactly the chart orders, the parametrization annihilates the input to past
the Bezout bound, the exponent window up to the conductor proves primitivity,
and the multiplicity chains reproduce the blow-up tree's delta two ways.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import MPoly, is_reduced
from .blowup import InfinitelyNearTree, run_with_restarts, strict_transform
from .errors import (
    InternalCheckError,
    NotReduced,
    NotSingularAtOrigin,
    UnsupportedInput,
)
from .field import FieldCtx, FieldElement
from .series import Param, series_order

# An edge in the blow-up tree: (chart, center); the root carries None.
Edge = tuple[str, FieldElement | None] | None

# The most singular points (multiplicity > 1) on one chain, before its smooth
# end: json.dumps(indent=2) of `--emit-tree` takes three stack frames per level
# (called at top level, a 330-level tree serializes and a 340-level one overflows).
MAX_CHAIN = 256


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
        if prec < 0:
            raise UnsupportedInput("prec must be nonnegative")
        ctx = self.series.ctx
        xs, ys = self.series.at(prec)
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
            raise InternalCheckError("a branch has no self-intersection number")
        a, b = min(i, j), max(i, j)
        return self._pairwise[(a, b)]


def _axis_order(f: MPoly, axis: int) -> int | None:
    """Order of f restricted to the axis {x=0} (axis=0) or {y=0} (axis=1);
    None when the restriction vanishes identically."""
    other = 1 - axis
    exps = [e[other] for e in f.reps if e[axis] == 0]
    return min(exps) if exps else None


def _solve_leaf(g: MPoly) -> tuple[Param, tuple]:
    """The leaf's series, solved for one coordinate, and the orders of x(t)
    and y(t): the solved one's is the order of g on its axis."""
    if g.partial(1).constant_term().is_zero():
        return Param(g, g.vars[0]), (_axis_order(g, 0), 1)
    return Param(g, g.vars[1]), (1, _axis_order(g, 1))


def _push_orders(orders: tuple, chart: str, center: FieldElement | None) -> tuple[int, tuple]:
    """The multiplicity at the blown-up point and the orders there of a
    branch with ``orders`` in the chart: (x, y) -> (x, x(y+c)) or (y(x+c), y)."""
    own, other = orders if chart == "x" else orders[::-1]
    if own is None:
        raise InternalCheckError("a strict-transform branch lies on the exceptional line")
    if center is not None and not center.is_zero():
        other = own
    elif other is not None:
        other += own
    return own, ((own, other) if chart == "x" else (other, own))


def _coordinate_orders(param: Param, bound: int):
    """Orders of x(t) and y(t) through ``bound``, None past it: the index of
    each one's first nonzero numerator."""
    is_zero = param.ctx.shadow.ris_zero
    return tuple(
        next((k for k, c in enumerate(v) if not is_zero(c)), None)
        for v, _ in param.numerators(bound + 1)
    )


def _walk(f: MPoly) -> tuple[InfinitelyNearTree, list[Branch]]:
    """The blow-up tree of f and its branches in depth-first chart order, from
    a work list of local equations, each with its (edge, node) chain from the
    root; a multiplicity-one node is a leaf, whose series is pushed to the root."""
    root = InfinitelyNearTree(f.order())
    todo = [(f, [(None, root)])]
    unclaimed = {id(root): root.mult}  # id(node) -> its order not yet met by a branch
    branches: list[Branch] = []
    while todo:
        g, chain = todo.pop()
        node = chain[-1][1]
        if node.mult > 1:
            if len(chain) > MAX_CHAIN:
                raise UnsupportedInput(
                    f"a blow-up chain has over MAX_CHAIN = {MAX_CHAIN} singular points"
                )
            items = []
            for ch in strict_transform(g):
                child = InfinitelyNearTree(ch.local_eq.order())
                unclaimed[id(child)] = child.mult
                node.children.append((ch.chart, ch.center, child))
                items.append((ch.local_eq, [*chain, ((ch.chart, ch.center), child)]))
            todo.extend(reversed(items))
            continue
        series, orders = _solve_leaf(g)
        mults = [1]
        for (chart, center), _ in reversed(chain[1:]):
            series.push(chart, center)
            m, orders = _push_orders(orders, chart, center)
            mults.append(m)
        mults.reverse()
        path = [(edge, m) for (edge, _), m in zip(chain, mults)]
        for (_, n), m in zip(chain, mults):
            unclaimed[id(n)] -= m
        delta = sum(m * (m - 1) // 2 for _, m in path)
        branches.append(Branch(series, path, *orders, path[0][1], _tangent(f, path), delta))
    if any(unclaimed.values()):
        raise InternalCheckError("branch multiplicities do not add up to the node order")
    return root, branches


def _tangent(f: MPoly, path: list[tuple[Edge, int]]) -> tuple[FieldElement, FieldElement]:
    """The tangent direction, from the first chart, or from the linear part
    a*x + b*y of a smooth germ f."""
    ctx = f.ctx
    if len(path) > 1:
        chart, center = path[1][0]
        return (ctx.one, center) if chart == "x" else (ctx.zero, ctx.one)
    a, b = f.coefficient((1, 0)), f.coefficient((0, 1))
    return (ctx.zero, ctx.one) if b.is_zero() else (ctx.one, -a / b)


def _certify(f: MPoly, param: Param, delta_b: int, mt_b: int) -> None:
    bound = (f.degree() + 1) ** 2
    # the pullback is expected to vanish, so no smaller precision can stop early
    bad = series_order(f, param, bound, start=bound + 1)
    if bad is not None:
        raise InternalCheckError(
            f"parametrization does not annihilate the curve (order {bad})"
        )
    window = 2 * delta_b + mt_b + 1
    exps = [n for n in param.support(window + 1) if n]
    if math.gcd(*exps) != 1:
        raise InternalCheckError("parametrization is not primitive")


def branch_decompose(f: MPoly, *, certify: bool = True) -> BranchSet:
    """All branches of the reduced germ f at the origin, over one common field.

    Tangent directions met during resolution that are not rational over the
    coefficient field trigger a field extension and a clean restart, so the
    returned :class:`BranchSet` lives over a single (possibly larger) context.
    """
    if f.constant_term().is_zero():
        _require_reduced(f)
    return decompose_reduced(f, certify=certify)


def _require_reduced(f: MPoly) -> None:
    """Raise NotReduced when f is zero or has a repeated component."""
    if f.is_zero():
        raise NotReduced("the zero polynomial is not reduced")
    if not is_reduced(f):
        raise NotReduced("the curve has a repeated component")


def decompose_reduced(f: MPoly, *, certify: bool = True) -> BranchSet:
    """:func:`branch_decompose` for a germ whose caller has already checked
    that it is reduced."""
    if not f.constant_term().is_zero():
        raise NotSingularAtOrigin(
            "branch decomposition was requested for a curve missing the origin"
        )
    f2, (tree, branches) = run_with_restarts(f, _walk)
    deg = f2.degree()
    for b in branches:
        if _coordinate_orders(b.series, deg + 1) != (b.ix, b.iy):
            raise InternalCheckError("the chart orders disagree with the parametrization")
        if certify:
            _certify(f2, b.series, b.delta, b.mt)

    pairwise: dict[tuple[int, int], int] = {}
    for i in range(len(branches)):
        for j in range(i + 1, len(branches)):
            pairwise[(i, j)] = _contact(branches[i].path, branches[j].path)

    total = sum(b.delta for b in branches) + sum(pairwise.values())
    if total != tree.delta_contribution():
        raise InternalCheckError("Noether's formula failed on the blow-up tree")

    return BranchSet(f=f2, ctx=f2.ctx, branches=branches, tree=tree, _pairwise=pairwise)


def _contact(pa: list[tuple[Edge, int]], pb: list[tuple[Edge, int]]) -> int:
    """Intersection number of two branches from their multiplicity chains:
    the sum of products of multiplicities over shared infinitely near points."""
    total = pa[0][1] * pb[0][1]
    for (ea, ma), (eb, mb) in zip(pa[1:], pb[1:]):
        if ea != eb:
            break
        total += ma * mb
    return total
