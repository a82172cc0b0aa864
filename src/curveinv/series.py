"""Truncated power series in one parameter t, computed eagerly.

A series is a list of raw field representations (the ``rep`` of a
:class:`FieldElement`): the coefficients of t^0 .. t^(n-1), known modulo
t^n.  Every operation takes the precision it must reach and computes exactly
that.  The kernels bind the context's arithmetic once per call: over F_p
they accumulate Python ints and reduce mod p once per output coefficient,
over QQ they clear denominators and convolve integers, and over an
extension they go through ``radd``/``rmul``.

:class:`Param` is one branch's parametrization: a smooth leaf curve solved
as a graph by Newton lifting (each step doubles the precision, capped at the
precision asked for, and needs only a unit first derivative, so it works in
every characteristic), then the chain of blow-up chart maps back to the
original coordinates.  :func:`series_order` pulls a polynomial back along a
Param to find its order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul

from .algebra import MPoly
from .errors import IncompatibleContexts, InternalCheckError
from .field import FieldCtx


def _support(v: list) -> tuple[int, int]:
    """lo, hi with every nonzero entry of v in v[lo:hi] (lo == hi for zero)."""
    lo, hi = 0, len(v)
    while lo < hi and not v[lo]:
        lo += 1
    while hi > lo and not v[hi - 1]:
        hi -= 1
    return lo, hi


def _int_conv(a: list, b: list, prec: int) -> list:
    """Integer a*b mod t^prec: one C-level dot product per coefficient."""
    out = [0] * prec
    a0, a1 = _support(a)
    b0, b1 = _support(b)
    if a0 == a1 or b0 == b1:
        return out
    rb = b[b1 - 1 :: -1]  # rb[m] = b[b1 - 1 - m]
    for k in range(a0 + b0, min(prec, a1 + b1 - 1)):
        i0 = max(a0, k - b1 + 1)
        i1 = min(a1 - 1, k - b0)
        out[k] = sum(map(mul, a[i0 : i1 + 1], rb[b1 - 1 - k + i0 : b1 - k + i1]))
    return out


def _scaled(v: list) -> tuple[list, int]:
    """Rational coefficients as integers over one common denominator."""
    den = math.lcm(*(c.denominator for c in v)) if v else 1
    return [c.numerator * (den // c.denominator) for c in v], den


def _tr_mul(ctx: FieldCtx, a: list, b: list, prec: int) -> list:
    """a*b mod t^prec; missing coefficients of a and b are zero."""
    a, b = a[:prec], b[:prec]
    kind = ctx.kind
    if kind == "prime":
        p = ctx.char
        return [c % p for c in _int_conv(a, b, prec)]
    if kind == "rationals":
        (na, da), (nb, db) = _scaled(a), _scaled(b)
        den = da * db
        return [Fraction(c, den) for c in _int_conv(na, nb, prec)]
    zero = ctx.rzero
    radd, rmul = ctx.radd, ctx.rmul
    out = [zero] * prec
    nzb = [(j, c) for j, c in enumerate(b) if c != zero]
    for i, ca in enumerate(a):
        if ca == zero:
            continue
        for j, cb in nzb:
            k = i + j
            if k >= prec:
                break
            out[k] = radd(out[k], rmul(ca, cb))
    return out


def _tr_inv(ctx: FieldCtx, b: list, prec: int) -> list:
    """1/b mod t^prec for a unit series b (b[0] nonzero)."""
    b = b[:prec]
    lead = ctx.rinv(b[0])
    out = [lead]
    if ctx.kind == "prime":
        p = ctx.char
        for n in range(1, prec):
            top = min(n, len(b) - 1)
            out.append(-lead * sum(map(mul, b[1 : top + 1], reversed(out[n - top : n]))) % p)
        return out
    zero = ctx.rzero
    radd, rmul = (add, mul) if ctx.kind == "rationals" else (ctx.radd, ctx.rmul)
    nzb = [(i, c) for i, c in enumerate(b) if i and c != zero]
    for n in range(1, prec):
        acc = zero
        for i, c in nzb:
            if i > n:
                break
            acc = radd(acc, rmul(c, out[n - i]))
        out.append(ctx.rneg(rmul(lead, acc)))
    return out


def _tr_axpy(ctx: FieldCtx, c, v: list, acc: list) -> list:
    """acc + c*v, coefficientwise; v may be shorter than acc."""
    tail = acc[len(v) :]
    if ctx.kind == "prime":
        p = ctx.char
        return [(s + c * w) % p for s, w in zip(acc, v)] + tail
    zero = ctx.rzero
    radd, rmul = (add, mul) if ctx.kind == "rationals" else (ctx.radd, ctx.rmul)
    return [s if w == zero else radd(s, rmul(c, w)) for s, w in zip(acc, v)] + tail


def _tr_eval(ctx: FieldCtx, g: MPoly, xs: list, ys: list, prec: int) -> list:
    """g(x(t), y(t)) mod t^prec, by Horner in y over a table of x powers."""
    rows: dict[int, list] = {}
    for (i, j), c in g.terms.items():
        rows.setdefault(j, []).append((i, c.rep))
    xpow = [[ctx.rone]]
    out = [ctx.rzero] * prec
    top = max(rows, default=0)
    for j in range(top, -1, -1):
        if j < top:
            out = _tr_mul(ctx, out, ys, prec)
        for i, c in rows.get(j, ()):
            while len(xpow) <= i:
                xpow.append(_tr_mul(ctx, xpow[-1], xs, prec))
            out = _tr_axpy(ctx, c, xpow[i], out)
    return out


class Param:
    """One branch's parametrization (x(t), y(t)), to any precision asked.

    ``leaf`` is a curve through the origin whose partial in ``solve_for``
    is a unit there: the other variable is t and ``solve_for`` is the
    Newton-lifted graph phi(t) with phi(0) = 0 and leaf(t, phi(t)) = 0.  A
    solution mod t^k improves to mod t^2k via phi - leaf(t, phi)/leaf_y(t, phi),
    whose correction is exact because leaf_y stays a unit along phi; no
    division by integers happens, so the lift is valid in any characteristic.
    :meth:`push` composes one blow-up chart map (chart, center) toward the
    root: chart "x" sends (x, y) to (x, x*(y + c)), chart "y" sends it to
    (y*(x + c), y).
    """

    def __init__(self, leaf: MPoly, solve_for: str = "y"):
        self._swapped = solve_for == leaf.vars[0]
        if self._swapped:
            leaf = MPoly(leaf.ctx, leaf.vars, {(j, i): c for (i, j), c in leaf.terms.items()})
        elif solve_for != leaf.vars[1]:
            raise InternalCheckError(f"cannot solve for {solve_for!r}")
        if not leaf.constant_term().is_zero():
            raise InternalCheckError("curve does not pass through the origin")
        self._leaf, self._leaf_y = leaf, leaf.partial(1)
        if self._leaf_y.constant_term().is_zero():
            raise InternalCheckError("first derivative is not a unit at the origin")
        self.ctx = leaf.ctx
        self._sol = [self.ctx.rzero]
        self._chain: list[tuple[str, object]] = []
        self._x: list = []  # x(t) and y(t) at the highest precision computed
        self._y: list = []

    def push(self, chart: str, center) -> None:
        """Compose with the chart map of one more blow-up, toward the root;
        ``center`` is a field element or None for zero."""
        c = self.ctx.rzero if center is None else center.rep
        self._chain.append((chart, c))
        if self._x:
            self._x, self._y = self._chart(chart, c, self._x, self._y, len(self._x))

    def at(self, prec: int) -> tuple[list, list]:
        """Raw coefficients of x(t) and y(t) mod t^prec."""
        if prec > len(self._x):
            self._lift(prec)
            ctx = self.ctx
            t = [ctx.rzero, ctx.rone][:prec] + [ctx.rzero] * (prec - 2)
            phi = self._sol[:prec]
            x, y = (phi, t) if self._swapped else (t, phi)
            for chart, c in self._chain:
                x, y = self._chart(chart, c, x, y, prec)
            self._x, self._y = x, y
        return self._x[:prec], self._y[:prec]

    def _chart(self, chart: str, c, x: list, y: list, prec: int) -> tuple[list, list]:
        ctx = self.ctx
        if chart == "x":
            return x, _tr_mul(ctx, x, [ctx.radd(y[0], c)] + y[1:], prec)
        return _tr_mul(ctx, y, [ctx.radd(x[0], c)] + x[1:], prec), y

    def _lift(self, prec: int) -> None:
        ctx = self.ctx
        t = [ctx.rzero, ctx.rone]
        phi = self._sol
        while len(phi) < prec:
            n = min(2 * len(phi), prec)
            val = _tr_eval(ctx, self._leaf, t, phi, n)
            # val vanishes below t^len(phi), so leaf_y is needed only mod t^m.
            m = n - len(phi)
            deriv = _tr_eval(ctx, self._leaf_y, t, phi, m)
            corr = _tr_mul(ctx, val, _tr_inv(ctx, deriv, m), n)
            phi = [ctx.rsub(a, b) for a, b in zip(phi + [ctx.rzero] * (n - len(phi)), corr)]
        self._sol = phi


def series_order(h: MPoly, param: Param, bound: int, *, start: int = 8) -> int | None:
    """Order in t of h(x(t), y(t)) when it is at most ``bound``, else None.

    The pullback is evaluated at precision ``start`` and then at doubling
    precisions, capped at bound + 1, so a small order stops early.  None
    certifies only "order exceeds the bound"; callers convert it to
    infinity when the bound dominates the relevant intersection number.
    """
    if len(h.vars) != 2:
        raise InternalCheckError("substitution needs a bivariate polynomial")
    ctx = param.ctx
    if h.ctx is not ctx:
        raise IncompatibleContexts(f"{h.ctx.descriptor()} vs {ctx.descriptor()}")
    zero = ctx.rzero
    prec = min(start, bound + 1)
    while True:
        xs, ys = param.at(prec)
        for n, c in enumerate(_tr_eval(ctx, h, xs, ys, prec)):
            if c != zero:
                return n
        if prec > bound:
            return None
        prec = min(2 * prec, bound + 1)
