"""Truncated power series in one parameter t, computed eagerly.

A series is a list of raw field representations (the ``rep`` of a
:class:`FieldElement`): the coefficients of t^0 .. t^(n-1), known modulo
t^n.  Every operation takes the precision it must reach and computes exactly
that, and skips the work that cannot reach it: a pullback drops the terms
whose order is at least the precision and multiplies each Horner value only
to the precision it still needs.  The context owns the kernels: every product
is its bound ``rconv``, and every other step goes through its bound
``radd``/``rsub``/``rmul``, so nothing here depends on how a field represents
its elements.

:class:`Param` is one branch's parametrization: a smooth leaf curve solved
as a graph by Newton lifting (each step doubles the precision, capped at the
precision asked for, and needs only a unit first derivative, so it works in
every characteristic), then the chain of blow-up chart maps back to the
original coordinates.  The lift keeps the inverse of the derivative from
step to step, so each step extends it by one Newton step instead of
inverting afresh.  :func:`series_order` pulls a polynomial back along a
Param to find its order.
"""

from __future__ import annotations

from .algebra import MPoly
from .errors import IncompatibleContexts, InternalCheckError
from .field import FieldCtx


def _tr_inv(ctx: FieldCtx, b: list, prec: int, start: list | None = None) -> list:
    """1/b mod t^prec for a unit series b (b[0] nonzero).

    ``start``, when given, is 1/b mod t^k for some k >= 1, and the steps
    begin from it.  Newton steps out <- out*(2 - b*out) = out - out*(b*out - 1)
    double the precision k of out.  b*out - 1 vanishes below t^k, so only its
    coefficients k..n-1 are multiplied back, and nothing is divided, so the
    step holds in every characteristic.
    """
    rconv, rneg = ctx.rconv, ctx.rneg
    out = list(start) if start else [ctx.rinv(b[0])]
    while len(out) < prec:
        k = len(out)
        n = min(2 * k, prec)
        high = rconv(b, out, n)[k:]
        out += map(rneg, rconv(out, high, n - k))
    return out[:prec]


def _tr_axpy(ctx: FieldCtx, c, v: list, acc: list) -> list:
    """acc + c*v, coefficientwise; v may be shorter than acc."""
    is_zero, radd, rmul = ctx.ris_zero, ctx.radd, ctx.rmul
    return [s if is_zero(w) else radd(s, rmul(c, w)) for s, w in zip(acc, v)] + acc[len(v) :]


def _order(ctx: FieldCtx, v: list, prec: int) -> int:
    """The order in t of v, or prec when v vanishes mod t^prec."""
    is_zero = ctx.ris_zero
    return next((k for k, c in enumerate(v[:prec]) if not is_zero(c)), prec)


def _tr_eval(ctx: FieldCtx, g: MPoly, xs: list, ys: list, prec: int) -> list:
    """g(x(t), y(t)) mod t^prec, by Horner in y.

    Only the work that can reach t^prec is done.  A term c*x^i*y^j with
    i*ord x + j*ord y >= prec vanishes mod t^prec and is dropped, and the
    Horner value that is still to be multiplied by y^j is needed only mod
    t^(prec - j*ord y).  When x(t) = a*t^k, each c*x^i is the single
    coefficient c*a^i at t^(k*i); otherwise the powers of x come from a table.
    """
    ox, oy = _order(ctx, xs, prec), _order(ctx, ys, prec)
    rows: dict[int, list] = {}
    for (i, j), c in g.terms.items():
        if i * ox + j * oy < prec:
            rows.setdefault(j, []).append((i, c.rep))
    if not rows:
        return [ctx.rzero] * prec
    radd, rmul = ctx.radd, ctx.rmul
    # x(t) = a*t^ox: the table holds the powers of a, not of x(t)
    monomial = all(map(ctx.ris_zero, xs[ox + 1 : prec]))
    a = xs[ox] if monomial and ox < prec else None
    xpow = [ctx.rone] if monomial else [[ctx.rone]]
    out: list = []
    for j in range(max(rows), -1, -1):
        n = prec - j * oy
        out = ctx.rconv(out, ys, n)
        for i, c in rows.get(j, ()):
            while len(xpow) <= i:
                xpow.append(rmul(xpow[-1], a) if monomial else ctx.rconv(xpow[-1], xs, prec))
            if monomial:
                out[ox * i] = radd(out[ox * i], rmul(c, xpow[i]))
            else:
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
        self._inv: list = []  # 1/leaf_y(t, phi) to the precision of the last step
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
            return x, ctx.rconv(x, [ctx.radd(y[0], c)] + y[1:], prec)
        return ctx.rconv(y, [ctx.radd(x[0], c)] + x[1:], prec), y

    def _lift(self, prec: int) -> None:
        ctx = self.ctx
        t = [ctx.rzero, ctx.rone]
        phi = self._sol
        while len(phi) < prec:
            k = len(phi)
            n = min(2 * k, prec)
            val = _tr_eval(ctx, self._leaf, t, phi, n)
            if not all(map(ctx.ris_zero, val[:k])):
                raise InternalCheckError("Newton lift lost the solution below its precision")
            # val vanishes below t^k, so leaf_y and its inverse are needed
            # only mod t^m.  The inverse kept from the last step is still right
            # to its length, which is at most phi's length before that step,
            # where phi's changes began; unless that step was capped, one
            # Newton step of _tr_inv takes it to m.
            m = n - k
            deriv = _tr_eval(ctx, self._leaf_y, t, phi, m)
            self._inv = _tr_inv(ctx, deriv, m, self._inv[:m])
            phi = phi + [ctx.rneg(c) for c in ctx.rconv(val[k:], self._inv, m)]
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
    is_zero = ctx.ris_zero
    prec = min(start, bound + 1)
    while True:
        xs, ys = param.at(prec)
        for n, c in enumerate(_tr_eval(ctx, h, xs, ys, prec)):
            if not is_zero(c):
                return n
        if prec > bound:
            return None
        prec = min(2 * prec, bound + 1)
