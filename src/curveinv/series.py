"""Lazy univariate power series in one parameter t.

Coefficients are computed on demand, memoized, and never change once handed
out; asking for n coefficients pulls at most n coefficients from any input
series.  :class:`ImplicitSeries` solves f(t, phi(t)) = 0 for phi with
phi(0) = 0 by Newton lifting, which doubles the known precision per step and
only needs the first formal derivative to be a unit at the origin, so it
works in every characteristic.  :class:`ComposedSeries` substitutes series
into a bivariate polynomial through truncated arithmetic with geometric
precision regrowth.
"""

from __future__ import annotations

from .algebra import MPoly
from .field import FieldCtx, FieldElement


def _tr_mul(ctx: FieldCtx, a: list, b: list, prec: int) -> list:
    out = [ctx.zero] * prec
    for i, ca in enumerate(a):
        if i >= prec or ca.is_zero():
            continue
        top = min(len(b), prec - i)
        for j in range(top):
            cb = b[j]
            if not cb.is_zero():
                out[i + j] = out[i + j] + ca * cb
    return out


def _tr_inv(ctx: FieldCtx, b: list, prec: int) -> list:
    # reciprocal of a unit series; b[0] must be nonzero
    lead = b[0].inverse()
    out = [lead] + [ctx.zero] * (prec - 1)
    for n in range(1, prec):
        acc = ctx.zero
        for i in range(1, min(n, len(b) - 1) + 1):
            ci = b[i]
            if not ci.is_zero():
                acc = acc + ci * out[n - i]
        if not acc.is_zero():
            out[n] = -(lead * acc)
    return out


def _tr_eval(ctx: FieldCtx, g: MPoly, phi: list, prec: int) -> list:
    """g(t, phi(t)) mod t^prec for truncated phi, by Horner in the y slot."""
    rows: dict[int, list] = {}
    for (i, j), c in g.terms.items():
        if i >= prec:
            continue
        row = rows.setdefault(j, [ctx.zero] * prec)
        row[i] = row[i] + c
    out = [ctx.zero] * prec
    for j in range(max(rows) if rows else 0, -1, -1):
        out = _tr_mul(ctx, out, phi, prec)
        row = rows.get(j)
        if row is not None:
            for k in range(prec):
                if not row[k].is_zero():
                    out[k] = out[k] + row[k]
    return out


class LazySeries:
    """Base class: memoized coefficient stream over a field context."""

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        self._memo: list[FieldElement] = []

    def coefficient(self, n: int) -> FieldElement:
        while len(self._memo) <= n:
            self._memo.append(self._compute(len(self._memo)))
        return self._memo[n]

    def truncation(self, prec: int) -> list[FieldElement]:
        return [self.coefficient(i) for i in range(prec)]

    def _compute(self, n: int) -> FieldElement:
        raise NotImplementedError


class PolySeries(LazySeries):
    def __init__(self, ctx: FieldCtx, coeffs):
        super().__init__(ctx)
        elems = []
        for c in coeffs:
            if isinstance(c, int):
                c = ctx.from_int(c)
            elems.append(c)
        self._coeffs = elems

    def _compute(self, n: int) -> FieldElement:
        if n < len(self._coeffs):
            return self._coeffs[n]
        return self.ctx.zero


class Sum(LazySeries):
    def __init__(self, a: LazySeries, b: LazySeries):
        super().__init__(a.ctx)
        self._a, self._b = a, b

    def _compute(self, n: int) -> FieldElement:
        return self._a.coefficient(n) + self._b.coefficient(n)


class Product(LazySeries):
    def __init__(self, a: LazySeries, b: LazySeries):
        super().__init__(a.ctx)
        self._a, self._b = a, b

    def _compute(self, n: int) -> FieldElement:
        acc = self.ctx.zero
        for i in range(n + 1):
            ca = self._a.coefficient(i)
            if not ca.is_zero():
                acc = acc + ca * self._b.coefficient(n - i)
        return acc


class ComposedSeries(LazySeries):
    """f(sx(t), sy(t)) for a bivariate f and two series."""

    def __init__(self, f: MPoly, sx: LazySeries, sy: LazySeries):
        super().__init__(f.ctx)
        self._f = f
        self._sx, self._sy = sx, sy
        self._vals: list[FieldElement] = []

    def _compute(self, n: int) -> FieldElement:
        if n >= len(self._vals):
            prec = max(2 * len(self._vals), n + 1, 8)
            self._vals = self._evaluate(prec)
        return self._vals[n]

    def _evaluate(self, prec: int) -> list[FieldElement]:
        ctx = self.ctx
        xt = self._sx.truncation(prec)
        yt = self._sy.truncation(prec)
        one = [ctx.one]
        xp: list[list] = [one]
        yp: list[list] = [one]

        def power(cache: list, base: list, k: int) -> list:
            while len(cache) <= k:
                cache.append(_tr_mul(ctx, cache[-1], base, prec))
            return cache[k]

        out = [ctx.zero] * prec
        for (i, j), c in self._f.terms.items():
            term = _tr_mul(ctx, power(xp, xt, i), power(yp, yt, j), prec)
            for k in range(prec):
                if not term[k].is_zero():
                    out[k] = out[k] + c * term[k]
        return out


def substitute_series(f: MPoly, sx: LazySeries, sy: LazySeries) -> ComposedSeries:
    if len(f.vars) != 2:
        raise ValueError("substitution needs a bivariate polynomial")
    return ComposedSeries(f, sx, sy)


class ImplicitSeries(LazySeries):
    """The series phi with phi(0) = 0 and f(t, phi(t)) = 0.

    Requires f(0,0) = 0 and a unit first derivative in the solved variable.
    Coefficients come from Newton lifting: a solution mod t^k improves to
    mod t^2k via phi - f(t, phi)/f_y(t, phi), whose correction term is exact
    because f_y stays a unit along phi.  No division by integers happens, so
    the lift is valid in any characteristic.
    """

    def __init__(self, f: MPoly, solve_for: str = "y"):
        super().__init__(f.ctx)
        if solve_for == f.vars[0]:
            f = MPoly(f.ctx, f.vars, {(j, i): c for (i, j), c in f.terms.items()})
        elif solve_for != f.vars[1]:
            raise ValueError(f"cannot solve for {solve_for!r}")
        if not f.constant_term().is_zero():
            raise ValueError("curve does not pass through the origin")
        if f.partial(1).constant_term().is_zero():
            raise ValueError("first derivative is not a unit at the origin")
        self._f = f
        self._fy = f.partial(1)
        self._sol: list[FieldElement] = [f.ctx.zero]

    def _compute(self, n: int) -> FieldElement:
        while len(self._sol) <= n:
            self._lift()
        return self._sol[n]

    def _lift(self) -> None:
        ctx = self.ctx
        phi = self._sol
        prec = 2 * len(phi)
        val = _tr_eval(ctx, self._f, phi, prec)
        deriv = _tr_eval(ctx, self._fy, phi, prec)
        corr = _tr_mul(ctx, val, _tr_inv(ctx, deriv, prec), prec)
        self._sol = [
            (phi[k] if k < len(phi) else ctx.zero) - corr[k] for k in range(prec)
        ]


def series_order(s: LazySeries, bound: int) -> int | None:
    """Index of the first nonzero coefficient through ``bound``, else None.

    None certifies only "order exceeds the bound"; callers convert it to
    infinity when the bound dominates the relevant intersection number.
    """
    for n in range(bound + 1):
        if not s.coefficient(n).is_zero():
            return n
    return None
