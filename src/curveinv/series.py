"""Truncated power series in one parameter, computed eagerly on integers.

A series is a list of ring elements: the coefficients of s^0 .. s^(n-1),
known modulo s^n.  The kernels take the ring as an object with bound
``rconv``/``radd``/``rmul``/``rneg``/``ris_zero``/``rzero``/``rone``, so they
are written once.  :class:`Param` and :func:`series_order` run them on the
context's integer shadow (:class:`~curveinv.field.Shadow`): over QQ and its
towers a series is integer numerators over one positive denominator, so
every product is an integer convolution and every zero test an integer test,
and a ``Fraction`` is built only where :meth:`Param.at` publishes a
coefficient.  Over a finite field the shadow is the field itself and every
denominator is 1, so the same code runs there.  Every operation takes the
precision it must reach and skips the work that cannot reach it: a pullback
drops the terms whose order is at least the precision and multiplies each
Horner value only to the precision it still needs.

:class:`Param` is one branch's parametrization: a smooth leaf curve solved
as a graph by Newton lifting (each step doubles the precision, capped at the
precision asked for, and needs only a unit first derivative, so it works in
every characteristic), then the chain of blow-up chart maps back to the
original coordinates.  The lift keeps the inverse of the derivative from
step to step, so each step extends it by one Newton step instead of
inverting afresh.

The lift runs on an integral rescaled leaf, so it never divides.  With
u = F_y(0,0) and F' = F/u, let beta be the lcm of the denominators of the
pure-y coefficients c'_0j (j >= 2), and alpha the lcm, over the terms with
i >= 1, of den(c'_i0)*beta when j = 0 and of den(c'_ij)/gcd(den(c'_ij),
beta^(j-1)) when j >= 1.  Then G(s, Y) = F'(alpha*s, beta*Y)/beta, whose
coefficient at s^i Y^j is c'_ij alpha^i beta^(j-1), is integral with
G_Y(0,0) = 1: beta^(j-1) clears the pure-y denominators, and alpha^i with
i >= 1 clears what is left of the others, the 1/beta of the pure-x terms
included.  So Newton's iteration for G(s, Y(s)) = 0 and for 1/G_Y never
leaves the shadow (von zur Gathen & Gerhard, *Modern Computer Algebra*,
ch. 9).  That some such rescaling exists is Eisenstein's theorem on algebraic
power series (W. M. Schmidt, Acta Arith. 56 (1990)); here it is read off the
leaf.  The branch is x = alpha*s, y = beta*Y(s), so orders in s are orders in
t = alpha*s, and the published coefficient k is divided by alpha^k.

One common denominator per series, without the rescaling, was tried first
and is not enough.  A product of series over D1 and D2 is over D1*D2, and the
lift multiplies many times per step, so the denominators compound unless
each result is reduced by a gcd.  On the degree-9 germs that golden
``analyze_qq_extension_branches`` derives, certified at precision 101, that
variant's numerators reached 9,083 bits where the reduced values need at
most 751 (757 over one common denominator per series), and the golden ran
2.8 times slower than on ``Fraction`` series.  With the leaf scale the
state there reaches 2,030 bits.
"""

from __future__ import annotations

from math import gcd, lcm

from .algebra import MPoly
from .errors import IncompatibleContexts, InternalCheckError
from .field import Shadow


def _tr_inv(ring, b: list, prec: int, start: list) -> list:
    """1/b mod t^prec for a unit series b (b[0] a unit of the ring).

    ``start`` is 1/b mod t^k for some k >= 1, and the steps begin from it.
    Newton steps out <- out*(2 - b*out) = out - out*(b*out - 1) double the
    precision k of out.  b*out - 1 vanishes below t^k, so only its
    coefficients k..n-1 are multiplied back, and nothing is divided, so the
    step holds in every characteristic and over the integers.
    """
    rconv, rneg = ring.rconv, ring.rneg
    out = list(start)
    while len(out) < prec:
        k = len(out)
        n = min(2 * k, prec)
        high = rconv(b, out, n)[k:]
        out += map(rneg, rconv(out, high, n - k))
    return out[:prec]


def _tr_axpy(ring, c, v: list, acc: list) -> list:
    """acc + c*v, coefficientwise; v may be shorter than acc."""
    is_zero, radd, rmul = ring.ris_zero, ring.radd, ring.rmul
    return [s if is_zero(w) else radd(s, rmul(c, w)) for s, w in zip(acc, v)] + acc[len(v) :]


def _order(ring, v: list, prec: int) -> int:
    """The order in t of v, or prec when v vanishes mod t^prec."""
    is_zero = ring.ris_zero
    return next((k for k, c in enumerate(v[:prec]) if not is_zero(c)), prec)


def _tr_eval(ring, terms, xs: list, ys: list, prec: int) -> list:
    """g(x(t), y(t)) mod t^prec, by Horner in y; ``terms`` holds the pairs
    ((i, j), c) of g = sum c*x^i*y^j, with c in the ring.

    Only the work that can reach t^prec is done.  A term c*x^i*y^j with
    i*ord x + j*ord y >= prec vanishes mod t^prec and is dropped, and the
    Horner value that is still to be multiplied by y^j is needed only mod
    t^(prec - j*ord y).  When x(t) = a*t^k, each c*x^i is the single
    coefficient c*a^i at t^(k*i), and just c when a is one; otherwise the
    powers of x come from a table.
    """
    ox, oy = _order(ring, xs, prec), _order(ring, ys, prec)
    rows: dict[int, list] = {}
    for (i, j), c in terms:
        if i * ox + j * oy < prec:
            rows.setdefault(j, []).append((i, c))
    if not rows:
        return [ring.rzero] * prec
    radd, rmul = ring.radd, ring.rmul
    # x(t) = a*t^ox: the table holds the powers of a, not of x(t)
    monomial = all(map(ring.ris_zero, xs[ox + 1 : prec]))
    a = xs[ox] if monomial and ox < prec else None
    unit = monomial and (a is None or a == ring.rone)  # then each kept c*a^i is c
    xpow = [ring.rone] if monomial else [[ring.rone]]
    out: list = []
    for j in range(max(rows), -1, -1):
        n = prec - j * oy
        out = ring.rconv(out, ys, n)
        for i, c in rows.get(j, ()):
            if unit:
                out[ox * i] = radd(out[ox * i], c)
                continue
            while len(xpow) <= i:
                xpow.append(rmul(xpow[-1], a) if monomial else ring.rconv(xpow[-1], xs, prec))
            if monomial:
                out[ox * i] = radd(out[ox * i], rmul(c, xpow[i]))
            else:
                out = _tr_axpy(ring, c, xpow[i], out)
    return out


def _leaf_scale(dens: dict) -> tuple[int, int]:
    """(alpha, beta) for a leaf F/u whose coefficient at x^i y^j has the
    denominator dens[(i, j)]: see the module docstring."""
    beta = lcm(*(q for (i, j), q in dens.items() if i == 0 and j >= 2))
    alpha = lcm(
        *(
            q * beta if j == 0 else q // gcd(q, beta ** (j - 1))
            for (i, j), q in dens.items()
            if i >= 1
        )
    )
    return alpha, beta


def _integral_leaf(sh: Shadow, leaf: MPoly) -> tuple[list, int, int]:
    """G(s, Y) = F'(alpha*s, beta*Y)/beta for F' the leaf over its y-partial
    at the origin, as ((i, j), numerator) pairs in the shadow, and alpha, beta."""
    ctx = leaf.ctx
    inv_u = ctx.rinv(leaf.reps[(0, 1)])
    parts = {e: sh.split([ctx.rmul(c, inv_u)]) for e, c in leaf.reps.items()}
    alpha, beta = _leaf_scale({e: q for e, (_, q) in parts.items()})
    terms = []
    for (i, j), ((n,), q) in parts.items():
        k, rest = divmod(alpha**i * beta**j, q * beta)  # c'_ij alpha^i beta^(j-1) = n*k
        if rest:
            raise InternalCheckError("the rescaled leaf is not integral")
        terms.append(((i, j), n if k == 1 else sh.scale(k, n)))
    if dict(terms)[(0, 1)] != sh.rone:
        raise InternalCheckError("the rescaled leaf does not have y-partial one at the origin")
    return terms, alpha, beta


class Param:
    """One branch's parametrization (x(t), y(t)), to any precision asked.

    ``leaf`` is a curve through the origin whose partial in ``solve_for``
    is a unit there: the other variable is t and ``solve_for`` is the
    Newton-lifted graph phi(t) with phi(0) = 0 and leaf(t, phi(t)) = 0.  The
    lift runs on the integral rescaled leaf G of the module docstring: a
    solution Y mod s^k improves to mod s^2k via Y - G(s, Y)/G_Y(s, Y), whose
    correction is exact because G_Y stays a unit along Y, and the only
    inverse it takes is of G_Y(0, 0) = 1.  :meth:`push` composes one blow-up
    chart map (chart, center) toward the root: chart "x" sends (x, y) to
    (x, x*(y + c)), chart "y" sends it to (y*(x + c), y).

    The state is in s = t/alpha and in the context's shadow: each of x and y
    is a list of numerators over one positive denominator, divided by the
    gcd of the denominator and every numerator after each chart map.  The
    lift itself is integral, so the leaf's coordinates start over 1.
    """

    def __init__(self, leaf: MPoly, solve_for: str = "y"):
        self._swapped = solve_for == leaf.vars[0]
        if self._swapped:
            leaf = MPoly._from_reps(leaf.ctx, leaf.vars, {(j, i): c for (i, j), c in leaf.reps.items()})
        elif solve_for != leaf.vars[1]:
            raise InternalCheckError(f"cannot solve for {solve_for!r}")
        if not leaf.constant_term().is_zero():
            raise InternalCheckError("curve does not pass through the origin")
        if (0, 1) not in leaf.reps:
            raise InternalCheckError("first derivative is not a unit at the origin")
        self.ctx = leaf.ctx
        sh = self.ctx.shadow
        self._leaf, self._alpha, self._beta = _integral_leaf(sh, leaf)
        self._leaf_y = []  # G_Y
        for (i, j), c in self._leaf:
            if j and not sh.ris_zero(c := sh.scale(j, c)):
                self._leaf_y.append(((i, j - 1), c))
        self._sol = [sh.rzero]  # Y(s)
        self._inv = [sh.rone]  # 1/G_Y(s, Y) to the precision of the last step
        self._chain: list[tuple[str, tuple]] = []
        # x(s) and y(s) at the highest precision computed, each (numerators, denominator)
        self._x: tuple[list, int] = ([], 1)
        self._y: tuple[list, int] = ([], 1)

    def push(self, chart: str, center) -> None:
        """Compose with the chart map of one more blow-up, toward the root;
        ``center`` is a field element or None for zero."""
        (c,), den = self.ctx.shadow.split([self.ctx.rzero if center is None else center.rep])
        self._chain.append((chart, (c, den)))
        if self._x[0]:
            self._x, self._y = self._chart(chart, (c, den), self._x, self._y, len(self._x[0]))

    def at(self, prec: int) -> tuple[list, list]:
        """Raw coefficients of x(t) and y(t) mod t^prec."""
        join, alpha = self.ctx.shadow.join, self._alpha
        out = []
        for v, den in self.numerators(prec):
            coeffs = []
            for c in v:
                coeffs.append(join(c, den))
                den *= alpha
            out.append(coeffs)
        return out[0], out[1]

    def support(self, prec: int) -> list[int]:
        """The k < prec at which x(t) or y(t) has a nonzero coefficient."""
        (xs, _), (ys, _) = self.numerators(prec)
        is_zero = self.ctx.shadow.ris_zero
        return [k for k, (a, b) in enumerate(zip(xs, ys)) if not (is_zero(a) and is_zero(b))]

    def numerators(self, prec: int) -> tuple[tuple[list, int], tuple[list, int]]:
        """x(s) and y(s) mod s^prec, each as (numerators, denominator)."""
        if prec > len(self._x[0]):
            self._lift(prec)
            sh = self.ctx.shadow
            s = [sh.rzero, sh.scale(self._alpha, sh.rone)][:prec] + [sh.rzero] * (prec - 2)
            phi = self._sol[:prec]
            if self._beta != 1:
                phi = [sh.scale(self._beta, c) for c in phi]
            x, y = ((phi, 1), (s, 1)) if self._swapped else ((s, 1), (phi, 1))
            for chart, c in self._chain:
                x, y = self._chart(chart, c, x, y, prec)
            self._x, self._y = x, y
        (xs, dx), (ys, dy) = self._x, self._y
        return (xs[:prec], dx), (ys[:prec], dy)

    def _chart(self, chart: str, center: tuple, x: tuple, y: tuple, prec: int) -> tuple:
        sh = self.ctx.shadow
        (c, dc) = center
        (v, dv), (w, dw) = (x, y) if chart == "x" else (y, x)
        den = lcm(dw, dc)  # w/dw + c/dc over one denominator
        if den != dw:
            w = [sh.scale(den // dw, a) for a in w]
        if den != dc:
            c = sh.scale(den // dc, c)
        moved = sh.reduce(sh.rconv(v, [sh.radd(w[0], c)] + w[1:], prec), dv * den)
        return (x, moved) if chart == "x" else (moved, y)

    def _lift(self, prec: int) -> None:
        sh = self.ctx.shadow
        s = [sh.rzero, sh.rone]
        phi = self._sol
        while len(phi) < prec:
            k = len(phi)
            n = min(2 * k, prec)
            val = _tr_eval(sh, self._leaf, s, phi, n)
            if not all(map(sh.ris_zero, val[:k])):
                raise InternalCheckError("Newton lift lost the solution below its precision")
            # val vanishes below s^k, so G_Y and its inverse are needed only
            # mod s^m.  The inverse kept from the last step is still right to
            # its length, which is at most phi's length before that step,
            # where phi's changes began; unless that step was capped, one
            # Newton step of _tr_inv takes it to m.
            m = n - k
            deriv = _tr_eval(sh, self._leaf_y, s, phi, m)
            self._inv = _tr_inv(sh, deriv, m, self._inv[:m])
            phi = phi + [sh.rneg(c) for c in sh.rconv(val[k:], self._inv, m)]
        self._sol = phi


def series_order(h: MPoly, param: Param, bound: int, *, start: int = 8) -> int | None:
    """Order in t of h(x(t), y(t)) when it is at most ``bound``, else None.

    The pullback is evaluated at precision ``start`` and then at doubling
    precisions, capped at bound + 1, so a small order stops early.  None
    certifies only "order exceeds the bound"; callers convert it to
    infinity when the bound dominates the relevant intersection number.

    With h = sum C_ij/Dc x^i y^j and x = X/dx, y = Y/dy, the pullback is
    sum C_ij dx^(I-i) dy^(J-j) X^i Y^j over Dc dx^I dy^J (I, J the top
    degrees), so its order is that of an integer Horner in the shadow.
    """
    if len(h.vars) != 2:
        raise InternalCheckError("substitution needs a bivariate polynomial")
    ctx = param.ctx
    if h.ctx is not ctx:
        raise IncompatibleContexts(f"{h.ctx.descriptor()} vs {ctx.descriptor()}")
    sh = ctx.shadow
    terms = list(zip(h.reps, sh.split(list(h.reps.values()))[0]))
    top_i = max((i for i, _ in h.reps), default=0)
    top_j = max((j for _, j in h.reps), default=0)
    prec = min(start, bound + 1)
    while True:
        (xs, dx), (ys, dy) = param.numerators(prec)
        scaled = terms
        if dx != 1 or dy != 1:
            scaled = []
            for (i, j), c in terms:
                k = dx ** (top_i - i) * dy ** (top_j - j)
                scaled.append(((i, j), c if k == 1 else sh.scale(k, c)))
        order = _order(sh, _tr_eval(sh, scaled, xs, ys, prec), prec)
        if order < prec:
            return order
        if prec > bound:
            return None
        prec = min(2 * prec, bound + 1)
