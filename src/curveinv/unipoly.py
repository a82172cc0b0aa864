"""Dense univariate polynomials over a :class:`~curveinv.field.FieldCtx`.

A :class:`UniPoly` is a typed view on one trimmed vector of its context's
reps, constant term first: every operation runs on that vector through the
context's bound ops and the ``_rp_`` kernels of :mod:`curveinv.field`, and
``coeffs``, ``leading()`` and ``coefficient(i)`` wrap reps as
:class:`~curveinv.field.FieldElement`\\ s only when read.

Beyond ring arithmetic this module carries the machinery the rest of the
package leans on: squarefree decomposition in every characteristic
(Musser's algorithm, with p-th root extraction in positive characteristic),
full factorization (distinct-degree plus Cantor-Zassenhaus over finite
fields, Zassenhaus with Hensel lifting over QQ, Trager's norm descent over
algebraic extensions of QQ, the norm being the resultant Res_z(minpoly(z),
h(t, z)) from :func:`curveinv.algebra.resultant`), and canonical root lists,
which are read off the linear factors of :meth:`UniPoly.factor` over every
field.  Irreducibility is read off the same factorization over every field.
Over a tower L = K(a) of QQ, a polynomial whose coefficients all lie in K is
factored over K first, recursively, and each irreducible factor h of K[t],
with its multiplicity, is split over L by the cheapest rule that holds: h
stays irreducible when it is linear or its degree is prime to [L:K]; the
modulus of L is t - a times one exact quotient; any other h takes the norm.
Randomized splitting draws from a generator seeded by the input, so every
run factors the same polynomial the same way.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial, reduce
from itertools import combinations, count
from math import gcd, isqrt, lcm
from operator import mul

from .errors import DivisionByZero, IncompatibleContexts, InternalCheckError, UnsupportedInput
from .field import (
    FieldCtx,
    FieldElement,
    _is_prime,
    _OPS,
    _prime_ops,
    _render_terms,
    _rp_add,
    _rp_divexact,
    _rp_divmod,
    _rp_eval,
    _rp_gcdex,
    _rp_monic,
    _rp_mul,
    _rp_pow,
    _rp_pow_mod,
    _rp_scale,
    _rp_sub,
    _rp_trim,
    _zdiv_exact,
)


class UniPoly:
    """Immutable univariate polynomial; ``reps`` is the trimmed tuple of its
    coefficients' reps, constant term first."""

    __slots__ = ("ctx", "reps")

    def __init__(self, ctx: FieldCtx, coeffs):
        """``coeffs`` are elements of ``ctx``, ints or Fractions."""
        self.ctx = ctx
        self.reps = tuple(_rp_trim(ctx, list(map(ctx.rcoerce, coeffs))))

    @classmethod
    def _from_reps(cls, ctx: FieldCtx, reps) -> "UniPoly":
        """Wrap a vector of ``ctx``'s reps, trailing zeros dropped, unchecked."""
        out = object.__new__(cls)
        out.ctx, out.reps = ctx, tuple(_rp_trim(ctx, list(reps)))
        return out

    @staticmethod
    def x(ctx: FieldCtx) -> "UniPoly":
        return UniPoly._from_reps(ctx, [ctx.rzero, ctx.rone])

    @property
    def coeffs(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.ctx, r) for r in self.reps)

    def degree(self) -> int:
        return len(self.reps) - 1

    def is_zero(self) -> bool:
        return not self.reps

    def leading(self) -> FieldElement:
        if not self.reps:
            raise InternalCheckError("zero polynomial has no leading coefficient")
        return FieldElement(self.ctx, self.reps[-1])

    def coefficient(self, i: int) -> FieldElement:
        if 0 <= i < len(self.reps):
            return FieldElement(self.ctx, self.reps[i])
        return self.ctx.zero

    def _check(self, other: "UniPoly") -> None:
        if not isinstance(other, UniPoly) or other.ctx is not self.ctx:
            raise IncompatibleContexts("mixed polynomial contexts")

    def __add__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        return UniPoly._from_reps(self.ctx, _rp_add(self.ctx, self.reps, other.reps))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        return UniPoly._from_reps(self.ctx, _rp_sub(self.ctx, self.reps, other.reps))

    def __neg__(self) -> "UniPoly":
        return UniPoly._from_reps(self.ctx, map(self.ctx.rneg, self.reps))

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, FieldElement):
            return self.scale(other)
        self._check(other)
        return UniPoly._from_reps(self.ctx, _rp_mul(self.ctx, self.reps, other.reps))

    def __rmul__(self, other) -> "UniPoly":
        if isinstance(other, FieldElement):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "UniPoly":
        return UniPoly._from_reps(self.ctx, _rp_scale(self.ctx, self.ctx.rcoerce(c), self.reps))

    def __pow__(self, e: int) -> "UniPoly":
        if e < 0:
            raise UnsupportedInput("negative polynomial power")
        return UniPoly._from_reps(self.ctx, _rp_pow(self.ctx, self.reps, e))

    def __divmod__(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        self._check(other)
        if other.is_zero():
            raise DivisionByZero("division by the zero polynomial")
        q, r = self.ctx.rdivmod(self.reps, other.reps)
        return UniPoly._from_reps(self.ctx, q), UniPoly._from_reps(self.ctx, r)

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.ctx is other.ctx and self.reps == other.reps

    def __hash__(self) -> int:
        return hash((self.ctx._key, self.reps))

    def monic(self) -> "UniPoly":
        if not self.reps or self.reps[-1] == self.ctx.rone:
            return self
        return UniPoly._from_reps(self.ctx, _rp_monic(self.ctx, self.reps))

    def gcd(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        return UniPoly._from_reps(self.ctx, self.ctx.rgcd(self.reps, other.reps))

    def derivative(self) -> "UniPoly":
        rmul, rfrom_int = self.ctx.rmul, self.ctx.rfrom_int
        return UniPoly._from_reps(self.ctx, [rmul(c, rfrom_int(i)) for i, c in enumerate(self.reps) if i])

    def eval(self, x) -> FieldElement:
        return FieldElement(self.ctx, _rp_eval(self.ctx, self.reps, self.ctx.rcoerce(x)))

    def compose(self, inner: "UniPoly") -> "UniPoly":
        self._check(inner)
        ctx, acc = self.ctx, []
        for c in reversed(self.reps):
            acc = _rp_add(ctx, _rp_mul(ctx, acc, inner.reps), [c])
        return UniPoly._from_reps(ctx, acc)

    def pow_mod(self, e: int, mod: "UniPoly") -> "UniPoly":
        self._check(mod)
        return UniPoly._from_reps(self.ctx, _rp_pow_mod(self.ctx, self.reps, e, mod.reps))

    # -- squarefree structure -------------------------------------------------

    def pth_root(self) -> "UniPoly":
        """Exact p-th root of a polynomial in K[x^p] (finite K)."""
        ctx, p = self.ctx, self.ctx.char
        if p == 0:
            raise InternalCheckError("p-th root needs positive characteristic")
        if not all(map(ctx.ris_zero, (c for i, c in enumerate(self.reps) if i % p))):
            raise InternalCheckError("polynomial is not a p-th power")
        e = ctx.order // p  # the inverse of Frobenius on F_q
        return UniPoly._from_reps(ctx, [ctx.rpow(c, e) for c in self.reps[::p]])

    def squarefree_decomposition(self) -> list[tuple["UniPoly", int]]:
        """Monic pairwise-coprime squarefree factors with multiplicities."""
        if self.degree() < 1:
            return []
        return _musser(self.monic())

    # -- factorization ----------------------------------------------------------

    def factor(self) -> list[tuple["UniPoly", int]]:
        """Monic irreducible factors with multiplicities, canonically sorted.

        The unit is implicit: ``self = leading() * prod(g**e)``.
        """
        if self.degree() < 2:  # a linear polynomial is its own factor
            return [(self.monic(), 1)] if self.degree() == 1 else []
        down = _over_base(self)
        if down is not None:
            out = _descend(self.ctx, down)
            if reduce(mul, (g**e for g, e in out)) != self.monic():
                raise InternalCheckError("descended factors must multiply back to the input")
        else:
            out = [(g, mult) for part, mult in self.squarefree_decomposition() for g in _factor_squarefree(part)]
        out.sort(key=lambda ge: _poly_key(ge[0]))
        return out

    def is_irreducible(self) -> bool:
        fs = self.factor()
        return len(fs) == 1 and fs[0][1] == 1

    def roots(self) -> list[FieldElement]:
        """Distinct roots in the coefficient field, sorted canonically."""
        return [r for r, _ in self.roots_with_multiplicity()]

    def roots_with_multiplicity(self) -> list[tuple[FieldElement, int]]:
        """Roots in the coefficient field with their multiplicities, sorted
        by sort key: the linear factors of :meth:`factor`."""
        out = [
            (-g.coefficient(0), mult) for g, mult in self.factor() if g.degree() == 1
        ]
        out.sort(key=lambda rm: rm[0].sort_key())
        return out

    def __str__(self) -> str:
        ctx = self.ctx
        return _render_terms(
            (ctx.render_rep(c), "" if i == 0 else "t" if i == 1 else f"t^{i}")
            for i, c in reversed(list(enumerate(self.reps)))
            if not ctx.ris_zero(c)
        )

    def __repr__(self) -> str:
        return f"<UniPoly {self} over {self.ctx.descriptor()}>"


def _poly_key(g: UniPoly):
    return (g.degree(), tuple(map(g.ctx.rsort_key, g.reps)))


def _musser(f: UniPoly) -> list[tuple[UniPoly, int]]:
    """Musser's algorithm; c ends as a p-th power (f itself when f' = 0),
    and as 1 in characteristic zero."""
    p = f.ctx.char
    out: list[tuple[UniPoly, int]] = []
    c = f.gcd(f.derivative())
    w = f // c
    i = 1
    while w.degree() > 0:
        y = w.gcd(c)
        z = w // y
        if z.degree() > 0:
            out.append((z.monic(), i))
        w, c = y, c // y
        i += 1
    if c.degree() > 0:
        out.extend((g, e * p) for g, e in c.pth_root().squarefree_decomposition())
    return out


# ---------------------------------------------------------------------------
# Squarefree factorization per coefficient field
# ---------------------------------------------------------------------------


def _factor_squarefree(f: UniPoly) -> list[UniPoly]:
    f = f.monic()
    if f.degree() == 1:
        return [f]
    ctx = f.ctx
    if ctx.char > 0:
        return [g for part, d in _distinct_degree(f) for g in _edf(part, d)]
    if ctx.kind == "rationals":
        return _factor_rationals(f)
    return _factor_trager(f)


def _over_base(f: UniPoly) -> UniPoly | None:
    """``f`` over the base K of its tower L = K(a) over QQ, when every
    coefficient lies in K; otherwise None."""
    ctx = f.ctx
    if ctx.char or ctx.kind != "extension":
        return None
    in_base = ctx.base.ris_zero
    if not all(all(map(in_base, c[1:])) for c in f.reps):
        return None
    return UniPoly._from_reps(ctx.base, [c[0] for c in f.reps])


def _lift(ctx: FieldCtx, h: UniPoly) -> UniPoly:
    """``h``, over the base K of ``ctx`` = K(a), as a polynomial over ``ctx``."""
    pad = (ctx.base.rzero,) * (ctx.deg_step - 1)
    return UniPoly._from_reps(ctx, [(r,) + pad for r in h.reps])


def _descend(ctx: FieldCtx, down: UniPoly) -> list[tuple[UniPoly, int]]:
    """The factorization over L = ``ctx`` = K(a) of ``down`` in K[t], read off
    its factorization over K, multiplicities and all.  An irreducible h of K[t]
    whose degree is prime to [L:K] stays irreducible over L, and so does every
    linear one; the modulus of L is t - a times one exact quotient; any other h
    goes to Trager's norm descent (von zur Gathen & Gerhard, ch. 14-15)."""
    out = []
    for h, mult in down.factor():
        lifted = _lift(ctx, h)
        if gcd(h.degree(), ctx.deg_step) == 1:
            parts = [lifted]
        elif h.reps == ctx.modulus:
            root = [ctx.rneg(ctx.gen().rep), ctx.rone]
            cofactor = UniPoly._from_reps(ctx, _rp_divexact(ctx, lifted.reps, root))
            parts = [UniPoly._from_reps(ctx, root), *_factor_squarefree(cofactor)]
        else:
            parts = _factor_trager(lifted)
        out += [(g, mult) for g in parts]
    return out


def _distinct_degree(f: UniPoly) -> list[tuple[UniPoly, int]]:
    """Pairs (g, d) over F_q: g is the product of f's degree-d irreducible factors."""
    q = f.ctx.order
    if q is None:
        raise InternalCheckError("distinct-degree splitting needs a finite field")
    out: list[tuple[UniPoly, int]] = []
    x = UniPoly.x(f.ctx)
    h, rest = x, f
    d = 0
    while rest.degree() > 2 * (d + 1) - 1 and rest.degree() > 0:
        d += 1
        h = h.pow_mod(q, rest)
        g = (h - x).gcd(rest)
        if g.degree() > 0:
            out.append((g, d))
            rest = rest // g
            h = h % rest
    if rest.degree() > 0:
        out.append((rest.monic(), rest.degree()))
    return out


def _edf(f: UniPoly, d: int) -> list[UniPoly]:
    """Split a product of degree-``d`` irreducibles (Cantor-Zassenhaus)."""
    ctx = f.ctx
    if f.degree() == d:
        return [f.monic()]
    q = ctx.order
    if q is None:
        raise InternalCheckError("equal-degree splitting needs a finite field")
    p = ctx.char
    k = ctx.absdegree
    tag = f"{ctx.descriptor()}|{f}|edf"
    attempt = 0
    stack, out = [f.monic()], []
    while stack:
        g = stack.pop()
        if g.degree() == d:
            out.append(g)
            continue
        while True:
            attempt += 1
            rng = random.Random(f"{tag}|{attempt}")
            r = UniPoly(
                ctx, [ctx.element_at(rng.randrange(q)) for _ in range(g.degree())]
            )
            if r.degree() < 1:
                continue
            if p == 2:
                w = UniPoly(ctx, [])
                acc = r % g
                for _ in range(k * d):
                    w = (w + acc) % g
                    acc = acc.pow_mod(2, g)
                split = w.gcd(g)
            else:
                w = r.pow_mod((q**d - 1) // 2, g)
                split = (w - UniPoly(ctx, [1])).gcd(g)
            if 0 < split.degree() < g.degree():
                stack.append(split.monic())
                stack.append((g // split).monic())
                break
    return out


class _IntegersMod:
    """Z/mZ behind the raw-rep interface of a prime context, so the ``_rp_``
    helpers of :mod:`curveinv.field` run modulo a prime power; only units
    are ever inverted."""

    def __init__(self, m: int):
        for name, op in zip(_OPS, _prime_ops(m)):
            setattr(self, name, op)
        self.rzero, self.rone = 0, 1

    def ris_zero(self, a: int) -> bool:
        return a == 0


def _bezout(R, a: list, b: list) -> tuple[list, list]:
    """s, t with s*a + t*b = 1 over a field R, for coprime a and b."""
    s = _rp_gcdex(R, a, b)[1]
    return s, _rp_divexact(R, _rp_sub(R, [R.rone], _rp_mul(R, s, a)), b)


def _hensel_lift(g: list, fs: list[list], p: int, m: int) -> list[list]:
    """Monic lifts modulo m = p**k of the pairwise coprime monic factors fs of
    g = lc(g) * prod(fs) mod p, down a balanced factor tree with quadratic
    steps (von zur Gathen & Gerhard, Algorithms 15.10 and 15.17)."""
    if len(fs) == 1:
        return [_rp_monic(_IntegersMod(m), g)]
    Fp, half = FieldCtx.prime(p), len(fs) // 2
    a, b = (reduce(partial(_rp_mul, Fp), part, [1]) for part in (fs[:half], fs[half:]))
    s, t = _bezout(Fp, a, b)
    mod = p
    while mod < m:
        mod = min(mod * mod, m)
        R = _IntegersMod(mod)
        e = _rp_sub(R, _rp_monic(R, g), _rp_mul(R, a, b))
        q, r = _rp_divmod(R, _rp_mul(R, s, e), b)
        a = _rp_add(R, a, _rp_add(R, _rp_mul(R, t, e), _rp_mul(R, q, a)))
        b = _rp_add(R, b, r)
        if mod < m:
            c0 = _rp_sub(R, _rp_add(R, _rp_mul(R, s, a), _rp_mul(R, t, b)), [1])
            c, d = _rp_divmod(R, _rp_mul(R, s, c0), b)
            s = _rp_sub(R, s, d)
            t = _rp_sub(R, t, _rp_add(R, _rp_mul(R, t, c0), _rp_mul(R, c, a)))
    return _hensel_lift(a, fs[:half], p, m) + _hensel_lift(b, fs[half:], p, m)


def _factor_rationals(f: UniPoly) -> list[UniPoly]:
    """Zassenhaus's method for a squarefree monic ``f``: factor modulo a small
    prime, Hensel-lift past the Mignotte bound, and recombine subsets of the
    lifted factors (von zur Gathen & Gerhard, Section 15.6).  A candidate is
    accepted only when it divides exactly, so no result depends on the prime."""
    den = lcm(*(c.denominator for c in f.reps))
    g = [int(c * den) for c in f.reps]  # primitive, since f is monic
    n, lc, tried = len(g) - 1, den, []
    for p in filter(_is_prime, count(3)):
        gp = UniPoly(FieldCtx.prime(p), g).monic()
        if gp.degree() < n or gp.gcd(gp.derivative()).degree() > 0:
            continue
        split = _distinct_degree(gp)
        tried.append((sum(h.degree() // d for h, d in split), p, split))
        if tried[-1][0] == 1:
            return [f]
        if len(tried) == 5:  # lift from the best of five usable primes
            break
    _, p, split = min(tried)
    mods = [h.reps for part, d in split for h in _edf(part, d)]
    # the modulus exceeds twice B = ceil(sqrt(n+1)) * 2^n * |g|_inf * lc, which
    # bounds the coefficients of lc(g) times any monic factor of g
    m = p
    while m <= (isqrt(n) + 1 << n + 1) * max(map(abs, g)) * lc:
        m *= p
    fs, out, size, R = _hensel_lift(g, mods, p, m), [], 1, _IntegersMod(m)
    while 2 * size <= len(fs):
        for subset in combinations(range(len(fs)), size):
            cand = reduce(partial(_rp_mul, R), (fs[i] for i in subset), [g[-1]])
            cand = [c - m if 2 * c > m else c for c in cand]
            content = gcd(*cand)
            cand = [c // content for c in cand]
            if g[0] and (not cand[0] or g[0] % cand[0]):
                continue
            quo = _zdiv_exact(g, cand)
            if quo is not None:
                out.append(cand)
                g, fs = quo, [h for i, h in enumerate(fs) if i not in subset]
                break
        else:
            size += 1
    factors = [UniPoly(f.ctx, [Fraction(c, h[-1]) for c in h]) for h in out + [g]]
    if reduce(mul, factors) != f:
        raise InternalCheckError("Zassenhaus factors must multiply back to the input")
    return factors


def _factor_trager(f: UniPoly) -> list[UniPoly]:
    """Factor a squarefree monic poly over QQ(alpha, ...) by norm descent."""
    ctx = f.ctx
    base = ctx.base
    minpoly = UniPoly._from_reps(base, ctx.modulus)
    alpha = ctx.gen()
    for s in range(0, 40):
        shifted = f.compose(UniPoly(ctx, [alpha * s, ctx.one]))
        norm = _norm(shifted, minpoly)
        if norm.gcd(norm.derivative()).degree() == 0:
            break
    else:
        raise InternalCheckError("no squarefree norm found; input may not be squarefree")
    pieces = _factor_squarefree(norm)
    out = []
    shift_back = UniPoly(ctx, [-(alpha * s), ctx.one])
    for piece in pieces:
        g = shifted.gcd(_lift(ctx, piece))
        if g.degree() > 0:
            out.append(g.compose(shift_back).monic())
    total = UniPoly(ctx, [1])
    for g in out:
        total = total * g
    if total != f.monic():
        raise InternalCheckError("norm descent must reproduce the input")
    return out


def _norm(h: UniPoly, minpoly: UniPoly) -> UniPoly:
    """Norm of ``h`` down one tower step: Res_z(minpoly(z), h(t, z)), with
    the generator of ``h``'s coefficient field replaced by z."""
    from . import algebra

    vars = ("t", "z")
    hz = {(i, j): r for i, c in enumerate(h.reps) for j, r in enumerate(c)}
    mz = algebra.MPoly.from_unipoly(minpoly, vars, 1)
    return algebra.resultant(mz, algebra.MPoly._from_reps(minpoly.ctx, vars, hz), "z").to_unipoly(0)
