"""Dense univariate polynomials over a :class:`~curveinv.field.FieldCtx`.

Beyond ring arithmetic this module carries the machinery the rest of the
package leans on: squarefree decomposition in every characteristic
(Musser's algorithm, with p-th root extraction in positive characteristic),
full factorization (distinct-degree plus Cantor-Zassenhaus over finite
fields, Zassenhaus with Hensel lifting over QQ, Trager's norm descent over
algebraic extensions of QQ, the norm being the resultant Res_z(minpoly(z),
h(t, z)) from :func:`curveinv.algebra.resultant`), and canonical root lists,
which are read off the linear factors of :meth:`UniPoly.factor` over every
field.
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
from hashlib import sha256
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
    _rp_gcdex,
    _rp_monic,
    _rp_mul,
    _rp_pow_mod,
    _rp_sub,
    _rp_trim,
    _zdiv_exact,
    embed,
)


def _seeded_rng(*parts: str) -> random.Random:
    digest = sha256("|".join(parts).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class UniPoly:
    """Immutable univariate polynomial; ``coeffs`` constant term first."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs):
        elems = []
        for c in coeffs:
            if isinstance(c, FieldElement):
                if c.ctx is not ctx:
                    raise IncompatibleContexts("coefficient from another context")
                elems.append(c)
            elif isinstance(c, int):
                elems.append(ctx.from_int(c))
            elif isinstance(c, Fraction):
                elems.append(ctx.from_fraction(c))
            else:
                raise TypeError(f"bad coefficient {c!r}")
        while elems and elems[-1].is_zero():
            elems.pop()
        self.ctx = ctx
        self.coeffs = tuple(elems)

    @staticmethod
    def x(ctx: FieldCtx) -> "UniPoly":
        return UniPoly(ctx, [ctx.zero, ctx.one])

    def _reps(self) -> list:
        return [c.rep for c in self.coeffs]

    @classmethod
    def _from_reps(cls, ctx: FieldCtx, reps) -> "UniPoly":
        out = object.__new__(cls)
        out.ctx = ctx
        out.coeffs = tuple(FieldElement(ctx, r) for r in _rp_trim(ctx, list(reps)))
        return out

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> FieldElement:
        if not self.coeffs:
            raise InternalCheckError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, i: int) -> FieldElement:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ctx.zero

    def _check(self, other: "UniPoly") -> None:
        if not isinstance(other, UniPoly) or other.ctx is not self.ctx:
            raise IncompatibleContexts("mixed polynomial contexts")

    def __add__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            self.ctx,
            [self.coefficient(i) + other.coefficient(i) for i in range(n)],
        )

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            self.ctx,
            [self.coefficient(i) - other.coefficient(i) for i in range(n)],
        )

    def __neg__(self) -> "UniPoly":
        return UniPoly(self.ctx, [-c for c in self.coeffs])

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, FieldElement):
            return self.scale(other)
        self._check(other)
        return UniPoly._from_reps(
            self.ctx, _rp_mul(self.ctx, self._reps(), other._reps())
        )

    def __rmul__(self, other) -> "UniPoly":
        if isinstance(other, FieldElement):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: FieldElement) -> "UniPoly":
        return UniPoly(self.ctx, [c * a for a in self.coeffs])

    def __pow__(self, e: int) -> "UniPoly":
        if e < 0:
            raise UnsupportedInput("negative polynomial power")
        result = UniPoly(self.ctx, [self.ctx.one])
        acc = self
        while e:
            if e & 1:
                result = result * acc
            acc = acc * acc
            e >>= 1
        return result

    def __divmod__(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        self._check(other)
        if other.is_zero():
            raise DivisionByZero("division by the zero polynomial")
        q, r = _rp_divmod(self.ctx, self._reps(), other._reps())
        return UniPoly._from_reps(self.ctx, q), UniPoly._from_reps(self.ctx, r)

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.ctx is other.ctx and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.ctx._key, self.coeffs))

    def monic(self) -> "UniPoly":
        if self.is_zero() or self.leading().is_one():
            return self
        return self.scale(self.leading().inverse())

    def gcd(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        g = self.ctx.rgcd(self._reps(), other._reps())
        return UniPoly._from_reps(self.ctx, g)

    def derivative(self) -> "UniPoly":
        return UniPoly(
            self.ctx,
            [self.coeffs[i] * i for i in range(1, len(self.coeffs))],
        )

    def eval(self, x: FieldElement) -> FieldElement:
        acc = self.ctx.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "UniPoly") -> "UniPoly":
        self._check(inner)
        acc = UniPoly(self.ctx, [])
        for c in reversed(self.coeffs):
            acc = acc * inner + UniPoly(self.ctx, [c])
        return acc

    def pow_mod(self, e: int, mod: "UniPoly") -> "UniPoly":
        self._check(mod)
        r = _rp_pow_mod(self.ctx, self._reps(), e, mod._reps())
        return UniPoly._from_reps(self.ctx, r)

    # -- squarefree structure -------------------------------------------------

    def pth_root(self) -> "UniPoly":
        """Exact p-th root of a polynomial in K[x^p] (finite K)."""
        p = self.ctx.char
        if p == 0:
            raise InternalCheckError("p-th root needs positive characteristic")
        out = []
        for i, c in enumerate(self.coeffs):
            if i % p == 0:
                out.append(self.ctx.pth_root(c))
            elif not c.is_zero():
                raise InternalCheckError("polynomial is not a p-th power")
        return UniPoly(self.ctx, out)

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
        if self.degree() < 1:
            return False
        if self.ctx.char > 0:
            from .field import _rp_is_irreducible

            return _rp_is_irreducible(self.ctx, self.monic()._reps())
        fs = self.factor()
        return len(fs) == 1 and fs[0][1] == 1

    def roots(self) -> list[FieldElement]:
        """Distinct roots in the coefficient field, sorted canonically."""
        return [r for r, _ in self.roots_with_multiplicity()]

    def roots_with_multiplicity(self) -> list[tuple[FieldElement, int]]:
        out = [
            (-g.coeffs[0], mult) for g, mult in self.factor() if g.degree() == 1
        ]
        out.sort(key=lambda rm: rm[0].sort_key())
        return out

    def __str__(self) -> str:
        return _render_terms(
            (str(c), "" if i == 0 else "t" if i == 1 else f"t^{i}")
            for i, c in reversed(list(enumerate(self.coeffs)))
            if not c.is_zero()
        )

    def __repr__(self) -> str:
        return f"<UniPoly {self} over {self.ctx.descriptor()}>"


def _poly_key(g: UniPoly):
    return (g.degree(), tuple(c.sort_key() for c in g.coeffs))


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
    if not all(all(map(in_base, c.rep[1:])) for c in f.coeffs):
        return None
    return UniPoly._from_reps(ctx.base, [c.rep[0] for c in f.coeffs])


def _descend(ctx: FieldCtx, down: UniPoly) -> list[tuple[UniPoly, int]]:
    """The factorization over L = ``ctx`` = K(a) of ``down`` in K[t], read off
    its factorization over K, multiplicities and all.  An irreducible h of K[t]
    whose degree is prime to [L:K] stays irreducible over L, and so does every
    linear one; the modulus of L is t - a times one exact quotient; any other h
    goes to Trager's norm descent (von zur Gathen & Gerhard, ch. 14-15)."""
    n, pad = ctx.deg_step, (ctx.base.rzero,) * (ctx.deg_step - 1)
    out = []
    for h, mult in down.factor():
        lifted = UniPoly._from_reps(ctx, [(r,) + pad for r in h._reps()])
        if gcd(h.degree(), n) == 1:
            parts = [lifted]
        elif h._reps() == list(ctx.modulus):
            root = [ctx.rneg(ctx.gen().rep), ctx.rone]
            cofactor = UniPoly._from_reps(ctx, _rp_divexact(ctx, lifted._reps(), root))
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
            rng = _seeded_rng(tag, str(attempt))
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
    den = lcm(*(c.rep.denominator for c in f.coeffs))
    g = [int(c.rep * den) for c in f.coeffs]  # primitive, since f is monic
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
    mods = [[c.rep for c in h.coeffs] for part, d in split for h in _edf(part, d)]
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
    minpoly = UniPoly(base, [FieldElement(base, r) for r in ctx.modulus])
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
        lifted = UniPoly(ctx, [embed(c, ctx) for c in piece.coeffs])
        g = shifted.gcd(lifted)
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

    base = minpoly.ctx
    vars = ("t", "z")
    hz = {}
    for i, c in enumerate(h.coeffs):
        for j, r in enumerate(c.rep):
            hz[(i, j)] = FieldElement(base, r)
    mz = algebra.MPoly.from_unipoly(minpoly, vars, 1)
    return algebra.resultant(mz, algebra.MPoly(base, vars, hz), "z").to_unipoly(0)
