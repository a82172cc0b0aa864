"""Exact coefficient fields: F_p, its finite extensions, QQ, and algebraic
extensions of QQ.

A :class:`FieldCtx` owns all arithmetic; a :class:`FieldElement` is a thin
(ctx, rep) wrapper.  Representations are canonical so that ``==`` and ``hash``
are structural:

* prime field      -- ``int`` in ``[0, p)``
* rationals        -- ``fractions.Fraction`` (always reduced)
* extension        -- tuple of base reps, fixed length = step degree
* small F_q        -- ``int`` log code for a one-step extension of F_p of
  order at most :data:`LOG_TABLE_MAX_ORDER`: 0 is zero and e+1 is g^e, g
  the first primitive element in :meth:`FieldCtx.element_at` order

Each context binds its ``radd``/``rsub``/``rneg``/``rmul``/``rinv``/``rpow``/
``rfrom_int``/``ris_zero``/``rdivmod`` and ``rconv`` once, when it is built.
``rconv`` is the one product of coefficient vectors (polynomials, truncated
series, extension reps): F_p sums Python ints and reduces once per
coefficient, QQ convolves integers over a common denominator, and both skip
zeros.  Once both operands
are longer than :data:`FP_PACK_MIN_LEN`, F_p instead packs each one into a
single integer and multiplies once, provided the loop would make more
products than the result has coefficients and a coefficient of the product
fits a machine word; QQ keeps the loop, which measured faster for it in the
char-0 workload.  A tuple extension
of step degree d puts coefficient i of each operand in slots i*(2d-1) ..
i*(2d-1)+d-1 of one base vector, runs its base's ``rconv`` once and reduces
once per output coefficient; a tower such as QQ(a, b) recurses down to the
integer kernel (Kronecker substitution; *Modern Computer Algebra*, 8.4).

A small F_q multiplies by adding exponents mod q-1 and adds through a Zech
table, log(1 + g^d) (Jacobi's logarithm; Lidl-Niederreiter, *Finite
Fields*).  It is presented through the polynomial basis: ``element_at(i)``
has the base-p digits of i as coefficients, ``sort_key`` is that digit
tuple, and ``str``, ``modulus``, embeddings and interning keys read the
digits, so no output sees the codes.

Extension arithmetic reduces against a monic defining polynomial whose
irreducibility is verified at construction (Rabin's test over finite fields,
factorization in characteristic zero).  Finite contexts produced by
:meth:`FieldCtx.extend_with_root` are always single-step extensions of F_p;
growing F_{p^k} lands in a flattened F_{p^{k*d}} together with an embedding
of the old context, so arithmetic never pays for a tower.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import partial
from math import lcm
from operator import add, eq, mul, neg, not_, sub
from typing import Callable, Iterator, Sequence

from .errors import (
    CharZeroPthRoot,
    DivisionByZero,
    IncompatibleContexts,
    InternalCheckError,
    NoEmbedding,
    TowerLimitExceeded,
)

MAX_TOWER_DEPTH = 4

# Largest F_q computed through log tables.  Building them took 7 ms for
# F_{7^4} and 50 ms at this cap (F_{2^12}), but 1.3 s for F_{2^16}.
LOG_TABLE_MAX_ORDER = 4096

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond any usable characteristic."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Polynomials over raw reps.  These helpers power extension arithmetic and the
# irreducibility test; ``ctx`` is always the coefficient context and vectors
# are lists of its reps, lowest degree first, trailing zeros stripped.
# ---------------------------------------------------------------------------


def _rp_trim(ctx: "FieldCtx", v: list) -> list:
    while v and ctx.ris_zero(v[-1]):
        v.pop()
    return v


def _rp_add(ctx: "FieldCtx", a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = ctx.radd(out[i], c)
    return _rp_trim(ctx, out)


def _rp_sub(ctx: "FieldCtx", a: list, b: list) -> list:
    return _rp_add(ctx, a, [ctx.rneg(c) for c in b])


def _rp_scale(ctx: "FieldCtx", c, a: list) -> list:
    if ctx.ris_zero(c):
        return []
    return _rp_trim(ctx, [ctx.rmul(c, x) for x in a])


def _rp_mul(ctx: "FieldCtx", a: list, b: list) -> list:
    return _rp_trim(ctx, ctx.rconv(a, b, len(a) + len(b) - 1))


def _rp_divmod(ctx: "FieldCtx", a: list, b: list) -> tuple[list, list]:
    if not b:
        raise DivisionByZero("polynomial division by zero")
    return ctx.rdivmod(a, b)


def _rp_rem(ctx: "FieldCtx", a: list, b: list) -> list:
    return _rp_divmod(ctx, a, b)[1]


def _rp_divexact(ctx: "FieldCtx", a: list, b: list) -> list:
    q, r = _rp_divmod(ctx, a, b)
    if r:
        raise InternalCheckError("division is not exact")
    return q


def _rp_monic(ctx: "FieldCtx", a: list) -> list:
    if not a:
        return a
    return _rp_scale(ctx, ctx.rinv(a[-1]), a)


def _rp_gcd(ctx: "FieldCtx", a: list, b: list) -> list:
    a, b = list(a), list(b)
    while b:
        a, b = b, _rp_rem(ctx, a, b)
    return _rp_monic(ctx, a)


def _rp_pow_mod(ctx: "FieldCtx", base: list, e: int, mod: list) -> list:
    result = [ctx.rone]
    acc = _rp_rem(ctx, list(base), mod)
    while e:
        if e & 1:
            result = _rp_rem(ctx, _rp_mul(ctx, result, acc), mod)
        acc = _rp_rem(ctx, _rp_mul(ctx, acc, acc), mod)
        e >>= 1
    return result


def _rp_is_irreducible(ctx: "FieldCtx", mod: list) -> bool:
    """Rabin's criterion for a monic polynomial over a finite context."""
    n = len(mod) - 1
    if n < 1:
        return False
    if n == 1:
        return True
    q = ctx.order
    if q is None:
        raise InternalCheckError("Rabin's test needs a finite field")
    x_poly = [ctx.rzero, ctx.rone]
    checkpoints = {n // ell for ell in _prime_divisors(n)}
    h = x_poly
    for i in range(1, n + 1):
        h = _rp_pow_mod(ctx, h, q, mod)
        if i in checkpoints:
            g = _rp_gcd(ctx, _rp_sub(ctx, h, x_poly), mod)
            if len(g) - 1 > 0:
                return False
    return h == x_poly


# Arithmetic bound to a context: one closure per name in _OPS, in that order.
# ``rconv(a, b, n)`` is the first n coefficients of the product of two
# coefficient vectors (missing entries count as zero), untrimmed.  A tuple
# extension of step degree d writes each operand into one base vector at
# stride 2d-1, so the partial products of distinct coefficients never overlap,
# runs one base ``rconv`` and reduces once per output coefficient.  Only a
# log-table F_q loops over its own ``radd``/``rmul``.  ``rdivmod(a, b)`` is the
# trimmed quotient and remainder of a by a nonzero vector b: F_p sums Python
# ints and reduces only each quotient term and the final remainder, every other
# kind runs the schoolbook loop of :func:`_loop_divmod`.
_OPS = ("radd", "rsub", "rneg", "rmul", "rinv", "rpow", "rfrom_int", "rconv", "rdivmod")


def _inverse_of_zero():
    raise DivisionByZero("inverse of zero")


def _loop_divmod(ctx: "FieldCtx", a: list, b: list) -> tuple[list, list]:
    radd, rmul, ris_zero = ctx.radd, ctx.rmul, ctx.ris_zero
    r, low = list(a), [ctx.rneg(c) for c in b[:-1]]
    db, inv_lead = len(b) - 1, ctx.rinv(b[-1])
    q = [ctx.rzero] * max(len(r) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        c = r.pop()  # the top term, which c*b[-1] cancels by construction
        if ris_zero(c):
            continue
        q[k] = c = rmul(c, inv_lead)
        for j, bj in enumerate(low, k):
            r[j] = radd(r[j], rmul(c, bj))
    return _rp_trim(ctx, q), _rp_trim(ctx, r)


def _int_trim(v: list) -> list:
    while v and not v[-1]:
        v.pop()
    return v


# F_p products whose operands both have more than this many coefficients (after
# truncation to the product's length) may go through one packed integer product
# (see _packed_mul_trunc for when they do).  Replaying every F_p product of one
# seed-42 pass of each benchmark workload through both kernels (Python 3.11.7,
# one CPU; BENCH_14.json, ``fp_packing``), packing lost on lengths 9-12 in
# corpus_charp and cli_local and broke even or won on lengths 13-16 and beyond.
FP_PACK_MIN_LEN = 12

_ARRAY_CODES = {array(code).itemsize: code for code in "BHILQ"}  # slot bytes -> typecode
# the narrowest array item that holds a nonnegative int of each bit length
_SLOT_BYTES = [min(s for s in _ARRAY_CODES if 8 * s >= k) for k in range(8 * max(_ARRAY_CODES) + 1)]


def _packed_mul_trunc(a, b, n: int, m: int) -> list:
    """a*b mod t^n, reduced mod m, for vectors of ints in [0, m).

    Each operand becomes one integer with a slot of ``size`` bytes per
    coefficient, wide enough for any coefficient of the product, so one big
    integer product holds them all (Kronecker substitution; *Modern Computer
    Algebra*, 8.4).  The slot is the narrowest ``array`` item that fits.

    The loop of :func:`_int_mul_trunc` runs instead in two cases.  When it
    makes at most n products of nonzero coefficients, it costs less than n
    slots of packing: corpus_charp's long operands are about a tenth nonzero,
    and packing all of them cost its median item 2%.  When no array item
    fits (p above 2^32/sqrt(length)), packing through ``int.to_bytes``
    measured slower than the loop at length 24 for p = 2^31-1 and at length
    64 for p = 2^61-1.  (Measurements: BENCH_14.json, ``fp_packing``.)
    """
    a, b = a[:n], b[:n]
    bits = (min(len(a), len(b)) * (m - 1) ** 2).bit_length()
    if (len(a) - a.count(0)) * (len(b) - b.count(0)) <= n or bits >= len(_SLOT_BYTES):
        return [c % m for c in _int_mul_trunc(a, b, n)]
    size = _SLOT_BYTES[bits]
    code, big = _ARRAY_CODES[size], sys.byteorder == "big"
    va, vb = array(code, a), array(code, b)
    if big:  # array items are native-endian, the packing is little-endian
        va.byteswap()
        vb.byteswap()
    k = min(n, len(a) + len(b) - 1)
    prod = int.from_bytes(va, "little") * int.from_bytes(vb, "little")
    out = array(code, prod.to_bytes(size * (len(a) + len(b) - 1), "little")[: size * k])
    if big:
        out.byteswap()
    return [c % m for c in out] + [0] * (n - k)


def _int_mul_trunc(a, b, n: int) -> list:
    """Integer vectors a*b mod t^n, summed as Python ints."""
    out = [0] * n
    nzb = [(j, cb) for j, cb in enumerate(b[:n]) if cb]
    for i, ca in enumerate(a[:n]):
        if ca:
            for j, cb in nzb:
                k = i + j
                if k >= n:
                    break
                out[k] += ca * cb
    return out


def _prime_ops(p: int) -> tuple:
    def rinv(a):
        return pow(a, -1, p) if a else _inverse_of_zero()

    def rconv(a, b, n):
        if min(len(a), len(b), n) > FP_PACK_MIN_LEN:
            return _packed_mul_trunc(a, b, n, p)
        return [c % p for c in _int_mul_trunc(a, b, n)]

    def rdivmod(a, b):
        r, low = list(a), [-c for c in b[:-1]]
        db, inv_lead = len(b) - 1, rinv(b[-1])
        q = [0] * max(len(r) - db, 0)
        for k in range(len(q) - 1, -1, -1):
            c = r.pop() % p  # the top term, which c*b[-1] cancels by construction
            if c:
                q[k] = c = c * inv_lead % p
                for j, bj in enumerate(low, k):
                    r[j] += c * bj
        return _int_trim(q), _int_trim([c % p for c in r])

    return (
        lambda a, b: (a + b) % p,
        lambda a, b: (a - b) % p,
        lambda a: -a % p,
        lambda a, b: a * b % p,
        rinv,
        lambda a, e: pow(a, e, p) if a or e >= 0 else _inverse_of_zero(),
        lambda n: n % p,
        rconv,
        rdivmod,
    )


def _rational_ops(ctx: "FieldCtx") -> tuple:
    zero = ctx.rzero

    def rinv(a):
        return 1 / a if a else _inverse_of_zero()

    def rpow(a, e):
        return a**e if a or e >= 0 else _inverse_of_zero()

    def common_denominator(v):
        # the numerators over the lcm of their denominators, skipping the shared zero
        den = lcm(*(c.denominator for c in v if c is not zero))
        return [0 if c is zero else c.numerator * (den // c.denominator) for c in v], den

    def rconv(a, b, n):
        (na, da), (nb, db) = common_denominator(a[:n]), common_denominator(b[:n])
        den = da * db
        return [Fraction(c, den) if c else zero for c in _int_mul_trunc(na, nb, n)]

    return (add, sub, neg, mul, rinv, rpow, Fraction, rconv, partial(_loop_divmod, ctx))


def _tuple_ops(ctx: "FieldCtx") -> tuple:
    base, d = ctx.base, ctx.deg_step
    badd, bsub, bneg = base.radd, base.rsub, base.rneg
    bmul, bzero, zero, w = base.rmul, base.rzero, ctx.rzero, 2 * d - 1
    gap, blank = [bzero] * (d - 1), [bzero] * w
    low = [(j, c) for j, c in enumerate(ctx.modulus[:d]) if not base.ris_zero(c)]

    def reduce(v):
        # v mod the modulus, in place; the base's shared zero is skipped (another
        # zero rep would only cost time) and so are zero terms of the modulus
        for i in range(len(v) - 1, d - 1, -1):
            c = v[i]
            if c is not bzero:
                for j, mj in low:
                    v[i - d + j] = bsub(v[i - d + j], bmul(c, mj))
        del v[d:]
        return v

    def flat(v):
        out = []
        for c in v:
            out += c
            out += gap
        return out

    def rconv(a, b, n):
        # coefficient k of the product is slots k*w .. k*w+w-1 of the base one
        m = min(n, len(a) + len(b) - 1) if a and b else 0
        prod = base.rconv(flat(a[:m]), flat(b[:m]), m * w)
        blocks = (prod[k : k + w] for k in range(0, m * w, w))
        return [zero if v == blank else tuple(reduce(v)) for v in blocks] + [zero] * (n - m)

    def rmul(a, b):  # the length-1 case of rconv
        return tuple(reduce(base.rconv(a, b, w)))

    def rinv(a):
        v = _rp_trim(base, list(a))
        if not v:
            _inverse_of_zero()
        # Extended Euclid against the modulus, tracking only the Bezout
        # coefficient of ``v``; the gcd is a nonzero constant because the
        # modulus is irreducible and deg v < deg modulus.
        r0, r1 = list(ctx.modulus), v
        u0, u1 = [], [base.rone]
        while r1:
            q, rem = _rp_divmod(base, r0, r1)
            r0, r1 = r1, rem
            u0, u1 = u1, _rp_sub(base, u0, _rp_mul(base, q, u1))
        u = _rp_rem(base, _rp_scale(base, base.rinv(r0[0]), u0), list(ctx.modulus))
        return tuple(u + [bzero] * (d - len(u)))

    def rpow(a, e):
        if e < 0:
            a, e = rinv(a), -e
        result = ctx.rone
        while e:
            if e & 1:
                result = rmul(result, a)
            a = rmul(a, a)
            e >>= 1
        return result

    def radd(a, b):
        return tuple(map(badd, a, b))

    return (
        radd,
        lambda a, b: tuple(map(bsub, a, b)),
        lambda a: tuple(map(bneg, a)),
        rmul,
        rinv,
        rpow,
        lambda k: (base.rfrom_int(k),) + (base.rzero,) * (d - 1),
        rconv,
        partial(_loop_divmod, ctx),
    )


def _log_tables(p: int, n: int, modulus: tuple) -> tuple[list, list, list]:
    """Tables of F_p[a]/(modulus) by plain-int loops: ``exp[code]`` is the
    :meth:`FieldCtx.element_at` index of a code, ``log[index]`` the code of
    an index and ``zech[d]`` the code of 1 + g^d."""
    q = p**n
    low = [-c % p for c in modulus[:n]]  # a^n as a combination of lower powers

    def times(u, v):
        out = [0] * (2 * n - 1)
        for i, c in enumerate(u):
            for j, d in enumerate(v):
                out[i + j] += c * d
        for i in range(2 * n - 2, n - 1, -1):
            c = out[i] % p
            for k in range(n):
                out[i - n + k] += c * low[k]
        return [c % p for c in out[:n]]

    def digits(i):
        return [i // p**k % p for k in range(n)]

    def power(u, e):
        r = digits(1)
        for bit in bin(e)[2:]:
            r = times(r, r)
            if bit == "1":
                r = times(r, u)
        return r

    cofactors = [(q - 1) // r for r in _prime_divisors(q - 1)]
    g = next(
        i for i in range(1, q) if all(power(digits(i), e) != digits(1) for e in cofactors)
    )
    rows = list(zip(*(times(digits(g), digits(p**k)) for k in range(n))))
    weights = [p**k for k in range(n)]
    exp, log = [0] * q, [0] * q
    u = digits(1)
    for code in range(1, q):
        i = sum(map(mul, u, weights))
        exp[code], log[i] = i, code
        u = [sum(map(mul, row, u)) % p for row in rows]
    zech = [log[i + 1 if i % p != p - 1 else i + 1 - p] for i in exp[1:]]
    return exp, log, zech


def _log_table_ops(ctx: "FieldCtx", zech: list) -> tuple:
    log = ctx._log
    p, m = ctx.char, ctx.order - 1
    half = m // 2 if p > 2 else 0  # -1 = g^half

    def rmul(a, b):
        if not a or not b:
            return 0
        s = a + b - 1
        return s if s <= m else s - m

    def radd(a, b):
        if not a:
            return b
        if not b:
            return a
        z = zech[b - a]  # negative indices wrap mod q-1
        if not z:
            return 0
        s = a + z - 1
        return s if s <= m else s - m

    def rneg(a):
        if not a:
            return 0
        s = a + half
        return s if s <= m else s - m

    def rinv(a):
        return m + 2 - a if a > 1 else a or _inverse_of_zero()

    def rpow(a, e):
        if a:
            return (a - 1) * e % m + 1
        return 1 if e == 0 else 0 if e > 0 else _inverse_of_zero()

    def rconv(a, b, n):
        out = [0] * n
        nzb = [(j, c) for j, c in enumerate(b[:n]) if c]
        for i, ca in enumerate(a[:n]):
            if ca:
                for j, cb in nzb:
                    k = i + j
                    if k >= n:
                        break
                    out[k] = radd(out[k], rmul(ca, cb))
        return out

    return (
        radd,
        lambda a, b: radd(a, rneg(b)),
        rneg,
        rmul,
        rinv,
        rpow,
        lambda k: log[k % p],
        rconv,
        partial(_loop_divmod, ctx),
    )


def _render_terms(terms) -> str:
    """A sum of (coefficient text, monomial text) pairs, leading term first;
    the constant term's monomial is "".  A coefficient 1 is dropped, -1
    becomes a leading minus and a compound coefficient is bracketed."""
    parts = []
    for s, mono in terms:
        if not mono:
            parts.append(s)
        elif s == "1":
            parts.append(mono)
        elif s == "-1":
            parts.append("-" + mono)
        elif "+" in s or "-" in s[1:]:
            parts.append(f"({s})*{mono}")
        else:
            parts.append(f"{s}*{mono}")
    return "+".join(parts).replace("+-", "-") if parts else "0"


# ---------------------------------------------------------------------------
# Contexts
# ---------------------------------------------------------------------------

_CTX_CACHE: dict = {}
_FLAT_CACHE: dict[tuple[int, int], "FieldCtx"] = {}


class FieldCtx:
    """One arithmetic world.  Interned: equal keys give the identical object."""

    __slots__ = (
        "kind",
        "char",
        "order",
        "base",
        "modulus",
        "gen_name",
        "deg_step",
        "absdegree",
        "depth",
        "rzero",
        "rone",
        "zero",
        "one",
        *_OPS,
        "ris_zero",
        "_key",
        "_embed_cache",
        "_exp",
        "_log",
    )

    def __init__(self, *, _token=None, tables=None, **attrs):
        if _token is not _NEW_TOKEN:
            raise TypeError("use FieldCtx.prime / FieldCtx.rationals / ctx.extend")
        for name in self.__slots__:
            if name.startswith("_") and name != "_key":
                continue
            object.__setattr__(self, name, attrs.get(name))
        object.__setattr__(self, "_key", attrs["_key"])
        object.__setattr__(self, "_embed_cache", {})
        exp, log, zech = tables or (None, None, None)
        object.__setattr__(self, "_exp", exp)
        object.__setattr__(self, "_log", log)
        if self.kind == "prime":
            ops = _prime_ops(self.char)
        elif self.kind == "rationals":
            ops = _rational_ops(self)
        else:
            ops = _tuple_ops(self) if exp is None else _log_table_ops(self, zech)
        for name, op in zip(_OPS, ops):
            object.__setattr__(self, name, op)
        # an int or Fraction rep is zero exactly when it is falsy; a tuple never is
        tup = isinstance(self.rzero, tuple)
        object.__setattr__(self, "ris_zero", partial(eq, self.rzero) if tup else not_)
        object.__setattr__(self, "zero", FieldElement(self, self.rzero))
        object.__setattr__(self, "one", FieldElement(self, self.rone))

    # -- construction -------------------------------------------------------

    @staticmethod
    def prime(p: int) -> "FieldCtx":
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        key = ("prime", p)
        ctx = _CTX_CACHE.get(key)
        if ctx is None:
            ctx = FieldCtx(
                _token=_NEW_TOKEN,
                kind="prime",
                char=p,
                order=p,
                base=None,
                modulus=None,
                gen_name=None,
                deg_step=1,
                absdegree=1,
                depth=0,
                rzero=0,
                rone=1 % p,
                _key=key,
            )
            _CTX_CACHE[key] = ctx
        return ctx

    @staticmethod
    def rationals() -> "FieldCtx":
        key = ("rationals",)
        ctx = _CTX_CACHE.get(key)
        if ctx is None:
            ctx = FieldCtx(
                _token=_NEW_TOKEN,
                kind="rationals",
                char=0,
                order=None,
                base=None,
                modulus=None,
                gen_name=None,
                deg_step=1,
                absdegree=1,
                depth=0,
                rzero=Fraction(0),
                rone=Fraction(1),
                _key=key,
            )
            _CTX_CACHE[key] = ctx
        return ctx

    def extend(
        self,
        modulus,
        gen_name: str | None = None,
        *,
        _verified: bool = False,
    ) -> "FieldCtx":
        """Extension by a root of ``modulus`` (irreducible over this context).

        ``modulus`` is a sequence of elements of this context (or anything
        with such a ``.coeffs``), constant term first.  It is made monic.
        Irreducibility is checked here unless the caller already factored.
        """
        coeffs = list(getattr(modulus, "coeffs", modulus))
        reps = []
        for c in coeffs:
            if isinstance(c, FieldElement):
                if c.ctx is not self:
                    raise IncompatibleContexts("modulus coefficients from another context")
                reps.append(c.rep)
            elif isinstance(c, int):
                reps.append(self.rfrom_int(c))
            else:
                raise TypeError(f"bad modulus coefficient {c!r}")
        _rp_trim(self, reps)
        n = len(reps) - 1
        if n < 2:
            raise ValueError("extension degree must be at least 2")
        if self.depth + 1 > MAX_TOWER_DEPTH:
            raise TowerLimitExceeded(
                f"tower depth {self.depth + 1} exceeds the cap {MAX_TOWER_DEPTH}"
            )
        reps = _rp_monic(self, reps)
        if not _verified:
            if self.char > 0:
                if not _rp_is_irreducible(self, reps):
                    raise ValueError("modulus is reducible")
            else:
                from . import unipoly as _up

                f = _up.UniPoly(self, [FieldElement(self, r) for r in reps])
                if not f.is_irreducible():
                    raise ValueError("modulus is reducible")
        if gen_name is None:
            gen_name = chr(ord("a") + self.depth)
        key = ("ext", self._key, tuple(map(self.rsort_key, reps)), gen_name)
        ctx = _CTX_CACHE.get(key)
        if ctx is None:
            order = None if self.order is None else self.order**n
            small = self.kind == "prime" and order <= LOG_TABLE_MAX_ORDER
            tables = _log_tables(self.char, n, reps) if small else None
            zero = 0 if small else tuple([self.rzero] * n)
            one = 1 if small else tuple([self.rone] + [self.rzero] * (n - 1))
            ctx = FieldCtx(
                _token=_NEW_TOKEN,
                tables=tables,
                kind="extension",
                char=self.char,
                order=order,
                base=self,
                modulus=tuple(reps),
                gen_name=gen_name,
                deg_step=n,
                absdegree=self.absdegree * n,
                depth=self.depth + 1,
                rzero=zero,
                rone=one,
                _key=key,
            )
            _CTX_CACHE[key] = ctx
        return ctx

    def extend_with_root(self, poly) -> tuple["FieldCtx", "FieldElement", Callable]:
        """Smallest context containing a root of ``poly`` (a univariate over
        this context).

        Returns ``(new_ctx, root, embed_fn)``.  If a root already lives here
        the context comes back unchanged with the identity embedding.  The
        root and the enlarged context are canonical, so repeated runs agree.
        """
        from . import unipoly as _up

        if not isinstance(poly, _up.UniPoly):
            poly = _up.UniPoly(self, list(poly))
        if poly.ctx is not self:
            raise IncompatibleContexts("polynomial over another context")
        if poly.degree() < 1:
            raise ValueError("need a nonconstant polynomial")
        factors = poly.factor()
        linear = [g for g, _ in factors if g.degree() == 1]
        if linear:
            roots = [-g.coeffs[0] for g in linear]
            root = min(roots, key=lambda e: e.sort_key())
            return self, root, lambda e: e
        pick = min(
            (g for g, _ in factors),
            key=lambda g: (g.degree(), tuple(c.sort_key() for c in g.coeffs)),
        )
        if self.char > 0:
            target = _flat_finite_ctx(self.char, self.absdegree * pick.degree())

            def emb(e: "FieldElement", _t=target) -> "FieldElement":
                return embed(e, _t)

            lifted = _up.UniPoly(target, [emb(c) for c in pick.coeffs])
            roots = lifted.roots()
            if not roots:
                raise InternalCheckError("irreducible factor must split in the flattened field")
            return target, roots[0], emb
        target = self.extend(pick.coeffs, _verified=True)

        def emb0(e: "FieldElement", _t=target) -> "FieldElement":
            return embed(e, _t)

        return target, target.gen(), emb0

    def gen(self) -> "FieldElement":
        if self.kind != "extension":
            raise ValueError("context has no generator")
        if self._log is not None:
            return FieldElement(self, self._log[self.char])
        rep = [self.base.rzero] * self.deg_step
        rep[1] = self.base.rone
        return FieldElement(self, tuple(rep))

    # -- rep-level arithmetic ------------------------------------------------
    # radd, rsub, rneg, rmul, rinv, rpow, rfrom_int, rconv, rdivmod and
    # ris_zero are bound per context.

    def rfrom_fraction(self, q: Fraction):
        if self.kind == "rationals":
            return q
        num = self.rfrom_int(q.numerator)
        den = self.rfrom_int(q.denominator)
        return self.rmul(num, self.rinv(den))

    def rsort_key(self, a):
        if self.kind == "extension":
            return tuple(map(self.base.rsort_key, self.rcoeffs(a)))
        return a

    def rcoeffs(self, a) -> tuple:
        """Coefficients of an extension rep in the polynomial basis."""
        if self._exp is None:
            return a
        i, p = self._exp[a], self.char
        return tuple(i // p**k % p for k in range(self.deg_step))

    # -- elements ------------------------------------------------------------

    def from_int(self, n: int) -> "FieldElement":
        return FieldElement(self, self.rfrom_int(n))

    def from_fraction(self, q: Fraction) -> "FieldElement":
        return FieldElement(self, self.rfrom_fraction(q))

    def pth_root(self, a: "FieldElement") -> "FieldElement":
        """Inverse Frobenius; total on finite fields, an error in char 0."""
        if self.char == 0:
            raise CharZeroPthRoot("p-th roots need positive characteristic")
        if a.ctx is not self:
            raise IncompatibleContexts("element from another context")
        if self.order is None:
            raise InternalCheckError("p-th roots are taken in finite fields only")
        return FieldElement(self, self.rpow(a.rep, self.order // self.char))

    def element_at(self, i: int) -> "FieldElement":
        if self.order is None:
            raise ValueError("cannot index an infinite field")
        if not 0 <= i < self.order:
            raise IndexError(i)
        if self.kind == "prime":
            return FieldElement(self, i)
        if self._log is not None:
            return FieldElement(self, self._log[i])
        base, q = self.base, self.base.order
        rep = []
        for _ in range(self.deg_step):
            rep.append(base.element_at(i % q).rep)
            i //= q
        return FieldElement(self, tuple(rep))

    def elements(self) -> Iterator["FieldElement"]:
        if self.order is None:
            raise ValueError("cannot enumerate an infinite field")
        for i in range(self.order):
            yield self.element_at(i)

    def sample(self, rng) -> "FieldElement":
        if self.order is not None:
            return self.element_at(rng.randrange(self.order))
        if self.kind == "rationals":
            return FieldElement(self, Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        base = self.base
        return FieldElement(
            self, tuple(base.sample(rng).rep for _ in range(self.deg_step))
        )

    # -- presentation ---------------------------------------------------------

    def descriptor(self) -> str:
        if self.kind == "prime":
            return f"Fp:{self.char}"
        if self.kind == "rationals":
            return "QQ"
        if self.char > 0:
            return f"Fq:{self.char}^{self.absdegree}"
        names = []
        ctx: FieldCtx | None = self
        while ctx is not None and ctx.kind == "extension":
            names.append(ctx.gen_name)
            ctx = ctx.base
        return "QQ(" + ",".join(reversed(names)) + ")"

    def render_rep(self, a) -> str:
        if self.kind in ("prime", "rationals"):
            return str(a)
        base, a, g = self.base, self.rcoeffs(a), self.gen_name
        return _render_terms(
            (base.render_rep(a[i]), "" if i == 0 else g if i == 1 else f"{g}^{i}")
            for i in range(self.deg_step - 1, -1, -1)
            if not base.ris_zero(a[i])
        )

    def __repr__(self) -> str:
        return f"FieldCtx({self.descriptor()})"

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, FieldCtx) and self._key == other._key
        )

    def __hash__(self) -> int:
        return hash(self._key)


_NEW_TOKEN = object()


def _flat_finite_ctx(p: int, n: int) -> FieldCtx:
    """F_{p^n} as a one-step extension of F_p with a canonical modulus.

    The modulus is the first monic irreducible of degree ``n`` in counter
    order (lower-degree coefficients vary fastest), so every run of every
    process picks the same field presentation.
    """
    if n == 1:
        return FieldCtx.prime(p)
    cached = _FLAT_CACHE.get((p, n))
    if cached is not None:
        return cached
    base = FieldCtx.prime(p)
    count = 0
    while True:
        digits, c = [], count
        for _ in range(n):
            digits.append(c % p)
            c //= p
        count += 1
        if c > 0:
            raise RuntimeError("irreducible search exhausted the digit space")
        if digits[0] == 0:
            continue
        mod = digits + [1]
        if _rp_is_irreducible(base, mod):
            ctx = base.extend(
                [FieldElement(base, r) for r in mod], "a", _verified=True
            )
            _FLAT_CACHE[(p, n)] = ctx
            return ctx


def embed(elem: "FieldElement", target: FieldCtx) -> "FieldElement":
    """Canonical embedding of an element into a larger context.

    Handles: the identity; constants from F_p or QQ; a context that is a
    stage of ``target``'s tower; and one-step finite extensions of the same
    prime field whose degree divides the target's.  Anything else raises
    :class:`NoEmbedding`.
    """
    src = elem.ctx
    if src is target:
        return elem
    if src.kind == "prime":
        if target.char != src.char:
            raise NoEmbedding(f"no map {src.descriptor()} -> {target.descriptor()}")
        return FieldElement(target, target.rfrom_int(elem.rep))
    if src.kind == "rationals":
        if target.char != 0:
            raise NoEmbedding(f"no map QQ -> {target.descriptor()}")
        return FieldElement(target, target.rfrom_fraction(elem.rep))
    # tower stage: pad upward step by step
    chain = []
    ctx: FieldCtx | None = target
    while ctx is not None:
        if ctx is src:
            rep = elem.rep
            for step in reversed(chain):
                lifted = [rep] + [step.base.rzero] * (step.deg_step - 1)
                rep = tuple(lifted)
            return FieldElement(target, rep)
        chain.append(ctx)
        ctx = ctx.base
    if (
        src.char > 0
        and src.kind == "extension"
        and src.base.kind == "prime"
        and target.kind == "extension"
        and target.base.kind == "prime"
        and target.char == src.char
        and target.absdegree % src.absdegree == 0
    ):
        rho = target._embed_cache.get(src._key)
        if rho is None:
            rho = _canonical_root_rep(src, target)
            target._embed_cache[src._key] = rho
        acc = target.rzero
        for c in reversed(src.rcoeffs(elem.rep)):
            acc = target.radd(target.rmul(acc, rho), target.rfrom_int(c))
        return FieldElement(target, acc)
    raise NoEmbedding(f"no map {src.descriptor()} -> {target.descriptor()}")


def _canonical_root_rep(src: FieldCtx, target: FieldCtx):
    """Rep of the smallest root (by sort key) of ``src``'s modulus in ``target``."""
    from . import unipoly as _up

    coeffs = [FieldElement(target, target.rfrom_int(c)) for c in src.modulus]
    roots = _up.UniPoly(target, coeffs).roots()
    if not roots:
        raise NoEmbedding(
            f"{src.descriptor()} modulus has no root in {target.descriptor()}"
        )
    return roots[0].rep


class FieldElement:
    """A field element: a context plus a canonical representation."""

    __slots__ = ("ctx", "rep")

    def __init__(self, ctx: FieldCtx, rep):
        self.ctx = ctx
        self.rep = rep

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.ctx is not self.ctx:
                raise IncompatibleContexts(
                    f"{self.ctx.descriptor()} vs {other.ctx.descriptor()}"
                )
            return other.rep
        if isinstance(other, int):
            return self.ctx.rfrom_int(other)
        if isinstance(other, Fraction):
            return self.ctx.rfrom_fraction(other)
        return NotImplemented

    def __add__(self, other):
        rep = self._coerce(other)
        if rep is NotImplemented:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.radd(self.rep, rep))

    __radd__ = __add__

    def __sub__(self, other):
        rep = self._coerce(other)
        if rep is NotImplemented:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.rsub(self.rep, rep))

    def __rsub__(self, other):
        rep = self._coerce(other)
        if rep is NotImplemented:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.rsub(rep, self.rep))

    def __mul__(self, other):
        rep = self._coerce(other)
        if rep is NotImplemented:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.rmul(self.rep, rep))

    __rmul__ = __mul__

    def __truediv__(self, other):
        rep = self._coerce(other)
        if rep is NotImplemented:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.rmul(self.rep, self.ctx.rinv(rep)))

    def __rtruediv__(self, other):
        rep = self._coerce(other)
        if rep is NotImplemented:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.rmul(rep, self.ctx.rinv(self.rep)))

    def __neg__(self):
        return FieldElement(self.ctx, self.ctx.rneg(self.rep))

    def __pow__(self, e: int):
        return FieldElement(self.ctx, self.ctx.rpow(self.rep, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.ctx, self.ctx.rinv(self.rep))

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            if other.ctx is not self.ctx:
                raise IncompatibleContexts(
                    f"{self.ctx.descriptor()} vs {other.ctx.descriptor()}"
                )
            return self.rep == other.rep
        if isinstance(other, (int, Fraction)):
            return self.rep == self._coerce(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ctx._key, self.rep))

    def __bool__(self) -> bool:
        return not self.ctx.ris_zero(self.rep)

    def is_zero(self) -> bool:
        return self.ctx.ris_zero(self.rep)

    def is_one(self) -> bool:
        return self.rep == self.ctx.rone

    def sort_key(self):
        return self.ctx.rsort_key(self.rep)

    def __str__(self) -> str:
        return self.ctx.render_rep(self.rep)

    def __repr__(self) -> str:
        return f"<{self.ctx.render_rep(self.rep)} in {self.ctx.descriptor()}>"
