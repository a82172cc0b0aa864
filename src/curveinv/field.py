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
``rfrom_int``/``ris_zero``/``rdivmod``/``rgcd`` and ``rconv`` once, when it is
built.  ``rgcd`` is the monic gcd of two coefficient vectors.  Over QQ,
``rdivmod`` and ``rgcd`` run on integer numerators, a pseudo-division and a
primitive remainder sequence, and build ``Fraction``s only for their results.
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

Each context also binds ``shadow``, its integer shadow (:class:`Shadow`):
Z for QQ, an order generated by an integral multiple of the generator for a
tower over QQ, and the field itself for a finite field.  Series work runs
there on numerators over one integer denominator (see :mod:`.series`), and
so do the bivariate gcds over QQ (see :mod:`.algebra`): Z's ``rgcd`` is the
primitive generator of the gcd in QQ[x], and its ``rdivmod`` is checked
exact division.

A small F_q multiplies by adding exponents mod q-1 and adds through a Zech
table, log(1 + g^d) (Jacobi's logarithm; Lidl-Niederreiter, *Finite
Fields*).  It is presented through the polynomial basis: ``element_at(i)``
has the base-p digits of i as coefficients, ``sort_key`` is that digit
tuple, and ``str``, ``modulus``, embeddings and interning keys read the
digits, so no output sees the codes.

Contexts are interned in one place: :func:`_interned` keys each by its
presentation (the prime, or the base, monic modulus and generator name) and
builds it, log tables included, on the first request only, so equal
presentations give the identical object and contexts compare by identity.
Extension arithmetic reduces against a monic defining polynomial whose
irreducibility is verified at construction, by factoring it
(:meth:`~curveinv.unipoly.UniPoly.is_irreducible`).  Finite contexts produced by
:meth:`FieldCtx.extend_with_root` are always single-step extensions of F_p;
growing F_{p^k} lands in a flattened F_{p^{k*d}}, into which :func:`embed`
maps the old context, so arithmetic never pays for a tower.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import partial
from itertools import product
from math import gcd, lcm
from operator import add, eq, floordiv, mul, neg, not_, pos, sub
from typing import Iterator

from .errors import (
    CharZeroPthRoot,
    DivisionByZero,
    IncompatibleContexts,
    InternalCheckError,
    NoEmbedding,
    TowerLimitExceeded,
    UnsupportedInput,
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
# Polynomials over raw reps.  These helpers power extension arithmetic,
# :class:`~curveinv.unipoly.UniPoly` and the dense polynomials of
# :mod:`.algebra`; ``ctx`` is always the coefficient context and vectors are
# sequences of its reps, lowest degree first, trailing zeros stripped.
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


def _loop_gcd(ctx: "FieldCtx", a: list, b: list) -> list:
    while b:
        a, b = b, _rp_rem(ctx, a, b)
    return _rp_monic(ctx, list(a))


def _rp_gcdex(ctx: "FieldCtx", a: list, b: list) -> tuple[list, list]:
    """The monic gcd g of a and b, and s with s*a = g mod b and deg s < deg b
    (extended Euclid, tracking the Bezout coefficient of a only)."""
    r0, r1, s0, s1 = a, b, [ctx.rone], []
    while r1:
        q, rem = _rp_divmod(ctx, r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, _rp_sub(ctx, s0, _rp_mul(ctx, q, s1))
    inv = ctx.rinv(r0[-1])
    return _rp_scale(ctx, inv, r0), _rp_scale(ctx, inv, s0)


def _rp_pow_mod(ctx: "FieldCtx", base: list, e: int, mod: list) -> list:
    result = [ctx.rone]
    acc = _rp_rem(ctx, list(base), mod)
    while e:
        if e & 1:
            result = _rp_rem(ctx, _rp_mul(ctx, result, acc), mod)
        acc = _rp_rem(ctx, _rp_mul(ctx, acc, acc), mod)
        e >>= 1
    return result


def _rp_pow(ctx: "FieldCtx", a: list, e: int) -> list:
    """a^e by repeated squaring; the empty product when e <= 0."""
    result = [ctx.rone]
    while e > 0:
        if e & 1:
            result = _rp_mul(ctx, result, a)
        e >>= 1
        if e:
            a = _rp_mul(ctx, a, a)
    return result


def _rp_eval(ctx: "FieldCtx", v: list, x0):
    """The rep vector v as a polynomial, at the rep x0 (Horner)."""
    radd, rmul, acc = ctx.radd, ctx.rmul, ctx.rzero
    for c in reversed(v):
        acc = radd(rmul(acc, x0), c)
    return acc


# Arithmetic bound to a context: one closure per name in _OPS, in that order.
# ``rconv(a, b, n)`` is the first n coefficients of the product of two
# coefficient vectors (missing entries count as zero), untrimmed.  A tuple
# extension of step degree d writes each operand into one base vector at
# stride 2d-1, so the partial products of distinct coefficients never overlap,
# runs one base ``rconv`` and reduces once per output coefficient.  A log-table
# F_q loops over its codes with its ``rmul`` and ``radd`` written inline, and
# so does its ``rdivmod``.  ``rdivmod(a, b)`` is the trimmed quotient and
# remainder of a by a nonzero vector b, and ``rgcd(a, b)`` the monic gcd of two
# trimmed vectors.  F_p sums Python ints and reduces only each quotient term
# and the final remainder, and its Euclid divides by monic remainders.  QQ runs
# one pseudo-division on integer numerators (:func:`_int_divmod`) and the
# primitive remainder sequence of :func:`_int_gcd`, and builds ``Fraction``s
# only for what it returns.  A tuple extension runs the schoolbook loops of
# :func:`_loop_divmod` and :func:`_loop_gcd`; a log-table F_q runs the latter.
_OPS = ("radd", "rsub", "rneg", "rmul", "rinv", "rpow", "rfrom_int", "rconv", "rdivmod", "rgcd")


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


# ---------------------------------------------------------------------------
# Euclid on integer vectors: QQ's kernels and those of its shadow Z.  By
# Gauss's lemma a gcd in QQ[x] of integer polynomials has a primitive integer
# generator, which divides both in Z[x], so a remainder sequence may drop the
# integer content of every member and divide by nothing else (von zur Gathen
# & Gerhard, *Modern Computer Algebra*, ch. 6).
# ---------------------------------------------------------------------------


def _int_divmod(a: list, b: list) -> tuple[list, list, int]:
    """Integer vectors q, r and an integer s != 0 with s*a = q*b + r and
    len(r) < len(b): a pseudo-division in which each step scales by
    lc(b)/g only, g the gcd of lc(b) and the top term."""
    r, q, s = list(a), [], 1
    lead, low = b[-1], [-c for c in b[:-1]]
    for k in range(len(r) - len(b), -1, -1):
        c = r.pop()  # the top term, cancelled by construction
        if c:
            g = gcd(c, lead)
            m = lead // g
            if m != 1:
                r, q, s = [x * m for x in r], [x * m for x in q], s * m
            c //= g
            for j, bj in enumerate(low, k):
                r[j] += c * bj
        q.append(c)
    q.reverse()
    return _int_trim(q), _int_trim(r), s


def _int_primitive(v: list) -> list:
    """v divided by the gcd of its entries, leading entry made positive."""
    g = gcd(*v)
    if v and v[-1] < 0:
        g = -g
    return v if g in (0, 1) else [c // g for c in v]


def _int_gcd(a: list, b: list) -> list:
    """The primitive generator, with positive leading entry, of the gcd in
    QQ[x] of two trimmed integer vectors: the primitive remainder sequence."""
    a, b = _int_primitive(a), _int_primitive(b)
    while b:
        if len(b) == 1:
            return [1]
        a, b = b, _int_primitive(_int_divmod(a, b)[1])
    return a


def _zdiv_exact(a: list, b: list) -> list | None:
    """a / b over Z, or None unless b divides a."""
    r, db, q = list(a), len(b) - 1, [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k], rem = divmod(r[k + db], b[-1])
        if rem:
            return None
        for j in range(db):
            r[k + j] -= q[k] * b[j]
    return None if any(r[:db]) else q


def _int_divexact(a: list, b: list) -> tuple[list, list]:
    """The ``rdivmod`` of Z[x]: a/b with remainder zero, where b divides a;
    no caller asks for any other division, so one is a bug."""
    q = _zdiv_exact(a, b)
    if q is None:
        raise InternalCheckError("division is not exact in Z[x]")
    return q, []


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

    def rgcd(a, b):
        if not b:
            a, b = b, a
        while b:  # each divisor made monic once, so the last one is the gcd
            if len(b) == 1:
                return [1]
            inv = rinv(b[-1])
            b = [c * inv % p for c in b]
            a, b = b, rdivmod(a, b)[1]
        return a

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
        rgcd,
    )


def _over_lcm(v, zero) -> tuple[list, int]:
    """Fractions as integer numerators over the lcm of their denominators;
    the shared ``zero`` is skipped, as any other zero could be."""
    den = lcm(*(c.denominator for c in v if c is not zero))
    return [0 if c is zero else c.numerator * (den // c.denominator) for c in v], den


def _rational_ops(ctx: "FieldCtx") -> tuple:
    zero = ctx.rzero

    def rinv(a):
        return 1 / a if a else _inverse_of_zero()

    def rpow(a, e):
        return a**e if a or e >= 0 else _inverse_of_zero()

    def rconv(a, b, n):
        (na, da), (nb, db) = _over_lcm(a[:n], zero), _over_lcm(b[:n], zero)
        den = da * db
        return [Fraction(c, den) if c else zero for c in _int_mul_trunc(na, nb, n)]

    def rdivmod(a, b):
        # s*na = q*nb + r, so a = na/da is (q*db/(s*da))*b + r/(s*da)
        (na, da), (nb, db) = _over_lcm(a, zero), _over_lcm(b, zero)
        q, r, s = _int_divmod(na, nb)
        s *= da
        return [Fraction(c * db, s) if c else zero for c in q], [Fraction(c, s) if c else zero for c in r]

    def rgcd(a, b):
        g = _int_gcd(_over_lcm(a, zero)[0], _over_lcm(b, zero)[0])
        return [Fraction(c, g[-1]) if c else zero for c in g]

    return (add, sub, neg, mul, rinv, rpow, Fraction, rconv, rdivmod, rgcd)


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
        # the gcd is 1: the modulus is irreducible and deg v < deg modulus
        u = _rp_gcdex(base, v, list(ctx.modulus))[1]
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
        partial(_loop_gcd, ctx),
    )


class Shadow:
    """A context's integer shadow: the ring that series work runs in.

    Each element of the context is n/D, with n in the shadow and D a positive
    integer, so sums, products and zero tests run on integers and no
    ``Fraction`` is built until a value is published.

    * QQ's shadow is Z.
    * A tower K(a) of step degree d, with monic modulus a^d + sum m_j a^j,
      has the shadow O[b], where O is K's shadow, b = E*a and E is the least
      integer with every E*m_j in O.  Then b is a root of the monic
      b^d + sum m_j E^(d-j) b^j, whose coefficients lie in O, so O[b] is a
      ring, and its product is :func:`_tuple_ops` run over O: the flattened
      base product and one reduction per block, with no copy.  A tower such as
      QQ(a, b) recurses through its base down to Z.
    * A finite field is its own shadow, and every denominator is 1.

    ``split(reps)`` writes a vector of reps as numerators over their least
    common denominator and ``join(n, den)`` reads n/den back as a rep.
    ``scale(k, n)`` multiplies by an integer, ``content(n)`` is the gcd of
    n's integer coordinates and ``divexact(n, k)`` divides them all by an
    integer k that divides them.  Over a finite field, where D is always 1,
    nothing is ever reduced, and ``content`` and ``divexact`` are None.
    Z also binds ``rgcd`` (:func:`_int_gcd`) and ``rdivmod``
    (:func:`_int_divexact`) for the gcds of :mod:`.algebra`; the orders of
    towers have no gcd, and no caller asks them for one.
    """

    __slots__ = ("base", "deg_step", "modulus", "rzero", "rone", "ris_zero", *_OPS,
                 "scale", "content", "divexact", "split", "join")

    def __init__(self, **attrs):
        for name in self.__slots__:
            setattr(self, name, attrs.get(name))

    def reduce(self, nums: list, den: int) -> tuple[list, int]:
        """nums/den with the gcd of den and every integer coordinate divided out."""
        if den == 1:
            return nums, 1
        g = gcd(den, *map(self.content, nums))
        if g == 1:
            return nums, den
        divexact = self.divexact
        return [divexact(c, g) for c in nums], den // g


def _shadow(ctx: "FieldCtx") -> Shadow:
    if ctx.char > 0:
        rmul, rfrom_int = ctx.rmul, ctx.rfrom_int
        return Shadow(
            rzero=ctx.rzero,
            rone=ctx.rone,
            ris_zero=ctx.ris_zero,
            **{name: getattr(ctx, name) for name in _OPS},
            scale=lambda k, a: rmul(rfrom_int(k), a),
            split=lambda v: (list(v), 1),
            join=lambda a, den: a,
        )
    zero = ctx.rzero
    if ctx.kind == "rationals":
        return Shadow(
            rzero=0,
            rone=1,
            ris_zero=not_,
            radd=add,
            rsub=sub,
            rneg=neg,
            rmul=mul,
            rconv=_int_mul_trunc,
            rdivmod=_int_divexact,
            rgcd=_int_gcd,
            scale=mul,
            content=pos,
            divexact=floordiv,
            split=partial(_over_lcm, zero=zero),
            join=lambda n, den: Fraction(n, den) if n else zero,
        )
    base, d = ctx.base.shadow, ctx.deg_step
    low, e = base.split(ctx.modulus[:d])
    bscale, bcontent, bdivexact, bjoin = base.scale, base.content, base.divexact, base.join
    powers = [e**k for k in range(d)]
    sh = Shadow(
        base=base,
        deg_step=d,
        modulus=tuple(bscale(powers[d - 1 - j], m) for j, m in enumerate(low)) + (base.rone,),
        rzero=(base.rzero,) * d,
        rone=(base.rone,) + (base.rzero,) * (d - 1),
        scale=lambda k, a: tuple(bscale(k, c) for c in a),
        content=lambda a: gcd(*map(bcontent, a)),
        divexact=lambda a, k: tuple(bdivexact(c, k) for c in a),
    )
    for name, op in zip(_OPS, _tuple_ops(sh)):
        setattr(sh, name, op)
    sh.ris_zero = partial(eq, sh.rzero)

    def split(v):
        # coordinate k of a rep is the coefficient of a^k = b^k/E^k
        nums, den = base.split([c for a in v for c in a])
        blocks = (nums[i : i + d] for i in range(0, len(nums), d))
        if e == 1:
            return list(map(tuple, blocks)), den
        out = [tuple(bscale(powers[d - 1 - k], c) for k, c in enumerate(b)) for b in blocks]
        return sh.reduce(out, den * powers[-1])

    def join(n, den):
        rep = tuple(bjoin(bscale(p, c), den) for p, c in zip(powers, n))
        return zero if rep == zero else rep

    sh.split, sh.join = split, join
    return sh


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

    # The two kernels below inline rmul and radd: a product's code is the sum
    # of the codes less one, wrapped once at m, and code s joins a nonzero
    # code o through zech[s - o]; zero codes are skipped.
    def rconv(a, b, n):
        out = [0] * n
        nzb = [(j, c - 1) for j, c in enumerate(b[:n]) if c]
        for i, ca in enumerate(a[:n]):
            if ca:
                for j, cb in nzb:
                    k = i + j
                    if k >= n:
                        break
                    s = ca + cb
                    if s > m:
                        s -= m
                    o = out[k]
                    if o:
                        z = zech[s - o]
                        s = o + z - 1 if z else 0
                        if s > m:
                            s -= m
                    out[k] = s
        return out

    def rdivmod(a, b):
        # _loop_divmod on codes: r[k+j] += c * (-b[j]) for each quotient code c
        r, low = list(a), [(j, rneg(c) - 1) for j, c in enumerate(b[:-1]) if c]
        db, inv_lead = len(b) - 1, rinv(b[-1]) - 1
        q = [0] * max(len(r) - db, 0)
        for k in range(len(q) - 1, -1, -1):
            c = r.pop()  # the top term, which c*b[-1] cancels by construction
            if not c:
                continue
            c += inv_lead
            if c > m:
                c -= m
            q[k] = c
            for j, cb in low:
                s = c + cb
                if s > m:
                    s -= m
                o = r[k + j]
                if o:
                    z = zech[s - o]
                    s = o + z - 1 if z else 0
                    if s > m:
                        s -= m
                r[k + j] = s
        return _int_trim(q), _int_trim(r)

    return (
        radd,
        lambda a, b: radd(a, rneg(b)),
        rneg,
        rmul,
        rinv,
        rpow,
        lambda k: log[k % p],
        rconv,
        rdivmod,
        partial(_loop_gcd, ctx),
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

# Every context, keyed by its presentation: ("prime", p), ("rationals",),
# ("ext", base key, modulus sort keys, generator name), and ("flat", p, n) for
# the context that _flat_finite_ctx picks, stored a second time under that key.
_CTX_CACHE: dict = {}


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
        "shadow",
        "_key",
        "_embed_cache",
        "_exp",
        "_log",
    )

    def __init__(self, token, key, *, char=0, base=None, modulus=None, gen_name=None):
        if token is not _NEW_TOKEN:
            raise TypeError("use FieldCtx.prime / FieldCtx.rationals / ctx.extend")
        self._key, self.base, self.modulus, self.gen_name = key, base, modulus, gen_name
        if base is None:
            self.kind, self.char, self.order = "prime" if char else "rationals", char, char or None
            self.deg_step, self.absdegree, self.depth = 1, 1, 0
        else:
            d = len(modulus) - 1
            self.kind, self.char, self.deg_step = "extension", base.char, d
            self.order = None if base.order is None else base.order**d
            self.absdegree, self.depth = base.absdegree * d, base.depth + 1
        self._embed_cache, self._exp, self._log = {}, None, None
        if self.kind == "prime":
            self.rzero, self.rone = 0, 1
            ops = _prime_ops(char)
        elif self.kind == "rationals":
            self.rzero, self.rone = Fraction(0), Fraction(1)
            ops = _rational_ops(self)
        elif base.kind == "prime" and self.order <= LOG_TABLE_MAX_ORDER:
            self._exp, self._log, zech = _log_tables(self.char, d, modulus)
            self.rzero, self.rone = 0, 1
            ops = _log_table_ops(self, zech)
        else:
            self.rzero, self.rone = (base.rzero,) * d, (base.rone,) + (base.rzero,) * (d - 1)
            ops = _tuple_ops(self)
        for name, op in zip(_OPS, ops):
            setattr(self, name, op)
        # an int or Fraction rep is zero exactly when it is falsy; a tuple never is
        self.ris_zero = partial(eq, self.rzero) if isinstance(self.rzero, tuple) else not_
        self.shadow = _shadow(self)
        self.zero, self.one = FieldElement(self, self.rzero), FieldElement(self, self.rone)

    # -- construction -------------------------------------------------------

    @staticmethod
    def prime(p: int) -> "FieldCtx":
        if not _is_prime(p):
            raise UnsupportedInput(f"{p} is not prime")
        return _interned(("prime", p), char=p)

    @staticmethod
    def rationals() -> "FieldCtx":
        return _interned(("rationals",))

    def extend(
        self,
        modulus,
        gen_name: str | None = None,
        *,
        _verified: bool = False,
    ) -> "FieldCtx":
        """Extension by a root of ``modulus`` (irreducible over this context).

        ``modulus`` is a sequence of coefficients that :class:`UniPoly`
        accepts over this context (or anything with such a ``.coeffs``),
        constant term first.  It is made monic.  Irreducibility is checked
        here unless the caller already factored.
        """
        from .unipoly import UniPoly

        f = UniPoly(self, getattr(modulus, "coeffs", modulus)).monic()
        if f.degree() < 2:
            raise UnsupportedInput("extension degree must be at least 2")
        if self.depth + 1 > MAX_TOWER_DEPTH:
            raise TowerLimitExceeded(
                f"tower depth {self.depth + 1} exceeds the cap {MAX_TOWER_DEPTH}"
            )
        if not _verified and not f.is_irreducible():
            raise UnsupportedInput("modulus is reducible")
        if gen_name is None:
            gen_name = chr(ord("a") + self.depth)
        key = ("ext", self._key, tuple(map(self.rsort_key, f.reps)), gen_name)
        return _interned(key, base=self, modulus=f.reps, gen_name=gen_name)

    def extend_with_root(self, g) -> "FieldCtx":
        """The context that a root of ``g`` joins: ``g`` is a monic
        irreducible univariate of degree at least 2 over this context, the
        factor that :func:`~curveinv.blowup.split` chose, and it is not
        factored again.

        A finite field grows to the flattened F_{p^(n*deg g)}, in which ``g``
        splits; otherwise the result is the extension by ``g``.  Embed into
        it with :func:`embed`.
        """
        if g.ctx is not self:
            raise IncompatibleContexts("polynomial over another context")
        if g.degree() < 2:
            raise InternalCheckError("an extension needs an irreducible factor of degree 2 or more")
        if self.char > 0:
            return _flat_finite_ctx(self.char, self.absdegree * g.degree())
        return self.extend(g, _verified=True)

    def gen(self) -> "FieldElement":
        if self.kind != "extension":
            raise UnsupportedInput("context has no generator")
        if self._log is not None:
            return FieldElement(self, self._log[self.char])
        rep = [self.base.rzero] * self.deg_step
        rep[1] = self.base.rone
        return FieldElement(self, tuple(rep))

    # -- rep-level arithmetic ------------------------------------------------
    # radd, rsub, rneg, rmul, rinv, rpow, rfrom_int, rconv, rdivmod and
    # ris_zero are bound per context.

    def rcoerce(self, c):
        """The rep of ``c``: an element of this context, an int or a Fraction."""
        if isinstance(c, FieldElement):
            if c.ctx is not self:
                raise IncompatibleContexts(f"{self.descriptor()} vs {c.ctx.descriptor()}")
            return c.rep
        if isinstance(c, int):
            return self.rfrom_int(c)
        if isinstance(c, Fraction):
            return self.rfrom_fraction(c)
        raise TypeError(f"bad coefficient {c!r}")

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
            raise UnsupportedInput("cannot index an infinite field")
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
            raise UnsupportedInput("cannot enumerate an infinite field")
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


_NEW_TOKEN = object()


def _interned(key: tuple, **presentation) -> FieldCtx:
    """The one context for ``key``, built from ``presentation`` (the
    characteristic of a prime field, or the base, modulus and generator name
    of an extension) on the first request only."""
    ctx = _CTX_CACHE.get(key)
    if ctx is None:
        ctx = _CTX_CACHE[key] = FieldCtx(_NEW_TOKEN, key, **presentation)
    return ctx


def ctx_for(char: int) -> FieldCtx:
    """QQ for characteristic 0, else the prime field F_char."""
    return FieldCtx.rationals() if char == 0 else FieldCtx.prime(char)


def _flat_finite_ctx(p: int, n: int) -> FieldCtx:
    """F_{p^n} as a one-step extension of F_p with a canonical modulus.

    The modulus is the first monic irreducible of degree ``n`` in counter
    order (lower-degree coefficients vary fastest), so every run of every
    process picks the same field presentation.
    """
    if n == 1:
        return FieldCtx.prime(p)
    ctx = _CTX_CACHE.get(("flat", p, n))
    if ctx is None:
        from .unipoly import UniPoly

        base = FieldCtx.prime(p)
        candidates = ([*reversed(high), 1] for high in product(range(p), repeat=n))
        mod = next(m for m in candidates if m[0] and UniPoly(base, m).is_irreducible())
        ctx = _CTX_CACHE["flat", p, n] = base.extend(mod, "a", _verified=True)
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

    roots = _up.UniPoly._from_reps(target, map(target.rfrom_int, src.modulus)).roots()
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
        if isinstance(other, (FieldElement, int, Fraction)):
            return self.ctx.rcoerce(other)
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
        rep = self._coerce(other)
        if rep is NotImplemented:
            return NotImplemented
        return self.rep == rep

    def __hash__(self) -> int:
        return hash((self.ctx._key, self.rep))

    def __bool__(self) -> bool:
        return not self.ctx.ris_zero(self.rep)

    def is_zero(self) -> bool:
        return self.ctx.ris_zero(self.rep)

    def sort_key(self):
        return self.ctx.rsort_key(self.rep)

    def __str__(self) -> str:
        return self.ctx.render_rep(self.rep)

    def __repr__(self) -> str:
        return f"<{self.ctx.render_rep(self.rep)} in {self.ctx.descriptor()}>"
