"""Finite extension fields F_q: presentation and arithmetic.

Small one-step extensions of F_p are computed through logarithm tables, but
they are presented through the polynomial basis: ``element_at(i)`` has the
base-p digits of i as coefficients (constant term first), ``sort_key`` is
that digit tuple and ``str`` renders the polynomial.  The frozen values here
pin that presentation; the arithmetic is checked against a digit-vector
reference written in this file.
"""

from __future__ import annotations

import random

import pytest

from curveinv.errors import DivisionByZero
from curveinv.field import LOG_TABLE_MAX_ORDER, FieldCtx, _flat_finite_ctx, embed


def _fields():
    return {
        "F4": FieldCtx.prime(2).extend([1, 1, 1]),
        "F8": _flat_finite_ctx(2, 3),
        "F9": FieldCtx.prime(3).extend([1, 0, 1]),
        "F25": _flat_finite_ctx(5, 2),
        "F27": _flat_finite_ctx(3, 3),
    }


_MODULI = {
    "F4": (1, 1, 1),
    "F8": (1, 1, 0, 1),
    "F9": (1, 0, 1),
    "F25": (2, 0, 1),
    "F27": (1, 2, 0, 1),
}

_RENDERED = {
    "F4": ["0", "1", "a", "a+1"],
    "F8": ["0", "1", "a", "a+1", "a^2", "a^2+1", "a^2+a", "a^2+a+1"],
    "F9": ["0", "1", "2", "a", "a+1", "a+2", "2*a", "2*a+1", "2*a+2"],
    "F25": [
        "0", "1", "2", "3", "4",
        "a", "a+1", "a+2", "a+3", "a+4",
        "2*a", "2*a+1", "2*a+2", "2*a+3", "2*a+4",
        "3*a", "3*a+1", "3*a+2", "3*a+3", "3*a+4",
        "4*a", "4*a+1", "4*a+2", "4*a+3", "4*a+4",
    ],
    "F27": [
        "0", "1", "2", "a", "a+1", "a+2", "2*a", "2*a+1", "2*a+2",
        "a^2", "a^2+1", "a^2+2", "a^2+a", "a^2+a+1", "a^2+a+2",
        "a^2+2*a", "a^2+2*a+1", "a^2+2*a+2",
        "2*a^2", "2*a^2+1", "2*a^2+2", "2*a^2+a", "2*a^2+a+1", "2*a^2+a+2",
        "2*a^2+2*a", "2*a^2+2*a+1", "2*a^2+2*a+2",
    ],
}

# str of a^5, 1/a, -a and the p-th root of a, in that order.
_GEN_VALUES = {
    "F4": ("a+1", "a+1", "a", "a+1"),
    "F8": ("a^2+a+1", "a^2+1", "a", "a^2+a"),
    "F9": ("a", "2*a", "2*a", "2*a"),
    "F25": ("4*a", "2*a", "4*a", "4*a"),
    "F27": ("2*a^2+a+2", "2*a^2+1", "2*a", "a+1"),
}


def _digits(i: int, p: int, n: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        out.append(i % p)
        i //= p
    return tuple(out)


@pytest.mark.parametrize("name", sorted(_MODULI))
def test_presentation_is_the_polynomial_basis(name):
    ctx = _fields()[name]
    p, n = ctx.char, ctx.deg_step
    assert ctx.modulus == _MODULI[name]
    assert ctx.descriptor() == f"Fq:{p}^{n}"
    assert [str(e) for e in ctx.elements()] == _RENDERED[name]
    for i in range(ctx.order):
        e = ctx.element_at(i)
        assert e.sort_key() == _digits(i, p, n)
        assert e == ctx.element_at(i) and hash(e) == hash(ctx.element_at(i))
    assert str(ctx.gen()) == "a"
    assert ctx.gen() == ctx.element_at(p)
    assert ctx.from_int(p + 1) == ctx.one
    assert ctx.from_int(-1) == ctx.element_at(p - 1)
    keys = sorted(ctx.elements(), key=lambda e: e.sort_key())
    assert [e.sort_key() for e in keys] == sorted(_digits(i, p, n) for i in range(ctx.order))


@pytest.mark.parametrize("name", sorted(_MODULI))
def test_frozen_generator_values(name):
    ctx = _fields()[name]
    a = ctx.gen()
    got = (str(a**5), str(a.inverse()), str(-a), str(ctx.pth_root(a)))
    assert got == _GEN_VALUES[name]


# -- the arithmetic, against digit vectors ------------------------------------


class _Ref:
    """F_p[a]/(modulus) on digit tuples (constant term first)."""

    def __init__(self, p: int, modulus: tuple[int, ...]):
        self.p, self.mod, self.n = p, modulus, len(modulus) - 1

    def add(self, u, v):
        return tuple((x + y) % self.p for x, y in zip(u, v))

    def neg(self, u):
        return tuple(-x % self.p for x in u)

    def mul(self, u, v):
        p, n = self.p, self.n
        out = [0] * (2 * n - 1)
        for i, x in enumerate(u):
            for j, y in enumerate(v):
                out[i + j] += x * y
        for i in range(2 * n - 2, n - 1, -1):
            c = out[i] % p
            for k in range(n + 1):
                out[i - n + k] -= c * self.mod[k]
        return tuple(c % p for c in out[:n])

    def one(self):
        return (1,) + (0,) * (self.n - 1)

    def pow(self, u, e: int):
        r = self.one()
        for _ in range(e):
            r = self.mul(r, u)
        return r


@pytest.mark.parametrize("name", sorted(_MODULI))
def test_arithmetic_matches_digit_vectors(name):
    ctx = _fields()[name]
    assert ctx._log is not None  # computed through the log tables
    ref = _Ref(ctx.char, ctx.modulus)
    q = ctx.order
    elems = list(ctx.elements())
    digits = [e.sort_key() for e in elems]
    inv = {u: v for u in digits for v in digits if ref.mul(u, v) == ref.one()}
    root = {ref.pow(v, ctx.char): v for v in digits}
    for a, u in zip(elems, digits):
        assert (-a).sort_key() == ref.neg(u)
        assert ctx.pth_root(a).sort_key() == root[u]
        for e in (0, 1, 2, 5, q - 1, q, 2 * q + 3):
            assert (a**e).sort_key() == ref.pow(u, e)
        if u in inv:
            assert a.inverse().sort_key() == inv[u]
            assert (a**-3).sort_key() == ref.pow(inv[u], 3)
        for b, v in zip(elems, digits):
            assert (a + b).sort_key() == ref.add(u, v)
            assert (a - b).sort_key() == ref.add(u, ref.neg(v))
            assert (a * b).sort_key() == ref.mul(u, v)
            if v in inv:
                assert (a / b).sort_key() == ref.mul(u, inv[v])
    assert len(inv) == q - 1
    with pytest.raises(DivisionByZero):
        ctx.zero.inverse()
    with pytest.raises(DivisionByZero):
        ctx.zero**-1


def test_embed_from_table_field_into_a_field_above_the_cap():
    small, big = _flat_finite_ctx(7, 3), _flat_finite_ctx(7, 6)
    assert small.order <= LOG_TABLE_MAX_ORDER < big.order
    rng = random.Random(11)
    for _ in range(20):
        a, b = small.sample(rng), small.sample(rng)
        assert embed(a + b, big) == embed(a, big) + embed(b, big)
        assert embed(a * b, big) == embed(a, big) * embed(b, big)
    assert embed(small.one, big) == big.one
    g = embed(small.gen(), big)
    assert sum((g**k * c for k, c in enumerate(small.modulus)), big.zero) == big.zero
