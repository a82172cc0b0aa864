"""Sparse multivariate polynomials, parsing, resultants, and squarefree
structure.

:class:`MPoly` stores ``{exponent tuple: rep}``, the raw reps of its nonzero
coefficients, over a fixed variable alphabet, usually ``(x, y)`` and
occasionally ``(x, y, z)`` or ``(t, x, y)``; its arithmetic, substitution
and the blow-ups of :mod:`.blowup` run on the context's bound rep ops, and
products over F_p sum plain integers and reduce once per term.  ``terms`` is
a view that wraps each coefficient as a :class:`~.field.FieldElement` when
read.  Resultants and bivariate gcds read the two ends of one subresultant remainder
sequence (Collins 1967; Brown & Traub 1971) on dense vectors in the main
variable, whose coefficients are rep vectors in one more: every division by
the predicted factor is exact and checked.  A resultant Kronecker-packs its
other variables into that one under a degree bound; a gcd takes the contents
of its inputs and of the last nonzero member only, and runs the sequence only
when no point x0 certifies the primitive parts coprime by a univariate gcd of
1.  Over QQ a gcd runs in Z[x][y], where Gauss's lemma keeps every division
exact.  On the same vectors sit the reducedness test gcd(f, f_x, f_y) = 1 and
a squarefree decomposition that works uniformly in characteristic zero and p,
peeling p-th powers when both partials collapse.

Printing and parsing agree: ``parse_poly(str(f), f.ctx, f.vars) == f``.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate
from math import lcm
from operator import add, mul, neg, sub
from typing import Sequence

from .errors import (
    DivisionByZero,
    IncompatibleContexts,
    InternalCheckError,
    ParseError,
    UnsupportedInput,
    WrongVariables,
)
from .field import FieldCtx, FieldElement, _render_terms, embed
from .field import _rp_divexact, _rp_eval, _rp_mul, _rp_pow, _rp_scale, _rp_sub, _rp_trim
from .unipoly import UniPoly


def _sum_ops(ctx: FieldCtx) -> tuple:
    """(add, mul) for summing products of reps: over F_p plain integer ones,
    whose sums :meth:`MPoly._from_sums` reduces once per term."""
    return (add, mul) if ctx.kind == "prime" else (ctx.radd, ctx.rmul)


def _muladd(ops: tuple, out: dict, a: dict, b: dict) -> dict:
    """out plus the product of the rep dicts a and b, summed with ``ops``."""
    radd, rmul = ops
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            c = rmul(c1, c2)
            cur = out.get(e)
            out[e] = c if cur is None else radd(cur, c)
    return out


class MPoly:
    """Immutable sparse polynomial in ``len(vars)`` variables: ``reps`` maps
    exponent tuples to the reps of their nonzero coefficients."""

    __slots__ = ("ctx", "vars", "reps")

    def __init__(self, ctx: FieldCtx, vars: tuple[str, ...], terms: dict):
        """``terms`` maps exponent tuples to elements of ``ctx``, ints or Fractions."""
        rcoerce, ris_zero = ctx.rcoerce, ctx.ris_zero
        reps = ((tuple(e), rcoerce(c)) for e, c in terms.items())
        self.ctx, self.vars = ctx, tuple(vars)
        self.reps = {e: r for e, r in reps if not ris_zero(r)}

    @classmethod
    def _from_reps(cls, ctx: FieldCtx, vars: tuple[str, ...], reps: dict) -> "MPoly":
        """Wrap raw coefficient reps, dropping zeros, without re-checking them."""
        out = object.__new__(cls)
        ris_zero = ctx.ris_zero
        out.ctx, out.vars = ctx, vars
        out.reps = {e: c for e, c in reps.items() if not ris_zero(c)}
        return out

    @classmethod
    def _from_sums(cls, ctx: FieldCtx, vars: tuple[str, ...], sums: dict) -> "MPoly":
        """Wrap sums accumulated with :func:`_sum_ops`, reducing them over F_p."""
        if ctx.kind == "prime":
            p = ctx.char
            sums = {e: c % p for e, c in sums.items()}
        return cls._from_reps(ctx, vars, sums)

    @property
    def terms(self) -> dict:
        """``{exponent tuple: FieldElement}``, a new dict on every read."""
        ctx = self.ctx
        return {e: FieldElement(ctx, c) for e, c in self.reps.items()}

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(ctx: FieldCtx, vars: tuple[str, ...]) -> "MPoly":
        return MPoly(ctx, vars, {})

    @staticmethod
    def constant(ctx: FieldCtx, vars: tuple[str, ...], c) -> "MPoly":
        return MPoly(ctx, vars, {(0,) * len(vars): c})

    @staticmethod
    def variable(ctx: FieldCtx, vars: tuple[str, ...], name: str) -> "MPoly":
        i = vars.index(name)
        e = [0] * len(vars)
        e[i] = 1
        return MPoly(ctx, vars, {tuple(e): ctx.one})

    @staticmethod
    def from_unipoly(u: UniPoly, vars: tuple[str, ...], var_idx: int) -> "MPoly":
        terms = {}
        for i, c in enumerate(u.reps):
            e = [0] * len(vars)
            e[var_idx] = i
            terms[tuple(e)] = c
        return MPoly._from_reps(u.ctx, tuple(vars), terms)

    # -- structure -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.reps

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.reps:
            return -1
        return max(sum(e) for e in self.reps)

    def order(self) -> int | None:
        """Minimal total degree of a term; None for the zero polynomial."""
        if not self.reps:
            return None
        return min(sum(e) for e in self.reps)

    def degree_in(self, var_idx: int) -> int:
        if not self.reps:
            return -1
        return max(e[var_idx] for e in self.reps)

    def order_in(self, var_idx: int) -> int | None:
        if not self.reps:
            return None
        return min(e[var_idx] for e in self.reps)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.reps}
        return len(degs) <= 1

    def coefficient(self, e: tuple[int, ...]) -> FieldElement:
        return FieldElement(self.ctx, self.reps.get(e, self.ctx.rzero))

    def constant_term(self) -> FieldElement:
        return self.coefficient((0,) * len(self.vars))

    def _check(self, other: "MPoly") -> None:
        if (
            not isinstance(other, MPoly)
            or other.ctx is not self.ctx
            or other.vars != self.vars
        ):
            raise IncompatibleContexts("mixed polynomial rings")

    # -- arithmetic --------------------------------------------------------------
    # An operand that is not an MPoly is left to Python (NotImplemented),
    # except that * scales by what FieldCtx.rcoerce accepts.

    def __add__(self, other: "MPoly") -> "MPoly":
        return self._combine(other, self.ctx.radd)

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self._combine(other, self.ctx.rsub)

    def _combine(self, other: "MPoly", op) -> "MPoly":
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check(other)
        zero, reps = self.ctx.rzero, dict(self.reps)
        for e, c in other.reps.items():
            reps[e] = op(reps.get(e, zero), c)
        return MPoly._from_reps(self.ctx, self.vars, reps)

    def __neg__(self) -> "MPoly":
        rneg = self.ctx.rneg
        return MPoly._from_reps(self.ctx, self.vars, {e: rneg(c) for e, c in self.reps.items()})

    def __mul__(self, other) -> "MPoly":
        if isinstance(other, (FieldElement, int, Fraction)):
            return self.scale(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check(other)
        ctx = self.ctx
        return MPoly._from_sums(ctx, self.vars, _muladd(_sum_ops(ctx), {}, self.reps, other.reps))

    __rmul__ = __mul__

    def scale(self, c) -> "MPoly":
        """c times self, for c an element of the context, an int or a Fraction."""
        return self._scaled(self.ctx.rcoerce(c))

    def _scaled(self, c) -> "MPoly":
        rmul = self.ctx.rmul
        return MPoly._from_reps(self.ctx, self.vars, {e: rmul(c, v) for e, v in self.reps.items()})

    def __pow__(self, e: int) -> "MPoly":
        if e < 0:
            raise UnsupportedInput("negative polynomial power")
        result = MPoly.constant(self.ctx, self.vars, self.ctx.one)
        acc = self
        while e:
            if e & 1:
                result = result * acc
            acc = acc * acc
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.ctx is other.ctx and self.vars == other.vars and self.reps == other.reps

    def __hash__(self) -> int:
        return hash((self.ctx._key, self.vars, frozenset(self.reps.items())))

    # -- calculus and substitution -------------------------------------------------

    def partial(self, var_idx: int) -> "MPoly":
        ctx, reps = self.ctx, {}
        for e, c in self.reps.items():
            k = e[var_idx]
            if k == 0:
                continue
            ne = list(e)
            ne[var_idx] = k - 1
            key = tuple(ne)
            reps[key] = ctx.radd(reps.get(key, ctx.rzero), ctx.rmul(c, ctx.rfrom_int(k)))
        return MPoly._from_reps(ctx, self.vars, reps)

    def subs_const(self, var_idx: int, value) -> "MPoly":
        ctx, reps = self.ctx, {}
        v, powers = ctx.rcoerce(value), [ctx.rone]
        for e, c in self.reps.items():
            ne = list(e)
            k = ne[var_idx]
            ne[var_idx] = 0
            key = tuple(ne)
            while len(powers) <= k:
                powers.append(ctx.rmul(powers[-1], v))
            reps[key] = ctx.radd(reps.get(key, ctx.rzero), ctx.rmul(c, powers[k]))
        return MPoly._from_reps(ctx, self.vars, reps)

    def substitute(self, images: Sequence["MPoly"]) -> "MPoly":
        """Simultaneous substitution; one image per variable."""
        if len(images) != len(self.vars):
            raise InternalCheckError("one image per variable required")
        for img in images:
            self._check(img)
        ctx, ops = self.ctx, _sum_ops(self.ctx)
        origin = (0,) * len(self.vars)
        unit = MPoly._from_reps(ctx, self.vars, {origin: ctx.rone})
        caches = [[unit, img] for img in images]

        def vpow(i: int, k: int) -> dict:
            cache = caches[i]
            while len(cache) <= k:
                cache.append(cache[-1] * images[i])
            return cache[k].reps

        out: dict = {}
        for e, c in self.reps.items():
            factors = [vpow(i, k) for i, k in enumerate(e) if k] or [unit.reps]
            term = {origin: c}
            for f in factors[:-1]:
                term = _muladd(ops, {}, term, f)
            _muladd(ops, out, term, factors[-1])
        return MPoly._from_sums(ctx, self.vars, out)

    def eval(self, point: Sequence[FieldElement]) -> FieldElement:
        ctx, acc = self.ctx, self.ctx.rzero
        pt = [ctx.rcoerce(v) for v in point]
        for e, c in self.reps.items():
            for i, k in enumerate(e):
                if k:
                    c = ctx.rmul(c, ctx.rpow(pt[i], k))
            acc = ctx.radd(acc, c)
        return FieldElement(ctx, acc)

    def to_unipoly(self, var_idx: int) -> UniPoly:
        reps = [self.ctx.rzero] * (self.degree_in(var_idx) + 1)
        for e, c in self.reps.items():
            if any(k != 0 for i, k in enumerate(e) if i != var_idx):
                raise InternalCheckError("polynomial involves other variables")
            reps[e[var_idx]] = c
        return UniPoly._from_reps(self.ctx, reps)

    def coeff_list(self, var_idx: int) -> list["MPoly"]:
        """Coefficients of powers of one variable, as polynomials in the rest."""
        n = self.degree_in(var_idx)
        buckets: list[dict] = [{} for _ in range(n + 1)]
        for e, c in self.reps.items():
            ne = list(e)
            k = ne[var_idx]
            ne[var_idx] = 0
            buckets[k][tuple(ne)] = c
        return [MPoly._from_reps(self.ctx, self.vars, b) for b in buckets]

    # -- division ----------------------------------------------------------------

    def _lead(self) -> tuple[tuple[int, ...], object]:
        """The graded-lex leading exponent and the rep of its coefficient."""
        e = max(self.reps, key=lambda t: (sum(t), t))
        return e, self.reps[e]

    def divexact(self, d: "MPoly") -> "MPoly":
        """Exact division; raises InternalCheckError if it does not divide.
        Leading terms come off a heap of exponents, where a cancelled key is
        skipped when it surfaces (Monagan & Pearce's lazy deletion)."""
        self._check(d)
        if d.is_zero():
            raise DivisionByZero("exact division by zero")
        ctx = self.ctx
        rsub, rmul, zero = ctx.rsub, ctx.rmul, ctx.rzero
        rem = dict(self.reps)
        heap = [(-sum(e), tuple(map(neg, e)), e) for e in rem]
        heapify(heap)
        out: dict = {}
        de, dc = d._lead()
        dc_inv = ctx.rinv(dc)
        divisor = list(d.reps.items())
        while heap:
            re = heappop(heap)[2]
            if re not in rem:
                continue
            qe = tuple(map(sub, re, de))
            if any(k < 0 for k in qe):
                raise InternalCheckError("division is not exact")
            qc = out[qe] = rmul(rem[re], dc_inv)
            for e2, c2 in divisor:
                key = tuple(map(add, qe, e2))
                if key not in rem:  # then nv below is nonzero
                    heappush(heap, (-sum(key), tuple(map(neg, key)), key))
                nv = rsub(rem.get(key, zero), rmul(qc, c2))
                if nv == zero:
                    rem.pop(key, None)
                else:
                    rem[key] = nv
        return MPoly._from_reps(ctx, self.vars, out)

    def normalized(self) -> "MPoly":
        """Divided by its graded-lex leading coefficient, which becomes one."""
        if self.is_zero():
            return self
        _, c = self._lead()
        if c == self.ctx.rone:
            return self
        return self._scaled(self.ctx.rinv(c))

    # -- characteristic p ---------------------------------------------------------

    def pth_root(self) -> "MPoly":
        ctx, p = self.ctx, self.ctx.char
        if p == 0:
            raise InternalCheckError("p-th root needs positive characteristic")
        reps = {}
        for e, c in self.reps.items():
            if any(k % p for k in e):
                raise InternalCheckError("polynomial is not a p-th power")
            reps[tuple(k // p for k in e)] = ctx.rpow(c, ctx.order // p)  # inverse Frobenius
        return MPoly._from_reps(ctx, self.vars, reps)

    # -- presentation ----------------------------------------------------------------

    def sort_key(self):
        return tuple((e, self.ctx.rsort_key(self.reps[e])) for e in sorted(self.reps))

    def __str__(self) -> str:
        items = sorted(self.reps.items(), key=lambda t: (sum(t[0]), tuple(-k for k in t[0])))
        return _render_terms(
            (
                self.ctx.render_rep(c),
                "*".join(
                    name if k == 1 else f"{name}^{k}" for name, k in zip(self.vars, e) if k
                ),
            )
            for e, c in items
        )

    def __repr__(self) -> str:
        return f"<MPoly {self} over {self.ctx.descriptor()}>"


def embed_poly(f: MPoly, target: FieldCtx) -> MPoly:
    """Coefficientwise field embedding; keeps the variable alphabet."""
    src = f.ctx
    reps = {e: embed(FieldElement(src, c), target).rep for e, c in f.reps.items()}
    return MPoly._from_reps(target, f.vars, reps)


# ---------------------------------------------------------------------------
# Remainder sequences: resultants, the bivariate gcd, squarefree structure
# ---------------------------------------------------------------------------


def _to_dense(f: MPoly) -> list[list]:
    """f as rep vectors in vars[0], indexed by the degree in vars[1]."""
    if len(f.vars) != 2:  # a third variable would be dropped
        raise InternalCheckError(f"bivariate polynomial expected, not one in {f.vars}")
    zero, rows = f.ctx.rzero, [{} for _ in range(f.degree_in(1) + 1)]
    for (i, k), c in f.reps.items():
        rows[k][i] = c
    return [[r.get(k, zero) for k in range(max(r, default=-1) + 1)] for r in rows]


def _from_dense(f: MPoly, a: list[list]) -> MPoly:
    """The dense ``a`` as a polynomial in the ring of f."""
    terms = {(i, k): c for k, row in enumerate(a) for i, c in enumerate(row)}
    return MPoly._from_reps(f.ctx, f.vars, terms)


def _strip(a: list[list]) -> list[list]:
    while a and not a[-1]:
        a.pop()
    return a


def _divexact(ctx: FieldCtx, a: list[list], b: list[list]) -> list[list]:
    """a/b for dense polynomials, checked to be exact: every quotient
    coefficient is an exact division by the leading coefficient of b."""
    r, lead = list(a), b[-1]
    q = [[]] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = _rp_divexact(ctx, r.pop(), lead)
        if c:
            for j, bj in enumerate(b[:-1], k):
                r[j] = _rp_sub(ctx, r[j], _rp_mul(ctx, c, bj))
    if any(r):
        raise InternalCheckError("division is not exact")
    return q


def _primitive(ctx: FieldCtx, a: list[list]) -> tuple[list, list[list]]:
    """The content of a nonzero dense polynomial, the monic gcd of its
    coefficients, and its primitive part."""
    cont: list = []
    for c in sorted(filter(None, a), key=len):  # a constant ends it at once
        cont = ctx.rgcd(cont, c)
        if len(cont) == 1:
            return cont, a
    return cont, [_rp_divexact(ctx, c, cont) for c in a]


def _prem(ctx: FieldCtx, a: list[list], b: list[list]) -> list[list]:
    """lc(b)^(deg a - deg b + 1) * a mod b in the main variable, for
    deg a >= deg b: one scaling per degree, whether or not its term vanishes."""
    lead, r = b[-1], list(a)
    scaled = lead != [ctx.rone]
    for _ in range(len(a) - len(b) + 1):
        top = r.pop()  # cancelled by top*lead, so never formed
        if scaled:
            r = [_rp_mul(ctx, c, lead) for c in r]
        if top:
            for j, bj in enumerate(b[:-1], len(r) + 1 - len(b)):
                r[j] = _rp_sub(ctx, r[j], _rp_mul(ctx, top, bj))
    return _strip(r)


def _subresultants(ctx: FieldCtx, a: list[list], b: list[list]) -> tuple:
    """The subresultant remainder sequence of a and b (Collins 1967; Brown &
    Traub 1971): each pseudo-remainder is divided, exactly and checked, by
    g*h^delta, g the dividend's leading coefficient (1 at first) and h the
    running scale.  Returns the last pair, h, and whether the resultant's sign
    flips.  Either b is empty and a is the last nonzero member, or b has degree
    zero and the resultant is lc(b)^deg(a) / h^(deg(a) - 1), negated on a flip.
    """
    g = h = [ctx.rone]
    flip = False  # Res(a, b) = (-1)^(deg a * deg b) Res(b, a)
    if len(a) < len(b):
        a, b, flip = b, a, len(a) % 2 == len(b) % 2 == 0
    while len(b) > 1:
        delta = len(a) - len(b)
        flip ^= len(a) % 2 == len(b) % 2 == 0  # both degrees odd
        r = _prem(ctx, a, b)
        d = _rp_mul(ctx, g, _rp_pow(ctx, h, delta))
        a, b = b, [_rp_divexact(ctx, c, d) for c in r]
        g = a[-1]
        if delta:
            h = _rp_divexact(ctx, _rp_pow(ctx, g, delta), _rp_pow(ctx, h, delta - 1))
    return a, b, h, flip


def resultant(f: MPoly, g: MPoly, var: str) -> MPoly:
    """Res of f and g with respect to ``var``, off the end of their
    subresultant sequence.  It is the Sylvester determinant with the ``deg g``
    rows of f-coefficients first: Res_y(y^2 - x^3, y) = -x^3.

    Coefficients, polynomials in the other variables u_i, are packed into
    dense vectors by u_i -> z^(B_1...B_{i-1}) (Kronecker substitution), with
    B_i = deg_var(g)*deg_{u_i}(f) + deg_var(f)*deg_{u_i}(g) + 1.  Packing is a
    ring map, so it carries the resultant to the packed polynomials' one, and
    B_i exceeds the degree in u_i of every Sylvester minor, Res among them, so
    the packed resultant unpacks uniquely.
    """
    f._check(g)
    idx = f.vars.index(var)
    if f.is_zero() or g.is_zero():
        return MPoly.zero(f.ctx, f.vars)
    fc = f.coeff_list(idx)
    gc = g.coeff_list(idx)
    m, n = len(fc) - 1, len(gc) - 1
    ctx, zero = f.ctx, f.ctx.rzero
    others = [i for i in range(len(f.vars)) if i != idx]
    bounds = [n * f.degree_in(i) + m * g.degree_in(i) + 1 for i in others]
    weights = list(accumulate([1] + bounds[:-1], mul))

    def pack(c: MPoly) -> list:
        v = {sum(e[i] * w for i, w in zip(others, weights)): a for e, a in c.reps.items()}
        return [v.get(k, zero) for k in range(max(v, default=-1) + 1)]

    a, b, h, flip = _subresultants(ctx, [pack(c) for c in fc], [pack(c) for c in gc])
    d = len(a) - 1  # Res = lc(b)^d / h^(d-1), and 0 when a remainder vanished
    res = _rp_divexact(ctx, _rp_pow(ctx, b[0], d), _rp_pow(ctx, h, d - 1)) if b else []
    terms = {}
    for k, c in enumerate(res):
        e = [0] * len(f.vars)
        for i, bd in zip(others, bounds):
            k, e[i] = divmod(k, bd)
        terms[tuple(e)] = ctx.rneg(c) if flip else c
    return MPoly._from_reps(ctx, f.vars, terms)


# Points x0 at which _gcd_dense tries to certify coprime primitive parts.  On
# a seed-42 pass of each benchmark workload, 3 points certified every pair
# that 8 or 16 did (all coprime pairs but 28 over F_2 and 1 over F_3), and 1
# point left 81 more to the sequence.  A further point is only one more
# failed try on each pair with a real common factor.
CERTIFY_POINTS = 3


def _points(ctx: FieldCtx):
    """Reps of the first CERTIFY_POINTS of 1, 2, 3, ...: small integers, or
    ``element_at`` indices over a finite field.  A field of order q below
    CERTIFY_POINTS gives all q elements, 0 last: a pair singular at the
    origin, such as f and f_x for a singular germ, is never coprime at 0."""
    if ctx.order is None:
        return map(ctx.rfrom_int, range(1, CERTIFY_POINTS + 1))
    q = ctx.order
    return (ctx.element_at(i % q).rep for i in range(1, min(q, CERTIFY_POINTS) + 1))


def _gcd_dense(ctx: FieldCtx, a: list[list], b: list[list]) -> list[list]:
    """Gcd of dense polynomials, scaled so its leading coefficient is one:
    the gcd of the contents times the gcd of the primitive parts.

    Over QQ the work runs in Z[x][y], on each operand times one common
    denominator of its coefficients; that changes the gcd over QQ by a unit
    only.  There ``rgcd`` returns the primitive integer generator of a gcd in
    QQ[x], which divides both operands in Z[x] by Gauss's lemma, so the
    contents divide exactly, and so does every division of the subresultant
    sequence, a theorem over any domain.  ``Fraction``s are built once, for
    the result."""
    if not a or not b:
        return a or b
    if ctx.kind == "rationals":
        g = _gcd_primitive(ctx.shadow, range(1, CERTIFY_POINTS + 1), _integral(a), _integral(b))
        top, zero = g[-1][-1], ctx.rzero
        return [[Fraction(c, top) if c else zero for c in row] for row in g]
    g = _gcd_primitive(ctx, _points(ctx), a, b)
    if g[-1][-1] == ctx.rone:
        return g
    inv = ctx.rinv(g[-1][-1])
    return [_rp_scale(ctx, inv, c) for c in g]


def _integral(a: list[list]) -> list[list]:
    """A dense polynomial over QQ times the lcm of its denominators."""
    den = lcm(*(c.denominator for row in a for c in row))
    return [[c.numerator * (den // c.denominator) for c in row] for row in a]


def _gcd_primitive(ring, points, a: list[list], b: list[list]) -> list[list]:
    """A gcd of nonzero dense polynomials over ``ring``, a field or QQ's
    shadow Z, up to a unit of the field.

    Coprime primitive parts are certified at one point x0 (Brown 1971; von
    zur Gathen & Gerhard, ch. 6).  If g = gcd(a, b), then g(x0, y) divides
    gcd(a(x0, y), b(x0, y)).  lc_y(a)(x0) != 0 is enough, with nothing asked
    of b: lc_y(g) divides lc_y(a), so it does not vanish at x0 either, and
    deg_y g is the degree of g(x0, y).  A specialized gcd of 1 thus puts g in
    F[x], where it divides the content of a, which is 1.  The contents are
    handled apart, so a point where a content vanishes does no harm.  When
    no point of ``points`` certifies, the gcd is the primitive part of the
    last nonzero member of the primitive parts' subresultant sequence.  No
    content is taken in between, since the sequence divides out its predicted
    factors."""
    ca, a = _primitive(ring, a)
    cb, b = _primitive(ring, b)
    for x0 in points:
        if ring.ris_zero(_rp_eval(ring, a[-1], x0)):
            continue
        va = [_rp_eval(ring, c, x0) for c in a]
        vb = _rp_trim(ring, [_rp_eval(ring, c, x0) for c in b])
        if len(ring.rgcd(va, vb)) == 1:
            return [ring.rgcd(ca, cb)]
    a, b, _, _ = _subresultants(ring, a, b)
    # a remainder of degree zero means the primitive parts are coprime
    cont = ring.rgcd(ca, cb)
    if b:
        return [cont]
    return [_rp_mul(ring, c, cont) for c in _primitive(ring, a)[1]]


def gcd_bivar(f: MPoly, g: MPoly) -> MPoly:
    """Monic-normalized gcd of two bivariate polynomials."""
    f._check(g)
    d = _gcd_dense(f.ctx, _to_dense(f), _to_dense(g))
    return _from_dense(f, d).normalized()


def _partials(ctx: FieldCtx, a: list[list]) -> tuple[list[list], list[list]]:
    """The partials of a dense polynomial in the inner and main variable."""
    ints = [ctx.rfrom_int(k) for k in range(max(len(a), *map(len, a)))]
    rmul = ctx.rmul
    inner = [_rp_trim(ctx, list(map(rmul, ints[1:], row[1:]))) for row in a]
    return _strip(inner), _strip([_rp_scale(ctx, k, c) for k, c in zip(ints[1:], a[1:])])


def _nonconstant(a: list[list]) -> bool:
    return len(a) > 1 or len(a[0]) > 1


def squarefree_decomposition(f: MPoly) -> list[tuple[MPoly, int]]:
    """Pairwise-coprime squarefree bivariate factors with multiplicities.

    Uniform in the characteristic: the triple gcd (f, f_x, f_y) isolates
    the tame radical, a Musser-style peel recovers tame multiplicities, and
    whatever remains is an exact p-th power handled by recursion.  The work
    runs on dense vectors in vars[1] over F[vars[0]]; each factor becomes an
    :class:`MPoly` once, normalized.
    """
    ctx, a = f.ctx, _to_dense(f)
    if f.degree() < 1:
        return []
    fx, fy = _partials(ctx, a)
    c = _gcd_dense(ctx, _gcd_dense(ctx, a, fx), fy)
    w = _divexact(ctx, a, c)
    out: list[tuple[MPoly, int]] = []
    i = 1
    while _nonconstant(w):
        y = _gcd_dense(ctx, w, c)
        z = _divexact(ctx, w, y)
        if _nonconstant(z):
            out.append((_from_dense(f, z).normalized(), i))
        w, c, i = y, _divexact(ctx, c, y), i + 1
    if _nonconstant(c):
        if ctx.char == 0:
            raise InternalCheckError("leftover factor in characteristic zero")
        root = _from_dense(f, c).pth_root()
        out.extend((g, e * ctx.char) for g, e in squarefree_decomposition(root))
    out.sort(key=lambda ge: (ge[0].degree(), ge[0].sort_key()))
    return out


def is_reduced(f: MPoly) -> bool:
    """Whether f has no repeated factor, read as gcd(f, f_x, f_y) = 1 with
    no decomposition; a constant is reduced.

    The test is exact because every context here is perfect.  If h^2 | f,
    then h divides f, f_x and f_y.  Conversely, let h be irreducible with
    h | f, f_x, f_y and h not dividing f/h.  As f_x = h_x*(f/h) + h*(f/h)_x,
    h divides h_x, which has lower degree, so h_x = 0; likewise h_y = 0.  In
    characteristic 0 that makes h constant.  In characteristic p it puts h in
    K[x^p, y^p], which is K[x, y]^p when K is perfect, so h is a p-th power.
    Either contradicts the irreducibility of h.
    """
    ctx, a = f.ctx, _to_dense(f)
    if f.degree() < 1:
        return True
    fx, fy = _partials(ctx, a)
    c = _gcd_dense(ctx, a, fx)
    return not _nonconstant(c) or not _nonconstant(_gcd_dense(ctx, c, fy))


def squarefree_part(f: MPoly) -> tuple[MPoly, bool]:
    """The reduced polynomial with the same zero set, and whether f already was."""
    dec = squarefree_decomposition(f)
    part = MPoly.constant(f.ctx, f.vars, f.ctx.one)
    for g, _ in dec:
        part = part * g
    reduced = all(e == 1 for _, e in dec)
    return part, reduced


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _generator_atoms(ctx: FieldCtx) -> dict[str, FieldElement]:
    atoms: dict[str, FieldElement] = {}
    c: FieldCtx | None = ctx
    while c is not None and c.kind == "extension":
        atoms.setdefault(c.gen_name, embed(c.gen(), ctx))
        c = c.base
    return atoms


class _Parser:
    def __init__(self, text: str, ctx: FieldCtx, vars: tuple[str, ...]):
        self.text = text.replace("−", "-").replace("**", "^")
        self.pos = 0
        self.ctx = ctx
        self.vars = vars
        self.gens = _generator_atoms(ctx)

    def error(self, msg: str):
        raise ParseError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def parse(self) -> MPoly:
        out = self.expr()
        if self.peek():
            self.error(f"unexpected {self.text[self.pos]!r}")
        return out

    def expr(self) -> MPoly:
        ch = self.peek()
        negate = False
        if ch in "+-":
            self.take()
            negate = ch == "-"
        out = self.term()
        if negate:
            out = -out
        while True:
            ch = self.peek()
            if ch == "+":
                self.take()
                out = out + self.term()
            elif ch == "-":
                self.take()
                out = out - self.term()
            else:
                return out

    def term(self) -> MPoly:
        out = self.factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.take()
                out = out * self.factor()
            elif ch == "/":
                self.take()
                d = self.factor()
                if d.degree() > 0:
                    self.error("division only by constants")
                c = d.constant_term()
                if c.is_zero():
                    self.error("division by zero")
                out = out * c.inverse()
            else:
                return out

    def factor(self) -> MPoly:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            e = self.integer()
            base = base**e
        return base

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected a nonnegative integer")
        return int(self.text[start : self.pos])

    def atom(self) -> MPoly:
        ch = self.peek()
        if ch == "(":
            self.take()
            out = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.take()
            return out
        if ch.isdigit():
            return MPoly.constant(self.ctx, self.vars, self.integer())
        if ch.isalpha():
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            name = self.text[start : self.pos]
            if name in self.vars:
                return MPoly.variable(self.ctx, self.vars, name)
            if name.lower() in self.vars:
                return MPoly.variable(self.ctx, self.vars, name.lower())
            if name in self.gens:
                return MPoly.constant(self.ctx, self.vars, self.gens[name])
            self.pos = start
            raise WrongVariables(
                f"unknown symbol {name!r}; expected one of {', '.join(self.vars)}",
                start,
            )
        if not ch:
            self.error("unexpected end of input")
        self.error(f"unexpected {ch!r}")


def parse_poly(text: str, ctx: FieldCtx, vars: tuple[str, ...] = ("x", "y")) -> MPoly:
    """Parse ``text`` into an :class:`MPoly` over ``ctx``.

    Grammar: integer literals, the given variables (uppercase aliases
    accepted), generator names of the coefficient field, ``+ - * / ^`` and
    parentheses; ``/`` only by a constant.  Raises :class:`ParseError` with a
    position, or :class:`WrongVariables` for a stray identifier.
    """
    parser = _Parser(text, ctx, vars)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("parentheses nested too deeply", parser.pos) from None
