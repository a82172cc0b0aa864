"""Projective plane curves: singular locus, local equations, Plücker sums.

The singular locus is solved chart by chart with bivariate resultants; any
algebraic point forces a field extension, and the whole search restarts over
the enlarged context so that every point, local equation, and local report
lives in one arithmetic world.  The global report combines the local data
into d(d-1) - sum of kappa, published as the product deg(rho) * dual degree;
the two factors are never separated here.

Chart convention: dehomogenizing sets one of x, y, z to 1, and the two
surviving variables, kept in (x, y, z) order, become the local (x, y).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import MPoly, gcd_bivar, is_reduced, resultant
from .blowup import run_with_restarts, split
from .errors import (
    InternalCheckError,
    NotHomogeneous,
    PositiveDimensionalSingularLocus,
    ReducibleCurve,
    UnsupportedInput,
)
from .field import FieldElement
from .invariants import (
    ExtNat,
    InvariantReport,
    analyze_local,
    char_exceeds,
    delta,
)
from .unipoly import UniPoly

PROJ_VARS = ("x", "y", "z")
LOCAL_VARS = ("x", "y")


def _validated_degree(F: MPoly) -> int:
    if len(F.vars) != 3:
        raise NotHomogeneous("projective input needs exactly three variables")
    if F.is_zero() or not F.is_homogeneous():
        raise NotHomogeneous("projective input must be a nonzero homogeneous polynomial")
    d = F.degree()
    if d < 1:
        raise NotHomogeneous("a constant defines no curve")
    return d


def dehomogenize(F: MPoly, chart: str) -> MPoly:
    k = PROJ_VARS.index(chart)
    keep = [i for i in range(3) if i != k]
    radd, zero, reps = F.ctx.radd, F.ctx.rzero, {}
    for e, c in F.reps.items():
        key = (e[keep[0]], e[keep[1]])
        reps[key] = radd(reps.get(key, zero), c)
    return MPoly._from_reps(F.ctx, LOCAL_VARS, reps)


def _is_reduced(F: MPoly) -> bool:
    # Dehomogenizing is multiplicity-faithful on every factor except the
    # chart variable itself, so a repeated factor other than z is visible in
    # the z chart and a repeated z lands in the x chart.
    return all(is_reduced(dehomogenize(F, chart)) for chart in ("z", "x"))


def _chart_points(system: list[MPoly], chart: str) -> list[tuple[FieldElement, FieldElement]]:
    """Common zeros of the dehomogenized system in one affine chart."""
    polys = [g for g in (dehomogenize(s, chart) for s in system) if not g.is_zero()]
    if any(g.degree() == 0 for g in polys):
        return []
    shared = polys[0]
    for h in polys[1:]:
        shared = gcd_bivar(shared, h)
        if shared.degree() < 1:
            break
    if shared.degree() >= 1:
        raise PositiveDimensionalSingularLocus(
            f"the singular system shares the factor {shared} in the {chart} chart"
        )
    # A member free of the second variable pins the first coordinate by
    # itself; otherwise eliminate per pair until a resultant survives.  Any
    # single nonzero choice yields a complete candidate set, since a common
    # zero of the system is a common zero of each pair.
    pinned = next((g for g in polys if g.degree_in(1) == 0), None)
    if pinned is None:
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                r = resultant(polys[i], polys[j], "y")
                if not r.is_zero():
                    pinned = r
                    break
            if pinned is not None:
                break
    if pinned is None:
        raise InternalCheckError("pairwise resultants all vanished in a chart solve")
    points = []
    for a, _ in split(pinned.to_unipoly(0)):
        rest: UniPoly | None = None
        for g in polys:
            u = g.subs_const(0, a).to_unipoly(1)
            rest = u if rest is None else rest.gcd(u)
        if rest is None or rest.is_zero():
            raise InternalCheckError("a whole line survived the chart solve")
        for b, _ in split(rest):
            points.append((a, b))
    return points


def _chart_of(trip: tuple) -> str:
    if not trip[2].is_zero():
        return "z"
    if not trip[1].is_zero():
        return "y"
    return "x"


def _normalize(trip: tuple) -> tuple:
    for k in (2, 1, 0):
        if not trip[k].is_zero():
            inv = trip[k].inverse()
            return tuple(c * inv for c in trip)
    raise UnsupportedInput("(0:0:0) is not a projective point")


def _locate(F: MPoly) -> list[tuple]:
    system = [F, F.partial(0), F.partial(1), F.partial(2)]
    ctx = F.ctx
    one = ctx.one
    seen: dict[tuple, None] = {}
    for chart in ("z", "y", "x"):
        for a, b in _chart_points(system, chart):
            if chart == "z":
                trip = (a, b, one)
            elif chart == "y":
                trip = (a, one, b)
            else:
                trip = (one, a, b)
            trip = _normalize(trip)
            if trip in seen:
                continue
            for g in system:
                if not g.eval(list(trip)).is_zero():
                    raise InternalCheckError("candidate singular point fails verification")
            seen[trip] = None
    found = list(seen)
    found.sort(key=lambda t: tuple(c.sort_key() for c in t))
    return found


@dataclass
class SingularPoint:
    coords: tuple[FieldElement, FieldElement, FieldElement]
    chart: str
    local_eq: MPoly
    report: InvariantReport | None = None

    def coords_str(self) -> str:
        return "(" + ":".join(str(c) for c in self.coords) + ")"


def local_equation(F: MPoly, point) -> MPoly:
    """Local equation of the curve at ``point``: dehomogenized in the chart
    of the point's last nonzero coordinate and translated to the origin."""
    coords = tuple(point.coords) if isinstance(point, SingularPoint) else tuple(point)
    if len(coords) != 3:
        raise UnsupportedInput("a projective point needs three coordinates")
    trip = _normalize(coords)
    chart = _chart_of(trip)
    k = PROJ_VARS.index(chart)
    keep = [i for i in range(3) if i != k]
    g = dehomogenize(F, chart)
    ctx = F.ctx
    images = []
    for slot, name in zip(keep, LOCAL_VARS):
        v = MPoly.variable(ctx, LOCAL_VARS, name)
        images.append(v + MPoly.constant(ctx, LOCAL_VARS, trip[slot]))
    moved = g.substitute(images)
    if not moved.constant_term().is_zero():
        raise InternalCheckError("translated local equation misses the origin")
    return moved


def singular_points(F: MPoly, *, analyze: bool = True) -> list[SingularPoint]:
    """All singular points of the reduced curve F over the algebraic closure.

    The coefficient field grows as needed; the returned points, their local
    equations, and their reports all share the final context.  With
    ``analyze=False`` the per-point invariant reports are skipped.
    """
    _validated_degree(F)
    if not _is_reduced(F):
        raise PositiveDimensionalSingularLocus(
            "the curve has a repeated component, so its singular locus is a curve"
        )
    work, found = run_with_restarts(F, _locate)
    out = []
    for trip in found:
        local = local_equation(work, trip)
        report = analyze_local(local) if analyze else None
        out.append(SingularPoint(trip, _chart_of(trip), local, report))
    return out


def _bivariate_content(F: MPoly, var_idx: int) -> MPoly | None:
    """Nonconstant common factor of the coefficients of one variable's
    powers, i.e. a factor of F not involving that variable; None if trivial."""
    others = [i for i in range(3) if i != var_idx]
    buckets: dict[int, dict] = {}
    for e, c in F.reps.items():
        buckets.setdefault(e[var_idx], {})[(e[others[0]], e[others[1]])] = c
    cont: MPoly | None = None
    for b in buckets.values():
        g = MPoly._from_reps(F.ctx, LOCAL_VARS, b)
        cont = g if cont is None else gcd_bivar(cont, g)
        if cont.degree() < 1:
            return None
    return cont


def _reject_visible_splits(F: MPoly, d: int) -> None:
    # Cheap sound certificates of reducibility over the closure: a monomial
    # factor, or a factor missing one variable entirely (a homogeneous form
    # in two variables of degree >= 2 splits into linear forms).
    for k in range(3):
        if d >= 2 and (F.order_in(k) or 0) >= 1:
            raise ReducibleCurve(f"{PROJ_VARS[k]} divides the curve")
        cont = _bivariate_content(F, k)
        if cont is not None and d >= 2:
            raise ReducibleCurve(
                f"the curve has a factor free of {PROJ_VARS[k]}"
            )


@dataclass
class PluckerReport:
    char: int
    field: str
    poly: str
    d: int
    s: int
    delta_sum: int
    mu_sum: ExtNat
    mt_sum: int
    r_sum: int
    swan_sum: int | None
    kappa_sum: int
    product: int
    m_good_global: bool
    big_p: bool
    points: list[SingularPoint]
    relations: dict[str, str]

    def to_json(self) -> dict:
        return {
            "char": self.char,
            "field": self.field,
            "poly": self.poly,
            "d": self.d,
            "s": self.s,
            "delta": self.delta_sum,
            "mu": self.mu_sum.to_json(),
            "mt": self.mt_sum,
            "r": self.r_sum,
            "swan": "undefined" if self.swan_sum is None else self.swan_sum,
            "kappa": self.kappa_sum,
            "product": self.product,
            "m_good": self.m_good_global,
            "big_p": self.big_p,
            "points": [
                {
                    "point": p.coords_str(),
                    "chart": p.chart,
                    "local": None if p.report is None else p.report.to_json(),
                }
                for p in self.points
            ],
            "relations": dict(self.relations),
        }


def plucker_analysis(F: MPoly, *, assume_irreducible: bool = False) -> PluckerReport:
    """Global report for an irreducible reduced projective plane curve.

    Sums the local invariants over the singular locus and evaluates the
    product deg(rho) * dual degree as d(d-1) minus the kappa sum, together
    with the bound through delta and its tame specializations.  Visible
    splits and a negative genus bound reject reducible input unless
    ``assume_irreducible`` is set.
    """
    d = _validated_degree(F)
    if not assume_irreducible:
        _reject_visible_splits(F, d)
    # reports are deferred until the genus bound has had its say; delta alone
    # is much cheaper than a full local analysis
    pts = singular_points(F, analyze=False)
    s = len(pts)
    delta_sum = sum(delta(p.local_eq) for p in pts)
    if not assume_irreducible and 2 * delta_sum > (d - 1) * (d - 2):
        raise ReducibleCurve(
            "the singular locus carries more delta than the genus of an "
            "irreducible curve allows"
        )
    for p in pts:
        p.report = analyze_local(p.local_eq)
    reports = [p.report for p in pts]
    mt_sum = sum(rp.mt for rp in reports)
    r_sum = sum(rp.r for rp in reports)
    mu_sum = ExtNat(0)
    for rp in reports:
        mu_sum = mu_sum + rp.mu
    swan_sum: int | None = 0
    for rp in reports:
        if rp.swan is None:
            swan_sum = None
            break
        swan_sum += int(rp.swan)
    kappas = []
    for rp in reports:
        if rp.kappa.value is None:
            raise InternalCheckError("infinite kappa at a singular point of a reduced curve")
        kappas.append(int(rp.kappa))
    kappa_sum = sum(kappas)
    product = d * (d - 1) - kappa_sum
    if product < 0:
        raise ReducibleCurve("kappa exceeds d(d-1); no irreducible curve does that")
    m_good_global = all(rp.m_good for rp in reports)
    p = F.ctx.char
    big_p = char_exceeds(p, max(kappas, default=0))

    relations: dict[str, str] = {}
    bound = d * (d - 1) - 2 * delta_sum + r_sum - mt_sum
    ok = product <= bound and (product == bound) == m_good_global
    relations["plucker_bound"] = "pass" if ok else "fail"
    if big_p:
        relations["tame_swan"] = "pass" if swan_sum == 0 else "fail"
        relations["tame_product_delta"] = "pass" if product == bound else "fail"
        if mu_sum.value is None:
            relations["tame_product_mu"] = "fail"
        else:
            via_mu = d * (d - 1) - mu_sum.value - mt_sum + s
            relations["tame_product_mu"] = "pass" if product == via_mu else "fail"
    else:
        relations["tame_swan"] = "skip"
        relations["tame_product_delta"] = "skip"
        relations["tame_product_mu"] = "skip"

    report = PluckerReport(
        char=p,
        field=F.ctx.descriptor(),
        poly=str(F),
        d=d,
        s=s,
        delta_sum=delta_sum,
        mu_sum=mu_sum,
        mt_sum=mt_sum,
        r_sum=r_sum,
        swan_sum=swan_sum,
        kappa_sum=kappa_sum,
        product=product,
        m_good_global=m_good_global,
        big_p=big_p,
        points=pts,
        relations=relations,
    )
    failed = [k for k, v in relations.items() if v == "fail"]
    if failed:
        raise InternalCheckError(f"projective relations failed: {', '.join(failed)}")
    return report
