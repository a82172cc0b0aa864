"""Exact invariants of plane curve singularities in any characteristic.

The package computes intersection numbers, Milnor, delta, polar and gamma
invariants of reduced plane curve germs, and the global Pluecker bookkeeping
they feed into, entirely with exact field arithmetic.
"""

from __future__ import annotations

from .algebra import MPoly, parse_poly
from .field import FieldCtx, FieldElement, embed
from .hne import Branch, BranchSet, branch_decompose
from .invariants import (
    INF,
    ExtNat,
    GammaResult,
    InvariantReport,
    analyze_local,
    delta,
    gamma,
    gamma_tilde,
    intersection_multiplicity,
    kappa,
    milnor,
    swan,
    verify_relations,
)

# the projective layer is imported on first use, so `local` commands skip it
_PROJECTIVE = ("PluckerReport", "SingularPoint", "local_equation", "plucker_analysis", "singular_points")


def __getattr__(name: str):
    if name in _PROJECTIVE:
        from . import projective

        return getattr(projective, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "FieldCtx",
    "FieldElement",
    "embed",
    "MPoly",
    "parse_poly",
    "Branch",
    "BranchSet",
    "branch_decompose",
    "INF",
    "ExtNat",
    "GammaResult",
    "InvariantReport",
    "analyze_local",
    "delta",
    "gamma",
    "gamma_tilde",
    "intersection_multiplicity",
    "kappa",
    "milnor",
    "swan",
    "verify_relations",
    *_PROJECTIVE,
]
