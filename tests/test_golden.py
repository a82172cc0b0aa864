"""Checked-in stdout of fixed CLI commands, compared byte for byte.

Criterion 9 only checks that two runs in one process agree; these files pin
the `--json` output from one commit to the next.  Each expected file in
tests/golden/ is the exact stdout of its command line.
"""

from pathlib import Path

import pytest

from curveinv.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

_ANALYZE = ("--emit-branches", "--emit-tree", "--json")

CASES = {
    "analyze_f3_x3": ["local", "analyze", "--char", "3", "--poly", "x^3+x^4+y^5", *_ANALYZE],
    "analyze_f3_sheared": [
        "local", "analyze", "--char", "3", "--poly", "(x+y)^3+(x+y)^4+y^5", *_ANALYZE
    ],
    "analyze_f2_cusp": ["local", "analyze", "--char", "2", "--poly", "y^2+x^3", *_ANALYZE],
    "analyze_f7_e6": ["local", "analyze", "--char", "7", "--poly", "y^3-x^5", *_ANALYZE],
    "analyze_qq_two_cusps": [
        "local", "analyze", "--char", "0", "--poly", "(y^2-x^3)*(y^2+x^3)", *_ANALYZE
    ],
    "analyze_f2_gamma_interval": [
        "local", "analyze", "--char", "2", "--poly", "y^4+x^6+x^7", *_ANALYZE
    ],
    "analyze_qq_extension_branches": [
        "local", "analyze", "--char", "0", "--poly", "7*x^3+3/4*x^4+5/4*x^2*y^3-8*x*y^4",
        *_ANALYZE,
    ],
    "analyze_qq_tower_cubic": [
        "local", "analyze", "--char", "0", "--poly", "y^3-2*x^3", *_ANALYZE
    ],
    "analyze_f7_fq3": [
        "local", "analyze", "--char", "7", "--poly", "5*x^3+6*y^3+y^5", *_ANALYZE
    ],
    "verify_f5_a4": ["local", "verify", "--char", "5", "--poly", "y^2-x^5", "--json"],
    "projective_f11_nodal_cubic": [
        "projective", "analyze", "--char", "11", "--poly", "y^2*z-x^3-x^2*z", "--json"
    ],
    "projective_f13_quartic": [
        "projective", "analyze", "--char", "13", "--poly", "x^4+y^4-x^2*z^2", "--json"
    ],
    "projective_qq_cuspidal_cubic": [
        "projective", "analyze", "--char", "0", "--poly", "y^2*z-x^3", "--json"
    ],
    "projective_qq_trifolium": [
        "projective", "analyze", "--char", "0", "--poly", "(x^2+y^2)^2-z*(x^3-3*x*y^2)",
        "--json",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name, capsys):
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text()
