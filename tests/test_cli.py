"""End-to-end checks of the command-line surface.

Everything except the dependency guard goes through main(argv) in-process;
stdout is parsed back from JSON where the content matters, and exit codes are
asserted everywhere.
"""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import curveinv
from curveinv.cli import _exit_code, main
from curveinv.corpus import CorpusItem, CorpusSpec, evaluate_item, generate, recount
from curveinv.errors import EliminationDegenerate, ShearExhausted


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--json")
    return code, json.loads(out)


class TestLocalAnalyze:
    def test_coordinate_dependent_pair(self, capsys):
        code, data = run_json(
            capsys, "local", "analyze", "--char", "3", "--poly", "x^3+x^4+y^5"
        )
        assert code == 0
        assert data["gamma_tilde"] == 8
        code, data = run_json(
            capsys, "local", "analyze", "--char", "3", "--poly",
            "(x+y)^3+(x+y)^4+y^5",
        )
        assert code == 0
        assert data["gamma_tilde"] == 10

    def test_wild_cusp(self, capsys):
        code, data = run_json(
            capsys, "local", "analyze", "--char", "2", "--poly", "y^2+x^3"
        )
        assert code == 0
        assert data["kappa"] == 4
        assert data["mu"] == "inf"
        assert data["m_good"] is False

    def test_node(self, capsys):
        code, data = run_json(
            capsys, "local", "analyze", "--char", "0", "--poly", "x*y"
        )
        assert code == 0
        assert data["mu"] == 1
        assert data["delta"] == 1
        assert data["r"] == 2
        assert data["kappa"] == 2

    def test_branch_and_tree_emission(self, capsys):
        code, data = run_json(
            capsys, "local", "analyze", "--char", "0", "--poly", "y^2-x^3",
            "--emit-branches", "--emit-tree", "--prec", "6",
        )
        assert code == 0
        (branch,) = data["branches"]["branches"]
        assert branch["ix"] == 2
        assert branch["iy"] == 3
        assert branch["x"] == ["0", "0", "1", "0", "0", "0"]
        assert branch["y"] == ["0", "0", "0", "1", "0", "0"]
        assert data["tree"]["mult"] == 2
        assert data["tree"]["children"][0]["tree"]["mult"] == 1


class TestLocalVerify:
    @pytest.mark.parametrize(
        "char,poly",
        [
            (2, "y^2+x^3"),
            (3, "x^3+x^4+y^5"),
            (0, "(y^2-x^3)*(y^2+x^3)"),
        ],
    )
    def test_clean_germs_exit_zero(self, capsys, char, poly):
        code, data = run_json(
            capsys, "local", "verify", "--char", str(char), "--poly", poly
        )
        assert code == 0
        assert data["failed"] == 0
        assert "fail" not in data["relations"].values()


class TestTextOutput:
    def test_local_verify_prints_a_nested_dict(self, capsys):
        code, out = run_cli(capsys, "local", "verify", "--char", "3", "--poly", "x^3+x^4+y^5")
        assert code == 0
        verdicts = ["pass"] * 4 + ["skip"] * 2 + ["pass"] * 4
        assert out.splitlines() == [
            "char: 3",
            "poly: x^3+x^4+y^5",
            "relations:",
            *(f"  R{i}: {v}" for i, v in enumerate(verdicts, 1)),
            "failed: 0",
        ]

    def test_projective_analyze_prints_a_list_of_dicts(self, capsys):
        code, out = run_cli(capsys, "projective", "analyze", "--char", "0", "--poly", "y^2*z-x^3-x^2*z")
        assert code == 0
        lines = out.splitlines()
        assert lines[:14] == [
            "char: 0", "field: QQ", "poly: -x^3-x^2*z+y^2*z", "d: 3", "s: 1", "delta: 1", "mu: 1",
            "mt: 2", "r: 2", "swan: 0", "kappa: 2", "product: 4", "m_good: True", "big_p: True",
        ]
        # each list entry opens with "- " and its later keys line up under the first
        start = lines.index("points:")
        assert lines[start + 1 : start + 8] == [
            "  - point: (0:0:1)",
            "    chart: z",
            "    local:",
            "      char: 0",
            "      field: QQ",
            "      poly: -x^2+y^2-x^3",
            "      mt: 2",
        ]
        assert lines[start + 13 : start + 18] == [
            "      gamma:",
            "        kind: exact",
            "        value: 1",
            "      swan: 0",
            "      m_good: True",
        ]
        assert lines[-5:] == [
            "relations:",
            "  plucker_bound: pass",
            "  tame_swan: pass",
            "  tame_product_delta: pass",
            "  tame_product_mu: pass",
        ]


class TestProjective:
    def test_nodal_cubic(self, capsys):
        code, data = run_json(
            capsys, "projective", "analyze", "--char", "0", "--poly",
            "y^2*z-x^3-x^2*z",
        )
        assert code == 0
        assert data["product"] == 4
        assert data["s"] == 1

    def test_smooth_conic(self, capsys):
        code, data = run_json(
            capsys, "projective", "analyze", "--char", "0", "--poly",
            "x^2+y^2-z^2",
        )
        assert code == 0
        assert data["product"] == 2
        assert data["s"] == 0

    def test_fermat_quintic_char_five_rejected_cleanly(self, capsys):
        # x^5+y^5+z^5 is a 5th power over F_5; a structured rejection, not a
        # traceback, and a zero exit
        code, data = run_json(
            capsys, "projective", "analyze", "--char", "5", "--poly",
            "x^5+y^5+z^5",
        )
        assert code == 0
        assert data["status"] == "rejected"
        assert data["reason"]


class TestCorpus:
    def test_empty_corpus(self, capsys):
        code, data = run_json(capsys, "corpus", "run", "--count", "0")
        assert code == 0
        assert data["count"] == 0
        assert data["failed"] == 0
        assert data["failures"] == []

    def test_catalog_only_mix_contains_both_remark_curves(self):
        items = generate(CorpusSpec(count=12, seed=1, mix=(0, 0, 1)))
        polys = {it.poly for it in items}
        assert "x^3+x^4+y^5" in polys
        assert "(x+y)^3+(x+y)^4+y^5" in polys
        assert all(it.source == "catalog" for it in items)

    def test_failed_item_exits_two_with_a_quoted_repro(self, capsys, monkeypatch):
        import curveinv.corpus as corpus

        real = corpus.verify_relations

        def one_fails(f):
            rels = real(f)
            return {**rels, "R4": "fail"} if str(f) == "y^2+2*x^3+2*x^2*y+x^4" else rels

        # four items run in this process, so the patch reaches all of them
        monkeypatch.setattr(corpus, "verify_relations", one_fails)
        code, data = run_json(capsys, "corpus", "run", "--count", "4", "--seed", "3")
        assert code == 2
        assert (data["passed"], data["failed"]) == (3, 1)
        assert data["failures"] == [
            {
                "index": 1,
                "char": 3,
                "poly": "y^2+2*x^3+2*x^2*y+x^4",
                "source": "branch",
                "relations": "fail:R4",
                "oracle_delta": "agree",
                "oracle_intersection": "agree",
                "repro": "curveinv local verify --char 3 --poly 'y^2+2*x^3+2*x^2*y+x^4'",
            }
        ]

    def test_oracle_give_up_is_a_skip_row(self, monkeypatch):
        # the companion germ of seed 295 is x+2*x*y^2: i_resultant finds no
        # certified shear among the 3 of F_3 and certifies over F_9
        item = CorpusItem(0, 3, "x*y+x^3+2*x^2*y+2*x*y^2+2*y^3", "sparse", 295)
        row = {
            "index": 0,
            "char": 3,
            "poly": "x*y+x^3+2*x^2*y+2*x*y^2+2*y^3",
            "source": "sparse",
            "relations": "pass",
            "oracle_delta": "agree",
            "oracle_intersection": "agree",
            "status": "pass",
        }
        assert evaluate_item(item) == row

        def give_up(*args, **kwargs):
            raise ShearExhausted("no certified shear direction")

        import curveinv.corpus as corpus

        monkeypatch.setattr(corpus, "i_resultant", give_up)
        assert evaluate_item(item) == {**row, "oracle_intersection": "skip"}

    def test_small_run_passes(self, capsys):
        code, data = run_json(
            capsys, "corpus", "run", "--count", "12", "--seed", "3"
        )
        assert code == 0
        assert data["passed"] == 12
        assert data["failed"] == 0


class TestOracleCompare:
    def test_dual_suite(self, capsys):
        code, data = run_json(
            capsys, "oracle", "compare", "--suite", "dual", "--char", "0",
            "--seed", "2",
        )
        assert code == 0
        assert data["disagreements"] == 0
        assert [row["main"] for row in data["rows"]] == [4, 3, 2]

    def test_intersection_suite(self, capsys):
        code, data = run_json(
            capsys, "oracle", "compare", "--suite", "intersection",
            "--char", "3", "--count", "6", "--seed", "11",
        )
        assert code == 0
        assert data["disagreements"] == 0

    def test_delta_suite(self, capsys):
        code, data = run_json(
            capsys, "oracle", "compare", "--suite", "delta",
            "--char", "2", "--count", "6", "--seed", "11",
        )
        assert code == 0
        assert data["disagreements"] == 0


def test_recount_verdicts():
    def gives_up(exc):
        def oracle():
            raise exc("no luck")
        return oracle

    assert recount(3, lambda: 3) == (3, "agree")
    assert recount(3, lambda: 4) == (4, "disagree")
    assert recount(3, gives_up(ShearExhausted)) == ("none", "skip")
    assert recount(3, gives_up(EliminationDegenerate)) == ("none", "skip")


def test_exit_codes_of_corpus_run_and_oracle_compare():
    # (failed, skips, count): a failure wins; a tenth or more skipped is inconclusive
    cases = {(1, 9, 10): 2, (0, 1, 10): 3, (0, 10, 10): 3, (0, 1, 11): 0, (0, 0, 0): 0}
    assert {args: _exit_code(*args) for args in cases} == cases


class TestDeterminism:
    def test_analyze_byte_identical(self, capsys):
        argv = ("local", "analyze", "--char", "3", "--poly", "x^3+x^4+y^5",
                "--emit-tree", "--json")
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second

    def test_corpus_byte_identical(self, capsys):
        argv = ("corpus", "run", "--count", "8", "--seed", "42", "--json")
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second


class TestExitCodes:
    def test_composite_characteristic(self, capsys):
        code, _ = run_cli(
            capsys, "local", "analyze", "--char", "4", "--poly", "x*y"
        )
        assert code == 1

    @pytest.mark.parametrize("count", ["1", "6"])
    def test_corpus_composite_characteristic(self, capsys, count):
        code, _ = run_cli(capsys, "corpus", "run", "--char", "4", "--count", count)
        assert code == 1

    def test_oracle_negative_count(self, capsys):
        code, _ = run_cli(
            capsys, "oracle", "compare", "--suite", "delta", "--count", "-2"
        )
        assert code == 1

    def test_nonreduced_input(self, capsys):
        code, _ = run_cli(
            capsys, "local", "analyze", "--char", "0", "--poly", "x^2"
        )
        assert code == 1

    def test_parse_error(self, capsys):
        code, _ = run_cli(
            capsys, "local", "analyze", "--char", "0", "--poly", "x +"
        )
        assert code == 1

    def test_deeply_nested_parentheses(self, capsys):
        # the recursive descent runs out of stack: bad input, not a defect
        text = "(" * 400 + "x" + ")" * 400
        code, _ = run_cli(capsys, "local", "analyze", "--char", "0", "--poly", text)
        assert code == 1

    @pytest.mark.parametrize("char", ["0", "5"])
    def test_chain_past_the_ceiling(self, capsys, char):
        # 1000 blow-ups of a valid germ: refused at the tree's ceiling, not
        # a stack overflow in the tree builder
        code = main(["local", "analyze", "--char", char, "--poly", "y^2-x^2001", "--json"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "MAX_CHAIN = 256" in err

    def test_nonhomogeneous_projective_input(self, capsys):
        code, _ = run_cli(
            capsys, "projective", "analyze", "--char", "0", "--poly", "x^2+y*z^2"
        )
        assert code == 1

    def test_dual_suite_wild_characteristic(self, capsys):
        # a characteristic the elimination oracle cannot use is bad input:
        # its precondition is a boundary check, not a library defect
        code = main(["oracle", "compare", "--suite", "dual", "--char", "3"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: tame characteristic required: zero or p > d(d-1)\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["local", "analyze", "--char", "4", "--poly", "x*y"], "4 is not prime"),
            (["corpus", "run", "--mix", "1,x"], "expected a comma-separated integer list, got '1,x'"),
            (["corpus", "run", "--char", "4", "--count", "1"],
             "characteristic 4 is neither 0 nor a prime"),
            (["corpus", "run", "--count", "-1"], "count must be nonnegative"),
            (["corpus", "run", "--max-degree", "0"], "max degree must be at least one"),
            (["corpus", "run", "--mix", "0,0,0"], "mix needs three nonnegative weights, not all zero"),
            (["oracle", "compare", "--suite", "delta", "--count", "-2"], "count must be nonnegative"),
            # refused before any work, with or without --emit-branches
            (["local", "analyze", "--char", "0", "--poly", "y^2-x^3", "--prec", "-3"],
             "prec must be nonnegative"),
        ],
    )
    def test_boundary_messages(self, capsys, argv, message):
        code = main(argv)
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_boundary_errors_are_unsupported_input(self):
        from curveinv.errors import UnsupportedInput
        from curveinv.field import FieldCtx

        with pytest.raises(UnsupportedInput, match="at least one characteristic is required"):
            CorpusSpec(chars=()).validate()
        with pytest.raises(UnsupportedInput, match="6 is not prime"):
            FieldCtx.prime(6)
        # library callers that catch ValueError see no change
        with pytest.raises(ValueError):
            CorpusSpec(count=-1).validate()

    def test_unknown_command(self, capsys):
        assert main(["bogus"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


class TestErrorContract:
    def test_stray_exception_exits_two_with_repro(self, capsys, monkeypatch):
        import curveinv.cli as cli

        def boom(*args, **kwargs):
            raise RuntimeError("tower\nbroke")

        monkeypatch.setattr(cli, "analyze_local", boom)
        code = main(["local", "analyze", "--char", "3", "--poly", "x^3+y^4"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1
        assert "RuntimeError" in err
        assert "repro: curveinv local analyze --char 3 --poly 'x^3+y^4'" in err

    def test_library_value_error_exits_two_with_repro(self, capsys, monkeypatch):
        # ValueError is not a usage error: only CurveInvError subclasses are
        import curveinv.cli as cli

        def boom(*args, **kwargs):
            raise ValueError("slipped")

        monkeypatch.setattr(cli, "analyze_local", boom)
        code = main(["local", "analyze", "--char", "3", "--poly", "x^3+y^4"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (
            "internal error: ValueError: slipped; "
            "repro: curveinv local analyze --char 3 --poly 'x^3+y^4'\n"
        )

    def test_usage_errors_are_the_package_own(self):
        import curveinv.cli as cli
        from curveinv.errors import CurveInvError

        assert all(issubclass(e, CurveInvError) for e in cli._USAGE_ERRORS)

    def test_corpus_item_records_stray_exception_and_run_continues(self, monkeypatch):
        import curveinv.corpus as corpus

        real = corpus.verify_relations

        def flaky(f):
            if str(f) == "y^2+x^3":
                raise AssertionError("stray")
            return real(f)

        monkeypatch.setattr(corpus, "verify_relations", flaky)
        items = [
            corpus.CorpusItem(0, 2, "y^2+x^3", "catalog", 1),
            corpus.CorpusItem(1, 0, "x*y", "catalog", 2),
        ]
        rows = corpus.run_corpus(items)
        assert rows[0]["relations"] == "error:AssertionError"
        assert rows[0]["status"] == "fail"
        assert rows[1]["status"] == "pass"

    def test_reader_closing_the_pipe_early_is_not_an_error(self):
        # about 1.2 MB of branch coefficients, of which the reader takes 100 bytes
        argv = ["local", "analyze", "--char", "2", "--poly", "y^2+x^3",
                "--emit-branches", "--prec", "40000", "--json"]
        src = str(Path(curveinv.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        with subprocess.Popen(
            [sys.executable, "-m", "curveinv.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as proc:
            head = proc.stdout.read(100)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert len(head) == 100
        assert (code, err) == (0, b"")

    def test_library_checks_survive_python_O(self):
        # `python -O` strips assert statements; internal checks raise
        # InternalCheckError instead, which the CLI maps to exit 2
        package = Path(curveinv.__file__).resolve().parent
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Assert)
        ]
        assert found == []

    def test_every_module_import_is_used(self):
        # a name a module imports at top level must be read somewhere in it:
        # in code, in a string annotation, or in __all__
        package = Path(curveinv.__file__).resolve().parent
        unused = []
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text())
            imported = {}
            for node in tree.body:
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        name = alias.asname or alias.name.split(".")[0]
                        imported[name] = node.lineno
            used = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    # string annotations and __all__ entries
                    try:
                        inner = ast.parse(node.value, mode="eval")
                    except SyntaxError:
                        continue
                    used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
            unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
        assert unused == []

    def test_every_private_name_is_used(self):
        # a private function, class or module constant must be read somewhere
        # in the package other than its own body, so a refactor that leaves a
        # helper behind fails here
        package = Path(curveinv.__file__).resolve().parent
        trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}

        def reads(node):
            return Counter(
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
            )

        def private(name):
            return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

        everywhere = sum((reads(tree) for tree in trees.values()), Counter())
        unused = []
        for name, tree in trees.items():
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and private(node.name):
                    if everywhere[node.name] == reads(node)[node.name]:
                        unused.append(f"{name}:{node.lineno} {node.name}")
            for node in tree.body:
                targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
                for target in targets:
                    if isinstance(target, ast.Name) and private(target.id) and not everywhere[target.id]:
                        unused.append(f"{name}:{node.lineno} {target.id}")
        assert unused == []

    def test_every_context_is_built_in_one_place(self):
        # _interned is the one caller of the constructor, so every context is
        # in the cache and equal presentations give the identical object
        package = Path(curveinv.__file__).resolve().parent
        found = []

        def visit(node, where, path):
            for child in ast.iter_child_nodes(node):
                func = child.func if isinstance(child, ast.Call) else None
                if getattr(func, "id", getattr(func, "attr", None)) == "FieldCtx":
                    found.append((path.name, where))
                inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
                visit(child, inner, path)

        for path in sorted(package.glob("*.py")):
            visit(ast.parse(path.read_text()), None, path)
        assert found == [("field.py", "_interned")]

    def test_each_edge_rule_and_reducedness_check_is_raised_in_one_place(self):
        # the main path and the resultant oracle share one set of edge rules,
        # and Germ and branch_decompose share one reducedness check
        package = Path(curveinv.__file__).resolve().parent
        found = {"UndefinedAtOrigin": set(), "NotReduced": set()}

        def visit(node, where, path):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call):
                    name = getattr(child.exc.func, "id", None)
                    if name in found:
                        found[name].add((path.name, where))
                inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
                visit(child, inner, path)

        for path in sorted(package.glob("*.py")):
            visit(ast.parse(path.read_text()), None, path)
        assert found == {
            "UndefinedAtOrigin": {("invariants.py", "_local_pair")},
            "NotReduced": {("hne.py", "_require_reduced")},
        }

    def test_every_coordinate_change_is_built_in_one_search(self):
        # the linear builder and the smooth draw make every CoordinateChange,
        # and gamma tries them all in one loop over _candidates
        package = Path(curveinv.__file__).resolve().parent
        found = []

        def visit(node, where, path):
            for child in ast.iter_child_nodes(node):
                func = child.func if isinstance(child, ast.Call) else None
                if getattr(func, "id", getattr(func, "attr", None)) == "CoordinateChange":
                    found.append((path.name, where))
                inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
                visit(child, inner, path)

        for path in sorted(package.glob("*.py")):
            visit(ast.parse(path.read_text()), None, path)
        assert found == [("invariants.py", "_linear_change"), ("invariants.py", "_candidates")]
        tree = ast.parse((package / "invariants.py").read_text())
        gamma = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "gamma")
        assert sum(isinstance(n, ast.For) for n in ast.walk(gamma)) == 1

    def test_only_split_factors_a_cone(self):
        # tangent cones and coordinates of singular points are split by
        # blowup.split, whose memo stands in front of the one factor() call
        package = Path(curveinv.__file__).resolve().parent
        found = []

        def visit(node, where, name):
            for child in ast.iter_child_nodes(node):
                func = child.func if isinstance(child, ast.Call) else None
                if getattr(func, "attr", None) == "factor":
                    found.append((name, where))
                inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
                visit(child, inner, name)

        for name in ("blowup.py", "hne.py", "projective.py", "invariants.py", "field.py"):
            visit(ast.parse((package / name).read_text()), None, name)
        assert found == [("blowup.py", "split")]

    def test_the_blow_up_tree_is_walked_without_recursion(self):
        # the tree builder in hne.py and the tree's nodes() and to_json() in
        # blowup.py each loop over a work list, so a long chain cannot
        # overflow the stack; only json.dumps(indent=2) of --emit-tree still
        # recurses per level, and hne.MAX_CHAIN bounds it
        package = Path(curveinv.__file__).resolve().parent
        recursive = []
        for name in ("hne.py", "blowup.py"):
            for fn in ast.walk(ast.parse((package / name).read_text())):
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for call in ast.walk(fn):
                        func = call.func if isinstance(call, ast.Call) else None
                        owner = getattr(func, "value", None)  # super().__init__ is the base's
                        if getattr(getattr(owner, "func", None), "id", None) == "super":
                            continue
                        if getattr(func, "id", getattr(func, "attr", None)) == fn.name:
                            recursive.append((name, fn.name))
        assert recursive == []

    def test_the_dual_recount_reads_no_main_path_invariant(self):
        # dual_degree_elim takes only the singular points' coordinates and
        # multiplicities from the main path, never a number it could copy
        source = Path(curveinv.__file__).resolve().parent / "oracle.py"
        banned = {"analyze_local", "germ", "kappa", "milnor", "delta", "plucker_analysis"}
        found, locus = [], []
        for fn in ast.parse(source.read_text()).body:
            if isinstance(fn, ast.FunctionDef) and fn.name in ("dual_degree_elim", "_one_frame"):
                for call in ast.walk(fn):
                    name = getattr(call.func, "id", getattr(call.func, "attr", None)) if isinstance(call, ast.Call) else None
                    if name in banned:
                        found.append((fn.name, name))
                    elif name == "singular_points":
                        locus.append([(k.arg, ast.literal_eval(k.value)) for k in call.keywords])
        assert found == []
        assert locus == [[("analyze", False)]]

    def test_every_traced_function_exists(self):
        # perfbench/layertrace.py wraps these by name, and one renamed or
        # deleted would break `perfbench/run.py --trace 1` without failing a test
        import importlib

        source = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
        traced = next(
            ast.literal_eval(node.value)
            for node in ast.parse(source.read_text()).body
            if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]
        )
        missing = []
        for module, path in traced:
            obj = importlib.import_module(f"curveinv.{module}")
            for part in path.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{module}.{path}")
        assert len(traced) > 20 and missing == []

    def test_no_bare_value_error_is_raised(self):
        # a check raises UnsupportedInput (bad input, still a ValueError) or
        # InternalCheckError (a defect); a bare ValueError says neither
        package = Path(curveinv.__file__).resolve().parent
        found = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                exc = node.exc if isinstance(node, ast.Raise) else None
                if isinstance(exc, ast.Call):
                    exc = exc.func
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []

    def test_every_context_kind_binds_every_op(self):
        from curveinv.field import _OPS, LOG_TABLE_MAX_ORDER, FieldCtx, _flat_finite_ctx

        qq = FieldCtx.rationals()
        qq_a = qq.extend([-2, 0, 1])
        kinds = {
            "F_p": FieldCtx.prime(7),
            "log-table F_q": _flat_finite_ctx(7, 3),
            "tuple F_q": _flat_finite_ctx(67, 2),
            "QQ": qq,
            "QQ(a)": qq_a,
            "QQ(a,b)": qq_a.extend([-3, 0, 1]),
        }
        assert kinds["log-table F_q"]._exp is not None
        assert kinds["tuple F_q"]._exp is None and kinds["tuple F_q"].order > LOG_TABLE_MAX_ORDER
        assert "rgcd" in _OPS
        unbound = [(kind, name) for kind, ctx in kinds.items() for name in _OPS if not callable(getattr(ctx, name))]
        assert unbound == []


def _value_error_sites():
    """The checks that raised a bare ValueError: each is reached by a public
    call, none from the command line."""
    from curveinv.algebra import MPoly, parse_poly
    from curveinv.field import FieldCtx
    from curveinv.invariants import multiplicity
    from curveinv.projective import PROJ_VARS, local_equation
    from curveinv.unipoly import UniPoly

    qq, f5 = FieldCtx.rationals(), FieldCtx.prime(5)
    cubic = parse_poly("x^3+y^3+z^3", f5, PROJ_VARS)
    return {
        "extend degree": (lambda: f5.extend([1, 1]), "extension degree must be at least 2"),
        "extend reducible mod p": (lambda: f5.extend([-1, 0, 1]), "modulus is reducible"),
        "extend reducible over QQ": (lambda: qq.extend([-4, 0, 1]), "modulus is reducible"),
        "gen": (lambda: qq.gen(), "context has no generator"),
        "element_at": (lambda: qq.element_at(0), "cannot index an infinite field"),
        "elements": (lambda: next(qq.elements()), "cannot enumerate an infinite field"),
        "multiplicity": (lambda: multiplicity(MPoly.zero(qq, ("x", "y"))), "the zero polynomial has no multiplicity"),
        "point (0:0:0)": (lambda: local_equation(cubic, (f5.zero,) * 3), r"\(0:0:0\) is not a projective point"),
        "point of two coordinates": (lambda: local_equation(cubic, (f5.one, f5.zero)), "a projective point needs three coordinates"),
        "negative power": (lambda: UniPoly(qq, [1, 1]) ** -1, "negative polynomial power"),
        "MPoly negative power": (lambda: parse_poly("x+y", qq) ** -1, "negative polynomial power"),
        "p-th root in char 0": (lambda: UniPoly(qq, [1, 1]).pth_root(), "p-th root needs positive characteristic"),
    }


@pytest.mark.parametrize("site", sorted(_value_error_sites()))
def test_former_value_error_sites(site):
    # a caller's bad argument is UnsupportedInput, so `except ValueError` still
    # catches it; the one precondition only the package's own code can break
    # (UniPoly.pth_root is called in characteristic p only) is a defect
    from curveinv.errors import InternalCheckError, UnsupportedInput

    call, message = _value_error_sites()[site]
    expected = InternalCheckError if site == "p-th root in char 0" else UnsupportedInput
    with pytest.raises(expected, match=message):
        call()


class TestNoThirdPartyDependency:
    def test_char_zero_towers_factor_with_sympy_blocked(self):
        # None in sys.modules makes every later `import sympy` raise ImportError.
        # The germ factors over QQ, QQ(a) and QQ(a,b), with Trager norms up to
        # degree 24 going through the factorizer over QQ.
        argv = ["local", "analyze", "--char", "0", "--poly", "y^3-2*x^3",
                "--emit-branches", "--emit-tree", "--json"]
        child = (
            "import sys\n"
            "sys.modules['sympy'] = None\n"
            "from curveinv.cli import main\n"
            f"raise SystemExit(main({argv!r}))\n"
        )
        src = str(Path(curveinv.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, env=env
        )
        golden = Path(__file__).resolve().parent / "golden" / "analyze_qq_tower_cubic.out"
        assert done.returncode == 0, done.stderr
        assert done.stdout == golden.read_text()


def test_local_analyze_loads_no_corpus_oracle_or_projective_module():
    argv = ["local", "analyze", "--char", "2", "--poly", "y^2+x^3", "--emit-branches", "--json"]
    child = (
        "import sys\n"
        "from curveinv.cli import main\n"
        f"code = main({argv!r})\n"
        "loaded = [m for m in ('curveinv.corpus', 'curveinv.oracle', 'curveinv.projective')"
        " if m in sys.modules]\n"
        "print(loaded, file=sys.stderr)\n"
        "raise SystemExit(code or (3 if loaded else 0))\n"
    )
    src = str(Path(curveinv.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stderr.strip() == "[]"
    assert json.loads(done.stdout)["mt"] == 2


def test_projective_names_are_served_on_first_use():
    import curveinv.projective

    assert curveinv.plucker_analysis is curveinv.projective.plucker_analysis
    assert set(curveinv.__all__) >= {"PluckerReport", "singular_points"}
    with pytest.raises(AttributeError):
        curveinv.no_such_name
