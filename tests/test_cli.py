import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankdual import (
    branching_greedoid,
    contract,
    delete,
    demo_rooted_tree,
    dual,
    dump_rank_table,
    parse_document,
    uniform_matroid,
)
from rankdual import cli, verify
from rankdual.cli import run_command

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
TABLE_DOC = str(FIXTURES / "branching_demo_table.json")
GRAPH_DOC = str(FIXTURES / "branching_demo.json")
TREE_DOC = str(FIXTURES / "pruning_demo.json")
UNIFORM_DOC = str(FIXTURES / "uniform_u23.json")


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tutte_golden_output(capsys):
    code, out, _ = run(capsys, "tutte", "--in", TABLE_DOC)
    assert code == 0
    assert out.strip() == "t^3*z + t^3 + t^2*z + 2*t^2 + 2*t + 1"


def test_tutte_recursive_matches(capsys):
    _, subset_out, _ = run(capsys, "tutte", "--in", TABLE_DOC)
    code, rec_out, _ = run(capsys, "tutte", "--in", TABLE_DOC, "--method", "recursive", "--pivot", "highest")
    assert code == 0 and rec_out == subset_out


@pytest.mark.parametrize("method", [(), ("--method", "subset")])
@pytest.mark.parametrize("pivot", ["lowest", "highest"])
def test_tutte_rejects_a_pivot_unless_recursive(capsys, method, pivot):
    code, out, err = run(capsys, "tutte", "--in", TABLE_DOC, *method, "--pivot", pivot)
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: --pivot applies only to --method recursive"]


def test_tutte_recursive_pivot_defaults_to_lowest(capsys):
    _, lowest, _ = run(capsys, "tutte", "--in", TABLE_DOC, "--method", "recursive", "--pivot", "lowest")
    code, out, _ = run(capsys, "tutte", "--in", TABLE_DOC, "--method", "recursive")
    assert code == 0 and out == lowest


def test_check_matroid_fails_with_witness(capsys):
    code, out, _ = run(capsys, "check", "matroid", "--in", TABLE_DOC)
    assert code == 1
    assert "R1: fail (A={b}, p=a)" in out
    assert out.strip().endswith("overall: fail")


def test_check_greedoid_passes(capsys):
    code, out, _ = run(capsys, "check", "greedoid", "--in", TABLE_DOC)
    assert code == 0
    assert "overall: pass" in out


def test_check_demimatroid_triple_flag(capsys):
    code, out, _ = run(capsys, "check", "demimatroid", "--in", TABLE_DOC, "--s-in", TABLE_DOC)
    assert code == 1
    assert "system: demi-matroid-triple" in out


@pytest.mark.parametrize("system", [c for c in cli.CHECKS if c != "demimatroid"])
def test_check_rejects_s_in_unless_demimatroid(capsys, monkeypatch, tmp_path, system):
    second = str(tmp_path / "missing.json")
    read = []
    load = cli._load_table
    monkeypatch.setattr(cli, "_load_table", lambda path: read.append(path) or load(path))
    code, out, err = run(capsys, "check", system, "--in", UNIFORM_DOC, "--s-in", second)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: --s-in applies only to check demimatroid, not {system}"]
    assert second not in read


def test_dual_emits_round_trippable_document(capsys):
    code, out, _ = run(capsys, "dual", "--in", TABLE_DOC)
    assert code == 0
    kind, table = parse_document(out)
    assert kind == "rank-table"
    assert table == dual(branching_greedoid(demo_rooted_tree()))


def test_emit_and_reread_round_trip(tmp_path, capsys):
    g = branching_greedoid(demo_rooted_tree())
    path = tmp_path / "table.json"
    path.write_text(dump_rank_table(g), encoding="utf-8")
    code, out, _ = run(capsys, "delete", "-p", "a", "--in", str(path))
    assert code == 0
    _, table = parse_document(out)
    assert table == delete(g, "a")


def test_contract_and_minor_commands(capsys):
    g = branching_greedoid(demo_rooted_tree())
    code, out, _ = run(capsys, "contract", "-p", "a", "--in", TABLE_DOC)
    assert code == 0
    assert parse_document(out)[1] == contract(g, "a")

    code, out, _ = run(capsys, "minor", "--contract", "a", "--delete", "b", "--in", TABLE_DOC)
    assert code == 0
    assert parse_document(out)[1].values == (0, 1)


def test_sum_command(tmp_path, capsys):
    from rankdual import GroundSet, table_from_values

    single = table_from_values(GroundSet(("q",)), (0, 1))
    path = tmp_path / "single.json"
    path.write_text(dump_rank_table(single), encoding="utf-8")
    code, out, _ = run(capsys, "sum", "--in", TABLE_DOC, "--in", str(path))
    assert code == 0
    assert parse_document(out)[1].ground.labels == ("a", "b", "c", "q")

    code, _, err = run(capsys, "sum", "--in", TABLE_DOC)
    assert code == 2 and "two" in err


def test_closure_command(capsys):
    code, out, _ = run(capsys, "build", "pruning", "--in", TREE_DOC)
    assert code == 0


def test_closure_on_pruning_table(tmp_path, capsys):
    code, out, _ = run(capsys, "build", "pruning", "--in", TREE_DOC)
    path = tmp_path / "pruning.json"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "closure", "--set", "b,e,h", "--in", str(path))
    assert code == 0
    assert out.strip() == "closure: {b,c,d,e,h}"


def test_feasible_command(capsys):
    code, out, _ = run(capsys, "feasible", "--in", TABLE_DOC)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "feasible: {} {a} {c} {a,b} {a,c} {a,b,c}"
    assert lines[1] == "bases: {a,b,c}"
    assert lines[3] == "full: true"
    assert lines[4] == "loops: (none)"


def test_build_branching_matches_fixture_table(capsys):
    code, out, _ = run(capsys, "build", "branching", "--in", GRAPH_DOC)
    assert code == 0
    assert parse_document(out)[1] == branching_greedoid(demo_rooted_tree())


def test_build_uniform(capsys):
    code, out, _ = run(capsys, "build", "uniform", "--in", UNIFORM_DOC)
    assert code == 0
    assert parse_document(out)[1].values == (0, 1, 1, 2, 1, 2, 2, 2)


def test_build_kind_mismatch(capsys):
    code, _, err = run(capsys, "build", "branching", "--in", TREE_DOC)
    assert code == 2 and "expected a rooted-graph" in err


def test_enumerate_command(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "2", "--constraint", "greedoid")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8 and lines[-1] == "count: 7"
    assert lines[0] == "ranks: 0 0 0 0"

    code, out, _ = run(capsys, "enumerate", "--n", "2", "--constraint", "greedoid", "--count-only")
    assert out.strip() == "count: 7"


def test_enumerate_output_is_pinned():
    # every table of every constraint at n = 0..4, in CONSTRAINTS order
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for constraint in verify.CONSTRAINTS:
            for n in range(5):
                with pytest.raises(SystemExit) as exc:
                    cli.main(["enumerate", "--n", str(n), "--constraint", constraint])
                assert exc.value.code == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == "2237884e98d0918b6bbc2fb99d52830ed9df9db29b5ebbb94e8a39f569d43314"


def test_python_dash_m_rankdual_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    argv = ["enumerate", "--n", "2", "--constraint", "matroid", "--count-only"]
    package, module = (
        subprocess.run([sys.executable, "-m", entry, *argv], capture_output=True, text=True,
                       env=env, timeout=60)
        for entry in ("rankdual", "rankdual.cli")
    )
    assert package.returncode == module.returncode == 0, package.stderr
    assert package.stdout == module.stdout == "count: 5\n"


@pytest.mark.parametrize(
    "argv, lines",
    [
        # 117 kB of output, more than the pipe and the child's buffer hold
        (["enumerate", "--n", "4", "--constraint", "greedoid"], 1),
        # output that the child's buffer holds until its last flush
        (["dual", "--in", "fixtures/branching_demo_table.json"], 0),
    ],
)
def test_a_closed_stdout_ends_the_command_quietly(argv, lines):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    child = subprocess.Popen([sys.executable, "-m", "rankdual", *argv], cwd=root, env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    for _ in range(lines):
        assert child.stdout.readline().startswith(b"ranks: ")
    child.stdout.close()
    try:
        stderr = child.stderr.read()
        assert child.wait(timeout=60) == 0
    finally:
        child.kill()
        child.stderr.close()
    assert stderr == b""


def test_running_out_of_memory_is_exit_2_without_a_traceback(tmp_path):
    resource = pytest.importorskip("resource")
    # within a 60 MB address space the CLI starts and reads the n = 10
    # documents (128 kB), but runs out of memory on the n = 17 ones: the
    # writer's layout (23 MB), which the layout reader takes, and the same
    # table without whitespace (9 MB), which json.loads decodes; all fit in
    # about 100 MB
    limit = 60 << 20

    def capped():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    runs = {}
    for n in (10, 17):
        text = dump_rank_table(uniform_matroid([f"e{i}" for i in range(n)], n // 2))
        for layout, doc in (("canonical", text), ("compact", "".join(text.split()))):
            path = tmp_path / f"uniform{n}_{layout}.json"
            path.write_text(doc)
            runs[n, layout] = subprocess.run(
                [sys.executable, "-m", "rankdual", "tutte", "--in", str(path)],
                capture_output=True, text=True, env=env, preexec_fn=capped, timeout=60,
            )
    for layout in ("canonical", "compact"):
        assert runs[10, layout].returncode == 0, runs[10, layout].stderr
        assert (runs[17, layout].returncode, runs[17, layout].stdout) == (2, "")
        assert runs[17, layout].stderr == "error: out of memory running tutte\n"


def test_running_out_of_memory_while_parsing_is_exit_2(monkeypatch, capsys):
    def exhausted():
        raise MemoryError

    monkeypatch.setattr(cli, "build_parser", exhausted)
    assert run_command(["tutte", "--in", "table.json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: out of memory parsing the command line\n"


def test_verify_help_lists_every_declared_param(capsys):
    with pytest.raises(SystemExit) as exc:
        run_command(["verify", "--help"])
    assert exc.value.code == 0
    # one section per suite: its name on a line, then its wrapped params
    sections = {}
    name = None
    for line in capsys.readouterr().out.split("suite params", 1)[1].splitlines()[1:]:
        if line.startswith("    "):
            sections[name] += " " + line.strip()
        else:
            name = line.strip().removesuffix(":")
            sections[name] = ""
    assert set(sections) == set(verify.SUITES) | {"every suite"}
    declared = {name: suite.params for name, suite in verify.SUITES.items()}
    declared["every suite"] = verify._RUN_PARAMS
    for name, params in declared.items():
        for key, param in params.items():
            default = " (required)" if param.default is None else f"={param.default}"
            assert f"{key}{default}" in sections[name], (name, key)
            if param.range_text():
                assert f"{key}{default} ({param.range_text()})" in sections[name], (name, key)


def test_enumerate_rejects_large_n(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "9", "--constraint", "greedoid")
    assert code == 2 and "too large" in err


def test_enumerate_rejects_negative_n(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "-1", "--constraint", "matroid")
    assert code == 2 and out == ""
    assert err == "error: n = -1 is negative; a ground set has 0 or more elements\n"


def test_verify_command(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "duality_swap", "--seed", "11", "--params", "count=25"
    )
    assert code == 0
    assert "suite: duality_swap" in out
    assert "result: pass" in out
    assert "elapsed" not in out

    code, out, _ = run(
        capsys, "verify", "--suite", "branching_goldens", "--timing"
    )
    assert code == 0 and "elapsed" in out


def test_verify_requires_seed_for_randomized_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "involution")
    assert code == 2 and "seed" in err


@pytest.mark.parametrize(
    "suite, key, value",
    [
        ("involution", "count", "abc"),
        ("branching_goldens", "fail_fast", "false"),
        ("exchange", "max_failures", "all"),
    ],
)
def test_verify_rejects_non_integer_param(capsys, suite, key, value):
    code, out, err = run(
        capsys, "verify", "--suite", suite, "--seed", "1", "--params", f"{key}={value}"
    )
    assert code == 2 and out == ""
    assert err == f"error: {key} must be an integer, got {value!r}\n"


@pytest.mark.parametrize(
    "suite",
    [
        "contract_feasibility",
        "minor_agreement",
        "dual_greedoid_axioms",
        "greedoid_intersection",
        "full_dual_nonpositive",
        "closure_dual_rank",
        "convex_zero_dual",
        "nullity_monotone",
        "demimatroid_characterization",
    ],
)
@pytest.mark.parametrize("n", ["5", "-1"])
def test_verify_rejects_enumeration_size_out_of_range(capsys, suite, n):
    code, out, err = run(capsys, "verify", "--suite", suite, "--seed", "1", "--params", f"n={n}")
    assert code == 2 and out == ""
    assert err == f"error: n = {n} out of range for exhaustive enumeration (0 to 4)\n"


@pytest.mark.parametrize(
    "suite, params",
    [("involution", "count=-5"), ("involution", "count=0"), ("direct_sum_dual", "count=0")],
)
def test_verify_rejects_a_run_without_instances(capsys, suite, params):
    code, out, err = run(capsys, "verify", "--suite", suite, "--seed", "1", "--params", params)
    assert code == 2 and out == ""
    assert err == f"error: suite {suite!r} checked no instances with these params\n"


@pytest.mark.parametrize(
    "suite, params, unknown, accepted",
    [
        ("involution", "cout=3", "cout", "count, fail_fast, hi, lo, max_failures, max_n, seed"),
        ("branching_goldens", "n=3,zz=1", "n, zz", "fail_fast, max_failures, seed"),
        ("root_adjacency", "max_edge=3", "max_edge", "fail_fast, max_edges, max_failures, seed"),
        ("greedoid_intersection", "threads=2", "threads", "fail_fast, max_failures, n, seed"),
        ("greedoid_intersection", "workers=2", "workers", "fail_fast, max_failures, n, seed"),
    ],
)
def test_verify_rejects_unknown_params(capsys, suite, params, unknown, accepted):
    code, out, err = run(capsys, "verify", "--suite", suite, "--seed", "1", "--params", params)
    assert code == 2 and out == ""
    assert err == f"error: unknown params for suite {suite!r}: {unknown}; accepted: {accepted}\n"


@pytest.mark.parametrize(
    "suite, params",
    [
        ("involution", "count=3,max_n=2,lo=0,hi=1,max_failures=5"),
        ("recursion_oracle", "count=3,strategies=lowest"),
        ("nullity_monotone", "n=1,count=3,max_n=2"),
        ("closure_dual_rank", "n=1,max_tree_edges=2"),
        ("pruning_goldens", "max_failures=1"),
    ],
)
def test_verify_accepts_declared_params(capsys, suite, params):
    code, out, _ = run(capsys, "verify", "--suite", suite, "--seed", "1", "--fail-fast", "--params", params)
    assert code == 0 and out.endswith("result: pass\n")


def test_verify_params_value_may_hold_commas(capsys):
    code, out, err = run(
        capsys, "verify", "--suite", "recursion_oracle", "--seed", "1",
        "--params", "count=3,strategies=lowest,highest",
    )
    assert code == 0 and err == ""
    assert "params: count=3 seed=1 strategies=lowest,highest\n" in out
    assert "instances: 6\n" in out and out.endswith("result: pass\n")


def test_verify_report_echoes_params_as_given(capsys):
    # run_suite converts each value, so the CLI report is the library's
    code, out, _ = run(capsys, "verify", "--suite", "duality_swap", "--seed", "1", "--params", "count=007")
    assert code == 0 and "params: count=007 seed=1\n" in out
    assert out == verify.run_suite("duality_swap", {"seed": 1, "count": "007"}).to_report() + "\n"


def test_verify_checks_a_seed_the_suite_ignores(capsys):
    code, out, err = run(capsys, "verify", "--suite", "branching_goldens", "--params", "seed=abc")
    assert (code, out, err) == (2, "", "error: seed must be an integer, got 'abc'\n")
    code, out, err = run(capsys, "verify", "--suite", "branching_goldens", "--seed", "5")
    assert code == 0 and err == "" and "params: seed=5\n" in out


@pytest.mark.parametrize("raw", ["seed=1,seed=2", "count=3,seed=1,count=3", "seed=1,highest,seed=1"])
def test_verify_params_reject_a_repeated_key(capsys, raw):
    key = raw.split("=", 1)[0]
    code, out, err = run(capsys, "verify", "--suite", "recursion_oracle", "--params", raw)
    assert (code, out, err) == (2, "", f"error: --params gives {key!r} more than once\n")


@pytest.mark.parametrize(
    "flags, key",
    [(["--seed", "1", "--params", "seed=2"], "seed"), (["--fail-fast", "--params", "fail_fast=0"], "fail_fast")],
)
def test_verify_rejects_a_key_given_by_params_and_a_flag(capsys, flags, key):
    code, out, err = run(capsys, "verify", "--suite", "duality_swap", *flags)
    flag = "--" + key.replace("_", "-")
    assert (code, out, err) == (2, "", f"error: --params gives {key!r}, and so does {flag}\n")


@pytest.mark.parametrize("raw", ["highest,count=3", "highest"])
def test_verify_params_reject_a_leading_bare_piece(capsys, raw):
    code, out, err = run(capsys, "verify", "--suite", "recursion_oracle", "--seed", "1", "--params", raw)
    assert code == 2 and out == ""
    assert err == "error: bad --params entry 'highest'; expected key=value\n"


@pytest.mark.parametrize(
    "suite, params, message",
    [
        ("involution", "max_n=-2", "max_n = -2 out of range (0 to 12)"),
        ("nullity_monotone", "max_n=13", "max_n = 13 out of range (0 to 12)"),
        ("direct_sum_dual", "max_n=9", "max_n = 9 out of range (0 to 8)"),
        ("involution", "lo=5,hi=1", "lo = 5 exceeds hi = 1"),
        ("involution", "lo=9", "lo = 9 exceeds hi = 8"),
        ("direct_sum_dual", "hi=-4", "lo = -3 exceeds hi = -4"),
        ("exchange", "lo=-268435457", "lo = -268435457 out of range (-268435456 to 268435456)"),
        ("root_adjacency", "max_edges=8", "max_edges = 8 out of range (0 to 7)"),
        ("root_adjacency", "max_edges=-1", "max_edges = -1 out of range (0 to 7)"),
        ("closure_dual_rank", "max_tree_edges=13", "max_tree_edges = 13 out of range (0 to 12)"),
        ("convex_zero_dual", "max_tree_edges=-1", "max_tree_edges = -1 out of range (0 to 12)"),
        ("branching_goldens", "fail_fast=2", "fail_fast = 2 out of range (0 to 1)"),
        ("involution", "fail_fast=-1", "fail_fast = -1 out of range (0 to 1)"),
        ("pruning_goldens", "max_failures=0", "max_failures = 0 out of range (1 or more)"),
        ("exchange", "max_failures=-1", "max_failures = -1 out of range (1 or more)"),
        ("involution", "count=100001", "count = 100001 out of range (at most 100000)"),
        ("direct_sum_dual", "count=100001", "count = 100001 out of range (at most 100000)"),
    ],
)
def test_verify_rejects_params_out_of_range(capsys, monkeypatch, suite, params, message):
    def refuse(params, rec):
        raise AssertionError("the suite ran")

    monkeypatch.setitem(verify.SUITES, suite, verify.SUITES[suite]._replace(run=refuse))
    code, out, err = run(capsys, "verify", "--suite", suite, "--seed", "1", "--params", params)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "suite, params",
    [
        ("involution", "max_n=12,lo=-268435456,hi=268435456"),
        ("involution", "max_n=0,lo=4,hi=4"),
        ("direct_sum_dual", "max_n=8"),
        ("root_adjacency", "max_edges=7"),
        ("closure_dual_rank", "max_tree_edges=11"),
        ("closure_dual_rank", "max_tree_edges=12"),
        ("branching_goldens", "fail_fast=0,max_failures=1"),
        ("involution", "fail_fast=1,max_failures=1000000"),
        ("involution", "count=100000"),
        ("direct_sum_dual", "count=100000"),
    ],
)
def test_verify_accepts_params_at_the_range_ends(capsys, monkeypatch, suite, params):
    def one_instance(params, rec):
        rec.check(True, "stand-in", "range check passed")

    monkeypatch.setitem(verify.SUITES, suite, verify.SUITES[suite]._replace(run=one_instance))
    code, out, _ = run(capsys, "verify", "--suite", suite, "--seed", "1", "--params", params)
    assert code == 0 and out.endswith("result: pass\n")


def test_byte_identical_reruns(capsys):
    _, first, _ = run(capsys, "verify", "--suite", "duality_swap", "--seed", "5", "--params", "count=20")
    _, second, _ = run(capsys, "verify", "--suite", "duality_swap", "--seed", "5", "--params", "count=20")
    assert first == second
    _, a, _ = run(capsys, "tutte", "--in", TABLE_DOC)
    _, b, _ = run(capsys, "tutte", "--in", TABLE_DOC)
    assert a == b


def test_malformed_document_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "rank-table",\n  "ground": [}\n', encoding="utf-8")
    code, _, err = run(capsys, "tutte", "--in", str(path))
    assert code == 2
    assert "line 2" in err


def test_incomplete_rank_table_document(tmp_path, capsys):
    doc = {
        "kind": "rank-table",
        "ground": ["a", "b"],
        "ranks": [
            {"subset": [], "rank": 0},
            {"subset": ["a"], "rank": 1},
            {"subset": ["b"], "rank": 1},
        ],
    }
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "tutte", "--in", str(path))
    assert code == 2 and "missing subset" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "tutte", "--in", "/nonexistent/table.json")
    assert code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        run_command(["tutte"])
    assert info.value.code == 2


def test_document_rejects_duplicate_labels_in_subset():
    from rankdual import DocumentError

    doc = json.dumps(
        {
            "kind": "rank-table",
            "ground": ["a"],
            "ranks": [
                {"subset": [], "rank": 0},
                {"subset": ["a", "a"], "rank": 1},
            ],
        }
    )
    with pytest.raises(DocumentError, match="duplicate"):
        parse_document(doc)


def test_document_rejects_unknown_kind_and_bad_rank():
    from rankdual import DocumentError

    with pytest.raises(DocumentError, match="kind"):
        parse_document('{"kind": "polytope"}')
    doc = json.dumps(
        {
            "kind": "rank-table",
            "ground": ["a"],
            "ranks": [{"subset": [], "rank": 0}, {"subset": ["a"], "rank": True}],
        }
    )
    with pytest.raises(DocumentError, match="integer"):
        parse_document(doc)


def test_build_rejects_a_tree_without_vertices(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"kind": "tree", "vertices": [], "edges": []}', encoding="utf-8")
    code, out, err = run(capsys, "build", "pruning", "--in", str(path))
    assert code == 2 and out == ""
    assert err == "error: a tree needs at least one vertex\n"


def test_uniform_document_validation():
    from rankdual import DocumentError

    with pytest.raises(DocumentError, match="k must be"):
        parse_document('{"kind": "uniform", "labels": ["a"], "k": "two"}')


@pytest.mark.parametrize(
    "content, message",
    [
        (b'\xff{"kind": "uniform"}', "not UTF-8 text (byte 0: invalid start byte)"),
        (b"[" * 100000 + b"]" * 100000, "invalid JSON: arrays or objects nested too deeply"),
        (
            b'{"kind": "rank-table", "ground": [], "ranks": [{"subset": [], "rank": '
            + b"7" * 5000 + b"}]}",
            f"invalid JSON: a number has more than {sys.get_int_max_str_digits()} digits",
        ),
    ],
)
def test_undecodable_document_text_is_an_input_error(tmp_path, capsys, content, message):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "tutte", "--in", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path}: {message}\n"


# --- fuzz: mutated structure documents through build ------------------------

STRUCTURE_DOCS = {
    "branching": {
        "kind": "rooted-graph",
        "vertices": ["r", "x", "y", "z"],
        "root": "r",
        "edges": [
            {"label": "a", "ends": ["r", "x"]},
            {"label": "b", "ends": ["x", "y"]},
            {"label": "c", "ends": ["r", "y"]},
            {"label": "d", "ends": ["y", "z"]},
        ],
    },
    "pruning": {
        "kind": "tree",
        "vertices": ["u", "v", "w", "x"],
        "edges": [
            {"label": "a", "ends": ["u", "v"]},
            {"label": "b", "ends": ["v", "w"]},
            {"label": "c", "ends": ["v", "x"]},
        ],
    },
    "uniform": {"kind": "uniform", "labels": ["a", "b", "c"], "k": 2},
}
ODD_VALUES = (
    None, True, 0, -1, 3, 10**30, 2.5, "", "r", "u", "a", "zz", [], ["r"], ["u", "u"],
    ["a", "b", "c", "d"], {}, {"label": "a"}, {"label": "e", "ends": ["u", "x"]}, "tree",
)


def _locations(node, found):
    """Every (container, key) pair inside a parsed document."""
    keys = range(len(node)) if isinstance(node, list) else list(node) if isinstance(node, dict) else ()
    for key in keys:
        found.append((node, key))
        _locations(node[key], found)
    return found


def mutate_structure(doc, data):
    found = [(node, key) for node, key in _locations(doc, []) if key != "kind"]
    action = data.draw(st.sampled_from(("replace", "delete", "duplicate", "copy", "kind")))
    if action == "kind" or not found:
        doc["kind"] = data.draw(st.sampled_from(("rank-table", "tree", "uniform", "polytope", None)))
        return
    container, key = data.draw(st.sampled_from(found))
    if action == "replace":
        container[key] = json.loads(json.dumps(data.draw(st.sampled_from(ODD_VALUES))))
    elif action == "delete":
        del container[key]
    elif action == "duplicate" and isinstance(container, list):
        container.insert(key, json.loads(json.dumps(container[key])))
    elif action == "copy":
        other, other_key = data.draw(st.sampled_from(found))
        if other_key in other if isinstance(other, dict) else other_key < len(other):
            container[key] = json.loads(json.dumps(other[other_key]))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(STRUCTURE_DOCS)), st.data())
def test_fuzzed_structure_documents_build_or_exit_2(source, data):
    # mostly the build that the document is for; sometimes another one
    structure = source if data.draw(st.booleans()) else data.draw(st.sampled_from(sorted(STRUCTURE_DOCS)))
    doc = json.loads(json.dumps(STRUCTURE_DOCS[source]))
    for _ in range(data.draw(st.integers(1, 3))):
        mutate_structure(doc, data)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(["build", structure, "--in", str(path)])
    if code == 0:
        assert err.getvalue() == ""
        assert parse_document(out.getvalue())[0] == "rank-table"
    else:
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


# --- fuzz: --params strings through verify ------------------------------------

PARAM_VALUES = st.one_of(
    st.integers(-20, 20).map(str),
    st.sampled_from(("-268435457", "268435456", "1" * 30, "", "x", "1.5", "true", "false", "=", " 3")),
)


def params_string(data, suite):
    keys = sorted({"seed", *verify._RUN_PARAMS, *verify.SUITES[suite].params})
    pieces = []
    for _ in range(data.draw(st.integers(0, 4))):
        kind = data.draw(st.sampled_from(("declared", "declared", "junk", "bare", "empty")))
        if kind == "bare":
            pieces.append(data.draw(st.sampled_from(("lowest", "3", "n", "x y"))))
        elif kind == "empty":
            pieces.append("")
        else:
            key = data.draw(st.sampled_from(keys) if kind == "declared" else st.text("abz_=", max_size=4))
            pieces.append(f"{key}={data.draw(PARAM_VALUES)}")
    return ",".join(pieces)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(verify.SUITES)), st.booleans(), st.data())
def test_fuzzed_verify_params_run_or_exit_2(suite, seeded, data):
    def one_instance(params, rec):
        rec.check(True, "stand-in", "params resolved")

    argv = ["verify", "--suite", suite, f"--params={params_string(data, suite)}"]
    if seeded:
        argv += ["--seed", "7"]
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(verify.SUITES, suite, verify.SUITES[suite]._replace(run=one_instance))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(argv)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 0:
        assert err.getvalue() == "" and out.getvalue().endswith("result: pass\n")
    else:
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


# --- fuzz: argv of the other commands -----------------------------------------

LABEL_LISTS = st.text(alphabet="abcx,-", max_size=6)


def _argv_cases():
    return st.one_of(
        st.builds(lambda label: ["delete", "--in", TABLE_DOC, "-p", label], LABEL_LISTS),
        st.builds(
            lambda c, d: ["minor", "--in", TABLE_DOC, "--contract", c, "--delete", d],
            LABEL_LISTS,
            LABEL_LISTS,
        ),
        st.builds(lambda labels: ["closure", "--in", TABLE_DOC, "--set", labels], LABEL_LISTS),
        st.builds(
            lambda n, constraint: ["enumerate", "--n", str(n), "--constraint", constraint, "--count-only"],
            st.integers(-3, 9),
            st.sampled_from(verify.CONSTRAINTS),
        ),
        st.builds(
            lambda n: ["verify", "--suite", "greedoid_intersection", "--params", f"n={n}"],
            st.integers(-2, 6),
        ),
    )


@settings(max_examples=300, deadline=None)
@given(_argv_cases())
def test_fuzzed_argv_exits_0_1_or_2_without_a_traceback(argv):
    def one_instance(params, rec):
        rec.check(True, "stand-in", "params resolved")

    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        # the input checks run; no enumeration does
        mp.setattr(cli, "enumerate_tables", lambda spec: iter(()))
        suite = verify.SUITES["greedoid_intersection"]
        mp.setitem(verify.SUITES, "greedoid_intersection", suite._replace(run=one_instance))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run_command(argv)
            except SystemExit as exc:  # argparse rejects the argv itself
                code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().count("error: ") == 1
    else:
        assert err.getvalue() == ""
