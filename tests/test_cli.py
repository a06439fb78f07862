"""CLI dispatch, formats, and exit codes."""

import ast
import json
import time
from pathlib import Path

import pytest

import xfc.search
from xfc.cli import BOUNDS, main
from xfc.designs import sts, write_design
from xfc.matrix import read_matrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_kms(capsys):
    code, out, _ = run(capsys, "construct", "kms", "--m", "7", "--s", "3")
    assert code == 0
    A = read_matrix(out)
    assert (A.m, A.ncols) == (7, 35)


def test_construct_meta_record(capsys, tmp_path):
    target = tmp_path / "genl.mat"
    code, out, _ = run(
        capsys, "construct", "genl-equality", "--t", "2", "--l", "1",
        "--lambda", "1", "--m", "7", "--meta", "-o", str(target),
    )
    assert code == 0
    record = json.loads(out)
    assert record["ncols"] == 37
    assert record["claimed_bound"] == {"numerator": 37, "denominator": 1, "floor": 37}
    assert record["avoided_configuration"] == "3,2,1"
    assert record["verified"] is True
    assert read_matrix(target.read_text()).ncols == 37


def test_format_closure_construct_to_contains(capsys, tmp_path):
    target = tmp_path / "m.mat"
    code, _, _ = run(capsys, "construct", "genl-equality", "--t", "2", "--l", "1",
                     "--lambda", "1", "--m", "7", "-o", str(target))
    assert code == 0
    code, out, _ = run(capsys, "contains", "--config", "3,2,1", "--matrix", str(target), "--json")
    assert code == 0
    assert json.loads(out)["contains"] is False
    # negative verdict under --quiet maps to exit 1
    code, out, _ = run(capsys, "contains", "--config", "3,2,1", "--matrix", str(target), "--quiet")
    assert code == 1 and out == ""
    code, _, _ = run(capsys, "contains", "--config", "1,1,0", "--matrix", str(target), "--quiet")
    assert code == 0


def test_construct_with_explicit_design_file(capsys, tmp_path):
    des = tmp_path / "fano.des"
    des.write_text(write_design(sts(7)))
    code, out, _ = run(capsys, "construct", "genl-equality", "--t", "2", "--l", "1",
                       "--lambda", "1", "--m", "7", "--design", str(des))
    assert code == 0
    assert read_matrix(out).ncols == 37
    # a design file with the wrong parameters fails closed
    code, _, err = run(capsys, "construct", "genl-equality", "--t", "2", "--l", "1",
                       "--lambda", "2", "--m", "7", "--design", str(des))
    assert code == 2 and "error" in err


def test_contains_general_pattern_file(capsys, tmp_path):
    mat = tmp_path / "a.mat"
    pat = tmp_path / "p.mat"
    run(capsys, "construct", "kms", "--m", "3", "--s", "1", "-o", str(mat))
    pat.write_text("2 2\n10\n01\n")
    code, out, _ = run(capsys, "contains", "--config-file", str(pat), "--matrix", str(mat), "--json")
    assert code == 0
    assert json.loads(out)["contains"] is True


def test_verify_design_exit_codes(capsys, tmp_path):
    good = tmp_path / "good.des"
    good.write_text(write_design(sts(7)))
    code, out, _ = run(capsys, "verify-design", str(good))
    assert code == 0
    assert json.loads(out)["valid"] is True

    bad = tmp_path / "bad.des"
    d = sts(7)
    text = write_design(type(d)(7, 3, 2, 1, d.blocks[1:]))
    bad.write_text(text.replace("7 3 2 1 6", "7 3 2 1 6"))
    code, out, _ = run(capsys, "verify-design", str(bad))
    assert code == 1
    verdict = json.loads(out)
    assert verdict["valid"] is False and verdict["witness"]["count"] == 0


def test_bounds_subcommand(capsys):
    code, out, _ = run(capsys, "bounds", "genl", "--t", "2", "--l", "1", "--lambda", "1", "--m", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["floor"] == 37
    assert payload["exact_denominator"] == 1
    code, out, _ = run(capsys, "bounds", "turan", "--m", "7", "--t", "2", "--k", "3")
    payload = json.loads(out)
    assert (payload["exact_numerator"], payload["exact_denominator"]) == (49, 4)


def test_bounds_rejects_bad_params(capsys):
    code, _, err = run(capsys, "bounds", "q10-upper", "--q", "3", "--m", "2")
    assert code == 2 and "error" in err


def test_bounds_missing_flags_are_named(capsys):
    code, out, err = run(capsys, "bounds", "genl", "--m", "7")
    assert code == 2 and out == ""
    assert "missing required flag(s): --t, --l, --lambda" in err


@pytest.mark.parametrize("formula", sorted(BOUNDS))
def test_bounds_without_flags_is_usage_error(capsys, formula):
    code, out, err = run(capsys, "bounds", formula)
    assert code == 2 and out == ""
    assert "missing required flag(s)" in err and "NoneType" not in err


def test_bounds_pigeonhole(capsys):
    code, out, _ = run(capsys, "bounds", "pigeonhole", "--t", "2", "--l", "1",
                       "--lambda", "1", "--m", "7", "--profile", "21,7,0")
    assert code == 0
    payload = json.loads(out)
    assert (payload["lhs"], payload["rhs"], payload["holds"]) == (189, 210, True)


def test_analyze_reports_json(capsys, tmp_path):
    mat = tmp_path / "a.mat"
    run(capsys, "construct", "genl-equality", "--t", "2", "--l", "1", "--lambda", "1",
        "--m", "7", "-o", str(mat))
    code, out, _ = run(capsys, "analyze", "--matrix", str(mat), "--t", "2", "--l", "1",
                       "--lambda", "1", "--rows", "1", "--witness")
    payload = json.loads(out)
    assert payload["profile"]["a_t"] == 21
    assert payload["row_set"]["w_size"] == 9
    # the full construction includes the ones column: zero-count check fails
    assert code == 1
    names = {c["name"]: c["passed"] for c in payload["checks"]}
    assert names["degree_cap"] is True
    assert names["zero_count_floor"] is False


def test_search_subcommand(capsys, tmp_path):
    wit = tmp_path / "w.mat"
    code, out, _ = run(capsys, "search", "--m", "7", "--config", "2,2,1", "--sums", "3",
                       "--policy", "free", "--witness-out", str(wit))
    assert code == 0
    payload = json.loads(out)
    assert payload["optimum"] == 7 and payload["proof_of_optimality"] is True
    assert read_matrix(wit.read_text()).ncols == 7


def test_search_env_budget(capsys, monkeypatch):
    monkeypatch.setenv("XFC_BUDGET_NODES", "5")
    code, out, _ = run(capsys, "search", "--m", "7", "--config", "3,2,1", "--policy", "paper")
    assert code == 0
    assert json.loads(out)["proof_of_optimality"] is False


def test_search_negative_budget_is_usage_error(capsys, monkeypatch):
    argv = ["search", "--m", "7", "--config", "2,2,1", "--sums", "3", "--policy", "free"]
    code, out, err = run(capsys, *argv, "--budget-nodes", "-1")
    assert code == 2 and out == "" and "budget" in err
    monkeypatch.setenv("XFC_BUDGET_NODES", "-1")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "budget" in err


def test_unwritable_output_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.mat"
    code, out, err = run(capsys, "construct", "kms", "--m", "5", "--s", "2", "-o", str(target))
    assert code == 2 and out == ""
    assert f"cannot write {target}" in err and "Traceback" not in err
    code, out, err = run(capsys, "construct", "kms", "--m", "5", "--s", "2", "--meta",
                         "-o", str(target))
    assert code == 2 and out == ""


def test_unwritable_witness_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "w.mat"
    code, out, err = run(capsys, "search", "--m", "5", "--config", "2,1,1",
                         "--witness-out", str(target))
    assert code == 2 and out == ""
    assert f"cannot write {target}" in err and "Traceback" not in err


def test_search_workers_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["search", "--m", "7", "--config", "2,2,1", "--workers", "2"])
    assert exc.value.code == 2


def test_search_deep_multiplicity(capsys):
    # 1990 columns deep: the search must not be limited by the call stack
    code, out, _ = run(capsys, "search", "--m", "10", "--config", "200,1,0", "--sums", "1",
                       "--policy", "free")
    assert code == 0
    payload = json.loads(out)
    assert payload["optimum"] == 1990 and payload["proof_of_optimality"] is True


def test_search_oversized_instance_is_usage_error(capsys):
    # refused from the candidate count, before 2^30 columns are enumerated
    code, out, err = run(capsys, "search", "--m", "30", "--config", "2,2,1")
    assert code == 2 and out == ""
    assert "limit" in err


def test_search_deep_stack_is_usage_error(capsys):
    # refused from the stack estimate; unguarded, the search exhausts memory
    code, out, err = run(capsys, "search", "--m", "9", "--config", "9999,1,0", "--sums", "1",
                         "--policy", "free")
    assert code == 2 and out == ""
    assert "89982-deep stack" in err and "limit" in err


def test_contains_without_zeros_rows_is_fast(capsys, tmp_path):
    mat = tmp_path / "ones.mat"
    mat.write_text("1500 1\n" + "1\n" * 1500)
    start = time.perf_counter()
    code, out, _ = run(capsys, "contains", "--config", "1,1200,300", "--matrix", str(mat), "--quiet")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""


def test_search_internal_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(xfc.search, "verify_witness", lambda p, A: False)
    code, out, err = run(capsys, "search", "--m", "3", "--config", "2,1,1")
    assert code == 3 and out == ""
    assert "internal error" in err and "replay" in err


def test_package_has_no_assert_statements():
    # python -O strips asserts, so no result may be guarded by one
    src = Path(xfc.search.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert on line(s) {lines}"


def test_audit_subcommand(capsys):
    code, out, _ = run(capsys, "audit", "--m", "7,9")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    kinds = {(r["m"], r["kind"]) for r in payload["results"]}
    assert (7, "corrupted") in kinds and (9, "equality-construction") in kinds


def test_malformed_matrix_reports_line(capsys, tmp_path):
    bad = tmp_path / "bad.mat"
    bad.write_text("2 2\n10\n0x\n")
    code, _, err = run(capsys, "contains", "--config", "1,1,0", "--matrix", str(bad))
    assert code == 2
    assert "line 3" in err


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
