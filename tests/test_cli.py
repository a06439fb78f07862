"""CLI dispatch, formats, and exit codes."""

import ast
import builtins
import gc
import importlib
import json
import os
import re
import resource
import shlex
import subprocess
import sys
import time
import tracemalloc
from itertools import combinations, islice
from math import comb
from pathlib import Path

import pytest

import xfc
import xfc.analysis
import xfc.bounds
import xfc.constructions
import xfc.search
from xfc.bounds import BoundValue, bound_1100, exceeder_gap, genl_bound, q10_lower, q10_upper
from xfc.cli import BOUNDS, COMMANDS, main, parse_args
from xfc.designs import MAX_FOLD_BLOCKS, DesignCheck, lambda_fold, sts, write_design
from xfc.matrix import MAX_ROW_MASK_BITS, BinMatrix, read_matrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


GENL = ["--t", "2", "--l", "1", "--lambda", "1", "--m", "7"]
# the bound of each claim-bearing kind below, evaluated here because the
# CLI reports the column count as the bound: genl-equality and split-1100
# reach it by their verified designs, the rest check against it
CLAIMS = {
    "exceeder": genl_bound(2, 1, 1, 4).exact + exceeder_gap(2, 1, 1).exact,
    "q10": q10_lower(4, 6).exact,
    "small-m-witness": q10_upper(4, 3).exact,
    "split-1100": bound_1100(2, 7).exact,
    "genl-equality": genl_bound(2, 1, 1, 7).exact,
}


@pytest.mark.parametrize("kind, flags, m, ncols, avoided", [
    ("exceeder", ["--t", "2", "--l", "1", "--lambda", "1"], 4, 16, "3,2,1"),
    ("q10", ["--q", "4", "--m", "6"], 6, 17, "4,1,1"),
    ("small-m-witness", ["--q", "4"], 3, 11, "4,1,1"),
    ("split-1100", ["--m", "7", "--a", "1", "--b", "1"], 7, 72, "5,2,2"),
    ("genl-equality", GENL, 7, 37, "3,2,1"),
    ("genl-equality", [*GENL, "--design", "{D}"], 7, 37, "3,2,1"),
    ("kms", ["--m", "7", "--s", "3"], 7, 35, None),
    ("layers", ["--m", "6", "--sums", "0..2,5"], 6, 28, None),
])
def test_construct_meta_record_of_each_kind(capsys, tmp_path, kind, flags, m, ncols, avoided):
    design = tmp_path / "sts7.des"
    design.write_text(write_design(sts(7)))
    argv = ["construct", kind, *(f.format(D=design) for f in flags), "--meta"]
    # without -o the record is followed by the matrix text
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    record, text = out.split("\n", 1)
    bound = CLAIMS.get(kind)
    claimed = None if bound is None else {"numerator": bound.numerator, "denominator": bound.denominator,
                                          "floor": bound.numerator // bound.denominator}
    assert json.loads(record) == {
        "m": m, "ncols": ncols, "claimed_bound": claimed, "avoided_configuration": avoided,
        "verified": True,
    }
    A = read_matrix(text)
    assert (A.m, A.ncols) == (m, ncols)
    # with -o the same record alone, and the same matrix in the file
    target = tmp_path / "out.mat"
    assert run(capsys, *argv, "-o", str(target)) == (0, record + "\n", "")
    assert target.read_text() == text


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


def test_genl_equality_built_in_design_matches_the_design_file(capsys, tmp_path):
    des = tmp_path / "sts13x2.des"
    des.write_text(write_design(lambda_fold(sts(13), 2)))
    argv = ["construct", "genl-equality", "--t", "2", "--l", "0", "--lambda", "2", "--m", "13"]
    built_in = run(capsys, *argv)
    assert built_in[0] == 0 and read_matrix(built_in[1]).ncols == genl_bound(2, 0, 2, 13).exact == 144
    assert run(capsys, *argv, "--design", str(des)) == built_in


def test_built_in_designs_cover_t2_only(capsys):
    refusal = (2, "", "error: built-in designs cover t=2 only, or any t at lambda 0\n")
    assert run(capsys, "construct", "genl-equality", "--t", "3", "--l", "1", "--lambda", "1",
               "--m", "7") == refusal
    assert run(capsys, "audit", "--t", "3") == refusal


def test_lambda_0_uses_the_empty_design(capsys):
    # a t-design with lambda 0 has no block: the low and high layers alone
    for argv, ncols in ((["--t", "2", "--l", "1", "--m", "8"], 38),
                        (["--t", "3", "--l", "0", "--m", "6"], 42)):
        code, out, _ = run(capsys, "construct", "genl-equality", "--lambda", "0", *argv)
        assert code == 0 and read_matrix(out).ncols == ncols
    code, out, _ = run(capsys, "audit", "--m", "7", "--lambda", "0")
    payload = json.loads(out)
    assert code == 0 and payload["ok"] and payload["results"][0]["all_passed"]
    assert "degree_cap" in payload["results"][1]["failed_checks"]
    # fewer than t + 1 rows are refused in terms of m and t
    for argv in (["construct", "genl-equality", "--t", "2", "--l", "1", "--lambda", "0", "--m", "2"],
                 ["audit", "--m", "2", "--lambda", "0"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: need m >= t + 1 = 3, got m=2\n")


OVERSIZED = {
    "kms": ["construct", "kms", "--m", "40", "--s", "20"],
    "layers": ["construct", "layers", "--m", "30", "--sums", "0..30"],
    "q10": ["construct", "q10", "--q", "3", "--m", "200000"],
    "genl-equality": ["construct", "genl-equality", "--t", "2", "--l", "1", "--lambda", "1",
                      "--m", "100003"],
    "audit": ["audit", "--m", "100003"],
    # the search gate builds nothing of size m, so the kernel's own limits
    # refuse these: the first two by mask width, the last by candidates
    "search": ["search", "--m", "100000000", "--config", "2,2,1"],
    "search-paper": ["search", "--m", "100000", "--config", "2,50000,1", "--policy", "paper"],
    "search-no-split-rows": ["search", "--m", "100000000", "--config", "2,0,0"],
}


def _cap_address_space():
    # as ulimit -v: an enumeration that starts runs out of memory at once
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("name", sorted(OVERSIZED))
def test_oversized_constructions_are_refused_before_building(name):
    env = dict(os.environ, PYTHONPATH=str(Path(xfc.__file__).parents[1]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "xfc.cli", *OVERSIZED[name]], capture_output=True,
                          text=True, env=env, preexec_fn=_cap_address_space)
    assert time.perf_counter() - start < 1.0
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and "limit of" in proc.stderr
    assert "Traceback" not in proc.stderr


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


def test_contains_general_pattern_depth_is_not_bounded_by_the_call_stack(capsys, tmp_path):
    # 1,100 equal pattern columns on one row, and 1,100 of two rows
    ones = tmp_path / "ones.mat"
    ones.write_text("1 1100\n" + "1" * 1100 + "\n")
    over_zeros = tmp_path / "over-zeros.mat"
    over_zeros.write_text("2 1100\n" + "1" * 1100 + "\n" + "0" * 1100 + "\n")
    over_ones = tmp_path / "over-ones.mat"
    over_ones.write_text("2 1100\n" + "1" * 1100 + "\n" + "1" * 1100 + "\n")
    code, out, err = run(capsys, "contains", "--config-file", str(ones), "--matrix", str(over_zeros))
    assert (code, out, err) == (0, "contains: true\n", "")
    code, out, _ = run(capsys, "contains", "--config", "1100,1,0", "--matrix", str(over_zeros))
    assert (code, out) == (0, "contains: true\n")
    code, out, err = run(capsys, "contains", "--config-file", str(over_zeros),
                         "--matrix", str(over_ones), "--quiet")
    assert (code, out, err) == (1, "", "")


@pytest.mark.parametrize("config", ["1,100000000,0", "1,0,100000000", "100000000,1,0"])
def test_a_block_taller_or_wider_than_the_matrix_is_refused_at_once(capsys, tmp_path, config):
    # no column of the 7-row matrix fits a 10^8-row block, and fewer than
    # 10^8 fit a block of 10^8 columns: neither builds the block's rows
    mat = tmp_path / "a.mat"
    mat.write_text(BinMatrix(7, tuple(range(1 << 7))).to_text())
    start = time.perf_counter()
    code, out, err = run(capsys, "contains", "--config", config, "--matrix", str(mat))
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (0, "contains: false\n", "")


def test_contains_takes_exactly_one_pattern(capsys, tmp_path):
    mat = tmp_path / "a.mat"
    mat.write_text("1 1\n1\n")
    for flags in ([], ["--config", "1,1,1", "--config-file", str(mat)]):
        with pytest.raises(SystemExit) as exc:
            main(["contains", "--matrix", str(mat), *flags])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def test_contains_refuses_oversized_row_masks(capsys, tmp_path):
    # every column on 12 rows against 40 x 20,000: the row masks would take
    # about 5 GB, so the pattern is refused before any is built
    pat = tmp_path / "cube.mat"
    pat.write_text(BinMatrix(12, tuple(range(1 << 12))).to_text())
    mat = tmp_path / "wide.mat"
    mat.write_text("40 20000\n" + ("01" * 10000 + "\n") * 40)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "contains", "--config-file", str(pat), "--matrix", str(mat))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert f"limit of {MAX_ROW_MASK_BITS} bits" in err
    assert peak < 10 * 2**20


def test_analyze_rejects_negative_zeros_count(capsys, tmp_path):
    mat = tmp_path / "a.mat"
    run(capsys, "construct", "kms", "--m", "5", "--s", "2", "-o", str(mat))
    code, out, err = run(capsys, "analyze", "--matrix", str(mat), "--t", "2", "--l", "-1",
                         "--lambda", "1")
    assert code == 2 and out == ""
    assert "ell=-1" in err and "non-negative integer" not in err


def test_analyze_rejects_negative_lambda(capsys, tmp_path):
    mat = tmp_path / "a.mat"
    run(capsys, "construct", "genl-equality", "--t", "2", "--l", "1", "--lambda", "1", "--m", "7",
        "-o", str(mat))
    code, out, err = run(capsys, "analyze", "--matrix", str(mat), "--t", "2", "--l", "1",
                         "--lambda", "-1")
    assert code == 2 and out == ""
    assert "lam=-1" in err


def test_analyze_refuses_a_huge_tset_table(capsys, tmp_path):
    # the table holds only the t-sets of the columns, on empty rows none: a
    # table of all C(2000, 2) pairs would take 326 MB, and one of the
    # C(4000, 3999) t-sets as tuples of rows 259 MB
    mat = tmp_path / "a.mat"
    for m, t, ell in ((2000, 2, 1), (4000, 3999, 0)):
        mat.write_text(f"{m} 0\n" + "\n" * m)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "analyze", "--matrix", str(mat), "--t", str(t),
                                 "--l", str(ell), "--lambda", "0")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "") and json.loads(out)["missing_tsets"] == comb(m, t)
        assert peak < 10 * 2**20
    # 3,200 sum-21 columns on 40 rows could put 21 * 3,200 = 67,200 t-sets
    # in the table, more than MAX_TSETS
    cols = islice(combinations(range(1, 41), 21), 3200)
    mat.write_text(BinMatrix.from_columns(40, cols).to_text())
    code, out, err = run(capsys, "analyze", "--matrix", str(mat), "--t", "20", "--l", "1",
                         "--lambda", "1")
    assert (code, out) == (2, "")
    assert f"analysis limit of {xfc.analysis.MAX_TSETS} t-sets" in err


def test_analyze_refuses_counts_too_long_to_print(capsys, tmp_path):
    # the capacity C(15000, 7500) has 4,513 digits, more than Python turns
    # into text by default; it is refused before any binomial is computed
    mat = tmp_path / "a.mat"
    mat.write_text("15000 0\n" + "\n" * 15000)
    code, out, err = run(capsys, "analyze", "--matrix", str(mat), "--t", "7500", "--l", "0",
                         "--lambda", "0")
    assert (code, out) == (2, "")
    assert err.startswith("error: at m=15000, t=7500 the capacity")
    assert f"the {sys.get_int_max_str_digits()} digits Python prints" in err
    # inputs the bound refuses are named as such, however long the capacity
    for t, ell, lam, named in (("7501", "-1", "0", "ell=-1"), ("7500", "0", "-1", "lam=-1"),
                               ("7500", "7501", "0", "need m >= t + ell")):
        code, out, err = run(capsys, "analyze", "--matrix", str(mat), "--t", t, "--l", ell,
                             "--lambda", lam)
        assert (code, out) == (2, "") and named in err


@pytest.mark.parametrize("t, ell", [(200, 0), (199, 1)])
def test_analyze_ratios_are_exact_past_the_float_range(capsys, tmp_path, t, ell):
    # 200 ** 198 and 200 ** 199 overflow a float; the ratios divide ints
    mat = tmp_path / "ones.mat"
    mat.write_text("200 1\n" + "1\n" * 200)
    code, out, err = run(capsys, "analyze", "--matrix", str(mat), "--t", str(t),
                         "--l", str(ell), "--lambda", "0")
    assert code in (0, 1) and err == ""
    ratios = json.loads(out)["empirical_ratios"]
    assert ratios["higher_over_m_pow"] == 0.0
    assert ratios["missing_over_m_pow"] == (comb(200, t) - (t == 200)) / 200 ** (t - 1)


def test_missing_design_file_is_named_the_same_by_both_readers(capsys, tmp_path):
    missing = tmp_path / "missing.des"
    for argv in (["construct", "genl-equality", "--t", "2", "--l", "1", "--lambda", "1",
                  "--m", "7", "--design", str(missing)],
                 ["verify-design", str(missing)]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read {missing}: "), argv


@pytest.mark.parametrize("argv", [
    ["contains", "--config", "2,1,0", "--matrix", "{path}"],
    ["verify-design", "{path}"],
])
def test_undecodable_file_is_named(capsys, tmp_path, argv):
    binary = tmp_path / "binary"
    binary.write_bytes(b"2 2\n\xff\xfe\n\x81\x00\n")
    code, out, err = run(capsys, *(a.format(path=binary) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {binary}: 'utf-8' codec can't decode"), argv


def test_every_file_reader_names_the_path_and_line(capsys, tmp_path):
    good, bad_matrix, bad_design = tmp_path / "good.mat", tmp_path / "bad.mat", tmp_path / "bad.des"
    good.write_text("1 1\n1\n")
    bad_matrix.write_text("2 2\n10\n0x\n")
    bad_design.write_text("7 3 2 1 1\n1 2 x\n")
    matrix_error = f"error: {bad_matrix}: line 3: invalid character 'x'\n"
    design_error = f"error: {bad_design}: line 2: non-integer point in '1 2 x'\n"
    for argv, want in (
        (["contains", "--config", "1,1,0", "--matrix", bad_matrix], matrix_error),
        (["contains", "--config-file", bad_matrix, "--matrix", good], matrix_error),
        (["analyze", "--matrix", bad_matrix, "--t", "1", "--l", "0", "--lambda", "0"], matrix_error),
        (["verify-design", bad_design], design_error),
        (["construct", "genl-equality", "--t", "2", "--l", "1", "--lambda", "1", "--m", "7",
          "--design", bad_design], design_error),
    ):
        assert run(capsys, *map(str, argv)) == (2, "", want), argv


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


def test_verify_design_at_lambda_zero_reads_only_the_blocks(capsys, tmp_path):
    # C(20000, 2) = 2e8 pairs, none covered: valid without visiting them
    empty = tmp_path / "empty.des"
    empty.write_text("20000 3 2 0 0\n")
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify-design", str(empty))
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out)["valid"] is True
    # one block: its least pair is the first over-covered one
    single = tmp_path / "single.des"
    single.write_text("3000 3 2 0 1\n2998 2999 3000\n")
    code, out, _ = run(capsys, "verify-design", str(single))
    assert code == 1
    assert json.loads(out)["witness"] == {"tset": [2998, 2999], "count": 1, "expected": 0}


def test_verify_design_refuses_too_many_block_tsets(capsys, tmp_path):
    # one block of 30 points holds C(30, 15) = 155 million 15-subsets: at
    # lambda 1 they are refused before one is counted, at lambda 0 the
    # verdict needs none of them
    des = tmp_path / "big.des"
    points = " ".join(map(str, range(1, 31)))
    des.write_text(f"30 30 15 1 1\n{points}\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "verify-design", str(des))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: 1 distinct blocks x C(30, 15) t-subsets exceed the limit of {MAX_FOLD_BLOCKS}\n"
    des.write_text(f"30 30 15 0 1\n{points}\n")
    code, out, err = run(capsys, "verify-design", str(des))
    assert (code, err) == (1, "")
    assert json.loads(out)["witness"] == {"tset": list(range(1, 16)), "count": 1, "expected": 0}


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


PROFILE = ("a_t", "a_t1", "a_higher")


@pytest.mark.parametrize("flag, formula", [
    *((flag, formula) for formula in ("genl", "design-tplus1", "pigeonhole")
      for flag in ("t", "l", "lambda", "m")),
    *((count, "pigeonhole") for count in PROFILE),
    *((flag, formula) for formula in ("bound-1100", "design-1100") for flag in ("lambda", "m")),
    ("lambda", "designconfig"),
])
def test_bounds_refuse_negative_inputs(capsys, flag, formula):
    # a valid call, pigeonhole's --profile a_t,a_t1,a_higher included, with one value negative
    values = {"t": "2", "l": "1", "k": "3", "lambda": "1", "m": "7",
              "a_t": "21", "a_t1": "7", "a_higher": "0", flag: "-1"}
    argv = [a for f in BOUNDS[formula][1] for a in (f"--{f}", values[f])]
    if formula == "pigeonhole":
        argv.append("--profile=" + ",".join(values[c] for c in PROFILE))
    code, out, err = run(capsys, "bounds", formula, *argv)
    name = {"l": "ell", "lambda": "lam"}.get(flag, flag)
    assert code == 2 and out == ""
    assert f"error: {name}=-1 must be nonnegative" in err


def test_bounds_missing_flags_are_named(capsys):
    # the flags of a bound formula or construct kind are required by the parser
    for argv, missing in ((["bounds", "genl", "--m", "7"], "--t, --l, --lambda"),
                          (["bounds", "pigeonhole", *GENL], "--profile"),
                          (["construct", "kms", "--m", "7"], "--s"),
                          (["construct", "split-1100", "--a", "1"], "--m, --b")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        usage, error = err.splitlines()
        assert usage.startswith(f"usage: xfc {argv[0]} ")
        assert error == f"error: missing required argument(s): {missing}"


@pytest.mark.parametrize("formula", sorted(BOUNDS))
def test_bounds_without_flags_is_usage_error(capsys, formula):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", formula])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "error: missing required argument(s): --" in err and "NoneType" not in err


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--matrix", "{A}", "--t", "2", "--l", "1", "--lambda", "1", "--rows", "1,x"],
     "--rows: non-integer field 'x' in '1,x'"),
    (["bounds", "pigeonhole", "--t", "2", "--l", "1", "--lambda", "1", "--m", "7",
      "--profile", "1,x,2"], "--profile: non-integer field 'x' in '1,x,2'"),
    (["bounds", "pigeonhole", "--t", "2", "--l", "1", "--lambda", "1", "--m", "7",
      "--profile", "1,2"], "--profile must be 'a_t,a_t1,a_higher', got '1,2'"),
    (["audit", "--m", "7,x"], "--m: non-integer field 'x' in '7,x'"),
    (["search", "--m", "7", "--config", "2,2,1", "--sums", "3,x"], "--sums: non-integer field 'x'"),
    (["search", "--m", "7", "--config", "2,2,1", "--sums", "3..x"],
     "--sums: non-integer field 'x' in '3..x'"),
    (["search", "--m", "7", "--config", "2,2,1", "--sums", "1..2..3"],
     "--sums must list sums and lo..hi ranges, got '1..2..3'"),
    (["search", "--m", "7", "--config", "2,x,1"], "--config: non-integer field 'x' in '2,x,1'"),
    (["search", "--m", "7", "--config", "2,2"], "--config must be 'q,t,l', got '2,2'"),
])
def test_integer_list_flag_errors_name_the_flag(capsys, tmp_path, argv, message):
    mat = tmp_path / "a.mat"
    mat.write_text("3 1\n1\n1\n0\n")
    assert run(capsys, *(a.format(A=mat) for a in argv)) == (2, "", f"error: {message}\n")


def test_bounds_pigeonhole(capsys):
    code, out, _ = run(capsys, "bounds", "pigeonhole", "--t", "2", "--l", "1",
                       "--lambda", "1", "--m", "7", "--profile", "21,7,0")
    assert code == 0
    payload = json.loads(out)
    assert (payload["lhs"], payload["rhs"], payload["holds"]) == (189, 210, True)


def test_pigeonhole_counts_no_support_for_columns_that_cannot_exist(capsys, tmp_path):
    # at m = 3 no column has sum t + 2 = 4, so a_higher weighs nothing
    code, out, _ = run(capsys, "bounds", "pigeonhole", "--t", "2", "--l", "1",
                       "--lambda", "1", "--m", "3", "--profile", "1,1,0")
    assert code == 0
    payload = json.loads(out)
    assert (payload["lhs"], payload["rhs"], payload["holds"]) == (1, 6, True)
    # the audit of a 3-row matrix reaches the same term
    mat = tmp_path / "empty.mat"
    mat.write_text("3 0\n\n\n\n")
    code, out, _ = run(capsys, "analyze", "--matrix", str(mat), "--t", "2", "--l", "1",
                       "--lambda", "1")
    assert code == 0
    assert json.loads(out)["all_passed"] is True
    mat.write_text("3 3\n110\n101\n011\n")
    code, out, _ = run(capsys, "analyze", "--matrix", str(mat), "--t", "2", "--l", "1",
                       "--lambda", "1")
    names = {c["name"]: c["passed"] for c in json.loads(out)["checks"]}
    # sum-2 columns have one zero, below lambda + ell: a verdict, not a usage error
    assert code == 1 and names["support_pigeonhole"] and not names["zero_count_floor"]


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


# stdout of `analyze --witness --rows 1` on a 2-row matrix (columns 10, 10, 01,
# 11, 11) that fails every check, at t=1, l=1, lambda=0
FAILED_ANALYSIS = (
    '{"m": 2, "t": 1, "l": 1, "lambda": 0, "profile": {"a_t": 3, "a_t1": 2, "a_higher": 0}, '
    '"missing_tsets": 0, "typical_tsets": 0, "all_passed": false, "checks": ['
    '{"name": "column_sum_band", "passed": false, "detail": "column sums within {1..1}", '
    '"witness": {"column_index": 3, "sum": 2}}, '
    '{"name": "low_sum_unrepeated", "passed": false, "detail": "sum-t columns distinct", '
    '"witness": {"column_index": 1, "first_index": 0, "rows": [1]}}, '
    '{"name": "degree_cap", "passed": false, "detail": "d(S) + mu(S) <= 1", '
    '"witness": {"tset": [1], "d": 2, "mu": 1}}, '
    '{"name": "support_pigeonhole", "passed": false, "detail": "weighted profile 3 <= capacity 2", '
    '"witness": {"lhs": 3, "rhs": 2}}, '
    '{"name": "per_row_cap", "passed": false, "detail": "per-row sum-(t+1) count <= 1", '
    '"witness": {"row": 1, "count": 2, "cap": "1"}}, '
    '{"name": "zero_count_floor", "passed": false, "detail": "every column has >= 1 zeros", '
    '"witness": {"column_index": 3, "zeros": 0, "need": 1}}, '
    '{"name": "row_set_cap", "passed": false, "detail": "sum-(t+1) columns meeting R <= 1", '
    '"witness": {"rows": [1], "count": 2, "cap": "1"}}], '
    '"per_row_counts": {"1": 2, "2": 2}, "empirical_ratios": {"missing_over_m_pow": 0.0, '
    '"higher_over_m_pow": 0.0, "typical_deficit_over_m_pow": 2.0}, '
    '"row_set": {"rows": [1], "count": 2, "w_size": 2, "z_size": 0, '
    '"note": "|R| = 1 >= lam + ell = 1: outside the intended regime"}}\n'
)
# stdout of `verify-design` on the Fano plane less its block {1, 2, 3}
FAILED_DESIGN = ('{"valid": false, "params": {"m": 7, "k": 3, "t": 2, "lambda": 1, "blocks": 6}, '
                 '"witness": {"tset": [1, 2], "count": 0, "expected": 1}}\n')


def test_failed_verdicts_print_their_witnesses_exactly(capsys, tmp_path):
    mat = tmp_path / "a.mat"
    mat.write_text("2 5\n11011\n00111\n")
    code, out, _ = run(capsys, "analyze", "--matrix", str(mat), "--t", "1", "--l", "1",
                       "--lambda", "0", "--witness", "--rows", "1")
    assert (code, out) == (1, FAILED_ANALYSIS)
    des = tmp_path / "bad.des"
    des.write_text("7 3 2 1 6\n2 4 7\n3 5 7\n1 6 7\n1 4 5\n2 5 6\n3 4 6\n")
    code, out, _ = run(capsys, "verify-design", str(des))
    assert (code, out) == (1, FAILED_DESIGN)


def test_search_subcommand(capsys, tmp_path):
    wit = tmp_path / "w.mat"
    code, out, _ = run(capsys, "search", "--m", "7", "--config", "2,2,1", "--sums", "3",
                       "--policy", "free", "--witness-out", str(wit))
    assert code == 0
    payload = json.loads(out)
    assert payload["optimum"] == 7 and payload["proof_of_optimality"] is True
    assert read_matrix(wit.read_text()).ncols == 7
    code, out, _ = run(capsys, "search", "--m", "7", "--config", "3,2,1", "--policy", "paper",
                       "--budget-nodes", "5")
    assert code == 0 and json.loads(out)["proof_of_optimality"] is False
    # a first-fit pass per layer meets the root bound at paper m = 5, so
    # even a budget of 0 nodes proves the optimum
    code, out, _ = run(capsys, "search", "--m", "5", "--config", "3,2,1", "--policy", "paper",
                       "--budget-nodes", "0")
    assert code == 0
    assert json.loads(out) == {"optimum": 22, "nodes": 1, "proof_of_optimality": True, "witness_ncols": 22}


def test_search_general_pattern_file(capsys, tmp_path):
    pat, wit = tmp_path / "p.mat", tmp_path / "w.mat"
    pat.write_text("2 2\n10\n01\n")
    code, out, err = run(capsys, "search", "--m", "4", "--config-file", str(pat),
                         "--witness-out", str(wit))
    assert (code, err) == (0, "")
    assert json.loads(out) == {"optimum": 5, "nodes": 24, "proof_of_optimality": True,
                               "witness_ncols": 5}
    assert read_matrix(wit.read_text()).ncols == 5
    # the paper policy needs a block, and at m = 5 there are 32 > 24 candidates
    for argv in (["--m", "4", "--policy", "paper"], ["--m", "5"]):
        code, out, err = run(capsys, "search", "--config-file", str(pat), *argv)
        assert code == 2 and out == "" and err.startswith("error: ")
    for flags in ([], ["--config", "2,1,1", "--config-file", str(pat)]):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--m", "4", *flags])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def test_search_negative_budget_is_usage_error(capsys):
    argv = ["search", "--m", "7", "--config", "2,2,1", "--sums", "3", "--policy", "free"]
    code, out, err = run(capsys, *argv, "--budget-nodes", "-1")
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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_write_that_fails_midway_is_usage_error(capsys):
    # /dev/full opens, then refuses the rows: nothing reaches stdout
    for argv in (["construct", "kms", "--m", "16", "--s", "8", "--meta", "-o", "/dev/full"],
                 ["search", "--m", "5", "--config", "2,1,1", "--witness-out", "/dev/full"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error: cannot write /dev/full")


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
    # the count stops at the limit, so a huge one is neither summed nor printed
    start = time.perf_counter()
    code, out, err = run(capsys, "search", "--m", "20000", "--config", "2,1,0")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "limit of 32768" in err and "digits" not in err
    code, out, err = run(capsys, "search", "--m", "20", "--config", "2,3,3", "--sums", "3")
    assert code == 2 and out == ""
    assert "limit of 131072 bits" in err


def test_search_sums_range_is_checked_before_expanding(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "search", "--m", "7", "--config", "2,2,1", "--sums", "0..1000000000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "sums outside 0..7: '0..1000000000'" in err


def test_search_deep_stack_is_usage_error(capsys):
    # refused from the stack estimate; unguarded, the search exhausts memory
    code, out, err = run(capsys, "search", "--m", "9", "--config", "9999,1,0", "--sums", "1",
                         "--policy", "free")
    assert code == 2 and out == ""
    assert "89982-deep stack" in err and "limit" in err


@pytest.mark.parametrize("argv", [
    ("search", "--m", "7", "--config", "2,2,1", "--sums", "5..3"),
    ("construct", "layers", "--m", "7", "--sums", "1,5..3"),
])
def test_reversed_sums_range_is_usage_error(capsys, argv):
    # read as the empty set, it made search report optimum 0 as proven
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "sums range '5..3' is reversed" in err


def test_level_masks_are_built_only_past_the_stack_guard(capsys):
    # q level masks at the root: 10^7 of them would take about 80 MB
    tracemalloc.start()
    try:
        refused = run(capsys, "search", "--m", "3", "--config", "10000000,1,0",
                      "--policy", "free", "--sums", "1")
        refused_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        # every column free: depth 0 whatever q is, and no level is read
        solved = run(capsys, "search", "--m", "3", "--config", "10000000,1,0", "--sums", "0")
        solved_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    code, out, err = refused
    assert code == 2 and out == "" and "deep stack" in err
    assert refused_peak < 10 * 2**20
    code, out, _ = solved
    assert code == 0 and json.loads(out)["optimum"] == 1
    assert solved_peak < 10 * 2**20


def test_contains_without_zeros_rows_is_fast(capsys, tmp_path):
    mat = tmp_path / "ones.mat"
    mat.write_text("1500 1\n" + "1\n" * 1500)
    start = time.perf_counter()
    code, out, _ = run(capsys, "contains", "--config", "1,1200,300", "--matrix", str(mat), "--quiet")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""


def test_search_internal_failure_exit_code(capsys, monkeypatch, tmp_path):
    pat = tmp_path / "p.mat"
    pat.write_text("2 2\n10\n01\n")
    monkeypatch.setattr(xfc.search, "verify_witness", lambda p, A: False)
    for flags in (["--config", "2,1,1"], ["--config-file", str(pat)]):
        code, out, err = run(capsys, "search", "--m", "3", *flags)
        assert code == 3 and out == ""
        assert "internal error" in err and "replay" in err


def test_package_has_no_assert_statements():
    # python -O strips asserts, so no result may be guarded by one
    src = Path(xfc.search.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert on line(s) {lines}"


# the raises of protocols other than the exit codes, each at its one site:
# (module, function) -> exception
PROTOCOL_RAISES = {
    ("xfc", "__getattr__"): "AttributeError",  # a module attribute that does not exist
    ("xfc.analysis", "check"): "KeyError",  # AnalysisReport.check of an unknown name
    ("xfc.cli", "_help"): "SystemExit",  # the flag parser's -h
    ("xfc.cli", "_fail"): "SystemExit",  # the flag parser's usage error
}


def _raises(tree: ast.AST, function: str = ""):
    """(function, raise node) for each raise under tree, with the name of
    the innermost function around it."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Raise):
            yield function, node
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from _raises(node, inner)


def test_exception_class_decides_the_exit_code():
    # main maps a ValueError to exit 2 (refused input) and a RuntimeError or
    # TypeError to 3 (internal failure), so every raise in the package names
    # one of those kinds, apart from the protocol raises above: never, say,
    # an AssertionError, which main would not map to an exit code
    pkg = Path(xfc.__file__).parent
    seen = set()
    for path in sorted(pkg.glob("*.py")):
        name = "xfc" if path.stem == "__init__" else f"xfc.{path.stem}"
        module = importlib.import_module(name)
        tree = ast.parse(path.read_text(), filename=str(path))
        for function, node in _raises(tree):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            assert isinstance(exc, ast.Name), f"{name}:{node.lineno}: raise of no named class"
            cls = getattr(module, exc.id, None) or getattr(builtins, exc.id)
            if PROTOCOL_RAISES.get((name, function)) == exc.id:
                seen.add((name, function))
                continue
            assert issubclass(cls, (ValueError, RuntimeError)), f"{name}:{node.lineno}: raise {exc.id}"
        # and every exception class the package defines is one main maps to exit 2
        for cls in vars(module).values():
            if isinstance(cls, type) and issubclass(cls, BaseException) and cls.__module__.startswith("xfc"):
                assert issubclass(cls, ValueError), f"{name}: {cls.__name__} is not a ValueError"
    assert seen == set(PROTOCOL_RAISES)
    main_def = next(node for node in ast.walk(ast.parse((pkg / "cli.py").read_text()))
                    if isinstance(node, ast.FunctionDef) and node.name == "main")
    handlers = [(ast.unparse(h.type), next(ast.unparse(r.value) for r in ast.walk(h) if isinstance(r, ast.Return)))
                for node in ast.walk(main_def) if isinstance(node, ast.Try) for h in node.handlers]
    assert handlers == [("ValueError", "USAGE_ERROR"), ("(RuntimeError, TypeError)", "INTERNAL_ERROR")]


@pytest.mark.parametrize("argv", [
    ["search", "--m", "5", "--config", "3,2,1", "--policy", "paper"],
    ["construct", "genl-equality", "--t", "2", "--l", "1", "--lambda", "1", "--m", "7", "--meta"],
])
def test_optimized_interpreter_gives_the_same_output(argv):
    # -O strips asserts: the search and its replay, and a construction and
    # its self-check, must answer the same without them
    env = dict(os.environ, PYTHONPATH=str(Path(xfc.__file__).parents[1]))
    runs = [subprocess.run([sys.executable, *flags, "-m", "xfc.cli", *argv], capture_output=True,
                           text=True, env=env) for flags in ([], ["-O"])]
    assert runs[0].returncode == 0 and runs[0].stdout
    assert (runs[1].returncode, runs[1].stdout) == (runs[0].returncode, runs[0].stdout)


def _xfc_process(*args: str, prefix=("-m", "xfc.cli"), stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """A fresh interpreter running prefix then args, output as bytes, with
    stdout block-buffered into a pipe or file, as it is by default."""
    env = dict(os.environ, PYTHONPATH=str(Path(xfc.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *prefix, *args], stdout=stdout, stderr=subprocess.PIPE, env=env)


# a stdout that refuses every write: a pipe with its read end closed
# before the child starts, or the full device
CLOSED_PIPE, FULL_DEVICE = "stdout=closed-pipe", "stdout=/dev/full"


def _failing_stdout_process(sink: str, *args: str, prefix=("-m", "xfc.cli")) -> subprocess.CompletedProcess:
    """_xfc_process with stdout the sink CLOSED_PIPE or FULL_DEVICE names."""
    if sink == FULL_DEVICE:
        if not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        with open("/dev/full", "wb") as full:
            return _xfc_process(*args, prefix=prefix, stdout=full)
    read, write = os.pipe()
    os.close(read)
    try:
        return _xfc_process(*args, prefix=prefix, stdout=write)
    finally:
        os.close(write)


# python -m xfc.cli, with an exit hook that prints the freeze count last
FREEZE_PROBE = """import atexit, gc, runpy, sys
atexit.register(lambda: print(f"frozen {gc.get_freeze_count()}", file=sys.stderr))
runpy.run_module("xfc.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("args, code", [
    (["bounds", "genl", *GENL], 0),
    (["contains", "--quiet", "--config", "2,1,0", "--matrix", "{A}"], 1),  # one column: not contained
    (["verify-design", "{A}.missing"], 2),  # a ValueError
    (["bounds", "genl", "--t", "x"], 2),  # a parse error
    (["-h"], 0),
    # stdout refuses the output: in main (200 kB), at run's flush (one line
    # held in the buffer), and after the SystemExit of -h
    (["construct", "kms", "--m", "16", "--s", "8", CLOSED_PIPE], 2),
    (["bounds", "genl", *GENL, FULL_DEVICE], 2),
    (["-h", CLOSED_PIPE], 2),
])
def test_every_exit_freezes_the_collector(tmp_path, args, code):
    matrix = tmp_path / "A.mat"
    matrix.write_text("1 1\n1\n")
    args = [a.format(A=matrix) for a in args]
    sink = args.pop() if args[-1] in (CLOSED_PIPE, FULL_DEVICE) else None
    if sink:
        proc = _failing_stdout_process(sink, *args, prefix=("-c", FREEZE_PROBE))
    else:
        proc = _xfc_process(*args, prefix=("-c", FREEZE_PROBE))
    assert proc.returncode == code
    *lines, last = proc.stderr.decode().splitlines()
    assert last.startswith("frozen ") and int(last.split()[1]) > 0
    if sink:  # one error line, as for -o /dev/full: no traceback, and shutdown's flush stays quiet
        reason = "Broken pipe" if sink == CLOSED_PIPE else "No space left on device"
        assert len(lines) == 1 and re.fullmatch(rf"error: cannot write stdout: \[Errno \d+\] {reason}", lines[0])


def test_main_does_not_freeze(capsys):
    before = gc.get_freeze_count()
    assert run(capsys, "bounds", "genl", *GENL)[0] == 0
    with pytest.raises(SystemExit):
        main(["-h"])
    assert gc.get_freeze_count() == before


def test_output_is_complete_after_the_freeze(capsys, tmp_path):
    # 12,870 columns to a pipe, and a matrix to a file, as main writes them
    kms = ["construct", "kms", "--m", "16", "--s", "8"]
    assert main(kms) == 0
    want = capsys.readouterr().out.encode()
    assert (_xfc_process(*kms).stdout, len(want)) == (want, len("16 12870\n") + 16 * 12_871)
    genl = ["construct", "genl-equality", "--t", "2", "--l", "1", "--lambda", "2", "--m", "19"]
    assert main([*genl, "-o", str(tmp_path / "in.mat")]) == 0
    want = capsys.readouterr().out.replace("in.mat", "out.mat").encode()
    proc = _xfc_process(*genl, "-o", str(tmp_path / "out.mat"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, b"")
    assert (tmp_path / "out.mat").read_bytes() == (tmp_path / "in.mat").read_bytes()


def test_script_and_module_share_one_exit():
    root = Path(__file__).resolve().parents[1]
    script = re.search(r'^xfc = "xfc\.cli:(\w+)"$', (root / "pyproject.toml").read_text(), re.M)
    source = (root / "src" / "xfc" / "cli.py").read_text()
    assert source.endswith(f'\nif __name__ == "__main__":\n    {script[1]}()\n')


def test_failed_design_self_check_is_internal_error(capsys, monkeypatch):
    monkeypatch.setattr("xfc.designs.verify_design", lambda *args: DesignCheck(((1, 2), 0)))
    code, out, err = run(capsys, "construct", "genl-equality", "--t", "2", "--l", "1",
                         "--lambda", "1", "--m", "7")
    assert code == 3 and out == ""
    assert err.startswith("internal error: generated triple system failed verification")


# each construction that checks a claim, with its flags; the last three
# also check their column counts against xfc.bounds
SELF_CHECKED = {
    "genl-equality": GENL, "split-1100": ["--m", "7", "--a", "1", "--b", "1"],
    "exceeder": ["--t", "2", "--l", "1", "--lambda", "1"], "q10": ["--q", "4", "--m", "6"],
    "small-m-witness": ["--q", "4"],
}
# python -m xfc.cli with one self-check of xfc.constructions made to fail
FAULT_PROBE = """import runpy, sys, xfc.bounds, xfc.constructions
if sys.argv.pop(1) == "avoidance":
    xfc.constructions.contains_config = lambda config, A: True
else:
    for name in ("genl_bound", "q10_lower", "q10_upper"):
        setattr(xfc.bounds, name, lambda *args: xfc.bounds.BoundValue(1))
runpy.run_module("xfc.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("check, kind", [("avoidance", kind) for kind in SELF_CHECKED]
                         + [("count", kind) for kind in list(SELF_CHECKED)[2:]])
def test_failed_self_check_is_internal_error(capsys, monkeypatch, check, kind):
    # no input fails a construction's own checks, so a failure is exit 3,
    # not the exit 2 that would call the input bad
    argv = ["construct", kind, *SELF_CHECKED[kind]]
    if check == "avoidance":
        monkeypatch.setattr(xfc.constructions, "contains_config", lambda config, A: True)
    else:
        for name in ("genl_bound", "q10_lower", "q10_upper"):
            monkeypatch.setattr(xfc.bounds, name, lambda *args: BoundValue(1))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    want = "contains the forbidden" if check == "avoidance" else "column count"
    assert len(err.splitlines()) == 1 and err.startswith("internal error: ") and want in err
    if kind in ("genl-equality", "exceeder"):  # once in a fresh process, as the xfc script runs it
        proc = _xfc_process(check, *argv, prefix=("-c", FAULT_PROBE))
        assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (3, b"", err)


NO_FILE = "cannot {verb} : [Errno 2] No such file or directory: ''"


@pytest.mark.parametrize("argv, message", [
    (["verify-design", "{tmp}/missing.des"],
     "cannot read {tmp}/missing.des: [Errno 2] No such file or directory: '{tmp}/missing.des'"),
    (["contains", "--config", "2,1,1", "--matrix", "{tmp}/bad.mat"], "{tmp}/bad.mat: line 3: invalid character 'x'"),
    (["contains", "--config", "2,x,1", "--matrix", "{tmp}/A.mat"], "--config: non-integer field 'x' in '2,x,1'"),
    (["construct", "layers", "--m", "6", "--sums", "4..2"], "sums range '4..2' is reversed"),
    (["construct", "kms", "--m", "4", "--s", "2", "-o", "{tmp}/no/A.mat"],
     "cannot write {tmp}/no/A.mat: [Errno 2] No such file or directory: '{tmp}/no/A.mat'"),
    # an empty value reaches its parser or open, not read as the flag left out
    (["search", "--m", "5", "--config", "2,2,1", "--sums="], "--sums: non-integer field ''"),
    (["search", "--m", "5", "--config", "2,2,1", "--witness-out="], NO_FILE.format(verb="write")),
    (["construct", "kms", "--m", "3", "--s", "1", "-o", ""], NO_FILE.format(verb="write")),
    (["construct", "kms", "--m", "3", "--s", "1", "--out="], NO_FILE.format(verb="write")),
    (["construct", "genl-equality", *GENL, "--design="], NO_FILE.format(verb="read")),
    # a gate rule comes before an engine limit: 2^30 candidates and
    # C(30,3)^2 mask bits, but the free sum-0 column meets no split
    (["search", "--m", "30", "--config", "2,3,3", "--policy", "free"],
     "unbounded: repeatable sum-0 columns never meet the pattern"),
])
def test_refused_input_is_usage_error(capsys, tmp_path, argv, message):
    (tmp_path / "bad.mat").write_text("2 2\n10\n0x\n")
    (tmp_path / "A.mat").write_text("1 1\n1\n")
    argv = [a.format(tmp=tmp_path) for a in argv]
    want = f"error: {message.format(tmp=tmp_path)}\n"
    assert run(capsys, *argv) == (2, "", want)
    proc = _xfc_process(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (2, b"", want)


def test_exceeder_past_its_self_check_limit_is_usage_error(capsys):
    # 6,126,120 splits x 200,128 columns: a walk of about 4.6 minutes
    start = time.perf_counter()
    code, out, err = run(capsys, "construct", "exceeder", "--t", "9", "--l", "4", "--lambda", "5")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: exceeder self-check at m=18: splits times columns exceed the limit of {MAX_ROW_MASK_BITS}\n"


def test_exceeder_gap_too_long_to_print_is_usage_error(capsys):
    # C(2000001, 1000000) is refused from its first thousand factors, not
    # built; construct refuses the self-check before it reaches the gap
    digits = sys.get_int_max_str_digits()
    for argv, message in (
        (("bounds", "exceeder-gap"), f"at t=1000000 the exceeder gap has more than the {digits} digits"),
        (("construct", "exceeder"), "exceeder self-check at m=2000001: splits times columns exceed the limit"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--t", "1000000", "--l", "1", "--lambda", "1000000")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "") and err.startswith(f"error: {message}")


def test_genl_refuses_l_past_m_plus_1_by_its_flags(capsys):
    assert run(capsys, "bounds", "genl", "--t", "2", "--l", "20", "--lambda", "1", "--m", "7") == (
        2, "", "error: need l <= m + 1, got l=20, m=7\n")
    code, out, _ = run(capsys, "bounds", "genl", "--t", "2", "--l", "8", "--lambda", "1", "--m", "7")
    assert code == 0 and json.loads(out)["exact_numerator"] == 164


# exported for tests only: the references their checks compare against
EXPORTS_WITHOUT_CALLERS = (
    ("block_support_count", "the per-split column count the construction, design and closed-form tests read"),
    ("write_design", "the design text writer the round-trip and verify-design tests use"),
)


def test_every_export_has_a_caller():
    # a public name stays only while the package, the benchmark or the
    # acceptance criteria use it
    root = Path(__file__).resolve().parents[1]
    pkg = root / "src" / "xfc"
    exported = set(xfc._EXPORTS)
    assert len(exported) == 45
    users = [p for p in sorted(pkg.glob("*.py")) if p.name != "__init__.py"]
    users += sorted((root / "perfbench").glob("*.py")) + [root / "tests" / "test_acceptance.py"]
    used = set()
    for path in users:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)  # cli.BOUNDS names its functions as strings
    kept = {name for name, _ in EXPORTS_WITHOUT_CALLERS}
    assert exported - used - kept == set()
    assert kept <= exported and not kept & used  # every exception is still needed


def test_exports_resolve_to_the_modules_named():
    for name, module in xfc._EXPORTS.items():
        defining = importlib.import_module(f"xfc.{module}")
        value = getattr(xfc, name)
        assert value is getattr(defining, name)
        if name != "Configuration":  # a union alias carries no module of its own
            assert value.__module__ == defining.__name__, name
    assert sorted(xfc.__all__) == sorted(xfc._EXPORTS)
    with pytest.raises(AttributeError, match="no_such_name"):
        xfc.no_such_name


# subcommand, or construct with a second kind, -> (its arguments, the xfc
# modules besides xfc and xfc.cli that running it loads)
SUBCOMMAND_MODULES = {
    "contains": (["contains", "--config", "2,1,0", "--matrix", "{A}"], {"matrix"}),
    "bounds": (["bounds", "genl", "--t", "2", "--l", "1", "--lambda", "1", "--m", "7"], {"bounds"}),
    "search": (["search", "--m", "5", "--config", "2,1,1"], {"matrix", "search"}),
    # genl-equality and split-1100 count by their verified designs, so they evaluate no bound
    "construct": (["construct", "genl-equality", "--t", "2", "--l", "1", "--lambda", "1", "--m", "7"],
                  {"constructions", "designs", "matrix"}),
    "construct split-1100": (["construct", "split-1100", "--m", "7", "--a", "1", "--b", "1"],
                             {"constructions", "designs", "matrix"}),
    "analyze": (["analyze", "--matrix", "{A}", "--t", "1", "--l", "1", "--lambda", "1"],
                {"analysis", "bounds", "matrix"}),
    "audit": (["audit", "--m", "7"], {"analysis", "bounds", "constructions", "designs", "matrix"}),
    "verify-design": (["verify-design", "{D}"], {"designs", "matrix"}),
}


def _loaded_modules(code: str) -> set[str]:
    """The names in sys.modules after a fresh interpreter runs code."""
    script = f"import sys\n{code}\nprint(*sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(xfc.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    return set(proc.stdout.splitlines()[-1].split())


def _xfc_modules(loaded: set[str]) -> set[str]:
    return {m for m in loaded if m.split(".")[0] == "xfc"}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_MODULES))
def test_each_subcommand_imports_only_its_modules(command, tmp_path):
    matrix, design = tmp_path / "A.mat", tmp_path / "D.des"
    matrix.write_text("3 2\n10\n01\n11\n")
    design.write_text(write_design(sts(7)))
    args, modules = SUBCOMMAND_MODULES[command]
    argv = [a.format(A=matrix, D=design) for a in args]
    loaded = _loaded_modules(f"from xfc.cli import main\nif main({argv!r}) > 1: sys.exit(1)")
    assert _xfc_modules(loaded) == {"xfc", "xfc.cli"} | {f"xfc.{m}" for m in modules}
    # dataclasses costs 6-11 ms of start-up; only the search still uses it
    assert ("dataclasses" in loaded) == (command == "search")
    # fractions, with the decimal it loads, only where a bound is evaluated
    assert ("fractions" in loaded) == ("bounds" in modules)
    # the flag table needs neither argparse nor the gettext it loads
    assert not {"argparse", "gettext"} & loaded


def test_search_module_does_not_load_the_constructions():
    assert _xfc_modules(_loaded_modules("import xfc.search")) == {"xfc", "xfc.matrix", "xfc.search"}


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


SEARCH = ["search", "--m", "5", "--config", "2,1,1"]


def test_flag_equals_value_reads_as_two_words(capsys):
    joined = ["--t=2", "--l=1", "--lambda=1", "--m=7"]
    assert run(capsys, "bounds", "genl", *joined) == run(capsys, "bounds", "genl", *GENL)
    assert parse_args(["search", "--m=5", "--config=2,1,1", "--policy=free", "--sums=1..3"]) == \
        parse_args([*SEARCH, "--policy", "free", "--sums", "1..3"])


def test_int_values_may_be_negative():
    assert parse_args([*SEARCH, "--budget-nodes", "-1"]).budget_nodes == -1
    assert parse_args(["bounds", "genl", *GENL, "--lambda", "-3"]).lam == -3


def test_repeated_flag_last_wins(capsys):
    args = parse_args([*SEARCH, "--m", "9", "--policy", "paper", "--policy=free"])
    assert (args.m, args.policy) == (9, "free")
    assert run(capsys, "bounds", "genl", "--m", "9", *GENL) == run(capsys, "bounds", "genl", *GENL)


def test_short_out_is_long_out():
    kms = ["construct", "kms", "--m", "5", "--s", "2"]
    assert parse_args([*kms, "-o", "a.mat"]) == parse_args([*kms, "--out", "a.mat"]) == \
        parse_args([*kms, "-o=a.mat"])
    assert parse_args([*kms, "-o", "a.mat"]).out == "a.mat"


@pytest.mark.parametrize("argv, listed", [
    (["-h"], list(COMMANDS)),
    (["--help"], list(COMMANDS)),
    (["search", "-h"], ["--m", "--config", "--config-file", "--sums", "--policy", "--budget-nodes",
                        "--witness-out"]),
    (["construct", "kms", "--help"], ["-o, --out", "--meta", "--design", "split-1100"]),
])
def test_help_lists_the_table_and_exits_0(capsys, argv, listed):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, err) == (0, "")
    assert out.startswith("usage: xfc ")
    assert [name for name in listed if name not in out] == []


@pytest.mark.parametrize("argv, named", [
    ([*SEARCH, "--workers", "2"], "unknown flag '--workers'"),
    ([*SEARCH, "--work=2"], "unknown flag '--work=2'"),
    ([*SEARCH, "--polic", "free"], "unknown flag '--polic'"),  # no abbreviations
    (["search", "--config", "2,1,1", "--m"], "flag '--m' needs a value"),
    ([*SEARCH, "--policy", "greedy"], "--policy: invalid choice 'greedy'"),
    (["construct", "kmz", "--m", "5"], "kind: invalid choice 'kmz'"),
    (["bounds", "genl2", "--m", "5"], "formula: invalid choice 'genl2'"),
    (["search", "--m", "five", "--config", "2,1,1"], "--m: invalid int value 'five'"),
    (["search", "--m=", "--config", "2,1,1"], "--m: invalid int value ''"),
    (["analyze", "--t", "2", "--l", "1", "--lambda", "1"], "missing required argument(s): --matrix"),
    (["verify-design"], "missing required argument(s): design"),
    (["verify-design", "a.des", "b.des"], "unrecognized argument 'b.des'"),
    (["construct", "kms", "--m", "5", "--s", "2", "5"], "unrecognized argument '5'"),
    (["construct", "kms", "--meta=yes"], "--meta takes no value, got '--meta=yes'"),
    (["frobnicate"], "command: invalid choice 'frobnicate'"),
    ([], "missing command"),
])
def test_parse_errors_print_usage_and_name_the_token(capsys, argv, named):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    usage, error = err.splitlines()
    assert usage.startswith("usage: xfc ")
    assert error.startswith(f"error: {named}")


# exit code of each xfc line of the README's command-line block, in order
README_EXITS = [0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0]


def test_readme_command_block(capsys, tmp_path, monkeypatch):
    # every line runs through main in one directory, in order, with my.des
    # a triple system and pattern.mat a 2 x 2 pattern
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## Command line\n", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("xfc ")]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "my.des").write_text(write_design(sts(7)))
    (tmp_path / "pattern.mat").write_text("2 2\n10\n01\n")
    codes = []
    for line in lines:
        code, out, err = run(capsys, *shlex.split(line)[1:])
        assert err == "", line
        codes.append(code)
    assert codes == README_EXITS
