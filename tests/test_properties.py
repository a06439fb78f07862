"""Property tests of the matrix and design text formats and the CLI's input errors,
in files and in arguments."""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from xfc.cli import main
from xfc.designs import Design, DesignFormatError, read_design, write_design
from xfc.matrix import BinMatrix, MatrixFormatError, read_matrix

# derandomized, so every run of the suite draws the same examples
deterministic = settings(derandomize=True, deadline=None, max_examples=200)


@st.composite
def matrices(draw, min_rows=0, min_cols=0):
    m = draw(st.integers(min_rows, 8))
    cols = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=min_cols, max_size=10))
    return BinMatrix(m, tuple(cols))


# characters read_matrix rejects inside a row; line breaks are excluded
# because they would split the row instead
BAD_CHARS = st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"), blacklist_characters="01")


@st.composite
def malformed_texts(draw):
    """Matrix text with one defect, and the 1-based line that reports it."""
    A = draw(matrices(min_rows=1, min_cols=1))
    lines = A.to_text().splitlines()
    kind = draw(st.sampled_from(("header", "char", "length", "missing", "trailing")))
    if kind == "header":
        lines[0] = draw(st.sampled_from(("", "3", "1 2 3", "a 2", "2 b", "-1 2", "2 -1")))
        return "\n".join(lines) + "\n", 1
    if kind == "missing":
        drop = draw(st.integers(1, A.m))
        return "\n".join(lines[:-drop]) + "\n", len(lines) - drop + 1
    if kind == "trailing":
        junk = draw(st.text(BAD_CHARS, min_size=1).filter(str.strip))
        return "\n".join(lines + [junk]) + "\n", A.m + 2
    r = draw(st.integers(1, A.m))
    row = lines[r]
    if kind == "char":
        j = draw(st.integers(0, len(row) - 1))
        lines[r] = row[:j] + draw(BAD_CHARS) + row[j + 1:]
    else:
        lines[r] = draw(st.sampled_from((row[:-1], row + "0", row + "1")))
    return "\n".join(lines) + "\n", r + 1


@deterministic
@given(matrices())
def test_text_round_trip_property(A):
    B = read_matrix(A.to_text())
    assert (B.m, B.cols) == (A.m, A.cols)


def reference_text(A):
    """The matrix text format, written one bit at a time."""
    rows = ["".join("1" if c >> r & 1 else "0" for c in A.cols) for r in range(A.m)]
    return "\n".join([f"{A.m} {A.ncols}", *rows]) + "\n"


def reference_read(text):
    """The (m, cols) of matrix text whose header is well formed and whose
    row lines are all there, or the (line, message) of its first bad row,
    read one character at a time: each row's length, then its characters."""
    lines = text.splitlines()
    m, n = map(int, lines[0].split())
    cols = [0] * n
    for r in range(m):
        row = lines[r + 1]
        if len(row) != n:
            return r + 2, f"expected {n} characters, got {len(row)}"
        for j, ch in enumerate(row):
            if ch == "1":
                cols[j] |= 1 << r
            elif ch != "0":
                return r + 2, f"invalid character {ch!r}"
    return m, tuple(cols)


# a row defect: none, one character short or long, or a character that
# may be bad in the first or the last position or in both (an empty row
# becomes long)
ROW_CHARS = BAD_CHARS | st.sampled_from("01")
ROW_DEFECTS = st.lists(st.tuples(st.sampled_from(("none", "short", "long", "first", "last", "ends")),
                                 ROW_CHARS, ROW_CHARS), max_size=8)


@deterministic
@given(matrices(), ROW_DEFECTS)
@example(BinMatrix(0, (0, 0, 0)), [])
@example(BinMatrix(3, ()), [("none", "x", "y"), ("first", "x", "y")])
@example(BinMatrix(2, (1, 2, 3)), [("long", "x", "y"), ("first", "x", "y")])
@example(BinMatrix(2, (1, 2, 3)), [("last", "2", "y"), ("short", "0", "y")])
@example(BinMatrix(1, (1, 0, 1)), [("ends", "x", "y")])
def test_text_matches_per_bit_reference(A, defects):
    text = A.to_text()
    assert text == reference_text(A)
    lines = text.splitlines()
    for r, (kind, ch, last) in zip(range(1, A.m + 1), defects):
        row = lines[r]
        lines[r] = {"none": row, "short": row[:-1], "long": row + ch, "first": ch + row[1:],
                    "last": row[:-1] + last, "ends": ch + row[1:-1] + last}[kind]
    text = "\n".join(lines) + "\n"
    want = reference_read(text)
    if isinstance(want[1], tuple):
        assert read_matrix(text) == BinMatrix(*want)
    else:
        with pytest.raises(MatrixFormatError) as err:
            read_matrix(text)
        assert (err.value.line, str(err.value)) == (want[0], f"line {want[0]}: {want[1]}")


@deterministic
@given(malformed_texts())
def test_malformed_text_reports_its_line(case):
    text, line = case
    with pytest.raises(MatrixFormatError) as err:
        read_matrix(text)
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}: ")


# fewer examples than above: each one writes a file; it rewrites the same
# file and drains the captured output, so the fixtures are safe to share
@settings(deterministic, max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(malformed_texts())
def test_cli_malformed_matrix_is_usage_error(capsys, tmp_path, case):
    text, line = case
    path = tmp_path / "bad.mat"
    path.write_text(text)
    code = main(["contains", "--config", "1,1,0", "--matrix", str(path)])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert f"line {line}" in out.err
    assert "Traceback" not in out.err


@st.composite
def designs(draw, min_points=0, min_blocks=0):
    m = draw(st.integers(max(min_points, 1), 8))
    k = draw(st.integers(min_points, m))
    block = st.lists(st.integers(1, m), min_size=k, max_size=k, unique=True).map(sorted)
    blocks = draw(st.lists(block.map(tuple), min_size=min_blocks, max_size=6))
    return Design(m, k, draw(st.integers(0, k)), draw(st.integers(0, 3)), tuple(blocks))


@st.composite
def malformed_designs(draw):
    """Design text with one defect, and the 1-based line that reports it."""
    d = draw(designs(min_points=2, min_blocks=1))
    lines = write_design(d).splitlines()
    kind = draw(st.sampled_from(("header", "point", "count", "order", "range", "missing",
                                 "trailing")))
    if kind == "header":
        lines[0] = draw(st.sampled_from(("", "7 3 2 1", "7 3 2 1 1 1", "a 3 2 1 1",
                                         "7 3 2 1 x", "-7 3 2 1 0", "7 3 2 1 -1")))
        return "\n".join(lines) + "\n", 1
    if kind == "missing":
        drop = draw(st.integers(1, d.nblocks))
        return "\n".join(lines[:-drop]) + "\n", len(lines) - drop + 1
    if kind == "trailing":
        return "\n".join(lines + [draw(st.sampled_from(("x", "1 2", "0")))]) + "\n", len(lines) + 1
    i = draw(st.integers(1, d.nblocks))
    pts = lines[i].split()
    j = draw(st.integers(0, len(pts) - 1))
    if kind == "point":
        pts[j] = draw(st.sampled_from(("x", "1.5", "2a", "-")))
    elif kind == "count":
        pts = pts[:-1] if draw(st.booleans()) else pts + [pts[-1]]
    elif kind == "order":  # a swap or a repeat; j = 0 pairs the last point with the first
        pts[j - 1], pts[j] = (pts[j], pts[j]) if draw(st.booleans()) else (pts[j], pts[j - 1])
    else:
        pts[0 if draw(st.booleans()) else -1] = draw(st.sampled_from(("0", str(d.m + 1))))
    lines[i] = " ".join(pts)
    return "\n".join(lines) + "\n", i + 1


@deterministic
@given(designs())
def test_design_text_round_trip_property(d):
    assert read_design(write_design(d)) == d


@deterministic
@given(malformed_designs())
def test_malformed_design_reports_its_line(case):
    text, line = case
    with pytest.raises(DesignFormatError) as err:
        read_design(text)
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}: ")


@settings(deterministic, max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(malformed_designs())
def test_cli_malformed_design_is_usage_error(capsys, tmp_path, case):
    text, line = case
    path = tmp_path / "bad.des"
    path.write_text(text)
    code = main(["verify-design", str(path)])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert f"line {line}" in out.err
    assert "Traceback" not in out.err


# tokens int() rejects; none holds a comma or "..", so each stays one field
JUNK = st.sampled_from(("x", "", " ", "2a", "1.5", "0x1", "+-1", "1e3"))


# usage_error drains the captured output, so the fixtures are safe to share
cli_args = settings(deterministic, max_examples=60,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def usage_error(capsys, argv, bad):
    """The CLI refuses argv with exit 2, no stdout and no traceback, and
    names the bad value on stderr."""
    try:
        code = main(argv)
    except SystemExit as e:  # argparse's own refusals
        code = e.code
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert bad in out.err
    assert "Traceback" not in out.err


@st.composite
def bad_configs(draw):
    """A q,t,l text with one defect: the field count, a non-integer or a
    negative field.  Every message quotes the whole text."""
    fields = draw(st.lists(st.integers(0, 9).map(str), min_size=3, max_size=3))
    kind = draw(st.sampled_from(("count", "junk", "negative")))
    if kind == "count":
        fields = fields[:draw(st.integers(1, 2))] if draw(st.booleans()) else fields + ["1"]
    else:
        bad = draw(JUNK) if kind == "junk" else str(draw(st.integers(-99, -1)))
        fields[draw(st.integers(0, 2))] = bad
    return ",".join(fields)


def with_bad_part(draw, good, bad_part):
    parts = draw(st.lists(good, max_size=3))
    parts.insert(draw(st.integers(0, len(parts))), bad_part)
    return ",".join(parts)


@st.composite
def bad_sums(draw):
    """A --sums text for m = 7 with one bad part, and the text that names it."""
    if draw(st.booleans()):
        junk = draw(JUNK)
        part = junk if draw(st.booleans()) else f"{draw(st.integers(0, 7))}..{junk}"
        return with_bad_part(draw, st.integers(0, 7).map(str), part), repr(junk)
    # out of range, however far: both ends are checked before a range is expanded
    far = draw(st.integers(-10**9, -1) | st.integers(8, 10**9))
    near = draw(st.integers(0, 7))
    part = draw(st.sampled_from((f"{far}", f"{far}..{near}", f"{near}..{far}")))
    text = with_bad_part(draw, st.integers(0, 7).map(str), part)
    return text, text


@st.composite
def bad_row_counts(draw):
    """An --m value that no search or audit accepts, and the text that names it."""
    if draw(st.booleans()):
        junk = draw(JUNK)
        return junk, repr(junk)
    m = str(draw(st.integers(-10**6, 0)))
    return m, m


@st.composite
def bad_rows(draw):
    """A --rows text for a 7-row matrix with one bad row, and the text that names it."""
    if draw(st.booleans()):
        part = draw(JUNK)
        bad = repr(part)
    else:
        part = bad = str(draw(st.integers(-10**6, 0) | st.integers(8, 10**6)))
    return with_bad_part(draw, st.integers(1, 7).map(str), part), bad


@cli_args
@given(bad_configs())
def test_cli_malformed_config_is_usage_error(capsys, text):
    usage_error(capsys, ["search", "--m", "7", f"--config={text}"], text)


@cli_args
@given(bad_sums())
def test_cli_malformed_sums_is_usage_error(capsys, case):
    text, bad = case
    usage_error(capsys, ["search", "--m", "7", "--config", "2,2,1", f"--sums={text}"], bad)


@cli_args
@given(bad_row_counts(), st.booleans())
def test_cli_malformed_m_is_usage_error(capsys, case, audit):
    value, bad = case
    if audit:  # a list of row counts, each of which needs a triple system
        usage_error(capsys, ["audit", f"--m={value}"], bad)
    else:
        usage_error(capsys, ["search", f"--m={value}", "--config", "2,2,1"], bad)


@pytest.fixture(scope="module")
def seven_rows(tmp_path_factory):
    path = tmp_path_factory.mktemp("rows") / "a.mat"
    path.write_text(BinMatrix(7, tuple(range(0, 128, 3))).to_text())
    return path


@cli_args
@given(bad_rows())
def test_cli_malformed_rows_is_usage_error(capsys, seven_rows, case):
    text, bad = case
    usage_error(capsys, ["analyze", "--matrix", str(seven_rows), "--t", "2", "--l", "1",
                         "--lambda", "1", f"--rows={text}"], bad)


@st.composite
def analyze_inputs(draw):
    """An analyze call: a matrix of 1..300 rows and 0..3 columns, and t,
    ell and lam, some of them out of range."""
    m = draw(st.integers(1, 300))
    # t near m as often as anywhere: C(m, t) is small there, m ** (t - 1) is not
    t = draw(st.integers(1, m) | st.integers(max(1, m - 2), m))
    full = (1 << m) - 1
    column = st.sampled_from((0, full, (1 << t) - 1, (1 << t + 1) - 1 & full)) | st.integers(0, full)
    cols = draw(st.lists(column, max_size=3))
    return BinMatrix(m, tuple(cols)), t, draw(st.integers(-1, m)), draw(st.integers(-1, 3))


@cli_args
@given(analyze_inputs())
def test_cli_analyze_answers_or_refuses(capsys, tmp_path, case):
    # a verdict as one JSON line, or a usage error: never a traceback
    A, t, ell, lam = case
    path = tmp_path / "a.mat"
    path.write_text(A.to_text())
    code = main(["analyze", "--matrix", str(path), "--t", str(t), "--l", str(ell),
                 "--lambda", str(lam), "--witness"])
    out = capsys.readouterr()
    if code == 2:
        assert out.out == "" and out.err.startswith("error: ") and "Traceback" not in out.err
    else:
        assert code in (0, 1) and out.err == ""
        (line,) = out.out.splitlines()
        assert json.loads(line)["all_passed"] is (code == 0)
