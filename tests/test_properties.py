"""Property tests of the matrix and design text formats and the CLI's input errors."""

import pytest
from hypothesis import HealthCheck, given, settings
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
