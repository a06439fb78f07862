"""Property tests of the matrix text format and the CLI's input errors."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from xfc.cli import main
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
