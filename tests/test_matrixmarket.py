import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sparsekaczmarz import matrixmarket, read_matrix_market, write_matrix_market
from sparsekaczmarz.errors import ParseError, UnsupportedFieldError


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_coordinate_real_general(tmp_path):
    path = tmp_path / "diag.mtx"
    write_lines(
        path,
        [
            "%%MatrixMarket matrix coordinate real general",
            "2 2 2",
            "1 1 3.0",
            "2 2 4.0",
        ],
    )
    assert np.array_equal(read_matrix_market(path), np.diag([3.0, 4.0]))


def test_one_based_indices_convert(tmp_path):
    path = tmp_path / "corner.mtx"
    write_lines(
        path,
        [
            "%%MatrixMarket matrix coordinate real general",
            "3 3 1",
            "3 1 -2.5",
        ],
    )
    out = read_matrix_market(path)
    assert out[2, 0] == -2.5
    assert np.count_nonzero(out) == 1


def test_symmetric_lower_triangle_expands(tmp_path):
    path = tmp_path / "sym.mtx"
    write_lines(
        path,
        [
            "%%MatrixMarket matrix coordinate real symmetric",
            "3 3 4",
            "1 1 1.0",
            "2 1 5.0",
            "3 2 -1.0",
            "3 3 2.0",
        ],
    )
    out = read_matrix_market(path)
    expected = np.array([[1.0, 5.0, 0.0], [5.0, 0.0, -1.0], [0.0, -1.0, 2.0]])
    assert np.array_equal(out, expected)


def test_duplicate_entries_are_summed(tmp_path):
    path = tmp_path / "dup.mtx"
    write_lines(
        path,
        [
            "%%MatrixMarket matrix coordinate real general",
            "2 2 3",
            "1 1 1.5",
            "1 1 2.5",
            "2 1 1.0",
        ],
    )
    out = read_matrix_market(path)
    assert out[0, 0] == 4.0
    assert out[1, 0] == 1.0


def test_comments_and_blank_lines_skipped(tmp_path):
    path = tmp_path / "comments.mtx"
    write_lines(
        path,
        [
            "%%MatrixMarket matrix coordinate real general",
            "% a comment",
            "",
            "1 2 2",
            "1 1 7.0",
            "% trailing comment",
            "1 2 8.0",
        ],
    )
    assert np.array_equal(read_matrix_market(path), [[7.0, 8.0]])


def test_array_format_column_major(tmp_path):
    path = tmp_path / "arr.mtx"
    write_lines(
        path,
        [
            "%%MatrixMarket matrix array real general",
            "2 3 ".strip(),
            "1.0",
            "2.0",
            "3.0",
            "4.0",
            "5.0",
            "6.0",
        ],
    )
    out = read_matrix_market(path)
    assert np.array_equal(out, [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])


def test_array_symmetric(tmp_path):
    path = tmp_path / "arrsym.mtx"
    write_lines(
        path,
        [
            "%%MatrixMarket matrix array real symmetric",
            "2 2",
            "1.0",
            "2.0",
            "3.0",
        ],
    )
    assert np.array_equal(read_matrix_market(path), [[1.0, 2.0], [2.0, 3.0]])


def test_integer_field_reads_as_float(tmp_path):
    path = tmp_path / "int.mtx"
    write_lines(
        path,
        [
            "%%MatrixMarket matrix coordinate integer general",
            "1 1 1",
            "1 1 7",
        ],
    )
    assert read_matrix_market(path)[0, 0] == 7.0


def test_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 4))
    a[rng.random((6, 4)) < 0.5] = 0.0
    path = tmp_path / "rt.mtx"
    write_matrix_market(path, a)
    assert np.array_equal(read_matrix_market(path), a)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    a=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6), elements=_FINITE),
    comment=st.one_of(st.none(), st.text(alphabet=st.characters(blacklist_categories=("Cc", "Cs")), max_size=20)),
)
def test_round_trip_is_bitwise_for_finite_arrays(tmp_path, a, comment):
    path = tmp_path / "prop.mtx"
    write_matrix_market(path, a, comment=comment)
    back = read_matrix_market(path)
    assert back.shape == a.shape and back.dtype == np.float64
    # bit for bit; -0.0 is a zero, so it is not written and reads back as +0.0
    assert np.array_equal(back.view(np.int64), (a + 0.0).view(np.int64))


@pytest.mark.parametrize("layout,size", [("coordinate", "1000000 1000000 1"), ("array", "1000000 1000000")])
def test_size_above_the_dense_cap_is_refused_at_the_size_line(tmp_path, layout, size):
    path = tmp_path / "huge.mtx"
    write_lines(path, [f"%%MatrixMarket matrix {layout} real general", "% declared, not stored", size, "1 1 1.0"])
    with pytest.raises(ParseError, match="exceeds the cap") as exc:
        read_matrix_market(path)
    assert exc.value.line_number == 3
    assert 10**12 > matrixmarket.MAX_DENSE_ENTRIES


def test_negative_size_is_refused(tmp_path):
    path = tmp_path / "negative.mtx"
    write_lines(path, ["%%MatrixMarket matrix coordinate real general", "-2 3 0"])
    with pytest.raises(ParseError, match="negative size") as exc:
        read_matrix_market(path)
    assert exc.value.line_number == 2


def test_bad_banner(tmp_path):
    path = tmp_path / "bad.mtx"
    write_lines(path, ["% not a banner", "1 1 1", "1 1 1.0"])
    with pytest.raises(ParseError) as exc:
        read_matrix_market(path)
    assert exc.value.line_number == 1


def test_complex_field_unsupported(tmp_path):
    path = tmp_path / "cplx.mtx"
    write_lines(path, ["%%MatrixMarket matrix coordinate complex general", "1 1 1", "1 1 1.0 0.0"])
    with pytest.raises(UnsupportedFieldError):
        read_matrix_market(path)


def test_pattern_field_unsupported(tmp_path):
    path = tmp_path / "pat.mtx"
    write_lines(path, ["%%MatrixMarket matrix coordinate pattern general", "1 1 1", "1 1"])
    with pytest.raises(UnsupportedFieldError):
        read_matrix_market(path)


def test_malformed_entry_reports_line(tmp_path):
    path = tmp_path / "mal.mtx"
    write_lines(
        path,
        [
            "%%MatrixMarket matrix coordinate real general",
            "2 2 2",
            "1 1 1.0",
            "2 oops 1.0",
        ],
    )
    with pytest.raises(ParseError) as exc:
        read_matrix_market(path)
    assert exc.value.line_number == 4


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_non_finite_coordinate_value_reports_line(tmp_path, value):
    path = tmp_path / "nan.mtx"
    write_lines(
        path,
        ["%%MatrixMarket matrix coordinate real general", "2 2 2", "1 1 1.0", f"2 2 {value}"],
    )
    with pytest.raises(ParseError) as exc:
        read_matrix_market(path)
    assert exc.value.line_number == 4


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_non_finite_array_value_reports_line(tmp_path, value):
    path = tmp_path / "nan.mtx"
    write_lines(path, ["%%MatrixMarket matrix array real general", "2 1", "1.0", value])
    with pytest.raises(ParseError) as exc:
        read_matrix_market(path)
    assert exc.value.line_number == 4


def test_out_of_range_index(tmp_path):
    path = tmp_path / "oob.mtx"
    write_lines(
        path,
        ["%%MatrixMarket matrix coordinate real general", "2 2 1", "3 1 1.0"],
    )
    with pytest.raises(ParseError):
        read_matrix_market(path)


def test_entry_count_mismatch(tmp_path):
    path = tmp_path / "count.mtx"
    write_lines(
        path,
        ["%%MatrixMarket matrix coordinate real general", "2 2 2", "1 1 1.0"],
    )
    with pytest.raises(ParseError):
        read_matrix_market(path)


def test_non_utf8_file_is_parse_error(tmp_path):
    path = tmp_path / "latin1.mtx"
    path.write_bytes(b"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 \xe9\n")
    with pytest.raises(ParseError) as exc:
        read_matrix_market(path)
    assert exc.value.line_number == 4
    path = tmp_path / "random.bin"
    path.write_bytes(np.random.default_rng(0).bytes(200))
    with pytest.raises(ParseError):
        read_matrix_market(path)


@pytest.mark.parametrize(
    "layout, body",
    [("coordinate", ["3 2 2", "1 1 1.0", "3 1 2.0"]), ("array", ["3 2", "1.0", "2.0", "3.0", "4.0", "5.0", "6.0"])],
)
def test_non_square_symmetric_is_refused_at_the_size_line(tmp_path, layout, body):
    # a symmetric file mirrors every entry, which a non-square size cannot hold
    path = tmp_path / "nonsquare.mtx"
    write_lines(path, [f"%%MatrixMarket matrix {layout} real symmetric", "% comment", *body])
    with pytest.raises(ParseError, match="must be square") as exc:
        read_matrix_market(path)
    assert exc.value.line_number == 3


def test_indented_comment_before_the_size_line_is_a_comment(tmp_path):
    path = tmp_path / "indented.mtx"
    write_lines(path, ["%%MatrixMarket matrix coordinate real general", "  % indented", "\t%", "1 2 1", "1 2 8.0"])
    assert np.array_equal(read_matrix_market(path), [[0.0, 8.0]])


def test_symmetric_entries_of_one_cell_sum_in_file_order(tmp_path):
    # (2,1) and its mirror (1,2) name one cell: its entries sum in file order,
    # (1 - 1) + 1e-20, where another order would give (1 + 1e-20) - 1 = 0
    path = tmp_path / "both_triangles.mtx"
    write_lines(
        path,
        ["%%MatrixMarket matrix coordinate real symmetric", "2 2 3", "2 1 1.0", "1 2 -1.0", "2 1 1e-20"],
    )
    assert np.array_equal(read_matrix_market(path), [[0.0, 1e-20], [1e-20, 0.0]])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "symmetry,entries,line,cell",
    [
        ("general", ["1 1 1.5e308", "2 2 1.0", "1 1 1.5e308", "1 1 -1.0"], 5, "(1,1)"),
        ("general", ["2 1 -1e308", "2 1 -1e308", "1 1 1.0", "2 2 1.0"], 4, "(2,1)"),
        # an entry above the diagonal folds onto its mirror's cell
        ("symmetric", ["1 1 1.0", "2 1 1.5e308", "1 2 1.5e308", "2 2 1.0"], 5, "(2,1)"),
    ],
)
def test_duplicate_entries_that_sum_past_the_float_range_are_refused(tmp_path, symmetry, entries, line, cell):
    # each value is finite; the error names the entry whose term takes its
    # cell's sum to infinity, and numpy's overflow warning is not raised
    path = tmp_path / "overflow.mtx"
    write_lines(path, [f"%%MatrixMarket matrix coordinate real {symmetry}", "2 2 4", *entries])
    with pytest.raises(ParseError, match=rf"cell \({cell[1]},{cell[3]}\) sum to a non-finite value") as exc:
        read_matrix_market(path)
    assert exc.value.line_number == line


def test_duplicate_entries_near_the_float_range_still_read(tmp_path):
    path = tmp_path / "large.mtx"
    write_lines(path, ["%%MatrixMarket matrix coordinate real general", "1 1 2", "1 1 8e307", "1 1 8e307"])
    assert read_matrix_market(path)[0, 0] == 8e307 + 8e307


_COMMENTS = st.sampled_from(["", "   ", "%", "% a comment", "%%MatrixMarket in a comment", "  % indented", "\t%"])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    a=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6), elements=_FINITE),
    symmetric=st.booleans(),
    data=st.data(),
)
def test_array_layout_reads_back_bit_for_bit(tmp_path, a, symmetric, data):
    # array files written by hand, as write_matrix_market writes coordinate
    # files only: a general one column by column, a symmetric one its lower
    # triangle column by column, with comments and blank lines anywhere after
    # the banner. Values are assigned, not summed, so -0.0 stays -0.0
    if symmetric:
        a = a[: min(a.shape), : min(a.shape)]
        a = np.where(np.tri(a.shape[0], dtype=bool), a, a.T)
    m, n = a.shape
    values = [a[i, j] for j in range(n) for i in range(j if symmetric else 0, m)]
    lines = [f"{m} {n}", *(repr(float(v)) for v in values)]
    for _ in range(data.draw(st.integers(0, 6))):
        lines.insert(data.draw(st.integers(0, len(lines))), data.draw(_COMMENTS))
    banner = f"%%MatrixMarket matrix array real {'symmetric' if symmetric else 'general'}"
    path = tmp_path / "array.mtx"
    write_lines(path, [banner, *lines])
    back = read_matrix_market(path)
    assert back.shape == a.shape and back.dtype == np.float64
    assert np.array_equal(back.view(np.int64), a.view(np.int64))
