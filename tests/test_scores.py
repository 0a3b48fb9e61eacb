import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hde import (
    AlignmentError,
    MissingClassError,
    ParseError,
    RangeError,
    ScoreMatrix,
    align_to_dag,
    build_dag,
    check_valid_continuous,
    check_valid_discrete,
    count_violations,
    read_scores,
    write_scores,
)
from hde.oracles import validity_oracle

import per_node_reference as ref
from conftest import random_dag


@pytest.fixture
def diamond_dag():
    return build_dag([("r", "a"), ("r", "b"), ("a", "c"), ("b", "c")])


class TestDiscreteValidity:
    def test_ancestor_closed_set(self, diamond_dag):
        assert check_valid_discrete(diamond_dag, {"r", "a"})

    def test_missing_parents(self, diamond_dag):
        assert not check_valid_discrete(diamond_dag, {"c"})

    def test_empty_set(self, diamond_dag):
        assert check_valid_discrete(diamond_dag, set())

    def test_unknown_node(self, diamond_dag):
        from hde import UnknownNodeError
        with pytest.raises(UnknownNodeError):
            check_valid_discrete(diamond_dag, {"zzz"})


class TestContinuousValidity:
    def test_single_violation(self, diamond_dag):
        rep = check_valid_continuous(diamond_dag, [0.9, 0.5, 0.7, 0.6])
        assert rep.violations == (("a", "c", 0.5, 0.6),)
        assert rep.total_count == 1
        assert rep.max_gap == pytest.approx(0.1)

    def test_constant_row_valid(self, diamond_dag):
        rep = check_valid_continuous(diamond_dag, [0.4] * 4)
        assert not rep

    def test_single_edge(self):
        dag = build_dag([("r", "a")])
        rep = check_valid_continuous(dag, [0.2, 0.8])
        assert rep.violations == (("r", "a", 0.2, 0.8),)

    def test_eps_absorbs_small_gaps(self):
        dag = build_dag([("r", "a")])
        assert not check_valid_continuous(dag, [0.5, 0.5 + 1e-12], eps=1e-9)
        assert check_valid_continuous(dag, [0.5, 0.5 + 1e-12], eps=0.0)

    def test_misaligned_row(self, diamond_dag):
        with pytest.raises(AlignmentError):
            check_valid_continuous(diamond_dag, [0.1, 0.2])

    def test_count_violations_matches_per_row_reports(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            dag = random_dag(rng, int(rng.integers(2, 20)))
            vals = rng.uniform(size=(4, len(dag)))
            per_row = sum(check_valid_continuous(dag, vals[r]).total_count
                          for r in range(4))
            assert count_violations(dag, vals) == per_row


class TestDiscreteContinuousAgreement:
    def test_exhaustive_small_dags(self):
        # 0/1 indicator validity and continuous validity coincide
        rng = np.random.default_rng(5)
        for _ in range(10):
            dag = random_dag(rng, int(rng.integers(2, 8)))
            n = len(dag)
            for bits in itertools.product((0, 1), repeat=n):
                s = {dag.nodes[i] for i in range(n) if bits[i]}
                discrete = check_valid_discrete(dag, s)
                continuous = not check_valid_continuous(dag, np.array(bits, float))
                assert discrete == continuous
                assert validity_oracle(dag, s) == discrete


class TestScoreMatrix:
    def test_range_enforced(self):
        for bad in (1.5, np.nan):
            with pytest.raises(RangeError):
                ScoreMatrix(["e1"], ["a"], np.array([[bad]]))

    def test_duplicate_examples(self):
        with pytest.raises(ParseError):
            ScoreMatrix(["e1", "e1"], ["a"], np.zeros((2, 1)))

    def test_shape_mismatch(self):
        with pytest.raises(AlignmentError):
            ScoreMatrix(["e1"], ["a", "b"], np.zeros((1, 3)))


class TestScoresIO:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("example\tr\ta\ne1\t0.9\t0.5\n")
        m = read_scores(path)
        assert m.example_ids == ["e1"]
        assert m.class_ids == ["r", "a"]
        assert m.values.shape == (1, 2)
        assert m.values[0, 0] == 0.9

    def test_out_of_range_value(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("example\tr\ne1\t1.5\n")
        with pytest.raises(RangeError, match="line 2"):
            read_scores(path)

    def test_bad_column_count(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("example\tr\ta\ne1\t0.9\n")
        with pytest.raises(ParseError, match="line 2"):
            read_scores(path)

    @pytest.mark.parametrize("line5", ["e4\t0.5", "e4\t0.5\tx"],
                             ids=["column-count", "unparseable"])
    def test_range_error_precedes_later_parse_error(self, tmp_path, line5):
        path = tmp_path / "s.tsv"
        path.write_text("example\tr\ta\ne1\t0.9\t0.5\ne2\t0.9\t1.5\n"
                        f"e3\t0.9\tnan\n{line5}\n")
        with pytest.raises(RangeError,
                           match=r"^line 3: value 1\.5 outside \[0, 1\]$"):
            read_scores(path)

    def test_nan_is_range_error(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("example\tr\ta\ne1\t0.9\t0.5\n# note\n\n"
                        "e2\tnan\t1.5\n")
        with pytest.raises(RangeError,
                           match=r"^line 5: value nan outside \[0, 1\]$"):
            read_scores(path)

    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(8)
        m = ScoreMatrix([f"e{i}" for i in range(5)],
                        [f"c{j}" for j in range(7)],
                        rng.uniform(size=(5, 7)))
        path = tmp_path / "s.tsv"
        write_scores(m, path)
        assert read_scores(path) == m

    def test_digits_truncation(self, tmp_path):
        m = ScoreMatrix(["e1"], ["a"], np.array([[0.123456789]]))
        path = tmp_path / "s.tsv"
        write_scores(m, path, digits=3)
        assert read_scores(path).values[0, 0] == 0.123


UNIT_FLOATS = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([-0.0, 0.0, 5e-324, 1.0, 0.5, np.nextafter(0.5, 0.0),
                     np.nextafter(0.5, 1.0), np.nextafter(1.0, 0.0)]))
SCORE_VALUES = st.tuples(st.integers(0, 5), st.integers(1, 6)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=UNIT_FLOATS))


def per_scalar_text(matrix, digits):
    """The writer's text as formatted one numpy scalar at a time."""
    lines = [f"# {c}" for c in matrix.comments]
    lines.append("example\t" + "\t".join(matrix.class_ids))
    for ex, row in zip(matrix.example_ids, matrix.values):
        cells = [repr(float(v)) if digits is None else f"{v:.{digits}f}"
                 for v in row]
        lines.append(ex + "\t" + "\t".join(cells))
    return "".join(line + "\n" for line in lines)


class TestScoresRoundTrip:
    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(values=SCORE_VALUES, digits=st.sampled_from([None, 0, 1, 3, 17]))
    def test_write_read_round_trip(self, tmp_path_factory, values, digits):
        m = ScoreMatrix([f"e{i}" for i in range(values.shape[0])],
                        [f"c{j}" for j in range(values.shape[1])],
                        values, comments=["a note"])
        path = tmp_path_factory.mktemp("rt") / "s.tsv"
        write_scores(m, path, digits=digits)
        assert path.read_text(encoding="utf-8") == per_scalar_text(m, digits)
        if digits is None:
            back = read_scores(path)
            assert back.example_ids == m.example_ids
            assert back.class_ids == m.class_ids
            assert back.comments == m.comments
            assert back.values.shape == values.shape
            # bit for bit: -0.0 must stay -0.0
            assert back.values.tobytes() == values.tobytes()


HARD_LITERALS = [
    "0.1000000000000000055511151231257827021181583404541015625",
    "0.50000000000000011102230246251565404236316680908203125",
    "4.9406564584124654e-324", "2.2250738585072011e-308", "1E-5", "5e-1",
    ".5", "1.", "+0.5", "-0.0", "0.9999999999999999444888487687421729788184",
]
CELLS = st.one_of(
    st.floats(0.0, 1.0).map(repr),
    st.sampled_from(HARD_LITERALS + [
        "1.5", "-1e-9", "1e400", "nan", "-inf", "0_5", "١", " 0.5\xa0",
        "\x1c0.5", "0.25\x1f", ""]),
    st.lists(st.sampled_from(list("0123456789+-.e_ ") + [
        "١", "\xa0", "\x1c", "\x1d", "\x1e", "\x1f", "nan", "inf"]),
        max_size=5).map("".join))


@st.composite
def score_files(draw):
    width = draw(st.integers(1, 3))
    lines = ["example\t" + "\t".join(f"c{j}" for j in range(width))]
    for i in range(draw(st.integers(0, 4))):
        cells = draw(st.lists(CELLS, min_size=width, max_size=width))
        if draw(st.integers(0, 9)) == 0:  # wrong column count
            cells = cells[:-1] if draw(st.booleans()) else cells + ["0.5"]
        lines.append(f"e{i}" + "".join("\t" + c for c in cells))
    return "".join(line + "\n" for line in lines)


def read_outcome(read, path):
    """The matrix's ids, comments and value bits, or the error's type and
    text."""
    try:
        m = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    return (m.example_ids, m.class_ids, m.comments, m.values.shape,
            m.values.tobytes())


class TestReadScoresMatchesRowReader:
    @settings(max_examples=400, deadline=None, derandomize=True,
              database=None)
    @given(text=score_files())
    def test_same_bits_or_same_error(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("rd") / "s.tsv"
        path.write_bytes(text.encode("utf-8"))
        assert read_outcome(read_scores, path) == \
            read_outcome(ref.read_scores_rows, path)

    @pytest.mark.parametrize("cell", ["\x1c0.5", "0.5\x1f", "0_5", "١",
                                      "\xa00.5", "x"])
    def test_cells_loadtxt_reads_otherwise(self, tmp_path, cell):
        path = tmp_path / "s.tsv"
        path.write_text(f"example\ta\tb\ne1\t0.5\t0.25\ne2\t0.5\t{cell}\n",
                        encoding="utf-8")
        assert read_outcome(read_scores, path) == \
            read_outcome(ref.read_scores_rows, path)

    def test_hard_literals_same_bits(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("example\t" + "\t".join(map(str, range(len(
            HARD_LITERALS)))) + "\ne1\t" + "\t".join(HARD_LITERALS) + "\n",
                        encoding="utf-8")
        m = read_scores(path)
        assert m.values.tobytes() == np.array(
            [[float(x) for x in HARD_LITERALS]]).tobytes()

    def test_header_only_is_empty_matrix_without_warning(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("# note\nexample\tr\ta\n\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = read_scores(path)
        assert m.values.shape == (0, 2)
        assert m.example_ids == [] and m.class_ids == ["r", "a"]


class TestAlignToDag:
    def test_reorders_columns(self, diamond_dag):
        m = ScoreMatrix(["e1"], ["c", "a", "b", "r"],
                        np.array([[0.6, 0.5, 0.7, 0.9]]))
        aligned = align_to_dag(m, diamond_dag)
        assert aligned.class_ids == list(diamond_dag.nodes)
        assert aligned.values.tolist() == [[0.9, 0.5, 0.7, 0.6]]

    def test_missing_root_imputed(self, diamond_dag):
        m = ScoreMatrix(["e1"], ["a", "b", "c"], np.array([[0.5, 0.7, 0.6]]))
        aligned = align_to_dag(m, diamond_dag)
        assert aligned.values[0, 0] == 1.0
        assert any("imputed" in c for c in aligned.comments)

    def test_missing_class_raises(self, diamond_dag):
        m = ScoreMatrix(["e1"], ["r", "a"], np.array([[0.9, 0.5]]))
        with pytest.raises(MissingClassError):
            align_to_dag(m, diamond_dag)

    def test_extra_column_raises(self, diamond_dag):
        m = ScoreMatrix(["e1"], ["r", "a", "b", "c", "zz"],
                        np.array([[0.9, 0.5, 0.7, 0.6, 0.1]]))
        with pytest.raises(AlignmentError):
            align_to_dag(m, diamond_dag)
