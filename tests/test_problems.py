"""Problem container, tcp v1 text format, builtin instances, and the random
instance generator.

Format tests pin exact 1-based line numbers on every rejection path, and
round-trip canonical text both ways (parse after serialize and serialize
after parse)."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcpsolve import (BUILTIN_NAMES, FormatError, TCPProblem, Tensor, builtin,
                      classify, generate_ks_instance, parse_problem,
                      parse_tensor, serialize_problem, serialize_tensor)
from tcpsolve import problems
from tcpsolve.problems import builtin_about, format_value, reference_solution

GOOD = "tcp v1 order=3 dim=2\na 1 1 1 1\na 2 2 2 1\nq 0 1\n"


class TestProblemContainer:

    def test_holds_tensor_and_q(self):
        tensor = Tensor(3, 2, {(0, 0, 0): 1.0})
        problem = TCPProblem(tensor, [0.0, 2.0], name="demo")
        assert problem.order == 3
        assert problem.dim == 2
        np.testing.assert_array_equal(problem.q, [0.0, 2.0])
        assert "demo" in repr(problem)

    def test_rejects_wrong_q_length(self):
        tensor = Tensor(3, 2, {(0, 0, 0): 1.0})
        with pytest.raises(ValueError, match="length 2"):
            TCPProblem(tensor, [0.0, 1.0, 2.0])

    def test_rejects_negative_q(self):
        tensor = Tensor(3, 2, {(0, 0, 0): 1.0})
        with pytest.raises(ValueError, match="nonnegative"):
            TCPProblem(tensor, [0.0, -1.0])

    def test_rejects_non_finite_q(self):
        tensor = Tensor(3, 2, {(0, 0, 0): 1.0})
        with pytest.raises(ValueError, match="finite"):
            TCPProblem(tensor, [0.0, np.inf])

    def test_equality_ignores_name(self):
        tensor = Tensor(3, 2, {(0, 0, 0): 1.0})
        assert TCPProblem(tensor, [0.0, 1.0], name="a") \
            == TCPProblem(tensor, [0.0, 1.0], name="b")


class TestParseErrors:

    def test_bad_header(self):
        with pytest.raises(FormatError, match="line 1: expected header"):
            parse_problem("tcp v2 order=3 dim=2\n")

    def test_header_must_come_first(self):
        with pytest.raises(FormatError, match="line 1: expected header"):
            parse_problem("a 1 1 1 1\ntcp v1 order=3 dim=2\n")

    def test_non_integer_order(self):
        with pytest.raises(FormatError, match="line 1: order and dim"):
            parse_problem("tcp v1 order=three dim=2\n")

    def test_order_below_two(self):
        with pytest.raises(FormatError, match="line 1: invalid order=1"):
            parse_problem("tcp v1 order=1 dim=2\n")

    def test_dim_below_one(self):
        with pytest.raises(FormatError, match="invalid order=3 dim=0"):
            parse_problem("tcp v1 order=3 dim=0\n")

    def test_entry_token_count(self):
        with pytest.raises(FormatError, match="line 2: entry line needs 3 indices"):
            parse_problem("tcp v1 order=3 dim=2\na 1 1 1\n")

    def test_entry_non_integer_index(self):
        with pytest.raises(FormatError, match="line 2: indices must be integers"):
            parse_problem("tcp v1 order=3 dim=2\na 1 x 1 1\n")

    def test_entry_index_out_of_range(self):
        with pytest.raises(FormatError, match=r"line 2: index \(1, 3, 1\) out of range 1..2"):
            parse_problem("tcp v1 order=3 dim=2\na 1 3 1 1\n")

    def test_entry_index_zero(self):
        # indices are 1-based, so 0 is out of range
        with pytest.raises(FormatError, match="line 2: index"):
            parse_problem("tcp v1 order=3 dim=2\na 0 1 1 1\n")

    def test_entry_bad_value(self):
        with pytest.raises(FormatError, match="line 2: bad value 'abc'"):
            parse_problem("tcp v1 order=3 dim=2\na 1 1 1 abc\n")

    def test_entry_non_finite_value(self):
        with pytest.raises(FormatError, match="line 2: non-finite value 'inf'"):
            parse_problem("tcp v1 order=3 dim=2\na 1 1 1 inf\n")

    def test_duplicate_entry(self):
        text = "tcp v1 order=3 dim=2\na 1 1 1 1\na 1 1 1 2\n"
        with pytest.raises(FormatError, match=r"line 3: duplicate entry for index \(1, 1, 1\)"):
            parse_problem(text)

    def test_duplicate_q(self):
        text = "tcp v1 order=3 dim=2\na 1 1 1 1\nq 0 1\nq 0 1\n"
        with pytest.raises(FormatError, match="line 4: duplicate q line"):
            parse_problem(text)

    def test_q_wrong_count(self):
        with pytest.raises(FormatError, match="line 2: q line needs 2 values"):
            parse_problem("tcp v1 order=3 dim=2\nq 0\n")

    def test_q_bad_value(self):
        with pytest.raises(FormatError, match="line 2: q values must be numbers"):
            parse_problem("tcp v1 order=3 dim=2\nq 0 x\n")

    def test_q_non_finite(self):
        with pytest.raises(FormatError, match="line 2: q values must be finite"):
            parse_problem("tcp v1 order=3 dim=2\nq 0 nan\n")

    def test_q_negative(self):
        with pytest.raises(FormatError, match="line 2: q must be componentwise nonnegative"):
            parse_problem("tcp v1 order=3 dim=2\nq 0 -1\n")

    def test_unknown_tag(self):
        with pytest.raises(FormatError, match="line 2: unknown line tag 'b'"):
            parse_problem("tcp v1 order=3 dim=2\nb 1 1 1 1\n")

    def test_missing_header(self):
        with pytest.raises(FormatError, match="line 1: missing header"):
            parse_problem("# only a comment\n\n")

    def test_missing_q(self):
        text = "tcp v1 order=3 dim=2\na 1 1 1 1\n"
        with pytest.raises(FormatError, match="line 3: missing q line"):
            parse_problem(text)

    def test_error_carries_line_number(self):
        text = "# header comes later\n\ntcp v1 order=3 dim=2\na 1 1 1 1\na 1 1 1 1\n"
        with pytest.raises(FormatError) as excinfo:
            parse_problem(text)
        assert excinfo.value.line_no == 5
        assert isinstance(excinfo.value, ValueError)

    def test_parse_tensor_still_validates_q(self):
        with pytest.raises(FormatError, match="line 2: q must be componentwise"):
            parse_tensor("tcp v1 order=3 dim=2\nq 0 -1\n")


class TestParsing:

    def test_basic_problem(self):
        problem = parse_problem(GOOD, name="good")
        assert problem.order == 3
        assert problem.dim == 2
        assert problem.tensor.value((0, 0, 0)) == 1.0
        assert problem.tensor.value((1, 1, 1)) == 1.0
        np.testing.assert_array_equal(problem.q, [0.0, 1.0])
        assert problem.name == "good"

    def test_comments_and_blank_lines_skipped(self):
        text = ("# instance description\n\n"
                "tcp v1 order=3 dim=2\n"
                "  # indented comment\n"
                "a 1 1 1 1\n\n"
                "q 0 1\n")
        assert parse_problem(text) == parse_problem("tcp v1 order=3 dim=2\na 1 1 1 1\nq 0 1\n")

    def test_crlf_line_endings_accepted(self):
        assert parse_problem(GOOD.replace("\n", "\r\n")) == parse_problem(GOOD)

    def test_scientific_notation_values(self):
        problem = parse_problem("tcp v1 order=2 dim=1\na 1 1 2.5e-3\nq 1e2\n")
        assert problem.tensor.value((0, 0)) == 2.5e-3
        assert problem.q[0] == 100.0

    def test_parse_tensor_ignores_q(self):
        tensor = parse_tensor(GOOD)
        assert tensor == parse_tensor("tcp v1 order=3 dim=2\na 1 1 1 1\na 2 2 2 1\n")

    def test_zero_entries_dropped(self):
        tensor = parse_tensor("tcp v1 order=3 dim=2\na 1 1 1 0\na 2 2 2 3\n")
        assert tensor.nnz == 1


class TestSerialization:

    def test_format_value_integers_without_point(self):
        assert format_value(1.0) == "1"
        assert format_value(-8.0) == "-8"
        assert format_value(0.0) == "0"
        assert format_value(0.5) == "0.5"
        assert format_value(2.5e-3) == "0.0025"

    def test_entries_sorted_lexicographically(self):
        tensor = Tensor(3, 2, {(1, 1, 1): 0.5, (0, 0, 0): 2.0, (0, 1, 1): -1.0})
        expected = ("tcp v1 order=3 dim=2\n"
                    "a 1 1 1 2\n"
                    "a 1 2 2 -1\n"
                    "a 2 2 2 0.5\n")
        assert serialize_tensor(tensor) == expected

    def test_problem_appends_q_line(self):
        problem = parse_problem(GOOD)
        assert serialize_problem(problem).endswith("q 0 1\n")

    def test_parse_after_serialize_on_builtins(self):
        for name in BUILTIN_NAMES:
            obj = builtin(name)
            if isinstance(obj, Tensor):
                assert parse_tensor(serialize_tensor(obj)) == obj
            else:
                assert parse_problem(serialize_problem(obj)) == obj

    def test_serialize_after_parse_is_identity_on_canonical_text(self):
        for name in BUILTIN_NAMES:
            obj = builtin(name)
            if isinstance(obj, Tensor):
                text = serialize_tensor(obj)
                assert serialize_tensor(parse_tensor(text)) == text
            else:
                text = serialize_problem(obj)
                assert serialize_problem(parse_problem(text)) == text

    def test_roundtrip_random_values(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            order = int(rng.integers(2, 5))
            dim = int(rng.integers(1, 4))
            entries = {}
            for _ in range(int(rng.integers(1, 6))):
                idx = tuple(int(i) for i in rng.integers(0, dim, size=order))
                entries[idx] = float(rng.standard_normal())
            tensor = Tensor(order, dim, entries)
            assert parse_tensor(serialize_tensor(tensor)) == tensor


class TestBuiltins:

    def test_names(self):
        assert BUILTIN_NAMES == ("ex2_1", "ex2_2", "ex2_3", "ex3_1",
                                 "ex5_1", "ex5_2", "ex5_3", "ex5_4", "ex5_5")

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="available"):
            builtin("ex9_9")

    def test_classification_fixtures_are_bare_tensors(self):
        for name in ("ex2_1", "ex2_2", "ex2_3"):
            assert isinstance(builtin(name), Tensor)

    def test_benchmarks_are_problems(self):
        for name in ("ex3_1", "ex5_1", "ex5_2", "ex5_3", "ex5_4", "ex5_5"):
            problem = builtin(name)
            assert isinstance(problem, TCPProblem)
            assert problem.name == name

    def test_about_text_present(self):
        for name in BUILTIN_NAMES:
            assert builtin_about(name)

    def test_closed_forms(self):
        # each builtin's contraction against its componentwise polynomial
        rng = np.random.default_rng(23)

        def forms(name, x):
            x1, x2 = x[0], x[1] if len(x) > 1 else 0.0
            if name == "ex2_1":
                return [x1 ** 2 - x2 ** 2, x1 ** 2 + x2 ** 2]
            if name == "ex2_2":
                return [x1 ** 2 - 3 * x1 * x2, -x1 * x2 - x2 ** 2]
            if name in ("ex2_3", "ex5_2"):
                return [x1 ** 3, x2 ** 3 - 0.5 * x1 ** 2 * x2]
            if name == "ex3_1":
                return [x1 * (x1 - x2) ** 2, x2 ** 3]
            if name == "ex5_1":
                return [x1 ** 2 * (x1 - 2 * x2), 8 * x2 ** 3]
            if name == "ex5_3":
                x3 = x[2]
                return [x1 ** 5 - x1 ** 2 * x2 ** 2 * x3,
                        x2 ** 5 - 2 * x1 ** 3 * x2 * x3,
                        x3 ** 5]
            if name == "ex5_4":
                x3, x4 = x[2], x[3]
                return [2 * x1 ** 3 - 2 * x2 * x3 * x4,
                        2 * x2 ** 3,
                        3 * x3 ** 3 - 5 * x1 * x3 * x4,
                        3 * x4 ** 3]
            out = [xi ** 9 for xi in x]
            out[1] -= 3 * x[1] * x[3] * x[4] ** 2 * x[5] ** 2 * x[6] ** 2 * x[7]
            return out

        for name in BUILTIN_NAMES:
            obj = builtin(name)
            tensor = obj if isinstance(obj, Tensor) else obj.tensor
            for _ in range(5):
                x = rng.uniform(-1.0, 1.0, tensor.dim)
                np.testing.assert_allclose(tensor.contract(x), forms(name, x),
                                           rtol=1e-12, atol=1e-12)

    def test_reference_solutions_solve_the_equation(self):
        for name in BUILTIN_NAMES:
            ref = reference_solution(name)
            if ref is None:
                assert name.startswith("ex2")
                continue
            x, tol = ref
            problem = builtin(name)
            assert 0.0 < tol <= 1e-3
            np.testing.assert_allclose(problem.tensor.contract(x), problem.q,
                                       rtol=0.0, atol=1e-12)

    def test_second_benchmark_family_shares_tensor(self):
        assert builtin("ex5_2").tensor == builtin("ex2_3")


def pool_instance(order, dim, density, seed):
    """The generator by enumeration: list every off-diagonal tuple, choose
    from the list, then draw one value per tuple and add up each row."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0, 0)))
    pool = [idx for idx in itertools.product(range(dim), repeat=order)
            if any(i != idx[0] for i in idx[1:])]
    count = min(max(1, int(round(density * (dim ** order - dim)))), len(pool))
    entries = {}
    for i in rng.choice(len(pool), size=count, replace=False):
        entries[pool[int(i)]] = -float(rng.uniform(0.2, 1.0))
    row_mass = np.zeros(dim)
    for idx, v in entries.items():
        row_mass[idx[0]] += abs(v)
    for i in range(dim):
        entries[(i,) * order] = 1.0 + row_mass[i]
    return Tensor(order, dim, entries), rng.uniform(0.0, 1.0, dim)


class TestGenerator:

    def test_deterministic(self):
        first = generate_ks_instance(3, 3, density=0.3, seed=5)
        second = generate_ks_instance(3, 3, density=0.3, seed=5)
        assert first == second
        assert first.name == second.name

    def test_seed_changes_instance(self):
        first = generate_ks_instance(3, 3, density=0.3, seed=1)
        second = generate_ks_instance(3, 3, density=0.3, seed=2)
        assert first != second

    def test_name_encodes_parameters(self):
        problem = generate_ks_instance(3, 4, density=0.25, seed=9)
        assert problem.name == "gen-m3-n4-d0.25-s9"

    def test_certificates_attached(self):
        problem = generate_ks_instance(3, 3, density=0.3, seed=5)
        assert problem.tags["ks"].positive
        assert str(problem.tags["condition2"].verdict) == "certified_true"

    def test_structure(self):
        # Z-tensor with dominant diagonal and nonnegative q
        problem = generate_ks_instance(4, 3, density=0.2, seed=2)
        tensor = problem.tensor
        assert tensor.order == 4
        assert tensor.dim == 3
        assert np.all(problem.q >= 0.0)
        row_mass = np.zeros(3)
        for idx, value in tensor.off_diagonal_items():
            assert value < 0.0
            row_mass[idx[0]] += abs(value)
        for i in range(3):
            assert tensor.value((i,) * 4) > row_mass[i]

    def test_roundtrips_through_format(self):
        problem = generate_ks_instance(3, 3, density=0.3, seed=5)
        assert parse_problem(serialize_problem(problem)) == problem

    @pytest.mark.parametrize("order, dim, density, seed, digest", [
        # the order-4 dim-8 instance of the classify ladder at seed 101
        (4, 8, 0.3, 698795904,
         "2e1961d2a3d820e8cc6f23014d9858dffaa13ed395e82951df12c2dbe105b7bd"),
        # the first instance of the gen-solve pool
        (3, 6, 0.197, 1210382689,
         "94f6ea05f461e1274d3e113f5dd09b2f641076f9cd09bcfdb27e505cc36d004e"),
        (2, 1, 0.3, 0,
         "7bfd04434061718fae8daf1e88c67f9bc55de414178e944cd6485f67b9327cd8"),
    ])
    def test_instances_are_pinned(self, order, dim, density, seed, digest):
        # the benchmark's classify and gen-solve inputs come from the
        # generator, so each seed must keep giving the same text
        problem = generate_ks_instance(order, dim, density=density, seed=seed)
        text = serialize_problem(problem)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_failed_certificate_raises(self, monkeypatch):
        refuted = classify.Certificate(classify.Verdict.REFUTED, "stub")
        monkeypatch.setattr(classify, "is_ks_tensor", lambda tensor: refuted)
        with pytest.raises(RuntimeError, match="failed certification"):
            generate_ks_instance(3, 3, density=0.3, seed=5)

    @pytest.mark.parametrize("order, dim", [
        (2, 1), (2, 2), (2, 9), (2, 141), (3, 1), (3, 4), (3, 27),
        (4, 3), (4, 8), (5, 2), (5, 7), (6, 2), (6, 5)])
    def test_matches_pool_enumeration(self, order, dim):
        for density in (0.01, 0.3, 1.0):
            for seed in (0, 101):
                problem = generate_ks_instance(order, dim, density=density, seed=seed)
                tensor, q = pool_instance(order, dim, density, seed)
                assert problem.tensor == tensor
                assert np.array_equal(problem.q, q)

    @pytest.mark.parametrize("args, kwargs, match", [
        ((3, 2), dict(density=0.0), "density"),
        ((3, 2), dict(density=-1.0), "density"),
        ((3, 2), dict(density=1.5), "density"),
        ((3, 2), dict(density=float("nan")), "density"),
        ((1, 2), {}, "order >= 2"),
        ((3, 0), {}, "dim >= 1"),
        ((10, 9), {}, "MAX_ENTRIES"),
        ((5, 8), dict(density=1.5), "density"),
        ((20, 9), dict(density=1e-16), "int64"),
        ((63, 1), {}, "int64"),
    ])
    def test_rejects_before_drawing(self, monkeypatch, args, kwargs, match):
        def no_draw(*a, **k):
            raise AssertionError("drew from the generator")
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match=match):
            generate_ks_instance(*args, **kwargs)

    def test_entry_cap_is_inclusive(self, monkeypatch):
        # order 3 dim 4: 60 off-diagonal tuples plus 4 diagonal entries
        monkeypatch.setattr(problems, "MAX_ENTRIES", 30)
        assert generate_ks_instance(3, 4, density=26 / 60).tensor.nnz == 30
        with pytest.raises(ValueError, match="31 entries"):
            generate_ks_instance(3, 4, density=27 / 60)


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def tcp_problems(draw):
    order = draw(st.integers(2, 4))
    dim = draw(st.integers(1, 3))
    index = st.tuples(*[st.integers(0, dim - 1)] * order)
    entries = draw(st.dictionaries(index, finite, max_size=12))
    q = draw(st.lists(st.floats(min_value=0.0, allow_infinity=False),
                      min_size=dim, max_size=dim))
    return TCPProblem(Tensor(order, dim, entries), q)


# lines near the grammar, so that generated text reaches the entry and q
# checks instead of failing at the header
near_miss_lines = st.one_of(
    st.text(max_size=20),
    st.builds(" ".join, st.lists(st.sampled_from(
        ["tcp", "v1", "order=2", "order=3", "order=1", "dim=2", "dim=0",
         "dim=x", "a", "q", "1", "2", "3", "0", "-1", "0.5", "-2.5", "1e400",
         "nan", "inf", "#", "x", "\r"]), max_size=7)))
near_miss_text = st.builds("\n".join, st.lists(near_miss_lines, max_size=6))


class TestFormatProperties:

    @settings(max_examples=200, deadline=None)
    @given(tcp_problems())
    def test_parse_inverts_serialize(self, problem):
        text = serialize_problem(problem)
        assert parse_problem(text) == problem
        assert serialize_problem(parse_problem(text)) == text

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), near_miss_text))
    def test_text_parses_or_raises_format_error(self, text):
        try:
            parse_problem(text)
        except FormatError:
            pass
