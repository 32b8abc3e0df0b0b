"""Tensor contractions, symmetrization, Jacobians, and the spectral radius.

Oracles are deliberately naive: dense nested-loop summation for the
polynomial map, itertools.permutations for symmetrization, and for the
Jacobian the dense product rule, (m-1) times the contracted partial
symmetrization, and central finite differences.
"""

import itertools
import math

import numpy as np
import pytest

from tcpsolve import Tensor, builtin, classify, multistart_sparse, spectral_radius
from tcpsolve.tensors import MAX_ORDER, _shifted, identity, newton_iterates


def dense_contract(array, x):
    """(A x^{m-1})_i by full nested-loop summation over all m-tuples."""
    m = array.ndim
    n = array.shape[0]
    out = np.zeros(n)
    for idx in itertools.product(range(n), repeat=m):
        term = array[idx]
        for j in idx[1:]:
            term *= x[j]
        out[idx[0]] += term
    return out


def dense_contract_matrix(array, x):
    """M_{ij} = sum over tails of a[i, j, tail] * prod x[tail]."""
    m = array.ndim
    n = array.shape[0]
    out = np.zeros((n, n))
    for idx in itertools.product(range(n), repeat=m):
        term = array[idx]
        for j in idx[2:]:
            term *= x[j]
        out[idx[0], idx[1]] += term
    return out


def dense_product_rule(array, x):
    """Jacobian of x -> A x^{m-1}: one dense_contract_matrix per tail slot,
    with that slot moved next to the row index."""
    return sum(dense_contract_matrix(np.moveaxis(array, c, 1), x)
               for c in range(1, array.ndim))


def symmetrized_jacobian(tensor, x):
    """(m-1) * bar_A x^{m-2}, contracted entry by entry from symmetrized()."""
    out = np.zeros((tensor.dim, tensor.dim))
    for idx, v in tensor.symmetrized().items():
        out[idx[0], idx[1]] += v * math.prod(x[j] for j in idx[2:])
    return (tensor.order - 1) * out


def dense_symmetrize(array):
    """Average over all permutations of the last m-1 axes."""
    m = array.ndim
    n = array.shape[0]
    out = np.zeros_like(array)
    perms = list(itertools.permutations(range(1, m)))
    for idx in itertools.product(range(n), repeat=m):
        total = 0.0
        for perm in perms:
            permuted = (idx[0],) + tuple(idx[p] for p in perm)
            total += array[permuted]
        out[idx] = total / len(perms)
    return out


def fd_jacobian(tensor, x, step=1e-5):
    n = tensor.dim
    out = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = step
        out[:, j] = (tensor.contract(x + e) - tensor.contract(x - e)) / (2.0 * step)
    return out


def random_tensor(rng, order, dim, density=0.5):
    dense = rng.standard_normal((dim,) * order)
    dense *= rng.random((dim,) * order) < density
    return Tensor.from_dense(dense), dense


class TestConstruction:

    def test_rejects_bad_order_and_dim(self):
        with pytest.raises(ValueError):
            Tensor(1, 2, {})
        with pytest.raises(ValueError):
            Tensor(3, 0, {})
        # the generator's largest order is admitted, one more is not
        assert Tensor(MAX_ORDER, 2, {(0,) * MAX_ORDER: 1.0}).order == MAX_ORDER == 62
        with pytest.raises(ValueError, match=r"order in 2\.\.62"):
            Tensor(MAX_ORDER + 1, 2, {})
        # beyond int64, an in-range index could not be stored as an intp
        with pytest.raises(ValueError, match="dimension in 1..2"):
            Tensor(2, 2 ** 63, {})
        with pytest.raises(ValueError, match="dimension in 1..2"):
            Tensor(2, 2 ** 64, {(np.uint64(2 ** 63), np.uint64(0)): 1.0})
        with pytest.raises(ValueError, match="dimension in 1..2"):
            Tensor(2, 2 ** 70, {(2 ** 65, 0): 1.0})

    @pytest.mark.parametrize("order, dim", [(2.9, 3.7), ("3", 2), (2.0, 2), (3, 2.0),
                                            (np.float64(3.0), 2), (None, 2), (3, "2")])
    def test_rejects_non_integer_order_and_dim(self, order, dim):
        # nothing is truncated or parsed into an order or a dimension
        with pytest.raises(ValueError, match="integer order"):
            Tensor(order, dim, {})

    def test_accepts_numpy_integer_order_and_dim(self):
        t = Tensor(np.int64(3), np.uint8(2), {(0, 1, 1): 1.0})
        assert t == Tensor(3, 2, {(0, 1, 1): 1.0})
        assert type(t.order) is int and type(t.dim) is int

    def test_rejects_wrong_index_length(self):
        with pytest.raises(ValueError):
            Tensor(3, 2, {(0, 1): 1.0})

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            Tensor(3, 2, {(0, 1, 2): 1.0})
        with pytest.raises(ValueError):
            Tensor(3, 2, {(-1, 0, 0): 1.0})

    @pytest.mark.parametrize("idx", [(0.5, 1), (1.0, 0), ("1", 0), (0, None), (True, False),
                                     (np.uint64(1), 0.5), (np.uint64(1), np.float64(1.0))])
    def test_rejects_non_integer_index(self, idx):
        # nothing is rounded or parsed into an integer index
        with pytest.raises(ValueError, match="indices must be integers"):
            Tensor(2, 2, {idx: 1.0})

    @pytest.mark.parametrize("big", [2 ** 63, 2 ** 64, 2 ** 70])
    def test_rejects_index_beyond_int64(self, big):
        with pytest.raises(ValueError, match=rf"index \(0, {big}\) out of range"):
            Tensor(2, 2, {(0, big): 1.0})
        with pytest.raises(ValueError, match=rf"index \({big}, 1\) out of range"):
            Tensor(2, 2, {(np.uint64(1), np.int64(0)): 1.0, (big, 1): 2.0})

    def test_accepts_numpy_integer_index(self):
        t = Tensor(3, 2, {(np.int32(1), np.uint8(0), np.int64(1)): 2.0, (0, 0, 0): 1.0})
        assert t == Tensor(3, 2, {(1, 0, 1): 2.0, (0, 0, 0): 1.0})
        assert t._idx.dtype == np.intp
        assert t.items() == (((0, 0, 0), 1.0), ((1, 0, 1), 2.0))

    def test_accepts_mixed_numpy_integer_index(self):
        # numpy promotes uint64 with a signed type to float64; such rows are
        # still integer rows
        t = Tensor(3, 2, {(np.uint64(1), np.int64(0), np.int8(1)): 2.0,
                          (np.uint64(0), 0, np.int32(0)): 1.0})
        assert t == Tensor(3, 2, {(1, 0, 1): 2.0, (0, 0, 0): 1.0})
        assert t._idx.dtype == np.intp
        assert t.items() == (((0, 0, 0), 1.0), ((1, 0, 1), 2.0))

    @pytest.mark.parametrize("idx", [(np.uint64(2), np.int64(0)), (np.uint64(1), np.int64(-1)),
                                     (np.uint64(2 ** 63), np.int64(0))])
    def test_rejects_mixed_numpy_index_out_of_range(self, idx):
        with pytest.raises(ValueError, match="out of range"):
            Tensor(2, 2, {idx: 1.0})

    @pytest.mark.parametrize("array", [np.float64(2.0), np.array(2.0), np.ones(3),
                                       np.ones((2, 3))])
    def test_from_dense_rejects_non_hypercubes(self, array):
        with pytest.raises(ValueError, match="hypercubic"):
            Tensor.from_dense(array)

    def test_value_of_absent_or_wrong_length_index_is_zero(self):
        t = Tensor(3, 2, {(0, 1, 1): -1.5, (1, 1, 1): 2.0})
        assert t.value((0, 1, 1)) == -1.5 and type(t.value((0, 1, 1))) is float
        for idx in [(1, 0, 1), (0, 1), (0, 1, 1, 1), (), (5, 5, 5)]:
            assert t.value(idx) == 0.0
        assert Tensor(3, 2, {}).value((0, 0, 0)) == 0.0

    def test_rejects_non_finite_value(self):
        with pytest.raises(ValueError):
            Tensor(2, 2, {(0, 0): math.inf})
        with pytest.raises(ValueError, match=r"entry \(1, 0\) has a non-finite value"):
            Tensor(2, 2, [((0, 0), 1.0), ((1, 0), math.nan)])

    def test_rejects_duplicate_tuple(self):
        with pytest.raises(ValueError):
            Tensor(2, 2, [((0, 0), 1.0), ((0, 0), 2.0)])

    @pytest.mark.parametrize("entries", [[((0, 0), 0.0), ((0, 0), 1.0)],
                                         [((0, 0), 1.0), ((0, 0), 0.0)],
                                         [((0, 1), 0.0), ((0, 1), 0.0)]])
    def test_rejects_zero_valued_duplicate(self, entries):
        # a zero value is dropped only after the duplicate check, so the
        # order of the list cannot decide whether it is accepted
        with pytest.raises(ValueError, match="duplicate index tuple"):
            Tensor(2, 2, entries)

    def test_matches_per_entry_reference(self):
        """Random entry lists, some with a wrong length, an index out of
        range, a non-finite value or a repeated index: the array checks
        accept exactly what a per-entry loop accepts and store the same
        sorted nonzero entries."""
        def reference(order, dim, pairs):
            data = {}
            for idx, value in pairs:
                if (len(idx) != order or not all(0 <= i < dim for i in idx)
                        or not math.isfinite(value) or idx in data):
                    return None
                data[idx] = value
            return tuple((k, v) for k, v in sorted(data.items()) if v != 0.0)

        rng = np.random.default_rng(3)
        rejected = 0
        for _ in range(400):
            order, dim = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            pairs = []
            for _ in range(int(rng.integers(0, 12))):
                length = order + int(rng.choice([0] * 9 + [-1, 1]))
                low, high = -int(rng.random() < 0.03), dim + int(rng.random() < 0.03)
                idx = tuple(int(i) for i in rng.integers(low, high, length))
                value = float(rng.choice([0.0, -1.5, 0.25, 2.0, rng.standard_normal(),
                                          math.inf, math.nan],
                                         p=[0.15, 0.2, 0.2, 0.2, 0.21, 0.02, 0.02]))
                pairs.append((idx, value))
            if rng.random() < 0.1 and pairs:
                pairs.append((pairs[0][0], 0.0))
            expected = reference(order, dim, pairs)
            if expected is None:
                rejected += 1
                with pytest.raises(ValueError):
                    Tensor(order, dim, pairs)
                continue
            t = Tensor(order, dim, pairs)
            assert t.items() == expected
            assert t._idx.dtype == np.intp and t._idx.shape == (len(expected), order)
            assert t._idx.tolist() == [list(k) for k, _ in expected]
            assert t._val.tobytes() == np.array([v for _, v in expected], dtype=float).tobytes()
        assert 40 < rejected < 360

    def test_from_arrays_matches_pairs(self):
        """`Tensor.from_arrays` and the pairs constructor store the same
        arrays and raise the same ValueError messages: random index arrays
        (now and then of the wrong width, with an index out of range, a
        non-finite value or a repeated row) at dimensions up to 2**62, and
        bad shapes and index types."""
        def outcome(build):
            try:
                t = build()
            except ValueError as e:
                return str(e)
            return (t.order, t.dim, t._idx.dtype, t._idx.shape, t._idx.tobytes(),
                    t._val.tobytes())

        rng = np.random.default_rng(29)
        cases = []
        for _ in range(400):
            order = int(rng.integers(2, 6))
            dim = int(rng.choice([1, 2, 3, 8, 2 ** 62]))
            k = int(rng.integers(0, 8))
            idx = rng.integers(0, dim, size=(k, order + int(rng.random() < 0.05)))
            if k and rng.random() < 0.1:
                idx[rng.integers(k), rng.integers(order)] = rng.choice([-1, dim])
            val = rng.choice([0.0, -1.5, 0.25, 2.0, 1e-310, math.inf, math.nan],
                             p=[0.2, 0.2, 0.2, 0.2, 0.16, 0.02, 0.02], size=k)
            if k and rng.random() < 0.1:
                idx, val = np.vstack([idx, idx[:1]]), np.append(val, 0.0)
            cases.append((order, dim, idx, val))
        one = np.ones(1)
        cases += [(1, 2, np.zeros((1, 1), int), one), (3, 0, np.zeros((0, 3), int), one[:0]),
                  (MAX_ORDER + 1, 2, np.zeros((0, 63), int), one[:0]),
                  (2, 2 ** 63, np.zeros((1, 2), int), one), (2, 2, np.zeros((1, 2)), one),
                  (2, 2, np.array([[1, 2 ** 63]], np.uint64), one),
                  (2, 2, np.array([[1, 0]], np.uint64), one), (2, 2, np.zeros((1, 3), int), one)]
        rejected = 0
        for order, dim, idx, val in cases:
            pairs = list(zip(map(tuple, idx.tolist()), val.tolist()))
            expected = outcome(lambda: Tensor(order, dim, pairs))
            assert outcome(lambda: Tensor.from_arrays(order, dim, idx, val)) == expected
            rejected += isinstance(expected, str)
        assert 40 < rejected < 300

    def test_from_arrays_rejects_misshapen_arrays(self):
        with pytest.raises(ValueError, match=r"need a \(k, 2\) index array and k values"):
            Tensor.from_arrays(2, 2, np.zeros(2, int), np.ones(1))
        with pytest.raises(ValueError, match=r"got shapes \(2, 2\) and \(3,\)"):
            Tensor.from_arrays(2, 2, np.eye(2, dtype=int), np.ones(3))

    def test_entries_in_sorted_order(self):
        entries = [((1, 0, 1), 2.0), ((0, 1, 1), -1.0), ((1, 1, 0), 0.0),
                   ((0, 0, 0), 3.0), ((1, 0, 0), 4.0)]
        t = Tensor(3, 2, entries)
        keys = [idx for idx, _ in t.items()]
        assert keys == sorted(idx for idx, v in entries if v != 0.0)
        assert t._idx.tolist() == [list(k) for k in keys]
        assert t._val.tolist() == [v for _, v in t.items()]

    def test_zero_values_dropped(self):
        t = Tensor(3, 2, {(0, 0, 0): 0.0, (1, 1, 1): 2.0})
        assert t.nnz == 1
        assert t.value((0, 0, 0)) == 0.0
        assert t.value((1, 1, 1)) == 2.0

    def test_dense_round_trip(self):
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((3, 3, 3))
        t = Tensor.from_dense(dense)
        np.testing.assert_array_equal(t.to_dense(), dense)

    def test_equality_and_hash(self):
        a = Tensor(3, 2, {(0, 0, 0): 1.0})
        b = Tensor(3, 2, {(0, 0, 0): 1.0})
        c = Tensor(3, 2, {(0, 0, 0): 2.0})
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestShifted:
    """s*I + sign*A from A's arrays, against the dense oracle."""

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(33)
        absent = cancelled = 0
        for order in range(2, 6):
            for _ in range(25):
                dim = int(rng.integers(1, 5 if order < 5 else 4))
                _, dense = random_tensor(rng, order, dim)
                diag = (np.arange(dim),) * order
                dense[diag] *= rng.random(dim) < 0.6
                t = Tensor.from_dense(dense)
                stored = np.flatnonzero(dense[diag])
                absent += dim - stored.size
                for sign in (1.0, -1.0):
                    # a random s, and one that cancels a stored diagonal entry
                    shifts = [float(rng.uniform(-1.0, 3.0))]
                    shifts += [-sign * float(dense[diag][i]) for i in stored[:1]]
                    for s in shifts:
                        got = _shifted(t, s, sign)
                        want = Tensor.from_dense(s * identity(order, dim).to_dense()
                                                 + sign * dense)
                        assert got._idx.tobytes() == want._idx.tobytes()
                        assert got._val.tobytes() == want._val.tobytes()
                    i = stored[:1]
                    if i.size:
                        cancelled += 1
                        assert got.value((int(i[0]),) * order) == 0.0
        assert absent > 50 and cancelled > 100


class TestContract:

    def test_identity_tensor(self):
        # I x^{m-1} = (x_i^{m-1})
        t = identity(3, 2)
        np.testing.assert_allclose(t.contract(np.array([2.0, 3.0])), [4.0, 9.0])

    def test_quadratic_fixture(self):
        # map (x1^2 - x2^2, x1^2 + x2^2) at x = (1, 1)
        t = Tensor(3, 2, {(0, 0, 0): 1.0, (1, 0, 0): 1.0,
                          (0, 1, 1): -1.0, (1, 1, 1): 1.0})
        np.testing.assert_allclose(t.contract(np.array([1.0, 1.0])), [0.0, 2.0])

    def test_matches_dense_loop_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            order = int(rng.integers(2, 5))
            dim = int(rng.integers(1, 5))
            t, dense = random_tensor(rng, order, dim)
            x = rng.standard_normal(dim)
            np.testing.assert_allclose(t.contract(x), dense_contract(dense, x),
                                       rtol=1e-12, atol=1e-12)

    def test_homogeneity(self):
        # contract(t*x) = t^(m-1) contract(x)
        rng = np.random.default_rng(8)
        for _ in range(25):
            order = int(rng.integers(2, 6))
            dim = int(rng.integers(1, 5))
            t, _ = random_tensor(rng, order, dim)
            x = rng.standard_normal(dim)
            scale = float(rng.uniform(0.5, 2.0))
            left = t.contract(scale * x)
            right = scale ** (order - 1) * t.contract(x)
            np.testing.assert_allclose(left, right, rtol=1e-10, atol=1e-12)

    def test_dimension_mismatch(self):
        t = identity(3, 2)
        with pytest.raises(ValueError):
            t.contract(np.zeros(3))

    def test_empty_tensor(self):
        t = Tensor(4, 3, {})
        np.testing.assert_array_equal(t.contract(np.ones(3)), np.zeros(3))


class TestSymmetrized:

    def test_already_symmetric_unchanged(self):
        t = identity(4, 3)
        assert t.symmetrized() == t

    def test_two_entry_average(self):
        # a_{112} = 2 spreads to bar-a_{112} = bar-a_{121} = 1
        t = Tensor(3, 2, {(0, 0, 1): 2.0})
        bar = t.symmetrized()
        assert bar.value((0, 0, 1)) == 1.0
        assert bar.value((0, 1, 0)) == 1.0
        assert bar.nnz == 2

    def test_matches_permutation_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            order = int(rng.integers(2, 5))
            dim = int(rng.integers(1, 4))
            t, dense = random_tensor(rng, order, dim)
            np.testing.assert_allclose(t.symmetrized().to_dense(),
                                       dense_symmetrize(dense),
                                       rtol=1e-12, atol=1e-12)

    def test_preserves_polynomial_map(self):
        rng = np.random.default_rng(13)
        t, _ = random_tensor(rng, 4, 2)
        bar = t.symmetrized()
        for _ in range(100):
            x = rng.standard_normal(2)
            np.testing.assert_allclose(bar.contract(x), t.contract(x),
                                       rtol=1e-12, atol=1e-12)

    def test_invariant_under_tail_permutation(self):
        rng = np.random.default_rng(14)
        t, _ = random_tensor(rng, 4, 3)
        bar = t.symmetrized()
        for idx, v in bar.items():
            for perm in itertools.permutations(idx[1:]):
                assert math.isclose(bar.value((idx[0],) + perm), v,
                                    rel_tol=1e-12, abs_tol=1e-15)

    def test_cached(self):
        t = identity(3, 2)
        assert t.symmetrized() is t.symmetrized()


class TestContractMatrix:
    """A x^{m-2}, the contraction both Jacobian oracles are built on."""

    def test_identity_tensor(self):
        # identity: A x^{m-2} = diag(x^{m-2}), and the Jacobian is (m-1) times it
        x = np.array([2.0, 3.0])
        for order in (3, 4, 5):
            t = identity(order, 2)
            expected = np.diag(x ** (order - 2))
            np.testing.assert_allclose(dense_contract_matrix(t.to_dense(), x), expected)
            np.testing.assert_allclose(t.jacobian(x), (order - 1) * expected)


class TestJacobian:

    def test_identity_tensor(self):
        # d(x_i^2)/dx_i = 2 x_i
        t = identity(3, 2)
        np.testing.assert_allclose(t.jacobian(np.array([2.0, 3.0])),
                                   np.diag([4.0, 6.0]))

    def test_cubic_fixture(self):
        # map (x1^3, x2^3 - 0.5 x1^2 x2), Jacobian at (1,1) = [[3,0],[-1,2.5]]
        t = Tensor(4, 2, {(0, 0, 0, 0): 1.0, (1, 1, 1, 1): 1.0,
                          (0, 1, 0, 1): 1.0, (0, 1, 1, 0): -1.0,
                          (1, 0, 0, 1): -0.5})
        np.testing.assert_allclose(t.jacobian(np.array([1.0, 1.0])),
                                   [[3.0, 0.0], [-1.0, 2.5]], atol=1e-12)

    def test_matches_dense_product_rule(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            order = int(rng.integers(2, 6))
            dim = int(rng.integers(1, 5))
            t, dense = random_tensor(rng, order, dim)
            x = rng.standard_normal(dim)
            x[rng.random(dim) < 0.3] = 0.0
            np.testing.assert_allclose(t.jacobian(x), dense_product_rule(dense, x),
                                       rtol=1e-12, atol=1e-12)

    def test_order_two_returns_matrix_itself(self):
        rng = np.random.default_rng(10)
        dense = rng.standard_normal((3, 3))
        t = Tensor.from_dense(dense)
        np.testing.assert_array_equal(t.jacobian(rng.standard_normal(3)), dense)

    def test_zero_x_gives_zero_matrix(self):
        rng = np.random.default_rng(11)
        for order in (3, 4, 5):
            t, _ = random_tensor(rng, order, 3)
            np.testing.assert_array_equal(t.jacobian(np.zeros(3)), np.zeros((3, 3)))

    @pytest.mark.parametrize("order", [2, 3, 5])
    def test_empty_tensor(self, order):
        t = Tensor(order, 3, {})
        np.testing.assert_array_equal(t.jacobian(np.ones(3)), np.zeros((3, 3)))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            identity(3, 2).jacobian(np.ones(3))

    def test_ex5_5_matches_symmetrization(self):
        t = builtin("ex5_5").tensor
        rng = np.random.default_rng(17)
        for x in (rng.uniform(0.0, 2.0, t.dim), np.where(np.arange(t.dim) % 3, 1.5, 0.0)):
            np.testing.assert_allclose(t.jacobian(x), symmetrized_jacobian(t, x),
                                       rtol=1e-12, atol=0.0)

    def test_jacobian_never_symmetrizes(self, monkeypatch):
        def refuse(self):
            raise AssertionError("symmetrized() called")
        monkeypatch.setattr(Tensor, "symmetrized", refuse)
        assert multistart_sparse(builtin("ex5_5"), n_starts=1).success_rate == 1.0
        t = builtin("ex5_5").tensor
        for check in (classify.is_nonnegative, classify.is_z_tensor,
                      classify.is_nonsingular_m_tensor, classify.is_p_tensor,
                      classify.is_ks_tensor, classify.satisfies_condition2,
                      classify.z_function_check):
            check(t)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            order = int(rng.integers(3, 5))
            dim = int(rng.integers(2, 6))
            t, _ = random_tensor(rng, order, dim)
            x = rng.standard_normal(dim)
            jac = t.jacobian(x)
            fd = fd_jacobian(t, x)
            scale = np.maximum(np.abs(jac), 1e-8)
            assert float(np.max(np.abs(fd - jac) / scale)) <= 1e-6


class TestStacks:
    """A (k, n) stack of points through contract and jacobian."""

    @staticmethod
    def assert_rows_match(t, xs):
        # every row of the stacked result is the single call on that row
        for kernel, shape in ((t.contract, (t.dim,)), (t.jacobian, (t.dim, t.dim))):
            stacked = kernel(xs)
            assert stacked.shape == (len(xs),) + shape
            for x, row in zip(xs, stacked):
                single = kernel(x)
                assert row.dtype == single.dtype == np.float64
                np.testing.assert_array_equal(row, single)

    def test_random_tensors_match_single_calls(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            order = int(rng.integers(2, 6))
            dim = int(rng.integers(1, 5))
            t, _ = random_tensor(rng, order, dim)
            xs = rng.standard_normal((int(rng.integers(1, 7)), dim))
            xs[rng.random(xs.shape) < 0.3] = 0.0
            self.assert_rows_match(t, xs)

    @pytest.mark.parametrize("k", [1, 5])
    def test_ex5_5(self, k):
        t = builtin("ex5_5").tensor
        self.assert_rows_match(t, np.random.default_rng(20).uniform(0.0, 2.0, (k, t.dim)))

    @pytest.mark.parametrize("k", [1, 4])
    def test_order_two(self, k):
        rng = np.random.default_rng(21)
        t = Tensor.from_dense(rng.standard_normal((3, 3)))
        self.assert_rows_match(t, rng.standard_normal((k, 3)))

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("order", [2, 3, 5])
    def test_empty_tensor(self, order, k):
        self.assert_rows_match(Tensor(order, 3, {}), np.ones((k, 3)))

    @pytest.mark.parametrize("shape", [(), (2, 2, 3), (1, 1, 3), (4, 2), (4, 4)])
    def test_rejects_bad_shapes(self, shape):
        t = identity(3, 3)
        for kernel in (t.contract, t.jacobian):
            with pytest.raises(ValueError):
                kernel(np.ones(shape))


def newton_end(tensor, rhs, support, x0):
    """The last item of `newton_iterates`: its root (x, A x^{m-1}), or None."""
    *_, end = newton_iterates(tensor, rhs, support, x0)
    return end


class TestNewtonOnSupport:

    def test_identity_root_on_support(self):
        # I x^2 = (x1^2, x2^2, x3^2): on S = {0, 2} the root is sqrt(rhs_S)
        t = identity(3, 3)
        x, ax = newton_end(t, np.array([4.0, 9.0, 2.0]), np.array([0, 2]), np.ones(3))
        np.testing.assert_allclose(x, [2.0, 0.0, math.sqrt(2.0)], rtol=1e-14)
        assert x[1] == 0.0
        np.testing.assert_array_equal(ax, t.contract(x))

    def test_stays_inside_orthant(self):
        # -x^2 = 1 has no root; every Newton step heads for x <= 0, and each
        # is cut short so the iterate stays strictly positive
        t = Tensor(3, 1, {(0, 0, 0): -1.0})
        x, ax = newton_end(t, np.ones(1), np.array([0]), np.ones(1))
        assert 0.0 < x[0] < 1e-3
        np.testing.assert_array_equal(ax, t.contract(x))

    def test_subnormal_step_does_not_overflow_the_cut(self):
        # x1 + a x3 = 1 with a = -2.2e-313 starting from (1, 1, 1): the first
        # step has dx_3 = -1 and dx_1 = a, whose cut ratio 0.95 / |a| would
        # overflow; the step is cut by x_3 alone, as without the a term
        a = -2.2250738585e-313
        t = Tensor(2, 3, {(0, 0): 1.0, (0, 2): a, (1, 1): 1.0, (2, 2): 1.0})
        x, ax = newton_end(t, np.array([1.0, 1.0, 0.0]), np.array([0, 1, 2]), np.ones(3))
        assert np.all(x > 0.0)
        np.testing.assert_allclose(x[:2], [1.0, 1.0], rtol=1e-14)
        np.testing.assert_array_equal(ax, t.contract(x))

    def test_empty_support_gives_zero(self):
        x, ax = newton_end(identity(3, 2), np.ones(2), np.array([], dtype=np.intp),
                           np.ones(2))
        np.testing.assert_array_equal(x, np.zeros(2))
        np.testing.assert_array_equal(ax, np.zeros(2))

    def test_singular_block_gives_none(self):
        # row 2 of the map is identically zero, so its Jacobian row is too
        t = Tensor(3, 2, {(0, 0, 0): 1.0})
        assert newton_end(t, np.ones(2), np.array([0, 1]), np.ones(2)) is None


class TestSpectralRadius:

    def test_all_ones_order3(self):
        # (Bx^2)_i = (sum x)^2, so x = e is an eigenvector with value n^2
        for n in (2, 3, 4):
            dense = np.ones((n, n, n))
            est = spectral_radius(Tensor.from_dense(dense))
            assert est.converged
            assert abs(est.value - n * n) <= 1e-8
            assert est.lo - 1e-12 <= n * n <= est.hi + 1e-12

    def test_zero_tensor(self):
        est = spectral_radius(Tensor(3, 3, {}))
        assert est.converged
        assert est.value == 0.0

    def test_identity_tensor(self):
        est = spectral_radius(identity(3, 3))
        assert est.converged
        assert abs(est.value - 1.0) <= 1e-8

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            spectral_radius(Tensor(3, 2, {(0, 0, 0): -1.0}))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_tol(self, tol):
        # a nan tol never ends the power iteration, 0 or less rarely does
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            spectral_radius(Tensor(3, 2, {(0, 1, 1): 1.0, (1, 0, 0): 1.0}), tol=tol)

    def test_bracket_consistency(self):
        # refining the tolerance must land inside the coarse bracket
        rng = np.random.default_rng(16)
        for _ in range(20):
            dense = rng.random((3, 3, 3))
            t = Tensor.from_dense(dense)
            coarse = spectral_radius(t, tol=1e-6)
            fine = spectral_radius(t, tol=1e-12)
            assert coarse.lo <= coarse.hi
            assert coarse.lo - 1e-9 <= fine.value <= coarse.hi + 1e-9

    def test_reducible_tensor_shift(self):
        # one-directional coupling stalls the plain iteration
        t = Tensor(3, 2, {(0, 0, 0): 2.0, (0, 1, 1): 1.0})
        est = spectral_radius(t)
        assert est.lo - 1e-6 <= 2.0 <= est.hi + 1e-6

    def test_diagonal_tensor_bracket(self):
        # reducible: the per-iterate ratios are pinned at the diagonal values,
        # so the bracket cannot close, but it must still contain rho = 5
        t = Tensor(3, 2, {(0, 0, 0): 3.0, (1, 1, 1): 5.0})
        est = spectral_radius(t)
        assert not est.converged
        assert est.lo - 1e-6 <= 5.0 <= est.hi + 1e-6
