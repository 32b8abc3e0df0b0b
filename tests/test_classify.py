"""Classification checks: verdicts on the fixture tensors plus the
certificate invariants (witness re-validation, split round-trip, and the
Z-tensor agreement between the KS check and the M check).
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcpsolve import (BUILTIN_NAMES, TCPProblem, Tensor, Verdict, builtin,
                      classify, generate_ks_instance, is_ks_tensor, is_nonnegative,
                      is_nonsingular_m_tensor, is_p_tensor, is_z_tensor,
                      ks_split, satisfies_condition2, spectral_radius, tensors,
                      z_function_check)
from tcpsolve.classify import (OFFDIAG_TOL, _m_check, _p_probes, _p_sample,
                               positive_witness_ok)
from tcpsolve.tensors import first_positive_group, identity, stack_rows


def random_z_tensor(rng, order, dim, strength):
    """Z-tensor with some off-diagonal mass; strength scales the diagonal.

    Large strength makes the diagonal dominant (a nonsingular M-tensor),
    small strength lets the off-diagonal part win (not an M-tensor).
    """
    entries = {}
    for _ in range(int(rng.integers(1, 2 * dim + 2))):
        idx = tuple(int(i) for i in rng.integers(0, dim, size=order))
        if any(i != idx[0] for i in idx[1:]):
            entries[idx] = -float(rng.uniform(0.2, 1.0))
    row_mass = np.zeros(dim)
    for idx, v in entries.items():
        row_mass[idx[0]] += abs(v)
    for i in range(dim):
        entries[(i,) * order] = strength * (row_mass[i] + 1.0)
    return Tensor(order, dim, entries)


def builtin_tensor(name):
    obj = builtin(name)
    return obj.tensor if isinstance(obj, TCPProblem) else obj


def count_calls(monkeypatch, owner, attr):
    """Wrap owner.attr to record the first argument of every call."""
    calls = []
    real = getattr(owner, attr)

    def counted(first, *args, **kwargs):
        calls.append(first)
        return real(first, *args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


def reference_p_probes(tensor, num_samples, seed):
    """The P-check's probes drawn one point at a time: the sequence the
    stacks of `_p_probes` must reproduce."""
    n, m = tensor.dim, tensor.order
    eye = np.eye(n)
    probes = [eye[i] for i in range(n)]
    if m % 2 == 0:
        probes += [-eye[i] for i in range(n)]
        if n <= 14:
            probes += [np.array([1.0 if bits >> i & 1 else -1.0 for i in range(n)])
                       for bits in range(2 ** n)]
        else:
            probes.append(np.ones(n))
    else:
        probes.append(np.ones(n))
    rng = np.random.default_rng(seed)
    for _ in range(num_samples):
        x = rng.standard_normal(n)
        norm = np.linalg.norm(x)
        if norm != 0.0:
            x /= norm
            probes.append(np.abs(x) if m % 2 else x)
    return probes


def reference_p_sample(tensor, num_samples, seed):
    """(index, x) of the first refuting probe, by the one-point-at-a-time
    loop that the stacked `_p_sample` must reproduce; (None, None) if none."""
    for k, x in enumerate(reference_p_probes(tensor, num_samples, seed)):
        products = x * tensor.contract(x)
        active = x != 0.0
        if np.any(active) and np.max(products[active]) <= 0.0:
            return k, x
    return None, None


def reference_z_function(tensor, num_samples, seed):
    """(index, x, evidence) of the first refuting sample, by the
    one-point-at-a-time loop that the stacked `z_function_check` must
    reproduce; (None, None, {}) if none."""
    n = tensor.dim
    rng = np.random.default_rng(seed)
    mask = ~np.eye(n, dtype=bool)
    for k in range(num_samples):
        x = rng.uniform(0.0, 10.0, n)
        jac = tensor.jacobian(x)
        off = jac[mask]
        if off.size and np.max(off) > OFFDIAG_TOL:
            flat = np.where(mask, jac, -np.inf)
            i, j = np.unravel_index(int(np.argmax(flat)), jac.shape)
            return k, x, {"entry": (int(i), int(j)), "value": float(jac[i, j])}
    return None, None, {}


def reference_insertion_sums(tensor):
    """{(i, tail): insertion sum} by per-candidate lookups: collect every
    (i, tail) that some stored entry is an insertion of, then add up the m
    insertions of each through `Tensor.value`, correctly rounded."""
    m = tensor.order
    candidates = set()
    for idx, _v in tensor.items():
        for k in range(m):
            i, tail = idx[k], idx[:k] + idx[k + 1:]
            if tail[-1] != i:
                candidates.add((i, tail))
    return {(i, tail): math.fsum(tensor.value(tail[:p] + (i,) + tail[p:]) for p in range(m))
            for i, tail in candidates}


def reference_condition2(tensor):
    """(verdict, witness, detail) of the insertion-sum check from the
    per-candidate sums, each compared with 0 exactly; the one-pass
    `satisfies_condition2` must give the same, bit for bit."""
    sums = reference_insertion_sums(tensor)
    for i, tail in sorted(sums):
        if sums[i, tail] > 0.0:
            return (Verdict.CERTIFIED_FALSE, (i, tail),
                    f"insertion sum for i={i}, tail={tail} is {sums[i, tail]} > 0")
    return (Verdict.CERTIFIED_TRUE, None,
            f"{len(sums)} candidate (i, tail) pairs, all sums <= 0")


def reference_rowwise_witness(tensor):
    """`Tensor.rowwise_witness` from per-group lookups: for each i and
    multiset T of tail indices without i that some entry carries, the fsum
    of the entries a[i, P] over the distinct orderings P of T."""
    groups = {(idx[0], tuple(sorted(idx[1:]))) for idx, _v in tensor.items()
              if idx[0] not in idx[1:]}
    for i, tail in sorted(groups):
        total = math.fsum(tensor.value((i,) + perm) for perm in set(itertools.permutations(tail)))
        if total > 0.0:
            return i, tail, total
    return None


def wide_index_tensor(dim, seed, nonpositive):
    """Order-3 tensor of dimension dim whose entries come four to an index
    triple, its permutations, with values in quarters, so insertion sums
    and row-wise groups share terms and may cancel; nonpositive makes every
    entry <= 0."""
    rng = np.random.default_rng(seed)
    entries = {}
    for a, b, c in rng.integers(0, min(dim, 2 ** 62), size=(40, 3)).tolist():
        for idx in ((a, b, c), (b, a, c), (c, b, a), (a, c, b)):
            v = float(rng.integers(-4, 5)) / 4.0
            entries[idx] = -abs(v) if nonpositive else v
    return Tensor(3, dim, entries)


def random_mixed_tensor(rng, quarters):
    """Mixed-sign tensor of order 2-6 and dimension 1-4; with quarters set,
    values are multiples of 1/4, so insertion sums often cancel exactly."""
    order = int(rng.integers(2, 7))
    dim = int(rng.integers(1, 5))
    total = dim ** order
    flat = rng.choice(total, size=int(rng.integers(1, min(total, 30) + 1)), replace=False)
    idx = flat[:, None] // dim ** np.arange(order - 1, -1, -1) % dim
    values = rng.uniform(-1.0, 1.0, flat.size)
    if quarters:
        values = np.round(4.0 * values) / 4.0
    return Tensor(order, dim, zip(map(tuple, idx.tolist()), values.tolist()))


def seven_certificates(tensor, num_samples=1000):
    return {
        "nonnegative": is_nonnegative(tensor),
        "z_tensor": is_z_tensor(tensor),
        "nonsingular_m": is_nonsingular_m_tensor(tensor),
        "p_tensor": is_p_tensor(tensor, num_samples=num_samples),
        "ks_tensor": is_ks_tensor(tensor, num_samples=num_samples),
        "condition2": satisfies_condition2(tensor),
        "z_function": z_function_check(tensor, num_samples=num_samples),
    }


def certificate_key(cert):
    """The certificate as plain values, arrays by their bytes."""
    def plain(obj):
        if isinstance(obj, np.ndarray):
            return obj.dtype.str, obj.shape, obj.tobytes()
        if isinstance(obj, dict):
            return tuple((k, plain(v)) for k, v in obj.items())
        return repr(obj)
    return cert.verdict, cert.method, plain(cert.witness), cert.detail, plain(cert.evidence)


def fresh(tensor):
    """An equal tensor that has kept nothing yet."""
    return Tensor.from_arrays(tensor.order, tensor.dim, tensor._idx, tensor._val)


# every builtin, a generated Z-tensor and a mixed-sign one, each fresh
KEPT_CASES = ([fresh(builtin_tensor(name)) for name in BUILTIN_NAMES]
              + [fresh(generate_ks_instance(4, 5, density=0.3, seed=7).tensor),
                 random_mixed_tensor(np.random.default_rng(3), quarters=False)])


def assert_scans_match_items(tensor):
    """`is_nonnegative` and `is_z_tensor` refute with the (witness, detail)
    of a loop over items() in sorted order, the first smallest entry when
    it is negative and the first positive off-diagonal entry, and run on an
    equal fresh tensor without building items()."""
    items = tensor.items()
    worst = min(items, key=lambda e: e[1], default=None)
    negative = (worst[0], f"entry {worst[0]} = {worst[1]}") if worst and worst[1] < 0 else None
    positive = next(((idx, f"off-diagonal entry {idx} = {v} > 0") for idx, v in items
                     if v > 0 and any(i != idx[0] for i in idx[1:])), None)

    def refuse(*_):
        raise AssertionError("items() built")

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(Tensor, "items", refuse)
        monkeypatch.setattr(Tensor, "_items", property(refuse))
        certs = is_nonnegative(fresh(tensor)), is_z_tensor(fresh(tensor))
    assert [(c.witness, c.detail) if c.negative else None for c in certs] == [negative, positive]


@st.composite
def permuted_entry_lists(draw):
    """(order, dim, entry list, the same list permuted)."""
    order = draw(st.integers(2, 4))
    dim = draw(st.integers(1, 3))
    index = st.tuples(*[st.integers(0, dim - 1)] * order)
    value = st.sampled_from([-2.0, -1.0, -0.75, -0.25, 0.25, 0.5, 1.0, 3.0])
    entries = list(draw(st.dictionaries(index, value, min_size=1, max_size=12)).items())
    return order, dim, entries, draw(st.permutations(entries))


# F_0 = x0 (x0 - x1/2), F_1 = x1 (x1 - 4 x0): no deterministic probe
# refutes the P-condition, about one draw in seven does
LATE_P_WITNESS = Tensor(3, 2, {(0, 0, 0): 1.0, (0, 0, 1): -0.5,
                               (1, 1, 1): 1.0, (1, 1, 0): -4.0})
# dF_0/dx1 = x0 - 20 x1 is positive for about one uniform sample in forty
LATE_Z_WITNESS = Tensor(3, 2, {(0, 1, 0): 1.0, (0, 1, 1): -10.0, (1, 1, 1): 1.0})


# (seed, diagonal strength) of random Z-tensors for the M-check; the last
# two have a shifted spectral bracket that straddles s, so their verdict is
# unknown
RANDOM_Z_CASES = ([(seed, strength) for seed in range(12) for strength in (2.0, 1.0, 0.3)]
                  + [(89, 0.3), (92, 0.3)])


class TestEntryScans:

    def test_nonnegative_zero_tensor(self):
        assert is_nonnegative(Tensor(3, 2, {})).verdict is Verdict.CERTIFIED_TRUE

    def test_nonnegative_all_ones(self):
        t = Tensor.from_dense(np.ones((2, 2, 2)))
        assert is_nonnegative(t).verdict is Verdict.CERTIFIED_TRUE

    def test_nonnegative_refutes_with_witness(self):
        t = builtin("ex2_3")
        cert = is_nonnegative(t)
        assert cert.verdict is Verdict.CERTIFIED_FALSE
        assert t.value(cert.witness) < 0.0

    def test_z_tensor_fixture_true(self):
        assert is_z_tensor(builtin("ex2_2")).verdict is Verdict.CERTIFIED_TRUE

    def test_z_tensor_fixture_false(self):
        t = builtin("ex2_1")
        cert = is_z_tensor(t)
        assert cert.verdict is Verdict.CERTIFIED_FALSE
        # the witness is a positive off-diagonal entry
        idx = cert.witness
        assert t.value(idx) > 0.0
        assert any(i != idx[0] for i in idx[1:])

    def test_z_tensor_identity(self):
        assert is_z_tensor(identity(3, 3)).verdict is Verdict.CERTIFIED_TRUE

    def test_array_scans_match_loops(self):
        """The mask scans pick the witness, detail and split of a loop over
        items() in sorted order: the first smallest negative entry, the
        first positive off-diagonal entry, and W = diagonal or negative.
        The entry scans name their witness without building items()."""
        def off(idx):
            return any(i != idx[0] for i in idx[1:])

        tensors = [builtin_tensor(name) for name in BUILTIN_NAMES]
        tensors += [random_mixed_tensor(np.random.default_rng(s), quarters=s % 2)
                    for s in range(200)]
        for t in tensors:
            assert_scans_match_items(t)
            split = ks_split(t)
            assert split.W.items() == tuple(e for e in t.items() if not off(e[0]) or e[1] < 0)
            assert split.N.items() == tuple(e for e in t.items() if off(e[0]) and e[1] >= 0)
            diag = [t.value((i,) * t.order) for i in range(t.dim)]
            assert t.diagonal().tolist() == diag

    @settings(max_examples=60, deadline=None)
    @given(permuted_entry_lists())
    def test_witnesses_without_items_drawn(self, case):
        order, dim, entries, _ = case
        assert_scans_match_items(Tensor(order, dim, entries))


class TestKSSplit:

    def test_quadratic_fixture_entries(self):
        split = ks_split(builtin("ex2_1"))
        assert dict(split.W.items()) == {(0, 0, 0): 1.0, (0, 1, 1): -1.0,
                                         (1, 1, 1): 1.0}
        assert dict(split.N.items()) == {(1, 0, 0): 1.0}

    def test_cubic_fixture_entries(self):
        split = ks_split(builtin("ex2_3"))
        assert dict(split.W.items()) == {(0, 0, 0, 0): 1.0, (1, 1, 1, 1): 1.0,
                                         (0, 1, 1, 0): -1.0, (1, 0, 0, 1): -0.5}
        assert dict(split.N.items()) == {(0, 1, 0, 1): 1.0}

    def test_round_trip_exact(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            order = int(rng.integers(2, 5))
            dim = int(rng.integers(1, 5))
            dense = rng.standard_normal((dim,) * order)
            t = Tensor.from_dense(dense)
            split = ks_split(t)
            # W + N = A entrywise with no tolerance
            assert np.array_equal(split.W.to_dense() + split.N.to_dense(), t.to_dense())

    def test_split_structure(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            dim = int(rng.integers(1, 5))
            dense = rng.standard_normal((dim,) * 3)
            split = ks_split(Tensor.from_dense(dense))
            for idx, v in split.N.items():
                assert v > 0.0
                assert any(i != idx[0] for i in idx[1:])
            for idx, v in split.W.items():
                diag = all(i == idx[0] for i in idx[1:])
                assert diag or v < 0.0

    def test_z_tensor_splits_trivially(self):
        t = builtin("ex2_2")
        split = ks_split(t)
        assert split.W == t
        assert split.N.nnz == 0


class TestCondition2:

    def test_cubic_fixture_true(self):
        cert = satisfies_condition2(builtin("ex2_3"))
        assert cert.verdict is Verdict.CERTIFIED_TRUE

    def test_zero_tensor_true(self):
        cert = satisfies_condition2(Tensor(3, 2, {}))
        assert cert.verdict is Verdict.CERTIFIED_TRUE

    def test_single_positive_entry_false(self):
        t = Tensor(3, 2, {(0, 1, 1): 1.0})
        cert = satisfies_condition2(t)
        assert cert.verdict is Verdict.CERTIFIED_FALSE
        i, tail = cert.witness
        total = sum(t.value(tail[:p] + (i,) + tail[p:]) for p in range(t.order))
        assert total > 0.0

    def test_matches_dense_enumeration(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            order = int(rng.integers(2, 5))
            dim = int(rng.integers(1, 4))
            dense = rng.standard_normal((dim,) * order)
            dense *= rng.random((dim,) * order) < 0.4
            t = Tensor.from_dense(dense)
            violated = False
            for i in range(dim):
                for tail in itertools.product(range(dim), repeat=order - 1):
                    if tail[-1] == i:
                        continue
                    total = math.fsum(dense[tail[:p] + (i,) + tail[p:]]
                                      for p in range(order))
                    if total > 0.0:
                        violated = True
            cert = satisfies_condition2(t)
            assert cert.verdict is (Verdict.CERTIFIED_FALSE if violated
                                    else Verdict.CERTIFIED_TRUE)

    def test_matches_per_candidate_reference(self):
        rng = np.random.default_rng(2026)
        seen = {Verdict.CERTIFIED_TRUE: 0, Verdict.CERTIFIED_FALSE: 0}
        cancelled = 0
        for k in range(600):
            t = random_mixed_tensor(rng, quarters=k % 2 == 1)
            cert = satisfies_condition2(t)
            assert (cert.verdict, cert.witness, cert.detail) == reference_condition2(t)
            seen[cert.verdict] += 1
            cancelled += 0.0 in reference_insertion_sums(t).values()
        assert min(seen.values()) > 50
        assert cancelled > 0

    def test_sums_add_in_position_order(self):
        # the insertions of i = 1 into tail (0, 0) are, by position, entries
        # (1,0,0), (0,1,0), (0,0,1): stored order is the reverse, and
        # 0.7 + 0.2 - 0.3 rounds differently from -0.3 + 0.2 + 0.7; the
        # correctly rounded sum is neither addition order's
        t = Tensor(3, 2, {(1, 0, 0): 0.7, (0, 1, 0): 0.2, (0, 0, 1): -0.3})
        cert = satisfies_condition2(t)
        assert (cert.verdict, cert.witness, cert.detail) == reference_condition2(t)
        assert 0.7 + 0.2 - 0.3 != 0.6
        assert cert.detail.endswith("is 0.6 > 0")

    def test_tiny_positive_sum_is_false(self):
        # a_01 + a_10 = 1e-13 > 0: an exact sign, with no tolerance to hide it
        cert = satisfies_condition2(Tensor.from_dense([[1.0, 1e-13], [0.0, 1.0]]))
        assert cert.verdict is Verdict.CERTIFIED_FALSE
        assert cert.witness == (0, (1,))

    def test_no_entry_lookups(self, monkeypatch):
        tensors = [builtin_tensor(name) for name in BUILTIN_NAMES]
        tensors.append(generate_ks_instance(6, 3, density=0.3, seed=3).tensor)
        tensors += [random_mixed_tensor(np.random.default_rng(s), quarters=True)
                    for s in range(20)]
        expected = [satisfies_condition2(t) for t in tensors]

        def no_lookup(self, idx):
            raise AssertionError("satisfies_condition2 looked up an entry")

        monkeypatch.setattr(Tensor, "value", no_lookup)
        assert [satisfies_condition2(t) for t in tensors] == expected


class TestGroupSums:
    """The one exact group-sum kernel behind both entry certificates."""

    def test_rowwise_matches_per_group_reference(self):
        rng = np.random.default_rng(2026)
        hits = mixed = 0
        for k in range(600):
            t = random_mixed_tensor(rng, quarters=k % 2 == 1)
            want = reference_rowwise_witness(t)
            assert t.rowwise_witness == want
            hits += want is not None
            groups = {}
            for (i, *tail), v in t.items():
                if i not in tail:
                    groups.setdefault((i, tuple(sorted(tail))), []).append(v)
            # the groups that the kernel adds with fsum
            mixed += sum(min(vs) < 0.0 < max(vs) for vs in groups.values())
        assert 50 < hits < 550
        assert mixed > 20

    @pytest.mark.parametrize("dim, dtype", [(300, np.uint16), (2 ** 62, np.uint64)])
    def test_wide_index_types(self, dim, dtype):
        assert np.min_scalar_type(dim - 1) == dtype
        verdicts = set()
        for seed in range(4):
            for nonpositive in (False, True):
                t = wide_index_tensor(dim, seed, nonpositive)
                cert = satisfies_condition2(t)
                assert (cert.verdict, cert.witness, cert.detail) == reference_condition2(t)
                assert t.rowwise_witness == reference_rowwise_witness(t)
                verdicts.add(cert.verdict)
        assert verdicts == {Verdict.CERTIFIED_TRUE, Verdict.CERTIFIED_FALSE}

    def test_no_entries(self):
        t = Tensor(4, 3, {})
        assert satisfies_condition2(t).detail == "0 candidate (i, tail) pairs, all sums <= 0"
        assert t.rowwise_witness is None
        assert first_positive_group(np.empty((0, 4), np.uint8), np.empty(0)) == (0, None, None)

    def test_order_two(self):
        # condition (2) of a matrix is a_ij + a_ji <= 0 for i != j, the
        # row-wise test a_ij <= 0
        t = Tensor.from_dense([[1.0, 0.5, -2.0], [-0.5, 1.0, 0.0], [1.0, 3.0, 1.0]])
        cert = satisfies_condition2(t)
        assert (cert.verdict, cert.witness) == (Verdict.CERTIFIED_FALSE, (1, (2,)))
        assert cert.detail == "insertion sum for i=1, tail=(2,) is 3.0 > 0"
        assert t.rowwise_witness == (0, (1,), 0.5)

    def test_group_cancelling_to_zero_is_not_positive(self):
        pair = Tensor(2, 2, {(0, 1): 0.5, (1, 0): -0.5})
        cert = satisfies_condition2(pair)
        assert (cert.verdict, cert.detail) == (
            Verdict.CERTIFIED_TRUE, "2 candidate (i, tail) pairs, all sums <= 0")
        # group (0, (1, 2, 3)) adds to 1.0 in stored order, exactly to 0
        t = Tensor(4, 4, {(0, 1, 2, 3): 1e16, (0, 1, 3, 2): -1.0, (0, 2, 1, 3): -1e16,
                          (0, 2, 3, 1): 1.0})
        assert sum(v for _idx, v in t.items()) == 1.0
        assert t.rowwise_witness is None and reference_rowwise_witness(t) is None

    def test_sums_only_groups_with_a_positive_value(self, monkeypatch):
        keys = np.array([[2, 0], [0, 1], [2, 0], [0, 1], [1, 1], [0, 1]])
        values = np.array([1.0, -2.0, -1.0, 0.5, -3.0, 1.0])
        summed = []
        real = math.fsum

        def fsum(terms):
            summed.append(sorted(terms))
            return real(terms)

        monkeypatch.setattr(math, "fsum", fsum)
        # groups (0, 1): -0.5, (1, 1): -3 unsummed, (2, 0): 0.0
        assert first_positive_group(keys, values) == (3, None, None)
        assert summed == [[-2.0, 0.5, 1.0], [-1.0, 1.0]]
        values[0] = 1.5
        assert first_positive_group(keys, values) == (3, (2, 0), 0.5)


class TestEntryOrder:
    """Certificates depend on the tensor's value, not on the order in which
    its entries were given."""

    def test_reversed_dict_same_witnesses(self):
        entries = {(0, 0, 0): 1.0, (1, 1, 1): 1.0, (0, 1, 1): 2.0, (1, 0, 0): 3.0,
                   (0, 0, 1): -4.0, (1, 1, 0): -4.0}
        t = Tensor(3, 2, entries)
        r = Tensor(3, 2, dict(reversed(entries.items())))
        assert t == r and hash(t) == hash(r)
        assert is_z_tensor(t).witness == is_z_tensor(r).witness == (0, 1, 1)
        assert is_nonnegative(t).witness == is_nonnegative(r).witness == (0, 0, 1)

    @settings(max_examples=60, deadline=None)
    @given(permuted_entry_lists())
    def test_permutation_invariant(self, case):
        order, dim, entries, permuted = case
        t, p = Tensor(order, dim, entries), Tensor(order, dim, permuted)
        assert t.items() == p.items()
        assert t._idx.tobytes() == p._idx.tobytes() and t._val.tobytes() == p._val.tobytes()
        assert t == p and hash(t) == hash(p)
        first = seven_certificates(t, num_samples=50)
        second = seven_certificates(p, num_samples=50)
        assert ({k: certificate_key(c) for k, c in first.items()}
                == {k: certificate_key(c) for k, c in second.items()})

    def test_python_values_in_items_witnesses_and_details(self):
        """Entries and entry witnesses are Python ints and floats, so no
        detail string prints a numpy scalar such as np.float64(0.5)."""
        def python_ints(obj):
            return (all(python_ints(o) for o in obj) if isinstance(obj, tuple)
                    else type(obj) is int)

        tensors = [builtin_tensor(name) for name in BUILTIN_NAMES]
        tensors += [random_mixed_tensor(np.random.default_rng(s), quarters=s % 2)
                    for s in range(30)]
        tuple_witnesses = 0
        for t in tensors:
            assert all(python_ints(idx) and type(v) is float for idx, v in t.items())
            for cert in seven_certificates(t, num_samples=20).values():
                assert "np." not in cert.detail
                if isinstance(cert.witness, tuple):
                    assert python_ints(cert.witness)
                    tuple_witnesses += 1
        assert tuple_witnesses > 30


class TestMTensor:

    def test_identity_certified_with_witness(self):
        cert = is_nonsingular_m_tensor(identity(3, 3))
        assert cert.verdict is Verdict.CERTIFIED_TRUE
        assert positive_witness_ok(identity(3, 3), cert.witness)

    def test_negated_identity_false(self):
        t = Tensor(3, 3, {(i, i, i): -1.0 for i in range(3)})
        assert is_nonsingular_m_tensor(t).verdict is Verdict.CERTIFIED_FALSE

    def test_comparison_part_of_cubic_fixture(self):
        w = ks_split(builtin("ex2_3")).W
        cert = is_nonsingular_m_tensor(w)
        assert cert.verdict is Verdict.CERTIFIED_TRUE
        # the hand witness x = (1.4, 1.3) gives W x^3 = (0.378, 0.923) > 0
        hand = np.array([1.4, 1.3])
        assert positive_witness_ok(w, hand)
        np.testing.assert_allclose(w.contract(hand), [0.378, 0.923], atol=1e-12)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_newton_root_not_contracted_again(self, monkeypatch, name):
        # Newton returns A x^(m-1) with its root, so the witness test needs
        # no contraction of the root after Newton is done
        contracted = []
        real_contract = Tensor.contract

        def recorded(tensor, x):
            contracted.append((id(tensor), np.asarray(x).tobytes()))
            return real_contract(tensor, x)

        roots = []   # (root, contractions so far) when each Newton run ended
        real_newton = classify.newton_iterates

        def newton(tensor, *args):
            end = None
            for end in real_newton(tensor, *args):
                yield end
            if end is not None:
                roots.append(((id(tensor), end[0].tobytes()), len(contracted)))

        monkeypatch.setattr(Tensor, "contract", recorded)
        monkeypatch.setattr(classify, "newton_iterates", newton)
        is_nonsingular_m_tensor(builtin_tensor(name))
        for root, done in roots:
            assert root not in contracted[done:]

    @pytest.mark.parametrize("tensor", [ks_split(builtin_tensor(name)).W
                                        for name in BUILTIN_NAMES]
                             + [random_z_tensor(np.random.default_rng(seed),
                                                3 + seed % 2, 2 + seed % 3, strength)
                                for seed, strength in RANDOM_Z_CASES])
    def test_verdict_of_the_converged_bracket(self, tensor):
        # the M-check stops at the first bracket that leaves s outside; its
        # verdict is the one that comparing s with the fully converged
        # bracket of rho(s*I - A) gives
        s = float(np.max(tensor.diagonal()))
        # B entry by entry, not through the dense form: ex5_5's takes 26 GiB
        entries = {idx: -v for idx, v in tensor.items()}
        for i in range(tensor.dim):
            entries[(i,) * tensor.order] = s - tensor.value((i,) * tensor.order)
        full = spectral_radius(Tensor(tensor.order, tensor.dim, entries))
        expected = (Verdict.CERTIFIED_TRUE if s > full.hi else
                    Verdict.CERTIFIED_FALSE if s <= full.lo else Verdict.UNKNOWN)
        assert _m_check(tensor).verdict is expected

    @pytest.mark.parametrize("name", ["ex5_1", "ex5_3", "ex3_1"])
    def test_spectral_route_stops_early(self, name):
        # these W M-checks reach the spectral route, where converging the
        # bracket takes 42, 1025 and 615 power iterations; s leaves the
        # bracket within 3
        cert = _m_check(ks_split(builtin_tensor(name)).W)
        assert cert.method == "spectral_bracket"
        assert cert.verdict is Verdict.CERTIFIED_TRUE
        bracket = cert.evidence["bracket"]
        assert bracket.iterations <= 3
        assert bracket.hi < cert.evidence["s"]

    @pytest.mark.parametrize("name", ["ex5_1", "ex5_3", "ex3_1"])
    def test_spectral_route_builds_two_tensors(self, monkeypatch, name):
        # B = s*I - W and the shifted B + s0*I, one entry check each (every
        # build, by pairs or by arrays, runs `Tensor._store` once)
        w = ks_split(builtin_tensor(name)).W
        built = count_calls(monkeypatch, Tensor, "_store")
        cert = _m_check(w)
        assert cert.method == "spectral_bracket" and cert.evidence["bracket"].shifted
        assert len(built) == 2

    def test_non_z_tensor_rejected(self):
        cert = is_nonsingular_m_tensor(builtin("ex2_1"))
        assert cert.verdict is Verdict.CERTIFIED_FALSE

    def test_dominant_diagonal_z_tensors_certified(self):
        rng = np.random.default_rng(24)
        for _ in range(15):
            t = random_z_tensor(rng, int(rng.integers(3, 5)),
                                int(rng.integers(2, 5)), strength=2.0)
            cert = is_nonsingular_m_tensor(t)
            assert cert.verdict is Verdict.CERTIFIED_TRUE
            assert positive_witness_ok(t, cert.witness)

    def test_weak_diagonal_z_tensors_refuted(self):
        # diagonal far below the off-diagonal row mass cannot be an M-tensor
        t = Tensor(3, 2, {(0, 0, 0): 0.1, (1, 1, 1): 0.1,
                          (0, 1, 1): -1.0, (1, 0, 0): -1.0})
        cert = is_nonsingular_m_tensor(t)
        assert cert.verdict is Verdict.CERTIFIED_FALSE


class TestPTensor:

    def test_quadratic_fixture_supported(self):
        assert is_p_tensor(builtin("ex2_1")).positive

    def test_z_fixture_refuted_with_witness(self):
        t = builtin("ex2_2")
        cert = is_p_tensor(t)
        assert cert.verdict is Verdict.REFUTED
        x = np.asarray(cert.witness)
        products = x * t.contract(x)
        assert np.max(products[x != 0.0]) <= 0.0

    def test_cubic_fixture_supported(self):
        assert is_p_tensor(builtin("ex2_3")).positive

    def test_identity_even_order_certified(self):
        cert = is_p_tensor(identity(4, 3))
        assert cert.verdict is Verdict.CERTIFIED_TRUE

    def test_seed_deterministic(self):
        t = builtin("ex2_2")
        a = is_p_tensor(t, num_samples=50, seed=5)
        b = is_p_tensor(t, num_samples=50, seed=5)
        assert a.verdict is b.verdict
        np.testing.assert_array_equal(np.asarray(a.witness), np.asarray(b.witness))


class TestStackedSampling:
    """The sampled checks run their points in stacks, with the same samples,
    witnesses and evidence as one point at a time."""

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins_match_reference(self, name):
        t = builtin_tensor(name)
        _, x = reference_p_sample(t, 1000, 42)
        got = _p_sample(t, 1000, 42)
        assert (got is None) == (x is None)
        if x is not None:
            assert got.tobytes() == x.tobytes()
        _, x, evidence = reference_z_function(t, 1000, 42)
        cert = z_function_check(t)
        assert cert.verdict is (Verdict.SUPPORTED if x is None else Verdict.REFUTED)
        if x is not None:
            assert cert.witness.tobytes() == x.tobytes()
        assert cert.evidence == evidence

    @pytest.mark.parametrize("budget", [64, tensors.STACK_TERMS, 2 * tensors.STACK_TERMS])
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_probes_match_reference(self, monkeypatch, name, budget):
        monkeypatch.setattr(tensors, "STACK_TERMS", budget)
        t = builtin_tensor(name)
        stacks = list(_p_probes(t, 1000, 42))
        assert max(len(xs) for xs in stacks) <= stack_rows(t)
        assert np.concatenate(stacks).tobytes() == np.array(
            reference_p_probes(t, 1000, 42)).tobytes()

    @pytest.mark.parametrize("budget", [1, 16, 64])
    def test_witness_past_first_stack(self, monkeypatch, budget):
        # at seed 45 the first P witness is random draw 9 (after the three
        # fixed probes) and the first Z witness is sample 116
        monkeypatch.setattr(tensors, "STACK_TERMS", budget)
        k, x = reference_p_sample(LATE_P_WITNESS, 1000, 45)
        assert k - 3 >= stack_rows(LATE_P_WITNESS)
        assert _p_sample(LATE_P_WITNESS, 1000, 45).tobytes() == x.tobytes()
        k, x, evidence = reference_z_function(LATE_Z_WITNESS, 1000, 45)
        assert k >= stack_rows(LATE_Z_WITNESS)
        cert = z_function_check(LATE_Z_WITNESS, seed=45)
        assert cert.verdict is Verdict.REFUTED
        assert cert.witness.tobytes() == x.tobytes()
        assert cert.evidence == evidence

    def test_z_function_memory_is_bounded(self):
        # order 4, dim 8: about 1,234 entries; all 1000 samples in one stack
        # would need about 60 MB
        t = generate_ks_instance(4, 8, density=0.3, seed=101).tensor
        assert t.nnz > 1200
        tracemalloc.start()
        try:
            cert = z_function_check(t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cert.verdict is Verdict.SUPPORTED
        assert peak < 2 * 2 ** 20

    @pytest.mark.parametrize("check", [z_function_check, is_p_tensor, is_ks_tensor])
    @pytest.mark.parametrize("num_samples", [0, -3])
    def test_rejects_sample_count_below_one(self, check, num_samples):
        with pytest.raises(ValueError, match="num_samples"):
            check(builtin_tensor("ex5_5"), num_samples=num_samples)


class TestKSTensor:

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_one_m_check(self, monkeypatch, name):
        # `_m_check` is the M computation, which `_kept` runs once per
        # tensor; for a Z-tensor W = A, so the P-check's M-check serves W too
        calls = count_calls(monkeypatch, classify, "_m_check")
        is_ks_tensor(builtin_tensor(name))
        assert len(calls) == 1

    @pytest.mark.parametrize("check", [is_p_tensor, is_ks_tensor])
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_one_z_scan(self, monkeypatch, check, name):
        # `_z_scan` is the Z entry scan: the P part and the W part of the
        # KS-check both read is_z_tensor, which scans once per tensor
        calls = count_calls(monkeypatch, classify, "_z_scan")
        check(builtin_tensor(name))
        assert len(calls) == 1

    def test_fixture_verdicts(self):
        assert is_ks_tensor(builtin("ex2_1")).verdict is Verdict.SUPPORTED
        assert is_ks_tensor(builtin("ex2_2")).verdict is Verdict.REFUTED
        assert is_ks_tensor(builtin("ex2_3")).verdict is Verdict.SUPPORTED

    def test_z_tensor_agreement_with_m_check(self):
        # for Z-tensors the KS property reduces to the M property: the two
        # checks must agree in polarity on every sampled Z-tensor
        rng = np.random.default_rng(25)
        for k in range(20):
            strength = 2.0 if k % 2 == 0 else 0.05
            t = random_z_tensor(rng, int(rng.integers(3, 5)),
                                int(rng.integers(2, 4)), strength)
            ks = is_ks_tensor(t)
            m = is_nonsingular_m_tensor(t)
            if m.positive:
                assert ks.positive, (m.verdict, ks.verdict)
            if m.negative:
                assert ks.negative, (m.verdict, ks.verdict)

    def test_refuted_by_bad_comparison_part(self):
        # positive off-diagonal entries keep A a P-tensor candidate while the
        # comparison part loses its diagonal dominance
        t = Tensor(3, 2, {(0, 0, 0): 0.1, (1, 1, 1): 0.1,
                          (0, 1, 1): -1.0, (1, 0, 0): -1.0})
        cert = is_ks_tensor(t)
        assert cert.verdict is Verdict.REFUTED


class TestKeptCertificates:
    """The Z entry scan and the M-check run once per tensor and are kept on
    it; the sampled checks run on every call."""

    @pytest.mark.parametrize("tensor", KEPT_CASES)
    def test_seven_checks_compute_once(self, monkeypatch, tensor):
        tensor = fresh(tensor)
        m_runs = count_calls(monkeypatch, classify, "_m_check")
        z_scans = count_calls(monkeypatch, classify, "_z_scan")
        seven_certificates(tensor, num_samples=50)
        # a Z-tensor's M-check is its own; any other tensor's is its W's
        assert len(z_scans) == 1 and z_scans[0] is tensor
        assert len(m_runs) == 1
        assert (m_runs[0] is tensor) == is_z_tensor(tensor).positive

    @pytest.mark.parametrize("check", [is_nonsingular_m_tensor, is_p_tensor, is_ks_tensor])
    @pytest.mark.parametrize("tensor", KEPT_CASES)
    def test_second_call_contracts_only_samples(self, monkeypatch, check, tensor):
        # outside the P-check's sampling, which is not kept, a second call
        # contracts nothing: no M-check, Newton run or spectral bracket again
        tensor = fresh(tensor)
        first = check(tensor)
        sampling = []
        real_sample = classify._p_sample

        def sample(*args):
            sampling.append(True)
            try:
                return real_sample(*args)
            finally:
                sampling.pop()

        outside = []
        real_contract = Tensor.contract

        def contract(t, x):
            if not sampling:
                outside.append(x)
            return real_contract(t, x)

        monkeypatch.setattr(classify, "_p_sample", sample)
        monkeypatch.setattr(Tensor, "contract", contract)
        again = check(tensor)
        assert outside == []
        assert certificate_key(again) == certificate_key(first)

    @pytest.mark.parametrize("tensor", KEPT_CASES)
    def test_reused_and_fresh_tensors_agree(self, tensor):
        reused = fresh(tensor)
        keys = [{k: certificate_key(c) for k, c in seven_certificates(t, 200).items()}
                for t in (reused, reused, fresh(tensor))]
        assert keys[0] == keys[1] == keys[2]

    @pytest.mark.parametrize("tensor", KEPT_CASES)
    def test_kept_witness_cannot_be_changed(self, tensor):
        # each call gets its own copy of a kept witness and evidence, so
        # changing them in place reaches no other caller
        expected = {k: certificate_key(c)
                    for k, c in seven_certificates(fresh(tensor), 50).items()}
        tensor = fresh(tensor)
        for _ in range(2):
            for cert in seven_certificates(tensor, 50).values():
                if isinstance(cert.witness, np.ndarray):
                    cert.witness[:] = -7.0
                cert.evidence.clear()
        got = {k: certificate_key(c) for k, c in seven_certificates(tensor, 50).items()}
        assert got == expected

    def test_kept_witnesses_exist(self):
        # the cases above change some kept array witness and evidence
        certs = [c for t in KEPT_CASES for c in seven_certificates(fresh(t), 50).values()
                 if c.method in ("positive_vector", "spectral_bracket", "z_m_equivalence",
                                 "conjunction")]
        assert any(isinstance(c.witness, np.ndarray) for c in certs)
        assert any(c.evidence for c in certs)


class TestZFunctionCheck:

    def test_cubic_fixture_supported(self):
        cert = z_function_check(builtin("ex2_3"))
        assert cert.verdict is Verdict.SUPPORTED

    def test_identity_supported(self):
        assert z_function_check(identity(3, 3)).verdict is Verdict.SUPPORTED

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_z_tensor_needs_no_samples(self, monkeypatch, name):
        # on a Z-tensor every off-diagonal jacobian term is <= 0 on x >= 0,
        # so the check answers from the entry scan without a jacobian
        t = builtin_tensor(name)
        z_tensor = is_z_tensor(t).positive
        calls = count_calls(monkeypatch, Tensor, "jacobian")
        cert = z_function_check(t)
        assert (cert.method == "z_tensor") == z_tensor
        assert (len(calls) == 0) == z_tensor
        if z_tensor:
            assert cert.verdict is Verdict.SUPPORTED and cert.evidence == {}

    def test_positive_coupling_refuted(self):
        # F_1 = x2^2 has dF1/dx2 = 2 x2 > 0 off the diagonal
        t = Tensor(3, 2, {(0, 1, 1): 1.0})
        cert = z_function_check(t)
        assert cert.verdict is Verdict.REFUTED
        x = np.asarray(cert.witness)
        i, j = cert.evidence["entry"]
        assert i != j
        assert t.jacobian(x)[i, j] > 1e-12

    def test_condition2_ks_tensors_never_refuted(self):
        from tcpsolve import generate_ks_instance
        for seed in range(5):
            problem = generate_ks_instance(3, 3, seed=seed)
            assert satisfies_condition2(problem.tensor).verdict is Verdict.CERTIFIED_TRUE
            cert = z_function_check(problem.tensor, num_samples=200, seed=seed)
            assert cert.verdict is Verdict.SUPPORTED
