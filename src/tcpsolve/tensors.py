"""Sparse coordinate tensors and the polynomial maps they induce.

An order-m dimension-n tensor A acts on a vector x through the degree-(m-1)
polynomial map

    F(x)_i = (A x^{m-1})_i = sum_{i2..im} a[i, i2, .., im] * x_{i2} * .. * x_{im}

which is the object every other module here is built on: the complementarity
problem asks for x >= 0 with F(x) - q >= 0 and x'(F(x) - q) = 0.

A `Tensor` stores its entries once, as sorted index rows and their values,
checked as a whole when built; the kernels, the entry scans, `items()` and
`_shifted`, which builds s*I +- A in one pass, all read that one store.  The
Jacobian comes from the product rule on the stored entries, each entry and
tail slot one term.  Both maps cache their term lists on the tensor at first
use and sum them with one kernel, `_sum_terms`, at a point or a (k, n) stack;
`first_passing` scores the trial points of a backtracking ladder in such
stacks.  Newton on a support has one interface, the generator of its
iterates `newton_iterates`: a caller stops it at any iterate, resumes it
later, or reads it to its end.  The entry certificates' exact group sums
share one kernel too, `first_positive_group`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["Tensor", "SpectralBracket", "identity", "newton_iterates", "spectral_radius"]


def _distinct_permutations(seq):
    """Yield the distinct orderings of the tuple seq, in lexicographic order."""
    if not seq:
        yield ()
    for first in sorted(set(seq)):
        i = seq.index(first)
        for rest in _distinct_permutations(seq[:i] + seq[i + 1:]):
            yield (first,) + rest


# the largest order a tensor may have: the work of every scan grows with the
# order, and 62 is the largest order `generate_ks_instance` can emit
MAX_ORDER = 62


def checked_shape(order, dim):
    """(order, dim) as ints, or ValueError when they are not integers with
    order in 2..MAX_ORDER and dim in 1..2**63-1, the shapes a Tensor takes."""
    if not (all(isinstance(v, (int, np.integer)) for v in (order, dim))
            and 2 <= order <= MAX_ORDER and 1 <= dim < 2 ** 63):
        raise ValueError(f"tensor needs integer order in 2..{MAX_ORDER} and dimension in "
                         f"1..2**63-1, got {order!r}, {dim!r}")
    return int(order), int(dim)


class Tensor:
    """Order-m, dimension-n real tensor stored as sparse coordinates.

    The entries are `_idx`, the (nnz, m) intp index rows in sorted order, and
    `_val`, their finite nonzero values.  `from_arrays` takes (k, m) integer
    index rows and k values; the constructor takes a mapping or an iterable
    of (index, value) pairs and hands their arrays to the same checks, of
    all entries at once: indices of length m with integer entries in
    0..n-1, finite values, and no index twice (zero values included); zero
    values are then dropped.  So every scan of the entries depends only on
    the tensor's value, not on input order.
    """

    def __init__(self, order, dim, entries):
        m, _ = checked_shape(order, dim)
        pairs = list(entries.items() if hasattr(entries, "items") else entries)
        keys = [k for k, _ in pairs]
        if set(map(len, keys)) - {m}:
            key = next(k for k in keys if len(k) != m)
            raise ValueError(f"index {key} does not have length {m}")
        idx = np.array(keys or np.empty((0, m), np.intp)).reshape(len(keys), m)
        if idx.dtype.kind in "fO" and all(isinstance(i, (int, np.integer))
                                          for key in keys for i in key):
            # numpy gives floats for mixed uint64/int64 and objects for ints beyond int64
            idx = np.array([[int(i) for i in key] for key in keys], dtype=object)
        self._store(order, dim, idx, [v for _, v in pairs])

    @classmethod
    def from_arrays(cls, order, dim, idx, val):
        """Tensor with entry val[r] at index row idx[r], for a (k, m) integer
        array idx and k values, under the constructor's checks."""
        tensor = cls.__new__(cls)
        tensor._store(order, dim, idx, val)
        return tensor

    def _store(self, order, dim, idx, val):
        """Check the entries (idx[r], val[r]) as the class describes and store them."""
        self.order, self.dim = m, n = checked_shape(order, dim)
        idx, val = np.asarray(idx), np.asarray(val, dtype=float)
        if idx.ndim != 2 or val.shape != idx.shape[:1]:
            raise ValueError(f"need a (k, {m}) index array and k values, got shapes "
                             f"{idx.shape} and {val.shape}")
        if len(idx) and idx.shape[1] != m:
            raise ValueError(f"index {tuple(idx[0].tolist())} does not have length {m}")
        if not (idx.dtype.kind in "iu" or idx.dtype.kind == "O" and all(
                isinstance(i, (int, np.integer)) for i in idx.flat)):
            raise ValueError(f"indices must be integers in 0..{n - 1}, got {idx.dtype}")
        idx = idx.reshape(len(idx), m)
        _reject((idx < 0) | (idx >= n), idx, f"index {{}} out of range 0..{n - 1}")
        _reject(~np.isfinite(val), idx, "entry {} has a non-finite value")
        # lexsort's last key is its first: rows sorted as tuples would be
        rank = np.lexsort(idx.T[::-1])
        idx, val = idx[rank].astype(np.intp), val[rank]
        _reject((idx[1:] == idx[:-1]).all(axis=1), idx, "duplicate index tuple {}")
        self._idx, self._val = idx[val != 0.0], val[val != 0.0]
        self._sym = None

    # -- basic protocol ----------------------------------------------------

    @property
    def nnz(self):
        return self._val.size

    def value(self, idx):
        """Entry at 0-based tuple idx (0.0 when absent)."""
        hit = np.flatnonzero((self._idx == idx).all(axis=1)) if len(idx) == self.order else ()
        return float(self._val[hit[0]]) if len(hit) else 0.0

    @cached_property
    def _items(self):
        return tuple(zip(map(tuple, self._idx.tolist()), self._val.tolist()))

    def items(self):
        """The (index tuple, value) pairs in sorted order, as Python values."""
        return self._items

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return (self.order == other.order and self.dim == other.dim
                and np.array_equal(self._idx, other._idx)
                and np.array_equal(self._val, other._val))

    def __hash__(self):
        return hash((self.order, self.dim, self.items()))

    def __repr__(self):
        return f"Tensor(order={self.order}, dim={self.dim}, nnz={self.nnz})"

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_dense(cls, array):
        array = np.asarray(array, dtype=float)
        if array.ndim < 2 or array.shape != (array.shape[0],) * array.ndim:
            raise ValueError(f"dense tensor must be hypercubic of order >= 2, got {array.shape}")
        return cls.from_arrays(array.ndim, array.shape[0], np.argwhere(array), array[array != 0])

    def to_dense(self):
        out = np.zeros((self.dim,) * self.order)
        out[tuple(self._idx.T)] = self._val
        return out

    # -- contractions --------------------------------------------------------

    @cached_property
    def _terms(self):
        """Contraction term list: first indices, tail index rows, values."""
        return self._idx[:, 0].copy(), self._idx[:, 1:].T.copy(), self._val

    def contract(self, x):
        """A x^{m-1}: contract x into every index slot but the first.

        A (k, n) stack of points gives the (k, n) stack of results, each
        row equal bit for bit to the call on that row alone.
        """
        return _sum_terms(x, self.dim, self._terms, self.dim)

    @cached_property
    def rowwise_witness(self):
        """(i, T, sum) for the first group (i, sorted tail T), i not in T,
        of entries whose exact sum is > 0; None, the row-wise certificate,
        when there is none: then any x >= 0 with x_i = 0 has
        (A x^{m-1})_i <= 0.  The sums are exact (`first_positive_group`).
        Computed once per tensor, on first use.
        """
        keep = ~(self._idx[:, 1:] == self._idx[:, :1]).any(axis=1)
        keys = self._idx[keep]
        keys[:, 1:].sort(axis=1)
        _, row, total = first_positive_group(keys, self._val[keep])
        return None if row is None else (row[0], row[1:], total)

    def symmetrized(self):
        """Partial symmetrization over the last m-1 index slots (cached).

        bar_a[i, J] = (1/(m-1)!) sum over permutations pi of J of a[i, pi(J)];
        contracting with any x is unchanged: bar_A x^{m-1} = A x^{m-1}.
        """
        if self._sym is None:
            fact = math.factorial(self.order - 1)
            acc = {}
            for idx, v in self.items():
                perms = list(_distinct_permutations(idx[1:]))
                # fact // len(perms) is the tail's stabilizer order
                w = v * (fact // len(perms)) / fact
                for perm in perms:
                    key = (idx[0],) + perm
                    acc[key] = acc.get(key, 0.0) + w
            self._sym = Tensor(self.order, self.dim, acc)
            self._sym._sym = self._sym
        return self._sym

    @cached_property
    def _jac_terms(self):
        """Jacobian term list, as `jacobian` describes it."""
        tail = self._idx[:, 1:]
        slots = range(self.order - 1)
        flat = np.concatenate([self._idx[:, 0] * self.dim + tail[:, c] for c in slots])
        others = np.concatenate([np.delete(tail, c, axis=1) for c in slots]).T.copy()
        return flat, others, np.tile(self._val, self.order - 1)

    def jacobian(self, x):
        """Derivative of x -> A x^{m-1}, by the product rule on stored entries.

        Entry a[i, j2, .., jm] and tail slot c contribute
        a[i, j2, .., jm] * prod_{c' != c} x_{jc'} to J[i, jc].  The m-1 terms
        of every entry are listed once per tensor, on the first call: flat
        positions i*n + jc, the other m-2 tail indices, and the values; each
        call then does m-2 gather-multiplies and one bincount.  For order 2
        this is A itself.  A (k, n) stack of points gives a (k, n, n) stack.
        """
        n = self.dim
        out = _sum_terms(x, n, self._jac_terms, n * n)
        return out.reshape(n, n) if out.ndim == 1 else out.reshape(-1, n, n)

    # -- structure queries used by the classifier ---------------------------

    def diagonal(self):
        """Vector of the n diagonal entries a[i, i, .., i]."""
        on = ~self.off_diagonal()
        out = np.zeros(self.dim)
        out[self._idx[on, 0]] = self._val[on]
        return out

    def off_diagonal(self):
        """Mask of the stored entries whose index is not (i, i, .., i)."""
        return (self._idx[:, 1:] != self._idx[:, :1]).any(axis=1)

    def min_value(self):
        return float(self._val.min()) if self.nnz else 0.0

    def max_abs(self):
        return float(np.abs(self._val).max()) if self.nnz else 0.0


def _reject(bad, idx, message):
    """Raise ValueError(message) naming the first row of idx that bad flags."""
    if np.count_nonzero(bad):
        row = np.argmax(bad.reshape(len(bad), -1).any(axis=1))
        raise ValueError(message.format(tuple(idx[row].tolist())))


def _sum_terms(x, n, terms, size):
    """Sum val[t] * prod_c x[cols[c][t]] into bin pos[t] of a length-size
    result, for terms = (pos, cols, val) and a point x of shape (n,), or
    row by row for a (k, n) stack.

    Row r's terms go to bins r*size .. (r+1)*size - 1 in list order, and
    bincount adds each bin's terms in that order, so every row is summed
    exactly as the point on its own.  A point skips the row offsets: it
    runs 2-3x faster than a one-row stack on the small builtins.
    """
    pos, cols, val = terms
    x = np.asarray(x, dtype=float)
    if x.shape == (n,) and val.size:
        w = val
        for c in cols:
            # the first product stands in for a copy of val
            if w is val:
                w = val * x[c]
            else:
                w *= x[c]
        return np.bincount(pos, weights=w, minlength=size)
    if x.shape != (n,) and (x.ndim != 2 or x.shape[1] != n):
        raise ValueError(f"vector of length {n} or (k, {n}) stack expected, "
                         f"got shape {x.shape}")
    if not val.size:
        # bincount of no weights would give int64 zeros
        return np.zeros(x.shape[:-1] + (size,))
    k = x.shape[0]
    w = np.tile(val, (k, 1))
    for c in cols:
        w *= x.take(c, axis=1)
    bins = (pos + size * np.arange(k)[:, None]).ravel()
    return np.bincount(bins, weights=w.ravel(), minlength=k * size).reshape(k, size)


def first_positive_group(keys, values):
    """(count, row, sum) for the groups of equal rows of the integer array
    keys, row r holding values[r]: the number of distinct rows, and the
    first row in sorted order whose values have an exact sum > 0, with that
    sum, or (count, None, None).  A group with no positive value sums to
    <= 0 without adding; math.fsum adds the others, correctly rounded, so
    each sum has the sign of the exact one in any order of its terms.
    """
    # lexsort's last key is its first: rows sorted as tuples would be
    rank = np.lexsort(keys.T[::-1])
    keys, values = keys[rank], values[rank]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    edges = np.flatnonzero(new).tolist() + [len(keys)]
    # the groups that hold a positive value, in order, each once
    for g in dict.fromkeys((np.cumsum(new) - 1)[values > 0.0].tolist()):
        total = math.fsum(values[edges[g]:edges[g + 1]].tolist())
        if total > 0.0:
            return len(edges) - 1, tuple(keys[edges[g]].tolist()), total
    return len(edges) - 1, None, None


def identity(order, dim):
    """Identity tensor: ones on the diagonal, zero elsewhere."""
    m, n = checked_shape(order, dim)
    return Tensor.from_arrays(m, n, np.repeat(np.arange(n)[:, None], m, axis=1), np.ones(n))


def _shifted(tensor, s, sign):
    """s*I + sign*A for A = tensor and sign = 1.0 or -1.0, in one `from_arrays` call:
    diagonal entry i is s + sign*a[i, .., i], dropped when it is 0."""
    m, n, off = tensor.order, tensor.dim, tensor.off_diagonal()
    rows = np.concatenate([tensor._idx[off], np.repeat(np.arange(n)[:, None], m, axis=1)])
    vals = np.concatenate([sign * tensor._val[off], s + sign * tensor.diagonal()])
    return Tensor.from_arrays(m, n, rows, vals)


# kernel terms per stacked call, in `first_passing` and the classifier's
# sampled checks: a stack costs a few point calls more, and past about this
# many terms no less per row than point calls (generated order-3 tensors,
# numpy 2.4); it also keeps a stack's memory flat in the tensor's size
STACK_TERMS = 8192
# 2^-j for the halvings of a Newton step: a step length <= 1 falls to 1e-10
# within 33 of them
HALVINGS = 0.5 ** np.arange(1, 34)


def stack_rows(tensor):
    """Points per stacked call: STACK_TERMS over the terms per point, the
    entry terms of a contraction or the n^2 entries of a Jacobian."""
    per_point = max(tensor.nnz * (tensor.order - 1), tensor.dim ** 2)
    return max(1, STACK_TERMS // per_point)


def first_passing(tensor, x, d, alphas, passes):
    """(alpha, t, A t^{m-1}) for the first step length alpha in alphas whose
    trial point t = x + alpha * d differs from x and passes, or None.

    passes(steps, points, values) gets (k,) step lengths, their (k, n) trial
    points and contractions, and returns k bools.  The trials are contracted
    in order, in stacks of `stack_rows` rows (a stack of one row as a
    point); on a small tensor a ladder of 50 halvings costs one call.  Each
    row equals the point call bit for bit, so the pick is that of a loop
    over alphas.
    """
    cap = stack_rows(tensor)
    for start in range(0, alphas.size, cap):
        steps = alphas[start:start + cap]
        points = x + steps[:, None] * d
        # a trial lost to rounding would pass without moving x
        moved = (points != x).any(axis=1)
        steps, points = steps[moved], points[moved]
        if steps.size:
            values = tensor.contract(points[0] if steps.size == 1 else points)
            values = values.reshape(steps.size, -1)
            hits = np.flatnonzero(passes(steps, points, values))
            if hits.size:
                return float(steps[hits[0]]), points[hits[0]], values[hits[0]]
    return None


def newton_iterates(tensor, rhs, support, x0):
    """Damped Newton on (A x^{m-1})_S = rhs_S with x = 0 off S and x_S > 0,
    as a generator of its iterates (x, A x^{m-1}), the start first.

    S is the index array `support`; x0 gives the start on S and must be
    positive there.  Each step is cut to at most 95% of the way to the
    orthant boundary, then halved until the max-norm residual on S drops;
    the full step is tried as a point and the halvings down to 1e-10 are
    scored in stacked contractions by `first_passing`.  The iteration ends
    after 60 steps, or sooner when that residual reaches roundoff (at once
    for an empty S, whose residual is empty) or no halving helps.  When the
    Jacobian block on S is singular or the step is not finite, it yields
    None after its last iterate.  Each point is contracted and
    differentiated at most once, so a run stopped part way can be resumed
    at no extra cost.
    """
    x = np.zeros(tensor.dim)
    x[support] = x0[support]
    ax = tensor.contract(x)
    yield x, ax
    rhs = rhs[support]
    r = ax[support] - rhs
    norm = float(np.max(np.abs(r), initial=0.0))
    tol = 1e-14 * max(1.0, float(np.max(np.abs(rhs), initial=0.0)))
    for _ in range(60):
        if norm <= tol:
            return
        jac = tensor.jacobian(x)
        try:
            dx = np.linalg.solve(jac[np.ix_(support, support)], -r)
        except np.linalg.LinAlgError:
            yield None
            return
        if not np.all(np.isfinite(dx)):
            yield None
            return
        # only coordinates whose full step crosses 95% of the way to 0 cut
        # it; their ratios are < 1, so a subnormal dx_i cannot overflow one
        room = 0.95 * x[support]
        binding = -dx > room
        alpha = float(np.min(room[binding] / -dx[binding])) if binding.any() else 1.0
        if alpha <= 1e-10:
            return
        trial = x.copy()
        trial[support] += alpha * dx
        ax_trial = tensor.contract(trial)
        r_trial = ax_trial[support] - rhs
        norm_trial = float(np.max(np.abs(r_trial)))
        if not norm_trial < norm:
            step = np.zeros(tensor.dim)
            step[support] = dx
            # alpha * 2^-j is exact, as in a halving loop
            alphas = alpha * HALVINGS
            found = first_passing(tensor, x, step, alphas[alphas > 1e-10], lambda steps, points,
                                  values: np.max(np.abs(values[:, support] - rhs), axis=1) < norm)
            if found is None:
                return
            _, trial, ax_trial = found
            r_trial = ax_trial[support] - rhs
            norm_trial = float(np.max(np.abs(r_trial)))
        x, ax, r, norm = trial, ax_trial, r_trial, norm_trial
        yield x, ax


@dataclass(frozen=True)
class SpectralBracket:
    """Spectral radius estimate with a certified enclosing interval."""
    value: float
    lo: float
    hi: float
    iterations: int
    converged: bool
    shifted: bool = False


POWER_MAX_ITER = 10000  # power iterations per run, before and after the shift


def _power_iteration(tensor, stop):
    """Collatz-bracketed power iteration for a nonnegative tensor.

    For every positive x, min_i (Bx^{m-1})_i / x_i^{m-1} <= rho(B) <= max_i of
    the same ratios, so the running intersection of the per-iterate brackets
    stays valid.  Returns (lo, hi, iterations, stopped): stopped is True when
    stop(lo, hi) ended the run, False when the iterate left the orthant or
    POWER_MAX_ITER ran out.
    """
    n, m = tensor.dim, tensor.order
    x = np.ones(n)
    lo, hi = 0.0, math.inf
    for k in range(1, POWER_MAX_ITER + 1):
        y = tensor.contract(x)
        denom = x ** (m - 1)
        if np.any(denom <= 0.0):
            # a coordinate underflowed: same exit as leaving the orthant,
            # the bracket collected so far stays valid
            return lo, hi, k, False
        ratios = y / denom
        lo = max(lo, float(ratios.min()))
        hi = min(hi, float(ratios.max()))
        if hi < lo:  # brackets valid up to roundoff; collapse
            lo = hi = 0.5 * (lo + hi)
        if stop(lo, hi):
            return lo, hi, k, True
        if np.any(y <= 0.0):
            # reducible tensor: the iterate would leave the positive orthant
            return lo, hi, k, False
        x = y ** (1.0 / (m - 1))
        x /= x.max()
    return lo, hi, POWER_MAX_ITER, False


def spectral_radius(tensor, tol=1e-10):
    """Spectral radius of a nonnegative tensor, with certified bounds.

    The bracket is iterated until its gap is at most tol.  When the plain
    iteration stalls on a reducible tensor, it is rerun on the diagonally
    shifted tensor B + s0*I (s0 = 1e-8 * max|b|); the shift moves every
    H-eigenvalue by exactly s0, and the returned bracket is widened by s0 on
    each side to stay safe.  tol must be finite and > 0, else ValueError.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    return _spectral_bracket(tensor, lambda lo, hi: False, tol)


def _spectral_bracket(tensor, decides, tol=1e-10):
    """`spectral_radius`, ended at the first bracket [lo, hi] of rho(tensor)
    for which decides(lo, hi) holds.

    Every bracket is certified, so a caller that only compares rho with a
    threshold can stop as soon as the threshold lies outside one.  In the
    shifted rerun, decides sees the bracket this function would return at
    that iterate.
    """
    if tensor.nnz and tensor.min_value() < 0.0:
        raise ValueError("spectral_radius requires a nonnegative tensor")
    lo, hi, iters, stopped = _power_iteration(
        tensor, lambda lo, hi: hi - lo <= tol or decides(lo, hi))
    value, converged, shifted = 0.5 * (lo + hi), hi - lo <= tol, False
    s0 = 0.0 if stopped else 1e-8 * tensor.max_abs()
    if s0 > 0.0:
        plain = lo, hi

        def unshift(lo2, hi2):
            lo = max(plain[0], max(lo2 - 2.0 * s0, 0.0))
            hi = min(plain[1], hi2)
            if hi < lo:
                lo = hi = 0.5 * (lo2 + hi2) - s0
            return lo, hi

        bumped = _shifted(tensor, s0, 1.0)
        lo2, hi2, it2, _ = _power_iteration(
            bumped, lambda lo2, hi2: hi2 - lo2 <= tol or decides(*unshift(lo2, hi2)))
        lo, hi = unshift(lo2, hi2)
        value, iters = 0.5 * (lo2 + hi2) - s0, iters + it2
        converged, shifted = hi2 - lo2 <= tol, True
    return SpectralBracket(value=value, lo=lo, hi=hi, iterations=iters,
                           converged=converged, shifted=shifted)
