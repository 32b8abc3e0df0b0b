"""Sparse coordinate tensors and the polynomial maps they induce.

An order-m dimension-n tensor A acts on a vector x through the degree-(m-1)
polynomial map

    F(x)_i = (A x^{m-1})_i = sum_{i2..im} a[i, i2, .., im] * x_{i2} * .. * x_{im}

which is the object every other module here is built on: the complementarity
problem asks for x >= 0 with F(x) - q >= 0 and x'(F(x) - q) = 0.

Its Jacobian comes from the product rule on the stored entries: each entry
and tail slot is one term, so no call expands the tensor over tail
permutations.  Both maps cache their term lists on the tensor at first use
and sum them with one kernel, `_sum_terms`, at a point or a (k, n) stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["Tensor", "SpectralBracket", "identity", "newton_on_support",
           "spectral_radius"]


def _distinct_permutations(seq):
    """Yield the distinct orderings of seq (a tuple possibly with repeats)."""
    pool = sorted(seq)
    n = len(pool)
    while True:
        yield tuple(pool)
        # next lexicographic permutation, skipping duplicates by construction
        i = n - 2
        while i >= 0 and pool[i] >= pool[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while pool[j] <= pool[i]:
            j -= 1
        pool[i], pool[j] = pool[j], pool[i]
        pool[i + 1:] = reversed(pool[i + 1:])


class Tensor:
    """Order-m, dimension-n real tensor stored as sparse coordinates.

    Entries map 0-based index tuples of length m to finite nonzero floats.
    Zero values are dropped, duplicate tuples rejected, indices range-checked.
    """

    def __init__(self, order, dim, entries):
        if order < 2:
            raise ValueError(f"tensor order must be >= 2, got {order}")
        if dim < 1:
            raise ValueError(f"tensor dimension must be >= 1, got {dim}")
        self.order = int(order)
        self.dim = int(dim)
        data = {}
        items = entries.items() if hasattr(entries, "items") else entries
        for idx, value in items:
            idx = tuple(int(i) for i in idx)
            if len(idx) != self.order:
                raise ValueError(f"index {idx} has length {len(idx)}, expected {self.order}")
            if any(i < 0 or i >= self.dim for i in idx):
                raise ValueError(f"index {idx} out of range for dimension {self.dim}")
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"entry {idx} has non-finite value {value}")
            if idx in data:
                raise ValueError(f"duplicate index tuple {idx}")
            if value != 0.0:
                data[idx] = value
        self._entries = data
        # column-wise index arrays for vectorized contraction
        keys = sorted(data)
        self._idx = np.array(keys, dtype=np.intp).reshape(-1, self.order)
        self._val = np.array([data[k] for k in keys], dtype=float)
        self._sym = None

    # -- basic protocol ----------------------------------------------------

    @property
    def nnz(self):
        return len(self._entries)

    def value(self, idx):
        """Entry at 0-based tuple idx (0.0 when absent)."""
        return self._entries.get(tuple(idx), 0.0)

    def items(self):
        return self._entries.items()

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return (self.order == other.order and self.dim == other.dim
                and self._entries == other._entries)

    def __hash__(self):
        return hash((self.order, self.dim, frozenset(self._entries.items())))

    def __repr__(self):
        return f"Tensor(order={self.order}, dim={self.dim}, nnz={self.nnz})"

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_dense(cls, array):
        array = np.asarray(array, dtype=float)
        order = array.ndim
        dim = array.shape[0]
        if array.shape != (dim,) * order:
            raise ValueError(f"dense tensor must be hypercubic, got shape {array.shape}")
        entries = {idx: array[idx] for idx in zip(*np.nonzero(array))}
        return cls(order, dim, entries)

    def to_dense(self):
        out = np.zeros((self.dim,) * self.order)
        for idx, v in self._entries.items():
            out[idx] = v
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

    def symmetrized(self):
        """Partial symmetrization over the last m-1 index slots (cached).

        bar_a[i, J] = (1/(m-1)!) sum over permutations pi of J of a[i, pi(J)];
        contracting with any x is unchanged: bar_A x^{m-1} = A x^{m-1}.
        """
        if self._sym is None:
            m = self.order
            fact = math.factorial(m - 1)
            acc = {}
            for idx, v in self._entries.items():
                tail = idx[1:]
                counts = {}
                for i in tail:
                    counts[i] = counts.get(i, 0) + 1
                stab = 1
                for c in counts.values():
                    stab *= math.factorial(c)
                w = v * stab / fact
                for perm in _distinct_permutations(tail):
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
        return np.array([self._entries.get((i,) * self.order, 0.0) for i in range(self.dim)])

    def off_diagonal_items(self):
        for idx, v in self._entries.items():
            if any(i != idx[0] for i in idx[1:]):
                yield idx, v

    def min_value(self):
        return float(self._val.min()) if self.nnz else 0.0

    def max_abs(self):
        return float(np.abs(self._val).max()) if self.nnz else 0.0

    def scaled(self, factor):
        return Tensor(self.order, self.dim, {k: factor * v for k, v in self._entries.items()})

    def __add__(self, other):
        if not isinstance(other, Tensor) or other.order != self.order or other.dim != self.dim:
            return NotImplemented
        acc = dict(self._entries)
        for k, v in other._entries.items():
            acc[k] = acc.get(k, 0.0) + v
        return Tensor(self.order, self.dim, acc)


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
        w *= x[:, c]
    bins = (pos + size * np.arange(k)[:, None]).ravel()
    return np.bincount(bins, weights=w.ravel(), minlength=k * size).reshape(k, size)


def identity(order, dim):
    """Identity tensor: ones on the diagonal, zero elsewhere."""
    return Tensor(order, dim, {(i,) * order: 1.0 for i in range(dim)})


def newton_on_support(tensor, rhs, support, x0):
    """Damped Newton on (A x^{m-1})_S = rhs_S with x = 0 off S and x_S > 0.

    S is the index array `support`; x0 gives the start on S and must be
    positive there.  Each step is cut to at most 95% of the way to the
    orthant boundary, then halved until the max-norm residual on S drops.
    The iteration ends after 60 steps, or sooner when that residual reaches
    roundoff or no halving helps.  Returns the last iterate x with the full
    A x^{m-1} there, or None when the Jacobian block on S is singular or
    the step is not finite; callers verify the point.
    """
    x = np.zeros(tensor.dim)
    x[support] = x0[support]
    ax = tensor.contract(x)
    if support.size == 0:
        return x, ax
    rhs = rhs[support]
    r = ax[support] - rhs
    norm = float(np.max(np.abs(r)))
    tol = 1e-14 * max(1.0, float(np.max(np.abs(rhs))))
    for _ in range(60):
        if norm <= tol:
            break
        try:
            dx = np.linalg.solve(tensor.jacobian(x)[np.ix_(support, support)], -r)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(dx)):
            return None
        neg = dx < 0
        alpha = min(1.0, float(np.min(-0.95 * x[support][neg] / dx[neg]))) if neg.any() else 1.0
        while alpha > 1e-10:
            trial = x.copy()
            trial[support] += alpha * dx
            ax_trial = tensor.contract(trial)
            r_trial = ax_trial[support] - rhs
            norm_trial = float(np.max(np.abs(r_trial)))
            if norm_trial < norm:
                break
            alpha *= 0.5
        else:
            break
        x, ax, r, norm = trial, ax_trial, r_trial, norm_trial
    return x, ax


@dataclass(frozen=True)
class SpectralBracket:
    """Spectral radius estimate with a certified enclosing interval."""
    value: float
    lo: float
    hi: float
    iterations: int
    converged: bool
    shifted: bool = False

    @property
    def gap(self):
        return self.hi - self.lo


POWER_MAX_ITER = 10000  # power iterations per run, before and after the shift


def _power_iteration(tensor, tol):
    """Collatz-bracketed power iteration for a nonnegative tensor.

    For every positive x, min_i (Bx^{m-1})_i / x_i^{m-1} <= rho(B) <= max_i of
    the same ratios, so the running intersection of the per-iterate brackets
    stays valid. Returns (value, lo, hi, iterations, converged).
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
            return 0.5 * (lo + hi), lo, hi, k, False
        ratios = y / denom
        lo = max(lo, float(ratios.min()))
        hi = min(hi, float(ratios.max()))
        if hi < lo:  # brackets valid up to roundoff; collapse
            lo = hi = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return 0.5 * (lo + hi), lo, hi, k, True
        if np.any(y <= 0.0):
            # reducible tensor: the iterate would leave the positive orthant
            return 0.5 * (lo + hi), lo, hi, k, False
        x = y ** (1.0 / (m - 1))
        x /= x.max()
    return 0.5 * (lo + hi), lo, hi, POWER_MAX_ITER, False


def spectral_radius(tensor, tol=1e-10):
    """Spectral radius of a nonnegative tensor, with certified bounds.

    When the plain iteration stalls on a reducible tensor, it is rerun on the
    diagonally shifted tensor B + s0*I (s0 = 1e-8 * max|b|); the shift moves
    every H-eigenvalue by exactly s0, and the returned bracket is widened by
    s0 on each side to stay safe.
    """
    if tensor.nnz and tensor.min_value() < 0.0:
        raise ValueError("spectral_radius requires a nonnegative tensor")
    value, lo, hi, iters, converged = _power_iteration(tensor, tol)
    shifted = False
    if not converged:
        s0 = 1e-8 * tensor.max_abs()
        if s0 > 0.0:
            shifted = True
            bumped = tensor + identity(tensor.order, tensor.dim).scaled(s0)
            v2, lo2, hi2, it2, conv2 = _power_iteration(bumped, tol)
            lo = max(lo, max(lo2 - 2.0 * s0, 0.0))
            hi = min(hi, hi2)
            value, iters, converged = v2 - s0, iters + it2, conv2
            if hi < lo:
                lo = hi = value
    return SpectralBracket(value=value, lo=lo, hi=hi, iterations=iters,
                           converged=converged, shifted=shifted)
