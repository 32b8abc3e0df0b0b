"""Structured-tensor classification with checkable certificates.

Every check returns a Certificate whose verdict separates proof from
evidence: certified_true / certified_false come with a witness or bracket
that re-validates against the defining inequality, supported / refuted come
from finite sampling, unknown means the check could not decide either way.

Classes checked, for a tensor A of order m and dimension n:

  nonnegative     every entry >= 0
  Z-tensor        every off-diagonal entry <= 0
  M-tensor        A = s*I - B with B nonnegative and s > rho(B) (nonsingular,
                  i.e. strict inequality); for Z-tensors equivalent to the
                  existence of x > 0 with A x^{m-1} > 0
  P-tensor        suitable nonzero x always admit an i with x_i != 0 and
                  x_i (A x^{m-1})_i > 0
  KS-tensor       P-tensor whose comparison part W (diagonal plus nonpositive
                  off-diagonal entries) is a nonsingular M-tensor

The exact results that several checks share, the Z entry scan and the
M-checks of A and of its comparison part W, are computed once per tensor and
kept on it (`_kept`).  The sampled checks, the P-check's probes and
`z_function_check`, run again on every call.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass, field, replace

import numpy as np

from .tensors import (Tensor, _shifted, _spectral_bracket, first_positive_group,
                      newton_iterates, stack_rows)

__all__ = [
    "Verdict", "Certificate", "KSDecomposition",
    "is_nonnegative", "is_z_tensor", "ks_split", "satisfies_condition2",
    "is_nonsingular_m_tensor", "is_p_tensor", "is_ks_tensor",
    "z_function_check", "positive_witness_ok",
]

OFFDIAG_TOL = 1e-12


class Verdict(str, enum.Enum):
    CERTIFIED_TRUE = "certified_true"
    CERTIFIED_FALSE = "certified_false"
    SUPPORTED = "supported"
    REFUTED = "refuted"
    UNKNOWN = "unknown"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class Certificate:
    """Outcome of one classification check."""
    verdict: Verdict
    method: str
    witness: object = None
    detail: str = ""
    evidence: dict = field(default_factory=dict)

    @property
    def positive(self):
        return self.verdict in (Verdict.CERTIFIED_TRUE, Verdict.SUPPORTED)

    @property
    def negative(self):
        return self.verdict in (Verdict.CERTIFIED_FALSE, Verdict.REFUTED)


@dataclass(frozen=True)
class KSDecomposition:
    """Split A = W + N: W keeps the diagonal and the nonpositive off-diagonal
    entries, N the positive off-diagonal ones (so N >= 0 with zero diagonal)."""
    W: Tensor
    N: Tensor


def _kept(tensor, compute):
    """The certificate compute(tensor), computed once and kept on the tensor
    as its cached properties are.  Each call gets its own copy of the
    witness and the evidence, so no caller can change what another reads."""
    memo = vars(tensor).setdefault("_certificates", {})
    if compute not in memo:
        memo[compute] = compute(tensor)
    cert = memo[compute]
    return replace(cert, witness=copy.copy(cert.witness), evidence=dict(cert.evidence))


# ---------------------------------------------------------------------------
# entry-level checks

def is_nonnegative(tensor):
    if tensor.min_value() >= 0:
        return Certificate(Verdict.CERTIFIED_TRUE, "entry_scan",
                           detail=f"all {tensor.nnz} stored entries >= 0")
    # argmin picks the first smallest entry in sorted order; the witness is
    # that row of items(), without building items()
    row = np.argmin(tensor._val)
    idx, v = tuple(tensor._idx[row].tolist()), float(tensor._val[row])
    return Certificate(Verdict.CERTIFIED_FALSE, "entry_scan", witness=idx,
                       detail=f"entry {idx} = {v}")


def is_z_tensor(tensor):
    """Z-tensor: off-diagonal entries all <= 0.  Scanned once per tensor."""
    return _kept(tensor, _z_scan)


def _z_scan(tensor):
    positive = np.flatnonzero(tensor.off_diagonal() & (tensor._val > 0))
    if positive.size:
        idx, v = tuple(tensor._idx[positive[0]].tolist()), float(tensor._val[positive[0]])
        return Certificate(Verdict.CERTIFIED_FALSE, "entry_scan", witness=idx,
                           detail=f"off-diagonal entry {idx} = {v} > 0")
    return Certificate(Verdict.CERTIFIED_TRUE, "entry_scan",
                       detail="no positive off-diagonal entry")


def ks_split(tensor):
    idx, val = tensor._idx, tensor._val
    w = ~tensor.off_diagonal() | (val < 0)
    return KSDecomposition(W=Tensor.from_arrays(tensor.order, tensor.dim, idx[w], val[w]),
                           N=Tensor.from_arrays(tensor.order, tensor.dim, idx[~w], val[~w]))


def satisfies_condition2(tensor):
    """Check the off-diagonal insertion-sum condition.

    For every i and every tail (i2,..,im) with im != i, the sum of the
    entries of A over the m tuples obtained by inserting i at each position
    of the ordered tail must be <= 0.  Stored entry idx is the insertion of
    i = idx[k] at position k of idx without slot k, so the entries with each
    slot k moved to the front are the keys (i, tail) of every nonzero sum's
    terms; all other pairs are vacuous.  The sums are exact
    (`first_positive_group`): no tolerance.
    """
    m = tensor.order
    # the narrowest index type: at the entry cap there are m * nnz keys
    idx = tensor._idx.astype(np.min_scalar_type(tensor.dim - 1))
    moves = np.array([[k, *range(k), *range(k + 1, m)] for k in range(m)])
    # take, not idx[:, moves]: 10x faster at the entry cap (numpy 2.4)
    keys = idx.take(moves, axis=1).reshape(-1, m)
    keep = keys[:, -1] != keys[:, 0]
    count, row, total = first_positive_group(keys[keep], np.repeat(tensor._val, m)[keep])
    if row is not None:
        i, tail = row[0], row[1:]
        return Certificate(
            Verdict.CERTIFIED_FALSE, "insertion_sums", witness=(i, tail),
            detail=f"insertion sum for i={i}, tail={tail} is {total} > 0")
    return Certificate(Verdict.CERTIFIED_TRUE, "insertion_sums",
                       detail=f"{count} candidate (i, tail) pairs, all sums <= 0")


# ---------------------------------------------------------------------------
# M-tensor check: positive-vector search, spectral comparison as fallback

def positive_witness_ok(tensor, x):
    """True when x > 0 and A x^{m-1} > 0 (a nonsingular M-tensor witness)."""
    x = np.asarray(x, dtype=float)
    return bool(np.all(x > 0) and np.all(tensor.contract(x) > 0))


def is_nonsingular_m_tensor(tensor):
    """Nonsingular M-tensor check; certified_false for a non-Z-tensor.

    Decisive positive route: find x > 0 with A x^{m-1} > 0, trying x = e and
    then damped Newton from e on A x^{m-1} = e.  Fallback:
    compare s = max diagonal entry against the bracketed spectral radius of
    B = s*I - A, which is nonnegative for Z-tensors.
    """
    z = is_z_tensor(tensor)
    if z.negative:
        return Certificate(Verdict.CERTIFIED_FALSE, "entry_scan", witness=z.witness,
                           detail="not a Z-tensor: " + z.detail)
    return _kept(tensor, _m_check)


def _m_check(tensor):
    """`is_nonsingular_m_tensor` of a tensor already known to be a Z-tensor.
    Callers go through `_kept`, so that it runs once per tensor."""
    diag = tensor.diagonal()
    if np.min(diag) <= 0:
        i = int(np.argmin(diag))
        e_i = np.zeros(tensor.dim)
        e_i[i] = 1.0
        return Certificate(
            Verdict.CERTIFIED_FALSE, "entry_scan", witness=e_i,
            detail=f"diagonal entry {(i,) * tensor.order} = {diag[i]} <= 0; "
                   f"at x = e_{i + 1} no index has x_i (A x^(m-1))_i > 0")
    # e itself often is a witness; otherwise a root of A x^{m-1} = e is one
    x = ones = np.ones(tensor.dim)
    ax = tensor.contract(ones)
    if not np.all(ax > 0):
        *_, end = newton_iterates(tensor, ones, np.arange(tensor.dim), ones)
        x, ax = end or (None, None)
    if x is not None and np.all(x > 0) and np.all(ax > 0):
        return Certificate(Verdict.CERTIFIED_TRUE, "positive_vector", witness=x,
                           detail="x > 0 with A x^(m-1) > 0 found")
    s = float(np.max(diag))
    b = _shifted(tensor, s, -1.0)
    # every bracket is certified and the running one only narrows, so the
    # first one that leaves s outside gives the converged bracket's verdict
    bracket = _spectral_bracket(b, lambda lo, hi: hi < s or lo >= s)
    ev = {"s": s, "bracket": bracket}
    if s > bracket.hi:
        return Certificate(Verdict.CERTIFIED_TRUE, "spectral_bracket", evidence=ev,
                           detail=f"rho(s*I - A) <= {bracket.hi} < s = {s}")
    if s <= bracket.lo:
        return Certificate(Verdict.CERTIFIED_FALSE, "spectral_bracket", evidence=ev,
                           detail=f"s = {s} <= {bracket.lo} <= rho(s*I - A)")
    return Certificate(Verdict.UNKNOWN, "spectral_bracket", evidence=ev,
                       detail=f"spectral bracket [{bracket.lo}, {bracket.hi}] straddles s = {s}")


# ---------------------------------------------------------------------------
# sampled checks

def _check_samples(num_samples):
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")


def _p_probes(tensor, num_samples, seed):
    """Deterministic probes, then num_samples unit-sphere draws, in stacks.

    For odd order the strict P-condition over all of R^n is void (x -> -x
    negates every product), so probes stay in the nonnegative orthant where
    the property is meaningful (and, for Z-tensors, equivalent to being a
    nonsingular M-tensor).  Even order probes both orthant signs.  Yields
    (k, n) stacks of at most `stack_rows` probes, in probe order.
    """
    n, m = tensor.dim, tensor.order
    eye = np.eye(n)
    if m % 2 == 0:
        if n <= 14:
            signs = np.where(np.arange(2 ** n)[:, None] >> np.arange(n) & 1, 1.0, -1.0)
        else:
            signs = np.ones((1, n))
        fixed = np.concatenate([eye, -eye, signs])
    else:
        fixed = np.concatenate([eye, np.ones((1, n))])
    rows = stack_rows(tensor)
    for start in range(0, len(fixed), rows):
        yield fixed[start:start + rows]
    rng = np.random.default_rng(seed)
    for start in range(0, num_samples, rows):
        x = rng.standard_normal((min(rows, num_samples - start), n))
        # equal bit for bit to np.linalg.norm of each row; norm(axis=1) is not
        norm = np.sqrt(np.vecdot(x, x))
        nonzero = norm != 0.0
        x = x[nonzero] / norm[nonzero, None]
        yield np.abs(x) if m % 2 else x


def _p_sample(tensor, num_samples, seed):
    """Search the probe set for an x refuting the strict P-condition."""
    for xs in _p_probes(tensor, num_samples, seed):
        active = xs != 0.0
        top = np.max(xs * tensor.contract(xs), axis=1, where=active, initial=-np.inf)
        refuting = np.flatnonzero(active.any(axis=1) & (top <= 0.0))
        if refuting.size:
            return xs[refuting[0]].copy()
    return None


def _p_certificate(tensor, num_samples, seed):
    """`is_p_tensor` after its argument check."""
    m_cert = _kept(tensor, _m_check) if is_z_tensor(tensor).positive else None
    m_verdict = m_cert.verdict if m_cert is not None else None
    if m_verdict is Verdict.CERTIFIED_TRUE:
        return Certificate(Verdict.CERTIFIED_TRUE, "z_m_equivalence",
                           witness=m_cert.witness, evidence=m_cert.evidence,
                           detail="Z-tensor and nonsingular M-tensor")
    x = _p_sample(tensor, num_samples, seed)
    if x is not None:
        return Certificate(Verdict.REFUTED, "sampled", witness=x,
                           detail="no index with x_i != 0 has x_i (A x^(m-1))_i > 0")
    if m_verdict is Verdict.CERTIFIED_FALSE:
        return Certificate(Verdict.CERTIFIED_FALSE, "z_m_equivalence",
                           witness=m_cert.witness, evidence=m_cert.evidence,
                           detail="Z-tensor that is not a nonsingular M-tensor")
    return Certificate(Verdict.SUPPORTED, "sampled",
                       detail=f"no counterexample among deterministic probes + {num_samples} samples")


def is_p_tensor(tensor, num_samples=1000, seed=42):
    """P-tensor check: certified via the M-equivalence for Z-tensors,
    sampled (supported/refuted) otherwise."""
    _check_samples(num_samples)
    return _p_certificate(tensor, num_samples, seed)


def _w_check(tensor):
    """M-check of the comparison part W of A.  W is a Z-tensor by
    construction, and W = A exactly when A is one: then A's is W's."""
    return _kept(tensor if is_z_tensor(tensor).positive else ks_split(tensor).W, _m_check)


_RANK = {Verdict.CERTIFIED_TRUE: 3, Verdict.SUPPORTED: 2, Verdict.UNKNOWN: 1}


def is_ks_tensor(tensor, num_samples=1000, seed=42):
    """KS-tensor check: P-check on A, M-check on the comparison part W.

    The verdict is the weaker of the two; any negative branch refutes.
    """
    _check_samples(num_samples)
    p_cert = _p_certificate(tensor, num_samples, seed)
    w_cert = _kept(tensor, _w_check)
    if p_cert.negative:
        return Certificate(Verdict.REFUTED, "p_check", witness=p_cert.witness,
                           evidence=p_cert.evidence,
                           detail="not a P-tensor: " + p_cert.detail)
    if w_cert.negative:
        return Certificate(Verdict.REFUTED, "w_m_check", witness=w_cert.witness,
                           evidence=w_cert.evidence,
                           detail="comparison part W is not a nonsingular M-tensor: " + w_cert.detail)
    verdict = min((p_cert.verdict, w_cert.verdict), key=_RANK.__getitem__)
    if verdict is Verdict.UNKNOWN:
        weak = p_cert if _RANK[p_cert.verdict] <= _RANK[w_cert.verdict] else w_cert
        return Certificate(Verdict.UNKNOWN, "conjunction", detail=weak.detail)
    return Certificate(verdict, "conjunction", witness=w_cert.witness,
                       detail=f"P-check {p_cert.verdict}, W M-check {w_cert.verdict}")


def z_function_check(tensor, num_samples=1000, seed=42):
    """Sample x >= 0 and look for a positive off-diagonal Jacobian entry.

    The complementarity map x -> A x^{m-1} - q is a Z-function exactly when
    its Jacobian is a Z-matrix on the nonnegative orthant; a single positive
    off-diagonal entry at a sampled point refutes that.  A Z-tensor needs no
    samples: each off-diagonal Jacobian term is a nonpositive entry times
    nonnegative coordinates, so no sample can refute it.
    """
    _check_samples(num_samples)
    if is_z_tensor(tensor).positive:
        return Certificate(Verdict.SUPPORTED, "z_tensor",
                           detail="Z-tensor: off-diagonal jacobian terms are <= 0 on x >= 0")
    n = tensor.dim
    rng = np.random.default_rng(seed)
    mask = ~np.eye(n, dtype=bool)
    rows = stack_rows(tensor)
    for start in range(0, num_samples, rows):
        xs = rng.uniform(0.0, 10.0, (min(rows, num_samples - start), n))
        jacs = tensor.jacobian(xs)
        top = np.max(jacs[:, mask], axis=1, initial=-np.inf)
        refuting = np.flatnonzero(top > OFFDIAG_TOL)
        if refuting.size:
            x, jac = xs[refuting[0]].copy(), jacs[refuting[0]]
            flat = np.where(mask, jac, -np.inf)
            i, j = np.unravel_index(int(np.argmax(flat)), jac.shape)
            return Certificate(
                Verdict.REFUTED, "jacobian_sampling", witness=x,
                evidence={"entry": (int(i), int(j)), "value": float(jac[i, j])},
                detail=f"jacobian({np.round(x, 4)})[{i},{j}] = {jac[i, j]} > 0")
    return Certificate(Verdict.SUPPORTED, "jacobian_sampling",
                       detail=f"off-diagonal jacobian entries <= {OFFDIAG_TOL} at {num_samples} samples")
