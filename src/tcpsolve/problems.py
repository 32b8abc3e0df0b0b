"""Problem instances, the `tcp v1` text format, built-ins, and generation
of random certified KS instances, one draw per seed.

A complementarity instance is a pair (A, q): find x >= 0 with
A x^{m-1} - q >= 0 and x'(A x^{m-1} - q) = 0.  The text format is line
based, 1-based indices, LF canonical (CRLF accepted), `#` comments:

    tcp v1 order=4 dim=2
    a 1 1 1 1 1
    a 1 1 1 2 -2
    q 0 1

Values are decimal strings that round-trip exactly; canonical serialization
sorts entry lines lexicographically by index tuple.
"""

from __future__ import annotations

import numpy as np

from .tensors import Tensor, checked_shape
from . import classify

__all__ = ["TCPProblem", "FormatError", "parse_problem", "parse_tensor",
           "serialize_problem", "serialize_tensor", "builtin", "BUILTIN_NAMES",
           "reference_solution", "generate_ks_instance"]


class TCPProblem:
    """Tensor A plus nonnegative right-hand side q."""

    def __init__(self, tensor, q, name="", tags=None):
        q = np.asarray(q, dtype=float)
        if q.shape != (tensor.dim,):
            raise ValueError(f"q must have length {tensor.dim}, got shape {q.shape}")
        if not np.all(np.isfinite(q)):
            raise ValueError("q must be finite")
        if np.any(q < 0):
            i = int(np.argmin(q))
            raise ValueError(
                f"q must be componentwise nonnegative (q[{i}] = {q[i]}); the "
                "complementarity problem is reformulated through A x^(m-1) = q, "
                "which requires q >= 0")
        self.tensor = tensor
        self.q = q
        self.name = name
        self.tags = {} if tags is None else dict(tags)

    @property
    def dim(self):
        return self.tensor.dim

    @property
    def order(self):
        return self.tensor.order

    def __eq__(self, other):
        if not isinstance(other, TCPProblem):
            return NotImplemented
        return (self.tensor == other.tensor
                and self.q.shape == other.q.shape
                and bool(np.all(self.q == other.q)))

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"TCPProblem(order={self.order}, dim={self.dim}{label})"


class FormatError(ValueError):
    """Parse error carrying the offending 1-based line number."""

    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


def _header(tokens, line_no):
    """(order, dim) from the header line's tokens, within the Tensor limits."""
    if (len(tokens) != 4 or tokens[0] != "tcp" or tokens[1] != "v1"
            or not tokens[2].startswith("order=") or not tokens[3].startswith("dim=")):
        raise FormatError(line_no, "expected header 'tcp v1 order=<m> dim=<n>'")
    try:
        order = int(tokens[2][len("order="):])
        dim = int(tokens[3][len("dim="):])
    except ValueError:
        raise FormatError(line_no, "order and dim must be integers") from None
    if order < 2 or dim < 1:
        raise FormatError(line_no, f"invalid order={order} dim={dim}")
    try:
        return checked_shape(order, dim)
    except ValueError as e:   # e.g. dim >= 2**63 or order > MAX_ORDER
        raise FormatError(line_no, str(e)) from None


def _q_line(tokens, order, dim, q, line_no):
    """q from a line that is not an entry line of order + 2 tokens: the
    first q line; any other line is a FormatError."""
    if tokens[0] == "a":
        raise FormatError(line_no, f"entry line needs {order} indices and a value")
    if tokens[0] != "q":
        raise FormatError(line_no, f"unknown line tag {tokens[0]!r}")
    if q is not None:
        raise FormatError(line_no, "duplicate q line")
    if len(tokens) != dim + 1:
        raise FormatError(line_no, f"q line needs {dim} values")
    try:
        q = np.array([float(t) for t in tokens[1:]])
    except ValueError:
        raise FormatError(line_no, "q values must be numbers") from None
    if not np.all(np.isfinite(q)):
        raise FormatError(line_no, "q values must be finite")
    if np.any(q < 0):
        raise FormatError(line_no, "q must be componentwise nonnegative")
    return q


def _leading(kind, tokens, width):
    """kind(t) for the tokens, width to a row, up to the first row with a
    token that kind refuses: (the values before that row, the row or None)."""
    try:
        return list(map(kind, tokens)), None
    except ValueError:
        out = []
        for t in tokens:
            try:
                out.append(kind(t))
            except ValueError:
                break
        row = len(out) // width
        return out[:row * width], row


def _entries(rows, lines, order, dim):
    """The tensor of the entry lines whose token lists are rows, or the
    FormatError of the first faulty one; lines holds their line numbers.

    Each check runs on the rows before the earliest fault found so far, in
    the order of a line's own checks, so the error is the earliest line's
    and, within a line, the one its first failing check names.  Repeated
    indices, the last check, are left to `Tensor.from_arrays`, whose sort
    is then the only one a valid text pays for.
    """
    cells = np.array(rows, dtype=object).reshape(len(rows), order + 2)
    ints, row = _leading(int, cells[:, 1:-1].ravel().tolist(), order)
    fault = None if row is None else (row, "indices must be integers")
    try:
        idx = np.array(ints, dtype=np.int64).reshape(-1, order)
        out = ((idx < 1) | (idx > dim)).any(axis=1)
    except OverflowError:   # an index past int64, out of range for any dim
        idx = None
        out = np.array([not 1 <= i <= dim for i in ints], dtype=bool)
        out = out.reshape(-1, order).any(axis=1)
    if out.any():
        row = int(np.argmax(out))
        fault = row, f"index {tuple(ints[row * order:(row + 1) * order])} out of range 1..{dim}"
        idx = np.array(ints[:row * order], dtype=np.int64).reshape(-1, order)
    vals, row = _leading(float, cells[:len(idx), -1].tolist(), 1)
    if row is not None:
        fault = row, f"bad value {cells[row, -1]!r}"
    val = np.array(vals, dtype=float)
    bad = ~np.isfinite(val)
    if bad.any():
        row = int(np.argmax(bad))
        fault, val = (row, f"non-finite value {cells[row, -1]!r}"), val[:row]
    idx = idx[:len(val)]
    try:
        tensor = Tensor.from_arrays(order, dim, idx - 1, val)
    except ValueError:
        # a repeat is the one fault left; a stable sort keeps equal rows in
        # line order, so each repeat follows its first
        rank = np.lexsort(idx.T[::-1])
        repeat = (idx[rank[1:]] == idx[rank[:-1]]).all(axis=1)
        row = int(rank[1:][repeat].min())
        fault = row, f"duplicate entry for index {tuple(idx[row].tolist())}"
    if fault is not None:
        raise FormatError(lines[fault[0]], fault[1])
    return tensor


def _parse(text):
    """(tensor, q or None) from tcp v1 text.

    One in-order pass splits the lines, checks the header, the line tags
    and the token counts, and reads the q line; the first fault it meets
    ends it.  The entry lines before that fault are then converted in bulk,
    by Python's int and float, and checked with numpy (`_entries`); a fault
    among them comes first, so the error names the earliest faulty line.
    """
    shape, rows, lines, q, fault = None, [], [], None, None
    for line_no, tokens in enumerate(map(str.split, text.split("\n")), start=1):
        if not tokens or tokens[0].startswith("#"):
            continue
        if shape is None:
            order, dim = shape = _header(tokens, line_no)
        elif tokens[0] == "a" and len(tokens) == order + 2:
            rows.append(tokens)
            lines.append(line_no)
        else:
            try:
                q = _q_line(tokens, order, dim, q, line_no)
            except FormatError as e:
                fault = e
                break
    if shape is None:
        raise FormatError(1, "missing header 'tcp v1 order=<m> dim=<n>'")
    tensor = _entries(rows, lines, order, dim)
    if fault is not None:
        raise fault
    return tensor, q


def parse_problem(text, name=""):
    tensor, q = _parse(text)
    if q is None:
        raise FormatError(text.count("\n") + 1, "missing q line")
    return TCPProblem(tensor, q, name=name)


def parse_tensor(text):
    """Parse just the tensor (a q line, if present, is validated and dropped)."""
    tensor, _q = _parse(text)
    return tensor


def format_value(v):
    """Shortest decimal that round-trips; integers print without a point."""
    return str(int(v)) if float(v).is_integer() and abs(v) < 1e16 else repr(float(v))


def _serialize(tensor, q):
    """Canonical text, built by column: each distinct index is written once
    and `format_value` runs once per value."""
    names, at = np.unique(tensor._idx, return_inverse=True)
    cells = np.empty((tensor.nnz, tensor.order + 2), dtype=object)
    cells[:, 0] = "a"
    cells[:, 1:-1] = np.array([str(i + 1) for i in names.tolist()], dtype=object)[
        at.reshape(tensor._idx.shape)]
    cells[:, -1] = list(map(format_value, tensor._val.tolist()))
    lines = [f"tcp v1 order={tensor.order} dim={tensor.dim}", *map(" ".join, cells.tolist())]
    if q is not None:
        lines.append("q " + " ".join(map(format_value, q.tolist())))
    return "\n".join(lines) + "\n"


def serialize_problem(problem):
    return _serialize(problem.tensor, problem.q)


def serialize_tensor(tensor):
    return _serialize(tensor, None)


# ---------------------------------------------------------------------------
# built-in instances
#
# Entries are written with 1-based indices exactly as in the tcp v1 format.
# ex2_* are classification fixtures (tensor only); ex3_1 and ex5_* carry q
# and a known reference solution used by the bench command.

_BUILTINS = {
    "ex2_1": dict(
        order=3, dim=2,
        entries={(1, 1, 1): 1.0, (2, 1, 1): 1.0, (1, 2, 2): -1.0, (2, 2, 2): 1.0},
        about="A x^2 = (x1^2 - x2^2, x1^2 + x2^2); KS but not Z",
    ),
    "ex2_2": dict(
        order=3, dim=2,
        entries={(1, 1, 1): 1.0, (1, 2, 1): -1.0, (2, 2, 1): -1.0,
                 (1, 1, 2): -2.0, (2, 2, 2): -1.0},
        about="A x^2 = (x1^2 - 3 x1 x2, -x1 x2 - x2^2); Z but not P",
    ),
    "ex2_3": dict(
        order=4, dim=2,
        entries={(1, 1, 1, 1): 1.0, (2, 2, 2, 2): 1.0, (1, 2, 1, 2): 1.0,
                 (1, 2, 2, 1): -1.0, (2, 1, 1, 2): -0.5},
        about="A x^3 = (x1^3, x2^3 - 0.5 x1^2 x2); KS, insertion sums all 0",
    ),
    "ex3_1": dict(
        order=4, dim=2,
        entries={(1, 1, 1, 1): 1.0, (1, 1, 1, 2): -2.0, (1, 1, 2, 2): 1.0,
                 (2, 2, 2, 2): 1.0},
        q=(0.0, 1.0), ref=(0.0, 1.0), tol=1e-4,
        about="A x^3 = (x1 (x1 - x2)^2, x2^3); solutions (0,1) and (1,1)",
    ),
    "ex5_1": dict(
        order=4, dim=2,
        entries={(1, 1, 1, 1): 1.0, (2, 2, 2, 2): 8.0, (1, 1, 1, 2): -2.0},
        q=(0.0, 1.0), ref=(0.0, 0.5), tol=1e-4,
        about="A x^3 = (x1^2 (x1 - 2 x2), 8 x2^3)",
    ),
    "ex5_2": dict(
        order=4, dim=2,
        entries={(1, 1, 1, 1): 1.0, (2, 2, 2, 2): 1.0, (1, 2, 1, 2): 1.0,
                 (1, 2, 2, 1): -1.0, (2, 1, 1, 2): -0.5},
        q=(0.0, 1.0), ref=(0.0, 1.0), tol=1e-4,
        about="the ex2_3 tensor with q = (0, 1)",
    ),
    "ex5_3": dict(
        order=6, dim=3,
        entries={(1, 1, 1, 1, 1, 1): 1.0, (2, 2, 2, 2, 2, 2): 1.0,
                 (3, 3, 3, 3, 3, 3): 1.0, (1, 2, 3, 2, 1, 1): -1.0,
                 (2, 3, 1, 1, 2, 1): -2.0},
        q=(0.0, 1.0, 1.0), ref=(0.0, 1.0, 1.0), tol=1e-4,
        about="A x^5 = (x1^5 - x1^2 x2^2 x3, x2^5 - 2 x1^3 x2 x3, x3^5)",
    ),
    "ex5_4": dict(
        order=4, dim=4,
        entries={(1, 1, 1, 1): 2.0, (2, 2, 2, 2): 2.0, (3, 3, 3, 3): 3.0,
                 (4, 4, 4, 4): 3.0, (1, 4, 3, 2): -2.0, (3, 1, 4, 3): -5.0},
        q=(0.0, 1.0, 1.0, 0.0),
        ref=(0.0, 0.5 ** (1.0 / 3.0), (1.0 / 3.0) ** (1.0 / 3.0), 0.0), tol=1e-3,
        about="unique solution (0, (1/2)^(1/3), (1/3)^(1/3), 0)",
    ),
    "ex5_5": dict(
        order=10, dim=9,
        entries=dict([((i,) * 10, 1.0) for i in range(1, 10)]
                     + [((2, 6, 7, 7, 8, 4, 2, 5, 5, 6), -3.0)]),
        q=(0.0,) * 8 + (1.0,),
        ref=(0.0,) * 8 + (1.0,), tol=1e-4,
        about="10th order, dimension 9; unique solution e_9",
    ),
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin(name):
    """Built-in instance by name: a TCPProblem, or a bare Tensor for ex2_*."""
    try:
        spec = _BUILTINS[name]
    except KeyError:
        raise KeyError(f"unknown builtin {name!r}; available: {', '.join(BUILTIN_NAMES)}") from None
    entries = {tuple(i - 1 for i in idx): v for idx, v in spec["entries"].items()}
    tensor = Tensor(spec["order"], spec["dim"], entries)
    if "q" not in spec:
        return tensor
    return TCPProblem(tensor, np.array(spec["q"]), name=name)


def reference_solution(name):
    """Known solution and comparison tolerance for a builtin, or None."""
    spec = _BUILTINS.get(name)
    if spec is None or "ref" not in spec:
        return None
    return np.array(spec["ref"]), spec["tol"]


def builtin_about(name):
    return _BUILTINS[name].get("about", "")


# ---------------------------------------------------------------------------
# random KS instance generation

MAX_ENTRIES = 20_000  # entries a generated instance may store


def generate_ks_instance(order, dim, density=0.3, seed=0):
    """Random diagonally dominant Z-tensor instance, certified KS.

    Off-diagonal entries are negative with the requested fill and each
    diagonal entry is 1 plus its row's off-diagonal mass, so A e is about 1
    and x = e witnesses the M-property of W = A.  Every insertion sum adds
    off-diagonal entries only, so the insertion-sum condition holds too.
    Certificates are recomputed and attached; a draw that fails them raises
    RuntimeError.

    Raises ValueError, before drawing, when order < 2 or dim < 1, density is
    not in (0, 1], max(dim, 2)**order overflows np.intp, or the instance
    would store more than MAX_ENTRIES entries.  At the cap, `tcpsolve gen`
    at order 62 dim 2 (the slowest shape) takes 0.8-0.9 s at a 246 MB
    peak, 0.04 s of it in the Tensor checks; order 39 dim 3 takes 0.5 s,
    order 10 dim 9 0.25-0.27 s, order 6 dim 10 0.2 s and order 2 dim 19999
    0.19 s, interpreter start included (Python 3.11, numpy 2.4, 2-CPU
    x86-64), so every admitted draw finishes within 60 s.
    """
    if order < 2 or dim < 1:
        raise ValueError(f"require order >= 2 and dim >= 1, got order={order} dim={dim}")
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    total = int(dim) ** int(order)
    if max(total, 2 ** int(order)) > np.iinfo(np.intp).max:
        raise ValueError(f"order={order} dim={dim}: max(dim, 2)**order overflows int64")
    n_off = total - dim
    count = min(max(1, int(round(density * n_off))), n_off)
    if count + dim > MAX_ENTRIES:
        raise ValueError(f"order={order} dim={dim} density={density:g} would store {count + dim}"
                         f" entries, over the entry cap MAX_ENTRIES = {MAX_ENTRIES}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0, 0)))
    # off-diagonal ranks skip diagonal i, at flat index i (total - 1) / (dim - 1)
    rank = rng.choice(n_off, size=count, replace=False)
    diag = np.arange(dim) * ((total - 1) // max(dim - 1, 1) - 1)
    flat = rank + np.searchsorted(diag, rank, side="right")
    idx = flat[:, None] // dim ** np.arange(order - 1, -1, -1) % dim
    values = rng.uniform(0.2, 1.0, count)
    mass = np.bincount(idx[:, 0], weights=values, minlength=dim)
    rows = np.concatenate([idx, np.repeat(np.arange(dim)[:, None], order, axis=1)])
    tensor = Tensor.from_arrays(order, dim, rows, np.concatenate([-values, 1.0 + mass]))
    q = rng.uniform(0.0, 1.0, dim)
    ks = classify.is_ks_tensor(tensor)
    cond2 = classify.satisfies_condition2(tensor)
    if not (ks.positive and cond2.verdict is classify.Verdict.CERTIFIED_TRUE):
        raise RuntimeError(
            f"generated instance for order={order} dim={dim} seed={seed} failed "
            f"certification (ks={ks.verdict}, insertion sums={cond2.verdict})")
    return TCPProblem(tensor, q, name=f"gen-m{order}-n{dim}-d{density}-s{seed}",
                      tags={"ks": ks, "condition2": cond2})
