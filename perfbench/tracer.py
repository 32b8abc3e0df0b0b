"""Spans around the public entry points of each tcpsolve layer.

The tracer replaces the layer functions with wrappers, in every tcpsolve
module that holds a reference to them, and restores the originals on exit.
Nothing inside the package changes.  Leaf kernels run about 170k times per
low-order solve, so spans are not kept one per call: each closed span is
added to a record keyed by (parent span name, span name) holding its call
count, inclusive time and self time, where self time is the span's duration
minus the time covered by its child spans.  Top-level `sqp_solve` spans
(one per multistart start) are also kept one by one as start records.
"""

from contextlib import contextmanager
from time import perf_counter

import numpy as np

import tcpsolve
from tcpsolve import classify, problems, qp, sqp, tensors

CLASSIFY_CHECKS = {
    "nonnegative": "is_nonnegative",
    "z_tensor": "is_z_tensor",
    "nonsingular_m": "is_nonsingular_m_tensor",
    "p_tensor": "is_p_tensor",
    "ks_tensor": "is_ks_tensor",
    "condition2": "satisfies_condition2",
    "z_function": "z_function_check",
}
CLASSIFY_SPANS = tuple(CLASSIFY_CHECKS) + ("spectral_radius",)

# span name -> (owner of the attribute, attribute name)
_FUNCTIONS = {
    "qp.solve_qp": (qp, "solve_qp"),
    "sqp.sqp_solve": (sqp, "sqp_solve"),
    "sqp.multistart_sparse": (sqp, "multistart_sparse"),
    "classify.spectral_radius": (tensors, "spectral_radius"),
    "problems.generate": (problems, "generate_ks_instance"),
    "problems.parse": (problems, "parse_problem"),
    "problems.parse_tensor": (problems, "parse_tensor"),
    "problems.serialize": (problems, "serialize_problem"),
    "problems.serialize_tensor": (problems, "serialize_tensor"),
    **{f"classify.{check}": (classify, attr) for check, attr in CLASSIFY_CHECKS.items()},
}
_METHODS = {
    "tensors.contract": "contract",
    "tensors.jacobian": "jacobian",
    "tensors.symmetrized": "symmetrized",
}
# parse/serialize of bare tensors are counted with the problem forms
_ALIAS = {"problems.parse_tensor": "problems.parse",
          "problems.serialize_tensor": "problems.serialize"}
_MODULES = (tcpsolve, tensors, classify, qp, sqp, problems)
ROOT = "op"
_SQP = "sqp.sqp_solve"
_MULTISTART = "sqp.multistart_sparse"


def _kkt_ok(report, args, kwargs):
    cfg = kwargs.get("config") or (args[4] if len(args) > 4 else None) or sqp.SQPConfig()
    return report.status == "kkt" and report.tcp_residual <= cfg.eps2


class Tracer:
    """Aggregated span records; use as a context manager around traced ops."""

    def __init__(self):
        # frame: [name, start, time covered by children, nested sqp_solve calls]
        self.stack = [["root", 0.0, 0.0, 0]]
        self.spans = {}
        self.starts = []
        self.qp_results = 0
        self.qp_newton_iters = 0
        self.qp_inexact = 0
        self.rescue_wins = 0
        self._saved = []

    # -- span bookkeeping ------------------------------------------------

    def enter(self, name):
        frame = [name, 0.0, 0.0, 0]
        if name == _SQP and self.stack[-1][0] == _SQP:
            self.stack[-1][3] += 1
        self.stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def exit(self, frame):
        end = perf_counter()
        self.stack.pop()
        duration = end - frame[1]
        parent = self.stack[-1]
        parent[2] += duration
        key = (parent[0], frame[0])
        record = self.spans.get(key)
        if record is None:
            record = self.spans[key] = [0, 0.0, 0.0]
        record[0] += 1
        record[1] += duration
        record[2] += duration - frame[2]
        return parent, duration

    def _wrap(self, name, fn):
        tracer = self
        span = _ALIAS.get(name, name)

        def traced(*args, **kwargs):
            frame = tracer.enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                parent, duration = tracer.exit(frame)
            tracer._observe(span, parent, frame, duration, result, args, kwargs)
            return result

        return traced

    def _observe(self, name, parent, frame, duration, result, args, kwargs):
        if name == "qp.solve_qp":
            self.qp_results += 1
            self.qp_newton_iters += result.iterations
            self.qp_inexact += not result.converged
        elif name == _SQP:
            if parent[0] == _MULTISTART:
                self.starts.append({"wall_s": duration, "status": result.status,
                                    "iterations": result.iterations,
                                    "rescue_calls": frame[3]})
            elif parent[0] == _SQP:
                self.rescue_wins += _kkt_ok(result, args, kwargs)

    # -- installing the wrappers -------------------------------------------

    def __enter__(self):
        for name, (owner, attr) in _FUNCTIONS.items():
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for module in _MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, value))
                        setattr(module, key, wrapped)
        for name, attr in _METHODS.items():
            original = getattr(tensors.Tensor, attr)
            self._saved.append((tensors.Tensor, attr, original))
            setattr(tensors.Tensor, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for owner, key, value in reversed(self._saved):
            setattr(owner, key, value)
        self._saved.clear()
        return False

    @contextmanager
    def op(self, label):
        """Install the wrappers around one benchmark op, inside its own span."""
        first_start = len(self.starts)
        with self:
            frame = self.enter(ROOT)
            try:
                yield
            finally:
                self.exit(frame)
        for k, record in enumerate(self.starts[first_start:]):
            record.update(op=label, start=k)

    # -- reading the records -------------------------------------------------

    def total(self, name, parent=None, field=0):
        return sum(r[field] for (p, n), r in self.spans.items()
                   if n == name and (parent is None or p == parent))

    def layer_self_s(self):
        """Self time of every span except the benchmark's own op spans."""
        return sum(r[2] for (_, n), r in self.spans.items() if n != ROOT)

    def metrics(self):
        calls = lambda name, parent=None: self.total(name, parent, 0)
        incl_s = lambda name, parent=None: self.total(name, parent, 1)
        self_s = lambda name, parent=None: self.total(name, parent, 2)
        qp_in_sqp = calls("qp.solve_qp", _SQP)
        walls = [s["wall_s"] for s in self.starts]
        pct = lambda p: float(np.percentile(walls, p)) if walls else 0.0
        rescue_calls = calls(_SQP, _SQP)
        out = {
            "tensors.jacobian.calls": (calls("tensors.jacobian"), "count"),
            "tensors.jacobian.self_s": (self_s("tensors.jacobian"), "s"),
            "tensors.symmetrized.self_s": (self_s("tensors.symmetrized"), "s"),
            "tensors.contract.calls": (calls("tensors.contract"), "count"),
            "tensors.contract.self_s": (self_s("tensors.contract"), "s"),
            "qp.solve_qp.calls": (calls("qp.solve_qp"), "count"),
            "qp.solve_qp.self_s": (self_s("qp.solve_qp"), "s"),
            "qp.newton_iters": (self.qp_newton_iters, "count"),
            "qp.inexact_share": (self.qp_inexact / self.qp_results if self.qp_results else 0.0,
                                 "ratio"),
            "sqp.self_s": (self_s(_SQP) + self_s(_MULTISTART), "s"),
            # one QP per outer iteration, rescue sub-solves and terminal re-checks included
            "sqp.outer_iters": (qp_in_sqp, "count"),
            "sqp.contract_per_iter": (calls("tensors.contract", _SQP) / qp_in_sqp
                                      if qp_in_sqp else 0.0, "ratio"),
            "sqp.start_s.p50": (pct(50), "s"),
            "sqp.start_s.p90": (pct(90), "s"),
            "sqp.rescue.calls": (rescue_calls, "count"),
            "sqp.rescue.incl_s": (incl_s(_SQP, _SQP), "s"),
            "sqp.rescue.win_share": (self.rescue_wins / rescue_calls if rescue_calls else 0.0,
                                     "ratio"),
        }
        for check in CLASSIFY_SPANS:
            out[f"classify.{check}.calls"] = (calls(f"classify.{check}"), "count")
            out[f"classify.{check}.self_s"] = (self_s(f"classify.{check}"), "s")
        out["classify.reformulation_s"] = (
            sum(incl_s(f"classify.{c}", _MULTISTART) for c in CLASSIFY_SPANS), "s")
        for step in ("generate", "parse", "serialize"):
            out[f"problems.{step}.self_s"] = (self_s(f"problems.{step}"), "s")
        return out

    def span_table(self):
        return [{"parent": p, "name": n, "calls": r[0], "incl_s": r[1], "self_s": r[2]}
                for (p, n), r in sorted(self.spans.items())]
