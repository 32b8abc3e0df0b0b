"""Command-line interface.

Four subcommands: `solve` runs the multistart SQP solver on a problem file
or builtin, `classify` reports structure verdicts for a tensor, `bench`
reruns the five builtin benchmark problems and writes CSV plus a markdown
summary, and `gen` writes a random certified KS instance in tcp v1 format.

Exit codes: 0 success, 1 solver/generator failure, 2 usage, parse or
out-of-memory input error.
Table mode displays solutions at 4 decimal places; the canonical numbers
(best solution block, residuals) are printed at full precision and agree
with the JSON output exactly.  CSV always carries full precision.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import statistics
import sys
from pathlib import Path

import numpy as np

from . import classify, problems, sqp
from .tensors import Tensor

SOLVABLE_BUILTINS = tuple(n for n in problems.BUILTIN_NAMES
                          if not isinstance(problems.builtin(n), Tensor))
BENCH_NAMES = ("ex5_1", "ex5_2", "ex5_3", "ex5_4", "ex5_5")


def _fmt4(values):
    return "(" + ", ".join(f"{float(v):.4f}" for v in values) + ")"


def _fmt_full(values):
    return "(" + ", ".join(repr(float(v)) for v in values) + ")"


def _json_safe(obj):
    if dataclasses.is_dataclass(obj):
        return {f.name: _json_safe(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, classify.Verdict):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return str(obj)


def _print_table(rows, headers, out):
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(), file=out)
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip(), file=out)


def _error(message):
    """Print an error message to stderr (and return None)."""
    print(f"error: {message}", file=sys.stderr)


def _load(args, path, parse):
    """The builtin named by --builtin, else parse(text) of the file at path;
    None, after printing the error, when that fails."""
    if args.builtin:
        try:
            return problems.builtin(args.builtin)
        except KeyError as e:
            return _error(e)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        return _error(f"cannot read {path}: {e}")
    try:
        return parse(text)
    except problems.FormatError as e:
        return _error(f"{path}: {e}")


# ---------------------------------------------------------------------------
# solve

def _start_rows(result):
    rows = []
    for k, r in enumerate(result.reports):
        rows.append((str(k), _fmt4(r.mu), _fmt4(r.lam), str(r.iterations),
                     _fmt4(r.x), r.status))
    return rows


def _solve_csv(result, out):
    n = result.best.x.size
    writer = csv.writer(out)
    writer.writerow(["start", "status", "solved_by", "iterations", "l0", "objective",
                     "equation_residual", "tcp_residual", "feasibility"]
                    + [f"x{i + 1}" for i in range(n)])
    for k, r in enumerate(result.reports):
        writer.writerow([k, r.status, r.solved_by or "none", r.iterations, r.l0, r.objective,
                         r.equation_residual, r.tcp_residual, r.feasibility]
                        + [float(v) for v in r.x])


def _solve_payload(problem, result, args):
    best = result.best
    return {
        "problem": problem.name or args.problem,
        "order": problem.order,
        "dim": problem.dim,
        "starts": args.starts,
        "seed": args.seed,
        "success_rate": result.success_rate,
        "solved_by_counts": {key: sum((r.solved_by or "none") == key for r in result.reports)
                             for key in ("sqp", "identified", "support", "none")},
        "best": {
            "x": [float(v) for v in best.x],
            "mu": [float(v) for v in best.mu],
            "lam": [float(v) for v in best.lam],
            "status": best.status,
            "solved_by": best.solved_by,
            "iterations": best.iterations,
            "l0": best.l0,
            "objective": best.objective,
            "equation_residual": best.equation_residual,
            "tcp_residual": best.tcp_residual,
            "feasibility": best.feasibility,
        },
        "notes": list(result.notes) + list(best.notes),
    }


def cmd_solve(args):
    if args.starts < 1:
        _error("--starts must be >= 1")
        return 2
    try:
        cfg = sqp.SQPConfig(eps1=args.tol_d, eps2=args.tol_feas, max_iter=args.max_iter)
    except ValueError as e:
        _error(e)
        return 2
    problem = _load(args, args.problem,
                    lambda text: problems.parse_problem(text, name=Path(args.problem).name))
    if isinstance(problem, Tensor):
        _error(f"builtin {args.builtin!r} is a classification fixture with no "
               f"right-hand side; solvable builtins: {', '.join(SOLVABLE_BUILTINS)}")
        return 2
    if problem is None:
        return 2
    result = sqp.multistart_sparse(problem, n_starts=args.starts, seed=args.seed, config=cfg)

    if args.format == "json":
        print(json.dumps(_solve_payload(problem, result, args), indent=2))
    elif args.format == "csv":
        _solve_csv(result, sys.stdout)
    else:
        best = result.best
        print(f"problem {problem.name or args.problem} "
              f"(order {problem.order}, dim {problem.dim}), "
              f"{args.starts} starts, seed {args.seed}")
        print()
        _print_table(_start_rows(result),
                     ["start", "mu", "lam", "iter", "x*", "status"], sys.stdout)
        print()
        print(f"best (l0 = {best.l0}, status {best.status}):")
        print(f"  x*                = {_fmt_full(best.x)}")
        print(f"  objective         = {best.objective!r}")
        print(f"  equation_residual = {best.equation_residual!r}")
        print(f"  tcp_residual      = {best.tcp_residual!r}")
        print(f"  feasibility       = {best.feasibility!r}")
        print(f"  iterations        = {best.iterations}")
        print(f"success_rate = {result.success_rate!r}")
        for note in list(result.notes) + list(best.notes):
            print(f"note: {note}")
    return 0 if result.success_rate > 0.0 else 1


# ---------------------------------------------------------------------------
# classify

def _witness_str(witness):
    if witness is None:
        return ""
    if isinstance(witness, np.ndarray):
        return _fmt_full(witness)
    return str(witness)


def cmd_classify(args):
    if args.samples < 1:
        _error("--samples must be >= 1")
        return 2
    tensor = _load(args, args.tensor, problems.parse_tensor)
    if tensor is None:
        return 2
    if isinstance(tensor, problems.TCPProblem):
        tensor = tensor.tensor
    name = args.builtin or args.tensor
    try:
        results = {
            "nonnegative": classify.is_nonnegative(tensor),
            "z_tensor": classify.is_z_tensor(tensor),
            "nonsingular_m": classify.is_nonsingular_m_tensor(tensor),
            "p_tensor": classify.is_p_tensor(tensor, num_samples=args.samples,
                                             seed=args.seed),
            "ks_tensor": classify.is_ks_tensor(tensor, num_samples=args.samples,
                                               seed=args.seed),
            "condition2": classify.satisfies_condition2(tensor),
            "z_function": classify.z_function_check(tensor, num_samples=args.samples,
                                                    seed=args.seed),
        }
    except MemoryError as exc:
        # the header admits dimensions whose dense vectors cannot be allocated
        _error(f"cannot classify {name}: {exc}")
        return 2
    if args.format == "json":
        payload = {
            "tensor": name,
            "order": tensor.order,
            "dim": tensor.dim,
            "results": {k: _json_safe(c) for k, c in results.items()},
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"tensor {name} (order {tensor.order}, dim {tensor.dim})")
        print()
        rows = [(prop, str(c.verdict), c.method, c.detail)
                for prop, c in results.items()]
        _print_table(rows, ["property", "verdict", "method", "evidence"], sys.stdout)
        witnesses = [(prop, _witness_str(c.witness))
                     for prop, c in results.items() if c.witness is not None]
        if witnesses:
            print()
            print("witnesses:")
            for prop, w in witnesses:
                print(f"  {prop}: {w}")
    return 0


# ---------------------------------------------------------------------------
# bench

def cmd_bench(args):
    if args.starts < 1:
        _error("--starts must be >= 1")
        return 2
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        probe = outdir / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as e:
        _error(f"output directory {args.out} not writable: {e}")
        return 2

    lines = ["# benchmark summary", "",
             f"{args.starts} starts per problem, seed {args.seed}, "
             "sequential deterministic order", "",
             "| problem | order | dim | success rate | median iters "
             "| best l0 | best x* | reference x* | tol | match |",
             "|---|---|---|---|---|---|---|---|---|---|"]
    all_ok = True
    for name in BENCH_NAMES:
        problem = problems.builtin(name)
        result = sqp.multistart_sparse(problem, n_starts=args.starts, seed=args.seed)
        with open(outdir / f"{name}.csv", "w", newline="", encoding="utf-8") as f:
            _solve_csv(result, f)
        ref, tol = problems.reference_solution(name)
        best = result.best
        ok = best.converged and float(np.max(np.abs(best.x - ref))) <= tol
        all_ok = all_ok and ok
        iters = [r.iterations for r in result.reports if r.converged]
        med = f"{statistics.median(iters):g}" if iters else "-"
        lines.append(
            f"| {name} | {problem.order} | {problem.dim} "
            f"| {result.success_rate:.2f} | {med} | {best.l0} "
            f"| {_fmt4(best.x)} | {_fmt4(ref)} | {tol:g} "
            f"| {'yes' if ok else 'NO'} |")
    lines += ["",
              "ex5_4 is compared at 1e-3: its solution components are the "
              "closed forms (1/2)^(1/3) and (1/3)^(1/3), which round to the "
              "4-digit values 0.7937 and 0.6934; the other problems have "
              "exact rational solutions and use 1e-4.", ""]
    (outdir / "summary.md").write_text("\n".join(lines), encoding="utf-8")
    print(f"wrote {outdir / 'summary.md'}")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# gen

def cmd_gen(args):
    try:
        problem = problems.generate_ks_instance(args.order, args.dim, density=args.density,
                                                seed=args.seed)
    except ValueError as e:
        _error(e)
        return 2
    except RuntimeError as e:
        _error(e)
        return 1
    ks = problem.tags["ks"]
    cond2 = problem.tags["condition2"]
    header = [
        f"# generated instance: order={args.order} dim={args.dim} "
        f"density={args.density:g} seed={args.seed}",
        f"# ks_tensor: {ks.verdict} via {ks.method}; {ks.detail}",
        f"# insertion sums: {cond2.verdict} via {cond2.method}; {cond2.detail}",
        "# q drawn uniform [0, 1)",
    ]
    text = "\n".join(header) + "\n" + problems.serialize_problem(problem)
    try:
        Path(args.out).write_text(text, encoding="utf-8")
    except OSError as e:
        _error(f"cannot write {args.out}: {e}")
        return 2
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser

def _seed(text):
    """argparse type of --seed: an integer >= 0, as numpy's generators take."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tcpsolve",
        description="Sparse solutions of tensor complementarity problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem by multistart SQP")
    src = p_solve.add_mutually_exclusive_group(required=True)
    src.add_argument("--problem", help="path to a tcp v1 problem file")
    src.add_argument("--builtin", help=f"builtin name ({', '.join(SOLVABLE_BUILTINS)})")
    p_solve.add_argument("--starts", type=int, default=20)
    p_solve.add_argument("--seed", type=_seed, default=42)
    p_solve.add_argument("--max-iter", type=int, default=500,
                         help="SQP iterations per start, >= 0 (max_iter)")
    p_solve.add_argument("--tol-d", type=float, default=1e-6,
                         help="stop when the QP step 1-norm falls below this (eps1)")
    p_solve.add_argument("--tol-feas", type=float, default=1e-5,
                         help="stop when primal infeasibility falls below this (eps2)")
    p_solve.add_argument("--format", choices=("table", "csv", "json"),
                         default="table")
    p_solve.set_defaults(func=cmd_solve)

    p_cls = sub.add_parser("classify", help="classify the structure of a tensor")
    src = p_cls.add_mutually_exclusive_group(required=True)
    src.add_argument("--tensor", help="path to a tcp v1 tensor file")
    src.add_argument("--builtin", help=f"builtin name ({', '.join(problems.BUILTIN_NAMES)})")
    p_cls.add_argument("--samples", type=int, default=1000)
    p_cls.add_argument("--seed", type=_seed, default=42)
    p_cls.add_argument("--format", choices=("table", "json"), default="table")
    p_cls.set_defaults(func=cmd_classify)

    p_bench = sub.add_parser("bench", help="rerun the builtin benchmark problems")
    p_bench.add_argument("--out", required=True, help="output directory")
    p_bench.add_argument("--starts", type=int, default=20)
    p_bench.add_argument("--seed", type=_seed, default=42)
    p_bench.set_defaults(func=cmd_bench)

    p_gen = sub.add_parser("gen", help="generate a random certified KS instance")
    p_gen.add_argument("--order", type=int, required=True)
    p_gen.add_argument("--dim", type=int, required=True)
    p_gen.add_argument("--density", type=float, default=0.3)
    p_gen.add_argument("--seed", type=_seed, default=0)
    p_gen.add_argument("--out", required=True, help="output file path")
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
