"""Layer spans for the traced benchmark run.

Run as a script, this is the traced child of one benchmark op::

    python bench/spans.py SPANS.json OP_ID -- [fracstar CLI arguments]

It wraps the public entry point of each layer under the name its calling
module binds it to (so ``fracstar.control.solve_forward_graph`` is wrapped,
not the definition in ``fracstar.graph_solver``), runs ``fracstar.cli.main``
in a root span, and writes the spans to ``SPANS.json`` when the call ends.
A span is ``[op, name, start, end, parent, attrs]``.  A binding that no
longer exists is listed as missing and its layer reports zero calls.

Imported, it turns the spans of one op into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# Per-layer metrics in report order, with units.  ``_s`` is summed span time
# per op, ``_calls`` a count per op, ``self_s`` span time minus child spans.
PER_LAYER = [
    ("cli.parse_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_read", "byte"),
    ("cli.bytes_written", "byte"),
    ("fracops.calls", "count"),
    ("fracops.s", "s"),
    ("sturm.assemble_calls", "count"),
    ("sturm.assemble_s", "s"),
    ("sturm.self_s", "s"),
    ("graph_solver.assemble_calls", "count"),
    ("graph_solver.assemble_s", "s"),
    ("graph_solver.forward_calls", "count"),
    ("graph_solver.forward_s", "s"),
    ("graph_solver.adjoint_calls", "count"),
    ("graph_solver.adjoint_s", "s"),
    ("graph_solver.steps", "count"),
    ("graph_solver.self_s", "s"),
    ("edge_solver.forward_calls", "count"),
    ("edge_solver.forward_s", "s"),
    ("edge_solver.adjoint_calls", "count"),
    ("edge_solver.adjoint_s", "s"),
    ("edge_solver.self_s", "s"),
    ("linalg.factor_calls", "count"),
    ("linalg.factor_s", "s"),
    ("linalg.factor_gflop", "GFlop"),
    ("linalg.solve_calls", "count"),
    ("linalg.solve_s", "s"),
    ("linalg.solve_gbyte", "GB"),
    ("control.optimize_s", "s"),
    ("control.iterations", "count"),
    ("control.forward_sweeps", "count"),
    ("control.adjoint_sweeps", "count"),
    ("control.accept_ratio", "ratio"),
    ("control.active_frac", "ratio"),
    ("control.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]

# Metrics that must repeat exactly across the traced ops of one run.
COUNTS = [name for name, unit in PER_LAYER if unit == "count"] + ["cli.bytes_written"]


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _factor(kind):
    def attrs(args, kwargs, result):
        return {"kind": kind, "n": int(_arg(args, kwargs, 0, "a").shape[0])}

    return attrs


def _solve(args, kwargs, result):
    return {"n": int(args[0][0].shape[0]), "nrhs": int(result.size // result.shape[0])}


def _steps(pos, key):
    def attrs(args, kwargs, result):
        return {"steps": int(_arg(args, kwargs, pos, key).Nt)}

    return attrs


def _graph_steps(args, kwargs, result):
    return {"steps": int(_arg(args, kwargs, 0, "problem").time_grid.Nt)}


def _optimize(args, kwargs, result):
    return {"iterations": int(result.iterations), "accepted": len(result.cost_history) - 1}


# (module that makes the call, name it binds, span name, span attributes
# taken from the call's arguments and result)
BINDINGS = [
    ("fracstar.cli", "parse_config", "cli.parse", None),
    ("fracstar.cli", "optimize", "control.optimize", _optimize),
    ("fracstar.cli", "assemble_stiffness", "sturm.assemble", None),
    ("fracstar.graph_solver", "assemble_stiffness", "sturm.assemble", None),
    ("fracstar.sturm", "left_rl_derivative", "fracops.left_rl_derivative", None),
    ("fracstar.sturm", "singular_mode", "fracops.singular_mode", None),
    ("fracstar.sturm", "trace_functional", "fracops.trace_functional", None),
    ("fracstar.graph_solver", "assemble_graph_system", "graph_solver.assemble", None),
    ("fracstar.control", "assemble_graph_system", "graph_solver.assemble", None),
    ("fracstar.cli", "solve_forward_graph", "graph_solver.forward", _graph_steps),
    ("fracstar.control", "solve_forward_graph", "graph_solver.forward", _graph_steps),
    ("fracstar.cli", "solve_adjoint_graph", "graph_solver.adjoint", _graph_steps),
    ("fracstar.control", "solve_adjoint_graph", "graph_solver.adjoint", _graph_steps),
    ("fracstar.cli", "solve_forward_edge", "edge_solver.forward", _steps(1, "time_grid")),
    ("fracstar.control", "solve_forward_edge", "edge_solver.forward", _steps(1, "time_grid")),
    ("fracstar.cli", "solve_adjoint_edge", "edge_solver.adjoint", _steps(1, "time_grid")),
    ("fracstar.control", "solve_adjoint_edge", "edge_solver.adjoint", _steps(1, "time_grid")),
    ("fracstar.edge_solver", "cho_factor", "linalg.factor", _factor("cholesky")),
    ("fracstar.edge_solver", "cho_solve", "linalg.solve", _solve),
    ("fracstar.graph_solver", "lu_factor", "linalg.factor", _factor("lu")),
    ("fracstar.graph_solver", "lu_solve", "linalg.solve", _solve),
]


class Tracer:
    """Records spans of one op in memory."""

    def __init__(self, op: int):
        self.op = op
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        spans, stack, op, clock = self.spans, self._stack, self.op, time.perf_counter

        def traced(*args, **kwargs):
            span = [op, name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if attrs is not None:
                try:
                    span[5] = attrs(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    span[5] = None
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every binding in :data:`BINDINGS`; return those not found."""
        missing = []
        for module_name, attr, span_name, attrs in BINDINGS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                missing.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(span_name, fn, attrs))
        return missing


def op_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one op's spans (the file-size, output and
    overhead metrics are filled in by the caller)."""
    names = [s[1] for s in spans]
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[4] >= 0:
            child[s[4]] += dur[i]
    own = [d - c for d, c in zip(dur, child)]
    attrs = [s[5] or {} for s in spans]

    def pick(pred):
        return [i for i, name in enumerate(names) if pred(name)]

    def under_optimize(i):
        while i >= 0:
            if names[i] == "control.optimize":
                return True
            i = spans[i][4]
        return False

    out: dict[str, float] = {}
    out["cli.parse_s"] = sum(dur[i] for i in pick(lambda n: n == "cli.parse"))
    out["cli.self_s"] = sum(own[i] for i in pick(lambda n: n == "cli.main"))
    frac = pick(lambda n: n.startswith("fracops."))
    out["fracops.calls"] = len(frac)
    out["fracops.s"] = sum(dur[i] for i in frac)
    st = pick(lambda n: n == "sturm.assemble")
    out["sturm.assemble_calls"] = len(st)
    out["sturm.assemble_s"] = sum(dur[i] for i in st)
    out["sturm.self_s"] = sum(own[i] for i in st)
    for layer, parts in (
        ("graph_solver", ("assemble", "forward", "adjoint")),
        ("edge_solver", ("forward", "adjoint")),
    ):
        for part in parts:
            idx = pick(lambda n: n == f"{layer}.{part}")
            out[f"{layer}.{part}_calls"] = len(idx)
            out[f"{layer}.{part}_s"] = sum(dur[i] for i in idx)
        out[f"{layer}.self_s"] = sum(own[i] for i in pick(lambda n: n.startswith(layer + ".")))
    sweeps = pick(lambda n: n in ("graph_solver.forward", "graph_solver.adjoint"))
    out["graph_solver.steps"] = sum(attrs[i].get("steps", 0) for i in sweeps)

    fac = pick(lambda n: n == "linalg.factor")
    out["linalg.factor_calls"] = len(fac)
    out["linalg.factor_s"] = sum(dur[i] for i in fac)
    # Computed, not counted: n^3/3 flops for Cholesky, 2n^3/3 for LU.
    out["linalg.factor_gflop"] = sum(
        (1.0 if attrs[i].get("kind") == "cholesky" else 2.0) * attrs[i].get("n", 0) ** 3 / 3.0
        for i in fac
    ) / 1e9
    sol = pick(lambda n: n == "linalg.solve")
    out["linalg.solve_calls"] = len(sol)
    out["linalg.solve_s"] = sum(dur[i] for i in sol)
    # Computed: one pass over the n x n factor plus the right-hand side in
    # and the solution out, in float64.
    out["linalg.solve_gbyte"] = sum(
        8.0 * (attrs[i].get("n", 0) ** 2 + 2 * attrs[i].get("n", 0) * attrs[i].get("nrhs", 1))
        for i in sol
    ) / 1e9

    opt = pick(lambda n: n == "control.optimize")
    fwd = [i for i in pick(lambda n: n.endswith(".forward")) if under_optimize(i)]
    adj = [i for i in pick(lambda n: n.endswith(".adjoint")) if under_optimize(i)]
    out["control.optimize_s"] = sum(dur[i] for i in opt)
    out["control.iterations"] = sum(attrs[i].get("iterations", 0) for i in opt)
    out["control.forward_sweeps"] = len(fwd)
    out["control.adjoint_sweeps"] = len(adj)
    accepted = sum(attrs[i].get("accepted", 0) for i in opt)
    # The first forward sweep evaluates the start point; every later one is
    # a line-search trial.
    trials = len(fwd) - len(opt)
    out["control.accept_ratio"] = accepted / trials if trials > 0 else 0.0
    out["control.self_s"] = sum(own[i] for i in opt)
    return out


def main(argv: list[str]) -> int:
    spans_path, op, sep, cli_args = argv[0], int(argv[1]), argv[2], argv[3:]
    if sep != "--":
        raise SystemExit("usage: spans.py SPANS.json OP_ID -- CLI_ARGS...")
    tracer = Tracer(op)
    missing = tracer.install()
    import fracstar.cli

    try:
        rc = tracer.wrap("cli.main", fracstar.cli.main)(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            # dumps takes the C encoder's fast path; dump would not.
            fh.write(json.dumps({"missing": missing, "spans": tracer.spans}))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
