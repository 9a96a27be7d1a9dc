"""Span recording around the program's public functions, from outside.

``Tracer.install`` replaces module attributes of ``subnls`` with wrappers
that record one span per call: name, start, end, parent span and process.
The program's source is never edited.  Two limits follow from wrapping
attributes rather than instrumenting the code:

* a call is seen only when it goes through the patched attribute.  The grid
  functions are wrapped where the minimizer binds them
  (``subnls.minimizer.laplacian_values``, ``.kinetic``, ``.RadialField``), so
  their uses inside ``subnls.diagnostics`` and ``subnls.grid`` go untraced;
* ``sweep-rho`` pool workers are forked with the patched modules, but their
  spans live in the worker's memory.  Each worker therefore appends the
  spans of every top-level call to its own file, and the parent merges them.
  If workers start without the patches (a start method other than fork),
  the sweep reports no worker spans and the per-point times are missing.

Spans are kept in memory as tuples and written out once, at the end of
the child process.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

# (module, attribute, span name)
TARGETS = [
    ("subnls.cli", "main", "cli.main"),
    ("subnls.cli", "load_config", "cli.load_config"),
    ("subnls.cli", "build_solve_config", "cli.build_solve_config"),
    ("subnls.minimizer", "energy_map", "minimizer.energy_map"),
    ("subnls.minimizer", "continuation", "minimizer.continuation"),
    ("subnls.minimizer", "solve_ground_state", "minimizer.solve_ground_state"),
    ("subnls.minimizer", "initial_guess", "minimizer.initial_guess"),
    ("subnls.minimizer", "energy_eps", "minimizer.energy_eps"),
    ("subnls.minimizer", "RadialField", "grid.RadialField"),
    ("subnls.minimizer", "laplacian_values", "grid.laplacian_values"),
    ("subnls.minimizer", "kinetic", "grid.kinetic"),
    ("subnls.nonlinearity", "g_eps", "nonlinearity.g_eps"),
    ("subnls.nonlinearity", "G_plus_value", "nonlinearity.G_plus_value"),
    ("subnls.nonlinearity", "G_minus_eps", "nonlinearity.G_minus_eps"),
    ("subnls.nonlinearity", "G_value", "nonlinearity.G_value"),
    ("subnls.diagnostics", "residual_bundle", "diagnostics.residual_bundle"),
    ("subnls.diagnostics", "energy_map_properties", "diagnostics.energy_map_properties"),
    ("subnls.orlicz", "check_delta2_nabla2", "orlicz.check_delta2_nabla2"),
    ("subnls.orlicz", "luxemburg_norm", "orlicz.luxemburg_norm"),
]
LAYERS = [name for _, _, name in TARGETS]


class Tracer:
    """In-memory span store.  A span is (name, start, end, parent, pid);
    parent is the index of the enclosing span in the same process, or -1."""

    def __init__(self, worker_dir: str):
        self.pid = os.getpid()
        self.spans: list = []
        self.stack: list = []
        self.results: dict = {}  # span index -> facts read from the return value
        self.worker_dir = worker_dir
        self.in_worker = False
        self._patched: list = []
        os.register_at_fork(after_in_child=self._enter_worker)

    def install(self):
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.pid)
            if name == "minimizer.solve_ground_state":
                tracer.results[index] = {"iterations": result.iterations,
                                         "converged": result.converged}
            if parent == -1 and tracer.in_worker:
                tracer._flush_worker()
            return result

        return wrapper

    def _enter_worker(self):
        # a forked pool worker: drop the spans copied from the parent
        self.in_worker = True
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.results = {}

    def _flush_worker(self):
        # no span is open here, so the store can restart from index 0
        path = os.path.join(self.worker_dir, f"worker-{self.pid}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps(self.dump()) + "\n")
        self.spans, self.results = [], {}

    def dump(self) -> dict:
        return {"spans": self.spans,
                "results": {str(k): v for k, v in self.results.items()}}

    def collect(self) -> list:
        """This process's spans plus those the pool workers wrote since the
        last call; clears both, so each repetition gets its own payloads."""
        payloads = [self.dump()]
        for fname in sorted(os.listdir(self.worker_dir)):
            path = os.path.join(self.worker_dir, fname)
            with open(path) as fh:
                payloads.extend(json.loads(line) for line in fh)
            os.remove(path)
        self.spans, self.results = [], {}
        return payloads


def merge(payloads) -> tuple:
    """Concatenate the span stores of several processes into one list,
    shifting parent indices and solver results to the merged positions."""
    spans, results = [], {}
    for payload in payloads:
        base = len(spans)
        spans.extend((n, a, b, p + base if p >= 0 else -1, pid)
                     for n, a, b, p, pid in payload["spans"])
        results.update({int(k) + base: v for k, v in payload["results"].items()})
    return spans, results


def self_times(spans) -> dict:
    """Per layer: total self time (span minus its direct children) and calls."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        total, calls = out.get(name, (0.0, 0))
        out[name] = (total + (end - start) - child[i], calls + 1)
    return out


def solver_stages(spans, results, rearrange_every: int) -> list:
    """Per solver stage: iterations, energy and gradient evaluations, Armijo
    trials and accepted steps, and the solver's own time per iteration.

    Energy evaluations are attributed by parent span: those whose parent is
    the solver span are the solver's (its initial energy, Armijo trials and
    rearrangement checks); those under ``initial_guess`` rank the seeds.
    Gradient evaluations are the solver's ``laplacian_values`` calls.
    """
    stages = {i: {"iterations": r["iterations"], "converged": r["converged"],
                  "energy_evals": 0, "energy_evals_initial_guess": 0,
                  "grad_evals": 0, "excluded_s": 0.0,
                  "span_s": spans[i][2] - spans[i][1]}
              for i, r in results.items()}
    guesses = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        if name == "minimizer.initial_guess" and parent in stages:
            guesses[i] = parent
        if parent in stages:
            st = stages[parent]
            if name == "minimizer.energy_eps":
                st["energy_evals"] += 1
            elif name == "grid.laplacian_values":
                st["grad_evals"] += 1
            elif name in ("minimizer.initial_guess", "diagnostics.residual_bundle"):
                st["excluded_s"] += end - start
        elif name == "minimizer.energy_eps" and parent in guesses:
            stages[guesses[parent]]["energy_evals_initial_guess"] += 1
    out = []
    for st in stages.values():
        it = st["iterations"]
        # the final iteration stops at the convergence test without a step
        accepted = it - 1 if st["converged"] else it
        rearrange_checks = accepted // rearrange_every if rearrange_every else 0
        trials = st["energy_evals"] - 1 - rearrange_checks
        st.update(accepted=accepted, trials=trials, backtracks=trials - accepted,
                  solver_s=st.pop("span_s") - st.pop("excluded_s"))
        out.append(st)
    return out
