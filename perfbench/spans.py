"""Spans and counters recorded around the calls into each layer.

The program has no tracing of its own yet, so the benchmark wraps each
public function as the calling module sees it: ``cli``'s references to the
loader, the renderer and the model functions, both modules' ``solve_lp``,
and ``LpProblem.__init__``.  A layer's self time is its span minus the time
its child spans cover.  Spans stay in memory; only totals are kept.
"""

from __future__ import annotations

import functools
import hashlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# (module attribute, layer, position of the DMU argument or None)
CLI_WRAPS = (
    ("load_dataset", "data.load", None),
    ("render", "cli.render", None),
    ("blackbox_mpss", "network.build", 1),
    ("network_mpss_variable", "network.build", 2),
    ("network_mpss_radial", "network.build", 2),
    ("evaluate_stages", "network.build", 2),
    ("chain_efficiency", "chain.build", 2),
    ("chain_mpss", "chain.build", 2),
    ("intermediate_targets", "chain.build", 2),
    ("kruskal_wallis", "rank_tests.kruskal", None),
    ("decompose", "tandem.decompose", None),
)

# per-layer metrics: name -> unit; every traced run reports all of them
METRICS = {
    "network.build_ms": "ms", "chain.build_ms": "ms", "lp.problem_ms": "ms",
    "lp.solve_ms": "ms", "lp.pivots": "count", "lp.columns": "count", "lp.rows": "count",
    "lp.solves": "count", "lp.repeat_solves": "count", "lp.solver_errors": "count",
    "data.load_ms": "ms", "cli.self_ms": "ms", "cli.render_ms": "ms",
    "tandem.decompose_ms": "ms", "rank_tests.kruskal_ms": "ms",
    "trace.overhead_pct": "%",
}


def problem_digest(problem) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(problem.objective_sense.encode())
    h.update(problem.objective.tobytes())
    h.update(problem.variable_lower_bounds.tobytes())
    for a, rel, rhs in problem.constraints:
        h.update(a.tobytes())
        h.update(f"{rel}{rhs!r}".encode())
    return h.digest()


class Tracer:
    """Self time and call count per layer, plus counters at the solver boundary."""

    def __init__(self, paused=lambda: 0.0):
        self.paused = paused     # seconds spent outside the program so far, such as probes
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.stack = []          # open spans: [layer, start, child time, paused at start]
        self.dmus = set()        # (invocation, dmu) pairs evaluated
        self.dmu = None          # the DMU the outermost open model span evaluates
        self.invocation = 0
        self.seen = set()        # problem digests solved in this invocation, per DMU
        self.solves = self.pivots = self.columns = self.rows = 0
        self.repeats = self.errors = 0
        self._undo = []

    @contextmanager
    def span(self, layer):
        self.stack.append([layer, time.perf_counter(), 0.0, self.paused()])
        try:
            yield
        finally:
            layer, start, covered, paused = self.stack.pop()
            spent = time.perf_counter() - start - (self.paused() - paused)
            self.self_s[layer] += spent - covered
            self.calls[layer] += 1
            if self.stack:
                self.stack[-1][2] += spent

    def new_invocation(self):
        self.invocation += 1
        self.seen.clear()

    def _replace(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr, layer, dmu_arg=None):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            outer = dmu_arg is not None and self.dmu is None
            if outer:
                self.dmu = args[dmu_arg]
                self.dmus.add((self.invocation, self.dmu))
            try:
                with self.span(layer):
                    return original(*args, **kwargs)
            finally:
                if outer:
                    self.dmu = None

        self._replace(owner, attr, traced)

    def wrap_solver(self, owner, errors):
        original = owner.solve_lp

        @functools.wraps(original)
        def traced(problem, *args, **kwargs):
            self.solves += 1
            self.columns += problem.n_variables
            self.rows += problem.n_constraints
            try:
                with self.span("lp.solve"):
                    sol = original(problem, *args, **kwargs)
            except errors:
                self.errors += 1
                raise
            finally:
                key = (self.dmu, problem_digest(problem))
                self.repeats += key in self.seen
                self.seen.add(key)
            self.pivots += sol.iterations
            self.errors += sol.status != "optimal"
            return sol

        self._replace(owner, "solve_lp", traced)

    def install(self, package):
        """Wrap every layer boundary of the imported ``dea_mpss`` package."""
        cli, lp = package.cli, package.lp
        for attr, layer, dmu_arg in CLI_WRAPS:
            self.wrap(cli, attr, layer, dmu_arg)
        self.wrap(lp.LpProblem, "__init__", "lp.problem")
        errors = (package.SolverError, np.linalg.LinAlgError)
        self.wrap_solver(package.network, errors)
        self.wrap_solver(package.chain, errors)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def metrics(self, rounds: int, scale: float, overhead_pct: float) -> dict:
        """Per-layer figures; times are multiplied by the speed ``scale``."""
        ms = {k: v * 1e3 * scale for k, v in self.self_s.items()}
        dmus = max(len(self.dmus), 1)
        solves = max(self.solves, 1)

        def per_call(layer):
            return ms.get(layer, 0.0) / max(self.calls[layer], 1)

        values = {
            "network.build_ms": ms.get("network.build", 0.0) / dmus,
            "chain.build_ms": ms.get("chain.build", 0.0) / dmus,
            "lp.problem_ms": ms.get("lp.problem", 0.0) / dmus,
            "lp.solve_ms": ms.get("lp.solve", 0.0) / dmus,
            "lp.pivots": self.pivots / solves,
            "lp.columns": self.columns / solves,
            "lp.rows": self.rows / solves,
            "lp.solves": self.solves / dmus,
            "lp.repeat_solves": self.repeats / dmus,
            "lp.solver_errors": self.errors / max(rounds, 1),
            "data.load_ms": per_call("data.load"),
            "cli.self_ms": per_call("cli"),
            "cli.render_ms": per_call("cli.render"),
            "tandem.decompose_ms": per_call("tandem.decompose"),
            "rank_tests.kruskal_ms": per_call("rank_tests.kruskal"),
            "trace.overhead_pct": overhead_pct,
        }
        return {k: {"value": values[k], "unit": u} for k, u in METRICS.items()}
