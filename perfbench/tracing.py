"""Layer-boundary tracing for the benchmark's traced runs.

The library is not edited.  ``Tracer.install`` replaces the library's public
functions with timing and counting wrappers at every name through which they
are looked up (``sustain.driver.estimate`` as well as
``sustain.hypergrad.estimate``), wraps ``SampleToken.rng`` on the class, and
wraps the instance methods of each oracle built through
``sustain.harness.make_problem`` together with the Hessian-vector-product
closures those methods return.  ``Tracer.uninstall`` puts every original
back.

Each wrapper opens a span on a stack.  A span's self time is its duration
minus the duration of the spans it encloses, so the self times of all layers
plus the time spent outside any span add up to the traced wall time.  Spans
and counters are aggregated per (optimizer run, layer), never stored one by
one, so memory does not grow with the number of iterations.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

ALGORITHMS = ("sustain", "alternating", "two_timescale", "double_loop")
_BASELINE_NAMES = {
    "AlternatingSGD": "alternating",
    "TwoTimescale": "two_timescale",
    "DoubleLoop": "double_loop",
}
CAPABILITIES = (
    "grad_x_f_sample",
    "grad_y_f_sample",
    "grad_y_g_sample",
    "hess_xy_g_sample",
    "hess_yy_g_sample",
)
_EXACT_METHODS = (
    "y_star", "ell", "grad_ell", "surrogate_grad", "grad_y_g_mean",
    "grad_x_f_mean", "grad_y_f_mean", "neumann_expectation",
)
_ABSENT = object()


class _Frame:
    __slots__ = ("layer", "start", "child", "evals")

    def __init__(self, layer: str):
        self.layer = layer
        self.child = 0.0
        self.evals = 0
        self.start = time.perf_counter()


class _Run:
    """Counters of one optimizer call; the path sets are dropped at its end."""

    def __init__(self, index: int, algorithm: str):
        self.index = index
        self.algorithm = algorithm
        self.counts: Counter = Counter()
        self.rng_paths: set = set()
        self.sample_paths: set = set()


class Tracer:
    def __init__(self, sustain):
        self._sustain = sustain
        self._stack: list[_Frame] = []
        self._patches: list[tuple] = []
        self._run: _Run | None = None
        self.runs: list[_Run] = []
        # (run index or -1 outside optimizer calls, layer) -> [spans, self s]
        self.spans: dict = defaultdict(lambda: [0, 0.0])

    # -- spans ---------------------------------------------------------------

    def _push(self, layer: str) -> _Frame:
        frame = _Frame(layer)
        self._stack.append(frame)
        return frame

    def _pop(self, frame: _Frame) -> None:
        elapsed = time.perf_counter() - frame.start
        self._stack.pop()
        agg = self.spans[(self._run.index if self._run else -1, frame.layer)]
        agg[0] += 1
        agg[1] += elapsed - frame.child
        if self._stack:
            self._stack[-1].child += elapsed

    def _note_evaluation(self) -> None:
        """Count an oracle evaluation made directly by a momentum update."""
        if self._stack and self._stack[-1].layer == "momentum":
            self._stack[-1].evals += 1

    def _count(self, name: str, n: int = 1) -> None:
        if self._run is not None:
            self._run.counts[name] += n

    def span(self, layer: str, fn):
        def wrapper(*args, **kwargs):
            frame = self._push(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._pop(frame)

        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, name: str, make_wrapper) -> None:
        if not hasattr(owner, name):
            print(f"trace: {getattr(owner, '__name__', owner)}.{name} not found; "
                  "boundary not traced", file=sys.stderr)
            return
        before = vars(owner).get(name, _ABSENT)
        setattr(owner, name, make_wrapper(getattr(owner, name)))
        self._patches.append((owner, name, before))

    def install(self) -> None:
        s = self._sustain
        self._patch(s.sampling.SampleToken, "rng", self._wrap_rng)
        self._patch(s.hypergrad, "draw_k", self._wrap_draw_k)
        for module in (s.hypergrad, s.momentum, s.driver):
            self._patch(module, "estimate", self._wrap_estimate)
        for name in ("update_f", "update_g", "update_f_single_eval"):
            self._patch(s.driver, name, self._wrap_update)
        for name in ("practical_params", "nonconvex_params", "nonconvex_constants",
                     "strongly_convex_params"):
            self._patch(s.driver, name, lambda fn: self.span("schedules", fn))
        self._patch(s.driver, "estimator_errors", lambda fn: self.span("records", fn))
        for module in (s.driver, s.harness, s.cli):
            self._patch(module, "run_sustain", lambda fn: self._wrap_run(fn, False))
            self._patch(module, "run_baseline", lambda fn: self._wrap_run(fn, True))
        self._patch(s.harness, "write_trajectory_csv", lambda fn: self.span("csv", fn))
        self._patch(s.harness, "make_problem", self._wrap_make_problem)
        self._patch(s.cli, "run_grid", lambda fn: self.span("grid", fn))
        self._patch(s.cli, "main", lambda fn: self.span("cli", fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, before = self._patches.pop()
            if before is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, before)

    # -- wrappers ------------------------------------------------------------

    def _wrap_rng(self, fn):
        def rng(token):
            if self._run is not None:
                self._run.counts["rng"] += 1
                self._run.rng_paths.add(token.path)
            frame = self._push("sampling")
            try:
                return fn(token)
            finally:
                self._pop(frame)

        return rng

    def _wrap_draw_k(self, fn):
        def draw_k(cfg, token):
            k = fn(cfg, token)
            if self._run is not None:
                self._run.counts["draw_k"] += 1
                self._run.counts["k_sum"] += k
                self._run.sample_paths.add(("draw_k",) + token.path)
            return k

        return draw_k

    def _wrap_estimate(self, fn):
        def estimate(*args, **kwargs):
            self._note_evaluation()
            frame = self._push("hypergrad")
            try:
                out = fn(*args, **kwargs)
            finally:
                self._pop(frame)
            self._count("estimate")
            self._count("hvps_reported", out.hvp_count)
            return out

        return estimate

    def _wrap_update(self, fn):
        def update(*args, **kwargs):
            frame = self._push("momentum")
            try:
                return fn(*args, **kwargs)
            finally:
                self._pop(frame)
                self._count("updates")
                self._count("second_evals", max(frame.evals - 1, 0))

        return update

    def _wrap_run(self, fn, baseline: bool):
        def run(oracle, exact, cfg, *rest, **kwargs):
            algorithm = "sustain"
            if baseline:
                kind = type(rest[0] if rest else kwargs["kind"]).__name__
                algorithm = _BASELINE_NAMES.get(kind, kind)
            self._run = _Run(len(self.runs), algorithm)
            self.runs.append(self._run)
            frame = self._push("driver")
            out = None
            try:
                out = fn(oracle, exact, cfg, *rest, **kwargs)
            finally:
                self._pop(frame)
                self._end_run(cfg, out)
            return out

        return run

    def _end_run(self, cfg, out) -> None:
        run, self._run = self._run, None
        c = run.counts
        c["iters"] = cfg.T
        c["distinct_rng_paths"] = len(run.rng_paths)
        records = out[1] if out is not None else []
        c["records"] = len(records)
        if records:
            c["hvps_count_gap"] = c["hvp_actions"] - records[-1].cumulative_hvps
            c["samples_count_gap"] = len(run.sample_paths) - records[-1].cumulative_samples
        run.rng_paths.clear()
        run.sample_paths.clear()

    def _wrap_make_problem(self, fn):
        def make_problem(cfg):
            frame = self._push("make_problem")
            try:
                oracle, exact = fn(cfg)
            finally:
                self._pop(frame)
            self._instrument(oracle, exact)
            return oracle, exact

        return make_problem

    def _instrument(self, oracle, exact) -> None:
        for name in CAPABILITIES:
            self._patch(oracle, name, lambda fn, name=name: self._wrap_capability(name, fn))
        if hasattr(oracle, "upper_loss"):
            self._patch(oracle, "upper_loss", lambda fn: self.span("records", fn))
        if exact is not None:
            for name in _EXACT_METHODS:
                self._patch(exact, name, lambda fn: self.span("records", fn))

    def _wrap_capability(self, name: str, fn):
        is_hessian = name.startswith("hess_")
        is_lower_gradient = name == "grad_y_g_sample"

        def capability(pair, token):
            if is_lower_gradient:
                self._note_evaluation()
            if self._run is not None:
                self._run.counts["cap." + name] += 1
                self._run.sample_paths.add(token.path)
            frame = self._push("testbed")
            try:
                out = fn(pair, token)
            finally:
                self._pop(frame)
            return self._wrap_action(out) if is_hessian else out

        return capability

    def _wrap_action(self, action):
        def hvp(v):
            self._count("hvp_actions")
            frame = self._push("testbed")
            try:
                return action(v)
            finally:
                self._pop(frame)

        return hvp

    # -- results -------------------------------------------------------------

    def open_spans(self) -> int:
        return len(self._stack)

    def self_seconds(self, layer: str | None = None) -> float:
        """Self time of one layer, or of every layer."""
        return sum(agg[1] for (_, name), agg in self.spans.items()
                   if layer in (None, name))

    def metrics(self) -> dict:
        """Per-layer counts and self times over every traced optimizer run."""
        total = Counter()
        by_alg = defaultdict(Counter)
        for run in self.runs:
            total.update(run.counts)
            by_alg[run.algorithm].update(run.counts)
        iters = max(total["iters"], 1)
        runs = max(len(self.runs), 1)
        m = {
            "sampling.rng_calls_per_iter": total["rng"] / iters,
            "sampling.rng_self_s": self.self_seconds("sampling"),
            "sampling.distinct_token_ratio":
                total["distinct_rng_paths"] / max(total["rng"], 1),
            "hypergrad.estimate_calls_per_iter": total["estimate"] / iters,
            "hypergrad.draw_k_calls_per_iter": total["draw_k"] / iters,
            "hypergrad.hvps_per_iter": total["hvps_reported"] / iters,
            "hypergrad.k_mean": total["k_sum"] / max(total["draw_k"], 1),
            "hypergrad.estimate_self_s": self.self_seconds("hypergrad"),
        }
        for name in CAPABILITIES:
            m[f"testbed.calls.{name}"] = total["cap." + name] / iters
        m.update({
            "testbed.hvp_actions_per_iter": total["hvp_actions"] / iters,
            "testbed.self_s": self.self_seconds("testbed"),
            "momentum.update_self_s": self.self_seconds("momentum"),
            "momentum.second_eval_ratio":
                total["second_evals"] / max(total["updates"], 1),
            "schedules.self_s": self.self_seconds("schedules"),
            "driver.self_s": self.self_seconds("driver"),
            "driver.records_per_run": total["records"] / runs,
            "driver.records_s": self.self_seconds("records"),
            "driver.hvps_count_gap": total["hvps_count_gap"],
            "driver.samples_count_gap": total["samples_count_gap"],
            "harness.csv_write_s": self.self_seconds("csv"),
            "harness.grid_self_s": self.self_seconds("grid"),
            "harness.make_problem_s": self.self_seconds("make_problem"),
            "cli.self_s": self.self_seconds("cli"),
        })
        for alg in ALGORITHMS:
            c = by_alg[alg]
            alg_iters = max(c["iters"], 1)
            m[f"sampling.rng_calls_per_iter.{alg}"] = c["rng"] / alg_iters
            m[f"hypergrad.draw_k_calls_per_iter.{alg}"] = c["draw_k"] / alg_iters
            m[f"testbed.hvp_actions_per_iter.{alg}"] = c["hvp_actions"] / alg_iters
        return m

