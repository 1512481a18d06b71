"""In-memory spans around the library's public functions, for the traced run.

``Tracer.install`` replaces each traced function with a wrapper under every
name a caller looks it up by (``plc_opt.shard_revenue`` as well as
``revenue.shard_revenue``, ``cli.load_instance`` as well as
``model.load_instance``).  A wrapper records a span: name, start, end, the
enclosing span and the job it ran in.  The hottest leaves
(``clearing.desire``, ``revenue.linear_revenue``,
``revenue.extension_value``) are folded into their enclosing span as a call
count and a summed time instead, which keeps a traced pass to a few
thousand spans.  A span's self time is its duration minus its child spans
and folded leaves.

Where the program goes through a private helper, the public function doing
the same work is timed apart after each job, outside every span: for each
instance ``solve_plc`` saw, ``plc_opt.build_pricing_lp`` (the LP build) and
``lp.check_feasible`` on its result (simplex phase 1).
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

from datamarket import cli, clearing, demand, fixtures, linear_opt, lp, model, plc_opt, revenue

perf = time.perf_counter

#: (span name, fold into parent, [(module, attribute), ...])
TRACED = (
    ("lp.solve", False, [(lp, "solve_lp")]),
    ("plc_opt.solve_plc", False, [(plc_opt, "solve_plc")]),
    ("plc_opt.extract_allocation", False, [(plc_opt, "extract_allocation")]),
    ("revenue.shard_revenue", False, [(plc_opt, "shard_revenue"), (revenue, "shard_revenue")]),
    ("revenue.linear_revenue", True, [(linear_opt, "linear_revenue"),
                                      (revenue, "linear_revenue")]),
    ("revenue.extension_value", True, [(linear_opt, "extension_value"),
                                       (revenue, "extension_value")]),
    ("demand.optimal_demand", False, [(plc_opt, "optimal_demand"), (demand, "optimal_demand"),
                                      (cli, "optimal_demand")]),
    ("linear_opt.greedy", False, [(linear_opt, "greedy")]),
    ("linear_opt.rgreedy", False, [(linear_opt, "randomized_greedy")]),
    ("linear_opt.cgreedy", False, [(linear_opt, "continuous_greedy")]),
    ("linear_opt.exact", False, [(linear_opt, "exact_bruteforce")]),
    ("clearing.clearabilize", False, [(clearing, "clearabilize")]),
    ("clearing.potential", False, [(clearing, "potential")]),
    ("clearing.is_clearable", False, [(clearing, "is_clearable")]),
    ("clearing.allocation", False, [(clearing, "clearing_allocation")]),
    ("clearing.desire", True, [(clearing, "desire")]),
    ("fixtures.gen", False, [(fixtures, name) for name in (
        "gen_random", "gen_sepgap", "gen_lingap", "gen_vertex_cover", "gen_greedy_tight",
        "gen_greedy_suboptimal")]),
    ("model.validate", False, [(model, "validate_instance")]),
    ("model.load_instance", False, [(cli, "load_instance"), (model, "load_instance")]),
    ("cli.main", False, [(cli, "main")]),
)

#: Per-layer metrics: name -> unit.  Every one is reported on every workload.
PER_LAYER = {
    "lp.solve_s": "s", "lp.phase1_s": "s", "lp.rows": "count", "lp.cols": "count",
    "plc_opt.build_s": "s", "plc_opt.assemble_s": "s",
    "linear_opt.greedy_s": "s", "linear_opt.rgreedy_s": "s", "linear_opt.cgreedy_s": "s",
    "linear_opt.exact_s": "s", "linear_opt.exact_grid_points": "count",
    "revenue.linear_revenue_s": "s", "revenue.linear_revenue_calls": "count",
    "revenue.extension_value_s": "s", "revenue.extension_value_calls": "count",
    "revenue.shard_revenue_s": "s",
    "demand.optimal_demand_s": "s", "demand.optimal_demand_calls": "count",
    "clearing.clearabilize_s": "s", "clearing.iterations": "count",
    "clearing.desire_s": "s", "clearing.desire_calls": "count",
    "clearing.potential_s": "s", "clearing.is_clearable_s": "s", "clearing.allocation_s": "s",
    "clearing.desire_calls_per_iteration": "calls/iter",
    "fixtures.gen_s": "s", "model.validate_s": "s",
    "cli.import_s": "s", "cli.main_s": "s", "model.load_instance_s": "s",
}


class Tracer:
    def __init__(self):
        # one row per span: [name, start, end, parent index, job, folded seconds]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.open = Counter()          # span name -> how many are open
        # leaf name -> [calls, seconds, calls made inside clearing.clearabilize]
        self.folded = defaultdict(lambda: [0, 0.0, 0])
        self.job = -1
        self.record = True
        self.extra = Counter()         # measured apart, outside every span
        self.build_by_span: dict[int, float] = {}
        self._plc_seen: list[tuple[int, object]] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        for name, fold, sites in TRACED:
            wrappers = {}  # one wrapper per function, however many names it has
            for module, attr in sites:
                original = getattr(module, attr)
                if id(original) not in wrappers:
                    make = self._leaf if fold else self._span
                    wrappers[id(original)] = make(name, original)
                self._originals.append((module, attr, original))
                setattr(module, attr, wrappers[id(original)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _span(self, name, fn):
        spans, stack, open_ = self.spans, self.stack, self.open

        def wrapper(*args, **kwargs):
            if not self.record:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, perf(), 0.0, stack[-1] if stack else -1, self.job, 0.0])
            stack.append(idx)
            open_[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf()
                stack.pop()
                open_[name] -= 1
            self._on_return(name, idx, args, result)
            return result

        return wrapper

    def _leaf(self, name, fn):
        spans, stack, open_ = self.spans, self.stack, self.open
        agg = self.folded[name]

        def wrapper(*args, **kwargs):
            if not self.record:
                return fn(*args, **kwargs)
            t = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t
                agg[0] += 1
                agg[1] += dt
                if stack:
                    spans[stack[-1]][5] += dt
                if open_["clearing.clearabilize"]:
                    agg[2] += 1

        return wrapper

    def _on_return(self, name, idx, args, result) -> None:
        if name == "plc_opt.solve_plc":
            self._plc_seen.append((idx, args[0]))
        elif name == "clearing.clearabilize":
            self.extra["clearing.iterations"] += result.iterations
        elif name == "linear_opt.exact":
            self.extra["linear_opt.exact_grid_points"] += result.diagnostics["grid_points"]

    # -- per job ------------------------------------------------------------

    def begin_job(self, k: int, record: bool = True) -> None:
        self.job, self.record = k, record

    def end_job(self) -> None:
        """Time the public stand-ins for private helpers, outside every span."""
        self.job, self.record = -1, True
        for idx, inst in self._plc_seen:
            t = perf()
            problem = plc_opt.build_pricing_lp(inst)
            built = perf() - t
            t = perf()
            lp.check_feasible(problem)
            self.extra["lp.phase1_s"] += perf() - t
            self.extra["plc_opt.build_s"] += built
            self.extra["lp.rows"] += len(problem.constraints)
            self.extra["lp.cols"] += problem.num_variables
            self.build_by_span[idx] = built
        self._plc_seen.clear()

    def add(self, metric: str, value: float) -> None:
        self.extra[metric] += value

    # -- results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _job, _folded in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - child[i] - s[5] for i, s in enumerate(self.spans)]

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics for one pass of the job list (totals / passes)."""
        inclusive = Counter()
        calls = Counter()
        setup = Counter()  # spans outside every job: the process's set-up
        for name, start, end, _parent, job, _folded in self.spans:
            inclusive[name] += end - start
            calls[name] += 1
            if job < 0:
                setup[name] += end - start
        own = self.self_times()
        assemble = sum(own[i] - self.build_by_span.get(i, 0.0)
                       for i, s in enumerate(self.spans) if s[0] == "plc_opt.solve_plc")
        main_self = sum(own[i] for i, s in enumerate(self.spans) if s[0] == "cli.main")
        for name, (count, seconds, _) in self.folded.items():
            inclusive[name] += seconds
            calls[name] += count
        iterations = self.extra["clearing.iterations"]
        desire_in_loop = self.folded["clearing.desire"][2]
        out = {
            "lp.solve_s": inclusive["lp.solve"],
            "plc_opt.assemble_s": assemble,
            "linear_opt.greedy_s": inclusive["linear_opt.greedy"],
            "linear_opt.rgreedy_s": inclusive["linear_opt.rgreedy"],
            "linear_opt.cgreedy_s": inclusive["linear_opt.cgreedy"],
            "linear_opt.exact_s": inclusive["linear_opt.exact"],
            "revenue.linear_revenue_s": inclusive["revenue.linear_revenue"],
            "revenue.linear_revenue_calls": calls["revenue.linear_revenue"],
            "revenue.extension_value_s": inclusive["revenue.extension_value"],
            "revenue.extension_value_calls": calls["revenue.extension_value"],
            "revenue.shard_revenue_s": inclusive["revenue.shard_revenue"],
            "demand.optimal_demand_s": inclusive["demand.optimal_demand"],
            "demand.optimal_demand_calls": calls["demand.optimal_demand"],
            "clearing.clearabilize_s": inclusive["clearing.clearabilize"],
            "clearing.desire_s": inclusive["clearing.desire"],
            "clearing.desire_calls": calls["clearing.desire"],
            "clearing.potential_s": inclusive["clearing.potential"],
            "clearing.is_clearable_s": inclusive["clearing.is_clearable"],
            "clearing.allocation_s": inclusive["clearing.allocation"],
            "clearing.desire_calls_per_iteration":
                desire_in_loop / iterations if iterations else 0.0,
            "fixtures.gen_s": setup["fixtures.gen"],
            "model.validate_s": setup["model.validate"],
            "cli.main_s": main_self,
            "model.load_instance_s": inclusive["model.load_instance"],
        }
        for key in ("lp.phase1_s", "lp.rows", "lp.cols", "plc_opt.build_s",
                    "linear_opt.exact_grid_points", "clearing.iterations", "cli.import_s"):
            out[key] = self.extra[key]
        # set-up runs once per process and the ratio is per iteration;
        # everything else is summed over passes
        once = ("fixtures.gen_s", "model.validate_s", "clearing.desire_calls_per_iteration")
        per_pass = {k: v if k in once else v / passes for k, v in out.items()}
        assert set(per_pass) == set(PER_LAYER), set(per_pass) ^ set(PER_LAYER)
        return per_pass

    def overhead(self, total_job_seconds: float) -> dict:
        """Wrapper cost per call, measured on a no-op, times the calls made,
        as a share of the traced jobs' wall time."""
        def noop():
            return None

        probe = Tracer()
        span, leaf = probe._span("probe", noop), probe._leaf("probe", noop)
        probe.spans.append(["open", 0.0, 0.0, -1, -1, 0.0])  # leaves inside a span,
        probe.stack.append(0)                               # as in a traced pass
        reps = 20000
        costs = {}
        for label, fn in (("bare", noop), ("span", span), ("leaf", leaf)):
            t = perf()
            for _ in range(reps):
                fn()
            costs[label] = (perf() - t) / reps
        n_spans = len(self.spans)
        n_leaves = sum(c for c, _, _ in self.folded.values())
        est = n_spans * (costs["span"] - costs["bare"]) + n_leaves * (costs["leaf"] - costs["bare"])
        return {"spans": n_spans, "folded_calls": n_leaves,
                "span_cost_s": costs["span"] - costs["bare"],
                "leaf_cost_s": costs["leaf"] - costs["bare"],
                "estimated_s": est,
                "share_of_job_time": est / total_job_seconds if total_job_seconds else 0.0}

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, job, folded in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job,
                                     "folded_s": folded}) + "\n")
            for name, (count, seconds, _) in sorted(self.folded.items()):
                fh.write(json.dumps({"folded": name, "calls": count, "seconds": seconds}) + "\n")
