"""The four workloads' job lists, built from the program's own generators.

A job is one closed-loop call into the library (or one CLI subprocess).
``run`` is the timed part; ``summary`` turns its raw result into plain JSON
for the checks in ``run.py`` and is never timed.  Every list is fixed by the
workload seed: job ``k`` of seed ``s`` draws its instance from
``gen_random(..., seed=s * 1000 + k)`` and its posted prices or curves from
``default_rng([s, k])``.  The unit-scaled fault jobs of
``plc_ladder`` use fixed seeds, so they fail the same way for every seed.

Library functions are looked up on their modules at call time
(``plc_opt.solve_plc``, not a name bound at import), so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import numpy as np

from datamarket import clearing, demand, fixtures, linear_opt, model, plc_opt

#: Unit-scaled copies of gen_random(15, 8, seed) that the program gets wrong
#: today: (scale, seed, what goes wrong).  Absolute tolerances applied to
#: money cause all three.
FAULT_JOBS = (
    (1e-8, 0, "returns 2.3% below the optimum"),
    (1e-8, 4, "ValidationError: shard sizes sum to 3.06"),
    (1e8, 5, "RuntimeError: revenue mismatch"),
)


class Job:
    """One timed call.  ``ref`` holds what the checks need besides the
    output: the instance or market, and closed forms where they exist.

    ``reps`` is how often one pass runs the job, fixed per rung: a job of a
    few milliseconds is timed several times a pass, spread over the pass,
    so that its time is not one sample's luck."""

    expect_fault = False
    py_weight = None  # calibration weight; None takes the workload's

    def __init__(self, name: str, reps: int = 1, **ref):
        self.name = name
        self.reps = reps
        self.ref = ref

    def run(self):
        raise NotImplementedError

    def summary(self, raw) -> dict:
        raise NotImplementedError


def _curves(shards) -> list:
    return [[list(s) for s in curve.shards] for curve in shards]


def _bundles(bundles, num_items) -> dict:
    most = [0.0] * num_items
    lo, hi = 0.0, 0.0
    for b in bundles:
        for j, x in enumerate(b.fractions):
            most[j] = max(most[j], x)
            lo, hi = min(lo, x), max(hi, x)
    return {"payments": [b.payment for b in bundles], "max_fraction": most,
            "fraction_range": [lo, hi]}


# --------------------------------------------------------------------------
# plc_ladder: solve_plc, extract_allocation, shard clearing
# --------------------------------------------------------------------------

class PlcJob(Job):
    def __init__(self, name, inst, reps=1, **ref):
        super().__init__(name, reps, inst=inst, **ref)
        self.inst = inst

    def run(self):
        inst = self.inst
        sol = plc_opt.solve_plc(inst)
        alloc = plc_opt.extract_allocation(inst, sol.shards)
        mkt = clearing.shards_to_items(inst, sol.shards)
        cleared = clearing.clearabilize(mkt)
        final = clearing.clearing_allocation(mkt, cleared.prices)
        return sol, alloc, mkt, cleared, final

    def summary(self, raw):
        sol, alloc, mkt, cleared, final = raw
        return {
            "curves": _curves(sol.shards),
            "per_buyer_revenue": list(sol.per_buyer_revenue),
            "total_revenue": sol.total_revenue,
            "positive_shard_count": sol.positive_shard_count,
            "allocation": {"total": alloc.total_revenue,
                           **_bundles(alloc.bundles, self.inst.m)},
            "clearing": {
                "prices_before": list(mkt.prices),
                "prices_after": list(cleared.prices),
                "iterations": cleared.iterations,
                "allocation_total": final.total_revenue,
                **_bundles(final.bundles, mkt.num_items),
            },
        }


class PlcFaultJob(PlcJob):
    expect_fault = True


def _scaled(inst, c):
    return model.Instance.make([b * c for b in inst.budgets],
                               [[v * c for v in row] for row in inst.values])


def plc_ladder(seed: int) -> list[Job]:
    # (n, m, budget scales, instances per scale, reps).  Budgets bind at
    # scale 0.25 and are slack at 16.  Near scale 4 the LP's pivot count
    # varies most between instances (0.1 to 0.9 s at 30x15), and slack
    # budgets at 40x20 take 0.45 to 1.5 s, so those regimes run at 20x10 and
    # 30x15, where no single instance dominates a pass.  The binding 30x15
    # instances sit where the median job falls, and fourteen 60x30 ones at
    # scale 0.25, the largest jobs, where the tail job falls.  Binding
    # budgets at 40x20 and 60x30 because their LP times vary least between
    # seeds: over seeds 21-30 a rung's summed time had a standard deviation
    # of 35% (40x20) and 10% (60x30) of its mean at scales 1 and 0.5, and
    # of 19% and 6% at 0.25.
    rungs = [
        (10, 5, (0.25, 1.0, 4.0, 16.0), 2, 4),
        (20, 10, (0.25, 1.0), 4, 4),
        (20, 10, (4.0, 16.0), 2, 1),
        (30, 15, (0.25,), 6, 4),
        (30, 15, (1.0, 16.0), 2, 1),
        (40, 20, (0.25,), 4, 1),
        (60, 30, (0.25,), 14, 1),
    ]
    jobs: list[Job] = []
    k = 0
    for n, m, scales, count, reps in rungs:
        for bs in scales:
            for _ in range(count):
                inst = fixtures.gen_random(n, m, seed * 1000 + k, budget_scale=bs)
                jobs.append(PlcJob(f"plc {n}x{m} b{bs:g} #{k}", inst, reps))
                # a small LP's time is the interpreter's, a large one's the pivots'
                jobs[-1].py_weight = 0.5 if n <= 30 else 0.0
                k += 1
    for mm, kk in ((4, 3), (6, 5)):
        jobs.append(PlcJob(f"sepgap m={mm} k={kk}", fixtures.gen_sepgap(mm, kk), 4,
                           closed_form=max(kk + 1, mm)))
    for nn in (5, 9):
        inst = fixtures.gen_lingap(nn, 0.01)
        jobs.append(PlcJob(f"lingap n={nn}", inst, 4, closed_form=sum(inst.budgets)))
    for edges in (((0, 1), (1, 2), (0, 2)), ((0, 1), (1, 2), (2, 3), (3, 0))):
        jobs.append(PlcJob(f"vc {len(edges)} edges", fixtures.gen_vertex_cover(edges), 4))
    for scale, s, what in FAULT_JOBS:
        inst = _scaled(fixtures.gen_random(15, 8, s), scale)
        jobs.append(PlcFaultJob(f"unit-scale x{scale:g} seed {s}", inst, 4, fault=what))
    return jobs


# --------------------------------------------------------------------------
# linear_ladder: greedy, randomized_greedy, continuous_greedy, exact
# --------------------------------------------------------------------------

class LinearJob(Job):
    def __init__(self, name, inst, method, reps=1, closed_form=None, **kw):
        ref = {} if closed_form is None else {"closed_form": closed_form}
        super().__init__(name, reps, inst=inst, method=method, **ref)
        self.inst, self.method, self.kw = inst, method, kw

    def run(self):
        return getattr(linear_opt, self.method)(self.inst, **self.kw)

    def summary(self, sol):
        return {"prices": list(sol.prices), "partition": list(sol.partition),
                "revenue": sol.revenue, "grid_points": sol.diagnostics.get("grid_points", 0)}


def linear_ladder(seed: int) -> list[Job]:
    jobs: list[Job] = []
    k = 0

    def inst_for(n, m):
        # budgets up to m/4 bind for some buyers and not for others, so the
        # methods' revenue differs from the optimum's
        nonlocal k
        k += 1
        return fixtures.gen_random(n, m, seed * 1000 + k, budget_scale=m / 4)

    for n, m, count in ((40, 20, 3), (60, 30, 1)):
        for _ in range(count):
            jobs.append(LinearJob(f"greedy {n}x{m}", inst_for(n, m), "greedy"))
            jobs.append(LinearJob(f"rgreedy {n}x{m}", inst_for(n, m), "randomized_greedy",
                                  seed=seed))
    for _ in range(2):
        jobs.append(LinearJob("cgreedy 60x30", inst_for(60, 30), "continuous_greedy",
                              steps=3, samples=16, roundings=8, seed=seed))
    # memory peaks at samples x n x n*m floats whatever the step count, so
    # two steps keep the peak while holding the job's share of a pass down:
    # its two OpenBLAS threads meet the other tenants on both cores
    jobs.append(LinearJob("cgreedy 100x50", inst_for(100, 50), "continuous_greedy",
                          steps=2, samples=32, roundings=8, seed=seed))
    # exact on value grids of 4^5 ... 8^6 points, each paired with greedy on
    # the same instance so that greedy >= exact / 2 is checked per seed
    for n, m in ((4, 5), (5, 5), (6, 5), (4, 6), (5, 6), (6, 6), (7, 6), (8, 6)):
        for _ in range(2):
            inst = inst_for(n, m)
            reps = 1 if n * m >= 42 else 6
            jobs.append(LinearJob(f"exact {n}^{m}", inst, "exact_bruteforce", reps))
            jobs.append(LinearJob(f"greedy {n}x{m}", inst, "greedy", reps))
    tight_n, tight_eps = 9, 1e-3
    tight = fixtures.gen_greedy_tight(tight_n, tight_eps)
    jobs.append(LinearJob("exact greedytight", tight, "exact_bruteforce", 6,
                          closed_form=2 * tight_n))
    jobs.append(LinearJob("greedy greedytight", tight, "greedy", 6,
                          closed_form=(tight_n + 1) * (1 + tight_eps)))
    sub = fixtures.gen_greedy_suboptimal()
    jobs.append(LinearJob("exact greedysub", sub, "exact_bruteforce", 6, closed_form=1.3))
    jobs.append(LinearJob("greedy greedysub", sub, "greedy", 6, closed_form=1.2))
    for edges, cover in ((((0, 1), (1, 2), (0, 2)), 2), (((0, 1), (1, 2), (2, 3)), 2)):
        inst = fixtures.gen_vertex_cover(edges)
        t = sum(1 for row in inst.values if all(v == 1.0 for v in row))
        big = max(max(row) for row in inst.values)
        jobs.append(LinearJob(f"exact vc {len(edges)} edges", inst, "exact_bruteforce", 6,
                              closed_form=len(edges) * big + t * (inst.m - cover)))
    return jobs


# --------------------------------------------------------------------------
# posted_clearing: per-buyer revenue, optimal_demand, clearabilize, allocation
# --------------------------------------------------------------------------

class ClearingJob(Job):
    def __init__(self, name, inst, shards, mkt):
        super().__init__(name, inst=inst, market=mkt)
        self.inst, self.shards, self.mkt = inst, shards, mkt

    def run(self):
        mkt = self.mkt
        before = clearing.per_buyer_revenue(mkt)
        bundles = [demand.optimal_demand(self.inst, i, self.shards) for i in range(self.inst.n)]
        cleared = clearing.clearabilize(mkt)
        after = clearing.per_buyer_revenue(mkt, cleared.prices)
        final = clearing.clearing_allocation(mkt, cleared.prices)
        return before, bundles, cleared, after, final

    def summary(self, raw):
        before, bundles, cleared, after, final = raw
        return {
            "revenue_before": list(before),
            "revenue_after": list(after),
            "demand": _bundles(bundles, self.inst.m),
            "prices_after": list(cleared.prices),
            "iterations": cleared.iterations,
            "allocation_total": final.total_revenue,
            **_bundles(final.bundles, self.mkt.num_items),
        }


def _posted_curves(inst, rng):
    """Two or three shards per dataset, slopes drawn from buyer values."""
    curves = []
    for j in range(inst.m):
        k = int(rng.integers(2, 4))
        owners = rng.choice(inst.n, size=k, replace=False)
        sizes = rng.dirichlet(np.ones(k))
        curves.append(model.ShardCurve.from_pairs(
            [(float(s), inst.values[int(o)][j]) for s, o in zip(sizes, owners)]))
    return tuple(curves)


def posted_clearing(seed: int) -> list[Job]:
    jobs: list[Job] = []
    rungs = ((100, 50, 1.0, 13), (100, 50, 4.0, 13), (150, 75, 1.0, 2), (200, 100, 1.0, 1))
    k = 0
    for n, m, bs, count in rungs:
        for _ in range(count):
            inst = fixtures.gen_random(n, m, seed * 1000 + k, budget_scale=bs)
            rng = np.random.default_rng([seed, k])  # apart from the instance's stream
            part = tuple(int(x) for x in rng.integers(0, n, m))
            prices = model.partition_prices(inst, part)
            jobs.append(ClearingJob(f"posted prices {n}x{m} b{bs:g} #{k}", inst,
                                    model.prices_to_shardset(prices),
                                    clearing.market_from_prices(inst, prices)))
            k += 1
    for n, m, count in ((60, 30, 9), (100, 50, 2)):
        for _ in range(count):
            inst = fixtures.gen_random(n, m, seed * 1000 + k)
            shards = _posted_curves(inst, np.random.default_rng([seed, k]))
            jobs.append(ClearingJob(f"posted curves {n}x{m} #{k}", inst, shards,
                                    clearing.shards_to_items(inst, shards)))
            k += 1
    return jobs


# --------------------------------------------------------------------------
# cli_roundtrip: `python -m datamarket.cli` as a subprocess, one at a time
# --------------------------------------------------------------------------

CLI_CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")


class CliJob(Job):
    def __init__(self, name, argv, env, **ref):
        super().__init__(name, argv=argv, **ref)
        self.argv, self.env = argv, env

    def run(self):
        return subprocess.run([sys.executable, CLI_CHILD, *self.argv],
                              env=self.env, capture_output=True, timeout=120)

    def child_peak_mb(self) -> float:
        """The peak resident memory of the CLI process that just ran."""
        peak_file = self.env["PEAK_RSS_FILE"]
        with open(peak_file, encoding="ascii") as fh:
            kb = int(fh.read())
        os.unlink(peak_file)
        return kb / 1024.0

    def summary(self, proc):
        return {"returncode": proc.returncode,
                "stdout": proc.stdout.decode(),
                "stderr": proc.stderr.decode()[-2000:]}

    def fingerprint(self, proc) -> str:
        """Compared across passes and across the two copies of each argv."""
        return f"{proc.returncode}:{hashlib.sha256(proc.stdout).hexdigest()}"


def cli_roundtrip(seed: int, workdir: str, src: str) -> list[Job]:
    """Instance and price files are written once, at set-up; every distinct
    argv appears twice in the list so that byte-identical output is checked
    within one pass.  Each job runs the CLI module through ``cli_child.py``,
    which leaves the CLI process's peak memory in ``peak-rss.txt``."""
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env["PEAK_RSS_FILE"] = os.path.join(workdir, "peak-rss.txt")

    def path(name):
        return os.path.join(workdir, name)

    cases: list[tuple[str, list[str], dict]] = []
    for k, (n, m) in enumerate(((8, 4), (12, 6), (20, 10), (6, 5))):
        inst = fixtures.gen_random(n, m, seed * 1000 + k)
        f = path(f"random{k}.json")
        model.save_instance(inst, f)
        cases.append((f"solve-plc {n}x{m}", ["solve-plc", "--instance", f, "--allocate"],
                      {"inst": inst}))
        rng = np.random.default_rng([seed, k])
        part = tuple(int(x) for x in rng.integers(0, n, m))
        prices = model.partition_prices(inst, part)
        pf = path(f"prices{k}.json")
        model.save_prices(prices, pf)
        if k < 2:
            cases.append((f"clear {n}x{m}", ["clear", "--instance", f, "--prices", pf],
                          {"inst": inst, "prices": prices}))
            buyer = int(rng.integers(0, n))
            cases.append((f"demand {n}x{m}", ["demand", "--instance", f, "--prices", pf,
                                              "--buyer", str(buyer)],
                          {"inst": inst, "prices": prices, "buyer": buyer}))
        if m <= 5:
            cases.append((f"solve-linear exact {n}x{m}",
                          ["solve-linear", "--instance", f, "--method", "exact"],
                          {"inst": inst}))
        cases.append((f"solve-linear greedy {n}x{m}",
                      ["solve-linear", "--instance", f, "--method", "greedy"], {"inst": inst}))
    lingap = fixtures.gen_lingap(5, 0.01)
    model.save_instance(lingap, path("lingap.json"))
    cases.append(("solve-plc lingap", ["solve-plc", "--instance", path("lingap.json"),
                                       "--allocate"],
                  {"inst": lingap, "closed_form": sum(lingap.budgets)}))
    sepgap = fixtures.gen_sepgap(4, 3)
    model.save_instance(sepgap, path("sepgap.json"))
    cases.append(("solve-plc sepgap", ["solve-plc", "--instance", path("sepgap.json")],
                  {"inst": sepgap, "closed_form": 4}))
    for family, params in (("random", f"n=10,m=5,seed={seed}"), ("lingap", "n=7,eps=0.01"),
                           ("vc", "edges=0-1|1-2|2-3")):
        cases.append((f"gen {family}", ["gen", "--family", family, "--params", params,
                                        "--out", path(f"gen-{family}.json")],
                      {"family": family}))
    with open(path("malformed.json"), "w", encoding="utf-8") as fh:
        fh.write('{"budgets": [1.0, 2.0], "values": [[1.0, "x"]]}\n')
    cases.append(("malformed instance", ["solve-plc", "--instance", path("malformed.json")],
                  {"malformed": True}))
    jobs: list[Job] = []
    for name, argv, ref in cases + cases:
        jobs.append(CliJob(name, argv, env, **ref))
    return jobs


WORKLOADS = ("plc_ladder", "linear_ladder", "posted_clearing", "cli_roundtrip")


def build(workload: str, seed: int, workdir: str, src: str) -> list[Job]:
    if workload == "cli_roundtrip":
        return cli_roundtrip(seed, workdir, src)
    return {"plc_ladder": plc_ladder, "linear_ladder": linear_ladder,
            "posted_clearing": posted_clearing}[workload](seed)
