"""Per-job checks of the program's outputs against ``oracles``.

``check(job, summary, ref)`` returns ``(problems, ratio)``: a list of what
is wrong (empty when the output is right) and the job's revenue ratio, or
None for jobs without one.  ``references(jobs)`` computes every oracle value
the checks need; ``run.py`` calls it before any timed process starts.
"""

from __future__ import annotations

import json
import math

import numpy as np

import oracles
from oracles import rel_close


def _arrays(inst):
    return np.asarray(inst.budgets, dtype=float), np.asarray(inst.values, dtype=float)


def _item_arrays(mkt):
    return (np.asarray(mkt.budgets, dtype=float), np.asarray(mkt.values, dtype=float),
            np.asarray(mkt.prices, dtype=float))


def references(job_list) -> list[dict]:
    """Oracle values per job, shared between jobs on the same instance."""
    cache: dict[int, dict] = {}
    out = []
    for job in job_list:
        inst = job.ref.get("inst")
        if inst is None or "market" in job.ref:  # clearing is checked against itself
            out.append({})
            continue
        if id(inst) not in cache:
            b, v = _arrays(inst)
            ref = {"plc": oracles.plc_optimum(b, v)}
            if oracles.linear_grid_size(v) <= oracles.EXACT_GRID_CAP:
                ref["linear"] = oracles.linear_optimum(b, v)
            cache[id(inst)] = ref
        out.append(cache[id(inst)])
    return out


class _Problems(list):
    def need(self, ok, what: str) -> None:
        if not ok:
            self.append(what)


def _close_vec(a, b, scale) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= 1e-7 * max(scale, 1e-300)))


def _check_curves(p: _Problems, curves, v, n, m) -> None:
    p.need(len(curves) == m, f"{len(curves)} curves for {m} datasets")
    kinks = 0
    for j, curve in enumerate(curves):
        sizes = [s for s, _ in curve]
        slopes = [a for _, a in curve]
        kinks += len(curve)
        p.need(abs(sum(sizes) - 1.0) <= 1e-9 * len(curve), f"curve {j} sizes sum to {sum(sizes)}")
        p.need(all(s > 0 for s in sizes), f"curve {j} has a non-positive size")
        p.need(all(b > a for a, b in zip(slopes, slopes[1:])), f"curve {j} slopes not increasing")
        values = set(v[:, j].tolist())
        p.need(all(a in values for a in slopes), f"curve {j} has a slope that is no buyer value")
    p.need(kinks <= m + n, f"{kinks} shards exceed the vertex bound m + n = {m + n}")


def _check_prices(p: _Problems, prices, v) -> None:
    for j, price in enumerate(prices):
        p.need(price == 0.0 or price in set(v[:, j].tolist()),
               f"price {price} of dataset {j} is no buyer value")


def _check_clearing(p: _Problems, b, w, q0, q1, iterations, revenue_after, payments,
                    allocation_total, max_fraction) -> None:
    """Clearable, no price raised, no buyer's revenue lowered, bounded
    iterations, and an allocation that pays the cleared revenue in full."""
    scale = oracles.money_scale(b, w)
    n, items = w.shape
    q1 = np.asarray(q1, dtype=float)
    p.need(bool(np.all(q1 <= q0 + 1e-12 * scale)), "clearing raised a price")
    p.need(oracles.clearable(b, w, q1), "prices after clearing are not clearable")
    before = oracles.linear_revenue_per_buyer(b, w, q0)
    after = oracles.linear_revenue_per_buyer(b, w, q1)
    p.need(bool(np.all(after >= before - 1e-9 * scale)), "clearing lowered a buyer's revenue")
    bound = (items + 1) * (n + 1) ** 2
    p.need(iterations <= bound, f"{iterations} clearing iterations exceed {bound}")
    if revenue_after is not None:
        p.need(_close_vec(revenue_after, after, scale), "revenue after clearing is misreported")
    p.need(_close_vec(payments, after, scale), "clearing allocation payments != revenue")
    p.need(rel_close(allocation_total, float(after.sum())), "clearing allocation total != revenue")
    for j in np.nonzero(q1 > 1e-9 * scale)[0]:
        if max_fraction[j] < 1.0 - 1e-9:
            p.append(f"priced item {j} is not fully allocated")
            break


def _check_plc(job, s, ref):
    p = _Problems()
    b, v = _arrays(job.inst)
    n, m = v.shape
    scale = oracles.money_scale(b, v)
    want = job.ref.get("closed_form", ref["plc"])
    total = s["total_revenue"]
    p.need(rel_close(total, want), f"revenue {total} != optimum {want}")
    _check_curves(p, s["curves"], v, n, m)
    p.need(s["positive_shard_count"] == sum(len(c) for c in s["curves"]),
           "positive_shard_count disagrees with the curves")
    own = oracles.shard_revenue_per_buyer(b, v, s["curves"])
    p.need(_close_vec(s["per_buyer_revenue"], own, scale), "per-buyer revenue != curves' revenue")
    p.need(rel_close(total, float(own.sum())), "total revenue != curves' revenue")
    alloc = s["allocation"]
    p.need(_close_vec(alloc["payments"], own, scale), "allocation payments != revenue")
    p.need(rel_close(alloc["total"], total), "allocation total != total revenue")
    lo, hi = alloc["fraction_range"]
    p.need(lo >= 0.0 and hi <= 1.0 + 1e-9, "bundle fraction outside [0, 1]")
    c = s["clearing"]
    q0, w = oracles.items_from_curves(v, s["curves"])
    p.need(_close_vec(c["prices_before"], q0, scale), "shard items mispriced")
    _check_clearing(p, b, w, q0, c["prices_after"], c["iterations"], None, c["payments"],
                    c["allocation_total"], c["max_fraction"])
    return p, total / want


def _check_linear(job, s, ref):
    p = _Problems()
    b, v = _arrays(job.inst)
    prices, rev = s["prices"], s["revenue"]
    _check_prices(p, prices, v)
    for j, who in enumerate(s["partition"]):
        p.need((who is None and prices[j] == 0.0) or (who is not None and v[who, j] == prices[j]),
               f"partition entry {j} does not price dataset {j}")
    own = float(oracles.linear_revenue_per_buyer(b, v, prices).sum())
    p.need(rel_close(rev, own), f"revenue {rev} != {own} at its prices")
    p.need(rev <= ref["plc"] * (1 + 1e-7), f"linear revenue {rev} above the PLC optimum")
    exact = ref.get("linear")
    if exact is not None:
        p.need(rev <= exact * (1 + 1e-7), f"revenue {rev} above the linear optimum {exact}")
        p.need(exact <= ref["plc"] * (1 + 1e-7), "linear optimum above the PLC optimum")
        if job.method == "exact_bruteforce":
            p.need(rel_close(rev, exact), f"exact revenue {rev} != optimum {exact}")
            grid = math.prod(len({x for x in v[:, j].tolist() if x > 1e-9}) or 1
                             for j in range(v.shape[1]))
            p.need(s["grid_points"] == grid, f"grid_points {s['grid_points']} != {grid}")
        if job.method == "greedy":
            p.need(rev >= exact / 2 * (1 - 1e-9), f"greedy {rev} below half the optimum {exact}")
    if "closed_form" in job.ref:
        p.need(rel_close(rev, job.ref["closed_form"]),
               f"revenue {rev} != closed form {job.ref['closed_form']}")
    return p, rev / ref["plc"]


def _check_posted(job, s, ref):
    p = _Problems()
    b, w, q0 = _item_arrays(job.ref["market"])
    scale = oracles.money_scale(b, w)
    before = oracles.linear_revenue_per_buyer(b, w, q0)
    p.need(_close_vec(s["revenue_before"], before, scale), "per-buyer revenue != own sum")
    bi, vi = _arrays(job.inst)
    curves = [list(c.shards) for c in job.shards]
    wanted = oracles.shard_revenue_per_buyer(bi, vi, curves)
    p.need(_close_vec(wanted, before, scale), "item market does not preserve revenue")
    d = s["demand"]
    p.need(_close_vec(d["payments"], wanted, scale), "optimal_demand payment != min(budget, desire)")
    lo, hi = d["fraction_range"]
    p.need(lo >= 0.0 and hi <= 1.0 + 1e-9, "demand fraction outside [0, 1]")
    _check_clearing(p, b, w, q0, s["prices_after"], s["iterations"], s["revenue_after"],
                    s["payments"], s["allocation_total"], s["max_fraction"])
    return p, sum(s["revenue_after"]) / float(before.sum())


def _check_cli(job, s, ref):
    p = _Problems()
    argv, rc = job.argv, s["returncode"]
    if job.ref.get("malformed"):
        p.need(rc == 1, f"malformed input exited {rc}, not 1")
        p.need(any(line.startswith("error:") for line in s["stderr"].splitlines()),
               "malformed input printed no error: line")
        p.need("Traceback" not in s["stderr"], "malformed input printed a traceback")
        return p, None
    p.need(rc == 0, f"exit {rc}: {s['stderr'][-300:]}")
    if rc != 0:
        return p, None
    doc = json.loads(s["stdout"])
    cmd = argv[0]
    if cmd == "gen":
        p.need(doc["family"] == job.ref["family"], "gen reports another family")
        with open(doc["out"], encoding="utf-8") as fh:
            made = json.load(fh)
        p.need(len(made["budgets"]) == doc["n"] == len(made["values"]), "gen n mismatch")
        p.need(all(len(row) == doc["m"] for row in made["values"]), "gen m mismatch")
        return p, None
    inst = job.ref["inst"]
    b, v = _arrays(inst)
    n, m = v.shape
    scale = oracles.money_scale(b, v)
    if cmd == "solve-plc":
        want = job.ref.get("closed_form", ref["plc"])
        total = doc["total_revenue"]
        p.need(rel_close(total, want), f"revenue {total} != optimum {want}")
        curves = [[(sh["size"], sh["slope"]) for sh in c] for c in doc["curves"]]
        _check_curves(p, curves, v, n, m)
        own = oracles.shard_revenue_per_buyer(b, v, curves)
        if "allocation" in doc:
            pay = [bd["payment"] for bd in doc["allocation"]["bundles"]]
            p.need(_close_vec(pay, own, scale), "allocation payments != revenue")
            p.need(rel_close(doc["allocation"]["total_revenue"], total), "allocation total")
        return p, total / float(own.sum())
    if cmd == "solve-linear":
        prices, rev = doc["prices"], doc["revenue"]
        _check_prices(p, prices, v)
        own = float(oracles.linear_revenue_per_buyer(b, v, prices).sum())
        p.need(rel_close(rev, own), f"revenue {rev} != {own} at the emitted prices")
        p.need(rev <= ref["plc"] * (1 + 1e-7), f"linear revenue {rev} above the PLC optimum")
        exact = ref.get("linear")
        if exact is not None:
            p.need(rev <= exact * (1 + 1e-7), f"revenue {rev} above the linear optimum {exact}")
            if doc["method"] == "exact":
                p.need(rel_close(rev, exact), f"exact revenue {rev} != optimum {exact}")
            else:
                p.need(rev >= exact / 2 * (1 - 1e-9), f"greedy {rev} below half the optimum")
        return p, rev / own
    if cmd == "demand":
        buyer = job.ref["buyer"]
        own = float(oracles.linear_revenue_per_buyer(b, v, job.ref["prices"])[buyer])
        p.need(rel_close(doc["payment"], own), "demand payment != min(budget, desire)")
        p.need(all(0.0 <= x <= 1.0 + 1e-9 for x in doc["fractions"]), "demand fraction")
        return p, doc["payment"] / own if own else None
    # clear
    q0 = np.asarray(job.ref["prices"], dtype=float)
    p.need(_close_vec(doc["before"]["prices"], q0, scale), "clear: prices before misreported")
    before = oracles.linear_revenue_per_buyer(b, v, q0)
    p.need(_close_vec(doc["before"]["per_buyer_revenue"], before, scale), "clear: revenue before")
    p.need(doc["clearable"] is True, "clear: reports not clearable")
    q1 = np.asarray(doc["after"]["prices"], dtype=float)
    after = oracles.linear_revenue_per_buyer(b, v, q1)
    p.need(bool(np.all(q1 <= q0 + 1e-12 * scale)), "clear raised a price")
    p.need(oracles.clearable(b, v, q1), "clear: prices after are not clearable")
    p.need(bool(np.all(after >= before - 1e-9 * scale)), "clear lowered a buyer's revenue")
    p.need(_close_vec(doc["after"]["per_buyer_revenue"], after, scale), "clear: revenue after")
    p.need(doc["iterations"] <= (m + 1) * (n + 1) ** 2, "clear: too many iterations")
    return p, sum(doc["before"]["per_buyer_revenue"]) / float(before.sum())


def check(job, summary, ref):
    kind = type(job).__name__
    if kind in ("PlcJob", "PlcFaultJob"):
        return _check_plc(job, summary, ref)
    if kind == "LinearJob":
        return _check_linear(job, summary, ref)
    if kind == "ClearingJob":
        return _check_posted(job, summary, ref)
    return _check_cli(job, summary, ref)
