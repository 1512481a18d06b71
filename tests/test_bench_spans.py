"""The traced benchmark still resolves against the library.

``bench/spans.py`` wraps library functions by the names its callers look
them up by and reads the ``LpProblem`` views ``constraints`` and
``num_variables``; a refactor that drops one of those names fails here, not
only in a traced benchmark run.
"""

from pathlib import Path

from datamarket import clearing, plc_opt
from datamarket.fixtures import gen_random

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_measures_a_job(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    original = plc_opt.solve_plc
    inst = gen_random(6, 3, 0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_job(0)
        sol = plc_opt.solve_plc(inst)
        plc_opt.extract_allocation(inst, sol.shards)
        market = clearing.shards_to_items(inst, sol.shards)
        cleared = clearing.clearabilize(market)
        clearing.clearing_allocation(market, cleared.prices)
        tracer.end_job()
        metrics = tracer.metrics(1)
    finally:
        tracer.uninstall()
    assert plc_opt.solve_plc is original
    problem = plc_opt.build_pricing_lp(inst)
    assert metrics["lp.rows"] == len(problem.constraints)
    assert metrics["lp.cols"] == problem.num_variables
    assert metrics["demand.optimal_demand_calls"] == inst.n
    assert metrics["clearing.iterations"] == cleared.iterations
