"""Command-line interface.

Every subcommand returns one JSON document, which ``main`` prints on
standard output so runs are diffable; all randomized subcommands take
explicit seeds and repeated invocations with the same flags emit
byte-identical output.  Exit codes: 0 on success, 1 on file or validation
failures, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import clearing, fixtures, gaussian, linear_opt, plc_opt, properties
from .demand import optimal_demand
from .model import (
    ValidationError,
    _write_json,
    load_instance,
    load_prices,
    load_shardset,
    prices_to_shardset,
    save_instance,
)


def _parse_params(raw: str | None) -> dict[str, str]:
    params = {}
    if raw:
        for piece in raw.split(","):
            if "=" not in piece:
                raise ValueError(f"malformed parameter {piece!r}, expected key=value")
            key, value = (part.strip() for part in piece.split("=", 1))
            if key in params:
                raise ValueError(f"parameter {key!r} given twice")
            params[key] = value
    return params


def _parse_edges(raw: str) -> list[tuple[int, int]]:
    edges = []
    for piece in raw.split("|"):
        u, _, v = piece.partition("-")
        edges.append((int(u), int(v)))
    return edges


def _bundle_dict(bundle) -> dict:
    return {"fractions": list(bundle.fractions), "payment": bundle.payment}


def _cmd_solve_plc(args) -> dict:
    inst = load_instance(args.instance)
    sol = plc_opt.solve_plc(inst)
    doc = plc_opt.plc_solution_to_dict(sol)
    if args.allocate:
        alloc = plc_opt.extract_allocation(inst, sol.shards)
        doc["allocation"] = {
            "bundles": [_bundle_dict(b) for b in alloc.bundles],
            "total_revenue": alloc.total_revenue,
        }
    if args.stats:
        doc["stats"] = {**sol.diagnostics, "kink_bound": inst.m + inst.n}
    if args.out:
        _write_json(doc, args.out)
    return doc


def _cmd_solve_linear(args) -> dict:
    inst = load_instance(args.instance)
    if args.method == "exact":
        sol = linear_opt.exact_bruteforce(inst)
    elif args.method == "greedy":
        order = [int(x) for x in args.order.split(",")] if args.order else None
        sol = linear_opt.greedy(inst, order)
    elif args.method == "rgreedy":
        sol = linear_opt.randomized_greedy(inst, args.seed)
    else:
        sol = linear_opt.continuous_greedy(
            inst, steps=args.steps, samples=args.samples, roundings=args.roundings,
            seed=args.seed,
        )
    doc = linear_opt.linear_solution_to_dict(sol)
    if args.stats:
        doc["stats"] = sol.diagnostics
    return doc


def _cmd_demand(args) -> dict:
    inst = load_instance(args.instance)
    if args.shards:
        shards = load_shardset(args.shards)
    else:
        shards = prices_to_shardset(load_prices(args.prices))
    if not 0 <= args.buyer < inst.n:
        raise ValidationError(f"buyer index {args.buyer} out of range for n={inst.n}")
    bundle = optimal_demand(inst, args.buyer, shards)
    return {"buyer": args.buyer, **_bundle_dict(bundle)}


def _cmd_clear(args) -> dict:
    inst = load_instance(args.instance)
    if args.shards:
        market = clearing.shards_to_items(inst, load_shardset(args.shards))
    else:
        market = clearing.market_from_prices(inst, load_prices(args.prices))
    result = clearing.clearabilize(market)
    doc = {
        "before": {
            "prices": list(market.prices),
            "per_buyer_revenue": list(clearing.per_buyer_revenue(market)),
        },
        "after": {
            "prices": list(result.prices),
            "per_buyer_revenue": list(clearing.per_buyer_revenue(market, result.prices)),
        },
        "iterations": result.iterations,
        "clearable": clearing.is_clearable(market, result.prices),
    }
    if args.stats:
        doc["stats"] = {"potentials": list(result.potentials)}
    return doc


#: family -> (generator, {parameter: (type, default)}), parameters in argument order
_FAMILIES = {
    "nonsub": (fixtures.gen_nonsub, {"eps": (float, 0.001)}),
    "cese": (fixtures.gen_ce_se, {"n": (int, 4)}),
    "greedysub": (fixtures.gen_greedy_suboptimal, {}),
    "greedytight": (fixtures.gen_greedy_tight, {"n": (int, 9), "eps": (float, 0.001)}),
    "lingap": (fixtures.gen_lingap, {"n": (int, 5), "eps": (float, 0.001)}),
    "sepgap": (fixtures.gen_sepgap, {"m": (int, 4), "k": (int, 3)}),
    "vc": (fixtures.gen_vertex_cover, {"edges": (_parse_edges, "0-1|1-2|0-2"),
                                       "eps": (float, 0.5)}),
    "random": (fixtures.gen_random, {"n": (int, 3), "m": (int, 3), "seed": (int, 0),
                                     "value_scale": (float, 1.0),
                                     "budget_scale": (float, 1.0)}),
}


def _cmd_gen(args) -> dict:
    params = _parse_params(args.params)
    generator, spec = _FAMILIES[args.family]
    for key in params:
        if key not in spec:
            raise ValueError(f"unknown parameter {key!r} for family {args.family}")
    inst = generator(*(kind(params.get(key, default)) for key, (kind, default) in spec.items()))
    save_instance(inst, args.out)
    return {"family": args.family, "n": inst.n, "m": inst.m, "out": args.out}


def _check_instances(args):
    if args.instance:
        return [load_instance(args.instance)]
    return [fixtures.gen_random(3, 3, seed) for seed in range(args.seed, args.seed + 8)]


def _cmd_check(args) -> dict:
    if args.property == "appendixB":
        return {
            "extension_infeasible": fixtures.appendix_b_check(),
            "relaxed_feasible": not fixtures.appendix_b_check(include_monotonicity=False),
        }
    if args.samples < 1:
        raise ValidationError(f"--samples must be at least 1, got {args.samples}")
    instances = _check_instances(args)
    if args.property == "ksubmodular":
        gap = properties.partition_marginal_gaps(instances, args.samples, args.seed)
        return {
            "property": "ksubmodular",
            "samples": args.samples,
            "max_violation": max(0.0, gap),
            "holds": gap <= 1e-9,
        }
    sub_gap, mono_gap = properties.extension_gaps(instances, args.samples, args.seed)
    return {
        "property": "extension",
        "samples": args.samples,
        "max_submodularity_violation": max(0.0, sub_gap),
        "max_monotonicity_violation": max(0.0, mono_gap),
        "holds": sub_gap <= 1e-9 and mono_gap <= 1e-9,
    }


def _cmd_validate_gaussian(args) -> dict:
    task = gaussian.GaussianTask(
        args.tau0,
        args.mean,
        tuple(float(x) for x in args.tau.split(",")),
        tuple(int(x) for x in args.counts.split(",")),
    )
    mse, variance = gaussian.simulate_posterior_mse(task, args.trials, args.seed)
    return {
        "theoretical_gain": gaussian.theoretical_gain(task),
        "expected_variance": variance,
        "empirical_mse": mse,
        "z_score": gaussian.mse_z_score(task, mse, args.trials),
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="datamarket",
        description="Revenue-maximizing pricing for non-rivalrous data markets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-plc", help="optimal piecewise-linear-convex pricing via LP")
    p.add_argument("--instance", required=True)
    p.add_argument("--out", help="also write the solution JSON to this file")
    p.add_argument("--allocate", action="store_true", help="include per-buyer bundles")
    p.add_argument("--stats", action="store_true",
                   help="include solver counts and the m + n kink bound")
    p.set_defaults(func=_cmd_solve_plc)

    p = sub.add_parser("solve-linear", help="optimal or approximate linear pricing")
    p.add_argument("--instance", required=True)
    p.add_argument("--method", required=True, choices=["exact", "greedy", "rgreedy", "cgreedy"])
    p.add_argument("--order", help="comma-separated dataset order for greedy")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--roundings", type=int, default=32)
    p.add_argument("--stats", action="store_true",
                   help="include the method's diagnostics (cgreedy: each step's marginal)")
    p.set_defaults(func=_cmd_solve_linear)

    p = sub.add_parser("demand", help="one buyer's optimal bundle under given pricing")
    p.add_argument("--instance", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--prices")
    group.add_argument("--shards")
    p.add_argument("--buyer", type=int, required=True)
    p.set_defaults(func=_cmd_demand)

    p = sub.add_parser("clear", help="make prices clearable without losing revenue")
    p.add_argument("--instance", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--prices")
    group.add_argument("--shards")
    p.add_argument("--stats", action="store_true",
                   help="include the potential before each iteration and after the last")
    p.set_defaults(func=_cmd_clear)

    p = sub.add_parser("gen", help="generate a benchmark instance")
    p.add_argument("--family", required=True, choices=list(_FAMILIES))
    p.add_argument("--params", help='comma list, e.g. "n=5,eps=0.01" (vc: edges=0-1|1-2)')
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check", help="sampled structural checks of the revenue function")
    p.add_argument("--property", required=True, choices=["ksubmodular", "extension", "appendixB"])
    p.add_argument("--instance")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("validate-gaussian", help="Monte Carlo check of the learning model")
    p.add_argument("--tau0", type=float, required=True, help="prior precision")
    p.add_argument("--mean", type=float, default=0.0, help="prior mean")
    p.add_argument("--tau", required=True, help="comma-separated signal precisions")
    p.add_argument("--counts", required=True, help="comma-separated record counts")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_validate_gaussian)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        print(json.dumps(args.func(args), sort_keys=True))
        return 0
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
