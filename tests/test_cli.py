import json
import math

import pytest

from datamarket.cli import main
from datamarket.fixtures import gen_greedy_suboptimal, gen_lingap, gen_nonsub, gen_random
from datamarket.model import (Instance, prices_to_shardset, save_instance, save_prices,
                              save_shardset)


@pytest.fixture
def suboptimal_path(tmp_path):
    path = tmp_path / "suboptimal.json"
    save_instance(gen_greedy_suboptimal(), path)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_solve_linear_exact(capsys, suboptimal_path):
    code, out = run(capsys, ["solve-linear", "--instance", suboptimal_path, "--method", "exact"])
    assert code == 0
    doc = json.loads(out)
    assert doc["revenue"] == pytest.approx(1.3)
    assert doc["prices"] == [0.2, 0.2, 0.5]
    assert doc["method"] == "exact"


def test_solve_linear_is_byte_deterministic(capsys, suboptimal_path):
    argv = ["solve-linear", "--instance", suboptimal_path, "--method", "rgreedy", "--seed", "7"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_solve_plc_is_byte_deterministic(capsys, suboptimal_path):
    argv = ["solve-plc", "--instance", suboptimal_path, "--allocate"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_solve_linear_greedy_order_flag(capsys, suboptimal_path):
    code, out = run(capsys, [
        "solve-linear", "--instance", suboptimal_path, "--method", "greedy", "--order", "2,1,0",
    ])
    assert code == 0
    assert json.loads(out)["revenue"] <= 1.2 + 1e-9


def test_solve_plc_lingap(capsys, tmp_path):
    path = tmp_path / "lingap.json"
    save_instance(gen_lingap(3, 0.1), path)
    code, out = run(capsys, ["solve-plc", "--instance", str(path), "--allocate"])
    assert code == 0
    doc = json.loads(out)
    assert doc["total_revenue"] == pytest.approx(0.45)
    assert doc["allocation"]["total_revenue"] == pytest.approx(0.45)
    assert len(doc["curves"]) == 1


def test_solve_plc_writes_output_file(capsys, suboptimal_path, tmp_path):
    out_path = tmp_path / "solution.json"
    code, out = run(capsys, ["solve-plc", "--instance", suboptimal_path, "--out", str(out_path)])
    assert code == 0
    assert json.loads(out_path.read_text()) == json.loads(out)


def test_solve_plc_out_file_is_the_printed_line(capsys, suboptimal_path, tmp_path):
    out_path = tmp_path / "solution.json"
    code, out = run(capsys, [
        "solve-plc", "--instance", suboptimal_path, "--allocate", "--out", str(out_path),
    ])
    assert code == 0
    assert out_path.read_text() == out


def test_demand_subcommand(capsys, tmp_path):
    inst_path = tmp_path / "inst.json"
    save_instance(gen_nonsub(0.001), inst_path)
    price_path = tmp_path / "prices.json"
    save_prices((0.001, 1.0), price_path)
    code, out = run(capsys, [
        "demand", "--instance", str(inst_path), "--prices", str(price_path), "--buyer", "1",
    ])
    assert code == 0
    doc = json.loads(out)
    # desire 1.001 exceeds the budget of 1, so only the surplus dataset is bought
    assert doc["payment"] == pytest.approx(1.0)
    assert doc["fractions"] == [0.0, 1.0]


def test_clear_subcommand(capsys, tmp_path):
    inst_path = tmp_path / "inst.json"
    save_instance(gen_nonsub(0.001), inst_path)
    price_path = tmp_path / "prices.json"
    save_prices((5.0, 5.0), price_path)
    code, out = run(capsys, [
        "clear", "--instance", str(inst_path), "--prices", str(price_path),
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["clearable"] is True
    total_before = sum(doc["before"]["per_buyer_revenue"])
    total_after = sum(doc["after"]["per_buyer_revenue"])
    assert total_after >= total_before - 1e-9
    assert all(a <= b + 1e-12 for a, b in zip(doc["after"]["prices"], doc["before"]["prices"]))


def test_solve_plc_stats_are_opt_in(capsys, suboptimal_path, tmp_path):
    argv = ["solve-plc", "--instance", suboptimal_path, "--allocate"]
    _, plain = run(capsys, argv)
    out_path = tmp_path / "solution.json"
    code, out = run(capsys, argv + ["--stats", "--out", str(out_path)])
    assert code == 0 and out_path.read_text() == out
    doc = json.loads(out)
    stats = doc.pop("stats")
    assert "stats" not in json.loads(plain)
    assert json.dumps(doc, sort_keys=True) + "\n" == plain  # nothing else moves
    inst = gen_greedy_suboptimal()
    assert stats["kink_bound"] == inst.m + inst.n
    assert doc["positive_shard_count"] <= stats["kink_bound"]
    assert stats["rounds"] >= 1
    assert stats["z_columns"] <= stats["z_columns_full"]
    assert {"phase1_pivots", "phase2_pivots", "degenerate_pivots"} <= stats.keys()


@pytest.mark.parametrize("method, extra, keys", [
    ("exact", [], {"grid_points"}),
    ("greedy", ["--order", "2,0,1"], {"order", "marginals"}),
    ("rgreedy", ["--seed", "3"], {"seed", "marginals"}),
    ("cgreedy", ["--steps", "4", "--samples", "8", "--roundings", "4"],
     {"steps", "samples", "roundings", "seed", "step_marginal", "step_max_std"}),
])
def test_solve_linear_stats_are_opt_in(capsys, suboptimal_path, method, extra, keys):
    argv = ["solve-linear", "--instance", suboptimal_path, "--method", method] + extra
    _, plain = run(capsys, argv)
    code, out = run(capsys, argv + ["--stats"])
    assert code == 0
    doc = json.loads(out)
    stats = doc.pop("stats")
    assert "stats" not in json.loads(plain)
    assert json.dumps(doc, sort_keys=True) + "\n" == plain  # nothing else moves
    assert stats.keys() == keys
    if method == "greedy":
        assert stats["order"] == [2, 0, 1]
    if method == "cgreedy":
        assert len(stats["step_marginal"]) == len(stats["step_max_std"]) == 4


@pytest.mark.parametrize("method", ["greedy", "rgreedy", "cgreedy", "exact"])
def test_an_unpriced_dataset_has_no_owner(capsys, tmp_path, method):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"budgets": [1.0, 2.0], "values": [[0.0, 1.0], [0.0, 0.5]]}))
    code, out = run(capsys, ["solve-linear", "--instance", str(path), "--method", method])
    assert code == 0
    doc = json.loads(out)
    assert doc["prices"][0] == 0.0
    assert doc["assignment"][0] is None


def test_clear_stats_are_opt_in(capsys, tmp_path):
    inst_path = tmp_path / "inst.json"
    save_instance(gen_nonsub(0.001), inst_path)
    price_path = tmp_path / "prices.json"
    save_prices((5.0, 5.0), price_path)
    argv = ["clear", "--instance", str(inst_path), "--prices", str(price_path)]
    _, plain = run(capsys, argv)
    code, out = run(capsys, argv + ["--stats"])
    assert code == 0
    doc = json.loads(out)
    potentials = doc.pop("stats")["potentials"]
    assert "stats" not in json.loads(plain)
    assert json.dumps(doc, sort_keys=True) + "\n" == plain
    assert len(potentials) == doc["iterations"] + 1
    assert all(a > b for a, b in zip(potentials, potentials[1:]))


@pytest.mark.parametrize("curves", [1, 3])
def test_clear_rejects_shard_count_mismatch(capsys, tmp_path, curves):
    inst_path = tmp_path / "inst.json"
    save_instance(gen_nonsub(0.001), inst_path)  # two datasets
    shard_path = tmp_path / "shards.json"
    save_shardset(prices_to_shardset((1.0,) * curves), shard_path)
    code = main(["clear", "--instance", str(inst_path), "--shards", str(shard_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_gen_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "generated.json"
    code, out = run(capsys, [
        "gen", "--family", "lingap", "--params", "n=3,eps=0.1", "--out", str(out_path),
    ])
    assert code == 0
    assert json.loads(out)["n"] == 3
    code, out = run(capsys, ["solve-plc", "--instance", str(out_path)])
    assert code == 0
    assert json.loads(out)["total_revenue"] == pytest.approx(0.45)


@pytest.mark.parametrize("family,params,key", [
    ("nonsub", "esp=0.5", "esp"),
    ("random", "budget=3", "budget"),
])
def test_gen_rejects_unknown_parameter(capsys, tmp_path, family, params, key):
    out_path = tmp_path / "generated.json"
    code = main(["gen", "--family", family, "--params", params, "--out", str(out_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown parameter {key!r} for family {family}\n"
    assert not out_path.exists()


def test_check_appendix_b(capsys):
    code, out = run(capsys, ["check", "--property", "appendixB"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"extension_infeasible": True, "relaxed_feasible": True}


def test_check_ksubmodular(capsys, suboptimal_path):
    code, out = run(capsys, [
        "check", "--property", "ksubmodular", "--instance", suboptimal_path,
        "--samples", "300", "--seed", "5",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] is True
    assert doc["max_violation"] <= 1e-9


def test_check_extension(capsys):
    code, out = run(capsys, ["check", "--property", "extension", "--samples", "200"])
    assert code == 0
    assert json.loads(out)["holds"] is True


@pytest.mark.parametrize("prop", ["ksubmodular", "extension"])
def test_check_rejects_zero_samples(capsys, prop):
    assert main(["check", "--property", prop, "--samples", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_validate_gaussian(capsys):
    code, out = run(capsys, [
        "validate-gaussian", "--tau0", "1.0", "--tau", "1.0", "--counts", "3",
        "--trials", "20000", "--seed", "4",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["theoretical_gain"] == pytest.approx(3.0)
    assert doc["expected_variance"] == pytest.approx(0.25)
    assert abs(doc["z_score"]) <= 5.0


# each asks for more than 2**56 bytes, which no 64-bit host can map, so the
# allocation fails at once whatever the overcommit setting
@pytest.mark.parametrize("argv", [
    ["validate-gaussian", "--tau0", "1", "--tau", "1", "--counts", "1000000000000",
     "--trials", "12500"],
    ["solve-linear", "--method", "cgreedy", "--samples", "10000000000000000"],
])
def test_an_input_too_large_to_allocate_is_a_one_line_error(capsys, suboptimal_path, argv):
    if argv[0] == "solve-linear":
        argv = argv + ["--instance", suboptimal_path]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Unable to allocate")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["solve-plc", "--allocate"],
    ["solve-linear", "--method", "exact"],
])
def test_values_whose_total_could_overflow_are_a_one_line_error(capsys, tmp_path, argv):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"budgets": [1e308, 1e308],
                                "values": [[1e308, 1e308], [1e308, 1e308]]}))
    assert main(argv + ["--instance", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: values total more than")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("flags,message", [
    (["--tau", "1e308", "--counts", "2"], "total precision"),
    (["--mean", "nan", "--tau", "1", "--counts", "2"], "prior mean must be finite"),
    (["--tau0", "1e-320", "--tau", "1e-310", "--counts", "2"], "the simulated MSE is inf"),
    (["--tau", "1", "--counts", "1" + "0" * 400],
     "record counts must be at most the largest float"),
])
def test_validate_gaussian_overflow_is_a_one_line_error(capsys, flags, message):
    # any warning fails the suite, so none may be printed on the way
    assert main(["validate-gaussian", "--tau0", "1", "--trials", "10", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1


def test_validate_gaussian_at_a_huge_prior_mean_is_the_mean_0_run(capsys):
    argv = ["validate-gaussian", "--tau0", "1", "--tau", "1", "--counts", "2", "--trials", "10"]
    code, at_zero = run(capsys, argv)
    assert code == 0
    assert run(capsys, argv + ["--mean", "1e300"]) == (0, at_zero)
    assert json.loads(at_zero)["empirical_mse"] > 0.0


def test_cgreedy_stats_at_a_huge_money_unit_are_finite_json(capsys, tmp_path):
    # the step spreads square each sample's deviation, which overflows past
    # about 1e154 unless the gains are scaled first
    inst = gen_random(6, 4, 3)
    path = tmp_path / "huge.json"
    save_instance(Instance.make([b * 1e199 for b in inst.budgets],
                                [[v * 1e199 for v in row] for row in inst.values]), path)
    assert main(["solve-linear", "--instance", str(path), "--method", "cgreedy", "--steps", "3",
                 "--samples", "8", "--roundings", "2", "--stats"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    stats = json.loads(captured.out, parse_constant=reject)["stats"]
    assert all(math.isfinite(x) for x in stats["step_max_std"] + stats["step_marginal"])
    assert max(stats["step_max_std"]) > 1e190


def test_unknown_flag_exits_2(suboptimal_path):
    with pytest.raises(SystemExit) as exc:
        main(["solve-linear", "--instance", suboptimal_path, "--method", "exact", "--bogus"])
    assert exc.value.code == 2


def test_missing_file_exits_1(capsys):
    assert main(["solve-plc", "--instance", "/nonexistent/instance.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_instance_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"budgets": [1, 1], "values": [[1.0]]}))
    assert main(["solve-plc", "--instance", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_demand_rejects_a_buyer_out_of_range(capsys, tmp_path):
    inst_path = tmp_path / "inst.json"
    save_instance(gen_lingap(3, 0.1), inst_path)
    price_path = tmp_path / "prices.json"
    save_prices((1.0,), price_path)
    code = main(["demand", "--instance", str(inst_path), "--prices", str(price_path),
                 "--buyer", "5"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: buyer index 5 out of range for n=3\n"


def test_gen_vertex_cover_reads_an_edge_list(capsys, tmp_path):
    out_path = tmp_path / "vc.json"
    code, out = run(capsys, ["gen", "--family", "vc", "--params", "edges=0-1|1-2|2-3",
                             "--out", str(out_path)])
    assert code == 0
    assert json.loads(out)["m"] == 4
    assert len(json.loads(out_path.read_text())["values"][0]) == 4


def test_gen_rejects_a_parameter_without_a_value(capsys, tmp_path):
    out_path = tmp_path / "generated.json"
    code = main(["gen", "--family", "lingap", "--params", "n=3,eps", "--out", str(out_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: malformed parameter 'eps', expected key=value\n"
    assert not out_path.exists()


@pytest.mark.parametrize("argv,key", [
    (["solve-plc", "--instance", "DEEP"], "values"),
    (["demand", "--instance", "INST", "--prices", "DEEP", "--buyer", "0"], "prices"),
    (["clear", "--instance", "INST", "--shards", "DEEP"], "curves"),
])
def test_json_nested_too_deep_is_a_one_line_error(capsys, tmp_path, argv, key):
    paths = {"INST": tmp_path / "inst.json", "DEEP": tmp_path / "deep.json"}
    save_instance(gen_nonsub(0.001), paths["INST"])
    nested = "[" * 1000 + "]" * 1000
    paths["DEEP"].write_text(f'{{"budgets": [1.0], "{key}": {nested}}}')
    assert main([str(paths.get(arg, arg)) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: not valid JSON: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


#: Files written as raw text, so a number reaches the parser exactly as typed:
#: an instance, prices and shards for it, and the command that reads them.
NUMBER_FILES = {
    "instance": ('{{"budgets": [1.0, 2.0], "values": [[{x}, 1.0], [{x}, 0.5]]}}',
                 ["solve-plc", "--instance", "FILE"]),
    "prices": ('{{"prices": [{x}, 1.0]}}',
               ["clear", "--instance", "INST", "--prices", "FILE"]),
    "shards": ('{{"curves": [[{{"size": 1.0, "slope": {x}}}], [{{"size": 1.0, "slope": 1.0}}]]}}',
               ["demand", "--instance", "INST", "--shards", "FILE", "--buyer", "0"]),
}


def _run_on_number(capsys, tmp_path, kind, x, argv=None):
    text, default_argv = NUMBER_FILES[kind]
    paths = {"INST": tmp_path / "inst.json", "FILE": tmp_path / f"{kind}.json"}
    paths["INST"].write_text(NUMBER_FILES["instance"][0].format(x="0.5"))
    paths["FILE"].write_text(text.format(x=x))
    code = main([str(paths.get(arg, arg)) for arg in argv or default_argv])
    return code, capsys.readouterr()


@pytest.mark.parametrize("kind,what", [("instance", "value"), ("prices", "price"),
                                       ("shards", "slope")])
def test_an_integer_too_large_for_a_float_is_a_one_line_error(capsys, tmp_path, kind, what):
    code, captured = _run_on_number(capsys, tmp_path, kind, "1" + "0" * 400)
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {what} is an integer too large for a float\n"


@pytest.mark.parametrize("kind,argv", [
    ("instance", None),
    ("instance", ["solve-linear", "--instance", "FILE", "--method", "cgreedy"]),
    ("prices", None),
    ("shards", ["clear", "--instance", "INST", "--shards", "FILE"]),
])
def test_negative_zero_in_a_file_reads_as_zero(capsys, tmp_path, kind, argv):
    code, negative = _run_on_number(capsys, tmp_path, kind, "-0.0", argv)
    assert code == 0
    assert _run_on_number(capsys, tmp_path, kind, "0.0", argv) == (0, negative)
    assert "-0.0" not in negative.out


@pytest.mark.parametrize("budgets, values", [
    ([1e10, 1.0], [[1e-300, 2e-300], [3e-300, 1e-300]]),
    ([1.5e308, 1.0], [[0.5, 0.2], [0.3, 0.4]]),
], ids=["tiny-values", "huge-budget"])
def test_solve_plc_on_a_budget_that_overflows_the_money_scale(capsys, tmp_path, budgets, values):
    # pytest turns warnings into errors here, so an overflow warning fails too;
    # the budget cannot bind, so the output is that of an infinite budget
    outputs = []
    for first in (budgets[0], "inf"):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"budgets": [first] + budgets[1:], "values": values}))
        assert main(["solve-plc", "--instance", str(path), "--stats"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]


def _one_line_error(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("text, message", [
    ('{"budgets": [], "values": []}', "instance must have at least one buyer; instance must "
                                      "have at least one dataset; no positive budget"),
    ('{"budgets": [1.0], "values": [[]]}', "instance must have at least one dataset"),
    ('{"budgets": [1.0, NaN], "values": [[1.0], [1.0]]}', "invalid budget for buyer 1"),
    ('{"budgets": [1.0, -2.0], "values": [[1.0], [1.0]]}', "negative budget for buyer 1"),
    ('{"budgets": [1.0], "values": [1.0]}', "each value row must be an array"),
], ids=["no-buyers", "no-datasets", "nan-budget", "negative-budget", "value-row"])
def test_a_bad_instance_is_a_one_line_error(capsys, tmp_path, text, message):
    path = tmp_path / "inst.json"
    path.write_text(text)
    _one_line_error(capsys, ["solve-plc", "--instance", str(path)], message)


@pytest.mark.parametrize("text, message", [
    ('{"curves": [[], [{"size": 1.0, "slope": 1.0}]]}', "curve has no shards"),
    ('{"curves": [[{"size": 1.0, "slope": NaN}], [{"size": 1.0, "slope": 1.0}]]}',
     "invalid shard slope nan"),
    ('{"curves": [{"size": 1.0, "slope": 1.0}]}', "each curve must be an array of shards"),
    ('{"curves": [[[1.0, 1.0]]]}', 'each shard must be an object with "size" and "slope"'),
], ids=["no-shards", "nan-slope", "curve", "shard"])
def test_a_bad_shard_set_is_a_one_line_error(capsys, tmp_path, text, message):
    inst_path, shard_path = tmp_path / "inst.json", tmp_path / "shards.json"
    save_instance(gen_nonsub(0.001), inst_path)
    shard_path.write_text(text)
    _one_line_error(capsys, ["clear", "--instance", str(inst_path), "--shards", str(shard_path)],
                    message)


@pytest.mark.parametrize("family, params, message", [
    ("cese", "n=0", "n must be at least 1"),
    ("greedytight", "n=0", "n must be at least 1"),
    ("greedytight", "eps=0", "eps must be positive"),
    ("lingap", "n=1", "n must be at least 2"),
    ("lingap", "eps=1", "eps must lie strictly between 0 and 1"),
    ("sepgap", "k=0", "m and k must be at least 1"),
    ("vc", "eps=0", "eps must be positive"),
    ("random", "m=0", "n and m must be at least 1"),
    ("random", "budget_scale=0", "scales must be positive"),
    ("random", "n=3,n=5", "parameter 'n' given twice"),
    ("lingap", "eps=0.1, eps =0.2", "parameter 'eps' given twice"),
])
def test_gen_names_each_bad_parameter(capsys, tmp_path, family, params, message):
    out_path = tmp_path / "generated.json"
    _one_line_error(capsys, ["gen", "--family", family, "--params", params, "--out",
                             str(out_path)], message)
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["demand", "clear"])
@pytest.mark.parametrize("flag", ["--prices", "--shards"])
@pytest.mark.parametrize("count", [1, 3])
def test_a_pricing_of_the_wrong_length_is_a_one_line_error(capsys, tmp_path, command, flag,
                                                            count):
    inst_path, pricing_path = tmp_path / "inst.json", tmp_path / "pricing.json"
    save_instance(gen_nonsub(0.001), inst_path)  # two datasets
    if flag == "--prices":
        save_prices((1.0,) * count, pricing_path)
    else:
        save_shardset(prices_to_shardset((1.0,) * count), pricing_path)
    noun = "prices" if (command, flag) == ("clear", "--prices") else "curves"
    argv = [command, "--instance", str(inst_path), flag, str(pricing_path)]
    _one_line_error(capsys, argv + (["--buyer", "0"] if command == "demand" else []),
                    f"got {count} {noun} for 2 datasets")


@pytest.mark.parametrize("command", ["demand", "clear"])
@pytest.mark.parametrize("literal, shown", [("-1.0", "-1.0"), ("NaN", "nan"),
                                            ("Infinity", "inf"), ("-Infinity", "-inf")])
def test_an_invalid_price_in_a_file_is_a_one_line_error(capsys, tmp_path, command, literal,
                                                        shown):
    inst_path, price_path = tmp_path / "inst.json", tmp_path / "prices.json"
    save_instance(gen_nonsub(0.001), inst_path)
    price_path.write_text(f'{{"prices": [0.5, {literal}]}}')  # json reads NaN and Infinity
    argv = [command, "--instance", str(inst_path), "--prices", str(price_path)]
    _one_line_error(capsys, argv + (["--buyer", "0"] if command == "demand" else []),
                    f"invalid price at index 1: {shown}")
