import json

import pytest

from datamarket.cli import main
from datamarket.fixtures import gen_greedy_suboptimal, gen_lingap, gen_nonsub
from datamarket.model import prices_to_shardset, save_instance, save_prices, save_shardset


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
