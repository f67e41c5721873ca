import json
import math

import numpy as np
import pytest

from relucert import (Dense, Network, SimplexError, classify, compute_stats, load_model,
                      save_model)
from relucert import cli, oracle
from relucert.lp import ITERATION_LIMIT, LazyStats, LPSolution
from relucert.cli import main, read_rhos
from helpers import blobs, random_dense_relu_net


@pytest.fixture
def trap_model(tmp_path, gradient_trap_net):
    path = tmp_path / "model.json"
    save_model(gradient_trap_net, path)
    return path


def _write_csv(path, points):
    with open(path, "w") as fh:
        for p in points:
            fh.write(",".join([str(p.label)] + [repr(float(v)) for v in p.x]) + "\n")


@pytest.fixture
def toy_setup(tmp_path):
    rng = np.random.default_rng(7)
    net = random_dense_relu_net(rng, [2, 6, 3])
    model = tmp_path / "toy.json"
    save_model(net, model)
    data = tmp_path / "toy.csv"
    pts = [p for p in blobs(rng, 10)]
    _write_csv(data, pts)
    return net, model, data


def test_certify_single_point(tmp_path, trap_model):
    data = tmp_path / "one.csv"
    data.write_text("0, 0.0\n")
    out = tmp_path / "records.jsonl"
    code = main(["certify", "--model", str(trap_model), "--data", str(data),
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert obj["index"] == 0
    assert obj["label"] == 0 and obj["target"] == 1
    assert obj["rho"] == pytest.approx(4 * math.log(9 / 8), abs=1e-9)


def test_certify_empty_dataset(tmp_path, trap_model, capsys):
    data = tmp_path / "empty.csv"
    data.write_text("")
    out = tmp_path / "records.jsonl"
    code = main(["certify", "--model", str(trap_model), "--data", str(data),
                 "--out", str(out)])
    assert code == 0
    assert out.read_text() == ""
    assert "empty" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["nan", "inf"])
def test_certify_non_finite_label_is_a_data_error(tmp_path, trap_model, capsys, token):
    data = tmp_path / "bad.csv"
    data.write_text(f"0, 0.0\n{token}, 0.0\n")
    code = main(["certify", "--model", str(trap_model), "--data", str(data),
                 "--out", str(tmp_path / "records.jsonl")])
    assert code == 2
    assert capsys.readouterr().err == f"error: line 2: non-integer label '{token}'\n"


def test_certify_all_targets_never_worse_than_second(tmp_path, toy_setup):
    net, model, data = toy_setup
    out_second = tmp_path / "second.jsonl"
    out_all = tmp_path / "all.jsonl"
    assert main(["certify", "--model", str(model), "--data", str(data),
                 "--target", "second", "--out", str(out_second)]) == 0
    assert main(["certify", "--model", str(model), "--data", str(data),
                 "--target", "all", "--out", str(out_all)]) == 0
    for rho_all, rho_second in zip(read_rhos(out_all), read_rhos(out_second)):
        assert rho_all <= rho_second + 1e-9


def test_certify_is_idempotent_modulo_timing(tmp_path, toy_setup):
    _, model, data = toy_setup
    outs = []
    for name in ("a.jsonl", "b.jsonl"):
        out = tmp_path / name
        assert main(["certify", "--model", str(model), "--data", str(data),
                     "--out", str(out)]) == 0
        stripped = []
        for line in out.read_text().splitlines():
            obj = json.loads(line)
            obj.pop("timing")
            stripped.append(obj)
        outs.append(stripped)
    assert outs[0] == outs[1]


def test_certify_parallel_matches_serial(tmp_path, toy_setup):
    _, model, data = toy_setup
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    assert main(["certify", "--model", str(model), "--data", str(data),
                 "--out", str(serial)]) == 0
    assert main(["certify", "--model", str(model), "--data", str(data),
                 "--jobs", "2", "--out", str(parallel)]) == 0
    strip = lambda p: [dict(json.loads(l), timing=None)
                       for l in p.read_text().splitlines()]
    assert strip(serial) == strip(parallel)


def _fail_at(monkeypatch, index, exc):
    real = cli.pointwise_robustness

    def certify(net, x, **kwargs):
        if kwargs["seed_index"] == index:
            raise exc
        return real(net, x, **kwargs)

    monkeypatch.setattr(cli, "pointwise_robustness", certify)


def test_certify_exits_3_after_writing_every_record(tmp_path, toy_setup, monkeypatch,
                                                    capsys):
    _, model, data = toy_setup
    _fail_at(monkeypatch, 1, SimplexError("phase-1 objective unbounded"))
    out = tmp_path / "records.jsonl"
    assert main(["certify", "--model", str(model), "--data", str(data),
                 "--out", str(out)]) == 3
    records = [json.loads(line) for line in out.read_text().splitlines()]
    count = len(data.read_text().splitlines())
    assert [r["index"] for r in records] == list(range(count))
    assert records[1] == {"index": 1, "error": "phase-1 objective unbounded"}
    assert all("rho" in r for r in records if r["index"] != 1)
    assert f"solver error: 1 of {count} points failed" in capsys.readouterr().err


def test_certify_keeps_records_written_before_an_interrupt(tmp_path, toy_setup,
                                                           monkeypatch):
    _, model, data = toy_setup
    _fail_at(monkeypatch, 2, KeyboardInterrupt())
    out = tmp_path / "records.jsonl"
    with pytest.raises(KeyboardInterrupt):
        main(["certify", "--model", str(model), "--data", str(data), "--out", str(out)])
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["index"] for r in records] == [0, 1]


def test_stats_and_curve_pipe_equals_in_process(tmp_path, toy_setup, capsys):
    _, model, data = toy_setup
    records = tmp_path / "records.jsonl"
    assert main(["certify", "--model", str(model), "--data", str(data),
                 "--out", str(records)]) == 0
    assert main(["stats", "--records", str(records), "--eps", "0.5"]) == 0
    reported = json.loads(capsys.readouterr().out)
    expected = compute_stats(read_rhos(records), 0.5)
    assert reported["frequency"] == expected.frequency
    assert reported["severity"] == expected.severity
    assert reported["epsilon"] == 0.5
    curve_out = tmp_path / "curve.csv"
    assert main(["curve", "--records", str(records), "--out", str(curve_out)]) == 0
    lines = curve_out.read_text().splitlines()
    assert lines[0] == "epsilon,count"
    finite = sorted(r for r in read_rhos(records) if math.isfinite(r))
    assert len(lines) - 1 == len(set(finite))


def test_stats_default_epsilon_is_explicit(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    records.write_text('{"index": 0, "rho": 5.0}\n{"index": 1, "rho": null}\n')
    assert main(["stats", "--records", str(records)]) == 0
    reported = json.loads(capsys.readouterr().out)
    assert reported["epsilon"] == 20.0
    assert reported["frequency"] == 0.5


def test_stats_malformed_line_names_line_number(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    records.write_text('{"index": 0, "rho": 5.0}\nnot json\n')
    assert main(["stats", "--records", str(records)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_stats_and_curve_refuse_solver_error_records(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    records.write_text('{"index": 0, "error": "phase-1 objective unbounded"}\n'
                       '{"index": 1, "error": "phase-1 objective unbounded"}\n')
    assert main(["stats", "--records", str(records)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 1: index 0" in captured.err
    curve_out = tmp_path / "curve.csv"
    assert main(["curve", "--records", str(records), "--out", str(curve_out)]) == 3
    assert not curve_out.exists()


def test_attack_outputs_verified_adversarials(tmp_path, toy_setup):
    net, model, data = toy_setup
    out = tmp_path / "adv.csv"
    assert main(["attack", "--model", str(model), "--data", str(data),
                 "--alpha", "0.5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["index", "rho", "rounded_ok"]
    rows = [line.split(",") for line in lines[1:]]
    pts = [np.array([float(v) for v in row[3:]]) for row in rows if row[1] != "none"]
    originals = [line.split(",") for line in open(data)]
    for row, x_adv in zip((r for r in rows if r[1] != "none"), pts):
        seed_x = np.array([float(v) for v in originals[int(row[0])][1:]])
        seed_label = classify(net, seed_x)
        assert classify(net, x_adv) != seed_label


def test_attack_margin_monotone_per_point(tmp_path, toy_setup):
    _, model, data = toy_setup
    rhos = {}
    for alpha in ("0", "3"):
        out = tmp_path / f"adv{alpha}.csv"
        assert main(["attack", "--model", str(model), "--data", str(data),
                     "--alpha", alpha, "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        rhos[alpha] = {int(r[0]): (math.inf if r[1] == "none" else float(r[1]))
                       for r in rows}
    for idx, rho0 in rhos["0"].items():
        assert rhos["3"][idx] >= rho0 - 1e-9


def test_attack_flags_infeasible_rows(tmp_path):
    net = Network([Dense(np.zeros((2, 1)), np.array([1.0, 0.0]))], 1, 2)
    model = tmp_path / "flat.json"
    save_model(net, model)
    data = tmp_path / "flat.csv"
    data.write_text("0, 0.0\n")
    out = tmp_path / "adv.csv"
    assert main(["attack", "--model", str(model), "--data", str(data),
                 "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[1].split(",")[1] == "none"


def test_attack_rounding_summary(tmp_path, capsys):
    net = Network([Dense(np.array([[-1.0], [0.0]]), np.array([-1.0, 0.0]))],
                  1, 2, input_domain=(-5.0, 5.0))
    model = tmp_path / "m.json"
    save_model(net, model)
    data = tmp_path / "d.csv"
    data.write_text("1, 0.0\n")
    out = tmp_path / "adv.csv"
    assert main(["attack", "--model", str(model), "--data", str(data),
                 "--alpha", "0", "--round-integers", "--out", str(out)]) == 0
    assert "rounding failures" in capsys.readouterr().out
    assert out.read_text().splitlines()[1].split(",")[2] == "true"


def test_exact_command(tmp_path, trap_model, capsys):
    data = tmp_path / "one.csv"
    data.write_text("0, 0.0\n")
    assert main(["exact", "--model", str(trap_model), "--data", str(data)]) == 0
    obj = json.loads(capsys.readouterr().out.splitlines()[0])
    assert obj["rho"] == pytest.approx(4 * math.log(9 / 8), abs=1e-6)
    assert obj["patterns_total"] == 1


def test_exact_command_exits_3_on_solver_stop(tmp_path, toy_setup, monkeypatch, capsys):
    _, model, data = toy_setup
    monkeypatch.setattr(oracle, "lazy_solve", lambda *args, **kwargs: (
        LPSolution(ITERATION_LIMIT, None, math.nan, 0), LazyStats()))
    assert main(["exact", "--model", str(model), "--data", str(data)]) == 3
    assert "solver error: iteration_limit" in capsys.readouterr().err


def test_finetune_writes_model_and_manifest(tmp_path):
    rng = np.random.default_rng(11)
    net = random_dense_relu_net(rng, [2, 4, 2])
    model = tmp_path / "base.json"
    save_model(net, model)
    data = tmp_path / "train.csv"
    _write_csv(data, blobs(rng, 10))
    out_model = tmp_path / "tuned.json"
    assert main(["finetune", "--model", str(model), "--data", str(data),
                 "--rounds", "2", "--epochs", "3", "--out-model", str(out_model)]) == 0
    tuned = load_model(out_model)
    assert tuned.input_dim == 2
    manifest = json.loads((tmp_path / "tuned.json.manifest.json").read_text())
    assert manifest["command"] == "finetune"
    assert manifest["flags"]["rounds"] == 2
    assert manifest["tool_version"]
    assert (tmp_path / manifest["out_model"].split("/")[-1]).exists()


def test_finetuned_model_certifies_no_worse(tmp_path, capsys):
    # end-to-end: finetune via the CLI, then certify both models and compare
    # frequencies at the benchmark threshold
    from helpers import TOY_EPS_FINETUNE, toy_task, train_toy_base

    train_points, test_points = toy_task()
    base = train_toy_base(0, train_points)
    base_path = tmp_path / "base.json"
    save_model(base, base_path)
    train_csv = tmp_path / "train.csv"
    _write_csv(train_csv, train_points)
    test_csv = tmp_path / "test.csv"
    _write_csv(test_csv, test_points)
    tuned_path = tmp_path / "tuned.json"
    assert main(["finetune", "--model", str(base_path), "--data", str(train_csv),
                 "--attack", "lp", "--alpha", "3.0", "--rounds", "1",
                 "--lr", "0.5", "--lr-scale", "0.1", "--epochs", "60",
                 "--batch-size", "64", "--seed", "0",
                 "--out-model", str(tuned_path)]) == 0
    freqs = {}
    for name, model_path in (("base", base_path), ("tuned", tuned_path)):
        records = tmp_path / f"{name}.jsonl"
        assert main(["certify", "--model", str(model_path), "--data", str(test_csv),
                     "--out", str(records)]) == 0
        assert main(["stats", "--records", str(records),
                     "--eps", str(TOY_EPS_FINETUNE)]) == 0
        freqs[name] = json.loads(capsys.readouterr().out)["frequency"]
    assert freqs["tuned"] < freqs["base"]


def test_usage_error_exit_code():
    assert main(["certify", "--model", "x"]) == 1
    assert main(["nonsense"]) == 1


@pytest.mark.parametrize("command, flag, value", [
    ("certify", "--margin", "-1"), ("certify", "--margin", "nan"),
    ("certify", "--margin", "inf"), ("certify", "--jobs", "-3"),
    ("certify", "--jobs", "0"), ("certify", "--jobs", "two"),
    ("attack", "--alpha", "-1"), ("finetune", "--alpha", "-0.5"),
    ("finetune", "--epochs", "-5"), ("finetune", "--epochs", "0"),
    ("finetune", "--batch-size", "-1"), ("finetune", "--batch-size", "0"),
    ("finetune", "--rounds", "0"), ("exact", "--max-sites", "-1"),
    ("finetune", "--lr", "nan"), ("finetune", "--lr", "-0.1"), ("finetune", "--lr", "inf"),
    ("finetune", "--lr-scale", "-1"), ("finetune", "--lr-scale", "nan"),
    ("finetune", "--fgsm-eps", "nan"), ("finetune", "--fgsm-eps", "-0.5"),
])
def test_bad_numeric_flags_are_usage_errors(tmp_path, trap_model, capsys,
                                            command, flag, value):
    data = tmp_path / "one.csv"
    data.write_text("0, 0.0\n")
    out = tmp_path / "out"
    argv = [command, "--model", str(trap_model), "--data", str(data), f"{flag}={value}"]
    argv += ["--out-model", str(out)] if command == "finetune" else ["--out", str(out)]
    assert main(argv) == 1
    assert f"argument {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1", "x"])
def test_stats_bad_eps_is_a_usage_error(tmp_path, capsys, value):
    records = tmp_path / "r.jsonl"
    records.write_text('{"index": 0, "rho": 0.5}\n')
    assert main(["stats", "--records", str(records), f"--eps={value}"]) == 1
    captured = capsys.readouterr()
    assert "argument --eps" in captured.err and captured.out == ""


def test_io_error_exit_code(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("0, 0.0\n")
    assert main(["certify", "--model", str(tmp_path / "missing.json"),
                 "--data", str(data), "--out", str(tmp_path / "r.jsonl")]) == 2
    bad_model = tmp_path / "bad.json"
    bad_model.write_text("{")
    assert main(["certify", "--model", str(bad_model), "--data", str(data),
                 "--out", str(tmp_path / "r.jsonl")]) == 2


def test_certify_non_integral_size_is_a_model_error(tmp_path, trap_model, capsys):
    doc = json.loads(trap_model.read_text())
    doc["input_dim"] = 1.5
    trap_model.write_text(json.dumps(doc))
    data = tmp_path / "d.csv"
    data.write_text("0, 0.0\n")
    out = tmp_path / "r.jsonl"
    assert main(["certify", "--model", str(trap_model), "--data", str(data),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: input_dim: expected an integer, got 1.5\n"
    assert not out.exists()


def test_version_runs():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
