"""Tests of the benchmark itself: seeded inputs, the reference check, the runner.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import netgen  # noqa: E402
import refcheck  # noqa: E402
import run  # noqa: E402
import relucert.lp  # noqa: E402
from relucert import Conv, MaxPool, load_model, pointwise_robustness, record_to_json  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

TINY = netgen.Workload("tiny", "dense", (5, 16, 16, 4), None,
                       jitter=0.02, targets="second", respect_domain=False,
                       round_points=6, file_points=20)


@pytest.mark.parametrize("name", sorted(netgen.WORKLOADS))
def test_one_seed_gives_byte_identical_files(name, tmp_path):
    w = dataclasses.replace(netgen.WORKLOADS[name], file_points=30)
    files = []
    for sub, seed in (("a", 3), ("b", 3), ("c", 4)):
        work = tmp_path / sub
        work.mkdir()
        run.write_inputs(w, seed, work)
        files.append(((work / "model.json").read_bytes(), (work / "data.csv").read_bytes()))
    assert files[0] == files[1]
    assert files[0][0] == files[2][0]
    assert (files[0][1] != files[2][1]) == bool(w.jitter)


def test_reference_unrolls_like_relucert():
    rng = np.random.default_rng(0)
    spec = {"kernel": rng.normal(size=(3, 2, 3, 3)), "bias": rng.normal(size=3),
            "stride": 2, "padding": 1, "input_shape": [2, 7, 6]}
    conv = Conv(spec["kernel"], spec["bias"], 2, 1, (2, 7, 6))
    weights, bias = refcheck._conv_matrix(spec)
    assert np.allclose(weights, conv.as_dense.weights)
    assert np.allclose(bias, conv.as_dense.bias)
    pool = {"window": [2, 3], "stride": 2, "input_shape": [3, 6, 7]}
    assert np.array_equal(refcheck._pool_windows(pool),
                          MaxPool((2, 3), 2, (3, 6, 7)).windows)


@pytest.fixture(scope="module")
def tiny_records(tmp_path_factory):
    """Records relucert gives for TINY's points, with their references."""
    work = tmp_path_factory.mktemp("tiny")
    model_path, data_path = run.write_inputs(TINY, 1, work)
    layers, _ = refcheck.load_layers(model_path)
    x = run.read_points(data_path, TINY.file_points)
    net = load_model(model_path)
    out = []
    for i in range(TINY.file_points):
        record = record_to_json(pointwise_robustness(net, x[i], seed_index=i))
        out.append((record, refcheck.reference(layers, x[i], "second", None)))
    return out, layers


def _found(tiny_records):
    records, layers = tiny_records
    record, ref = next((r, ref) for r, ref in records if r["rho"] is not None)
    return json.loads(json.dumps(record)), ref, layers


def test_reference_accepts_every_program_record(tiny_records):
    records, layers = tiny_records
    assert all(refcheck.check_record(r, ref, layers) == [] for r, ref in records)


def test_reference_rejects_rho_off_by_1e_4(tiny_records):
    record, ref, layers = _found(tiny_records)
    record["rho"] += 1e-4
    assert any("HiGHS" in e for e in refcheck.check_record(record, ref, layers))


def test_reference_rejects_witness_outside_region(tiny_records):
    record, ref, layers = _found(tiny_records)
    g, h = refcheck._unit_rows(ref.G, ref.h)
    adv = np.asarray(record["adversarial"])
    j = int(np.argmax(np.abs(g).sum(axis=1)))
    adv = adv - (g[j] @ adv + h[j] + 1e-3) * g[j] / (g[j] @ g[j])
    record["adversarial"] = adv.tolist()
    assert any("outside the region" in e for e in refcheck.check_record(record, ref, layers))


def test_reference_rejects_not_found_where_highs_is_feasible(tiny_records):
    record, ref, layers = _found(tiny_records)
    record["rho"] = record["adversarial"] = None
    assert any("not found" in e for e in refcheck.check_record(record, ref, layers))


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_runner_prints_every_metric_of_the_benchmark(trace, key, monkeypatch, capsys):
    monkeypatch.setitem(netgen.WORKLOADS, "tiny", TINY)
    assert run.main(["--workload", "tiny", "--seed", "2", "--seconds", "0.2",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] % TINY.round_points == 0
    assert {m["name"]: m["unit"] for m in bench[key]} == \
        {name: m["unit"] for name, m in result["metrics"].items()}


def test_computed_tableau_size_matches_the_simplex(monkeypatch):
    """tableau_mb against the first 2-D array simplex_solve allocates, its tableau."""
    shapes = []

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def zeros(self, shape, *args, **kwargs):
            if isinstance(shape, tuple) and len(shape) == 2:
                shapes.append(shape)
            return np.zeros(shape, *args, **kwargs)

    rng = np.random.default_rng(0)
    constraints = [relucert.lp.LinearConstraint(rng.normal(size=3), sense, rhs)
                   for sense, rhs in (("<=", 1.0), ("<=", -0.5), (">=", -2.0), ("=", 0.3))]
    problem = relucert.lp.LPProblem(3, np.ones(3), constraints,
                                    bounds=[(-1.0, 1.0), (-2.0, 3.0), (0.0, math.inf)])
    monkeypatch.setattr(relucert.lp, "np", Numpy())
    relucert.lp.simplex_solve(problem)
    monkeypatch.undo()
    assert run.tableau_mb(relucert.lp, problem) == shapes[0][0] * shapes[0][1] * 8 / 2**20


def _record(index, error=None):
    return {"index": index, "error": error} if error else {"index": index, "rho": 0.1}


def test_only_the_known_fault_in_every_round_keeps_a_run_correct():
    conv = dataclasses.replace(TINY, round_points=2, known_fault="phase-1 objective unbounded")
    fault = "phase-1 objective unbounded"
    records = [_record(0), _record(1, fault), _record(0), _record(1, fault)]
    verdicts = [None, ["raised"], None, ["raised"]]
    assert run.wrong_outputs(conv, records, verdicts) == []
    assert run.wrong_outputs(TINY, records, verdicts) != []
    other = [_record(0), _record(1, "objective unbounded below")]
    assert run.wrong_outputs(conv, other, [None, ["raised"]]) != []
    changing = [_record(0), _record(1, fault), _record(0), _record(1)]
    assert run.wrong_outputs(conv, changing, [None, ["raised"], None, None]) != []
    mismatch = [_record(0), _record(1)]
    assert run.wrong_outputs(conv, mismatch, [["rho off"], None]) != []
