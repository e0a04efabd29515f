"""Smoke, oracle, determinism, leak-guard and compare tests of the benchmark.

Run with ``PYTHONPATH=src python -m pytest bench/tests -q``. The smoke pass
runs every workload once untraced and once traced on a 1 s window (set-up
repeats shrink with the window), so the whole file takes about a minute once
the forests are in ``.bench_cache/``; the very first run also trains them.
"""

from __future__ import annotations

import copy
import json
import re

import numpy as np
import pytest

from bench import compare, spec
from bench.harness import run_workload
from bench.inputs import make_inputs
from bench.oracle import Oracle
from bench.timing import PROBE_TOLERANCE, SliceTimer
from bench.workloads import online_b1

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: exact counts: equal across two runs of one seed, on every workload
EXACT = {
    False: ["model_bytes"],
    True: [
        "hir.tiles_total", "mir.walk_ops", "lir.model_bytes", "backend.source_bytes",
        "backend.scratch_bytes", "backend.walk_steps_per_row",
    ],
}


@pytest.fixture(scope="module")
def runs():
    """Every workload once per run kind, on a shortened window."""
    return {
        (name, traced): run_workload(name, seed=7, seconds=1.0, traced=traced)
        for name in spec.workload_names()
        for traced in (False, True)
    }


def test_declaration_is_well_formed():
    declared = spec.load()
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert "setup_s" in spec.metrics(False)
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])


def test_every_declared_pair_is_emitted(runs):
    for (name, traced), result in runs.items():
        assert set(result.metrics) == set(spec.metrics(traced)), (name, traced)
        for metric, entry in result.metrics.items():
            assert NAME.match(metric)
            assert np.isfinite(entry["value"]), (name, metric)
            assert entry["unit"] == spec.metrics(traced)[metric]["unit"]
        if not traced:
            assert all(entry["value"] > 0 for entry in result.metrics.values()), name
        contract = result.contract()
        assert set(contract) == {"correct", "attempted", "failed", "metrics"}
        json.dumps(contract)  # plain numbers only


def test_no_response_fails_and_nothing_leaks(runs):
    for key, result in runs.items():
        assert result.attempted >= 1 and result.failed == 0, key
        assert "leaks" not in result.detail, (key, result.detail.get("leaks"))
        assert result.correct


def test_sharded_reports_its_measured_local_twin(runs):
    detail = runs[("sharded_b2048", False)].detail
    assert detail["local_twin"]["rows_per_s"] > 0
    assert detail["measured_speedup"] > 0


def test_same_seed_same_inputs_and_exact_counts(runs):
    """``online_b1`` and ``batched_open`` build the same inputs (higgs, a
    pool of 64 rows) from the same seed in separate runs: the digests and
    every exact count must agree."""
    for traced in (False, True):
        first, again = runs[("online_b1", traced)], runs[("batched_open", traced)]
        assert again.detail["inputs_sha256"] == first.detail["inputs_sha256"]
        for metric in EXACT[traced]:
            assert again.metrics[metric]["value"] == first.metrics[metric]["value"], metric


def test_a_different_seed_changes_the_inputs():
    models = {"higgs_small": (2, 8)}
    assert make_inputs(1, models).sha256() == make_inputs(1, models).sha256()
    assert make_inputs(1, models).sha256() != make_inputs(2, models).sha256()


def test_oracle_is_live():
    """A predictor that corrupts one response in 100 must show up as a
    failed share of 0.01: the checker really compares."""
    inputs = make_inputs(3, {"higgs_small": (64, 1)})
    # online_b1 serves the forest it finds under "higgs"
    for table in (inputs.forests, inputs.rows, inputs.raw, inputs.predicted):
        table["higgs"] = table["higgs_small"]
    oracle = Oracle()
    session = online_b1.Session(inputs, oracle)
    try:
        outputs = [session.request(i) for i in range(999)]
    finally:
        session.close()
    for i in range(50, 999, 100):
        outputs[i] = outputs[i] + 1e-6
    session.verify(0, outputs)
    assert oracle.attempted == 1000  # the 999 plus set-up's first response
    assert oracle.failed == 10
    assert oracle.failed_share == pytest.approx(0.01)


def test_a_slice_that_saw_a_state_change_is_dropped(monkeypatch):
    readings = iter([60.0, 60.0 * (1 + 2 * PROBE_TOLERANCE)] + [64.0] * 6 + [120.0] * 2)
    monkeypatch.setattr("bench.timing.probe_us", lambda repeats=0: next(readings))
    timer = SliceTimer()
    timer.begin()
    assert not timer.end([1.0, 1.0])  # the probes disagree
    for _ in range(3):
        timer.begin(fresh=True)
        assert timer.end([10.0, 10.0])
    timer.begin(fresh=True)
    assert not timer.end([1.0, 1.0])  # steady, but in a contended state
    assert timer.result.discarded == 2
    assert timer.result.p50() == pytest.approx(12.5)  # scaled from 64 to 80 µs


def _result_file(tmp_path, name, runs, scale=1.0, spread=None):
    results = []
    for (workload, traced), result in runs.items():
        if traced:
            continue
        entry = copy.deepcopy(result.to_dict())
        entry["metrics"]["latency_p50_us"]["value"] *= scale
        if spread is not None:
            entry["detail"]["slice_spread"] = spread
        results.append(entry)
    path = tmp_path / name
    path.write_text(json.dumps({"schema": 1, "results": results}))
    return str(path)


def test_compare_passes_a_over_a_and_flags_a_regression(tmp_path, runs, capsys):
    a = _result_file(tmp_path, "a.json", runs, spread=0.01)
    assert compare.main([a, a]) == 0
    assert "unresolved" not in capsys.readouterr().out.replace("0 unresolved", "")
    worse = _result_file(tmp_path, "worse.json", runs, scale=1.5, spread=0.01)
    assert compare.main([a, worse]) == 1
    assert "REGRESSION" in capsys.readouterr().out
    noisy = _result_file(tmp_path, "noisy.json", runs, spread=0.9)
    assert compare.main([a, noisy]) == 0
    assert " unresolved" in capsys.readouterr().out
