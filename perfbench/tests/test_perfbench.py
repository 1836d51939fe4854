"""Tests of the benchmark itself: inputs, metric tables, checks, tracing.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The exact-solver confirmation at n = 256 takes about four minutes;
set ``PERFBENCH_SLOW=1`` to include it.
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

from perfbench import engines, inputs, metrics
from perfbench.layers import LayerTrace, engine_tracing, service_tracing
from repro.experiments.common import ConvergenceOutcome

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def run_bench(*args, cwd=ROOT, timeout=170):
    """The benchmark command, as run from the root of a checkout."""
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args], cwd=cwd,
        capture_output=True, text=True, timeout=timeout, check=False,
    )


def result_line(completed):
    return json.loads(completed.stdout.strip().splitlines()[-1])


def run_short(monkeypatch, capsys, *args):
    """``run.main`` in this process, with a short run's sample count.

    Returns the exit code and the result line.
    """
    from perfbench import run

    monkeypatch.setattr(run, "MIN_SAMPLES", 3)
    code = run.main(list(args))
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


# -- inputs ------------------------------------------------------------------


@pytest.mark.parametrize("workload", inputs.ENGINE_WORKLOADS)
def test_same_seed_gives_identical_trial_inputs(workload):
    for index in range(3):
        protocol_a, states_a, rng_a = engines.prepare(workload, 7, index)
        protocol_b, states_b, rng_b = engines.prepare(workload, 7, index)
        assert repr(states_a) == repr(states_b)
        assert rng_a.getstate() == rng_b.getstate()
        assert type(protocol_a) is type(protocol_b) and protocol_a.n == protocol_b.n


@pytest.mark.parametrize("workload", ("optimal-silent", "sublinear"))
def test_other_seed_gives_other_random_starts(workload):
    _, states_a, rng_a = engines.prepare(workload, 7, 0)
    _, states_b, rng_b = engines.prepare(workload, 8, 0)
    assert repr(states_a) != repr(states_b)
    assert rng_a.getstate() != rng_b.getstate()


def test_ciw_start_is_the_worst_case_witness():
    protocol, states, _ = engines.prepare("ciw-worst", 7, 0)
    assert protocol.n == inputs.CIW_N
    assert sorted(states) == [0] + list(range(inputs.CIW_N - 1))


def take(iterator, count):
    return [next(iterator) for _ in range(count)]


def test_same_seed_gives_identical_job_specs():
    assert take(inputs.job_plan(7), 60) == take(inputs.job_plan(7), 60)
    assert inputs.warmup_jobs(7) == inputs.warmup_jobs(7)
    assert take(inputs.job_plan(7), 60) != take(inputs.job_plan(8), 60)


def test_job_plan_blocks_hold_one_request_per_class():
    plan = take(inputs.job_plan(3), 30)
    for start in range(0, 30, 3):
        assert sorted(r.cls for r in plan[start:start + 3]) == sorted(inputs.JOB_CLASSES)
    fresh = [r for r in plan if r.cls != "hit"]
    assert all(r.spec["seed"] != s.spec["seed"] for r in fresh for s in fresh if r is not s)
    for request in fresh:
        base = inputs.SWEEP_SPEC if request.cls == "sweep" else inputs.QUICK_SPEC
        assert {k: v for k, v in request.spec.items() if k != "seed"} == base


# -- metric tables -----------------------------------------------------------


def test_metric_tables_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)


def assert_every_metric_with_unit(result, table):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _ in table]
    for name, unit in table:
        entry = result["metrics"][name]
        assert entry["unit"] == unit
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("workload", inputs.ENGINE_WORKLOADS)
def test_engine_run_prints_every_end_to_end_metric(workload, monkeypatch, capsys):
    code, result = run_short(monkeypatch, capsys, "--workload", workload, "--seed", "5",
                             "--seconds", "0.2")
    assert code == 0
    assert_every_metric_with_unit(result, metrics.END_TO_END)
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_engine_run_prints_every_per_layer_metric():
    completed = run_bench("--workload", "optimal-silent", "--seed", "5", "--seconds", "0.2",
                          "--trace", "1")
    assert completed.returncode == 0, completed.stderr
    result = result_line(completed)
    assert_every_metric_with_unit(result, metrics.PER_LAYER)
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert values["common.count_engine_share"] == 1.0
    assert values["countsim.events"] > 0 and values["protocol.transition_calls"] > 0
    assert values["jobs.count"] == 0


@pytest.mark.parametrize("trace", ("0", "1"))
def test_service_run_prints_every_metric(trace, monkeypatch, capsys):
    code, result = run_short(monkeypatch, capsys, "--workload", "service-mix", "--seed", "5",
                             "--seconds", "0.5", "--trace", trace)
    assert code == 0
    table = metrics.PER_LAYER if trace == "1" else metrics.END_TO_END
    assert_every_metric_with_unit(result, table)
    if trace == "1":
        values = {name: entry["value"] for name, entry in result["metrics"].items()}
        parts = values["jobs.queue_wait_s"] + values["jobs.exec_s"] + values["jobs.overhead_s"]
        assert parts == pytest.approx(values["jobs.latency_s"], rel=1e-9)
        assert values["jobs.cache_hits"] >= 1 and values["parallel.trials"] == 4
        assert values["jobs.refused"] == 0 and values["jobs.retries"] == 0


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_bench("--workload", "sublinear", "--seconds", "1", cwd=tmp_path,
                          timeout=60)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


# -- correctness checks ------------------------------------------------------


def outcome(time, converged=True, certified=True):
    return ConvergenceOutcome(n=inputs.CIW_N, converged=converged, convergence_time=time,
                              interactions=0, silent_certified=certified, regressions=0)


def test_ciw_mean_check_accepts_exact_and_flags_bias():
    exact = engines.ciw_expected_time(inputs.CIW_N)
    assert engines.batch_failure("ciw-worst", [outcome(exact)] * 50) is None
    assert engines.batch_failure("ciw-worst", [outcome(exact * 1.05)] * 50) is not None
    assert engines.batch_failure("optimal-silent", [outcome(exact * 2)] * 50) is None


def test_trial_check_needs_convergence_and_silence_certificate():
    assert engines.trial_failure("ciw-worst", outcome(1.0)) is None
    assert engines.trial_failure("ciw-worst", outcome(1.0, converged=False)) is not None
    assert engines.trial_failure("optimal-silent", outcome(1.0, certified=False)) is not None
    assert engines.trial_failure("sublinear", outcome(1.0, certified=False)) is None


@pytest.mark.parametrize(
    "n",
    [64, 128, pytest.param(256, marks=pytest.mark.skipif(
        os.environ.get("PERFBENCH_SLOW") != "1", reason="exact solve takes minutes"))],
)
def test_ciw_closed_form_matches_exact_solver(n):
    from repro.analysis.exact import worst_case_expected_interactions

    exact = worst_case_expected_interactions(n) / n
    assert exact == pytest.approx((n - 1) ** 2 / 2, rel=1e-9)


# -- tracing -----------------------------------------------------------------


def test_engine_tracing_restores_the_program():
    import repro.experiments.common as common

    originals = (common.Simulation, common.is_silent, common.select_count_engine)
    protocol, states, rng = engines.prepare("optimal-silent", 1, 0)
    trace = LayerTrace()
    with engine_tracing(trace, protocol):
        assert common.is_silent is not originals[1]
    assert (common.Simulation, common.is_silent, common.select_count_engine) == originals
    assert "transition" not in vars(protocol)


def test_tracing_does_not_change_an_outcome():
    for workload in ("optimal-silent", "sublinear"):
        plain = engines.run_trial(workload, *engines.prepare(workload, 3, 0))[1]
        trace = LayerTrace()
        traced = engines.run_trial(workload, *engines.prepare(workload, 3, 0), trace)[1]
        assert traced == plain
        assert trace.calls["protocol.transition"] > 0


def test_service_tracing_restores_the_program():
    import repro.service.jobs as jobs
    from repro.core.parallel import ParallelTrialRunner

    class Store:
        def append(self, record):
            return True

        write_result = load_result = append

    class Manager:
        store = Store()

        def submit(self, payload):
            return None, True

    manager = Manager()
    execute_spec, map_trials = jobs.execute_spec, ParallelTrialRunner.map_trials
    with service_tracing(LayerTrace(), manager):
        assert jobs.execute_spec is not execute_spec
    assert jobs.execute_spec is execute_spec
    assert ParallelTrialRunner.map_trials is map_trials
    assert "submit" not in vars(manager) and "append" not in vars(manager.store)


def test_refusals_and_retries_count_failed_requests():
    from perfbench.run import service_layers
    from perfbench.service_mix import JobOutcome

    refused = JobOutcome("quick", failure="refused with 429", refused=True)
    retried = JobOutcome("sweep", failure="job ended 'failed'", retries=2)
    values = service_layers([], [refused, retried], {}, {})
    assert values["jobs.refused"] == 1 and values["jobs.retries"] == 2


def test_quantile_interpolates():
    values = [float(v) for v in range(11)]
    random.Random(1).shuffle(values)
    assert metrics.quantile(values, 0.1) == pytest.approx(1.0)
    assert metrics.quantile(values, 0.5) == pytest.approx(5.0)
    assert metrics.quantile(values, 0.9) == pytest.approx(9.0)
