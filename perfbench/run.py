#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload ciw-worst --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced and traced operations on the same
kind of input and reports the per-layer metrics of the traced ones,
with the tracing overhead measured against the untraced ones.

The last line of standard output is the JSON result.  The exit code is
1 when a correctness check failed and 2 when the program is missing or
could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    # As a script, sys.path[0] is this directory, whose module names
    # could shadow others; import the benchmark as the ``perfbench``
    # package and the program from ``src`` instead.
    sys.path[0:1] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import inputs, metrics  # noqa: E402
from perfbench.layers import LayerTrace, clock  # noqa: E402

#: Samples per timed class an end-to-end run collects at least, so that
#: p90 has ten samples beyond it.
MIN_SAMPLES = 100
#: Hard cap on one run's measuring time, whatever the sample count.
MAX_MEASURE_S = 110.0
#: Untraced/traced pairs a traced run collects at least.
MIN_TRACE_PAIRS = 10
#: Fresh processes that repeat the set-up, besides this one.
SETUP_PROBES = 4
#: Operations a probe runs after its set-up, for its peak RSS.
PROBE_OPS = 3
#: Scratch space (job stores) inside the checkout, removed after a run.
WORK_DIR = os.path.join(ROOT, ".perfbench_work")


@dataclass
class Report:
    """What one run measured and checked."""

    attempted: int = 0
    #: Operations that failed; ``failures`` also holds run-level checks.
    failed: int = 0
    #: The reference timing taken before each timed operation.
    references: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    values: Dict[str, float] = field(default_factory=dict)
    #: Human-readable rows: (name, value, unit, note).
    rows: List[Tuple[str, float, str, str]] = field(default_factory=list)

    def fail(self, message: str, *, operation: bool = True) -> None:
        self.failed += operation
        self.failures.append(message)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def setup_once(workload: str, store_root: str) -> Tuple[float, Any]:
    """Import the program and do the workload's one-time set-up.

    Returns the seconds it took, unscaled, and, for the service
    workload, the running server.
    """
    start = clock()
    server = None
    if workload == inputs.SERVICE_WORKLOAD:
        from perfbench import service_mix

        server = service_mix.setup(store_root)
    else:
        from perfbench import engines

        engines.setup(workload)
    return clock() - start, server


def probe(workload: str, seed: int) -> Dict[str, float]:
    """Run :func:`probe_body` in a fresh interpreter; what it measured."""
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {completed.stderr.strip()[-500:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def probe_body(args: argparse.Namespace, store_root: str) -> Dict[str, float]:
    """Set up, then run the first operations of the seed's input stream.

    The set-up time repeats this run's; the peak RSS, taken after the
    operations, is the footprint of the set-up and of typical
    operations.  A whole run's peak instead follows its single most
    memory-hungry trial, which varies too much from seed to seed.
    """
    seconds, server = setup_once(args.workload, store_root)
    if server is None:
        from perfbench import engines

        for index in range(PROBE_OPS):
            _, outcome = engines.run_trial(args.workload, *engines.prepare(args.workload, args.seed, index))
            if engines.trial_failure(args.workload, outcome) is not None:
                raise RuntimeError(f"probe trial {index} failed")
    else:
        from perfbench import service_mix

        try:
            completed: List[Any] = []
            for request in inputs.warmup_jobs(args.seed):
                outcome = service_mix.run_request(server, request, completed)
                if outcome.failure is not None:
                    raise RuntimeError(f"probe {request.cls} job failed: {outcome.failure}")
        finally:
            server.stop()
    wait_for_children()
    return {"setup_s": seconds, "peak_rss_mb": metrics.peak_rss_mb()}


def speed_row(references: Sequence[float]) -> Tuple[str, float, str, str]:
    """How fast this run's host was against the reference speed."""
    return ("host_speed", metrics.REFERENCE_S / metrics.median(references), "ratio",
            "reference speed = 1; op_s_* and setup_s are scaled by it")


# ---------------------------------------------------------------------------
# Engine workloads
# ---------------------------------------------------------------------------


def run_engine_workload(args: argparse.Namespace, report: Report) -> None:
    from perfbench import engines

    workload, seed = args.workload, args.seed
    protocol, states, rng = engines.prepare(workload, seed, -1)
    engines.run_trial(workload, protocol, states, rng)  # warm-up, untimed

    plain: List[float] = []
    references: List[float] = []
    traced: List[float] = []
    traces: List[LayerTrace] = []
    outcomes: List[Any] = []
    index = 0
    start = clock()
    while True:
        # Traced runs repeat each trial on identical inputs, untraced
        # and traced, alternating which goes first.
        modes = [False] if not args.trace else ([False, True] if index % 2 else [True, False])
        results: Dict[bool, Any] = {}
        for with_trace in modes:
            protocol, states, rng = engines.prepare(workload, seed, index)
            trace = LayerTrace() if with_trace else None
            reference = metrics.reference_seconds()
            report.attempted += 1
            try:
                seconds, outcome = engines.run_trial(workload, protocol, states, rng, trace)
            except Exception as exc:  # a crashing trial is a failed trial
                report.fail(f"trial {index}: {type(exc).__name__}: {exc}")
                continue
            failure = engines.trial_failure(workload, outcome)
            if failure is not None:
                report.fail(f"trial {index}: {failure}")
                continue
            results[with_trace] = outcome
            if trace is None:
                plain.append(seconds)
                references.append(reference)
                outcomes.append(outcome)
            else:
                traced.append(seconds)
                traces.append(trace)
        if len(results) == 2 and results[True] != results[False]:
            report.fail(f"trial {index}: tracing changed the outcome", operation=False)
        index += 1
        elapsed = clock() - start
        if elapsed >= MAX_MEASURE_S:
            break
        enough = len(traces) >= MIN_TRACE_PAIRS if args.trace else len(plain) >= MIN_SAMPLES
        if elapsed >= args.seconds and enough:
            break
    wall = clock() - start

    batch = engines.batch_failure(workload, outcomes)
    if batch is not None:
        report.fail(batch, operation=False)
    if not plain:
        report.fail("no trial completed", operation=False)
        return
    if workload == "ciw-worst":
        exact = engines.ciw_expected_time(inputs.CIW_N)
        mean = sum(o.convergence_time for o in outcomes) / len(outcomes)
        report.rows.append(("ciw.mean_time/exact", mean / exact, "ratio",
                            f"exact (n-1)^2/2 = {exact:g}, {len(outcomes)} trials"))
    if args.trace:
        report.values.update(engine_layers(traces, traced, plain))
        return
    report.references = references
    latency = metrics.latency_summary(metrics.scaled(plain, references))
    raw = metrics.latency_summary(plain)
    report.values.update(
        op_s_p50=latency["p50"],
        op_s_p90=latency["p90"],
    )
    report.rows += [
        ("trials_per_s", len(plain) / wall, "1/s", f"{len(plain)} trials, unscaled"),
        ("trial_s_p50", raw["p50"], "s", f"n={len(plain)}, unscaled"),
        ("trial_s_p90", raw["p90"], "s", f"n={len(plain)}, unscaled"),
        speed_row(references),
    ]


def engine_layers(
    traces: Sequence[LayerTrace], traced: Sequence[float], plain: Sequence[float]
) -> Dict[str, float]:
    """Per-layer metrics of the traced trials (per trial unless a ratio)."""
    values = {name: 0.0 for name, _ in metrics.PER_LAYER}
    trials = len(traces)
    if not trials:
        return values
    counted = [t for t in traces if t.calls["common.count_path"]]
    generic = [t for t in traces if not t.calls["common.count_path"]]

    def seconds(ts: Sequence[LayerTrace], name: str) -> float:
        return sum(t.seconds[name] for t in ts)

    def calls(ts: Sequence[LayerTrace], name: str) -> int:
        return sum(t.calls[name] for t in ts)

    values["common.trials"] = trials
    values["common.count_engine_share"] = len(counted) / trials
    if counted:
        events = calls(counted, "countsim.events")
        changes = calls(counted, "countsim.changes")
        run_s = seconds(counted, "countsim.run")
        values.update({
            "countsim.init_s": seconds(counted, "countsim.init") / len(counted),
            "countsim.run_s": run_s / len(counted),
            "countsim.events": events / len(counted),
            "countsim.changes": changes / len(counted),
            "countsim.events_per_s": events / run_s if run_s else 0.0,
            "countsim.useful_ratio": changes / events if events else 0.0,
            "countsim.memo_hit_ratio": (
                1.0 - calls(counted, "protocol.transition") / events if events else 0.0
            ),
        })
    if generic:
        run_s = seconds(generic, "simulation.run")
        interactions = calls(generic, "simulation.interactions")
        values.update({
            "simulation.run_s": run_s / len(generic),
            "simulation.interactions": interactions / len(generic),
            "simulation.interactions_per_s": interactions / run_s if run_s else 0.0,
        })
    values.update({
        "configuration.is_silent_calls": calls(traces, "configuration.is_silent") / trials,
        "configuration.is_silent_s": seconds(traces, "configuration.is_silent") / trials,
        "protocol.transition_calls": calls(traces, "protocol.transition") / trials,
        "protocol.transition_s": seconds(traces, "protocol.transition") / trials,
        "trace.samples": trials,
        # Twins: every traced trial repeats an untraced one's inputs.
        "trace.overhead_frac": (sum(traced) / len(traced)) / (sum(plain) / len(plain)) - 1.0,
    })
    return values


# ---------------------------------------------------------------------------
# Service workload
# ---------------------------------------------------------------------------


def run_service_workload(args: argparse.Namespace, report: Report, server: Any) -> None:
    from perfbench import service_mix

    completed: List[service_mix.Completed] = []

    def send(request: inputs.JobRequest, trace: Optional[LayerTrace]) -> Any:
        report.attempted += 1
        try:
            outcome = service_mix.run_request(server, request, completed, trace)
        except Exception as exc:  # a request that errors is a failed request
            outcome = service_mix.JobOutcome(request.cls, failure=f"{type(exc).__name__}: {exc}")
        if outcome.failure is not None:
            report.fail(f"{request.cls} job: {outcome.failure}")
        elif outcome.completed is not None:
            completed.append(outcome.completed)
        return outcome

    for request in inputs.warmup_jobs(args.seed):
        send(request, None)

    plan = inputs.job_plan(args.seed)
    plain: Dict[str, List[float]] = defaultdict(list)
    # Untraced latencies in the order they were measured, with the
    # reference timing taken before each request.
    sequence: List[float] = []
    references: List[float] = []
    traced_latency: Dict[str, List[float]] = defaultdict(list)
    traced: List[Any] = []
    # Every traced request, failed ones included, for refusals and retries.
    traced_all: List[Any] = []
    block = 0
    start = clock()
    while True:
        # Traced runs alternate untraced and traced blocks.
        tracing = bool(args.trace) and block % 2 == 1
        for _ in inputs.JOB_CLASSES:
            request = next(plan)
            reference = metrics.reference_seconds()
            outcome = send(request, LayerTrace() if tracing else None)
            if tracing:
                traced_all.append(outcome)
            if outcome.failure is not None:
                continue
            if tracing:
                traced.append(outcome)
                traced_latency[outcome.cls].append(outcome.latency)
            else:
                plain[outcome.cls].append(outcome.latency)
                sequence.append(outcome.latency)
                references.append(reference)
        block += 1
        elapsed = clock() - start
        if elapsed >= MAX_MEASURE_S:
            break
        fewest = min(len(plain[cls]) for cls in inputs.JOB_CLASSES)
        if args.trace:
            fewest = min(fewest, min(len(traced_latency[cls]) for cls in inputs.JOB_CLASSES))
        enough = fewest >= (MIN_TRACE_PAIRS if args.trace else MIN_SAMPLES)
        if elapsed >= args.seconds and enough:
            break
    wall = clock() - start

    if not sequence:
        report.fail("no job completed", operation=False)
        return
    if args.trace:
        report.values.update(service_layers(traced, traced_all, traced_latency, plain))
        parts = sum(report.values[f"jobs.{p}_s"] for p in ("queue_wait", "exec", "overhead"))
        report.rows.append(("jobs.parts-latency", parts - report.values["jobs.latency_s"], "s",
                            "queue_wait + exec + overhead - latency, should be 0"))
        return
    report.references = references
    latency = metrics.latency_summary(metrics.scaled(sequence, references))
    ops = len(sequence)
    report.values.update(
        op_s_p50=latency["p50"],
        op_s_p90=latency["p90"],
    )
    report.rows.append(("jobs_per_s", ops / wall, "1/s", f"{ops} jobs, unscaled"))
    for cls in inputs.JOB_CLASSES:
        if plain[cls]:
            summary = metrics.latency_summary(plain[cls])
            for q in ("p50", "p90"):
                report.rows.append((f"{cls}_s_{q}", summary[q], "s",
                                    f"n={len(plain[cls])}, unscaled"))
    report.rows.append(speed_row(references))


def service_layers(
    traced: Sequence[Any],
    traced_all: Sequence[Any],
    traced_latency: Dict[str, List[float]],
    plain: Dict[str, List[float]],
) -> Dict[str, float]:
    """Per-layer metrics of the traced jobs (per job unless a count or ratio).

    ``traced`` holds the traced jobs that succeeded, ``traced_all``
    every traced request.  Pool and fault metrics are per sweep job;
    ``obs.records_per_job`` is per fresh job; cache hits are a total
    over the ``jobs.count`` succeeded jobs; refusals and retries are
    totals over every traced request, since a refused job fails.
    """
    values = {name: 0.0 for name, _ in metrics.PER_LAYER}
    values["jobs.refused"] = sum(o.refused for o in traced_all)
    values["jobs.retries"] = sum(o.retries for o in traced_all)
    jobs = len(traced)
    if not jobs:
        return values
    sweeps = [o for o in traced if o.cls == "sweep"]
    fresh = [o for o in traced if o.cls != "hit"]

    def mean(items: Sequence[Any], get: Any) -> float:
        return sum(get(item) for item in items) / len(items) if items else 0.0

    values.update({
        "api.submit_s": mean(traced, lambda o: o.submit_s),
        "api.result_s": mean(traced, lambda o: o.result_s),
        "jobs.count": jobs,
        "jobs.latency_s": mean(traced, lambda o: o.latency),
        "jobs.queue_wait_s": mean(traced, lambda o: o.parts["queue_wait"]),
        "jobs.exec_s": mean(traced, lambda o: o.parts["exec"]),
        "jobs.overhead_s": mean(traced, lambda o: o.parts["overhead"]),
        "jobs.cache_hits": sum(o.cache_hit for o in traced),
        "store.append_calls": mean(traced, lambda o: o.trace.calls["store.append"]),
        "store.append_s": mean(traced, lambda o: o.trace.seconds["store.append"]),
        "store.write_result_s": mean(traced, lambda o: o.trace.seconds["store.write_result"]),
        "store.load_result_s": mean(traced, lambda o: o.trace.seconds["store.load_result"]),
        "parallel.map_s": mean(sweeps, lambda o: o.trace.seconds["parallel.map"]),
        "parallel.overhead_s": mean(sweeps, lambda o: o.trace.seconds["parallel.overhead"]),
        "parallel.trials": mean(sweeps, lambda o: o.trace.calls["parallel.trials"]),
        "faults.recovery_s": mean(sweeps, lambda o: o.trace.seconds["faults.recovery"]),
        "faults.recovery_calls": mean(sweeps, lambda o: o.trace.calls["faults.recovery"]),
        "obs.records_per_job": mean(fresh, lambda o: o.records),
        "trace.samples": jobs,
    })
    # Mix-weighted: per class, traced median against untraced median.
    classes = [c for c in inputs.JOB_CLASSES if traced_latency[c] and plain[c]]
    untraced_total = sum(metrics.median(plain[c]) for c in classes)
    if untraced_total:
        traced_total = sum(metrics.median(traced_latency[c]) for c in classes)
        values["trace.overhead_frac"] = traced_total / untraced_total - 1.0
    return values


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def wait_for_children(timeout: float = 30.0) -> None:
    """Wait until every child process (pool workers) has ended."""
    import multiprocessing

    deadline = clock() + timeout
    while multiprocessing.active_children():
        if clock() > deadline:
            for child in multiprocessing.active_children():
                child.terminate()
                child.join(5)
            break
        time.sleep(0.02)


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="only set up and run a few operations, then print the set-up "
                             "time and peak RSS (used internally)")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program at {os.path.join(ROOT, 'src', 'repro')}", file=sys.stderr)
        return 2
    work = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    server = None
    try:
        if args.probe:
            print(json.dumps(probe_body(args, os.path.join(work, "store"))))
            return 0
        # Probes first: a child inherits the peak RSS of the process it
        # was forked from, so they must start before this one grows.
        probes = [probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        report = Report()
        seconds, server = setup_once(args.workload, os.path.join(work, "store"))
        if server is None:
            run_engine_workload(args, report)
        else:
            run_service_workload(args, report, server)
            server.stop()
            server = None
        wait_for_children()
        report.rows.append(("run_peak_rss_mb", metrics.peak_rss_mb(), "MB",
                            "this whole run, or its largest probe or pool worker"))
        if report.references:
            # The set-ups all happen within seconds of the operations, so
            # the run's host speed scales them; the few reference timings
            # that would fit around one set-up are too few to follow the
            # host.
            setup = metrics.median([seconds] + [p["setup_s"] for p in probes])
            report.values["setup_s"] = (
                setup * metrics.REFERENCE_S / metrics.median(report.references)
            )
        report.values["peak_rss_mb"] = metrics.median([p["peak_rss_mb"] for p in probes])
        return finish(args, report)
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    finally:
        if server is not None:
            server.stop()
        wait_for_children()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass


def finish(args: argparse.Namespace, report: Report) -> int:
    """Print the report and the result line; the exit code."""
    from repro.obs.provenance import git_sha

    # Outside a git checkout, git would search the parent directories.
    sha = git_sha() if os.path.isdir(os.path.join(ROOT, ".git")) else None
    failed = report.failed
    attempted = max(report.attempted, 1)
    table = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    missing = [name for name, _ in table if name not in report.values]
    if missing:
        report.fail(f"metrics not measured: {', '.join(missing)}", operation=False)
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# stamp " + json.dumps(metrics.stamp(sha)))
    rows = [(name, report.values.get(name, float("nan")), unit, "") for name, unit in table]
    rows += report.rows
    rows.append(("failed_frac", failed / attempted, "ratio", f"{failed} of {attempted}"))
    for line in metrics.render_table(rows):
        print(line)
    for message in report.failures[:20]:
        print(f"# FAIL {message}")
        print(f"perfbench: FAIL {message}", file=sys.stderr)
    correct = not report.failures
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics.as_metrics(report.values, table) if not missing else {},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
