"""Tests for the statistical benchmark harness (:mod:`repro.obs.bench`).

The gate contract: a re-run at the same speed never flags (threshold
*and* statistical significance must both trip), a genuine 10x slowdown
always flags, and polarity is handled so "worse" means slower for
time-like metrics and lower for throughput-like metrics.
"""

import json
import random
from pathlib import Path

import pytest

from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    BenchSuite,
    baseline_path,
    bootstrap_ratio_ci,
    compare_cells,
    compare_suites,
    discover_suites,
    ledger_fields,
    load_baseline,
    render_comparison,
    render_suite_result,
    run_suite,
    save_baseline,
)


def _cell_doc(name, values, *, metric="seconds", higher_is_better=False):
    mean = sum(values) / len(values)
    return {
        "cell": name,
        "metric": metric,
        "higher_is_better": higher_is_better,
        "repeats": len(values),
        "values": list(values),
        "mean": mean,
        "stdev": 0.0,
    }


def _suite_doc(cells, suite="s"):
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "suite": suite,
        "seed": 1,
        "cells": cells,
        "wall_seconds": 0.0,
    }


class TestBenchSuite:
    def test_duplicate_cell_rejected(self):
        suite = BenchSuite("s").cell("a", lambda seed, repeat: 1.0)
        with pytest.raises(ValueError, match="already has a cell"):
            suite.cell("a", lambda seed, repeat: 2.0)

    def test_zero_repeats_rejected(self):
        with pytest.raises(ValueError, match="repeats must be"):
            BenchSuite("s").cell("a", lambda seed, repeat: 1.0, repeats=0)

    def test_run_suite_records_values_and_stats(self):
        calls = []

        def fn(seed, repeat):
            calls.append((seed, repeat))
            return float(10 + repeat)

        suite = BenchSuite("s").cell(
            "a", fn, repeats=3, metric="widgets", higher_is_better=True
        )
        result = run_suite(suite, seed=42)
        assert calls == [(42, 0), (42, 1), (42, 2)]
        cell = result["cells"][0]
        assert cell["values"] == [10.0, 11.0, 12.0]
        assert cell["mean"] == 11.0
        assert cell["stdev"] == 1.0
        assert cell["metric"] == "widgets"
        assert result["schema_version"] == BENCH_SCHEMA_VERSION
        assert "created_unix" in result

    def test_none_return_measured_by_wall_time(self):
        suite = BenchSuite("s").cell("a", lambda seed, repeat: None, repeats=2)
        result = run_suite(suite, seed=1)
        cell = result["cells"][0]
        assert cell["metric"] == "seconds"
        assert all(value > 0 for value in cell["values"])

    def test_cells_filter_and_unknown_rejected(self):
        suite = (
            BenchSuite("s")
            .cell("a", lambda seed, repeat: 1.0, repeats=1)
            .cell("b", lambda seed, repeat: 2.0, repeats=1)
        )
        result = run_suite(suite, seed=1, cells=["b"])
        assert [cell["cell"] for cell in result["cells"]] == ["b"]
        with pytest.raises(ValueError, match="has no cell"):
            run_suite(suite, seed=1, cells=["zzz"])

    def test_repeats_override(self):
        suite = BenchSuite("s").cell("a", lambda seed, repeat: 1.0, repeats=5)
        result = run_suite(suite, seed=1, repeats=2)
        assert result["cells"][0]["repeats"] == 2


class TestBootstrapCi:
    def test_identical_samples_ci_covers_parity(self):
        values = [1.0, 1.01, 0.99]
        low, high = bootstrap_ratio_ci(values, values, rng=random.Random(1))
        assert low <= 1.0 <= high

    def test_tenfold_shift_excludes_parity(self):
        base = [1.0, 1.02, 0.98]
        curr = [10.0, 10.2, 9.8]
        low, high = bootstrap_ratio_ci(base, curr, rng=random.Random(1))
        assert low > 5.0

    def test_deterministic_given_rng(self):
        base, curr = [1.0, 1.1, 0.9], [1.2, 1.3, 1.1]
        first = bootstrap_ratio_ci(base, curr, rng=random.Random(7))
        second = bootstrap_ratio_ci(base, curr, rng=random.Random(7))
        assert first == second


class TestCompareCells:
    def test_same_values_never_flag(self):
        base = _cell_doc("a", [1.0, 1.02, 0.98])
        verdict = compare_cells(base, dict(base), rng=random.Random(1))
        assert not verdict["regression"]
        assert verdict["change_worse_pct"] == 0.0

    def test_noise_within_threshold_never_flags(self):
        base = _cell_doc("a", [1.0, 1.05, 0.95])
        curr = _cell_doc("a", [1.1, 1.15, 1.05])  # +10% < 20% threshold
        verdict = compare_cells(base, curr, rng=random.Random(1))
        assert not verdict["regression"]

    def test_tenfold_slowdown_flagged(self):
        base = _cell_doc("a", [1.0, 1.02, 0.98])
        curr = _cell_doc("a", [10.0, 10.2, 9.8])
        verdict = compare_cells(base, curr, rng=random.Random(1))
        assert verdict["regression"]
        assert "worse" in verdict["reason"]

    def test_throughput_polarity(self):
        """For higher-is-better metrics a *drop* is the regression."""
        base = _cell_doc("a", [100.0, 101.0, 99.0], metric="ips", higher_is_better=True)
        slower = _cell_doc("a", [10.0, 10.1, 9.9], metric="ips", higher_is_better=True)
        faster = _cell_doc(
            "a", [1000.0, 1010.0, 990.0], metric="ips", higher_is_better=True
        )
        assert compare_cells(base, slower, rng=random.Random(1))["regression"]
        improved = compare_cells(base, faster, rng=random.Random(1))
        assert not improved["regression"]
        assert improved["change_worse_pct"] < 0

    def test_past_threshold_but_noisy_not_flagged(self):
        """Threshold alone is not enough when noise explains the move."""
        base = _cell_doc("a", [1.0, 2.0, 0.5])
        curr = _cell_doc("a", [1.6, 3.0, 0.4])  # +37% mean, huge variance
        verdict = compare_cells(base, curr, rng=random.Random(1))
        assert not verdict["regression"]

    def test_single_repeat_falls_back_to_threshold(self):
        """With one repeat per side there is no variance to test; the
        relative threshold alone gates (so slow single-shot cells still
        catch 10x cliffs)."""
        base = _cell_doc("a", [1.0])
        curr = _cell_doc("a", [10.0])
        verdict = compare_cells(base, curr, rng=random.Random(1))
        assert verdict["regression"]
        assert "single repeat" in verdict["reason"]

    def test_per_cell_threshold_override(self):
        base = _cell_doc("a", [1.0, 1.0, 1.0])
        curr = _cell_doc("a", [1.5, 1.5, 1.5])
        curr["rel_threshold"] = 0.9
        verdict = compare_cells(base, curr, rng=random.Random(1))
        assert not verdict["regression"]  # +50% < 90% override


class TestCompareSuites:
    def test_added_and_removed_cells_never_flag(self):
        base = _suite_doc([_cell_doc("old", [1.0, 1.0])])
        curr = _suite_doc([_cell_doc("new", [1.0, 1.0])])
        comparison = compare_suites(base, curr)
        assert comparison["regressions"] == 0
        assert comparison["added"] == ["new"]
        assert comparison["removed"] == ["old"]

    def test_suite_mismatch_rejected(self):
        with pytest.raises(ValueError, match="suite mismatch"):
            compare_suites(_suite_doc([], suite="a"), _suite_doc([], suite="b"))

    def test_deterministic_verdicts(self):
        base = _suite_doc([_cell_doc("a", [1.0, 1.1, 0.9])])
        curr = _suite_doc([_cell_doc("a", [1.3, 1.4, 1.2])])
        assert compare_suites(base, curr) == compare_suites(base, curr)

    def test_rendering_smoke(self):
        base = _suite_doc([_cell_doc("a", [1.0, 1.0])])
        curr = _suite_doc([_cell_doc("a", [10.0, 10.0])])
        comparison = compare_suites(base, curr)
        text = render_comparison(comparison)
        assert "REGRESSION" in text
        result = _suite_doc([_cell_doc("a", [1.0, 1.0])])
        result["seed"] = 1
        result["cells"][0]["repeats"] = 2
        assert "suite s" in render_suite_result(result)


class TestBaselines:
    def test_round_trip(self, tmp_path):
        doc = _suite_doc([_cell_doc("a", [1.0, 2.0])], suite="engine")
        path = save_baseline(doc, baseline_dir=str(tmp_path))
        assert path == baseline_path("engine", str(tmp_path))
        assert load_baseline("engine", baseline_dir=str(tmp_path)) == doc

    def test_missing_baseline_is_none(self, tmp_path):
        assert load_baseline("absent", baseline_dir=str(tmp_path)) is None


class TestDiscovery:
    def test_discovers_declared_suites(self, tmp_path):
        (tmp_path / "bench_alpha.py").write_text(
            "def bench_suite():\n"
            "    from repro.obs.bench import BenchSuite\n"
            "    return BenchSuite('alpha').cell('c', lambda s, r: 1.0, repeats=1)\n"
        )
        (tmp_path / "bench_helper.py").write_text("# no bench_suite() here\n")
        (tmp_path / "bench_broken.py").write_text("raise RuntimeError('nope')\n")
        suites = discover_suites(str(tmp_path))
        assert list(suites) == ["alpha"]
        assert [cell.name for cell in suites["alpha"].cells] == ["c"]

    def test_repo_benchmarks_declare_engine_suite(self):
        suites = discover_suites("benchmarks")
        assert "engine" in suites
        names = {cell.name for cell in suites["engine"].cells}
        assert "count-ciw-n1024" in names


class TestLedgerFields:
    def test_compact_payload(self):
        result = _suite_doc([_cell_doc("a", [1.0, 1.0])], suite="engine")
        result["seed"] = 9
        result["cells"][0]["repeats"] = 2
        base = _suite_doc([_cell_doc("a", [0.1, 0.1])], suite="engine")
        comparison = compare_suites(base, result)
        fields = ledger_fields(result, comparison)
        assert fields["suite"] == "engine"
        assert fields["cells"]["a"]["mean"] == 1.0
        assert fields["regressions"] == 1
        assert fields["flagged_cells"] == ["a"]
        json.dumps(fields)  # must be ledger-serializable

    def test_no_comparison(self):
        result = _suite_doc([_cell_doc("a", [1.0])], suite="engine")
        result["seed"] = 9
        result["cells"][0]["repeats"] = 1
        fields = ledger_fields(result, None)
        assert "regressions" not in fields


# Every repo bench script, run through the harness once per cell.
_REPO_BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
_REPO_SUITES = discover_suites(str(_REPO_BENCH_DIR))
#: Cells too heavy for the unit suite: the n=10^6 engine cell takes
#: ~40 s and ~0.9 GB; its body (``_smoke_count(10**6, ...)``) runs in
#: the ``bench-smoke`` CI job via ``benchmarks/bench_engine.py``.
_HEAVY_CELLS = {("engine", "count-ciw-n1e6")}


class TestRepoSuites:
    def test_every_declaring_script_is_discovered(self):
        declaring = [
            path.name
            for path in sorted(_REPO_BENCH_DIR.glob("bench_*.py"))
            if "\ndef bench_suite(" in path.read_text()
        ]
        assert len(_REPO_SUITES) == len(declaring), declaring

    @pytest.mark.slow
    @pytest.mark.parametrize("name", sorted(_REPO_SUITES))
    def test_cells_run_once(self, name):
        """A cell that raises (e.g. a stale import) fails here."""
        suite = _REPO_SUITES[name]
        cells = [
            cell.name for cell in suite.cells if (name, cell.name) not in _HEAVY_CELLS
        ]
        result = run_suite(suite, seed=1, repeats=1, cells=cells)
        assert [cell["cell"] for cell in result["cells"]] == cells
