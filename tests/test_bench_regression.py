"""Tests for the regression bench harness and the ``repro bench`` CLI.

Timing *values* are hardware-bound and never asserted; what is pinned
is the machinery — suite shape, schema validation, report round-trip,
regression detection (including the absolute-slack guard), and the
CLI's exit codes.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench.regression import (CORE_FILENAME, MERGE_FILENAME, SCHEMA,
                                    BenchResult, compare_reports,
                                    load_report, report_dict,
                                    run_core_suite, run_merge_suite,
                                    validate_report, write_report)
from repro.cli import main
from repro.errors import ConfigurationError


def _report(entries, *, suite="merge"):
    return {
        "schema": SCHEMA,
        "suite": suite,
        "seed": 2006,
        "quick": True,
        "results": [
            {"name": name, "params": dict(params), "seconds": seconds,
             "repeats": 2}
            for name, params, seconds in entries
        ],
    }


class TestSuites:
    def test_core_suite_shape(self):
        results = run_core_suite(quick=True)
        report = report_dict("core", results, seed=2006, quick=True)
        validate_report(report)
        names = {r.name for r in results}
        assert names == {"ingest.batch", "warehouse.query"}
        schemes = {r.params["scheme"] for r in results
                   if r.name == "ingest.batch"}
        assert schemes == {"hb", "hr", "sb", "hb-mp"}
        assert all(r.seconds > 0 for r in results)

    def test_merge_suite_shape(self):
        results = run_merge_suite(quick=True)
        report = report_dict("merge", results, seed=2006, quick=True)
        validate_report(report)
        # One light entry per pinned partition count plus the heavy
        # 8/16 trees; every entry keeps the params older reports used.
        by_name = {}
        for r in results:
            by_name.setdefault(r.name, set()).add(r.params["partitions"])
        assert by_name == {"merge.tree": {2, 4, 8, 16},
                           "merge.tree.heavy": {8, 16}}
        assert all(r.params["mode"] == "serial" for r in results)

    def test_suite_workloads_are_deterministic(self):
        # Same seed -> same workload identities (timings vary, keys
        # cannot, or --compare would silently match nothing).
        a = {r.key() for r in run_merge_suite(quick=True)}
        b = {r.key() for r in run_merge_suite(quick=True)}
        assert a == b


class TestValidation:
    def test_valid_report_passes(self):
        validate_report(_report([("merge.tree", {"partitions": 2}, 0.5)]))

    @pytest.mark.parametrize("mutate", [
        lambda r: r.update(schema="repro-bench/0"),
        lambda r: r.pop("suite"),
        lambda r: r.update(results="nope"),
        lambda r: r["results"].append({"name": 3, "params": {},
                                       "seconds": 1.0, "repeats": 1}),
        lambda r: r["results"].append({"name": "x", "params": {},
                                       "seconds": -1.0, "repeats": 1}),
        lambda r: r["results"].append({"name": "x", "params": {},
                                       "seconds": 1.0, "repeats": 0}),
    ])
    def test_malformed_reports_rejected(self, mutate):
        report = _report([("merge.tree", {"partitions": 2}, 0.5)])
        mutate(report)
        with pytest.raises(ConfigurationError):
            validate_report(report)

    def test_write_load_round_trip(self, tmp_path):
        report = _report([("merge.tree", {"partitions": 2}, 0.5)])
        path = str(tmp_path / "r.json")
        write_report(report, path)
        assert load_report(path) == report

    def test_load_rejects_missing_and_invalid(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_report(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_report(str(bad))


class TestCompare:
    def test_no_regression_on_identical_reports(self):
        report = _report([("merge.tree", {"partitions": 2}, 0.5)])
        assert compare_reports(report, report) == []

    def test_injected_regression_flagged(self):
        base = _report([("merge.tree", {"partitions": 2}, 0.5),
                        ("merge.tree", {"partitions": 4}, 1.0)])
        cand = copy.deepcopy(base)
        cand["results"][1]["seconds"] = 2.0
        regs = compare_reports(base, cand)
        assert len(regs) == 1
        assert regs[0].params == {"partitions": 4}
        assert regs[0].ratio == pytest.approx(2.0)
        assert "partitions=4" in regs[0].describe()

    def test_absolute_slack_suppresses_microsecond_noise(self):
        # 3x slower but only 2us in absolute terms: not a regression.
        base = _report([("merge.tree", {"partitions": 2}, 0.000001)])
        cand = _report([("merge.tree", {"partitions": 2}, 0.000003)])
        assert compare_reports(base, cand) == []
        assert compare_reports(base, cand, min_seconds=0.0) != []

    def test_unmatched_entries_ignored(self):
        base = _report([("merge.tree", {"partitions": 2}, 0.5)])
        cand = _report([("merge.tree", {"partitions": 32}, 99.0)])
        assert compare_reports(base, cand) == []

    def test_threshold_must_exceed_one(self):
        report = _report([("merge.tree", {"partitions": 2}, 0.5)])
        with pytest.raises(ConfigurationError):
            compare_reports(report, report, threshold=1.0)

    def test_params_distinguish_entries(self):
        light = BenchResult("merge.tree", {"bound": 64}, 1.0, 3)
        heavy = BenchResult("merge.tree", {"bound": 4096}, 1.0, 3)
        assert light.key() != heavy.key()


class TestBenchCli:
    def test_run_quick_writes_both_reports(self, tmp_path, capsys):
        rc = main(["bench", "run", "--quick",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        for filename in (CORE_FILENAME, MERGE_FILENAME):
            report = load_report(str(tmp_path / filename))
            assert report["quick"] is True
        out = capsys.readouterr().out
        assert "bench suite: core" in out
        assert "bench suite: merge" in out

    def test_compare_clean_exits_zero(self, tmp_path, capsys):
        path = str(tmp_path / "base.json")
        write_report(_report([("merge.tree", {"partitions": 2}, 0.5)]),
                     path)
        rc = main(["bench", "--compare", path, "--candidate", path])
        assert rc == 0
        assert "no regressions" in capsys.readouterr().out

    def test_compare_regression_exits_nonzero(self, tmp_path, capsys):
        base = _report([("merge.tree", {"partitions": 8}, 0.5)])
        cand = copy.deepcopy(base)
        cand["results"][0]["seconds"] = 1.0
        base_path = str(tmp_path / "base.json")
        cand_path = str(tmp_path / "cand.json")
        write_report(base, base_path)
        write_report(cand, cand_path)
        rc = main(["bench", "--compare", base_path,
                   "--candidate", cand_path])
        assert rc == 1
        assert "regression" in capsys.readouterr().out

    def test_compare_threshold_flag(self, tmp_path):
        base = _report([("merge.tree", {"partitions": 8}, 0.5)])
        cand = copy.deepcopy(base)
        cand["results"][0]["seconds"] = 0.7  # 1.4x
        base_path = str(tmp_path / "base.json")
        cand_path = str(tmp_path / "cand.json")
        write_report(base, base_path)
        write_report(cand, cand_path)
        assert main(["bench", "--compare", base_path, "--candidate",
                     cand_path, "--threshold", "1.5"]) == 0
        assert main(["bench", "--compare", base_path, "--candidate",
                     cand_path, "--threshold", "1.25"]) == 1

    def test_compare_rejects_malformed_baseline(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "other"}))
        rc = main(["bench", "--compare", str(bad)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bench_without_action_errors(self, capsys):
        rc = main(["bench"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
