"""Tests for repro.cli (the ``python -m repro`` interface)."""

from __future__ import annotations

import os

import pytest

from repro.cli import main


@pytest.fixture()
def values_file(tmp_path):
    path = tmp_path / "values.txt"
    path.write_text("\n".join(str(v) for v in range(10_000)))
    return str(path)


@pytest.fixture()
def csv_file(tmp_path):
    path = tmp_path / "table.csv"
    lines = ["id,amount"] + [f"{i},{i * 2}" for i in range(500)]
    path.write_text("\n".join(lines))
    return str(path)


@pytest.fixture()
def wh_dir(tmp_path):
    return str(tmp_path / "wh")


class TestIngest:
    def test_ingest_lines(self, values_file, wh_dir, capsys):
        rc = main(["ingest", "--warehouse", wh_dir, "--dataset", "d",
                   "--input", values_file, "--partitions", "4",
                   "--bound", "128"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ingested 10000 values into 4 partition(s)" in out
        assert os.path.exists(os.path.join(wh_dir, "catalog.json"))

    def test_ingest_csv_column(self, csv_file, wh_dir, capsys):
        rc = main(["ingest", "--warehouse", wh_dir, "--dataset", "t.amount",
                   "--input", csv_file, "--column", "amount",
                   "--bound", "64"])
        assert rc == 0
        assert "500" in capsys.readouterr().out

    def test_ingest_missing_column(self, csv_file, wh_dir, capsys):
        rc = main(["ingest", "--warehouse", wh_dir, "--dataset", "x",
                   "--input", csv_file, "--column", "nope"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_ingest_empty_input(self, tmp_path, wh_dir, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        rc = main(["ingest", "--warehouse", wh_dir, "--dataset", "x",
                   "--input", str(empty)])
        assert rc == 1

    def test_incremental_ingest(self, values_file, wh_dir, capsys):
        main(["ingest", "--warehouse", wh_dir, "--dataset", "d",
              "--input", values_file, "--bound", "128"])
        rc = main(["ingest", "--warehouse", wh_dir, "--dataset", "d",
                   "--input", values_file, "--bound", "128",
                   "--label", "second"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "d/0/1" in out  # seq advanced


class TestInfoAndQuery:
    @pytest.fixture(autouse=True)
    def loaded(self, values_file, wh_dir):
        main(["ingest", "--warehouse", wh_dir, "--dataset", "d",
              "--input", values_file, "--partitions", "2",
              "--bound", "256", "--label", "load1"])

    def test_info(self, wh_dir, capsys):
        rc = main(["info", "--warehouse", wh_dir])
        assert rc == 0
        out = capsys.readouterr().out
        assert "d/0/0" in out and "d/0/1" in out
        assert "load1" in out
        assert "active" in out

    def test_query_count(self, wh_dir, capsys):
        rc = main(["query", "--warehouse", wh_dir, "--dataset", "d",
                   "--agg", "count"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "count ~ 10000" in out

    def test_query_avg(self, wh_dir, capsys):
        rc = main(["query", "--warehouse", wh_dir, "--dataset", "d",
                   "--agg", "avg"])
        assert rc == 0
        assert "avg ~" in capsys.readouterr().out

    def test_query_quantile(self, wh_dir, capsys):
        rc = main(["query", "--warehouse", wh_dir, "--dataset", "d",
                   "--agg", "quantile", "--fraction", "0.5"])
        assert rc == 0
        assert "quantile(0.5)" in capsys.readouterr().out

    def test_query_by_label(self, wh_dir, capsys):
        rc = main(["query", "--warehouse", wh_dir, "--dataset", "d",
                   "--agg", "count", "--labels", "load1"])
        assert rc == 0

    def test_query_unknown_dataset(self, wh_dir, capsys):
        rc = main(["query", "--warehouse", wh_dir, "--dataset", "ghost",
                   "--agg", "count"])
        assert rc == 2


class TestRollup:
    def test_rollup_and_store(self, values_file, wh_dir, capsys):
        for _ in range(4):
            main(["ingest", "--warehouse", wh_dir, "--dataset", "d",
                  "--input", values_file, "--bound", "128"])
        rc = main(["rollup", "--warehouse", wh_dir, "--dataset", "d",
                   "--window", "2", "--store-as", "d.rolled"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "w0" in out and "w1" in out
        rc = main(["query", "--warehouse", wh_dir, "--dataset", "d.rolled",
                   "--agg", "count"])
        assert rc == 0
        assert "count ~ 40000" in capsys.readouterr().out


class TestBench:
    def test_fig05(self, capsys):
        rc = main(["bench", "--figure", "fig05"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "max relative error" in out
        assert "2.765" in out

    def test_s33(self, capsys):
        rc = main(["bench", "--figure", "s33", "--trials", "300"])
        assert rc == 0
        assert "non-uniformity demonstrated" in capsys.readouterr().out

    def test_bench_without_figure_errors(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench"])
        assert excinfo.value.code == 2
        assert "--figure" in capsys.readouterr().err


class TestAudit:
    def test_clean_audit(self, values_file, wh_dir, capsys):
        main(["ingest", "--warehouse", wh_dir, "--dataset", "d",
              "--input", values_file, "--bound", "64"])
        rc = main(["audit", "--warehouse", wh_dir])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_audit_detects_missing_sample(self, values_file, wh_dir,
                                          capsys):
        main(["ingest", "--warehouse", wh_dir, "--dataset", "d",
              "--input", values_file, "--bound", "64"])
        victim = next(f for f in os.listdir(wh_dir)
                      if f.endswith(".sample.json"))
        os.unlink(os.path.join(wh_dir, victim))
        rc = main(["audit", "--warehouse", wh_dir])
        assert rc == 1
        assert "INCONSISTENT" in capsys.readouterr().out


class TestVerify:
    def test_list_checks(self, capsys):
        rc = main(["verify", "--list-checks"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("hb.uniformity.inclusion", "negative.concise",
                     "differential.executors"):
            assert name in out

    def test_fast_selected_check_passes(self, capsys):
        rc = main(["verify", "--seeds", "2",
                   "--select", "negative.concise"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "REJECTED (expected)" in out
        assert "ok: 1 check(s)" in out

    def test_json_format(self, capsys):
        import json

        rc = main(["verify", "--seeds", "2", "--format", "json",
                   "--select", "hypergeom.gof.inversion"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["tier"] == "fast"
        assert payload["checks"][0]["name"] == "hypergeom.gof.inversion"
        assert payload["pvalue_count"] == 2

    def test_failing_battery_exits_one(self, capsys):
        # alpha just below 1 makes any honest p-value a rejection, so a
        # positive check must fail and the exit code must say so.
        rc = main(["verify", "--seeds", "2", "--alpha", "0.999",
                   "--select", "sb.size.binomial"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_check_exits_two(self, capsys):
        rc = main(["verify", "--select", "no.such.check"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_seed_changes_pvalues(self, capsys):
        import json

        outs = []
        for seed in ("1", "2"):
            rc = main(["--seed", seed, "verify", "--seeds", "2",
                       "--format", "json",
                       "--select", "hypergeom.gof.inversion"])
            assert rc == 0
            outs.append(json.loads(capsys.readouterr().out))
        a = outs[0]["checks"][0]["pvalues"]
        b = outs[1]["checks"][0]["pvalues"]
        assert a != b


class TestModuleEntry:
    def test_python_dash_m(self, values_file, wh_dir):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "ingest",
             "--warehouse", wh_dir, "--dataset", "d",
             "--input", values_file, "--bound", "64"],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert "ingested" in result.stdout


class TestLint:
    @pytest.fixture(autouse=True)
    def _isolate_cwd(self, tmp_path, monkeypatch):
        # Run from an empty directory of the test's own, so
        # test_lint_leaves_cwd_empty sees anything a run leaves there.
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)

    @pytest.fixture()
    def clean_pkg(self, tmp_path):
        pkg = tmp_path / "pkg"
        (pkg / "core").mkdir(parents=True)
        (pkg / "core" / "ok.py").write_text(
            "from repro.rng import SplittableRng\n"
            "\n"
            "def fresh(seed):\n"
            "    return SplittableRng(seed)\n")
        return pkg

    def test_clean_tree_exits_zero(self, clean_pkg, capsys):
        rc = main(["lint", str(clean_pkg)])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_violation_exits_one_with_code(self, clean_pkg, capsys):
        (clean_pkg / "core" / "bad.py").write_text(
            "import random\n\nvalue = random.random()\n")
        rc = main(["lint", str(clean_pkg)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "RPR001" in out and "RPR002" in out

    def test_json_format(self, clean_pkg, capsys):
        import json

        (clean_pkg / "core" / "bad.py").write_text("x = hash(3)\n")
        rc = main(["lint", str(clean_pkg), "--format=json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"RPR012": 1}
        assert payload["findings"][0]["code"] == "RPR012"

    def test_select_restricts_codes(self, clean_pkg, capsys):
        (clean_pkg / "core" / "bad.py").write_text(
            "import random\nx = hash(3)\n")
        rc = main(["lint", str(clean_pkg), "--select", "RPR012"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "RPR012" in out and "RPR001" not in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        rc = main(["lint", str(tmp_path / "nope")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        rc = main(["lint", "--list-rules"])
        assert rc == 0
        out = capsys.readouterr().out
        for code in ("RPR001", "RPR011", "RPR021", "RPR031", "RPR041"):
            assert code in out

    def test_self_lint_via_cli(self, capsys):
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src", "repro")
        rc = main(["lint", src])
        assert rc == 0, capsys.readouterr().out

    def test_family_select(self, clean_pkg, capsys):
        (clean_pkg / "core" / "bad.py").write_text(
            "import random\nx = hash(3)\n")
        rc = main(["lint", str(clean_pkg), "--select", "RPR00x"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "RPR001" in out and "RPR012" not in out

    def test_unknown_select_exits_two(self, clean_pkg, capsys):
        rc = main(["lint", str(clean_pkg), "--select", "RPR999"])
        assert rc == 2
        assert "RPR999" in capsys.readouterr().err

    def test_sarif_format(self, clean_pkg, capsys):
        import json

        (clean_pkg / "core" / "bad.py").write_text("x = hash(3)\n")
        rc = main(["lint", str(clean_pkg), "--format=sarif"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"RPR012", "RPR101", "RPR103"} <= rule_ids
        assert [r["ruleId"] for r in run["results"]] == ["RPR012"]
        assert run["results"][0]["level"] == "error"

    @pytest.fixture()
    def warning_pkg(self, tmp_path):
        # A tree whose only finding is RPR103 (severity "warning").
        pkg = tmp_path / "wpkg"
        (pkg / "conc").mkdir(parents=True)
        (pkg / "conc" / "slow.py").write_text(
            "import threading\n"
            "import time\n"
            "\n"
            "_LOCK = threading.Lock()\n"
            "\n"
            "def work():\n"
            "    with _LOCK:\n"
            "        time.sleep(0.1)\n")
        return pkg

    def test_fail_on_warning_is_the_default(self, warning_pkg, capsys):
        rc = main(["lint", str(warning_pkg)])
        assert rc == 1
        assert "RPR103" in capsys.readouterr().out

    def test_fail_on_error_tolerates_warnings(self, warning_pkg,
                                              capsys):
        # The finding is still printed; only the exit code relaxes.
        rc = main(["lint", str(warning_pkg), "--fail-on", "error"])
        assert rc == 0
        assert "RPR103" in capsys.readouterr().out

    def test_fail_on_error_still_fails_on_errors(self, clean_pkg,
                                                 capsys):
        (clean_pkg / "core" / "bad.py").write_text("x = hash(3)\n")
        rc = main(["lint", str(clean_pkg), "--fail-on", "error"])
        assert rc == 1

    def test_unknown_fail_on_exits_two(self, clean_pkg, capsys):
        rc = main(["lint", str(clean_pkg), "--fail-on", "fatal"])
        assert rc == 2
        assert "fatal" in capsys.readouterr().err

    def test_list_rules_shows_severity(self, capsys):
        rc = main(["lint", "--list-rules"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "warning" in out and "error" in out

    def test_lint_leaves_cwd_empty(self, clean_pkg):
        assert main(["lint", str(clean_pkg)]) == 0
        assert os.listdir(".") == []

    def test_lint_writes_no_file(self, clean_pkg, tmp_path):
        (clean_pkg / "core" / "bad.py").write_text("x = hash(3)\n")
        before = sorted(tmp_path.rglob("*"))
        assert main(["lint", str(clean_pkg)]) == 1
        assert main(["lint", str(clean_pkg), "--format=json"]) == 1
        assert sorted(tmp_path.rglob("*")) == before

    def test_rule_change_between_runs_is_reported(
            self, clean_pkg, monkeypatch, capsys):
        # Findings come from the rules as they are at run time: a
        # rule changed between two runs in one directory changes the
        # second run's report.
        from repro.analysis.rules import errors

        (clean_pkg / "core" / "todo.py").write_text(
            "def later():\n"
            "    raise NotImplementedError\n")
        assert main(["lint", str(clean_pkg), "--select", "RPR031"]) == 0
        assert "clean" in capsys.readouterr().out
        monkeypatch.setattr(errors, "ALLOWED_BUILTINS",
                            errors.ALLOWED_BUILTINS
                            - {"NotImplementedError"})
        assert main(["lint", str(clean_pkg), "--select", "RPR031"]) == 1
        out = capsys.readouterr().out
        assert "RPR031" in out and "todo.py" in out

    def test_list_rules_includes_new_families(self, capsys):
        rc = main(["lint", "--list-rules"])
        assert rc == 0
        out = capsys.readouterr().out
        for code in ("RPR061", "RPR062", "RPR071", "RPR072"):
            assert code in out
