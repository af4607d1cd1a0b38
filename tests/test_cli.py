"""End-to-end tests for the repro-trust CLI."""

import codecs
import shutil

import pytest

from repro.cli import EXAMPLES, main
from repro.spec import format_problem, load_file
from repro.staticcheck import lint_paths
from repro.workloads import example1


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "example1.exchange"
    path.write_text(format_problem(example1()), encoding="utf-8")
    return str(path)


class TestCheck:
    def test_feasible_exits_zero(self, capsys):
        assert main(["check", "--example", "example1"]) == 0
        out = capsys.readouterr().out
        assert "FEASIBLE" in out

    def test_infeasible_exits_one(self, capsys):
        assert main(["check", "--example", "example2"]) == 1
        out = capsys.readouterr().out
        assert "blocked by red" in out

    def test_spec_file_input(self, spec_file, capsys):
        assert main(["check", spec_file]) == 0

    def test_unknown_example_errors(self, capsys):
        assert main(["check", "--example", "nope"]) == 2
        assert "unknown example" in capsys.readouterr().err

    def test_no_input_errors(self, capsys):
        assert main(["check"]) == 2


class TestSequence:
    def test_prints_ten_steps(self, capsys):
        assert main(["sequence", "--example", "example1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 10
        assert lines[0].startswith("1. ")


class TestProtocol:
    def test_prints_roles_and_escrows(self, capsys):
        assert main(["protocol", "--example", "example1"]) == 0
        out = capsys.readouterr().out
        assert "role Consumer" in out
        assert "escrow Trusted2" in out


class TestIndemnify:
    def test_figure7_plan(self, capsys):
        assert main(["indemnify", "--example", "figure7"]) == 0
        out = capsys.readouterr().out
        assert "total $70.00" in out

    def test_non_bundle_exits_one(self, capsys):
        assert main(["indemnify", "--example", "example1"]) == 1


class TestSimulate:
    def test_honest_run(self, capsys):
        assert main(["simulate", "--example", "example1"]) == 0
        out = capsys.readouterr().out
        assert "completed exchanges: 2" in out
        assert "[OK ] Consumer" in out

    def test_adversarial_run_still_safe(self, capsys):
        code = main(["simulate", "--example", "example1", "--adversary", "Broker:0"])
        assert code == 0
        assert "[OK ]" in capsys.readouterr().out

    def test_misspelled_adversary_exits_two(self, capsys):
        code = main(["simulate", "--example", "example1", "--adversary", "Brokr:0"])
        assert code == 2
        assert "'Brokr' is not a principal" in capsys.readouterr().err

    def test_infeasible_example_auto_indemnifies(self, capsys):
        assert main(["simulate", "--example", "example2"]) == 0
        out = capsys.readouterr().out
        assert "applying minimal indemnity plan" in out
        assert "completed exchanges: 4" in out


class TestRender:
    def test_interaction_text(self, capsys):
        assert main(["render", "--example", "example1"]) == 0
        assert "principals:" in capsys.readouterr().out

    def test_interaction_dot(self, capsys):
        assert main(["render", "--example", "example1", "--dot"]) == 0
        assert "shape=ellipse" in capsys.readouterr().out

    def test_sequencing_reduced(self, capsys):
        code = main(
            ["render", "--example", "example1", "--what", "sequencing", "--reduced"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "commitments" in out and "FEASIBLE" in out

    def test_sequencing_dot_with_reduction(self, capsys):
        code = main(
            [
                "render",
                "--example",
                "example1",
                "--what",
                "sequencing",
                "--dot",
                "--reduced",
            ]
        )
        assert code == 0
        assert "style=dashed" in capsys.readouterr().out


class TestCost:
    def test_chain_table(self, capsys):
        assert main(["cost", "--max-brokers", "2"]) == 0
        out = capsys.readouterr().out
        assert "ratio" in out

    def test_single_problem(self, capsys):
        assert main(["cost", "--example", "example1"]) == 0
        assert "2.0x" in capsys.readouterr().out


class TestChaos:
    def test_smoke_sweep_exits_zero(self, capsys):
        assert main(["chaos", "-n", "25", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "safety violations:    0" in out
        assert "detector armed" in out

    def test_report_written(self, tmp_path, capsys):
        import json

        report_path = str(tmp_path / "chaos.json")
        assert main(
            ["chaos", "-n", "25", "--seed", "0", "--report", report_path]
        ) == 0
        data = json.loads(open(report_path, encoding="utf-8").read())
        assert data["violation_count"] == 0
        assert data["baseline_violations"] >= 1
        assert len(data["verdicts"]) == 25

    def test_deadline_not_positive_exits_two(self, capsys):
        assert main(["chaos", "-n", "4", "--deadline", "-1"]) == 2
        assert "deadlines must be positive, got -1.0" in capsys.readouterr().err

    def test_crash_probability_above_one_exits_two(self, capsys):
        assert main(["chaos", "-n", "4", "--crash", "2"]) == 2
        err = capsys.readouterr().err
        assert "crash_probability must be a probability in [0, 1], got 2.0" in err

    def test_jobs_flag_matches_serial(self, tmp_path):
        import json

        serial_path = str(tmp_path / "serial.json")
        pooled_path = str(tmp_path / "pooled.json")
        main(["chaos", "-n", "16", "--seed", "5", "--report", serial_path])
        main(["chaos", "-n", "16", "--seed", "5", "--jobs", "2",
              "--report", pooled_path])
        serial = json.loads(open(serial_path, encoding="utf-8").read())
        pooled = json.loads(open(pooled_path, encoding="utf-8").read())
        assert serial["verdicts"] == pooled["verdicts"]


class TestExamples:
    def test_lists_all(self, capsys):
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        for name in EXAMPLES:
            assert name in out
        assert "infeasible" in out


class TestExtensionCommands:
    def test_distributed(self, capsys):
        assert main(["distributed", "--example", "example1"]) == 0
        out = capsys.readouterr().out
        assert "centralized agrees: True" in out
        assert "rounds=" in out

    def test_distributed_infeasible_exits_one(self, capsys):
        assert main(["distributed", "--example", "example2"]) == 1

    def test_petri(self, capsys):
        assert main(["petri", "--example", "example1", "--witness"]) == 0
        out = capsys.readouterr().out
        assert "coverable: True" in out
        assert "complete:Trusted1" in out

    def test_petri_infeasible_exits_one(self, capsys):
        assert main(["petri", "--example", "example2"]) == 1
        assert "coverable: False" in capsys.readouterr().out

    def test_sweep_priority(self, capsys):
        assert main(["sweep", "priority", "--samples", "5"]) == 0
        assert "feasible" in capsys.readouterr().out

    def test_sweep_trust(self, capsys):
        assert main(["sweep", "trust", "--samples", "4"]) == 0
        assert "unlocked" in capsys.readouterr().out

    def test_sweep_gap(self, capsys):
        assert main(["sweep", "gap", "--samples", "10"]) == 0
        out = capsys.readouterr().out
        assert "unsound=0" in out


class TestEngineFlag:
    """``--engine`` is gone from sweep/chaos: any use exits 2 with usage."""

    def _assert_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "unrecognized arguments: --engine" in err

    def test_sweep_flat_engine(self, capsys):
        self._assert_rejected(
            ["sweep", "priority", "--samples", "5", "--engine", "flat"], capsys
        )

    def test_sweep_gap_flat_engine(self, capsys):
        self._assert_rejected(["sweep", "gap", "--samples", "8", "--engine", "flat"], capsys)

    def test_sweep_unknown_engine_exits_two_with_usage(self, capsys):
        self._assert_rejected(
            ["sweep", "gap", "--samples", "2", "--engine", "bogus"], capsys
        )

    def test_chaos_unknown_engine_exits_two_with_usage(self, capsys):
        self._assert_rejected(["chaos", "-n", "2", "--engine", "warp"], capsys)


class TestFuzzCommand:
    def test_fuzz_smoke_with_flat_arm(self, tmp_path, capsys):
        import json

        report_path = str(tmp_path / "fuzz.json")
        code = main(
            ["fuzz", "-n", "6", "--no-sim", "--report", report_path]
        )
        assert code == 0
        data = json.loads(open(report_path, encoding="utf-8").read())
        assert data["discrepancies"] == []
        assert data["process_cpus"] >= 1

    def test_fuzz_no_flat_arm_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "-n", "4", "--no-sim", "--no-flat-arm"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-flat-arm" in capsys.readouterr().err

    def test_petri_dot(self, capsys):
        assert main(["petri", "--example", "example1", "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith('digraph "example1"')


class TestProfile:
    def test_one_trace_column_and_the_verdict_line(self, capsys):
        assert main(["profile", "--samples", "5", "--seed", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(line for line in lines if line.startswith("metric"))
        assert header.split() == ["metric", "trace"]
        assert lines[-1].startswith("free-order verdict loop:")


class TestLint:
    """Exit-code contract: 0 clean / 1 findings / 2 usage error — matching
    the fuzz/chaos subcommand conventions."""

    FIXTURES = "tests/staticcheck/fixtures"

    def test_clean_tree_exits_zero(self, capsys):
        assert main(["lint", "src"]) == 0
        assert "clean: no findings" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        assert main(["lint", self.FIXTURES]) == 1
        out = capsys.readouterr().out
        for code in ("DET001", "DET002", "MUT001", "MONEY001", "EXC001"):
            assert code in out

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "no/such/tree"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["lint", "src", "--select", "NOPE999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_select_narrows_to_one_rule(self, capsys):
        assert main(["lint", self.FIXTURES, "--select", "DET001"]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out
        assert "DET002" not in out

    def test_json_format_is_machine_readable(self, capsys):
        import json as json_module

        assert main(["lint", self.FIXTURES, "--format", "json"]) == 1
        payload = json_module.loads(capsys.readouterr().out)
        # One per rule fixture (DET002 has two: set + payload sink).
        assert payload["count"] == 11
        assert payload["errors"] == 11
        assert payload["warnings"] == 0

    def test_fix_suggestions_render(self, capsys):
        assert main(["lint", self.FIXTURES, "--fix-suggestions"]) == 1
        assert "fix:" in capsys.readouterr().out

    def test_sarif_format_is_valid_sarif(self, capsys):
        import json as json_module

        assert main(["lint", self.FIXTURES, "--format", "sarif"]) == 1
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        result_rules = {result["ruleId"] for result in run["results"]}
        assert result_rules == rule_ids
        assert {"NET001", "ASY001", "ASY002", "LEDG001"} <= result_rules
        first = run["results"][0]
        location = first["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"]
        assert location["region"]["startLine"] >= 1

    def test_write_baseline_then_lint_is_clean(self, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        assert main(
            ["lint", self.FIXTURES, "--baseline", baseline, "--write-baseline"]
        ) == 0
        assert "recorded 11 finding(s)" in capsys.readouterr().out
        assert main(["lint", self.FIXTURES, "--baseline", baseline]) == 0
        out = capsys.readouterr().out
        assert "11 baselined finding(s) suppressed" in out

    def test_baseline_still_fails_on_regressions(self, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        one_fixture = f"{self.FIXTURES}/exc001_control_flow.py"
        assert main(
            ["lint", one_fixture, "--baseline", baseline, "--write-baseline"]
        ) == 0
        capsys.readouterr()
        assert main(["lint", self.FIXTURES, "--baseline", baseline]) == 1
        out = capsys.readouterr().out
        assert "EXC001" not in out  # the recorded finding stays suppressed
        assert "DET001" in out  # everything else is a regression

    def test_write_baseline_without_baseline_is_usage_error(self, capsys):
        assert main(["lint", self.FIXTURES, "--write-baseline"]) == 2
        assert "--write-baseline requires --baseline" in capsys.readouterr().err

    def test_corrupt_baseline_is_usage_error(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{not json", encoding="utf-8")
        assert main(["lint", self.FIXTURES, "--baseline", str(baseline)]) == 2
        assert "baseline" in capsys.readouterr().err

    def test_spec_warnings_do_not_fail(self, tmp_path, capsys):
        spec = tmp_path / "warned.exchange"
        spec.write_text(
            'problem "w"\n\n'
            "principal consumer C\nprincipal broker B\nprincipal producer P\n"
            "trusted T1\ntrusted T2\n\n"
            "exchange via T1 {\n    C pays $1.00\n    B gives d\n}\n"
            "exchange via T2 {\n    B pays $0.50\n    P gives d\n}\n\n"
            "priority B via T1\npriority B via T2\n",
            encoding="utf-8",
        )
        assert main(["lint", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "SPECW001" in out
        assert "warning" in out


class TestByteOrderMark:
    """A spec file saved with a UTF-8 byte-order mark reads as the plain file."""

    SPECS = {
        "example1": "examples/specs/example1.exchange",
        "example2": "examples/specs/example2.exchange",
        "scan_ring": "examples/specs/scan_ring.exchange",
    }

    @staticmethod
    def _pair(tmp_path, plain):
        """The plain file copied to *tmp_path*, and a copy with a mark."""
        unmarked = tmp_path / "plain" / "spec.exchange"
        marked = tmp_path / "marked" / "spec.exchange"
        unmarked.parent.mkdir()
        marked.parent.mkdir()
        shutil.copyfile(plain, unmarked)
        marked.write_bytes(codecs.BOM_UTF8 + unmarked.read_bytes())
        return str(unmarked), str(marked)

    @staticmethod
    def _findings(path):
        return [(f.line, f.column, f.rule, f.message) for f in lint_paths([path])]

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_loads_and_lints_like_the_plain_file(self, name, tmp_path):
        plain, marked = self._pair(tmp_path, self.SPECS[name])
        loaded = format_problem(load_file(marked, validate=False))
        assert loaded == format_problem(load_file(plain, validate=False))
        assert self._findings(marked) == self._findings(plain)

    def test_an_error_keeps_its_position(self, tmp_path):
        broken = tmp_path / "broken.exchange"
        broken.write_text("principal wizard W\n", encoding="utf-8")
        plain, marked = self._pair(tmp_path, broken)
        findings = self._findings(marked)
        assert findings == self._findings(plain)
        assert [(line, column, rule) for line, column, rule, _ in findings] == [
            (1, 11, "SPEC000")
        ]

    @pytest.mark.parametrize("command", ["check", "simulate"])
    def test_check_and_simulate_accept_it(self, command, tmp_path, capsys):
        _, marked = self._pair(tmp_path, self.SPECS["example1"])
        assert main([command, marked]) == 0
        assert "\\ufeff" not in capsys.readouterr().err


class TestServe:
    def test_task_mode_run_is_safe(self, tmp_path, capsys):
        run_dir = str(tmp_path / "serve_run")
        assert (
            main(
                [
                    "serve",
                    "--example",
                    "simple-purchase",
                    "--run-dir",
                    run_dir,
                    "--spawn",
                    "task",
                    "--time-scale",
                    "0.005",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "served simple-purchase on port" in out
        assert "[OK ] Customer" in out
        import os

        assert os.path.exists(os.path.join(run_dir, "provenance.json"))

    def test_infeasible_problem_refused(self, capsys):
        assert main(["serve", "--example", "example2", "--spawn", "task"]) == 2
        assert "infeasible" in capsys.readouterr().err

    def test_client_requires_port(self, capsys):
        with pytest.raises(SystemExit):
            main(["client", "some.spec", "--party", "X"])

    def test_working_capital_flag_is_gone(self, tmp_path, monkeypatch, capsys):
        import repro.net.node
        import repro.net.supervisor

        def no_run(*args, **kwargs):
            raise AssertionError("the command ran")

        monkeypatch.setattr(repro.net.supervisor, "run_networked_exchange", no_run)
        monkeypatch.setattr(repro.net.node, "run_node", no_run)
        run_dir = tmp_path / "run"
        spec = tmp_path / "missing.spec"
        for argv in (
            ["serve", "--example", "simple-purchase", "--run-dir", str(run_dir),
             "--spawn", "task", "--working-capital", "5"],
            ["client", str(spec), "--party", "P", "--port", "1", "--working-capital", "5"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "unrecognized arguments: --working-capital" in err
        assert not run_dir.exists()

