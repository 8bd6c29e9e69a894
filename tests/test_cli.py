"""CLI surface: exit codes, determinism, file outputs, warm starts."""

import json

import pytest

from carrieropt.cli import run_cli
from carrieropt.costing import ObjectiveMode
from carrieropt.scenarios import ScenarioRunner, abatement_sweep, standard_scenario
from carrieropt.system import build_miniature_system
from carrieropt.system_io import write_system_files


@pytest.fixture(scope="module")
def system_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("system")
    write_system_files(build_miniature_system(seed=0), directory)
    return directory


class TestValidate:
    def test_clean_system(self, system_dir, capsys):
        assert run_cli(["validate", str(system_dir)]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_broken_system_exit_3(self, system_dir, tmp_path, capsys):
        import shutil
        broken = tmp_path / "broken"
        shutil.copytree(system_dir, broken)
        path = broken / "branches.csv"
        path.write_text(path.read_text().replace("7e-05", "0.9", 1))
        assert run_cli(["validate", str(broken)]) == 3

    def test_missing_directory_exit(self, tmp_path):
        assert run_cli(["validate", str(tmp_path / "nope")]) == 3


class TestRun:
    def test_matches_library(self, system_dir, capsys):
        assert run_cli(["--quiet", "run", str(system_dir),
                        "--scenario", "reference", "--mode", "min-cost"]) == 0
        payload = json.loads(capsys.readouterr().out)
        runner = ScenarioRunner(build_miniature_system(seed=0))
        outcome = runner.run(standard_scenario("reference"), ObjectiveMode.min_cost())
        assert payload["objective"] == pytest.approx(outcome.objective, rel=1e-12)
        assert payload["status"] == "optimal"

    def test_deterministic_output(self, system_dir, capsys):
        run_cli(["--quiet", "run", str(system_dir), "--scenario", "t-all"])
        first = capsys.readouterr().out
        run_cli(["--quiet", "run", str(system_dir), "--scenario", "t-all"])
        second = capsys.readouterr().out
        assert first == second

    def test_infeasible_cap_exit_4(self, system_dir, capsys):
        assert run_cli(["--quiet", "run", str(system_dir), "--scenario", "reference",
                        "--mode", "cap=10.0"]) == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "infeasible"
        assert payload["minimum_achievable"] > 10.0

    def test_usage_error_exit_2(self, system_dir, tmp_path):
        assert run_cli(["run", str(system_dir), "--scenario", "reference",
                        "--mode", "bogus"]) == 2
        assert run_cli(["run", str(system_dir), "--scenario", "no-such"]) == 2
        out = str(tmp_path / "out")
        assert run_cli(["matrix", str(system_dir), "--scenarios", "bogus",
                        "--out", out]) == 2
        assert run_cli(["matrix", str(system_dir), "--modes", "bogus",
                        "--out", out]) == 2
        assert run_cli(["sweep", str(system_dir), "--scenario", "s-all",
                        "--targets", "abc"]) == 2

    def test_warm_start_file_errors(self, system_dir, tmp_path, capsys):
        def warm(path):
            code = run_cli(["--quiet", "run", str(system_dir), "--scenario", "t-all",
                            "--warm-start", str(path)])
            return code, json.loads(capsys.readouterr().out)["error"]

        assert warm(tmp_path / "missing.json") == (6, "io")
        bad = tmp_path / "bad.json"
        for text in ("{not json", "[1, 2]", '{"objective": 1.0}',
                     '{"size_values": {"x": "big"}}'):
            bad.write_text(text)
            assert warm(bad) == (2, "usage"), text

    def test_out_files(self, system_dir, tmp_path, capsys):
        out = tmp_path / "results"
        assert run_cli(["--quiet", "run", str(system_dir), "--scenario", "t-all",
                        "--out", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        on_disk = json.loads((out / "t-all_min_cost.json").read_text())
        assert on_disk == payload
        header = (out / "t-all_min_cost_capacities.csv").read_text().splitlines()[0]
        assert header == "entity,category,location,at,added"

    def test_reference_capacities_csv_is_header_only(self, system_dir, tmp_path):
        out = tmp_path / "ref"
        assert run_cli(["--quiet", "run", str(system_dir), "--scenario", "reference",
                        "--out", str(out)]) == 0
        lines = (out / "reference_min_cost_capacities.csv").read_text().splitlines()
        assert lines == ["entity,category,location,at,added"]

    def test_warm_start_reproduces_cold(self, system_dir, tmp_path, capsys):
        out = tmp_path / "base"
        assert run_cli(["--quiet", "run", str(system_dir), "--scenario", "t-all",
                        "--out", str(out)]) == 0
        capsys.readouterr()
        base_file = out / "t-all_min_cost.json"
        assert run_cli(["--quiet", "run", str(system_dir), "--scenario", "synergies",
                        "--warm-start", str(base_file)]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert run_cli(["--quiet", "run", str(system_dir),
                        "--scenario", "synergies"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert warm["objective"] == pytest.approx(cold["objective"], abs=1e-6)


class TestSweep:
    def test_csv_matches_library(self, system_dir, capsys):
        assert run_cli(["--quiet", "sweep", str(system_dir), "--scenario", "s-all",
                        "--targets", "0.0,0.01"]) == 0
        text = capsys.readouterr().out
        mini = build_miniature_system(seed=0)
        rows = abatement_sweep(mini, standard_scenario("s-all"), [0.0, 0.01],
                               runner=ScenarioRunner(mini))
        from carrieropt.cli import frontier_csv
        assert text == frontier_csv(rows)

    def test_rows_count(self, system_dir, capsys):
        assert run_cli(["--quiet", "sweep", str(system_dir), "--scenario", "s-all",
                        "--targets", "0.0,0.005,0.01"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4  # header + 3 targets


class TestMatrix:
    def test_family_matrix_dominance(self, system_dir, tmp_path, capsys):
        out = tmp_path / "matrix"
        code = run_cli(["--quiet", "matrix", str(system_dir),
                        "--scenarios", "reference,t-all,s-all,h-all,synergies",
                        "--modes", "min-cost", "--out", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        by_id = {r["scenario"]: r["objective"] for r in summary["runs"]}
        # superset dominance: synergies allows everything the others allow
        for single in ("t-all", "s-all", "h-all"):
            assert by_id["synergies"] <= by_id[single] + 1e-6
            assert by_id[single] <= by_id["reference"] + 1e-6
        assert (out / "reference_min_cost.json").exists()
        assert (out / "synergies_min_cost_capacities.csv").exists()

    def test_jobs_env_default(self, system_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CARRIEROPT_JOBS", "2")
        out = tmp_path / "envjobs"
        code = run_cli(["--quiet", "matrix", str(system_dir),
                        "--scenarios", "reference", "--modes", "min-cost",
                        "--out", str(out)])
        assert code == 0
        assert (out / "reference_min_cost.json").exists()

    def test_parallel_matches_serial(self, system_dir, tmp_path, capsys):
        serial_dir = tmp_path / "serial"
        run_cli(["--quiet", "matrix", str(system_dir), "--scenarios",
                 "reference,t-1", "--modes", "min-cost", "--out", str(serial_dir)])
        serial = capsys.readouterr().out
        parallel_dir = tmp_path / "parallel"
        run_cli(["--quiet", "matrix", str(system_dir), "--scenarios",
                 "reference,t-1", "--modes", "min-cost", "--jobs", "2",
                 "--out", str(parallel_dir)])
        parallel = capsys.readouterr().out
        assert serial == parallel
        for name in ("reference_min_cost.json", "t-1_min_cost.json"):
            assert (serial_dir / name).read_text() == (parallel_dir / name).read_text()


class TestExportMps:
    def test_writes_problem(self, system_dir, tmp_path, capsys):
        target = tmp_path / "problem.mps"
        assert run_cli(["--quiet", "export-mps", str(system_dir),
                        "--scenario", "reference", "--out", str(target)]) == 0
        text = target.read_text()
        assert text.startswith("NAME")
        assert "ENDATA" in text
        assert (tmp_path / "problem.mps.names.json").exists()
