"""CLI surface: exit codes, determinism, file outputs, warm starts."""

import json
import math
from pathlib import Path

import pytest

import carrieropt.scenarios as scenarios
from carrieropt.cli import run_cli
from carrieropt.costing import ObjectiveMode
from carrieropt.lp import verify_solution
from carrieropt.scenarios import ScenarioRunner, abatement_sweep, standard_scenario
from carrieropt.system import build_miniature_system
from carrieropt.system_io import write_system_files


FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "miniature"


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

    def test_outlet_pressure_below_reference_exit_3(self, system_dir, tmp_path, capsys):
        import shutil
        broken = tmp_path / "broken"
        shutil.copytree(system_dir, broken)
        path = broken / "branches.csv"
        # pp1 is the first branch with a 140 bar outlet pressure
        path.write_text(path.read_text().replace(",140.0,", ",10.0,", 1))
        assert run_cli(["validate", str(broken)]) == 3
        assert "pp1: outlet pressure below the reference pressure" in capsys.readouterr().out
        assert run_cli(["--quiet", "run", str(broken), "--scenario", "reference"]) == 3

    @pytest.mark.parametrize("name, old, new, message", [
        # pp1 and pp2: a compressor better than lossless would cut the
        # electricity that compression takes (synergies: 17,374,633.46
        # instead of 17,377,297.86)
        ("branches.csv", ",0.65,1.405,", ",1.3,1.405,",
         "branch pp1: compressor efficiency must be <= 1"),
        # gas1 would be a CO2 sink (reference: -57,264 t)
        ("technologies.csv", ",0.18422,", ",-0.18422,",
         "technology gas1: emission factor in/natural_gas must be >= 0"),
        # a factor on a flow the technology lacks would price nothing (reference:
        # 27,660,494.40 and 76,185.83 t, as without it); the six emission-factor
        # cells end each row
        pytest.param("technologies.csv", "16.9,0.04" + "," * 19,
                     "16.9,0.04" + "," * 15 + "5" + "," * 4,
                     "technology nuc1: emission factor in/hydrogen matches no flow",
                     id="factor-in-hydrogen-nuc1"),
        pytest.param("technologies.csv", "0.975,0.0,,,,,,\nbatt2,",
                     "0.975,0.0,,,,,,5\nbatt2,",
                     "technology batt1: emission factor out/natural_gas matches no flow",
                     id="factor-out-natural_gas-batt1"),
        pytest.param("technologies.csv", "1710.0,30.0,0.02,0.0,0.04" + "," * 19,
                     "1710.0,30.0,0.02,0.0,0.04" + "," * 14 + "5" + "," * 5,
                     "technology wind1: emission factor in/electricity matches no flow",
                     id="factor-in-electricity-wind1"),
    ])
    def test_unphysical_cells_exit_3(self, system_dir, tmp_path, capsys, name, old, new,
                                     message):
        import shutil
        broken = tmp_path / "broken"
        shutil.copytree(system_dir, broken)
        path = broken / name
        assert old in path.read_text()
        path.write_text(path.read_text().replace(old, new))
        assert run_cli(["validate", str(broken)]) == 3
        assert message in capsys.readouterr().out
        for scenario in ("reference", "synergies"):
            assert run_cli(["--quiet", "run", str(broken), "--scenario", scenario]) == 3

    def test_series_on_the_wrong_kind_of_technology_exit_3(self, system_dir, tmp_path,
                                                           capsys):
        import shutil
        broken = tmp_path / "broken"
        shutil.copytree(system_dir, broken)
        for name, column in (("profiles.csv", "nuc1"), ("inflows.csv", "batt1")):
            path = broken / name
            header, *rows = path.read_text().splitlines()
            path.write_text("".join(f"{line}\n" for line in
                                    [f"{header},{column}", *(f"{row},1.0" for row in rows)]))
        assert run_cli(["validate", str(broken)]) == 3
        out = capsys.readouterr().out
        assert "profile nuc1: technology is conversion1, not renewable" in out
        assert "inflow batt1: technology is storage1, not storage2_1" in out
        assert run_cli(["--quiet", "run", str(broken), "--scenario", "reference"]) == 3

    def test_every_violation_is_counted_and_listed_on_its_own_line(self, tmp_path, capsys):
        import shutil
        from pathlib import Path
        broken = tmp_path / "broken"
        shutil.copytree(Path(__file__).parent.parent / "fixtures" / "miniature", broken)
        for name, column in (("profiles.csv", "nuc1"), ("inflows.csv", "batt1")):
            path = broken / name
            header, *rows = path.read_text().splitlines()
            path.write_text("".join(f"{line}\n" for line in
                                    [f"{header},{column}", *(f"{row},1.0" for row in rows)]))
        assert run_cli(["validate", str(broken)]) == 3
        assert capsys.readouterr().out.splitlines() == [
            "2 violations",
            "profile nuc1: technology is conversion1, not renewable",
            "inflow batt1: technology is storage1, not storage2_1",
        ]

    @pytest.mark.parametrize("name, column, message", [
        ("demand_electricity.csv", "n1", "demand n1/electricity: step 1 must be finite"),
        ("profiles.csv", "wind1", "technology wind1: profile: step 1 must be finite"),
        ("inflows.csv", "hydro1", "technology hydro1: inflow: step 1 must be finite"),
    ])
    def test_infinite_series_cell_exit_3(self, tmp_path, capsys, name, column, message):
        import csv
        import shutil
        from pathlib import Path
        broken = tmp_path / "broken"
        shutil.copytree(Path(__file__).parent.parent / "fixtures" / "miniature", broken)
        path = broken / name
        with path.open(newline="") as handle:
            rows = list(csv.reader(handle))
        rows[2][rows[0].index(column)] = "inf"  # step 1
        path.write_text("".join(",".join(row) + "\n" for row in rows))
        assert run_cli(["validate", str(broken)]) == 3
        assert capsys.readouterr().out.splitlines() == ["1 violation", message]
        assert run_cli(["--quiet", "run", str(broken), "--scenario", "reference"]) == 3
        assert json.loads(capsys.readouterr().out)["error"] == "schema"

    @pytest.mark.parametrize("file, old, new, message", [
        ("technologies.csv", "nuc1,n3,conversion1,25.0,false,25.0,0.0,0.0,0.0,16.9,.*",
         "nuc1,n3,conversion1,25.0,false,25.0,0.0,0.0",
         "technologies.csv row 10: expected 30 cells, found 8"),
        ("technologies.csv", "nuc1,n3,conversion1,25.0,false,25.0,",
         "nuc1,n3,conversion1,inf,false,inf,", "technology nuc1: existing_size must be finite"),
        ("branches.csv", "(ac1,[^,]*,[^,]*,[^,]*,[^,]*,[^,]*),5.0,true,100.0,",
         r"\1,inf,false,inf,", "branch ac1: existing_capacity must be finite"),
    ], ids=["truncated-row", "infinite-existing-size", "infinite-existing-capacity"])
    def test_malformed_system_file_exit_3(self, tmp_path, capsys, file, old, new, message):
        """Before these were rejected, the truncated row ran with nuc1's variable
        opex at 0 and the infinite capacity made the run end unbounded."""
        import re
        import shutil
        from pathlib import Path
        broken = tmp_path / "broken"
        shutil.copytree(Path(__file__).parent.parent / "fixtures" / "miniature", broken)
        path = broken / file
        text, count = re.subn(old, new, path.read_text(), count=1)
        assert count == 1
        path.write_text(text)
        assert run_cli(["validate", str(broken)]) == 3
        assert capsys.readouterr().out.splitlines() == ["1 violation", message]
        assert run_cli(["--quiet", "run", str(broken), "--scenario", "reference"]) == 3
        assert json.loads(capsys.readouterr().out)["error"] == "schema"

    def test_missing_directory_exit(self, tmp_path):
        assert run_cli(["validate", str(tmp_path / "nope")]) == 3

    @pytest.mark.parametrize("old, new", [
        ('"step_count": 24', '"step_count": "abc"'),
        ('"carbon_price": 80.0', '"carbon_price": "high"'),
        ('"carbon_price": 80.0', '"carbon_price": NaN'),
    ])
    def test_malformed_or_non_finite_manifest_exit_3(self, system_dir, tmp_path, capsys,
                                                      old, new):
        import shutil
        broken = tmp_path / "broken"
        shutil.copytree(system_dir, broken)
        path = broken / "manifest.json"
        path.write_text(path.read_text().replace(old, new))
        assert run_cli(["validate", str(broken)]) == 3
        assert capsys.readouterr().out.startswith("1 violation\n")
        assert run_cli(["--quiet", "run", str(broken), "--scenario", "reference"]) == 3


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

    def test_usage_error_exit_2(self, system_dir, tmp_path, monkeypatch):
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
        assert run_cli(["run", str(system_dir), "--scenario", "reference",
                        "--mode", "cap=nan"]) == 2
        assert run_cli(["matrix", str(system_dir), "--modes", "cap=nan",
                        "--out", out]) == 2
        # a worker count below one or an empty list fails before any solve
        def no_solve(*args, **kwargs):
            raise AssertionError("a usage error must stop before any solve")

        monkeypatch.setattr("carrieropt.cli.ScenarioRunner", no_solve)
        for extra in (["--jobs", "0"], ["--jobs", "-3"], ["--modes", ","],
                      ["--scenarios", ","]):
            assert run_cli(["matrix", str(system_dir), *extra, "--out", out]) == 2, extra
        assert run_cli(["sweep", str(system_dir), "--scenario", "s-all",
                        "--targets", ","]) == 2

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

    def test_warm_start_rejects_non_finite_and_boolean_sizes(self, system_dir, tmp_path,
                                                             capsys):
        out = tmp_path / "base"
        assert run_cli(["--quiet", "run", str(system_dir), "--scenario", "t-all",
                        "--out", str(out)]) == 0
        capsys.readouterr()
        sizes = json.loads((out / "t-all_min_cost.json").read_text())["size_values"]
        name = next(iter(sizes))  # a size column of synergies too
        bad = tmp_path / "bad.json"
        for value in (math.nan, math.inf, -math.inf, True):
            bad.write_text(json.dumps({"size_values": {**sizes, name: value}}))
            code = run_cli(["--quiet", "run", str(system_dir), "--scenario", "synergies",
                            "--warm-start", str(bad)])
            assert (code, json.loads(capsys.readouterr().out)["error"]) == (2, "usage"), value

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

    def test_warm_start_fixes_only_sizes(self, system_dir, tmp_path, capsys):
        # a dispatch column the file names is ignored, as a name the problem lacks is
        outputs = []
        for sizes in ({}, {"nuc1.out[0]": 9000.0}):
            prior = tmp_path / "prior.json"
            prior.write_text(json.dumps({"size_values": sizes}))
            assert run_cli(["--quiet", "run", str(system_dir), "--scenario", "reference",
                            "--warm-start", str(prior)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def _reference_result(self, system_dir, tmp_path, capsys):
        out = tmp_path / "base"
        assert run_cli(["--quiet", "run", str(system_dir), "--scenario", "reference",
                        "--out", str(out)]) == 0
        capsys.readouterr()
        return str(out / "reference_min_cost.json")

    def test_warm_start_under_unreachable_cap_exit_4(self, system_dir, tmp_path, capsys):
        # no fixing can meet a 10 t cap: the same answer as the cold run
        base = self._reference_result(system_dir, tmp_path, capsys)
        argv = ["--quiet", "run", str(system_dir), "--scenario", "synergies", "--mode", "cap=10"]
        assert run_cli(argv) == 4
        cold = json.loads(capsys.readouterr().out)
        assert run_cli(argv + ["--warm-start", base]) == 4
        warm = json.loads(capsys.readouterr().out)
        assert warm == cold
        assert warm["error"] == "infeasible" and warm["minimum_achievable"] > 10.0

    def test_warm_start_fixing_infeasible_under_reachable_cap_exit_5(self, system_dir,
                                                                     tmp_path, capsys):
        # synergies reaches 40,000 t, but not with its new technologies fixed at zero
        base = self._reference_result(system_dir, tmp_path, capsys)
        assert run_cli(["--quiet", "run", str(system_dir), "--scenario", "synergies",
                        "--mode", "cap=40000", "--warm-start", base]) == 5
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "solver_limit"
        assert "stage-1 fixing is infeasible" in payload["detail"]


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
    def test_every_outcome_verifies_beside_its_free_cap_row(self, tmp_path, capsys,
                                                           monkeypatch):
        # every mode solves one matrix; the cap row is free (rhs +inf) unless capped
        outcomes, solve = [], scenarios._solve

        def recording_solve(*args, **kwargs):
            outcomes.append(solve(*args, **kwargs))
            return outcomes[-1]

        monkeypatch.setattr(scenarios, "_solve", recording_solve)
        for year in ("2030", "2040"):
            assert run_cli(["--quiet", "matrix", str(FIXTURE), "--scenarios", "all",
                            "--year", year, "--out", str(tmp_path / year)]) == 0
        assert run_cli(["--quiet", "matrix", str(FIXTURE), "--scenarios", "synergies",
                        "--modes", "cap=30000,cap=inf", "--out", str(tmp_path / "caps")]) == 0
        assert len(outcomes) == 2 * 30 + 3  # the last matrix solves its root first
        for outcome in outcomes:
            problem = outcome.built.problem
            assert problem.free_rows()[-1] == (outcome.mode.emission_cap != 30000.0)
            assert verify_solution(problem, outcome.result).ok(), outcome.scenario_id

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

    def test_each_cap_writes_its_own_files(self, system_dir, tmp_path, capsys):
        out = tmp_path / "caps"
        assert run_cli(["--quiet", "matrix", str(system_dir), "--scenarios", "synergies",
                        "--modes", "cap=60000,cap=80000", "--out", str(out)]) == 0
        caps = ("60000.0", "80000.0")
        stems = [f"synergies_min_cost_with_cap_{cap}" for cap in caps]
        assert sorted(path.name for path in out.iterdir()) == [
            name for stem in stems for name in (f"{stem}.json", f"{stem}_capacities.csv")]
        for cap, stem in zip(caps, stems):
            assert json.loads((out / f"{stem}.json").read_text())["mode"] == f"cap={cap}"

    def test_repeated_scenarios_and_modes_run_once(self, system_dir, tmp_path, capsys,
                                                   monkeypatch):
        calls = []
        original = ScenarioRunner.run

        def counting_run(self, scenario, mode):
            calls.append((scenario.id, mode.label()))
            return original(self, scenario, mode)

        monkeypatch.setattr(ScenarioRunner, "run", counting_run)
        out = tmp_path / "repeated"
        assert run_cli(["--quiet", "matrix", str(system_dir),
                        "--scenarios", "reference,t-1,reference",
                        "--modes", "min-cost,min-emissions,min-cost", "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        runs = [(r["scenario"], r["mode"]) for r in summary["runs"]]
        assert runs == [(sid, mode) for sid in ("reference", "t-1")
                        for mode in ("min_cost", "min_emissions")]
        # reference's min-cost run is the root, solved first and not run again
        assert calls == [("reference", "min_cost"), ("reference", "min_emissions"),
                         ("t-1", "min_cost"), ("t-1", "min_emissions")]
        assert len(list(out.iterdir())) == 8
        # unlisted, reference still runs once as the root, and writes nothing
        calls.clear()
        out = tmp_path / "unlisted"
        assert run_cli(["--quiet", "matrix", str(system_dir), "--scenarios", "t-1,t-1",
                        "--modes", "min-cost", "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert [(r["scenario"], r["mode"]) for r in summary["runs"]] == [("t-1", "min_cost")]
        assert calls == [("reference", "min_cost"), ("t-1", "min_cost")]
        assert sorted(path.name for path in out.iterdir()) == [
            "t-1_min_cost.json", "t-1_min_cost_capacities.csv"]

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

    def test_scenario_files_do_not_depend_on_the_listing(self, system_dir, tmp_path, capsys):
        # every runner starts from the same root, whatever else is listed and in
        # which order, so synergies writes the same bytes in each listing
        names = [f"synergies_{mode}{suffix}" for mode in ("min_cost", "min_emissions")
                 for suffix in (".json", "_capacities.csv")]
        files = []
        for listing in ("synergies", "h-all,synergies", "synergies,h-all"):
            out = tmp_path / listing.replace(",", "-")
            assert run_cli(["--quiet", "matrix", str(system_dir), "--scenarios", listing,
                            "--out", str(out)]) == 0
            capsys.readouterr()
            files.append({name: (out / name).read_bytes() for name in names})
        assert files[0] == files[1] == files[2]

    def test_parallel_cap_chains_match_serial(self, system_dir, tmp_path, capsys,
                                              monkeypatch):
        # each scenario's caps chain bases in order, whichever worker runs them,
        # and a run with an empty chain starts from the root, reference's
        # min-cost basis, solved cold before the workers start and not
        # exported; at 40,000 t h-all is infeasible, so its 60,000 t cap
        # starts from the root
        warm = {}
        real_run = ScenarioRunner.run

        def recording_run(self, scenario, mode):
            outcome = real_run(self, scenario, mode)
            warm[(jobs, scenario.id, mode.label())] = "warm_start" in outcome.solver
            return outcome

        monkeypatch.setattr(ScenarioRunner, "run", recording_run)
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            code = run_cli(["--quiet", "matrix", str(system_dir),
                            "--scenarios", "synergies,h-all",
                            "--modes", "min-cost,cap=40000,cap=60000", "--jobs", jobs,
                            "--out", str(out)])
            assert code == 5  # the infeasible cap is a failure of the matrix
            files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
            outputs.append((capsys.readouterr().out, files))
        assert outputs[0] == outputs[1]
        cap40 = ObjectiveMode.min_cost_with_cap(40000.0).label()
        cap60 = ObjectiveMode.min_cost_with_cap(60000.0).label()
        min_cost = ObjectiveMode.min_cost().label()
        expected = {("reference", min_cost): False, ("synergies", min_cost): True,
                    ("synergies", cap40): True, ("synergies", cap60): True,
                    ("h-all", min_cost): True, ("h-all", cap60): True}
        assert warm == {(jobs, *key): flag for jobs in ("1", "2")
                        for key, flag in expected.items()}


class TestExportMps:
    def test_writes_problem(self, system_dir, tmp_path, capsys):
        target = tmp_path / "problem.mps"
        assert run_cli(["--quiet", "export-mps", str(system_dir),
                        "--scenario", "reference", "--out", str(target)]) == 0
        text = target.read_text()
        assert text.startswith("NAME")
        assert "ENDATA" in text
        assert (tmp_path / "problem.mps.names.json").exists()
