"""Serialization round-trips and schema rejection."""

import csv
import json

import pytest

from carrieropt.system import build_miniature_system, validate_system
from carrieropt.system_io import (
    SchemaError,
    parse_system_files,
    serialize_system,
    system_digest,
    write_system_files,
)


@pytest.fixture(scope="module")
def mini():
    return build_miniature_system(seed=3)


class TestRoundTrip:
    def test_write_parse_identity(self, mini, tmp_path):
        write_system_files(mini, tmp_path)
        loaded = parse_system_files(tmp_path)
        assert loaded == mini

    def test_digest_stable_and_sensitive(self, mini):
        assert system_digest(mini) == system_digest(build_miniature_system(seed=3))
        assert system_digest(mini) != system_digest(build_miniature_system(seed=4))

    def test_serialized_files_present(self, mini):
        files = serialize_system(mini)
        assert {"manifest.json", "nodes.csv", "technologies.csv", "branches.csv",
                "demand_electricity.csv", "demand_hydrogen.csv", "profiles.csv",
                "inflows.csv"} <= set(files)

    def test_loaded_system_validates(self, mini, tmp_path):
        write_system_files(mini, tmp_path)
        assert validate_system(parse_system_files(tmp_path)) == []


class TestSchemaRejection:
    def test_unknown_column_rejected(self, mini, tmp_path):
        write_system_files(mini, tmp_path)
        path = tmp_path / "technologies.csv"
        lines = path.read_text().splitlines()
        lines[0] += ",surprise"
        lines[1] += ",1"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="unknown column 'surprise'"):
            parse_system_files(tmp_path)

    def test_missing_manifest(self, mini, tmp_path):
        write_system_files(mini, tmp_path)
        (tmp_path / "manifest.json").unlink()
        with pytest.raises(SchemaError, match="manifest.json"):
            parse_system_files(tmp_path)

    def test_unsupported_units_rejected(self, mini, tmp_path):
        write_system_files(mini, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["units"]["power"] = "GW"
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SchemaError, match="unsupported unit"):
            parse_system_files(tmp_path)

    def test_bad_number_names_cell(self, mini, tmp_path):
        write_system_files(mini, tmp_path)
        path = tmp_path / "nodes.csv"
        text = path.read_text().replace("1000.0", "not-a-number", 1)
        path.write_text(text)
        with pytest.raises(SchemaError, match="nodes.csv row"):
            parse_system_files(tmp_path)

    def test_invalid_system_rejected_with_violations(self, mini, tmp_path):
        write_system_files(mini, tmp_path)
        path = tmp_path / "branches.csv"
        text = path.read_text().replace("7e-05", "0.9", 1)
        path.write_text(text)
        with pytest.raises(SchemaError, match="loss factor"):
            parse_system_files(tmp_path)

    def test_misordered_steps_rejected(self, mini, tmp_path):
        write_system_files(mini, tmp_path)
        path = tmp_path / "profiles.csv"
        lines = path.read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="steps must run"):
            parse_system_files(tmp_path)

    def test_import_defaults_fill_empty_cells(self, mini, tmp_path):
        write_system_files(mini, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["import_defaults"] = {"price": {"natural_gas": 40.0}}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        nodes = tmp_path / "nodes.csv"
        # blank one natural-gas price cell; the default must restore it
        lines = nodes.read_text().splitlines()
        header = lines[0].split(",")
        col = header.index("import_price_natural_gas")
        cells = lines[1].split(",")
        cells[col] = ""
        lines[1] = ",".join(cells)
        nodes.write_text("\n".join(lines) + "\n")
        loaded = parse_system_files(tmp_path)
        from carrieropt.system import Carrier
        assert loaded.node("n1").import_price[Carrier.NATURAL_GAS] == 40.0


def _edit_manifest(directory, **changes):
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest.update(changes)
    path.write_text(json.dumps(manifest))


def _set_cell(path, column, value, row=0):
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        fields, rows = reader.fieldnames, list(reader)
    rows[row][column] = value
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


class TestRaggedRows:
    """An entity row must have as many cells as its file's header: a short row
    would leave its last columns empty (their defaults) and a long one would
    drop its extra cells."""

    @pytest.mark.parametrize("file, cells, message", [
        ("technologies.csv", 8, "technologies.csv row 2: expected 30 cells, found 8"),
        ("branches.csv", 29, "branches.csv row 2: expected 27 cells, found 29"),
        ("nodes.csv", 2, "nodes.csv row 2: expected 12 cells, found 2"),
    ], ids=["truncated-technology", "extended-branch", "truncated-node"])
    def test_row_with_the_wrong_cell_count_rejected(self, mini, tmp_path, file, cells,
                                                    message):
        write_system_files(mini, tmp_path)
        path = tmp_path / file
        header, first, *rest = path.read_text().splitlines()
        row = (first.split(",") + ["x"] * cells)[:cells]
        path.write_text("".join(f"{line}\n" for line in [header, ",".join(row), *rest]))
        with pytest.raises(SchemaError, match=message):
            parse_system_files(tmp_path)

    def test_blank_lines_are_skipped(self, mini, tmp_path):
        write_system_files(mini, tmp_path)
        path = tmp_path / "technologies.csv"
        path.write_text(path.read_text().replace("\n", "\n\n", 1) + "\n")
        assert parse_system_files(tmp_path) == mini


class TestMalformedManifestAndSeries:
    @pytest.mark.parametrize("changes, message", [
        ({"horizon": {"step_count": "abc", "hours_per_step": 365.0}},
         r"manifest.json: horizon.step_count 'abc' is not a number"),
        ({"horizon": {"step_count": 24.5, "hours_per_step": 365.0}},
         r"manifest.json: horizon.step_count 24.5 is not an integer"),
        ({"horizon": [24, 365.0]}, r"manifest.json: horizon \[24, 365.0\] is not an object"),
        ({"carbon_price": "high"}, r"manifest.json: carbon_price 'high' is not a number"),
        ({"carbon_price": True}, r"manifest.json: carbon_price True is not a number"),
        ({"units": ["MW"]}, r"manifest.json: units \['MW'\] is not an object"),
        ({"import_defaults": {"price": 5}},
         r"manifest.json: import_defaults.price 5 is not an object"),
        ({"import_defaults": {"price": {"electricity": "cheap"}}},
         r"manifest.json: import_defaults.price.electricity 'cheap' is not a number"),
    ], ids=["step-count-text", "step-count-fraction", "horizon-list", "carbon-price-text",
            "carbon-price-bool", "units-list", "defaults-number", "defaults-text"])
    def test_bad_manifest_value_names_file_and_field(self, mini, tmp_path, changes, message):
        write_system_files(mini, tmp_path)
        _edit_manifest(tmp_path, **changes)
        with pytest.raises(SchemaError, match=message):
            parse_system_files(tmp_path)

    def test_numeric_strings_still_parse(self, mini, tmp_path):
        write_system_files(mini, tmp_path)
        _edit_manifest(tmp_path, carbon_price=repr(mini.carbon_price),
                       horizon={"step_count": str(mini.horizon.step_count),
                                "hours_per_step": mini.horizon.hours_per_step})
        assert parse_system_files(tmp_path) == mini

    @pytest.mark.parametrize("cell", ["a", "1.5"])
    def test_non_integer_step_cell(self, mini, tmp_path, cell):
        write_system_files(mini, tmp_path)
        _set_cell(tmp_path / "profiles.csv", "step", cell, row=1)
        with pytest.raises(SchemaError, match=f"profiles.csv row 3: step '{cell}' is not an"
                                              " integer"):
            parse_system_files(tmp_path)


class TestNonFiniteCostData:
    """Every number that enters the objective must be finite."""

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_carbon_price(self, mini, tmp_path, value):
        write_system_files(mini, tmp_path)
        path = tmp_path / "manifest.json"
        path.write_text(path.read_text().replace('"carbon_price": 80.0',
                                                 f'"carbon_price": {value}'))
        with pytest.raises(SchemaError, match="carbon_price must be finite"):
            parse_system_files(tmp_path)

    def test_hours_per_step(self, mini, tmp_path):
        write_system_files(mini, tmp_path)
        _edit_manifest(tmp_path, horizon={"step_count": mini.horizon.step_count,
                                          "hours_per_step": "inf"})
        with pytest.raises(SchemaError, match="horizon: hours_per_step must be finite"):
            parse_system_files(tmp_path)

    @pytest.mark.parametrize("file, column, message", [
        ("technologies.csv", "capex_per_size", "technology batt1: capex_per_size must be finite"),
        ("technologies.csv", "lifetime", "technology batt1: lifetime must be finite"),
        ("technologies.csv", "variable_opex", "technology batt1: variable_opex must be finite"),
        ("technologies.csv", "discount_rate", "technology batt1: discount_rate must be finite"),
        ("technologies.csv", "ef_out_electricity",
         "technology batt1: emission factor out/electricity must be finite"),
        ("nodes.csv", "import_price_hydrogen",
         "node n1: import price for hydrogen must be finite"),
        ("nodes.csv", "import_emission_factor_electricity",
         "node n1: import emission factor for electricity must be finite"),
        ("branches.csv", "gamma2", "branch ac1: gamma2 must be finite"),
        ("branches.csv", "variable_opex", "branch ac1: variable_opex must be finite"),
        ("branches.csv", "lifetime", "branch ac1: lifetime must be finite"),
        ("branches.csv", "discount_rate", "branch ac1: discount_rate must be finite"),
        ("branches.csv", "fixed_opex_share", "branch ac1: fixed_opex_share must be finite"),
    ])
    def test_infinite_cost_cell(self, mini, tmp_path, file, column, message):
        write_system_files(mini, tmp_path)
        _set_cell(tmp_path / file, column, "inf")
        with pytest.raises(SchemaError, match=message):
            parse_system_files(tmp_path)


class TestShippedFixture:
    def test_fixture_loads_validates_and_digests_stably(self):
        from pathlib import Path
        root = Path(__file__).resolve().parent.parent / "fixtures" / "miniature"
        loaded = parse_system_files(root)
        assert validate_system(loaded) == []
        assert loaded == build_miniature_system(seed=0)
        assert system_digest(loaded) == system_digest(build_miniature_system(seed=0))
