"""Serialization round-trips and schema rejection."""

import csv
import dataclasses
import hashlib
import json
import math
import re
from pathlib import Path

import pytest

from carrieropt.system import (
    EnergySystem,
    NetworkBranch,
    Node,
    TechnologyInstance,
    TimeHorizon,
    build_miniature_system,
    validate_system,
)
from carrieropt.system_io import (
    _BRANCH_COLUMNS,
    _NODE_COLUMNS,
    _SECTIONS,
    _TECH_COLUMNS,
    SchemaError,
    _parse_float,
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

    @pytest.mark.parametrize("file, column, message", [
        ("technologies.csv", "capex_per_size",
         "technologies.csv row 4 capex_per_size: 'x' is not a number"),
        ("profiles.csv", "step", "profiles.csv row 4: step 'x' is not an integer"),
    ], ids=["entity", "series"])
    def test_a_blank_line_above_a_defect_counts_in_its_row_number(self, mini, tmp_path, file,
                                                                  column, message):
        # the second data row sits on line 4 behind a blank line 3
        write_system_files(mini, tmp_path)
        path = tmp_path / file
        _set_cell(path, column, "x", row=1)
        header, first, *rest = path.read_text().splitlines()
        path.write_text("".join(f"{line}\n" for line in [header, first, "", *rest]))
        with pytest.raises(SchemaError, match=message):
            parse_system_files(tmp_path)

    def test_a_blank_line_does_not_count_as_a_step(self, mini, tmp_path):
        write_system_files(mini, tmp_path)
        path = tmp_path / "profiles.csv"
        header, first, *rest = path.read_text().splitlines()
        path.write_text("".join(f"{line}\n" for line in [header, first, "", *rest]))
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
        ({"import_defaults": {"prices": {"natural_gas": 40.0}}},
         r"manifest.json: import_defaults entry 'import_prices_natural_gas' names no"
         r" nodes.csv column"),
    ], ids=["step-count-text", "step-count-fraction", "horizon-list", "carbon-price-text",
            "carbon-price-bool", "units-list", "defaults-number", "defaults-text",
            "defaults-no-column"])
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
        ("technologies.csv", "max_charge_rate",
         "technology batt1: max_charge_rate must be finite"),
        ("technologies.csv", "compression_electricity",
         "technology batt1: compression_electricity must be finite"),
        ("branches.csv", "integer_block_mw",
         "branch ac1: integer_block_mw must be finite"),
    ])
    def test_infinite_cost_cell(self, mini, tmp_path, file, column, message):
        write_system_files(mini, tmp_path)
        _set_cell(tmp_path / file, column, "inf")
        with pytest.raises(SchemaError, match=message):
            parse_system_files(tmp_path)

    def test_infinite_compression_parameter(self, mini, tmp_path):
        write_system_files(mini, tmp_path)
        _set_cell(tmp_path / "branches.csv", "heat_capacity_ratio", "inf", row=4)
        with pytest.raises(SchemaError, match="branch pp1: compression heat_capacity_ratio"
                                              " must be finite"):
            parse_system_files(tmp_path)


class TestColumnContract:
    """Each header names a column once, and a row fills only the cells that
    its kind reads."""

    def test_repeated_column_rejected(self, mini, tmp_path):
        write_system_files(mini, tmp_path)
        path = tmp_path / "technologies.csv"
        header, *rows = path.read_text().splitlines()
        path.write_text("".join(f"{line}\n" for line in
                                [header + ",variable_opex"] + [r + ",0.0" for r in rows]))
        with pytest.raises(SchemaError, match="technologies.csv: column 'variable_opex'"
                                              " appears more than once"):
            parse_system_files(tmp_path)

    @pytest.mark.parametrize("name", ["demand_electricity.csv", "profiles.csv",
                                      "inflows.csv"])
    def test_repeated_series_column_rejected(self, mini, tmp_path, name):
        # before series files were read like entity files, the repeated
        # column's cells went into one series twice as long as the horizon
        write_system_files(mini, tmp_path)
        path = tmp_path / name
        header, *rows = path.read_text().splitlines()
        first = header.split(",")[1]
        path.write_text("".join(f"{line}\n" for line in
                                [f"{header},{first}"] + [f"{r},0.0" for r in rows]))
        with pytest.raises(SchemaError, match=f"{name}: column '{first}' appears more"
                                              " than once"):
            parse_system_files(tmp_path)

    @pytest.mark.parametrize("row, column, message", [
        (0, "efficiency", "technologies.csv row 2 efficiency: a storage1 technology"
                          " takes no conversion cells"),
        (3, "max_charge_rate", "technologies.csv row 5 max_charge_rate: a conversion2"
                               " technology takes no storage cells"),
        (8, "input_carriers", "technologies.csv row 10 input_carriers: a conversion1"
                              " technology takes no conversion cells"),
    ], ids=["conversion-on-storage", "storage-on-conversion", "conversion-on-conversion1"])
    def test_cell_of_another_kind_rejected(self, mini, tmp_path, row, column, message):
        write_system_files(mini, tmp_path)
        _set_cell(tmp_path / "technologies.csv", column, "0.5", row=row)
        with pytest.raises(SchemaError, match=message):
            parse_system_files(tmp_path)

    @pytest.mark.parametrize("file, row, column", [
        ("technologies.csv", 3, "efficiency"),
        ("technologies.csv", 0, "storage_carrier"),
        ("branches.csv", 4, "temperature_k"),
        ("branches.csv", 0, "expandable"),
    ])
    def test_empty_required_cell_rejected(self, mini, tmp_path, file, row, column):
        write_system_files(mini, tmp_path)
        _set_cell(tmp_path / file, column, "", row=row)
        with pytest.raises(SchemaError, match=f"{file} row {row + 2} {column}: required cell"
                                              " is empty"):
            parse_system_files(tmp_path)

    @pytest.mark.parametrize("column", ["expandable", "bidirectional"])
    def test_branch_header_needs_its_flags(self, mini, tmp_path, column):
        write_system_files(mini, tmp_path)
        path = tmp_path / "branches.csv"
        with path.open(newline="") as handle:
            rows = list(csv.reader(handle))
        at = rows[0].index(column)
        path.write_text("".join(",".join(r[:at] + r[at + 1:]) + "\n" for r in rows))
        with pytest.raises(SchemaError, match=f"branches.csv: missing column '{column}'"):
            parse_system_files(tmp_path)


class TestDomains:
    """Costs, rates, losses and inflows below zero would reach the cost model
    or the balances; import prices may be negative."""

    @pytest.mark.parametrize("file, column, value, message", [
        ("technologies.csv", "discount_rate", "-0.5",
         "technology batt1: discount_rate must be >= 0"),
        ("technologies.csv", "capex_per_size", "-1.0",
         "technology batt1: capex_per_size must be >= 0"),
        ("technologies.csv", "variable_opex", "-1.0",
         "technology batt1: variable_opex must be >= 0"),
        ("branches.csv", "discount_rate", "-0.5", "branch ac1: discount_rate must be >= 0"),
        ("branches.csv", "variable_opex", "-1.0", "branch ac1: variable_opex must be >= 0"),
        ("branches.csv", "loss_factor_per_km", "-0.01",
         "branch ac1: loss_factor_per_km must be >= 0"),
        ("branches.csv", "lifetime", "0",
         "branch ac1: expandable branches need a positive lifetime"),
        ("inflows.csv", "hydro1", "-100", "technology hydro1: inflow has negative values"),
    ])
    def test_out_of_domain_cell_rejected(self, mini, tmp_path, file, column, value, message):
        write_system_files(mini, tmp_path)
        _set_cell(tmp_path / file, column, value)
        with pytest.raises(SchemaError, match=message):
            parse_system_files(tmp_path)

    @pytest.mark.parametrize("file, column, row, value, message", [
        ("branches.csv", "compressor_efficiency", 4, "1.3",
         "branch pp1: compressor efficiency must be <= 1"),
        ("technologies.csv", "ef_in_natural_gas", 6, "-0.18422",
         "technology gas1: emission factor in/natural_gas must be >= 0"),
        ("nodes.csv", "import_emission_factor_electricity", 0, "-0.8",
         "node n1: import emission factor for electricity must be >= 0"),
        ("technologies.csv", "ef_in_hydrogen", 8, "5",
         "technology nuc1: emission factor in/hydrogen matches no flow"),
        ("technologies.csv", "ef_out_natural_gas", 0, "5",
         "technology batt1: emission factor out/natural_gas matches no flow"),
        ("technologies.csv", "ef_in_electricity", 9, "5",
         "technology wind1: emission factor in/electricity matches no flow"),
    ])
    def test_unphysical_cell_rejected(self, mini, tmp_path, file, column, row, value, message):
        # a compressor cannot beat the isentropic work, no technology or
        # import of the model takes CO2 out of the air, and a factor on a
        # flow the technology lacks would price nothing
        write_system_files(mini, tmp_path)
        _set_cell(tmp_path / file, column, value, row=row)
        with pytest.raises(SchemaError, match=message):
            parse_system_files(tmp_path)

    def test_lossless_compressor_accepted(self, mini, tmp_path):
        write_system_files(mini, tmp_path)
        _set_cell(tmp_path / "branches.csv", "compressor_efficiency", "1.0", row=4)
        branch = next(b for b in parse_system_files(tmp_path).branches if b.id == "pp1")
        assert branch.compression.efficiency == 1.0

    def test_nan_import_limit_default_rejected(self, mini, tmp_path):
        write_system_files(mini, tmp_path)
        _edit_manifest(tmp_path, import_defaults={"limit": {"electricity": "nan"}})
        _set_cell(tmp_path / "nodes.csv", "import_limit_electricity", "")
        with pytest.raises(SchemaError, match="node n1: import limit for electricity"
                                              " must be >= 0"):
            parse_system_files(tmp_path)

    def test_readme_table_matches_the_declarations(self):
        """Each numeric column of a system file has one row in the README's
        table of domains, which names the domain its field declares."""
        def domain(cls, attr):
            """The declared domain of ``cls.attr`` as the table writes it."""
            d = next(f for f in dataclasses.fields(cls) if f.name == attr).metadata["domain"]
            if d.low == -math.inf:
                return "finite"
            if d.high == math.inf:
                return f"{'>=' if d.low_closed else '>'} {d.low:g}" + " or inf" * d.high_closed
            return f"{'(['[d.low_closed]}{d.low:g}, {d.high:g}{')]'[d.high_closed]}"

        declared = {("manifest.json", "carbon_price"): domain(EnergySystem, "carbon_price"),
                    ("manifest.json", "horizon.step_count"): domain(TimeHorizon, "step_count"),
                    ("manifest.json", "horizon.hours_per_step"):
                        domain(TimeHorizon, "hours_per_step")}
        for name, entity, columns in (("nodes.csv", Node, _NODE_COLUMNS),
                                      ("technologies.csv", TechnologyInstance, _TECH_COLUMNS),
                                      ("branches.csv", NetworkBranch, _BRANCH_COLUMNS)):
            for column in columns:
                if column.read is not _parse_float:
                    continue
                row, key = column.name, column.key
                if isinstance(key, int):  # a position of a tuple, numbered from 1
                    row = row.removesuffix(str(key + 1)) + "<k>"
                elif key is not None:  # a carrier, or a (direction, carrier) pair
                    row = row.removesuffix((key[-1] if isinstance(key, tuple) else key).value)
                    row += "<carrier>"
                cls = _SECTIONS[column.section][1] if column.section else entity
                declared[name, row] = domain(cls, column.attr)
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        listed = {}
        for file, column, text in re.findall(r"^\| `([\w.]+)` \| `([^`]+)` \| ([^|]+?) \|$",
                                             readme, re.MULTILINE):
            assert (file, column) not in listed, (file, column)
            listed[file, column] = text
        assert listed == declared

    def test_negative_import_prices_accepted(self, mini, tmp_path):
        write_system_files(mini, tmp_path)
        _set_cell(tmp_path / "nodes.csv", "import_price_natural_gas", "-40.0")
        _set_cell(tmp_path / "nodes.csv", "import_price_electricity", "-10.0")
        from carrieropt.system import Carrier
        prices = parse_system_files(tmp_path).node("n1").import_price
        assert prices[Carrier.NATURAL_GAS] == -40.0 and prices[Carrier.ELECTRICITY] == -10.0


FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "miniature"


class TestWrittenBytes:
    """The writer's output, byte for byte: the shipped fixture and digests of a
    system with compression, storage, conversion and integer-block cells."""

    def test_seed_0_equals_the_shipped_fixture(self):
        files = serialize_system(build_miniature_system(0))
        assert sorted(files) == sorted(p.name for p in FIXTURE.iterdir())
        for name, content in files.items():
            assert content.encode() == (FIXTURE / name).read_bytes(), name

    def test_seed_1_with_dc_blocks_digests(self):
        files = serialize_system(build_miniature_system(1, dc_blocks_mw=10.0))
        digests = {name: hashlib.sha256(content.encode()).hexdigest()
                   for name, content in files.items()}
        assert digests == {
            "branches.csv": "c348a344ef611be978827591f718b7851305a7d714238220a1e60e493656e005",
            "demand_electricity.csv":
                "34f7f24614c00569bc770742fc3d564b32c5b704a962b07e2f77eff030997c2c",
            "demand_hydrogen.csv":
                "b3300cd0599e4a6e1b06fb6a9a18be0c93ad6e7a5cc8a14d0280421e4a60c98c",
            "inflows.csv": "71d3508ae7a01c773c455b7e7cef62d91040f8b1a1239b599d67966868a78a7a",
            "manifest.json": "df6130869bc2b314f222be853f5d0b7b2c29b8027db4944ab768aa0c85588c27",
            "nodes.csv": "a8f54ed480b08e6a3d39f7a2eb2deee01733d9d86226a5e0f51ac3130de9868d",
            "profiles.csv": "62472718de4e782856de42e6769242217c29335ee93fd33c5a9d51952c50b2a5",
            "technologies.csv":
                "9c4e84a32e121c9d96d25f4db60cea9ae04b721627c83d64b4c9be4b6780c175",
        }


class TestShippedFixture:
    def test_fixture_loads_validates_and_digests_stably(self):
        from pathlib import Path
        root = Path(__file__).resolve().parent.parent / "fixtures" / "miniature"
        loaded = parse_system_files(root)
        assert validate_system(loaded) == []
        assert loaded == build_miniature_system(seed=0)
        assert system_digest(loaded) == system_digest(build_miniature_system(seed=0))
