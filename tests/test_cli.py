import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import metriclab
from metriclab.cli import _write_csv, load_scenario, main
from metriclab.lipgeom import _ranks
from metriclab.selfcheck import _max_detail, run_checks
from metriclab.svg import emit_plot


ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scripts" / "scenarios"
SRC = str(Path(metriclab.__file__).resolve().parents[1])


# What ships: the scenarios CI runs twice and diffs (the same globs), run in
# all three formats.
SHIPPED_SOURCES = {p.stem: p for pattern in ("scripts/scenarios/*.json",
                                             "perfbench/scenarios/nucleus.json")
                   for p in sorted(ROOT.glob(pattern))}

# sha256 of every file they write, keyed "<source stem>/<file>". This is the
# one place an artifact byte change is declared; CHANGES.md gives the reason.
SHIPPED_ARTIFACTS = {
    "birkhoff/deviation.csv": "cc33d53995efa6c4e596f7e02221d226af2e7cadaff80e643f5aa2e2b8e7799a",
    "birkhoff/deviation.svg": "566c5816cb70257e707258ac7358179fdf64cda9bf990d6cf45275ebcb0efd1c",
    "birkhoff/report.json": "738ddc2b85f0cb71f1550875d0eb88fb7f42c18ab2eeb1ce64129fa3327fbd30",
    "check/report.json": "221180a58cdfb17d11e895e0fa59fa66dd56d88b91a16b2f91e4e1718b8cfacc",
    "gap/report.json": "479b593f02126db6a0c1b0eb79a3edef2449919ea490cc3f634eab542352af45",
    "ldp/ldp.csv": "a5dcd1ed365695045612593092ef2361352a3e90674e6ff2e526b2a4d0d9cfea",
    "ldp/ldp.svg": "3a55215f275e3e708df925e731089b9583783fd965c3a0752a9b1971615a7887",
    "ldp/report.json": "ad38d48139a57997a66c011999514d383e36e5c34e1d7b40ecaebf73cde2e040",
    "nucleus/nucleus.csv": "468af5caddc920774041e53b914aebf8ab43b6f52b85af96749db212f863ec6f",
    "nucleus/report.json": "2985beca7f6737034597043e72e6235e4c4141d1ca04480a07797695308768aa",
    "rotation_field/dhat.csv": "f9c01b3eccfa3a7262bcefda07c4e69df1d4b7155ea3b696959faa847eab42ad",
    "rotation_field/gamma.csv": "7c3cfd08a3e567ea6ccdc90dd25f5fa7233eb3d690159923240ef35a0332cdbf",
    "rotation_field/report.json":
        "affee8c1947578221895c6dec8da2e7ad6b1ba847757415cb8664fe866233891",
    "wasserstein/coupling.csv": "6f1a2a90640fc1b8b82d5f05e3fdc5396575b503aa4cce4fade941ef32e7a908",
    "wasserstein/potential.csv": "40d7979b16ffe726312ad36f16568c253faa4f4de7f2eff67dc3833c36e0375a",
    "wasserstein/report.json": "5efe9c4407ffe10c970f09509309776f171a43887936baf70e3086800055f84b",
    "wave_field/envelope.csv": "4d1ac7a291dc9537070dc444a513668188dfd95eceb440d2c02b5a8e94bf365a",
    "wave_field/fibre_0.csv": "a9fe7c7908ab073bac5152fd099cab8407001ab7819ae1e96bd090b2134c8962",
    "wave_field/fibre_1.csv": "52165e5e0332a6f064a56a07c348a190039a6979c2c9e16b143d1a9f52319aa7",
    "wave_field/fibre_2.csv": "7534e86f835bf851a69efa1cf90bd9e6990003b8f5caa47e3b56c5f29681eca7",
    "wave_field/fibre_3.csv": "52165e5e0332a6f064a56a07c348a190039a6979c2c9e16b143d1a9f52319aa7",
    "wave_field/fibre_4.csv": "a9fe7c7908ab073bac5152fd099cab8407001ab7819ae1e96bd090b2134c8962",
    "wave_field/report.json": "7da4cff9f13cf09c3b9ca7250059de5da32572bc419705cdb58ff16b78a2e127",
    "wave_field/wave_field.csv":
        "fec65dd2df95d4f5fd1c2606d52437fcf5f0855ae3910284574236cd6f20208f",
}

SHIPPED_SOURCE_NAMES = sorted(set(SHIPPED_SOURCES)
                              | {k.split("/")[0] for k in SHIPPED_ARTIFACTS})


def subprocess_env():
    """The environment with this package's source tree first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def run_shipped(path, out):
    """Run a shipped scenario in all three formats in a fresh interpreter,
    RuntimeWarnings as errors, writing into out."""
    cmd = [sys.executable, "-W", "error::RuntimeWarning", "-m", "metriclab", "--config",
           str(path), "--format", "json", "--format", "csv", "--format", "svg",
           "--out", str(out)]
    return subprocess.run(cmd, env=subprocess_env(), capture_output=True, text=True,
                          timeout=300)


def write_scenario(tmp_path, doc, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def scenario_doc(name):
    """A shipped scenario by file name."""
    return json.loads((SCENARIOS / f"{name}.json").read_text())


class TestScenarioLoading:
    def test_missing_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json")]) == 2

    def test_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["--config", str(p)]) == 2

    def test_unknown_kind(self, tmp_path):
        p = write_scenario(tmp_path, {"kind": "mystery"})
        assert main(["--config", str(p)]) == 2

    def test_missing_param_is_config_error(self, tmp_path):
        p = write_scenario(tmp_path, {"kind": "wasserstein", "params": {}})
        assert main(["--config", str(p), "--out", str(tmp_path)]) == 2

    def test_top_level_list_is_config_error(self, tmp_path):
        p = tmp_path / "list.json"
        p.write_text("[]")
        assert main(["--config", str(p)]) == 2

    def test_non_integer_seed_is_config_error(self, tmp_path):
        p = write_scenario(tmp_path, {"kind": "check", "seed": "abc"})
        assert main(["--config", str(p)]) == 2
        p = write_scenario(tmp_path, {"kind": "check", "seed": "3"})
        assert load_scenario(p).seed == 3
        p = write_scenario(tmp_path, {"kind": "check", "seed": 4.0})
        assert load_scenario(p).seed == 4
        for seed in (2.5, True):
            out = tmp_path / "out"
            p = write_scenario(tmp_path, {"kind": "check", "seed": seed})
            assert main(["--config", str(p), "--out", str(out)]) == 2
            assert not out.exists()

    def test_params_not_object_is_config_error(self, tmp_path):
        p = write_scenario(tmp_path, {"kind": "nucleus", "params": ["space", "eps"]})
        assert main(["--config", str(p)]) == 2

    def test_deform_clause_rejected(self, tmp_path, capsys):
        doc = {"kind": "birkhoff",
               "params": {"space": {"generator": "circle",
                                    "params": {"n": 8, "circumference": math.pi}},
                          "dynamics": {"kind": "rotation", "steps": 3,
                                       "deform": {"kind": "sine_pluck", "t": 0.3}},
                          "eps": 0.2, "n_max": 32, "nucleus_eps": 0.2}}
        p = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["--config", str(p), "--out", str(out)]) == 2
        assert "rotation-field" in capsys.readouterr().err
        assert not out.exists()

    def test_wrongly_typed_param_is_config_error(self, tmp_path, capsys):
        doc = {"kind": "birkhoff",
               "params": {"space": {"generator": "circle",
                                    "params": {"n": 8, "circumference": math.pi}},
                          "dynamics": {"kind": "rotation", "steps": 3},
                          "eps": 0.2, "n_max": "many"}}
        out = tmp_path / "out"
        assert main(["--config", str(write_scenario(tmp_path, doc)), "--out", str(out)]) == 2
        assert "'n_max'" in capsys.readouterr().err
        del doc["params"]["eps"]
        doc["params"]["n_max"] = 32
        assert main(["--config", str(write_scenario(tmp_path, doc)), "--out", str(out)]) == 2
        assert "missing required key 'eps'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scenario, key, value", [
        ("ldp", "n_values", ["x"]), ("ldp", "n_values", "48"), ("ldp", "maps", [5]),
        ("ldp", "maps", []),
        ("birkhoff", "dynamics", 5), ("rotation_field", "t_grid", "ab"),
        ("birkhoff", "n_max", 32.9), ("birkhoff", "n_max", True), ("birkhoff", "n_max", "32"),
        ("rotation_field", "net_size", 32.5), ("rotation_field", "theta", [1.5, 4]),
        ("ldp", "trials", 2.5), ("ldp", "n_values", [2.7, 4]),
        ("wave_field", "circle", "false"), ("wave_field", "circle", 1),
        ("wave_field", "n_points", 5.5), ("wave_field", "modes", ["x"]),
        ("wasserstein", "mu", "abc"), ("wasserstein", "nu", {"a": 1}),
        ("ldp", "nucleus_samples", 0), ("ldp", "nucleus_samples", -1),
        ("ldp", "nucleus_samples", 2.5),
        ("ldp", "trials", 0), ("ldp", "n_values", [4, 0]), ("birkhoff", "n_max", 0),
        ("birkhoff", "n_max", -1), ("rotation_field", "net_size", 0),
        ("rotation_field", "resolution", 0), ("wave_field", "n_points", 0),
        ("gap", "resolution", 0)])
    def test_wrongly_shaped_param_is_config_error(self, tmp_path, capsys, scenario, key, value):
        doc = scenario_doc(scenario)
        doc["params"][key] = value
        out = tmp_path / "out"
        assert main(["--config", str(write_scenario(tmp_path, doc)), "--out", str(out)]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("generator, params", [
        ("circle", {"n": 6.7, "circumference": 6.0}), ("circle", {"n": "six", "circumference": 6.0}),
        ("circle", {"n": "6", "circumference": 6.0}), ("interval", {"n": True, "length": 2.0}),
        ("interval", {"length": 2.0})])
    def test_space_generator_n_must_be_an_integer(self, tmp_path, capsys, generator, params):
        doc = {"kind": "nucleus", "params": {"space": {"generator": generator, "params": params},
                                             "eps": 0.5}}
        out = tmp_path / "out"
        assert main(["--config", str(write_scenario(tmp_path, doc)), "--out", str(out)]) == 2
        assert "'n'" in capsys.readouterr().err
        assert not out.exists()
        doc["params"]["space"]["params"]["n"] = 4.0
        assert main(["--config", str(write_scenario(tmp_path, doc)), "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["members"] > 0

    @pytest.mark.parametrize("space, key", [
        ({"generator": "torus", "params": {"n": 4, "circumference": 6.0}}, "generator"),
        ({"generator": "product",
          "params": {"left": {"generator": "interval", "params": {"n": 2, "length": 1.0}},
                     "right": {"generator": "interval", "params": {"n": 2, "length": 1.0}},
                     "combiner": "min"}}, "combiner"),
        ({"generator": "product", "params": [1]}, "left")])
    def test_malformed_space_document_is_config_error(self, tmp_path, capsys, space, key):
        doc = {"kind": "nucleus", "params": {"space": space, "eps": 0.5}}
        out = tmp_path / "out"
        assert main(["--config", str(write_scenario(tmp_path, doc)), "--out", str(out)]) == 2
        assert f"key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_float_is_an_integer(self, tmp_path):
        doc = scenario_doc("birkhoff")
        doc["params"]["n_max"] = 32.0
        out = tmp_path / "out"
        assert main(["--config", str(write_scenario(tmp_path, doc)), "--out", str(out)]) == 0
        n_max = json.loads((out / "report.json").read_text())["n_max"]
        assert n_max == 32 and isinstance(n_max, int)

    def test_threads_flag_is_unknown(self, tmp_path):
        p = write_scenario(tmp_path, {"kind": "wasserstein", "params": {}})
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(p), "--threads", "2"])
        assert exc.value.code == 2


class TestRun:
    def test_wasserstein_point_masses(self, tmp_path):
        doc = {"kind": "wasserstein",
               "params": {"space": {"generator": "interval",
                                    "params": {"n": 3, "length": 2.0}},
                          "mu": [1, 0, 0], "nu": [0, 0, 1]}}
        p = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["--config", str(p), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["w1"] == pytest.approx(2.0)
        assert report["version"]
        assert (out / "coupling.csv").exists()

    def test_check_scenario(self, tmp_path):
        p = write_scenario(tmp_path, {"kind": "check", "seed": 1})
        out = tmp_path / "out"
        assert main(["--config", str(p), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True

    def test_domain_error_exit_code(self, tmp_path):
        # rotation by 2 steps on a 4-point circle is not uniquely ergodic
        doc = {"kind": "birkhoff",
               "params": {"space": {"generator": "circle",
                                    "params": {"n": 4, "circumference": 6.28}},
                          "dynamics": {"kind": "rotation", "steps": 2},
                          "eps": 0.1, "n_max": 16}}
        p = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["--config", str(p), "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert "error" in report

    def test_nan_weight_is_domain_error(self, tmp_path):
        doc = {"kind": "wasserstein",
               "params": {"space": {"generator": "circle",
                                    "params": {"n": 4, "circumference": 2 * math.pi}},
                          "mu": [math.nan, 0.5, 0.5, 0], "nu": [0, 0, 0.5, 0.5]}}
        p = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["--config", str(p), "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert "not a number" in report["error"]

    def test_seed_flag_overrides_scenario_seed(self, tmp_path):
        doc = {"kind": "birkhoff", "seed": 2,
               "params": {"space": {"generator": "circle",
                                    "params": {"n": 8, "circumference": math.pi}},
                          "dynamics": {"kind": "rotation", "steps": 3},
                          "eps": 0.2, "n_max": 32, "nucleus_eps": 0.2}}
        p = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["--config", str(p), "--out", str(out), "--seed", "5"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["rate"] == 4
        assert report["seed"] == 5

    def test_analytic_map_not_uniquely_ergodic(self, tmp_path):
        doc = {"kind": "birkhoff",
               "params": {"space": {"generator": "circle",
                                    "params": {"n": 8, "circumference": math.pi}},
                          "dynamics": {"kind": "analytic", "family": "sine_pluck", "t": 0.3},
                          "eps": 0.2, "n_max": 32, "nucleus_eps": 0.2}}
        p = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["--config", str(p), "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert "not uniquely ergodic" in report["error"]

    def test_csv_reruns_byte_identical(self, tmp_path):
        doc = {"kind": "birkhoff", "seed": 9,
               "params": {"space": {"generator": "circle",
                                    "params": {"n": 4, "circumference": 6.28}},
                          "dynamics": {"kind": "rotation", "steps": 1},
                          "eps": 0.1, "n_max": 24}}
        p = write_scenario(tmp_path, doc)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["--config", str(p), "--out", str(out1), "--format", "json",
                     "--format", "csv", "--format", "svg"]) == 0
        assert main(["--config", str(p), "--out", str(out2), "--format", "json",
                     "--format", "csv", "--format", "svg"]) == 0
        assert (out1 / "deviation.csv").read_bytes() == (out2 / "deviation.csv").read_bytes()
        assert (out1 / "deviation.svg").read_bytes() == (out2 / "deviation.svg").read_bytes()

    def test_rotation_field_tables(self, tmp_path):
        doc = {"kind": "rotation-field",
               "params": {"theta": [1, 4], "t_grid": [-0.5, -0.25, 0.0, 0.25, 0.5],
                          "net_size": 16, "resolution": 1}}
        p = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["--config", str(p), "--out", str(out)]) == 0
        rows = (out / "dhat.csv").read_text().strip().split("\n")
        assert len(rows) == 6                       # header + 5 rows
        header = rows[0].split(",")
        assert len(header) == 6
        table = [[float(v) for v in r.split(",")[1:]] for r in rows[1:]]
        for i in range(5):
            assert table[i][i] == 0.0
            for j in range(5):
                assert table[i][j] == pytest.approx(table[j][i])

    def test_rotation_field_resolution_below_one(self, tmp_path, capsys):
        doc = {"kind": "rotation-field",
               "params": {"theta": [1, 4], "t_grid": [-0.5, 0.5],
                          "net_size": 16, "resolution": 0}}
        p = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["--config", str(p), "--out", str(out)]) == 2
        assert "'resolution'" in capsys.readouterr().err
        assert not out.exists()

    def test_ldp_scenario_with_plot(self, tmp_path):
        doc = {"kind": "ldp", "seed": 3,
               "params": {"space": {"generator": "interval",
                                    "params": {"n": 8, "length": 1.0}},
                          "maps": [{"kind": "table", "map": [0, 0, 1, 1, 2, 2, 3, 3]},
                                   {"kind": "table", "map": [4, 4, 5, 5, 6, 6, 7, 7]}],
                          "eps": 0.2, "n_values": [2, 4, 8, 16], "trials": 120,
                          "nucleus_samples": 32}}
        p = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["--config", str(p), "--out", str(out), "--format", "json",
                     "--format", "csv", "--format", "svg"]) == 0
        svg = (out / "ldp.svg").read_text()
        assert "c1=" in svg and "c2=" in svg
        report = json.loads((out / "report.json").read_text())
        assert len(report["probabilities"]) == 4

    def test_gh_scenario(self, tmp_path):
        doc = {"kind": "gh",
               "params": {"space_x": {"dist": [[0, 1], [1, 0]]},
                          "space_y": {"dist": [[0, 3], [3, 0]]}}}
        p = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["--config", str(p), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["gh"] == pytest.approx(1.0)
        assert report["bound"] == "exact"

    def test_nucleus_scenario(self, tmp_path):
        doc = {"kind": "nucleus",
               "params": {"space": {"generator": "interval",
                                    "params": {"n": 3, "length": 1.0}},
                          "eps": 0.4}}
        p = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["--config", str(p), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["members"] > 0
        lines = (out / "nucleus.csv").read_text().strip().split("\n")
        assert lines[0] == "0,1,2"
        assert len(lines) == report["members"] + 1

    def test_product_space_nucleus_csv(self, tmp_path):
        interval = {"generator": "interval", "params": {"n": 2, "length": 1.0}}
        doc = {"kind": "nucleus",
               "params": {"space": {"generator": "product",
                                    "params": {"left": interval, "right": interval}},
                          "eps": 0.4}}
        p = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["--config", str(p), "--out", str(out)]) == 0
        with (out / "nucleus.csv").open(newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["('0', '0')", "('0', '1')", "('1', '0')", "('1', '1')"]
        assert rows and all(len(row) == 4 for row in rows)

    def test_product_space_potential_rows_read_as_two_fields(self, tmp_path):
        interval = {"generator": "interval", "params": {"n": 2, "length": 1.0}}
        doc = {"kind": "wasserstein",
               "params": {"space": {"generator": "product",
                                    "params": {"left": interval, "right": interval}},
                          "mu": [1, 0, 0, 0], "nu": [0, 0, 0, 1]}}
        out = tmp_path / "out"
        assert main(["--config", str(write_scenario(tmp_path, doc)), "--out", str(out)]) == 0
        with (out / "potential.csv").open(newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["point", "value"]
        labels = [(a, b) for a in ("0", "1") for b in ("0", "1")]
        assert [row[0] for row in rows] == [str(label) for label in labels]
        assert all(len(row) == 2 and math.isfinite(float(row[1])) for row in rows)

    def test_complete_nucleus_bytes(self, tmp_path):
        # the recipe of perfbench/scenarios/nucleus.json: a complete 34 790-member nucleus
        doc = {"kind": "nucleus", "seed": 0,
               "params": {"space": {"generator": "circle",
                                    "params": {"n": 6, "circumference": 2.0}},
                          "eps": 0.3}}
        out = tmp_path / "out"
        assert main(["--config", str(write_scenario(tmp_path, doc)), "--out", str(out)]) == 0
        data = (out / "nucleus.csv").read_bytes()
        assert data.count(b"\n") == 34_791
        assert hashlib.sha256(data).hexdigest() == (
            "468af5caddc920774041e53b914aebf8ab43b6f52b85af96749db212f863ec6f")

    @pytest.mark.parametrize("source", SHIPPED_SOURCE_NAMES)
    def test_shipped_artifact_bytes(self, source, tmp_path):
        assert source in SHIPPED_SOURCES, f"{source!r} is pinned but nothing ships it"
        out = tmp_path / source
        res = run_shipped(SHIPPED_SOURCES[source], out)
        assert res.returncode == 0, res.stderr
        written = {f"{source}/{p.relative_to(out).as_posix()}":
                   hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out.rglob("*") if p.is_file()}
        pinned = {k: v for k, v in SHIPPED_ARTIFACTS.items() if k.split("/")[0] == source}
        assert written == pinned

    def test_wave_field_scenario(self, tmp_path):
        doc = {"kind": "wave-field",
               "params": {"modes": [0.3], "t_grid": [0.0, 0.5, 1.0],
                          "n_points": 7, "circle": True}}
        p = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["--config", str(p), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["m"]) == 3
        assert report["points"] == 6      # the glued ends are one point
        assert (out / "fibre_0.csv").exists()
        assert (out / "envelope.csv").exists()

    def test_wave_field_rates_need_a_rotation_step(self, tmp_path):
        # three string points glue into a 2-point circle: no step k > 1 is prime to 2
        doc = {"kind": "wave-field",
               "params": {"modes": [0.3], "t_grid": [0.0, 0.5], "n_points": 3,
                          "circle": True, "birkhoff_eps": 0.15}}
        out = tmp_path / "out"
        assert main(["--config", str(write_scenario(tmp_path, doc)), "--out", str(out)]) == 1
        assert "rotation step" in json.loads((out / "report.json").read_text())["error"]

    def test_gap_scenario_report_schema(self, tmp_path):
        doc = {"kind": "gap",
               "params": {"space_x": {"generator": "interval",
                                      "params": {"n": 3, "length": 1.0}},
                          "space_y": {"generator": "interval",
                                      "params": {"n": 3, "length": 1.2}},
                          "resolution": 2}}
        p = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["--config", str(p), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        for key in ("gamma", "fukaya", "dq_upper", "flags", "witness"):
            assert key in report
        assert report["fukaya"] <= report["gamma"] + 1e-9

    def test_gap_scenario_of_an_isometric_copy(self, tmp_path):
        circle = {"generator": "circle", "params": {"n": 4, "circumference": 2 * math.pi}}
        doc = {"kind": "gap", "params": {"space_x": circle, "space_y": circle, "resolution": 2}}
        out = tmp_path / "out"
        assert main(["--config", str(write_scenario(tmp_path, doc)), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["gamma"] == report["fukaya"] == 0.0
        assert 0 < report["dq_upper"] <= metriclab.TOL.bridge_delta_floor


class TestSvg:
    def test_single_point(self):
        svg = emit_plot([(1.0, 2.0)], "line", "t")
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_byte_stability(self):
        curve = [(i, math.exp(-0.3 * i)) for i in range(1, 9)]
        a = emit_plot(curve, "semilog", "decay", legend="c1=1 c2=0.3")
        b = emit_plot(curve, "semilog", "decay", legend="c1=1 c2=0.3")
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(Exception):
            emit_plot([], "line")


CSV_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 0.1 + 0.2,
              123456789012.5, -1e-14, 1 / 3, 2.0 ** 60, 1e-300, -7.25e22]


def assert_block_writer_matches_cell_writer(tmp_path, x):
    header = [f"p{k}" for k in range(x.shape[1])]
    _write_csv(tmp_path / "block.csv", header, x)
    _write_csv(tmp_path / "cell.csv", header, x.tolist())
    block = (tmp_path / "block.csv").read_bytes()
    assert block == (tmp_path / "cell.csv").read_bytes()
    assert block.count(b"\n") == len(x) + 1


@pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097, 8193])
def test_float_array_csv_matches_cell_writer(tmp_path, rows):
    rng = np.random.default_rng(rows)
    cols = 5
    x = rng.standard_normal(rows * cols) * 10.0 ** rng.integers(-20, 20, rows * cols)
    x[:len(CSV_FLOATS)] = CSV_FLOATS[:len(x)]
    assert_block_writer_matches_cell_writer(tmp_path, x.reshape(rows, cols))


def test_bit_patterns_match_numpy_unique():
    x = np.array(CSV_FLOATS * 3).reshape(6, 7)
    bits = x.view(np.uint64)
    got, codes = _ranks(bits)
    assert got.dtype == np.uint64 and np.array_equal(got, np.unique(bits))
    assert len(got) == len(CSV_FLOATS)          # -0.0 and 0.0 are two patterns
    assert codes.shape == bits.shape and np.array_equal(got[codes], bits)
    assert _ranks(np.empty((0, 6)).view(np.uint64))[0].shape == (0,)


def repeated_float_arrays():
    rng = np.random.default_rng(22)
    # nucleus-like: few distinct values, rounded to 12 decimals, over many rows
    grid = np.round(np.concatenate([np.linspace(-0.5, 0.5, 15), [-5 / 14, 1 / 3]]), 12)
    nucleus = rng.choice(grid, size=(9000, 6))
    zeros = rng.choice([0.5, 0.0, -0.0, -1e-300], size=(300, 3))
    zeros[:, 1] = rng.choice([0.0, -0.0], size=300)
    payload_nans = np.array([0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000003],
                            dtype=np.uint64).view(np.float64)
    special = rng.choice(np.concatenate([[math.nan, math.inf, -math.inf, 0.0, -0.0, 2.5],
                                         payload_nans]), size=(500, 4))
    return {"nucleus": nucleus, "signed-zeros": zeros, "nonfinite": special,
            "one-column": rng.choice(grid, size=(5000, 1)), "zero-rows": np.empty((0, 6)),
            "zero-rows-one-column": np.empty((0, 1)), "no-columns": np.empty((3, 0))}


@pytest.mark.parametrize("name", list(repeated_float_arrays()))
def test_float_array_csv_matches_cell_writer_on_repeated_values(tmp_path, name):
    assert_block_writer_matches_cell_writer(tmp_path, repeated_float_arrays()[name])


class TestSelfCheck:
    def test_all_pass(self):
        results = run_checks(seed=0)
        assert results and all(r.ok for r in results)
        maxima = [r.detail for r in results if r.detail.startswith("max ")]
        assert len(maxima) == 4 and all(d.endswith(" <= 1e-12") for d in maxima)

    def test_max_details_print_rounding_noise_as_the_floor(self):
        assert _max_detail("gap", 4.44e-16) == "max gap <= 1e-12"
        assert _max_detail("gap", 1e-12) == "max gap <= 1e-12"
        assert _max_detail("excess", 2.5e-12) == "max excess 2.50e-12"
        assert _max_detail("excess", math.nan) == "max excess nan"


NO_SCIPY_PROGRAM = """
import sys
import numpy as np
from metriclab import (MarkovKernel, interval_net, point_mass, stationary_measures,
                       uniform_measure, wasserstein1_dual)
from metriclab.cli import main
X = interval_net(3, 1.0)
wasserstein1_dual(point_mass(X, 0), uniform_measure(X))
stationary_measures(MarkovKernel(X, np.full((3, 3), 1 / 3)))
assert main(["--config", sys.argv[1], "--out", sys.argv[2]]) == 0
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_runtime_loads_no_scipy(tmp_path):
    # a fresh interpreter: this test process has SciPy loaded for the oracles
    scenario = SCENARIOS / "wasserstein.json"
    res = subprocess.run([sys.executable, "-c", NO_SCIPY_PROGRAM, str(scenario), str(tmp_path)],
                         env=subprocess_env(), capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"
