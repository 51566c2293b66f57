import ast
import builtins
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import decaylab as dl
from conftest import strict_json
from decaylab import cli
from decaylab.cli import COMMANDS, SCHEMA, _build_parser, _write_csv, main
from decaylab.config import parse_config_text
from decaylab.errors import ValidationError
from decaylab.spectral import MODEL_TYPES

LORENTZIAN_CONFIG = """\
# closed-form reference model
model.type = lorentzian
model.A2 = 0.1
model.a = 0.0
model.b = 1.0
system.omega0 = 0.0
survival.method = closed
survival.tmax = 5.0
survival.nt = 51
"""

# a flat band of weight 10 binned 400 times: the oracle recurs at t = 4 pi
ORACLE_BOX_CONFIG = ("model.type = box\nmodel.A2 = 0.05\nmodel.L = 100\n"
                     "system.omega0 = 0.0\nsurvival.n_bins = 400\n"
                     "survival.tmax = 5.0\nsurvival.nt = 21\n")
# bound on the rms deviation of the oracle from the inversion on ORACLE_BOX_CONFIG,
# where it measures 2.7e-7
ORACLE_AGREEMENT = 1e-5

# a level below the threshold mu = 1
BELOW_THRESHOLD_CONFIG = ("model.type = thresholdpower\nmodel.beta_th = 0.01\n"
                          "model.alpha = 0.5\nmodel.mu = 1.0\nmodel.Lambda = 50.0\n"
                          "system.omega0 = 0.0\nsurvival.tmax = 10.0\nsurvival.nt = 11\n")

# a level inside a threshold band, which decays through a resonance
THRESHOLD_CONFIG = ("model.type = thresholdpower\nmodel.beta_th = 0.01\n"
                    "model.alpha = 0.5\nmodel.mu = 0.0\nmodel.Lambda = 20.0\n"
                    "system.omega0 = 5.0\nsurvival.tmax = 10.0\nsurvival.nt = 11\n")


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


class TestConfigParsing:
    def test_values_and_sections(self):
        cfg = parse_config_text("a.x = 1\na.y = 2.5\nb.flag = true\nb.name = box\n")
        assert cfg["a"]["x"] == 1 and isinstance(cfg["a"]["x"], int)
        assert cfg["a"]["y"] == 2.5
        assert cfg["b"]["flag"] == "true"
        assert cfg["b"]["name"] == "box"

    def test_word_values_stay_as_written(self, tmp_path, monkeypatch):
        # `true` is a directory name like any other, not a recapitalised boolean
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, "model.type = box\nmodel.A2 = 0.05\nmodel.L = 1\n"
                                     "spectral.n = 3\noutput.dir = true\n")
        assert main(["spectral", "-c", str(cfg)]) == 0
        assert (tmp_path / "true" / "spectral.csv").is_file()
        assert not (tmp_path / "True").exists()

    def test_comments_and_blanks(self):
        cfg = parse_config_text("# comment\n\nmodel.type = box\n")
        assert cfg == {"model": {"type": "box"}}

    def test_quoted_strings(self):
        cfg = parse_config_text("a.path = 'some file.csv'\n")
        assert cfg["a"]["path"] == "some file.csv"

    def test_missing_equals_reports_line(self):
        with pytest.raises(ValidationError, match="line 2"):
            parse_config_text("a.x = 1\nbogus line\n")

    def test_missing_section_prefix(self):
        with pytest.raises(ValidationError, match="section"):
            parse_config_text("x = 1\n")

    def test_duplicated_key_names_both_lines(self):
        # the same key path, however spaced, set twice is refused, not overwritten
        with pytest.raises(ValidationError, match="line 4: a.x is already set on line 1"):
            parse_config_text("a.x = 1\na.y = 2\n\na . x = 3\n")
        assert parse_config_text("a.x = 1\nb.x = 2\n") == {"a": {"x": 1}, "b": {"x": 2}}


class TestSurvivalCommand:
    def test_closed_form_initial_row(self, tmp_path):
        cfg = write_config(tmp_path, LORENTZIAN_CONFIG)
        out = tmp_path / "run"
        assert main(["survival", "-c", str(cfg), "--out", str(out)]) == 0
        header = (out / "survival.csv").read_text().splitlines()[0]
        assert header == "t,re_A,im_A,abs2_A,re_pole,im_pole,re_cut,im_cut"
        data = read_csv(out / "survival.csv")
        assert data["t"][0] == 0.0
        assert data["re_A"][0] == pytest.approx(1.0, abs=1e-12)
        assert data["im_A"][0] == pytest.approx(0.0, abs=1e-12)

    def test_compare_numeric_vs_closed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, LORENTZIAN_CONFIG)
        out1 = tmp_path / "closed"
        out2 = tmp_path / "numeric"
        assert main(["survival", "-c", str(cfg), "--out", str(out1)]) == 0
        assert main(["survival", "-c", str(cfg), "--out", str(out2),
                     "--method", "numeric"]) == 0
        capsys.readouterr()
        assert main(["compare", str(out1 / "survival.csv"),
                     str(out2 / "survival.csv")]) == 0
        report = capsys.readouterr().out
        rms = float(report.splitlines()[0].split("=")[1])
        assert rms < 1e-6

    def test_numeric_defaults_recorded_in_manifest(self, tmp_path):
        cfg = write_config(tmp_path, LORENTZIAN_CONFIG)
        out = tmp_path / "run"
        assert main(["survival", "-c", str(cfg), "--out", str(out),
                     "--method", "numeric"]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        survival = manifest["config"]["survival"]
        for key in ("omega_max", "n_points", "tmax", "nt", "method"):
            assert key in survival
        # the contour height is derived, ln(1e-12 / (10 eps)) / t_max, and recorded as such
        assert survival["contour_offset"] == math.log(1e-12 / (10.0 * np.finfo(float).eps)) / 5.0
        assert manifest["config"]["model"]["a"] == 0.0
        # the contour is one stretch, and its node tables split it with stride ceil(sqrt(n))
        assert manifest["results"]["phase_stride"] == math.ceil(math.sqrt(survival["n_points"]))
        assert manifest["results"]["alias_bound"] < 1e-11
        # the default omega_max is set by the 1e-8 truncated-tail target of the
        # first term left out of the K = 6 subtracted about z0 = omega0 - i Gamma
        assert manifest["results"]["tail_estimate"] == pytest.approx(1e-8)
        # the node sum's rounding, amplified by exp(offset t_max), stated beside them
        assert 0.0 < manifest["results"]["rounding_bound"] < 1e-13
        again = tmp_path / "again"
        assert main(["survival", "-c", str(cfg), "--out", str(again),
                     "--method", "numeric"]) == 0
        for path in out.iterdir():
            assert (again / path.name).read_bytes() == path.read_bytes(), path.name
        assert manifest["results"]["expansion_terms"] == 6
        z0 = manifest["results"]["expansion_point"]
        assert z0[0] == 0.0 and z0[1] < -1.0

    def test_readme_example_runs_as_written(self, tmp_path, monkeypatch, capsys):
        # the README's decay.cfg and its `decaylab` lines, run as written; the
        # last, inversion against the oracle, prints the rms the README quotes
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```\w*\n(.*?)```", readme, re.S)
        (tmp_path / "decay.cfg").write_text(next(b for b in blocks
                                                 if b.startswith("# decay.cfg\n")))
        commands = [line.split()[1:] for block in blocks for line in block.splitlines()
                    if line.startswith("decaylab ")]
        assert [argv[0] for argv in commands] == ["survival", "survival", "compare",
                                                  "survival", "compare"]
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            capsys.readouterr()
            assert main(argv) == 0, argv
        assert commands[-1][2] == "out/oracle/survival.csv"
        rms = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
        quoted = float(re.search(r"rms deviation of\s+(\d\.\de-\d+)", readme).group(1))
        assert rms == pytest.approx(quoted, abs=0.1e-7)

    def test_closed_form_unavailable(self, tmp_path):
        text = ("model.type = thresholdpower\nmodel.beta_th = 0.01\n"
                "model.alpha = 0.5\nmodel.mu = 0.0\nmodel.Lambda = 20.0\n"
                "system.omega0 = 5.0\nsurvival.method = closed\n")
        cfg = write_config(tmp_path, text)
        assert main(["survival", "-c", str(cfg), "--out", str(tmp_path / "x")]) == 2

    def test_pole_cut_method(self, tmp_path):
        cfg = write_config(tmp_path, THRESHOLD_CONFIG + "survival.method = pole-cut\n")
        out = tmp_path / "run"
        assert main(["survival", "-c", str(cfg), "--out", str(out)]) == 0
        data = read_csv(out / "survival.csv")
        # decomposition columns populated and consistent with the total
        total = data["re_pole"] + data["re_cut"]
        np.testing.assert_allclose(total, data["re_A"], atol=1e-12)
        assert data["abs2_A"][0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("text", [THRESHOLD_CONFIG, BELOW_THRESHOLD_CONFIG],
                             ids=["resonance", "bound state"])
    def test_pole_cut_records_its_pole(self, tmp_path, text):
        # the manifest names the zero of g that was summed, as `poles` finds it
        cfg = write_config(tmp_path, text)
        assert main(["survival", "-c", str(cfg), "--method", "pole-cut",
                     "--out", str(tmp_path / "survival")]) == 0
        assert main(["poles", "-c", str(cfg), "--out", str(tmp_path / "poles")]) == 0
        results = json.loads((tmp_path / "survival" / "run_manifest.json").read_text())["results"]
        pole = read_csv(tmp_path / "poles" / "poles.csv")
        assert results == {"pole": [pole["omega_prime"], pole["omega_dprime"]],
                           "residue": [pole["residue_re"], pole["residue_im"]],
                           "iterations": pole["iterations"], "residual": pole["residual"]}


class TestOtherCommands:
    def test_spectral(self, tmp_path):
        cfg = write_config(tmp_path, "model.type = box\nmodel.A2 = 0.05\nmodel.L = 100\n")
        out = tmp_path / "run"
        assert main(["spectral", "-c", str(cfg), "--out", str(out)]) == 0
        data = read_csv(out / "spectral.csv")
        inside = np.abs(data["epsilon"]) < 100
        assert np.all(data["D"][inside] == 0.05)

    def test_selfenergy(self, tmp_path):
        # Sigma shares spectral.csv's energies: Im Sigma(eps + i0) = -pi D(eps)
        cfg = write_config(tmp_path, LORENTZIAN_CONFIG)
        out = tmp_path / "run"
        assert main(["spectral", "-c", str(cfg), "--out", str(out)]) == 0
        header = (out / "spectral.csv").read_text().splitlines()[0]
        assert header == "epsilon,D,re_sigma,im_sigma"
        data = read_csv(out / "spectral.csv")
        assert np.all(data["im_sigma"][np.isfinite(data["im_sigma"])] <= 1e-12)
        np.testing.assert_allclose(data["im_sigma"], -np.pi * data["D"], rtol=1e-14, atol=0)

    def test_manifest_writes_non_finite_values_as_strings(self, tmp_path):
        # the Lorentzian's support is the whole axis
        cfg = write_config(tmp_path, LORENTZIAN_CONFIG)
        out = tmp_path / "run"
        assert main(["spectral", "-c", str(cfg), "--out", str(out)]) == 0
        manifest = strict_json((out / "run_manifest.json").read_text())
        assert manifest["config"]["spectral"]["support"] == ["-inf", "inf"]
        assert cli._strict_json({"a": (np.nan, [1.5, -np.inf])}) == {"a": ["nan", [1.5, "-inf"]]}

    def test_abs2_columns_are_the_library_squares(self, tmp_path, monkeypatch):
        # every abs2_* column is np.abs(z) ** 2 of the library's array, bit for bit
        made = {}
        for name in ("survival_lorentzian", "evolve_packet"):
            def keep(*args, _name=name, _call=getattr(cli, name), **kwargs):
                made[_name] = _call(*args, **kwargs)
                return made[_name]
            monkeypatch.setattr(cli, name, keep)
        cfg = write_config(tmp_path, LORENTZIAN_CONFIG)
        assert main(["survival", "-c", str(cfg), "--out", str(tmp_path / "survival")]) == 0
        cfg = write_config(tmp_path, PACKET_CONFIG + "packet.basis = plane_wave\n", "packet.cfg")
        assert main(["packet", "-c", str(cfg), "--out", str(tmp_path / "packet")]) == 0
        data = read_csv(tmp_path / "survival" / "survival.csv")
        np.testing.assert_array_equal(data["abs2_A"], made["survival_lorentzian"].probability())
        packet = made["evolve_packet"]
        data = read_csv(tmp_path / "packet" / "packet_coeff.csv")
        np.testing.assert_array_equal(data["abs2_c"], np.abs(packet.coeffs).ravel() ** 2)
        data = read_csv(tmp_path / "packet" / "packet_psi.csv")
        np.testing.assert_array_equal(data["abs2_psi"], np.abs(packet.psi).ravel() ** 2)

    def test_selfenergy_on_band_edges(self, tmp_path):
        # the grid lands exactly on the edges +-L, where the boundary value diverges
        text = ("model.type = box\nmodel.A2 = 0.05\nmodel.L = 2\n"
                "spectral.eps_min = -4\nspectral.eps_max = 4\nspectral.n = 9\n")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "run"
        assert main(["spectral", "-c", str(cfg), "--out", str(out)]) == 0
        data = read_csv(out / "spectral.csv")
        edge = np.abs(data["epsilon"]) == 2.0
        assert edge.sum() == 2
        assert np.all(np.isnan(data["re_sigma"][edge]) & np.isnan(data["im_sigma"][edge]))
        se = dl.SelfEnergy(dl.Box(amplitude_sq=0.05, half_width=2.0))
        expected = [se.sigma_upper(w) for w in data["epsilon"][~edge]]
        np.testing.assert_allclose(data["re_sigma"][~edge] + 1j * data["im_sigma"][~edge],
                                   expected, rtol=1e-13, atol=0)

    def test_poles(self, tmp_path):
        cfg = write_config(tmp_path, LORENTZIAN_CONFIG)
        out = tmp_path / "run"
        assert main(["poles", "-c", str(cfg), "--out", str(out)]) == 0
        data = read_csv(out / "poles.csv")
        lp = dl.lorentzian_poles(0.1, 0.0, 1.0, 0.0)
        found = complex(float(data["omega_prime"]), -float(data["omega_dprime"]))
        assert min(abs(found - lp.omega_plus), abs(found - lp.omega_minus)) < 1e-9

    def test_poles_below_the_threshold(self, tmp_path):
        # a level below mu has a real bound state, whose residue is the weight Z
        cfg = write_config(tmp_path, BELOW_THRESHOLD_CONFIG)
        out = tmp_path / "run"
        assert main(["poles", "-c", str(cfg), "--out", str(out)]) == 0
        data = read_csv(out / "poles.csv")
        assert data["omega_dprime"] == 0.0
        se = dl.SelfEnergy(dl.ThresholdPower(0.01, 0.5, 1.0, 50.0))
        renorm = se.renormalize_below_threshold(0.0)
        assert data["residue_re"] == pytest.approx(renorm.Z, rel=1e-12)
        assert data["omega_prime"] == pytest.approx(renorm.omega_tilde, rel=1e-12)
        assert main(["survival", "-c", str(cfg), "--method", "pole-cut",
                     "--out", str(tmp_path / "pole-cut")]) == 0
        survival = read_csv(tmp_path / "pole-cut" / "survival.csv")
        assert survival["re_A"][0] == pytest.approx(1.0, abs=1e-12)
        assert survival["im_A"][0] == pytest.approx(0.0, abs=1e-12)

    def test_poles_without_a_resonance_exit_3(self, tmp_path, capsys):
        text = ("model.type = thresholdpower\nmodel.beta_th = 1.0\nmodel.alpha = 0.5\n"
                "model.mu = 0.0\nmodel.Lambda = 20.0\nsystem.omega0 = 5.0\n")
        cfg = write_config(tmp_path, text)
        assert main(["poles", "-c", str(cfg), "--out", str(tmp_path / "run")]) == 3
        assert "outside the support" in capsys.readouterr().err

    def test_oracle_survival(self, tmp_path):
        cfg = write_config(tmp_path, ORACLE_BOX_CONFIG)
        out = tmp_path / "run"
        assert main(["survival", "-c", str(cfg), "--out", str(out), "--method", "oracle"]) == 0
        data = read_csv(out / "survival.csv")
        assert data["abs2_A"][0] == pytest.approx(1.0, abs=1e-12)
        gamma = 2 * np.pi * 0.05
        expected = np.exp(-gamma * data["t"])
        assert np.max(np.abs(data["abs2_A"] - expected)) < 0.05
        manifest = json.loads((out / "run_manifest.json").read_text())
        survival = manifest["config"]["survival"]
        assert survival["recurrence_time"] == pytest.approx(2 * np.pi / (200 / 400))
        series, _ = dl.survival_exact_discrete(
            dl.build_discrete(dl.Box(amplitude_sq=0.05, half_width=100.0), 0.0, 400),
            np.linspace(0.0, 5.0, 21))
        assert manifest["results"] == {key: series.info[key] for key in
                                       ("secular_sweeps", "weight_defect", "phase_stride",
                                        "tree_levels")}
        again = tmp_path / "again"
        assert main(["survival", "-c", str(cfg), "--out", str(again), "--method", "oracle"]) == 0
        for name in ("survival.csv", "run_manifest.json"):
            assert (again / name).read_bytes() == (out / name).read_bytes()

    def test_oracle_agrees_with_numeric(self, tmp_path, capsys):
        # the same box, grid and file layout by two routes, checked by `compare`
        cfg = write_config(tmp_path, ORACLE_BOX_CONFIG)
        for method in ("oracle", "numeric"):
            assert main(["survival", "-c", str(cfg), "--out", str(tmp_path / method),
                         "--method", method]) == 0
        capsys.readouterr()
        assert main(["compare", str(tmp_path / "oracle" / "survival.csv"),
                     str(tmp_path / "numeric" / "survival.csv")]) == 0
        report = capsys.readouterr().out
        rms, largest = (float(line.split("=")[1]) for line in report.splitlines())
        assert rms < ORACLE_AGREEMENT and largest < 2 * ORACLE_AGREEMENT

    def test_verify_partition(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["verify-partition", "--out", str(out)]) == 0
        data = read_csv(out / "verify_partition.csv")
        assert np.all(data["max_deviation"] < 1e-10)
        assert "g_p" in capsys.readouterr().out

    def test_packet(self, tmp_path):
        text = ("model.type = box\nmodel.A2 = 0.05\nmodel.L = 100\n"
                "system.omega0 = 0.0\npacket.nt = 3\npacket.n_eps = 501\n")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "run"
        assert main(["packet", "-c", str(cfg), "--out", str(out)]) == 0
        data = read_csv(out / "packet_coeff.csv")
        first_time = data["t"] == 0.0
        assert np.all(data["abs2_c"][first_time] == 0.0)
        # the rate is derived, the golden rule's 2 pi D(omega0), and recorded as such
        packet = json.loads((out / "run_manifest.json").read_text())["config"]["packet"]
        assert packet["gamma"] == 2 * np.pi * 0.05

    @pytest.mark.parametrize("basis, slope", [("plane_wave", ""),
                                              ("linear_slope_airy", "packet.beta_slope = 3.0\n")])
    def test_packet_in_space(self, tmp_path, basis, slope):
        cfg = write_config(tmp_path, PACKET_CONFIG + f"packet.basis = {basis}\n" + slope)
        out = tmp_path / "run"
        assert main(["packet", "-c", str(cfg), "--out", str(out)]) == 0
        header = (out / "packet_psi.csv").read_text().splitlines()[0]
        assert header == "t,x,re_psi,im_psi,abs2_psi"
        data = read_csv(out / "packet_psi.csv")
        np.testing.assert_allclose(data["abs2_psi"], data["re_psi"]**2 + data["im_psi"]**2,
                                   rtol=1e-15, atol=0)
        # the last time's rows are the packet synthesized on the same grids
        block = json.loads((out / "run_manifest.json").read_text())["config"]["packet"]
        model = dl.Box(amplitude_sq=0.05, half_width=100.0)
        eps = dl.default_energy_grid(50.0, block["gamma"], n=51, span=40.0)
        coeffs = dl.packet_coefficients(lambda e: np.sqrt(model.density(e)), 50.0,
                                        block["gamma"], eps, block["tmax"])
        x = np.linspace(-100.0, 300.0, 64)
        psi = dl.synthesize_packet(eps, coeffs, x, basis, block["beta_slope"])
        last = data["t"] == block["tmax"]
        np.testing.assert_array_equal(data["x"][last], x)
        np.testing.assert_allclose(data["re_psi"][last] + 1j * data["im_psi"][last], psi,
                                   rtol=0, atol=1e-13 * np.max(np.abs(psi)))

    def test_twosurface(self, tmp_path):
        text = ("twosurface.n_x = 1024\ntwosurface.dt = 0.001\n"
                "twosurface.t_max = 8.0\ntwosurface.x_max = 40.0\n"
                "twosurface.snapshot_stride = 1000\n")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "run"
        assert main(["twosurface", "-c", str(cfg), "--out", str(out)]) == 0
        header = (out / "summary.csv").read_text().splitlines()[0]
        assert header == "fitted_rate,golden_rule_rate,trapped_fraction,absorbed_total"
        summary = read_csv(out / "summary.csv")
        assert summary["fitted_rate"] == pytest.approx(float(summary["golden_rule_rate"]),
                                                       rel=0.3)
        p1 = read_csv(out / "p1.csv")
        assert p1["P1"][0] == pytest.approx(1.0, abs=1e-9)
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["results"]["r_squared"] > 0.99


# Every section, with model.a left out; each subcommand reads its own sections.
EVERY_SECTION_CONFIG = """\
model.type = lorentzian
model.A2 = 0.1
model.b = 1.0
spectral.n = 11
survival.method = closed
survival.tmax = 1.0
survival.nt = 3
survival.n_bins = 50
survival.window_lo = -20.0
survival.window_hi = 20.0
verify.n = 10
verify.n_omega = 2
packet.nt = 2
packet.n_eps = 51
twosurface.t_max = 3.0
twosurface.dt = 0.005
twosurface.n_x = 256
"""


class TestManifest:
    @pytest.mark.parametrize("subcommand", sorted(COMMANDS))
    def test_every_schema_key_recorded(self, tmp_path, subcommand):
        cfg = write_config(tmp_path, EVERY_SECTION_CONFIG)
        out = tmp_path / "run"
        assert main([subcommand, "-c", str(cfg), "--out", str(out)]) == 0
        recorded = json.loads((out / "run_manifest.json").read_text())["config"]
        assert set(recorded) == set(COMMANDS[subcommand].sections)
        for section, block in recorded.items():
            keys = SCHEMA[section]
            assert set(keys(block) if callable(keys) else keys) <= set(block)
        if "model" in recorded:
            assert recorded["model"]["a"] == 0.0
        if "packet" in recorded:
            assert recorded["packet"]["n_x"] == 2048

    def test_readme_names_only_schema_keys(self):
        # every `section.key` of a config section in the README is a key of
        # it; the model's keys are those of every model type
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        model_keys = {"type", *(key for _, keys in MODEL_TYPES.values() for key in keys)}
        valid = {name: model_keys if callable(keys) else set(keys)
                 for name, keys in SCHEMA.items()}
        tokens = re.findall(r"(?<![\w.])([A-Za-z_]\w*)\.(\w+)", readme)
        named = [(section, key) for section, key in tokens
                 if section in valid and key not in ("csv", "json", "cfg")]
        assert named, "the README names no config key"
        assert [f"{s}.{k}" for s, k in named if k not in valid[s]] == []

    def test_readme_table_rows_have_the_header_cell_count(self):
        # GitHub's tables split a row at every `|` not written `\|`, inside
        # code spans too, so a stray one adds a cell
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        tables, fenced, in_table = [], False, False
        for line in readme.splitlines():
            fenced ^= line.startswith("```")
            row = not fenced and line.startswith("|")
            if row and not in_table:
                tables.append([])
            if row:
                tables[-1].append(line)
            in_table = row
        assert tables, "the README has no table"
        for table in tables:
            pipes = [len(re.findall(r"(?<!\\)\|", row)) for row in table]
            assert [row for row, n in zip(table, pipes) if n != pipes[0]] == []


# a triangle density on [0, 2], sampled at its kink
TABLE = Path(__file__).resolve().parent / "triangle_table.csv"
NOTCH_TABLE = TABLE.with_name("notch_table.csv")  # D = 0 at epsilon = 1 only
ONE_COLUMN_TABLE = TABLE.with_name("one_column_table.csv")  # epsilon and no D

# A packet whose energy window stays above zero, where plane waves exist.
PACKET_CONFIG = ("model.type = box\nmodel.A2 = 0.05\nmodel.L = 100\nsystem.omega0 = 50.0\n"
                 "packet.nt = 2\npacket.n_eps = 51\npacket.n_x = 64\n")

BAD_INPUTS = {
    "misspelled model key": ("survival", LORENTZIAN_CONFIG.replace("model.a", "model.centre"),
                             "'a'"),
    "misspelled survival key": ("survival", LORENTZIAN_CONFIG.replace("survival.tmax",
                                                                      "survival.tmx"),
                                "unknown survival key 'tmx'; did you mean 'tmax'?"),
    "misspelled survival method": ("survival", LORENTZIAN_CONFIG.replace(
        "method = closed", "method = pole_cut"), "did you mean 'pole-cut'?"),
    "misspelled key in a section not read": ("poles", LORENTZIAN_CONFIG.replace(
        "survival.tmax", "survival.tmx"), "'tmax'"),
    "unknown section": ("survival", LORENTZIAN_CONFIG.replace("system.", "sytsem."),
                        "'system'"),
    "half an oracle window": ("survival",
                              "model.type = box\nmodel.A2 = 0.05\nmodel.L = 100\n"
                              "survival.method = oracle\nsurvival.window_lo = -50\n",
                              "window_hi"),
    "reversed oracle window": ("survival", ORACLE_BOX_CONFIG + "survival.method = oracle\n"
                               "survival.window_lo = 50\nsurvival.window_hi = -50\n",
                               "survival.window_lo = 50.0 must be below "
                               "survival.window_hi = -50.0"),
    # 100 bins of width 2 recur at pi; run to t = 10, they differed from the
    # inversion by rms 0.36 with exit 0
    "oracle past its recurrence time": (
        "survival", ORACLE_BOX_CONFIG.replace("n_bins = 400", "n_bins = 100").replace(
            "tmax = 5.0", "tmax = 10.0") + "survival.method = oracle\n",
        "survival.tmax = 10.0 reaches the oracle's recurrence time 3.14159 = 2pi/(bin spacing) "
        "at survival.n_bins = 100"),
    "the old oracle subcommand": ("oracle-survival", ORACLE_BOX_CONFIG, "oracle-survival"),
    # Sigma is in spectral.csv
    "the old self-energy subcommand": ("selfenergy", LORENTZIAN_CONFIG, "'selfenergy'"),
    "a key of the old self-energy section": ("spectral", LORENTZIAN_CONFIG
                                             + "selfenergy.grid_n = 11\n", "'selfenergy'"),
    "a key of the old oracle section": ("survival", ORACLE_BOX_CONFIG + "oracle.n_bins = 400\n",
                                        "'oracle'"),
    "empty spectral range": ("spectral", LORENTZIAN_CONFIG + "spectral.eps_min = 1\n"
                             "spectral.eps_max = 1\n",
                             "spectral.eps_min = 1.0 must be below spectral.eps_max = 1.0"),
    "reversed packet grid": ("packet", PACKET_CONFIG + "packet.basis = plane_wave\n"
                             "packet.x_min = 300\npacket.x_max = -100\n",
                             "packet.x_min = 300.0 must be below packet.x_max = -100.0"),
    "non-numeric survival value": ("survival", LORENTZIAN_CONFIG.replace(
        "survival.tmax = 5.0", "survival.tmax = abc"), "survival.tmax"),
    "non-numeric model value": ("survival", LORENTZIAN_CONFIG.replace(
        "model.A2 = 0.1", "model.A2 = abc"), "model.A2"),
    "missing density table": ("survival", "model.type = tabulated\n"
                              "model.table_path = no_such_table.csv\n", "no_such_table.csv"),
    "one-column density table": ("survival", "model.type = tabulated\n"
                                 f"model.table_path = {ONE_COLUMN_TABLE}\n",
                                 "needs epsilon and D columns"),
    "survival without a model": ("survival", "survival.tmax = 5.0\n",
                                 "model block is missing the 'type' key"),
    "key path with no key": ("survival", LORENTZIAN_CONFIG + "survival. = 1\n",
                             "malformed key path 'survival.'"),
    "non-integral count": ("survival", LORENTZIAN_CONFIG.replace(
        "survival.nt = 51", "survival.nt = 2.5"), "survival.nt"),
    "nan band width": ("survival", LORENTZIAN_CONFIG.replace(
        "model.b = 1.0", "model.b = nan"), "model.b"),
    "nan level energy": ("survival", LORENTZIAN_CONFIG.replace(
        "system.omega0 = 0.0", "system.omega0 = nan"), "system.omega0"),
    "infinite coupling": ("spectral", LORENTZIAN_CONFIG.replace(
        "model.A2 = 0.1", "model.A2 = inf"), "model.A2"),
    "integer past the float range": ("spectral", LORENTZIAN_CONFIG.replace(
        "model.A2 = 0.1", "model.A2 = 1" + "0" * 400), "model.A2"),
    "slope keys on plane waves": ("packet", PACKET_CONFIG + "packet.basis = plane_wave\n"
                                  "packet.beta_slope = 3.0\n", "beta_slope"),
    "slope key without a basis": ("packet", PACKET_CONFIG + "packet.beta_slope = 3.0\n",
                                  "packet.beta_slope needs packet.basis"),
    # an offset of the slope is an energy shift, eps - offset
    "slope offset": ("packet", PACKET_CONFIG + "packet.basis = linear_slope_airy\n"
                     "packet.beta_slope = 3.0\npacket.offset = 0.5\n",
                     "unknown packet key 'offset'"),
    "reversed energy window": ("packet", PACKET_CONFIG + "packet.span = -5\n", "span"),
    # the golden-rule rate 2 pi D(omega0) sizes the packet's window
    "zero packet rate": ("packet", PACKET_CONFIG.replace("model.A2 = 0.05", "model.A2 = 0.0"),
                         "D vanishes at system.omega0 = 50.0"),
    "packet where the table vanishes": ("packet", "model.type = tabulated\n"
                                        f"model.table_path = {NOTCH_TABLE}\n"
                                        "system.omega0 = 1.0\npacket.nt = 2\n",
                                        "D vanishes at system.omega0 = 1.0"),
    "zero snapshot stride": ("twosurface", "twosurface.snapshot_stride = 0\n",
                             "snapshot_stride"),
    "negative two-surface slope": ("twosurface", "twosurface.beta_slope = -1.0\n",
                                   "beta_slope"),
    "negative seed": ("verify-partition", "verify.seed = -1\n", "verify.seed"),
    # settings that restate what the run derives are not keys
    "pole guess": ("poles", LORENTZIAN_CONFIG + "poles.guess_re = 0.1\n", "'poles'"),
    "contour height": ("survival", LORENTZIAN_CONFIG + "survival.contour_a = 0.3\n",
                       "'contour_a'"),
    "contour cutoff": ("survival", LORENTZIAN_CONFIG.replace(
        "survival.method = closed", "survival.method = numeric\nsurvival.omega_max = 60"),
        "'omega_max'"),
    # 21 nodes on the README's Lorentzian at tmax = 20 put |A| 13.95 off the
    # closed form with exit 0; the list, not 'n_bins' (the oracle's bin
    # count, difflib ratio 0.71), answers it
    "contour node count": ("survival", LORENTZIAN_CONFIG.replace(
        "survival.method = closed", "survival.method = numeric\nsurvival.n_points = 21"),
        "unknown survival key 'n_points'; valid: 'method', 'n_bins', 'nt', 'tmax'"),
    # the golden-rule exponential, 0.128 off the inversion at omega0 = 50 for t <= 40
    "closed form of a box": ("survival", ORACLE_BOX_CONFIG.replace(
        "system.omega0 = 0.0", "system.omega0 = 50.0") + "survival.method = closed\n",
        "--method numeric or --method pole-cut"),
    # the Lorentzian has no threshold to hang a cut from
    "pole-cut without a threshold": ("survival", LORENTZIAN_CONFIG.replace(
        "survival.method = closed", "survival.method = pole-cut"), "method 'closed'"),
    # a table has no complex continuation to solve for the pole in
    "pole-cut on a table": ("survival", f"model.type = tabulated\nmodel.table_path = {TABLE}\n"
                            "survival.method = pole-cut\n",
                            "--method numeric) or the oracle (survival_exact_discrete, "
                            "--method oracle)"),
    # nor one to seek the resonance on: bad input, not a numerical failure
    "poles of a table": ("poles", f"model.type = tabulated\nmodel.table_path = {TABLE}\n"
                         "system.omega0 = 1.0\n", "Tabulated does not support complex continuation"),
    "packet rate": ("packet", PACKET_CONFIG + "packet.gamma = 0.3\n", "'gamma'"),
    "two-surface coupling by its old name": ("twosurface", "twosurface.V = 0.5\n",
                                             "'coupling'"),
    "two-surface slope by its old name": ("twosurface", "twosurface.beta = 3.0\n",
                                          "'beta_slope'"),
    "no verification points": ("verify-partition", "verify.n_omega = 0\n", "verify.n_omega"),
    # a second survival.tmax ran with the last value and exit 0
    "duplicated key": ("survival", LORENTZIAN_CONFIG + "survival.tmax = 50.0\n",
                       "line 10: survival.tmax is already set on line 8"),
    **{f"negative {key}": (command, LORENTZIAN_CONFIG + f"{key} = -3\n", key)
       for command, key in (("spectral", "spectral.n"), ("survival", "survival.n_bins"),
                            ("packet", "packet.nt"), ("packet", "packet.n_x"))},
    # LORENTZIAN_CONFIG sets survival.nt already, so replace it
    "negative survival.nt": ("survival", LORENTZIAN_CONFIG.replace("survival.nt = 51",
                                                                   "survival.nt = -3"),
                             "survival.nt = -3 is not an integer >= 1"),
}

# survival CSVs that `compare` refuses, each with a hint its message carries
BAD_SURVIVAL_CSVS = {
    "missing file": (None, "bad.csv"),
    "empty file": ("", "t, re_A and im_A"),
    "no amplitude columns": ("t,P1\n0,1\n1,0.5\n", "t, re_A and im_A"),
    "header only": ("t,re_A,im_A\n", "at least one row"),
    "ragged row": ("t,re_A,im_A\n0,1,0\n1,0.5\n", "bad.csv"),
    "short rows": ("t,re_A,im_A,abs2_A\n0,1,0\n1,0.5,0\n", "4 finite numbers"),
    "non-numeric cell": ("t,re_A,im_A\n0,1,0\n1,abc,0\n", "bad.csv"),
    "nan cell": ("t,re_A,im_A\n0,1,0\n1,nan,0\n", "finite"),
    "other times": ("t,re_A,im_A\n0,1,0\n2,0.5,0.5\n", "different time grids"),
    "fewer times": ("t,re_A,im_A\n0,1,0\n", "different time grids"),
}


class TestExitCodes:
    def test_console_script_installed(self):
        import subprocess
        out = subprocess.run(["decaylab", "--version"], capture_output=True, text=True)
        assert out.returncode == 0
        assert "decaylab" in out.stdout

    def test_python_dash_m(self):
        src = str(Path(dl.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        out = subprocess.run([sys.executable, "-m", "decaylab", "--version"],
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": path})
        assert out.returncode == 0
        assert "decaylab" in out.stdout

    @pytest.mark.parametrize("subcommand, text, hint", BAD_INPUTS.values(), ids=BAD_INPUTS)
    def test_bad_input(self, tmp_path, capsys, subcommand, text, hint):
        cfg = write_config(tmp_path, text)
        assert main([subcommand, "-c", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert hint in capsys.readouterr().err

    @pytest.mark.parametrize("text, hint", BAD_SURVIVAL_CSVS.values(), ids=BAD_SURVIVAL_CSVS)
    def test_compare_bad_input(self, tmp_path, capsys, text, hint):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("t,re_A,im_A\n0,1,0\n1,0.5,0.5\n")
        if text is not None:
            bad.write_text(text)
        assert main(["compare", str(good), str(bad)]) == 2
        assert hint in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["survival", "-c", str(tmp_path / "nope.cfg")]) == 2
        capsys.readouterr()

    def test_malformed_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "no equals sign here\n")
        assert main(["survival", "-c", str(cfg)]) == 2
        capsys.readouterr()

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # a support so wide that the default omega_max overflows, and supports
        # so wide that the default contour would need more nodes than its cap
        # (at 1e154 the squared tail margin overflows too), are truncation errors
        huge_support = ("model.type = box\nmodel.A2 = 0.05\nmodel.L = 1e308\n"
                        "system.omega0 = 0.0\nsurvival.method = numeric\n")
        capped_nodes = [huge_support.replace("1e308", L) for L in ("1e6", "1e154")]
        for text in (huge_support, *capped_nodes):
            cfg = write_config(tmp_path, text)
            assert main(["survival", "-c", str(cfg), "--out", str(tmp_path / "x")]) == 3
            capsys.readouterr()

    def test_errors_defines_the_only_exception_classes(self):
        # The exit codes tell two families apart and nothing tells their
        # members apart but the message: errors.py defines the base, the
        # two families and DomainError, and no other module an exception.
        bases = {}
        for path in Path(dl.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef):
                    bases[path.name, node.name] = {getattr(b, "id", getattr(b, "attr", None))
                                                   for b in node.bases}
        exceptions = {name for name in dir(builtins)
                      if isinstance(getattr(builtins, name), type)
                      and issubclass(getattr(builtins, name), BaseException)}
        defined = set()
        while True:
            found = {key for key, names in bases.items() if names & exceptions}
            if found == defined:
                break
            defined = found
            exceptions |= {name for _, name in found}
        assert defined == {("errors.py", name) for name in
                           ("DecayLabError", "ValidationError", "DomainError", "NumericalError")}


class TestCsvWriter:
    """Whole-column writing gives the bytes of formatting every cell on its own."""

    FLOATS = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
                       np.finfo(float).max, 0.1, 1.0, 1e16, 123456789.0, -1.5e-7])

    def test_matches_per_cell_format(self, tmp_path):
        rng = np.random.default_rng(3)
        floats = np.concatenate([self.FLOATS,
                                 rng.normal(size=50) * 10.0 ** rng.integers(-300, 300, 50)])
        ints = np.arange(floats.size) - 7
        strings = [f"block_{k}" for k in range(floats.size)]
        path = tmp_path / "table.csv"
        _write_csv(path, ["f", "i", "s", "g"], [floats, ints, strings, floats[::-1].tolist()])
        rows = zip(floats, ints, strings, floats[::-1])
        expected = ["f,i,s,g"] + [",".join([format(float(f), ".17g"), str(int(i)), s,
                                            format(float(g), ".17g")]) for f, i, s, g in rows]
        assert path.read_text() == "\n".join(expected) + "\n"

    def test_single_python_int_column(self, tmp_path):
        path = tmp_path / "row.csv"
        _write_csv(path, ["iterations", "residual"], [[12], [3.0e-17]])
        assert path.read_text() == "iterations,residual\n12,3.0000000000000001e-17\n"


class TestDeterminism:
    def test_cached_parser_parses_like_a_fresh_one(self, capsys):
        # one parser serves every main() call of a process; a refused flag
        # leaves nothing behind for the parses after it
        assert _build_parser() is _build_parser()
        argvs = [["survival", "-c", "a.cfg", "--method", "oracle", "--nt", "11"],
                 ["survival", "-c", "a.cfg", "--method", "exact"],
                 ["survival", "-c", "a.cfg", "--tmax", "2.5"],
                 ["packet", "-c", "b.cfg", "--out", "run"],
                 ["verify-partition"],
                 ["compare", "first.csv", "second.csv"],
                 ["spectral"],
                 ["survival", "-c", "a.cfg"]]
        for argv in argvs:
            outcomes = []
            for parser in (_build_parser(), _build_parser.__wrapped__()):
                try:
                    outcomes.append(vars(parser.parse_args(argv)))
                except SystemExit as exc:
                    outcomes.append((exc.code, capsys.readouterr().err))
            assert outcomes[0] == outcomes[1], argv

    def test_identical_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, LORENTZIAN_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["survival", "-c", str(cfg), "--out", str(out1)]) == 0
        assert main(["survival", "-c", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "survival.csv").read_bytes() == (out2 / "survival.csv").read_bytes()
        assert (out1 / "run_manifest.json").read_bytes() == \
            (out2 / "run_manifest.json").read_bytes()

    def test_verify_partition_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["verify-partition", "--out", str(out1)]) == 0
        assert main(["verify-partition", "--out", str(out2)]) == 0
        assert (out1 / "verify_partition.csv").read_bytes() == \
            (out2 / "verify_partition.csv").read_bytes()
