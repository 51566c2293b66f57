import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import decaylab as dl
from decaylab.cli import COMMANDS, SCHEMA, main
from decaylab.config import parse_config_text
from decaylab.errors import ConfigParseError
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

# a level below the threshold mu = 1
BELOW_THRESHOLD_CONFIG = ("model.type = thresholdpower\nmodel.beta_th = 0.01\n"
                          "model.alpha = 0.5\nmodel.mu = 1.0\nmodel.Lambda = 50.0\n"
                          "system.omega0 = 0.0\nsurvival.tmax = 10.0\nsurvival.nt = 11\n")



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
        assert cfg["b"]["flag"] is True
        assert cfg["b"]["name"] == "box"

    def test_comments_and_blanks(self):
        cfg = parse_config_text("# comment\n\nmodel.type = box\n")
        assert cfg == {"model": {"type": "box"}}

    def test_quoted_strings(self):
        cfg = parse_config_text("a.path = 'some file.csv'\n")
        assert cfg["a"]["path"] == "some file.csv"

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigParseError, match="line 2"):
            parse_config_text("a.x = 1\nbogus line\n")

    def test_missing_section_prefix(self):
        with pytest.raises(ConfigParseError, match="section"):
            parse_config_text("x = 1\n")


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
        # the contour height is derived, 3/t_max, and recorded as such
        assert survival["contour_offset"] == 3.0 / 5.0
        assert manifest["config"]["model"]["a"] == 0.0
        assert manifest["results"]["transform"] == "chirp_z"
        assert manifest["results"]["alias_bound"] < 1e-11
        # the default omega_max is set by the 1e-5 truncated-tail target
        assert manifest["results"]["tail_estimate"] == pytest.approx(1e-5)

    def test_closed_form_unavailable(self, tmp_path):
        text = ("model.type = thresholdpower\nmodel.beta_th = 0.01\n"
                "model.alpha = 0.5\nmodel.mu = 0.0\nmodel.Lambda = 20.0\n"
                "system.omega0 = 5.0\nsurvival.method = closed\n")
        cfg = write_config(tmp_path, text)
        assert main(["survival", "-c", str(cfg), "--out", str(tmp_path / "x")]) == 2

    def test_pole_cut_method(self, tmp_path):
        text = ("model.type = thresholdpower\nmodel.beta_th = 0.01\n"
                "model.alpha = 0.5\nmodel.mu = 0.0\nmodel.Lambda = 20.0\n"
                "system.omega0 = 5.0\nsurvival.method = pole-cut\n"
                "survival.tmax = 10.0\nsurvival.nt = 11\n")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "run"
        assert main(["survival", "-c", str(cfg), "--out", str(out)]) == 0
        data = read_csv(out / "survival.csv")
        # decomposition columns populated and consistent with the total
        total = data["re_pole"] + data["re_cut"]
        np.testing.assert_allclose(total, data["re_A"], atol=1e-12)
        assert data["abs2_A"][0] == pytest.approx(1.0, abs=1e-12)


class TestOtherCommands:
    def test_spectral(self, tmp_path):
        cfg = write_config(tmp_path, "model.type = box\nmodel.A2 = 0.05\nmodel.L = 100\n")
        out = tmp_path / "run"
        assert main(["spectral", "-c", str(cfg), "--out", str(out)]) == 0
        data = read_csv(out / "spectral.csv")
        inside = np.abs(data["epsilon"]) < 100
        assert np.all(data["D"][inside] == 0.05)

    def test_selfenergy(self, tmp_path):
        cfg = write_config(tmp_path, LORENTZIAN_CONFIG)
        out = tmp_path / "run"
        assert main(["selfenergy", "-c", str(cfg), "--out", str(out)]) == 0
        data = read_csv(out / "selfenergy.csv")
        assert np.all(data["im_sigma"][np.isfinite(data["im_sigma"])] <= 1e-12)

    def test_selfenergy_on_band_edges(self, tmp_path):
        # the grid lands exactly on the edges +-L, where the boundary value diverges
        text = ("model.type = box\nmodel.A2 = 0.05\nmodel.L = 2\n"
                "selfenergy.grid_min = -4\nselfenergy.grid_max = 4\nselfenergy.grid_n = 9\n")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "run"
        assert main(["selfenergy", "-c", str(cfg), "--out", str(out)]) == 0
        data = read_csv(out / "selfenergy.csv")
        edge = np.abs(data["omega"]) == 2.0
        assert edge.sum() == 2
        assert np.all(np.isnan(data["re_sigma"][edge]) & np.isnan(data["im_sigma"][edge]))
        se = dl.SelfEnergy(dl.Box(amplitude_sq=0.05, half_width=2.0))
        expected = [se.sigma_upper(w) for w in data["omega"][~edge]]
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
        text = ("model.type = box\nmodel.A2 = 0.05\nmodel.L = 100\n"
                "system.omega0 = 0.0\noracle.n_bins = 400\n"
                "oracle.tmax = 5.0\noracle.nt = 21\n")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "run"
        assert main(["oracle-survival", "-c", str(cfg), "--out", str(out)]) == 0
        data = read_csv(out / "survival.csv")
        assert data["abs2_A"][0] == pytest.approx(1.0, abs=1e-12)
        gamma = 2 * np.pi * 0.05
        expected = np.exp(-gamma * data["t"])
        assert np.max(np.abs(data["abs2_A"] - expected)) < 0.05

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
selfenergy.grid_n = 11
survival.method = closed
survival.tmax = 1.0
survival.nt = 3
oracle.n_bins = 50
oracle.window_lo = -20.0
oracle.window_hi = 20.0
oracle.nt = 3
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


# A packet whose energy window stays above zero, where plane waves exist.
PACKET_CONFIG = ("model.type = box\nmodel.A2 = 0.05\nmodel.L = 100\nsystem.omega0 = 50.0\n"
                 "packet.nt = 2\npacket.n_eps = 51\npacket.n_x = 64\n")

BAD_INPUTS = {
    "misspelled model key": ("survival", LORENTZIAN_CONFIG.replace("model.a", "model.centre"),
                             "'a'"),
    "misspelled survival key": ("survival", LORENTZIAN_CONFIG.replace("survival.tmax",
                                                                      "survival.tmx"),
                                "'tmax'"),
    "misspelled key in a section not read": ("poles", LORENTZIAN_CONFIG.replace(
        "survival.tmax", "survival.tmx"), "'tmax'"),
    "unknown section": ("survival", LORENTZIAN_CONFIG.replace("system.", "sytsem."),
                        "'system'"),
    "half an oracle window": ("oracle-survival",
                              "model.type = box\nmodel.A2 = 0.05\nmodel.L = 100\n"
                              "oracle.window_lo = -50\n", "window_hi"),
    "non-numeric survival value": ("survival", LORENTZIAN_CONFIG.replace(
        "survival.tmax = 5.0", "survival.tmax = abc"), "survival.tmax"),
    "non-numeric model value": ("survival", LORENTZIAN_CONFIG.replace(
        "model.A2 = 0.1", "model.A2 = abc"), "model.A2"),
    "missing density table": ("survival", "model.type = tabulated\n"
                              "model.table_path = no_such_table.csv\n", "no_such_table.csv"),
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
                                  "packet.beta_slope = 3.0\npacket.offset = 0.5\n",
                                  "beta_slope"),
    "slope key without a basis": ("packet", PACKET_CONFIG + "packet.offset = 0.5\n",
                                  "packet.basis"),
    "reversed energy window": ("packet", PACKET_CONFIG + "packet.span = -5\n", "span"),
    "zero packet rate": ("packet", PACKET_CONFIG.replace("model.A2 = 0.05", "model.A2 = 0.0"),
                         "gamma > 0"),
    "zero snapshot stride": ("twosurface", "twosurface.snapshot_stride = 0\n",
                             "snapshot_stride"),
    "negative omega_max": ("survival", LORENTZIAN_CONFIG.replace(
        "survival.method = closed", "survival.method = numeric\nsurvival.omega_max = -1"),
        "omega_max"),
    "negative seed": ("verify-partition", "verify.seed = -1\n", "verify.seed"),
    # settings that restate what the run derives are not keys
    "pole guess": ("poles", LORENTZIAN_CONFIG + "poles.guess_re = 0.1\n", "'poles'"),
    "contour height": ("survival", LORENTZIAN_CONFIG + "survival.contour_a = 0.3\n",
                       "'contour_a'"),
    "packet rate": ("packet", PACKET_CONFIG + "packet.gamma = 0.3\n", "'gamma'"),
    "two-surface coupling by its old name": ("twosurface", "twosurface.V = 0.5\n",
                                             "'coupling'"),
    "two-surface slope by its old name": ("twosurface", "twosurface.beta = 3.0\n",
                                          "'beta_slope'"),
    "no verification points": ("verify-partition", "verify.n_omega = 0\n", "verify.n_omega"),
    **{f"negative {key}": (command, LORENTZIAN_CONFIG + f"{key} = -3\n", key)
       for command, key in (("spectral", "spectral.n"), ("selfenergy", "selfenergy.grid_n"),
                            ("survival", "survival.nt"), ("oracle-survival", "oracle.nt"),
                            ("packet", "packet.nt"), ("packet", "packet.n_x"))},
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
        # omega_max far below the spectral support, a support so wide that
        # the default omega_max overflows, and supports so wide that the
        # default contour would need more nodes than its cap (at 1e154 the
        # squared tail margin overflows too), are truncation errors
        low_cutoff = LORENTZIAN_CONFIG.replace("survival.method = closed",
                                               "survival.method = numeric\n"
                                               "survival.omega_max = 0.5")
        huge_support = ("model.type = box\nmodel.A2 = 0.05\nmodel.L = 1e308\n"
                        "system.omega0 = 0.0\nsurvival.method = numeric\n")
        capped_nodes = [huge_support.replace("1e308", L) for L in ("1e6", "1e154")]
        for text in (low_cutoff, huge_support, *capped_nodes):
            cfg = write_config(tmp_path, text)
            assert main(["survival", "-c", str(cfg), "--out", str(tmp_path / "x")]) == 3
            capsys.readouterr()


class TestDeterminism:
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
