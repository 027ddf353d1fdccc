"""Config-driven front end: validation, outputs, determinism."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import dotkit as dk
from dotkit.cli import (
    _build_grid,
    _build_system,
    _coherent_peak,
    _oracle_report,
    main,
    parse_config,
)
from dotkit.emitters import _format_table, _system_coherence

E0 = 1_300_000.0


def run_cli(*argv):
    return main(list(argv))


def write_yaml(path, payload):
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def model_config(**overrides):
    config = {
        "version": 1,
        "system": {
            "emitters": [
                {"energy": 0.0, "gamma": 1.4, "gamma_pd": 2.5, "sigma": 1.0}
                for _ in range(3)
            ]
        },
        "grid": {"tau_max_ns": 3.0, "n_points": 3001},
        "irf_fwhm_ns": 0.1,
        "model": {"coherent": True},
    }
    config.update(overrides)
    return config


def read_summary(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        out[key.strip()] = float(value)
    return out


class TestConfigValidation:
    def test_unknown_keys_rejected(self, tmp_path, capsys):
        config = model_config()
        config["system"]["emitters"][0]["typo"] = 1.0
        path = write_yaml(tmp_path / "bad.yaml", config)
        assert run_cli("model", "--config", path, "--out", str(tmp_path / "out")) == 2
        assert "error:config" in capsys.readouterr().err

    def test_version_required(self, tmp_path, capsys):
        config = model_config()
        config["version"] = 2
        path = write_yaml(tmp_path / "bad.yaml", config)
        assert run_cli("model", "--config", path, "--out", str(tmp_path / "out")) == 2

    def test_kind_mismatch(self, tmp_path, capsys):
        config = model_config(kind="simulate")
        path = write_yaml(tmp_path / "bad.yaml", config)
        assert run_cli("model", "--config", path, "--out", str(tmp_path / "out")) == 2
        assert "does not match subcommand" in capsys.readouterr().err

    def assert_one_config_error(self, tmp_path, capsys, config):
        path = write_yaml(tmp_path / "bad.yaml", config)
        assert run_cli("tune", "--config", path, "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:config:")
        assert err.count("\n") == 1

    def test_stark_coeff_rejected(self, tmp_path, capsys):
        # The key never changed an output; it is gone like any unknown key.
        config = TestCmdTune().tune_config()
        config["system"]["emitters"][0]["stark_coeff"] = 92.0
        self.assert_one_config_error(tmp_path, capsys, config)

    def test_thermal_cycle_redshift_rejected(self, tmp_path, capsys):
        config = TestCmdTune().tune_config()
        config["tune"]["plant"] = {"thermal_cycle_redshift": 150.0}
        self.assert_one_config_error(tmp_path, capsys, config)

    def test_missing_section(self, tmp_path, capsys):
        config = {"version": 1, "system": model_config()["system"]}
        path = write_yaml(tmp_path / "bad.yaml", config)
        assert run_cli("model", "--config", path, "--out", str(tmp_path / "out")) == 2


def fit_config(data="curve.tsv"):
    return {
        "version": 1,
        "fit": {
            "irf_fwhm_ns": 0.1,
            "n_restarts": 1,
            "curves": [
                {
                    "data": data,
                    "fixed": {"n": 2, "delta_ueV": 0.0},
                    "free": {"gamma": {"guess": 1.2, "min": 0.05, "max": 10.0}},
                }
            ],
        },
    }


def simulate_config():
    return {
        "version": 1,
        "system": {"emitters": [{"energy": 0.0, "gamma": 1.4}]},
        "irf_fwhm_ns": 0.1,
        "simulate": {"mc": False, "coincidences": {"n_events": 1000}},
    }


def write_fit_curve(path):
    tau = np.linspace(-5.0, 5.0, 101)
    values = dk.g2_general(dk.identical_system(2, 1.4, 2.5, 1.0), tau)
    dk.write_curve(path, dk.G2Curve(tau, values, np.full(tau.size, 0.01)))


class TestConfigValues:
    """Ill-typed values end in ``error:config`` before any work is done."""

    @pytest.mark.parametrize(
        "command, keys, value",
        [
            ("fit", ("fit", "n_restarts"), "x"),
            ("fit", ("fit", "n_restarts"), 1.5),
            ("fit", ("fit", "irf_fwhm_ns"), "abc"),
            ("fit", ("fit", "coherent"), "yes"),
            ("fit", ("fit", "shared"), ["sigma"]),
            ("fit", ("fit", "curves", 0, "fixed", "n"), "two"),
            ("fit", ("fit", "curves", 0, "fixed", "n"), 2.5),
            ("fit", ("fit", "curves", 0, "fixed", "gamma_pd"), "slow"),
            ("fit", ("fit", "curves", 0, "fixed", "gamma_pd"), None),
            ("fit", ("fit", "curves", 0, "fixed"), [2, 0.0]),
            ("fit", ("fit", "curves", 0, "data"), "missing.tsv"),
            ("model", ("irf_fwhm_ns",), "abc"),
            ("model", ("grid", "tau_max_ns"), float("inf")),
            ("model", ("irf_fwhm_ns",), float("nan")),
            ("model", ("system", "emitters", 0, "gamma_pd"), "x"),
            ("model", ("system", "reference_energy"), "zero"),
            ("simulate", ("simulate", "n_real"), "many"),
            ("simulate", ("simulate", "coincidences", "bin_ns"), "fine"),
            ("simulate", ("simulate", "coincidences", "bin_ns"), 0.0),
            ("simulate", ("simulate", "coincidences", "normalization_window_ns"), ["a", 10]),
            (
                "simulate",
                ("simulate", "coincidences", "normalization_window_ns"),
                [float("nan"), 10],
            ),
            (
                "simulate",
                ("simulate", "coincidences", "normalization_window_ns"),
                [5, float("inf")],
            ),
            pytest.param("model", ("system", "emitters", 0, "energy"), 10**400, id="huge-int"),
        ],
    )
    def test_rejected_as_config_error(self, tmp_path, capsys, command, keys, value):
        config = {"fit": fit_config(), "model": model_config(), "simulate": simulate_config()}[
            command
        ]
        write_fit_curve(tmp_path / "curve.tsv")
        target = config
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        path = write_yaml(tmp_path / "config.yaml", config)
        assert run_cli(command, "--config", path, "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:config:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["version: 1\ngrid: [1, 2\n", "version: 1\n\tgrid: {}\n"])
    def test_invalid_yaml_one_line(self, tmp_path, capsys, text):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        assert run_cli("model", "--config", str(path), "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:config:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, config_seed, flag",
        [("simulate", 0, ["--seed", "-3"]), ("simulate", -5, []), ("tune", -5, [])],
    )
    def test_negative_seed(self, tmp_path, capsys, command, config_seed, flag):
        # The seed in effect, after any --seed override, must be an integer >= 0.
        config = simulate_config() if command == "simulate" else TestCmdTune().tune_config()
        config["seed"] = config_seed
        path = write_yaml(tmp_path / "config.yaml", config)
        assert run_cli(command, "--config", path, *flag, "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:config: config.seed:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "config_seed, flag",
        [(2**53 + 1, []), (0, ["--seed", str(2**64 - 1)])],
        ids=["config-above-2**53", "flag-u64-max"],
    )
    def test_u64_seed_accepted(self, tmp_path, config_seed, flag):
        # Every u64 seed is taken exactly, also those that no float holds.
        config = simulate_config()
        config["seed"] = config_seed
        path = write_yaml(tmp_path / "config.yaml", config)
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", path, *flag, "--out", str(out)) == 0
        echoed = yaml.safe_load((out / "config.yaml").read_text())
        assert echoed["seed"] == (int(flag[1]) if flag else config_seed)

    def test_unreadable_config(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.yaml")
        assert run_cli("model", "--config", missing, "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err.startswith("error:config:")

    def test_valid_fit_config_runs(self, tmp_path):
        write_fit_curve(tmp_path / "curve.tsv")
        path = write_yaml(tmp_path / "config.yaml", fit_config())
        assert run_cli("fit", "--config", path, "--out", str(tmp_path / "out")) == 0


class TestCmdModel:
    def test_three_emitter_summary(self, tmp_path):
        # ideal 4/3 peak, ~1.2 through the 100 ps response
        path = write_yaml(tmp_path / "model.yaml", model_config())
        out = tmp_path / "out"
        assert run_cli("model", "--config", path, "--out", str(out)) == 0
        summary = read_summary(out / "summary.txt")
        assert summary["g2_zero_model"] == pytest.approx(4 / 3, abs=1e-6)
        assert 1.10 <= summary["g2_zero_after_irf"] <= 1.30
        curve = np.loadtxt(out / "curve.tsv")
        assert curve.shape == (3001, 3)

    def test_single_emitter_summary(self, tmp_path):
        config = model_config()
        config["system"]["emitters"] = [{"energy": 0.0, "gamma": 1.9, "gamma_pd": 2.5, "sigma": 1.0}]
        path = write_yaml(tmp_path / "model.yaml", config)
        out = tmp_path / "out"
        assert run_cli("model", "--config", path, "--out", str(out)) == 0
        assert read_summary(out / "summary.txt")["g2_zero_model"] == 0.0

    def test_detuned_pair_after_irf(self, tmp_path):
        # 46 ueV detuning: oscillations washed out, g2(0) near the
        # distinguishable 0.5
        config = model_config()
        config["system"]["emitters"] = [
            {"energy": 0.0, "gamma": 0.7, "gamma_pd": 2.5, "sigma": 1.0},
            {"energy": 46.0, "gamma": 0.7, "gamma_pd": 2.5, "sigma": 1.0},
        ]
        path = write_yaml(tmp_path / "model.yaml", config)
        out = tmp_path / "out"
        assert run_cli("model", "--config", path, "--out", str(out)) == 0
        assert read_summary(out / "summary.txt")["g2_zero_after_irf"] <= 0.55

    @pytest.mark.parametrize("n", [2, 3])
    def test_resonant_coherent_peak(self, tmp_path, n):
        # N resonant emitters of equal intensity: the interference excess is
        # (1 - 1/N) exp(-g(t)), g(t) = 2 Gamma t + 4 pi^2 sigma^2 t^2, so its
        # height is 1 - 1/N and its FWHM 2 t_half with g(t_half) = ln 2.
        config = model_config()
        config["system"]["emitters"] = config["system"]["emitters"][:n]
        path = write_yaml(tmp_path / "model.yaml", config)
        out = tmp_path / "out"
        assert run_cli("model", "--config", path, "--out", str(out)) == 0
        summary = read_summary(out / "summary.txt")
        assert summary["coherent_peak_height"] == pytest.approx(1.0 - 1.0 / n, rel=1e-9)

        rate, curvature = 2.0 * (0.5 * 1.4 + 2.5), 4.0 * np.pi**2 * 1.0**2
        t_half = (-rate + np.sqrt(rate**2 + 4.0 * curvature * np.log(2.0))) / (2.0 * curvature)
        # The half-maximum crossing is interpolated linearly on the 0.5 ps
        # grid h. The chord misses f = exp(-g) by at most h^2/8 max|f''|, which
        # moves the crossing by at most that over min|f'|, both taken on the
        # bracket t_half +- h; the FWHM doubles it. %.10g adds 1e-9 relative.
        h = 2.0 / 4000

        def g(t):
            return rate * t + curvature * t**2

        def slope(t):
            return rate + 2.0 * curvature * t

        lo, hi = t_half - h, t_half + h
        f2_max = (slope(hi) ** 2 + 2.0 * curvature) * np.exp(-g(lo))
        f1_min = slope(lo) * np.exp(-g(hi))
        tolerance = 2.0 * h**2 / 8.0 * f2_max / f1_min + 1e-9 * 2.0 * t_half
        assert abs(summary["coherent_peak_fwhm_ns"] - 2.0 * t_half) <= tolerance

    def test_symmetric_grid_keeps_outputs(self, tmp_path):
        # The grid is linspace made exactly antisymmetric; that moves some
        # delays by one ulp, which the 10-digit columns must not show
        # beyond rounding of the IRF convolution.
        path = write_yaml(tmp_path / "model.yaml", model_config())
        out = tmp_path / "out"
        assert run_cli("model", "--config", path, "--out", str(out)) == 0
        rows = [line.split("\t") for line in (out / "curve.tsv").read_text().splitlines()[1:]]
        tau = np.linspace(-3.0, 3.0, 3001)
        system = dk.identical_system(3, 1.4, 2.5, 1.0)
        g2 = dk.g2_general(system, tau)
        assert [row[0] for row in rows] == [f"{t:.10g}" for t in tau]
        assert [row[1] for row in rows] == [f"{v:.10g}" for v in g2]
        blurred = dk.convolve_irf(dk.G2Curve(tau, g2), dk.Irf(0.1)).values
        np.testing.assert_allclose([float(row[2]) for row in rows], blurred, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n_points", [2, 3, 60, 61, 6001])
    def test_curve_is_the_whole_grid_pass(self, tmp_path, n_points):
        # cmd_model runs the kernel on the grid's upper half and mirrors it;
        # the table must be that of one pass over the whole grid, byte for byte.
        config = model_config(grid={"tau_max_ns": 3.0, "n_points": n_points})
        del config["irf_fwhm_ns"]
        config["system"]["emitters"] = [
            {"energy": 0.0, "gamma": 1.4, "gamma_pd": 2.5, "sigma": 1.0},
            {"energy": 20.0, "gamma": 0.7, "gamma_pd": 0.5, "sigma": 0.3, "intensity": 2.0},
            {"energy": 46.0, "gamma": 1.9, "sigma": 1.5, "intensity": 0.5},
        ]
        path = write_yaml(tmp_path / "model.yaml", config)
        out = tmp_path / "out"
        assert run_cli("model", "--config", path, "--out", str(out)) == 0
        typed = parse_config(config)
        grid = _build_grid(typed)
        values = dk.g2_general(_build_system(typed), grid)
        expected = _format_table(["# tau_ns\tg2"], "%.10g\t%.10g", [grid, values])
        assert (out / "curve.tsv").read_text() == expected

    @pytest.mark.parametrize(
        "keys, value, category",
        [
            (("irf_fwhm_ns",), 1e300, "grid"),
            (("irf_fwhm_ns",), 2.36, "grid"),
            (("grid", "tau_max_ns"), 1e-300, "grid"),
            (("system", "emitters", 1, "sigma"), 1e200, "parameter"),
        ],
        ids=["irf-1e300", "irf-past-bound", "tau-max-1e-300", "sigma-1e200"],
    )
    def test_schema_valid_extremes_end_in_one_error_line(
        self, tmp_path, capsys, keys, value, category
    ):
        # A 2-emitter pair on a +-3 ns, 601-point grid; the IRF's +-6 sigma
        # must fit in the 6 ns span (fwhm <= 2.3548 ns here).
        config = model_config(grid={"tau_max_ns": 3.0, "n_points": 601})
        config["system"]["emitters"] = config["system"]["emitters"][:2]
        target = config
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        path = write_yaml(tmp_path / "model.yaml", config)
        assert run_cli("model", "--config", path, "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error:{category}:")
        assert err.count("\n") == 1


def whole_grid_peak(system):
    """``_coherent_peak`` as one kernel pass over its whole 4001-point grid."""
    tau = np.linspace(0.0, 2.0, 4001)
    excess = _system_coherence(system, tau)[1]
    height = excess[0]
    if height <= 0:
        return 0.0, 0.0
    below = np.nonzero(excess <= 0.5 * height)[0]
    if below.size == 0:
        return float(height), float("inf")
    m = below[0]
    t_half = np.interp(0.5 * height, excess[[m, m - 1]], tau[[m, m - 1]])
    return float(height), float(2.0 * t_half)


@st.composite
def peak_systems(draw):
    """1-8 emitters over 0-500 ueV with slow to fast decays: crossings in
    every head of the peak grid, and none within 2 ns."""
    count = draw(st.integers(1, 8))
    spread = draw(st.sampled_from([0.0, 5.0, 500.0]))
    emitter = st.builds(
        dk.Emitter,
        energy=st.floats(0.0, 1.0).map(lambda u: E0 + spread * u),
        gamma=st.floats(0.02, 4.0),
        gamma_pd=st.just(0.0) | st.floats(0.0, 3.0),
        sigma=st.just(0.0) | st.floats(0.0, 1.0),
        intensity=st.floats(0.2, 3.0),
    )
    return dk.EmitterSystem(tuple(draw(st.lists(emitter, min_size=count, max_size=count))))


class TestCoherentPeak:
    """``_coherent_peak`` reads growing heads of its grid; the result must be
    that of the whole grid, to the bit."""

    @settings(max_examples=100, deadline=None)
    @given(system=peak_systems())
    def test_equals_whole_grid_pass(self, system):
        assert _coherent_peak(system) == whole_grid_peak(system)

    # A resonant pair with gamma_pd = sigma = 0 has excess exp(-gamma t)/2,
    # crossing its half at ln 2 / gamma on the 0.5 ps grid.
    @pytest.mark.parametrize(
        "gamma, index",
        [
            (np.log(2.0) / 0.12775, 256),  # the first point past the first, 256-point head
            (3.0, 463),  # in the second, 1024-point head
            (1.4, 991),
            (0.6, 2311),  # in the third head, the whole grid
            (0.3, None),  # ln 2 / 0.3 = 2.31 ns: no crossing within 2 ns
            (0.05, None),
        ],
    )
    def test_resonant_pair(self, gamma, index):
        pair = dk.identical_system(2, gamma)
        height, fwhm = _coherent_peak(pair)
        assert (height, fwhm) == whole_grid_peak(pair)
        assert height == 0.5
        if index is None:
            assert fwhm == float("inf")
        else:
            tau = np.linspace(0.0, 2.0, 4001)
            assert tau[index - 1] < fwhm / 2 <= tau[index]
            assert fwhm == pytest.approx(2.0 * np.log(2.0) / gamma, rel=1e-5)

    def test_one_emitter_has_no_peak(self):
        assert _coherent_peak(dk.identical_system(1, 1.4, 2.5, 1.0)) == (0.0, 0.0)


# Plain "scipy" is loaded by any import of scipy, so probing it checks them all.
SCIPY = ("scipy", "scipy.optimize", "scipy.signal", "scipy.stats", "scipy.special", "scipy.linalg")
# Imports dotkit.cli, runs main on the argv given as JSON (none: import only),
# then prints which of the modules given as JSON are loaded.
IMPORT_PROBE = """
import json, sys
import dotkit.cli
argv = json.loads(sys.argv[1])
if argv and dotkit.cli.main(argv) != 0:
    sys.exit("cli failed")
print(json.dumps([name for name in json.loads(sys.argv[2]) if name in sys.modules]))
"""


class TestImportMap:
    """No subcommand loads any scipy module (fresh interpreters)."""

    @staticmethod
    def loaded(*argv):
        src = str(Path(dk.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, json.dumps(argv), json.dumps(SCIPY)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return set(json.loads(done.stdout.splitlines()[-1]))

    def test_import_loads_none(self):
        assert self.loaded() == set()

    @pytest.mark.parametrize("command", ["model", "simulate"])
    def test_model_and_simulate_load_none(self, tmp_path, command):
        config = model_config()
        if command == "simulate":
            config["grid"]["n_points"] = 21
            config["simulate"] = {"n_real": 2000, "coincidences": {"n_events": 1000}}
        path = write_yaml(tmp_path / "config.yaml", config)
        assert self.loaded(command, "--config", path, "--out", str(tmp_path / "out")) == set()

    def test_fit_loads_none(self, tmp_path):
        write_fit_curve(tmp_path / "curve.tsv")
        path = write_yaml(tmp_path / "config.yaml", fit_config())
        assert self.loaded("fit", "--config", path, "--out", str(tmp_path / "out")) == set()

    def test_tune_loads_none(self, tmp_path):
        # synth_spectrum's Voigt line and the peak fits are numpy only.
        path = write_yaml(tmp_path / "tune.yaml", TestCmdTune().tune_config())
        out = str(tmp_path / "out")
        assert self.loaded("tune", "--config", path, "--seed", "9", "--out", out) == set()

class TestBuildGrid:
    @pytest.mark.parametrize("n_points", [2, 3, 60, 61, 6001])
    @pytest.mark.parametrize("tau_max", [0.7, 3.0, 10.0])
    def test_exactly_antisymmetric(self, n_points, tau_max):
        grid = _build_grid({"grid": {"tau_max_ns": tau_max, "n_points": n_points}})
        assert np.array_equal(grid, -grid[::-1])
        assert grid[0] == -tau_max and grid[-1] == tau_max
        assert np.all(np.diff(grid) > 0)
        np.testing.assert_allclose(
            grid, np.linspace(-tau_max, tau_max, n_points), rtol=0, atol=2 * np.spacing(tau_max)
        )


class TestCmdSimulate:
    def simulate_config(self):
        return {
            "version": 1,
            "seed": 7,
            "system": {
                "emitters": [
                    {"energy": 0.0, "gamma": 0.7, "gamma_pd": 2.5, "sigma": 1.0}
                    for _ in range(2)
                ]
            },
            "grid": {"tau_max_ns": 3.0, "n_points": 61},
            "irf_fwhm_ns": 0.1,
            "simulate": {
                "mc": True,
                "n_real": 20_000,
                "coincidences": {"n_events": 30_000, "window_ns": 10.0, "bin_ns": 0.02},
            },
        }

    def test_oracle_report_and_files(self, tmp_path):
        path = write_yaml(tmp_path / "sim.yaml", self.simulate_config())
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", path, "--out", str(out)) == 0
        report = dict(
            line.split(" = ") for line in (out / "oracle_report.txt").read_text().splitlines()
        )
        assert report["oracle_pass"] == "1"
        for name in ("mc_curve.tsv", "histogram.tsv", "normalized.tsv", "config.yaml"):
            assert (out / name).exists()

    @staticmethod
    def check_chance_pulls(grid, n_distinct):
        """Pulls just under the corrected threshold pass, just over fail."""
        analytic = np.ones(grid.size)
        errors = np.full(grid.size, 0.01)
        threshold = ndtri(1.0 - 0.005 / n_distinct)

        def report(largest, others):
            pulls = np.full(grid.size, others)
            pulls[np.abs(grid) == np.abs(grid[grid.size // 2])] = largest
            curve = dk.G2Curve(grid, analytic + pulls * errors, errors)
            return dict(line.split(" = ") for line in _oracle_report(curve, analytic, 1000))

        under, over = report(0.999 * threshold, 3.1), report(1.001 * threshold, 0.0)
        assert under["n_points"] == str(grid.size)
        assert under["n_distinct_delays"] == str(n_distinct)
        assert float(under["pull_threshold_sigma"]) == pytest.approx(threshold, rel=1e-5)
        assert under["n_beyond_3sigma"] == str(n_distinct)
        assert under["oracle_pass"] == "1"
        assert over["n_beyond_3sigma"] == "1"
        assert over["oracle_pass"] == "0"

    def test_oracle_pass_tolerates_chance_pulls(self):
        # A correct oracle's largest pull over 31 delays exceeds 3 sigma in
        # roughly one run in twelve, so the pass threshold is corrected for
        # the number of distinct |tau| (1% family-wise false alarms): the
        # mirrored rows of the CLI grid are one draw and count once.
        grid = _build_grid({"grid": {"tau_max_ns": 3.0, "n_points": 61}})
        self.check_chance_pulls(grid, 31)

    @pytest.mark.parametrize(
        "grid, n_distinct",
        [
            (_build_grid({"grid": {"tau_max_ns": 3.0, "n_points": 60}}), 30),
            (np.linspace(0.0, 3.0, 61), 61),
        ],
        ids=["mirrored-60", "one-sided-61"],
    )
    def test_oracle_counts_distinct_delays(self, grid, n_distinct):
        self.check_chance_pulls(grid, n_distinct)

    @pytest.mark.parametrize("n_points", [60, 61])
    def test_each_delay_sampled_once(self, tmp_path, monkeypatch, n_points):
        sampled = []
        original = dk.montecarlo._phase_chunks

        def recording(emitters, omegas, du, *args):
            sampled.append(du.size)
            return original(emitters, omegas, du, *args)

        monkeypatch.setattr(dk.montecarlo, "_phase_chunks", recording)
        config = self.simulate_config()
        config["grid"]["n_points"] = n_points
        del config["simulate"]["coincidences"]
        path = write_yaml(tmp_path / "sim.yaml", config)
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", path, "--out", str(out)) == 0
        assert set(sampled) == {(n_points + 1) // 2}
        rows = [line.split("\t") for line in (out / "mc_curve.tsv").read_text().splitlines()]
        rows = [row for row in rows if not row[0].startswith("#")]
        assert len(rows) == n_points
        for row, mirror in zip(rows, rows[::-1]):
            assert float(row[0]) == -float(mirror[0])
            assert row[1:] == mirror[1:]

    def test_reruns_byte_identical(self, tmp_path):
        path = write_yaml(tmp_path / "sim.yaml", self.simulate_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("simulate", "--config", path, "--out", str(out_a)) == 0
        assert run_cli("simulate", "--config", path, "--out", str(out_b)) == 0
        for name in ("mc_curve.tsv", "histogram.tsv", "normalized.tsv", "oracle_report.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_config_echo_reproduces_run(self, tmp_path):
        path = write_yaml(tmp_path / "sim.yaml", self.simulate_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("simulate", "--config", path, "--out", str(out_a)) == 0
        assert run_cli("simulate", "--config", str(out_a / "config.yaml"), "--out", str(out_b)) == 0
        assert (out_a / "histogram.tsv").read_bytes() == (out_b / "histogram.tsv").read_bytes()

    def test_seed_flag_overrides(self, tmp_path):
        path = write_yaml(tmp_path / "sim.yaml", self.simulate_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("simulate", "--config", path, "--out", str(out_a)) == 0
        assert run_cli("simulate", "--config", path, "--seed", "8", "--out", str(out_b)) == 0
        assert (out_a / "histogram.tsv").read_bytes() != (out_b / "histogram.tsv").read_bytes()


class TestCmdFit:
    def make_curves(self, tmp_path):
        grid = np.arange(-11.0, 11.001, 0.01)
        irf = dk.Irf(0.1)
        paths = []
        for k, (n, gamma) in enumerate([(1, 1.9), (2, 2.0), (3, 1.4)]):
            system = dk.identical_system(n, gamma, 2.5, 1.0)
            model = dk.G2Curve(grid, dk.g2_general(system, grid))
            hist = dk.sample_coincidences(model, 100_000, 10.0, irf, dk.RngSeed(600 + k))
            path = tmp_path / f"curve{n}.tsv"
            dk.write_curve(path, dk.normalize_histogram(hist))
            paths.append(path.name)
        return paths

    def test_triple_round_trip_with_anchored_linewidths(self, tmp_path):
        # Anchored-linewidth protocol: one sigma/gamma_pd pair held at its
        # spectroscopy-derived values for the whole set, gamma free per curve.
        paths = self.make_curves(tmp_path)
        config = {
            "version": 1,
            "seed": 5,
            "fit": {
                "model": "ideal",
                "irf_fwhm_ns": 0.1,
                "n_restarts": 2,
                "curves": [
                    {
                        "data": name,
                        "fixed": {"n": n, "delta_ueV": 0.0, "gamma_pd": 2.5, "sigma": 1.0},
                        "free": {
                            "gamma": {"guess": 1.2, "min": 0.05, "max": 10.0},
                            "scale": {"guess": 1.0, "min": 0.9, "max": 1.1},
                        },
                    }
                    for name, n in zip(paths, (1, 2, 3))
                ],
            },
        }
        path = write_yaml(tmp_path / "fit.yaml", config)
        out = tmp_path / "out"
        assert run_cli("fit", "--config", path, "--out", str(out)) == 0
        table = {
            row.split("\t")[0]: float(row.split("\t")[1])
            for row in (out / "fit_params.tsv").read_text().splitlines()[1:]
        }
        for k, truth in enumerate((1.9, 2.0, 1.4)):
            assert abs(table[f"curve{k}.gamma"] / truth - 1) <= 0.15
        assert (out / "overlay_0.tsv").exists()
        assert (out / "fit_report.txt").exists()

    def test_zero_noise_self_fit(self, tmp_path):
        grid = np.linspace(-5, 5, 401)
        system = dk.identical_system(2, 0.7, 2.5, 1.0)
        curve = dk.G2Curve(grid, dk.g2_general(system, grid), np.ones(grid.size))
        dk.write_curve(tmp_path / "exact.tsv", curve)
        config = {
            "version": 1,
            "fit": {
                "model": "ideal",
                "curves": [
                    {
                        "data": "exact.tsv",
                        "fixed": {"n": 2, "delta_ueV": 0.0},
                        "free": {
                            "gamma": {"guess": 0.7, "min": 0.05, "max": 10.0},
                            "gamma_pd": {"guess": 2.5, "min": 0.0, "max": 10.0},
                            "sigma": {"guess": 1.0, "min": 0.01, "max": 5.0},
                        },
                    }
                ],
            },
        }
        path = write_yaml(tmp_path / "fit.yaml", config)
        out = tmp_path / "out"
        assert run_cli("fit", "--config", path, "--out", str(out)) == 0
        rows = dict(
            (row.split("\t")[0], float(row.split("\t")[1]))
            for row in (out / "fit_params.tsv").read_text().splitlines()[1:]
        )
        assert rows["residual_norm"] < 1e-6


    @pytest.mark.parametrize("stderr", ["nan", "inf"])
    def test_non_finite_error_named(self, tmp_path, capsys, stderr):
        # One non-finite stderr is refused before the fit, naming the errors.
        write_fit_curve(tmp_path / "curve.tsv")
        lines = (tmp_path / "curve.tsv").read_text().splitlines()
        lines[50] = lines[50].rsplit("\t", 1)[0] + "\t" + stderr
        (tmp_path / "curve.tsv").write_text("\n".join(lines) + "\n")
        path = write_yaml(tmp_path / "config.yaml", fit_config())
        assert run_cli("fit", "--config", path, "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:parameter: ") and "per-point errors" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("n_free", [0, 1])
    def test_too_few_points_states_the_count_checked(self, tmp_path, capsys, n_free):
        # A curve is checked against 10 points per free parameter, and 10
        # points when none is free; the message states that count.
        tau = np.linspace(-1.0, 1.0, 5)
        curve = dk.G2Curve(tau, 1.0 - 0.5 * np.exp(-np.abs(tau)), np.full(tau.size, 0.01))
        dk.write_curve(tmp_path / "curve.tsv", curve)
        config = fit_config()
        if not n_free:
            config["fit"]["curves"][0]["free"] = {}
        path = write_yaml(tmp_path / "config.yaml", config)
        assert run_cli("fit", "--config", path, "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert f"need >= 10 points for {n_free} free parameters, got 5" in err

    @pytest.mark.parametrize(
        "rows", ["0.0\t1.0\t0.1\n0.1\tx\t0.1\n", "0.0\t1.0\t0.1\n0.1\t1.0\n"]
    )
    def test_malformed_data_file(self, tmp_path, capsys, rows):
        # A non-numeric cell or a ragged row names the file; no traceback.
        (tmp_path / "curve.tsv").write_text("# tau_ns\tg2\tstderr\n" + rows)
        path = write_yaml(tmp_path / "config.yaml", fit_config())
        assert run_cli("fit", "--config", path, "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:parameter: curve file ")
        assert "curve.tsv" in err and "Traceback" not in err


class TestCmdTune:
    def tune_config(self):
        return {
            "version": 1,
            "system": {
                "emitters": [
                    {"energy": E0, "gamma": 0.7, "gamma_pd": 2.5, "sigma": 1.0, "position": 7.0},
                    {"energy": E0 + 540.0, "gamma": 0.7, "gamma_pd": 2.5, "sigma": 1.0, "position": 8.2},
                ]
            },
            "tune": {"targets": [0, 1], "tolerance_ueV": 2.0, "max_exposures": 500},
        }

    def test_pair_alignment_outputs(self, tmp_path):
        path = write_yaml(tmp_path / "tune.yaml", self.tune_config())
        out = tmp_path / "out"
        assert run_cli("tune", "--config", path, "--seed", "9", "--out", str(out)) == 0
        report = dict(
            line.split(" = ") for line in (out / "report.txt").read_text().splitlines()
        )
        assert float(report["max_pairwise_detuning_ueV"]) <= 2.0
        assert report["alive"] == "1"
        for name in ("journal.txt", "spectrum_before.tsv", "spectrum_after.tsv"):
            assert (out / name).exists()
        log = dk.read_journal(out / "journal.txt")
        assert len(log) == int(report["n_exposures"])

    def test_last_journal_line_lists_every_target(self, tmp_path):
        config = self.tune_config()
        config["system"]["emitters"].append(
            {"energy": E0 + 2100.0, "gamma": 0.7, "gamma_pd": 2.5, "sigma": 1.0, "position": 9.5}
        )
        config["tune"]["targets"] = [0, 1, 2]
        path = write_yaml(tmp_path / "tune.yaml", config)
        out = tmp_path / "out"
        assert run_cli("tune", "--config", path, "--seed", "9", "--out", str(out)) == 0
        last = (out / "journal.txt").read_text().splitlines()[-1].split("\t")
        energies = dict(item.split("=") for item in last[4].split(";"))
        assert sorted(int(k) for k in energies) == [0, 1, 2]
        assert len(last[5].split(",")) == 3
        values = [float(v) for v in energies.values()]
        assert max(values) - min(values) <= 0.75 * 2.0

    def test_rerun_byte_identical(self, tmp_path):
        path = write_yaml(tmp_path / "tune.yaml", self.tune_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("tune", "--config", path, "--seed", "9", "--out", str(out_a)) == 0
        assert run_cli("tune", "--config", path, "--seed", "9", "--out", str(out_b)) == 0
        for name in ("journal.txt", "report.txt", "spectrum_after.tsv", "config.yaml"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_red_target_diagnostic(self, tmp_path, capsys):
        config = {
            "version": 1,
            "system": {
                "emitters": [
                    {"energy": E0, "gamma": 0.7, "gamma_pd": 2.5, "sigma": 1.0, "position": 7.0}
                ]
            },
            "tune": {
                "mode": "single",
                "emitter_index": 0,
                "target_ueV": E0 - 1000.0,
                "tolerance_ueV": 5.0,
            },
        }
        path = write_yaml(tmp_path / "tune.yaml", config)
        assert run_cli("tune", "--config", path, "--out", str(tmp_path / "out")) == 2
        assert "error:unreachable" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "meter, step",
        [({"instrument": "grating"}, 12.5), ({"resolution_fwhm_ueV": 1.2}, 0.3)],
    )
    def test_spectrum_grid_follows_meter(self, tmp_path, meter, step):
        # A grating line needs +-530 ueV of spectrum and a 1.2 ueV
        # resolution a step of at most 0.4 ueV; a fixed 150 ueV margin at
        # 0.6 ueV steps gave neither.
        config = self.tune_config()
        config["tune"]["meter"] = meter
        path = write_yaml(tmp_path / "tune.yaml", config)
        out = tmp_path / "out"
        assert run_cli("tune", "--config", path, "--seed", "9", "--out", str(out)) == 0
        report = dict(
            line.split(" = ") for line in (out / "report.txt").read_text().splitlines()
        )
        assert report["alive"] == "1"
        assert float(report["max_pairwise_detuning_ueV"]) <= 2.0
        for name in ("spectrum_before.tsv", "spectrum_after.tsv"):
            spectrum = dk.read_spectrum(out / name)
            assert spectrum.instrument.kind == meter.get("instrument", "fabry_perot")
            assert spectrum.step == pytest.approx(step)

    def test_already_resonant_empty_journal(self, tmp_path):
        config = self.tune_config()
        config["system"]["emitters"][1]["energy"] = E0 + 0.3
        path = write_yaml(tmp_path / "tune.yaml", config)
        out = tmp_path / "out"
        assert run_cli("tune", "--config", path, "--seed", "3", "--out", str(out)) == 0
        assert len(dk.read_journal(out / "journal.txt")) == 0


def single_tune_config():
    config = TestCmdTune().tune_config()
    config["tune"] = {
        "mode": "single",
        "emitter_index": 0,
        "target_ueV": E0 + 100.0,
        "tolerance_ueV": 2.0,
        "max_exposures": 50,
    }
    return config


class TestCmdTuneValidation:
    tune_config = TestCmdTune.tune_config

    def run_expecting_config_error(self, tmp_path, capsys, config):
        path = write_yaml(tmp_path / "tune.yaml", config)
        assert run_cli("tune", "--config", path, "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:config:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("targets", [[0, 5], [-1, 0], [1, 1], [0, "one"]])
    def test_bad_align_targets(self, tmp_path, capsys, targets):
        config = self.tune_config()
        config["tune"]["targets"] = targets
        self.run_expecting_config_error(tmp_path, capsys, config)

    @pytest.mark.parametrize("index", [2, -1])
    def test_bad_single_emitter_index(self, tmp_path, capsys, index):
        config = self.tune_config()
        config["tune"] = {
            "mode": "single",
            "emitter_index": index,
            "target_ueV": E0 + 100.0,
            "tolerance_ueV": 2.0,
        }
        self.run_expecting_config_error(tmp_path, capsys, config)

    @pytest.mark.parametrize(
        "section, values",
        [
            ("meter", {"snr": "fast"}),
            ("meter", {"half_window_ueV": "wide"}),
            ("meter", {"step_ueV": 0.0}),
            ("meter", {"resolution_fwhm_ueV": -2.4}),
            ("plant", {"step_noise": "loud"}),
            ("meter", {"instrument": "prism"}),
        ],
    )
    def test_non_numeric_tune_values(self, tmp_path, capsys, section, values):
        config = self.tune_config()
        config["tune"][section] = values
        self.run_expecting_config_error(tmp_path, capsys, config)

    def test_infeasible_window_rejected(self, tmp_path, capsys):
        # The README emitters' Fabry-Perot lines are 12.19 ueV wide: a scan
        # must span +-121.9 ueV, which 60 ueV cannot.
        config = self.tune_config()
        config["tune"]["meter"] = {"half_window_ueV": 60.0}
        self.run_expecting_config_error(tmp_path, capsys, config)

    def test_configured_window_honoured(self, tmp_path, monkeypatch):
        spans = []
        original = dk.tuning.synth_spectrum

        def recording(system, instrument, grid, *args, **kwargs):
            spans.append(grid[-1] - grid[0])
            return original(system, instrument, grid, *args, **kwargs)

        monkeypatch.setattr(dk.tuning, "synth_spectrum", recording)
        config = self.tune_config()
        config["tune"]["meter"] = {"half_window_ueV": 180.0}
        path = write_yaml(tmp_path / "tune.yaml", config)
        out = tmp_path / "out"
        assert run_cli("tune", "--config", path, "--seed", "9", "--out", str(out)) == 0
        log = dk.read_journal(out / "journal.txt")
        assert len(log) > 0
        assert all(record.rescans == 0 for record in log)
        assert len(spans) >= sum(len(record.spectra) for record in log)
        np.testing.assert_allclose(spans, 360.0, atol=1e-6)

    @pytest.mark.parametrize(
        "mode, keys",
        [
            ("align", {"target_ueV": "abc", "emitter_index": "x"}),
            ("single", {"targets": "junk"}),
        ],
    )
    def test_other_mode_keys_rejected(self, tmp_path, capsys, mode, keys):
        # Each mode names its targets with its own keys; the other mode's are unknown.
        config = single_tune_config() if mode == "single" else self.tune_config()
        config["tune"].update(keys)
        self.run_expecting_config_error(tmp_path, capsys, config)

    def test_negative_budget_rejected_before_any_output(self, tmp_path, capsys):
        config = self.tune_config()
        config["tune"]["max_exposures"] = -3
        path = write_yaml(tmp_path / "tune.yaml", config)
        out = tmp_path / "out"
        assert run_cli("tune", "--config", path, "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error:config:")
        assert list(out.glob("*")) == []
        # 0 stays valid: an already-resonant pair converges with no pulse.
        config["system"]["emitters"][1]["energy"] = E0 + 0.3
        config["tune"]["max_exposures"] = 0
        path = write_yaml(tmp_path / "tune.yaml", config)
        assert run_cli("tune", "--config", path, "--seed", "3", "--out", str(out)) == 0


VALID_CONFIGS = {
    "model": model_config(),
    "simulate": TestCmdSimulate().simulate_config(),
    "fit": fit_config(),
    "tune-align": TestCmdTune().tune_config(),
    "tune-single": single_tune_config(),
}
VALID_CONFIGS["tune-align"]["tune"]["meter"] = {"instrument": "grating", "snr": 150.0}
VALID_CONFIGS["tune-align"]["tune"]["plant"] = {"step_noise": 0.5}
VALID_CONFIGS["fit"]["fit"]["shared"] = {"sigma": {"guess": 1.0, "min": 0.01, "max": 5.0}}


def value_paths(node, path=()):
    """Key/index path of every value below ``node``, at any depth."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from value_paths(value, path + (key,))


FUZZ_CASES = [
    (name, path) for name, config in VALID_CONFIGS.items() for path in value_paths(config)
]
FUZZ_VALUES = [None, "x", True, float("nan"), float("inf"), -1, 0, 1.5, [], {}, [float("nan")]]


class TestParseConfig:
    """``parse_config`` on its own: no file is read and no work is done."""

    @pytest.mark.parametrize("name", sorted(VALID_CONFIGS))
    def test_valid_configs_parse(self, name):
        parse_config(copy.deepcopy(VALID_CONFIGS[name]))

    @settings(max_examples=200, deadline=None)
    @given(case=st.sampled_from(FUZZ_CASES), value=st.sampled_from(FUZZ_VALUES))
    def test_one_bad_value_returns_or_raises_dotkit_error(self, case, value):
        name, path = case
        config = copy.deepcopy(VALID_CONFIGS[name])
        target = config
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = copy.deepcopy(value)
        try:
            parse_config(config)
        except dk.DotkitError:
            pass

    def test_null_tune_mode_means_align(self):
        config = copy.deepcopy(VALID_CONFIGS["tune-align"])
        config["tune"]["mode"] = None
        assert parse_config(config)["tune"]["mode"] == "align"

    def test_readme_config_block_parses(self):
        # The README's annotated config is the schema's documentation: it
        # must parse, so that the two cannot drift apart.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("### Configuration format (version 1)", 1)[1]
        block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
        config = parse_config(yaml.safe_load(block))
        assert set(config) >= {"system", "grid", "model", "simulate", "fit", "tune"}
