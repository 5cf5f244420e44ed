import copy
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from latticeball import cli, fourier
from latticeball.basis import identity_basis
from latticeball.cli import main

# exit codes under test
OK, USAGE, CONFIG, CALIBRATION, RESOLUTION = 0, 2, 3, 4, 5


def run(tmp_path, command, cfg, out=None, seed=None, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(path)]
    if out is not None:
        argv += ["--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return main(argv)


def run_process(tmp_path, command, cfg):
    """The CLI run in a process of its own, so its stderr holds any
    warning numpy prints."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "latticeball.cli", command, "--config",
         str(path)], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src))


@pytest.mark.parametrize("command, cfg, code, message", [
    ("theorem1", {"n": 2, "t_grid": [4, 6, 9], "samples": 2,
                  "family": {"delta": 1e300, "det_floor": 0.3}},
     CONFIG, "config error: delta 1e+300 too large"),
    ("vdc", {"phi": [0.0, 1.0], "psi0": [1.0], "a": -1e308, "b": 1e308,
             "t_grid": [5.0]},
     CONFIG, "config error: interval a = -1e+308, b = 1e+308 too wide"),
    ("cn", {"n": 700}, CONFIG, "config error: n = 700 too large"),
    ("vdc", {"phi": [0, 1, 0, 1], "psi0": [1], "a": -1e200, "b": 1e200,
             "t_grid": [1, 2, 4]},
     CONFIG, "config error: phi is not finite"),
    ("vdc", {"phi": [0, 1e7], "psi0": [1], "a": -1e300, "b": 1e300,
             "t_grid": [100]},
     RESOLUTION, "resolution error: t = 100 needs inf quadrature nodes"),
    ("vdc", {"phi": [0, 1], "psi0": [1], "a": 0, "b": 1e6, "t_grid": [1e4]},
     RESOLUTION,
     "resolution error: t = 10000 needs 1.70e+10 quadrature nodes"),
], ids=["family-delta", "vdc-interval", "cn-dimension", "vdc-phase",
        "vdc-cycles", "vdc-node-budget"])
def test_float_overflow_is_one_stderr_line(tmp_path, command, cfg, code,
                                           message):
    """A value whose arithmetic overflows floats exits 3, or 5 where it
    sets a quadrature's node count, as does a vdc t past its node budget,
    with one stderr line that names it and no numpy warning before it."""
    done = run_process(tmp_path, command, cfg)
    assert done.returncode == code
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message), lines


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestCount:
    def test_identity_unit_ball(self, tmp_path, capsys):
        code = run(tmp_path, "count", {"basis": "identity", "n": 3, "t": 1})
        assert code == OK
        out = json.loads(capsys.readouterr().out)
        assert out["counts"] == [7]

    def test_zero_radius_grid(self, tmp_path, capsys):
        code = run(tmp_path, "count",
                   {"basis": "identity", "n": 2, "t_grid": [0]})
        assert code == OK
        out = json.loads(capsys.readouterr().out)
        assert out["counts"] == [1]

    def test_output_files(self, tmp_path):
        out = tmp_path / "run"
        code = run(tmp_path, "count",
                   {"basis": "identity", "n": 3, "t_grid": [1, 2]}, out=out)
        assert code == OK
        lines = (out / "data.csv").read_text().strip().splitlines()
        assert lines[0] == "t,count,volume,remainder"
        assert len(lines) == 3
        manifest = read_json(out / "manifest.json")
        assert manifest["command"] == "count"
        assert "wall_time_s" in manifest
        assert sorted(manifest["outputs"]) == ["data.csv", "result.json"]

    def test_rerun_byte_identical(self, tmp_path):
        cfg = {"basis": {"n": 2, "columns": [[1.0, 0.0], [0.7, 1.1]]},
               "t_grid": [1, 3, 5]}
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(tmp_path, "count", cfg, out=a) == OK
        assert run(tmp_path, "count", cfg, out=b) == OK
        assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
        assert ((a / "result.json").read_bytes()
                == (b / "result.json").read_bytes())

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["count", "--config",
                     str(tmp_path / "absent.json")]) == USAGE
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["count", "--config", str(path)]) == USAGE

    def test_malformed_basis(self, tmp_path, capsys):
        code = run(tmp_path, "count",
                   {"basis": {"n": 2, "columns": [[1.0], [0.0, 1.0]]},
                    "t": 2})
        assert code == USAGE
        assert "malformed basis" in capsys.readouterr().err

    @pytest.mark.parametrize("basis", [
        {"columns": [[1.0, 0.0], [0.0, 1.0]]},
        {"n": 2},
        {"n": 3, "columns": [[1.0, 0.0], [0.0, 1.0]]},
        {"n": 2, "columns": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
        {"n": 2, "columns": [[1.0, 2.0], [2.0, 4.0]]},
        "square",
    ], ids=["no-n", "no-columns", "wrong-n", "non-square", "singular",
            "string"])
    def test_malformed_basis_objects(self, tmp_path, capsys, basis):
        assert run(tmp_path, "count", {"basis": basis, "t": 2}) == USAGE
        assert "malformed basis" in capsys.readouterr().err

    def test_basis_dimension_read_as_number(self, tmp_path, capsys):
        cfg = {"basis": {"n": 2.0, "columns": [[1.0, 0.0], [0.0, 1.0]]},
               "t": 1}
        assert run(tmp_path, "count", cfg) == OK
        assert json.loads(capsys.readouterr().out)["counts"] == [5]

    def test_missing_radius(self, tmp_path, capsys):
        assert run(tmp_path, "count",
                   {"basis": "identity", "n": 2}) == CONFIG

    @pytest.mark.parametrize("cfg, code, message", [
        ({"basis": "identity", "n": 3, "t": 1e200}, CONFIG,
         "config error: count would exceed the 64-bit range"),
        ({"basis": {"n": 2, "columns": [[1e200, 0], [0, 1e200]]}, "t": 1},
         USAGE, "input error: malformed basis"),
        ({"basis": {"n": 2, "columns": [[1e-20, 0], [0, 1e20]]}, "t": 1},
         CONFIG, "config error: count would exceed 2**53"),
        ({"basis": {"n": 2, "columns": [[1e-200, 0], [0, 1e200]]}, "t": 1},
         CONFIG, "config error: Gram matrix overflows"),
        # diag(2^-39, 2^-11, 2^-11): summed over its many enumeration
        # passes in int64, the count of about 9.66e18 would wrap
        ({"basis": {"n": 3, "columns": [[2.0 ** -39, 0, 0],
                                        [0, 2.0 ** -11, 0],
                                        [0, 0, 2.0 ** -11]]},
          "t_grid": [1]},
         CONFIG, "config error: count would exceed 2**53"),
        # diag(2^-39, 2^-11, 2^-10.2): about 5.5e18, past 2**53 unwrapped
        ({"basis": {"n": 3, "columns": [[2.0 ** -39, 0, 0],
                                        [0, 2.0 ** -11, 0],
                                        [0, 0, 2.0 ** -10.2]]},
          "t_grid": [1]},
         CONFIG, "config error: count would exceed 2**53"),
    ], ids=["radius", "basis", "thin-basis", "gram", "wrapping-passes",
            "passes-past-2-53"])
    def test_overflow_is_one_stderr_line(self, tmp_path, cfg, code, message):
        """A radius or a basis too large for floats exits with one error
        line on stderr, and no numpy warning before it."""
        done = run_process(tmp_path, "count", cfg)
        assert done.returncode == code
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(message), lines


class TestTheorem1:
    def test_smoke_run_schema(self, tmp_path):
        out = tmp_path / "run"
        cfg = {"n": 3, "t_grid": [4, 6, 9], "samples": 2, "seed": 5,
               "family": {"delta": 0.05, "det_floor": 0.3}}
        assert run(tmp_path, "theorem1", cfg, out=out) == OK
        lines = (out / "data.csv").read_text().strip().splitlines()
        assert lines[0] == "t,rms_E,mean_E,var_E,samples"
        assert len(lines) == 4
        result = read_json(out / "result.json")
        assert {"fit", "per_t", "band", "verdict"} <= set(result)

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = {"n": 2, "t_grid": [4, 6, 9], "samples": 3, "seed": 5,
               "family": {"delta": 0.05, "det_floor": 0.3}}
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert run(tmp_path, "theorem1", cfg, out=a) == OK
        assert run(tmp_path, "theorem1", cfg, out=b, seed=5) == OK
        assert run(tmp_path, "theorem1", cfg, out=c, seed=6) == OK
        assert ((a / "data.csv").read_bytes()
                == (b / "data.csv").read_bytes())
        assert ((a / "data.csv").read_bytes()
                != (c / "data.csv").read_bytes())

    @pytest.mark.parametrize("flag, value", [
        (True, 2 ** 64 + 5), (True, -1), (False, 2 ** 64), (False, -3)],
        ids=["flag-past-2-64", "flag-negative", "config-2-64",
             "config-negative"])
    def test_seed_outside_generator_range(self, tmp_path, capsys, flag,
                                          value):
        """Philox keys on the seed modulo 2**64: 2**64 + 5 would repeat
        seed 5, and -1 would repeat 2**64 - 1."""
        if flag:
            code = run(tmp_path, "theorem1", _THEOREM1, seed=value)
        else:
            code = run(tmp_path, "theorem1", dict(_THEOREM1, seed=value))
        assert code == CONFIG
        assert "'seed'" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [[10, 80, 80], [4, 6, 9, 1]],
                             ids=["two-distinct", "t-at-1"])
    def test_unfittable_grid_refused_before_sampling(self, tmp_path, capsys,
                                                     monkeypatch, grid):
        """A grid the slope fit cannot use exits 3 before any sample is
        drawn, not after the whole Monte Carlo."""
        def no_sampling(*args):
            raise AssertionError("mc_stats ran")

        monkeypatch.setattr(cli, "mc_stats", no_sampling)
        assert run(tmp_path, "theorem1", dict(_THEOREM1, t_grid=grid)) == (
            CONFIG)
        assert "t values" in capsys.readouterr().err

    def test_inverted_band_refused_before_sampling(self, tmp_path, capsys,
                                                  monkeypatch):
        """A band whose low end is above its high end would make every
        verdict FAIL; it exits 3 before any sample is drawn."""
        def no_sampling(*args):
            raise AssertionError("mc_stats ran")

        monkeypatch.setattr(cli, "mc_stats", no_sampling)
        assert run(tmp_path, "theorem1", dict(_THEOREM1, band=[0.8, 0.3])) == (
            CONFIG)
        assert "band" in capsys.readouterr().err

    def test_unreachable_det_floor_refused_at_once(self, tmp_path, capsys):
        """A floor above the Hadamard bound of the family's box exits 3
        before any draw, instead of after 1e6 rejections."""
        cfg = dict(_THEOREM1, n=3, family={"delta": 0.1, "det_floor": 5})
        start = time.perf_counter()
        assert run(tmp_path, "theorem1", cfg) == CONFIG
        assert time.perf_counter() - start < 1.0
        assert "det_floor" in capsys.readouterr().err

    def test_bad_family_rejected(self, tmp_path):
        cfg = {"n": 3, "t_grid": [4, 6, 9], "samples": 2,
               "family": {"delta": -0.05, "det_floor": 0.3}}
        assert run(tmp_path, "theorem1", cfg) == CONFIG

    def test_whole_grid_drawn_once(self, tmp_path, monkeypatch):
        """theorem1 draws its samples once for every radius: one
        mc_stats call over the grid, one sample_compact call per sample."""
        draws, blocks = [], []
        sample_compact, mc_stats = cli.sample_compact, cli.mc_stats

        def counted_draw(*args):
            draws.append(args)
            return sample_compact(*args)

        def counted_block(*args):
            blocks.append(args)
            return mc_stats(*args)

        monkeypatch.setattr(cli, "sample_compact", counted_draw)
        monkeypatch.setattr(cli, "mc_stats", counted_block)
        cfg = dict(_THEOREM1, t_grid=[4, 6, 9, 12], samples=5)
        assert run(tmp_path, "theorem1", cfg, out=tmp_path / "run") == OK
        assert len(draws) == 5
        assert len(blocks) == 1

    def test_center_as_basis_object(self, tmp_path):
        family = {"delta": 0.05, "det_floor": 0.3}
        cfg = {"n": 2, "t_grid": [4, 6, 9], "samples": 3, "seed": 5,
               "family": family}
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(tmp_path, "theorem1", cfg, out=a) == OK
        family["center"] = {"n": 2, "columns": [[1.0, 0.0], [0.0, 1.0]]}
        assert run(tmp_path, "theorem1", cfg, out=b) == OK
        assert ((a / "result.json").read_bytes()
                == (b / "result.json").read_bytes())


_FAMILY = {"delta": 0.05, "det_floor": 0.3}
_THEOREM1 = {"n": 2, "t_grid": [4, 6, 9], "samples": 2, "seed": 5,
             "family": _FAMILY}

OSC_BASE = {
    "n": 3, "k": [1, 2, 1], "l": [2, -1, 1], "signs": [1, -1],
    "eta": [0.3, -0.2, 0.5],
    "psi_intervals": [[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]],
    "points_per_period": 10,
}
_VDC = {"phi": [0.0, 1.0], "psi0": [1.0], "a": 0.0, "b": 1.0,
        "t_grid": [5.0]}


@pytest.mark.parametrize("command, cfg, code, message", [
    ("count", {"basis": "identity", "n": 2, "t_grid": 5}, USAGE, "t_grid"),
    ("theorem1", dict(_THEOREM1, t_grid=5), USAGE, "t_grid"),
    ("theorem1", dict(_THEOREM1, family=3), USAGE, "family"),
    ("theorem1", dict(_THEOREM1, family=dict(
        _FAMILY, center={"n": 3, "columns": [[1, 0, 0], [0, 1, 0],
                                             [0, 0, 1]]})),
     USAGE, "dimension"),
    ("theorem1", dict(_THEOREM1, band=0.5), USAGE, "band"),
    ("theorem1", dict(_THEOREM1, band=[0.5]), USAGE, "band"),
    ("vdc", {"phi": 1.0, "psi0": [1.0], "a": 0.0, "b": 1.0,
             "t_grid": [5.0]}, USAGE, "phi"),
    ("sandwich", {"basis": "identity", "n": 2, "t": 2.5, "epsilon": None},
     USAGE, "'epsilon'"),
    ("theorem1", dict(_THEOREM1, n=[3]), USAGE, "'n'"),
    ("theorem1", dict(_THEOREM1, samples=[2]), USAGE, "'samples'"),
    ("count", {"basis": "identity", "n": 2, "t_grid": [4.0, None]}, USAGE,
     "'t_grid[1]'"),
    ("count", {"basis": "identity", "n": 2, "t": "far"}, CONFIG, "'t'"),
    ("vdc", dict(_VDC, phi=[]), CONFIG, "phi"),
    ("count", {"basis": "identity", "n": 2.9, "t": 2}, CONFIG, "'n'"),
    ("theorem1", dict(_THEOREM1, samples=5.7), CONFIG, "'samples'"),
    ("oscint", dict(OSC_BASE, t_grid=[8.0], hessian="no"), USAGE,
     "'hessian'"),
    ("fourier", {"n": 3, "s_max": math.nan}, CONFIG, "finite"),
    ("cn", {"n": True}, USAGE, "'n'"),
    ("theorem1", dict(_THEOREM1, seed=True), USAGE, "'seed'"),
    ("oscint", dict(OSC_BASE, t_grid=[1.0], signs=[1.5, -1]), CONFIG,
     "'signs[0]'"),
    ("theorem1", dict(_THEOREM1, t_grid=[4, 4, 4]), CONFIG, "distinct"),
    ("oscint", dict(OSC_BASE, t_grid=[1.0], k=[True, 2, 1]), USAGE,
     "'k[0]'"),
    ("oscint", dict(OSC_BASE, t_grid=[1.0],
                    psi_intervals=[[1.0, 2.0], [1.0, 2.0], [1.0, None]]),
     USAGE, "'psi_intervals[2][1]'"),
    ("count", {"basis": {"n": 2, "columns": [[True, 0], [0, 1]]}, "t": 2},
     USAGE, "'basis.columns[0][0]'"),
    ("oscint", dict(OSC_BASE, t_grid=[1.0], eta=[0.3, "nan", 0.5]), CONFIG,
     "'eta[1]'"),
    ("count", {"basis": "identity", "n": 2, "t": 10 ** 400}, CONFIG, "'t'"),
    ("count", {"basis": "identity", "n": 2, "t": 1, "t_grid": [2, 3]}, USAGE,
     "'t' and 't_grid'"),
    ("theorem1", dict(_THEOREM1, t=4), USAGE, "reads no config key 't'"),
    ("oscint", dict(OSC_BASE, t=8.0, t_grid=[8.0]), USAGE,
     "'t' and 't_grid'"),
    ("vdc", dict(_VDC, t=5.0), USAGE, "'t' and 't_grid'"),
], ids=["count-scalar-t-grid", "theorem1-scalar-t-grid",
        "family-not-object", "center-dimension", "scalar-band",
        "short-band", "scalar-phi", "null-epsilon", "array-n",
        "array-samples", "null-in-t-grid", "string-t", "empty-phi",
        "fractional-n", "fractional-samples", "string-hessian", "nan-s-max",
        "boolean-n", "boolean-seed", "fractional-sign", "repeated-t",
        "boolean-in-k", "null-in-psi-intervals", "boolean-in-columns",
        "nan-string-in-eta", "int-past-float-range", "count-t-and-t-grid",
        "theorem1-t-and-t-grid", "oscint-t-and-t-grid", "vdc-t-and-t-grid"])
def test_malformed_config_shapes(tmp_path, capsys, command, cfg, code,
                                 message):
    assert run(tmp_path, command, cfg) == code
    assert message in capsys.readouterr().err


class TestManifest:
    @pytest.mark.parametrize("command, cfg, seed, expected", [
        ("theorem2", {"n": 3, "t": 2.0, "samples": 20, "seed": 134}, None,
         134),
        ("theorem2", {"n": 3, "t": 2.0, "samples": 20, "seed": 134}, 7, 7),
        ("theorem1", dict(_THEOREM1, seed=None), None, 0),
        ("count", {"basis": "identity", "n": 2, "t": 2}, None, None),
    ], ids=["config-seed", "flag-seed", "default-seed", "draws-nothing"])
    def test_seed_that_ran(self, tmp_path, command, cfg, seed, expected):
        """The manifest records the seed the run drew from, wherever it
        came from, and null for a command that draws nothing."""
        cfg = {k: v for k, v in cfg.items() if v is not None}
        out = tmp_path / "run"
        assert run(tmp_path, command, cfg, out=out, seed=seed) == OK
        manifest = read_json(out / "manifest.json")
        assert manifest["seed"] == expected
        assert manifest["config"] == cfg
        if expected is not None:
            assert read_json(out / "result.json")["seed"] == expected

    def test_dependency_versions(self, tmp_path):
        from importlib import metadata

        out = tmp_path / "run"
        assert run(tmp_path, "cn", {"n": 3}, out=out) == OK
        manifest = read_json(out / "manifest.json")
        assert manifest["dependencies"] == {
            "numpy": metadata.version("numpy")}


class TestOutDirectory:
    @pytest.mark.parametrize("under", [False, True],
                             ids=["existing-file", "path-under-a-file"])
    def test_unusable_out_refused_before_running(self, tmp_path, capsys,
                                                 monkeypatch, under):
        """An --out path that cannot be a directory exits 2 with a
        one-line message, before the experiment runs."""
        def no_run(cfg):
            raise AssertionError("cn ran")

        summary, _, keys = cli._COMMANDS["cn"]
        monkeypatch.setitem(cli._COMMANDS, "cn", (summary, no_run, keys))
        blocker = tmp_path / "taken"
        blocker.write_text("keep")
        out = blocker / "run" if under else blocker
        assert main(["cn", "--out", str(out)]) == USAGE
        err = capsys.readouterr().err
        assert "--out" in err and err.count("\n") == 1
        assert blocker.read_text() == "keep"


class TestConfigKeys:
    @pytest.mark.parametrize("command, cfg, key", [
        ("cn", {"n": 3, "tol": 1e-8}, "tol"),
        ("sandwich", {"basis": "identity", "n": 2, "t": 2.5, "epsilon": 0.1,
                      "tail_target": 1e-3}, "tail_target"),
        ("theorem2", {"n": 3, "t": 3.0, "samples": 10, "ratio_bound": 0.2},
         "ratio_bound"),
        ("vdc", dict(_VDC, grid_points=65), "grid_points"),
        ("oscint", dict(OSC_BASE, t_grid=[1.0], points_per_axis=20),
         "points_per_axis"),
        ("fourier", {"n": 3, "s_grid": [0.0, 1.0]}, "s_grid"),
        ("count", {"basis": "identity", "n": 2, "t": 2.0, "seed": 1}, "seed"),
        ("theorem1", {"n": 2, "t": 4, "samples": 2, "family": _FAMILY}, "t"),
    ], ids=["cn-tol", "sandwich-tail-target", "theorem2-ratio-bound",
            "vdc-grid-points", "oscint-points-per-axis", "fourier-s-grid",
            "count-seed", "theorem1-t"])
    def test_unread_key_refused_before_running(self, tmp_path, capsys,
                                               monkeypatch, command, cfg,
                                               key):
        """A key the subcommand does not read exits 2 naming the key,
        before the experiment runs, rather than being ignored."""
        def no_run(cfg):
            raise AssertionError(f"{command} ran")

        summary, _, keys = cli._COMMANDS[command]
        monkeypatch.setitem(cli._COMMANDS, command, (summary, no_run, keys))
        assert run(tmp_path, command, cfg) == USAGE
        err = capsys.readouterr().err
        assert f"{command} reads no config key '{key}'" in err

    @pytest.mark.parametrize("command, cfg, key", [
        ("theorem1", dict(_THEOREM1, family=dict(_FAMILY, centre="oops")),
         "'family.centre'"),
        ("count", {"basis": {"n": 2, "columns": [[1, 0], [0, 1]]}, "n": 3,
                   "t": 1}, "'n'"),
        ("sandwich", {"basis": {"n": 2, "columns": [[1, 0], [0, 1]],
                                "scale": 2.0}, "t": 2.5, "epsilon": 0.1},
         "'basis.scale'"),
    ], ids=["family-centre", "n-beside-basis", "basis-scale"])
    def test_unread_nested_key_refused(self, tmp_path, capsys, monkeypatch,
                                       command, cfg, key):
        """A nested key nothing reads, or a top-level n that contradicts
        the basis object beside it, exits 2 naming the key instead of
        running on what the other keys say."""
        def no_count(*args):
            raise AssertionError(f"{command} ran")

        monkeypatch.setattr(cli, "mc_stats", no_count)
        monkeypatch.setattr(cli, "count_many", no_count)
        monkeypatch.setattr(cli, "sandwich_check", no_count)
        assert run(tmp_path, command, cfg) == USAGE
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["cn", "--n", "3"], ["cn", "--tol", "1e-8"],
        ["fourier", "--s-max", "4"], ["fourier", "--points", "5"],
        ["count", "--seed", "1"],
    ], ids=["n", "tol", "s-max", "points", "seed-on-count"])
    def test_removed_flags_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == USAGE
        assert "unrecognized arguments" in capsys.readouterr().err


class TestTheorem2:
    def test_small_run_keys(self, tmp_path, capsys):
        cfg = {"n": 3, "t": 3.0, "samples": 400, "seed": 12}
        assert run(tmp_path, "theorem2", cfg) == OK
        out = json.loads(capsys.readouterr().out)
        assert {"var_E", "predicted_var", "var_ratio", "cn",
                "siegel_residual", "verdict"} <= set(out)
        assert out["cn"] == pytest.approx(4.140299545385922, abs=1e-9)

    def test_radius_floor(self, tmp_path):
        assert run(tmp_path, "theorem2",
                   {"n": 3, "t": 1.0, "samples": 10}) == CONFIG

    def test_dimension_must_be_three(self, tmp_path, capsys, monkeypatch):
        def no_draw(config, seed):
            raise AssertionError("a basis was drawn")

        monkeypatch.setattr(cli, "sample_haar_unimodular", no_draw)
        assert run(tmp_path, "theorem2",
                   {"n": 2, "t": 5.0, "samples": 10}) == CONFIG
        assert "n = 3" in capsys.readouterr().err

    def test_biased_sampler_fails_calibration(self, tmp_path, capsys,
                                              monkeypatch):
        # a sampler that always returns Z^3 counts 257 points at t = 4
        # every time, against a Siegel mean of vol + 1 = 269.1 with no
        # spread to excuse it, which trips the mean-count gate
        monkeypatch.setattr(cli, "sample_haar_unimodular",
                            lambda config, seed: identity_basis(3))
        cfg = {"n": 3, "t": 4.0, "samples": 20, "seed": 99}
        assert run(tmp_path, "theorem2", cfg) == CALIBRATION
        assert "CALIBRATION-FAIL" in capsys.readouterr().err


class TestCn:
    def test_config_run(self, tmp_path, capsys):
        assert run(tmp_path, "cn", {"n": 3}) == OK
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == pytest.approx(4.140299545385922, abs=1e-9)
        assert out["tail_bound"] < 1e-10

    def test_missing_dimension(self, capsys):
        assert main(["cn"]) == CONFIG


class TestFourier:
    def test_zero_frequency_value(self, tmp_path, capsys):
        # s = 0 and 1; the value at 0, the unit-ball volume, is the larger
        assert run(tmp_path, "fourier",
                   {"n": 3, "s_max": 1.0, "points": 2}) == OK
        out = json.loads(capsys.readouterr().out)
        assert out["max_abs"] == pytest.approx(4.0 * math.pi / 3.0)

    def test_grid_csv(self, tmp_path):
        out = tmp_path / "run"
        assert run(tmp_path, "fourier",
                   {"n": 2, "s_max": 2.0, "points": 5}, out=out) == OK
        lines = (out / "data.csv").read_text().strip().splitlines()
        assert lines[0] == "s,hat_chi"
        assert len(lines) == 6

    def test_unallocatable_grid_is_a_config_error(self, tmp_path, capsys):
        """10**17 points need 800 PB, more than a 47-bit address space
        holds, so the allocation fails whatever the overcommit setting:
        exit 3 with a one-line message, not a traceback."""
        assert run(tmp_path, "fourier",
                   {"n": 3, "s_max": 1.0, "points": 10 ** 17}) == CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_overflowing_phase_is_one_stderr_line(self, tmp_path, n):
        """2 pi s_max = inf would print numpy warnings and write NaN, which
        is not JSON: s_max is refused with one line and exit 3."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": n, "s_max": 1e308, "points": 5}))
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "latticeball.cli", "fourier", "--config",
             str(path)], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src))
        assert done.returncode == CONFIG
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:")
        assert "'s_max'" in lines[0]
        assert done.stdout == ""

    def test_largest_finite_phase_runs_quietly(self, tmp_path, capsys):
        """Just below the limit every value is finite, so the output is
        JSON, and no overflow warning is printed."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(tmp_path, "fourier",
                       {"n": 3, "s_max": 2.8e307, "points": 5}) == OK
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert out["max_abs"] == pytest.approx(4.0 * math.pi / 3.0)
        assert captured.err == ""


class TestSandwich:
    def test_identity_case(self, tmp_path, capsys):
        cfg = {"basis": "identity", "n": 3, "t": 3.001, "epsilon": 0.1}
        assert run(tmp_path, "sandwich", cfg) == OK
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "holds"

    def test_oversized_epsilon(self, tmp_path):
        cfg = {"basis": "identity", "n": 3, "t": 1.0, "epsilon": 0.9}
        assert run(tmp_path, "sandwich", cfg) == CONFIG

    @pytest.mark.parametrize("n, fields, message", [
        (2, {"epsilon": "nan"}, "finite"),
        (3, {"epsilon": -0.1}, "positive"),
        (2, {"t": "inf"}, "finite"),
    ], ids=["nan-epsilon", "negative-epsilon", "infinite-t"])
    def test_never_converging_inputs_rejected(self, tmp_path, capsys,
                                               monkeypatch, n, fields,
                                               message):
        """The early stop can never fire on these inputs, so they are
        refused before a single shell is built."""
        def no_shells(*args):
            raise AssertionError("a Poisson shell was built")

        monkeypatch.setattr(fourier, "_block", no_shells)
        cfg = dict({"basis": "identity", "n": n, "t": 2.5, "epsilon": 0.1},
                   **fields)
        assert run(tmp_path, "sandwich", cfg) == CONFIG
        assert message in capsys.readouterr().err


    def test_epsilon_too_small_for_the_tail_refused(self, tmp_path, capsys,
                                                     monkeypatch):
        """Below about 7.5e-39 the mollifier's tail bound (4/(pi eps))^8
        overflows, so such an epsilon is refused before the exact count."""
        def no_count(*args):
            raise AssertionError("the exact count was made")

        monkeypatch.setattr(fourier, "count_points", no_count)
        cfg = {"basis": "identity", "n": 2, "t": 2.5, "epsilon": 1e-300}
        assert run(tmp_path, "sandwich", cfg) == CONFIG
        err = capsys.readouterr().err
        assert "config error: epsilon 1e-300 below" in err


class TestOscint:
    def test_values_csv(self, tmp_path):
        out = tmp_path / "run"
        cfg = dict(OSC_BASE, t_grid=[1.0, 2.0])
        assert run(tmp_path, "oscint", cfg, out=out) == OK
        lines = (out / "data.csv").read_text().strip().splitlines()
        assert lines[0] == "t,real,imag,abs"
        assert len(lines) == 3

    def test_hessian_report_bound_monotone(self, tmp_path, capsys):
        cfg = dict(OSC_BASE, t_grid=[8.0, 32.0], hessian=True)
        assert run(tmp_path, "oscint", cfg) == OK
        out = json.loads(capsys.readouterr().out)
        assert out["bound"][1] < out["bound"][0]

    def test_resolution_exhaustion(self, tmp_path, capsys):
        cfg = dict(OSC_BASE, t_grid=[1e6])
        assert run(tmp_path, "oscint", cfg) == RESOLUTION

    def test_malformed_spec(self, tmp_path):
        cfg = dict(OSC_BASE, k=[0, 0, 0], t_grid=[1.0])
        assert run(tmp_path, "oscint", cfg) == USAGE

    @pytest.mark.parametrize("ppp", [0, -5])
    @pytest.mark.parametrize("hessian", [False, True])
    def test_nonpositive_points_per_period(self, tmp_path, capsys, ppp,
                                           hessian):
        cfg = dict(OSC_BASE, t_grid=[1.0, 2.0], points_per_period=ppp,
                   hessian=hessian)
        assert run(tmp_path, "oscint", cfg) == CONFIG
        assert "points_per_period" in capsys.readouterr().err


class TestVdc:
    def test_polynomial_preset(self, tmp_path, capsys):
        cfg = {"phi": [0.0, 1.0], "psi0": [1.0], "a": 0.0, "b": 1.0,
               "t_grid": [5.0, 50.0]}
        assert run(tmp_path, "vdc", cfg) == OK
        out = json.loads(capsys.readouterr().out)
        assert out["max_ratio"] <= 2.0 + 1e-9
        assert out["c0"] == pytest.approx(1.0)

    def test_non_monotone_rejected(self, tmp_path):
        cfg = {"phi": [0.0, 0.0, 0.0, 1.0, -1.0], "psi0": [1.0],
               "a": 0.0, "b": 2.0, "t_grid": [5.0]}
        assert run(tmp_path, "vdc", cfg) == CONFIG


class TestBundledConfigs:
    def test_every_bundled_config_parses(self):
        import pathlib
        root = pathlib.Path(__file__).resolve().parents[1] / "configs"
        files = sorted(root.glob("*.json"))
        assert len(files) >= 10
        for f in files:
            json.loads(f.read_text())


# Small valid configs, one or two per subcommand, whose every number is
# replaced in turn by the fuzz test below.
_FUZZ_BASES = [
    ("count", {"basis": {"n": 2, "columns": [[1.0, 0.0], [0.7, 1.1]]},
               "t_grid": [1.0, 2.0]}),
    ("count", {"basis": "identity", "n": 2, "t": 2.0}),
    ("theorem1", dict(_THEOREM1, band=[0.3, 0.8], family=dict(
        _FAMILY, center={"n": 2, "columns": [[1.0, 0.0], [0.0, 1.0]]}))),
    ("theorem2", {"n": 3, "t": 3.0, "samples": 10, "seed": 1}),
    ("cn", {"n": 3}),
    ("fourier", {"n": 2, "s_max": 2.0, "points": 5}),
    ("sandwich", {"basis": "identity", "n": 2, "t": 2.5, "epsilon": 0.1}),
    ("oscint", dict(OSC_BASE, t_grid=[1.0])),
    ("vdc", _VDC),
]


def _number_positions(value, path=()):
    """(path, is_array) for every number of a config and every array
    that holds numbers or arrays."""
    if isinstance(value, dict):
        for key, v in value.items():
            yield from _number_positions(v, path + (key,))
    elif isinstance(value, list):
        yield path, True
        for i, v in enumerate(value):
            yield from _number_positions(v, path + (i,))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path, False


def _leaf_key(path):
    """The name the CLI gives a position, e.g. 'basis.columns[0][1]'."""
    key = ""
    for part in path:
        if isinstance(part, int):
            key += f"[{part}]"
        else:
            key += f".{part}" if key else part
    return key


def _not_a_number(text):
    try:
        float(text)
    except ValueError:
        return True
    return False


_FUZZ_CASES = [(command, cfg, path, is_array)
               for command, cfg in _FUZZ_BASES
               for path, is_array in _number_positions(cfg)]
_OBJECTS = st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)
# malformed where a number belongs (exit 2)
_NOT_SCALARS = st.one_of(st.booleans(), st.none(), _OBJECTS,
                         st.lists(st.floats(allow_nan=False), max_size=3))
# a scalar that is no finite number (exit 3)
_NOT_NUMBERS = st.one_of(
    st.text(max_size=8).filter(_not_a_number),
    st.sampled_from([math.nan, math.inf, -math.inf, "nan", "-Infinity"]))
# anything but an array where an array belongs (exit 2)
_NOT_ARRAYS = st.one_of(st.booleans(), st.none(), _OBJECTS, st.floats(),
                        st.integers(), st.text(max_size=8))


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(_FUZZ_CASES), data=st.data())
def test_fuzzed_config_leaf(tmp_path, capsys, case, data):
    """One number (or array of numbers) of a valid config is replaced by
    a malformed value: the run ends in exit 2 or 3, never a traceback,
    and the message names the position."""
    command, cfg, path, is_array = case
    if is_array:
        value, code = data.draw(_NOT_ARRAYS), USAGE
    else:
        value, code = data.draw(st.one_of(
            _NOT_SCALARS.map(lambda v: (v, USAGE)),
            _NOT_NUMBERS.map(lambda v: (v, CONFIG))))
    cfg = copy.deepcopy(cfg)
    target = cfg
    for part in path[:-1]:
        target = target[part]
    target[path[-1]] = value
    capsys.readouterr()
    assert run(tmp_path, command, cfg) == code
    assert f"'{_leaf_key(path)}'" in capsys.readouterr().err
