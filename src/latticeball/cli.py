"""Command-line front end.

Every subcommand reads a JSON config, runs one experiment, and emits a
JSON result.  A config key the subcommand does not read, at the top
level or inside a family or basis object, is refused before the
experiment runs; --seed, on theorem1 and theorem2, overrides
the config's seed.  With --out DIR the result goes to DIR/result.json,
grid-shaped data additionally to DIR/data.csv, and a run manifest to
DIR/manifest.json.  Without --out the result JSON is printed to stdout.

Result and data files are deterministic for a fixed config and seed;
the manifest carries wall-clock time and is the one file that differs
between reruns.

Exit codes: 0 success, 2 bad invocation, unreadable config, a config
key the subcommand does not read, a top-level n that contradicts the
basis object beside it or an --out path that cannot be a directory,
3 config values that fail validation or ask for an array too large to
allocate, 4 calibration failure, 5 quadrature resolution failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .basis import LatticeBasis, identity_basis
from .counting import ball_volume, count_many
from .fourier import hat_chi_ball, sandwich_check
from .meanvalue import (CalibrationError, check_fit_grid, compute_cn,
                        fit_scaling_exponent, mc_stats, siegel_calibration,
                        variance_prediction)
from .oscillatory import (OscillatorySpec, I_kl, ResolutionError,
                          hessian_bound_check, vdc_check)
from .sampling import (CompactFamilySpec, HaarSamplerConfig,
                       RejectionBudgetError, Seed, sample_compact,
                       sample_haar_unimodular)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_CALIBRATION = 4
EXIT_RESOLUTION = 5


class InputError(ValueError):
    """Structurally malformed input payload (basis, spec, grid)."""


class ConfigError(ValueError):
    """A config value that parses but fails validation."""


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise FileNotFoundError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FileNotFoundError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise FileNotFoundError("config must be a JSON object")
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing {key!r}")
    return cfg[key]


def _number(value, key: str, kind=float):
    """A config number as ``kind`` (float or int).  A non-scalar (array,
    object, null) is malformed input; a scalar that does not convert, is
    not finite, or is not integral where an int is asked for fails
    validation."""
    if isinstance(value, bool):
        # JSON true/false: float() would read them as 1 and 0
        raise InputError(f"{key!r} must be a number, not {value!r}")
    if kind is int and isinstance(value, int):
        # as given: float() would round a seed above 2**53
        return int(value)
    try:
        x = float(value)
    except TypeError as exc:
        raise InputError(f"{key!r} must be a number") from exc
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{key!r}: {exc}") from exc
    if not math.isfinite(x):
        raise ConfigError(f"{key!r} must be finite, not {value!r}")
    if kind is int:
        if not x.is_integer():
            raise ConfigError(f"{key!r} must be an integer, not {value!r}")
        return int(x)
    return x


def _array(value, key: str, kind=float, depth: int = 1) -> list:
    """A JSON array nested ``depth`` deep with every entry read through
    _number, as nested lists; any other shape is malformed."""
    if not isinstance(value, list):
        raise InputError(f"{key!r} must be an array")
    return [_number(v, f"{key}[{i}]", kind) if depth == 1
            else _array(v, f"{key}[{i}]", kind, depth - 1)
            for i, v in enumerate(value)]


def _refuse_unread(obj: dict, keys: set, key: str) -> None:
    """Refuse a key of the config object at ``key`` outside ``keys``."""
    unread = sorted(obj.keys() - keys)
    if unread:
        names = ", ".join(repr(f"{key}.{name}") for name in unread)
        raise InputError(f"config key {names} is not read")


def _parse_basis(spec, cfg: dict, key: str) -> LatticeBasis:
    """A basis given as "identity" (sized by the config's "n") or as a
    basis object {"n": ..., "columns": [...]}."""
    if spec == "identity":
        return identity_basis(_number(_require(cfg, "n"), "n", int))
    if not isinstance(spec, dict) or not {"n", "columns"} <= spec.keys():
        raise InputError(f"malformed basis: {key!r} must be 'identity' or "
                         '{"n": int, "columns": [[...], ...]}')
    _refuse_unread(spec, {"n", "columns"}, key)
    n = _number(spec["n"], f"{key}.n", int)
    columns = _array(spec["columns"], f"{key}.columns", depth=2)
    if len(columns) != n:
        raise InputError(f"malformed basis: {key!r} has {len(columns)} "
                         f"columns, not n = {n}")
    try:
        return LatticeBasis(np.array(columns).T)
    except ValueError as exc:
        raise InputError(f"malformed basis: {exc}") from exc


def _config_basis(cfg: dict) -> LatticeBasis:
    """The "basis" of count and sandwich; a top-level "n" beside it must
    be the basis's dimension."""
    basis = _parse_basis(_require(cfg, "basis"), cfg, "basis")
    if "n" in cfg and _number(cfg["n"], "n", int) != basis.n:
        raise InputError(f"'n' is {cfg['n']!r} but 'basis' has dimension "
                         f"{basis.n}")
    return basis


def _t_grid_from_config(cfg: dict) -> list:
    """The t grid of exactly one of "t" or "t_grid"."""
    if "t" in cfg and "t_grid" in cfg:
        raise InputError("config gives both 't' and 't_grid'; give exactly "
                         "one of them")
    if "t_grid" in cfg:
        grid = _array(cfg["t_grid"], "t_grid")
    elif "t" in cfg:
        grid = [_number(cfg["t"], "t")]
    else:
        raise ConfigError("config needs 't' or 't_grid'")
    if not grid:
        raise ConfigError("t_grid is empty")
    return grid


def _seed(cfg: dict) -> int:
    seed = _number(cfg.get("seed", 0), "seed", int)
    # the generator refuses a key word outside [0, 2**64); refusing it
    # here makes it a config error instead of a traceback
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"'seed' must be in [0, 2**64), not {seed}")
    return seed


# ---------------------------------------------------------------------------
# Subcommand bodies: each returns (result_dict, csv_payload or None)
# ---------------------------------------------------------------------------


def _run_count(cfg: dict):
    basis = _config_basis(cfg)
    grid = sorted(_t_grid_from_config(cfg))
    counts = count_many([basis], grid)[0].tolist()
    volumes = [ball_volume(basis.n, t, basis.det) for t in grid]
    remainders = [c - v for c, v in zip(counts, volumes)]
    out = dict(n=basis.n, det=basis.det, t_grid=grid, counts=counts,
               volumes=volumes, remainders=remainders)
    rows = list(zip(grid, counts, volumes, remainders))
    return out, (("t", "count", "volume", "remainder"), rows)


def _run_theorem1(cfg: dict):
    n = _number(_require(cfg, "n"), "n", int)
    grid = sorted(_array(_require(cfg, "t_grid"), "t_grid"))
    # refuse a grid the fit cannot use before the Monte Carlo runs
    check_fit_grid(grid)
    samples = _number(_require(cfg, "samples"), "samples", int)
    master = _seed(cfg)
    fam = _require(cfg, "family")
    if not isinstance(fam, dict):
        raise InputError("family must be an object")
    _refuse_unread(fam, {"center", "delta", "det_floor"}, "family")
    center = _parse_basis(fam.get("center", "identity"), cfg, "family.center")
    if center.n != n:
        raise InputError(f"family center has dimension {center.n}, not {n}")
    family = CompactFamilySpec(
        center=center.entries,
        delta=_number(_require(fam, "delta"), "family.delta"),
        det_floor=_number(_require(fam, "det_floor"), "family.det_floor"))
    default_band = {2: [0.3, 0.8], 3: [0.8, 1.3]}.get(n)
    band = _array(cfg["band"], "band") if "band" in cfg else default_band
    if band is not None and len(band) != 2:
        raise InputError("band must be a [low, high] pair")
    if band is not None and band[0] > band[1]:
        raise ConfigError(f"band {band} has its low end above its high end")
    stats = mc_stats(lambda seed: sample_compact(family, seed), grid, samples,
                     Seed(master, stream=1))
    per_t = [dataclasses.asdict(s) for s in stats]
    rows = [(s.t, s.rms_E, s.mean_E, s.var_E, s.samples) for s in stats]
    fit = fit_scaling_exponent([(s.t, s.rms_E) for s in stats])
    out = {
        "n": n,
        "seed": master,
        "per_t": per_t,
        "fit": {"slope": fit.slope, "intercept": fit.intercept,
                "max_residual": fit.max_residual},
        "reference_exponent": (n - 1) / 2.0,
    }
    if band is not None:
        lo, hi = band
        out["band"] = band
        out["verdict"] = "PASS" if lo <= fit.slope <= hi else "FAIL"
    return out, (("t", "rms_E", "mean_E", "var_E", "samples"), rows)


def _run_theorem2(cfg: dict):
    n = _number(_require(cfg, "n"), "n", int)
    config = HaarSamplerConfig(n=n)
    t = _number(_require(cfg, "t"), "t")
    if t < 2.0:
        raise ConfigError("theorem2 requires t >= 2")
    samples = _number(_require(cfg, "samples"), "samples", int)
    master = _seed(cfg)

    def sampler(seed):
        return sample_haar_unimodular(config, seed)

    stats = mc_stats(sampler, t, samples, Seed(master, stream=1))
    resid, stderr_mean = siegel_calibration(stats, n)
    if abs(resid) > 3.0 * stderr_mean:
        raise CalibrationError(
            f"CALIBRATION-FAIL: mean count off the Siegel value by "
            f"{resid:.4g} with standard error {stderr_mean:.4g}"
        )
    cn = compute_cn(n)
    predicted = variance_prediction(n, t, cn)
    ratio = stats.var_E / predicted
    out = {
        "n": n, "t": t, "samples": samples, "seed": master,
        "mean_E": stats.mean_E, "var_E": stats.var_E,
        "stderr_var": stats.stderr_var, "mean_count": stats.mean_count,
        "ball_volume": ball_volume(n, t, 1.0),
        "siegel_residual": resid,
        "siegel_stderr": stderr_mean,
        "cn": cn.value,
        "predicted_var": predicted,
        "var_ratio": ratio,
        "verdict": "PASS" if 0.75 <= ratio <= 1.25 else "FAIL",
    }
    return out, None


def _run_cn(cfg: dict):
    result = compute_cn(_number(_require(cfg, "n"), "n", int))
    out = {"n": result.n, "value": result.value,
           "tail_bound": result.tail_bound,
           "terms_used": result.terms_used, "cutoff": result.cutoff}
    return out, None


def _run_fourier(cfg: dict):
    n = _number(_require(cfg, "n"), "n", int)
    s_max = _number(cfg.get("s_max", 10.0), "s_max")
    points = _number(cfg.get("points", 201), "points", int)
    if points < 2 or s_max <= 0:
        raise ConfigError("fourier needs s_max > 0 and points >= 2")
    if not math.isfinite(2.0 * math.pi * s_max):
        # the transform's phase 2 pi s would overflow to inf
        raise ConfigError(f"'s_max' must be at most about 2.86e307 (2 pi "
                          f"s_max finite), not {s_max!r}")
    s = np.linspace(0.0, s_max, points)
    vals = hat_chi_ball(n, s)
    rows = list(zip(s.tolist(), vals.tolist()))
    out = {"n": n, "s_min": float(s[0]), "s_max": float(s[-1]),
           "points": int(s.size),
           "max_abs": float(np.max(np.abs(vals)))}
    return out, (("s", "hat_chi"), rows)


def _run_sandwich(cfg: dict):
    basis = _config_basis(cfg)
    t = _number(_require(cfg, "t"), "t")
    epsilon = _number(_require(cfg, "epsilon"), "epsilon")
    result = sandwich_check(basis, t, epsilon)
    return dataclasses.asdict(result), None


def _report_output(report, **extra):
    """A Hessian or van der Corput report, with the ``extra`` result keys,
    as (result, csv payload)."""
    out = dict(dataclasses.asdict(report), **extra)
    rows = list(zip(report.t_grid, report.measured, report.bound,
                    report.ratios))
    return out, (("t", "measured", "bound", "ratio"), rows)


def _osc_spec_from_config(cfg: dict) -> OscillatorySpec:
    n = _number(_require(cfg, "n"), "n", int)
    k, l, eta = (_array(_require(cfg, key), key) for key in ("k", "l", "eta"))
    signs = tuple(_array(_require(cfg, "signs"), "signs", int))
    box = _array(_require(cfg, "psi_intervals"), "psi_intervals", depth=2)
    try:
        return OscillatorySpec(n=n, k=k, l=l, signs=signs, eta=eta,
                               psi_intervals=box)
    except ValueError as exc:
        raise InputError(f"malformed oscillatory spec: {exc}") from exc


def _run_oscint(cfg: dict):
    spec = _osc_spec_from_config(cfg)
    grid = sorted(_t_grid_from_config(cfg))
    kwargs = {}
    if "points_per_period" in cfg:
        kwargs["points_per_period"] = _number(cfg["points_per_period"],
                                              "points_per_period")
    hessian = cfg.get("hessian", False)
    if not isinstance(hessian, bool):
        raise InputError("'hessian' must be true or false")
    if hessian:
        return _report_output(hessian_bound_check(spec, grid, **kwargs))
    values = I_kl(spec, grid, **kwargs).tolist()
    rows = [(t, v.real, v.imag, abs(v)) for t, v in zip(grid, values)]
    out = {
        "n": spec.n,
        "t_grid": grid,
        "real": [v.real for v in values],
        "imag": [v.imag for v in values],
        "abs": [abs(v) for v in values],
    }
    return out, (("t", "real", "imag", "abs"), rows)


def _run_vdc(cfg: dict):
    phi_coeffs = _array(_require(cfg, "phi"), "phi")
    psi_coeffs = _array(_require(cfg, "psi0"), "psi0")
    if not phi_coeffs or not psi_coeffs:
        raise ConfigError("phi and psi0 need at least one coefficient")
    a = _number(_require(cfg, "a"), "a")
    b = _number(_require(cfg, "b"), "b")
    grid = sorted(_t_grid_from_config(cfg))

    def phi(x, _c=phi_coeffs):
        return np.polynomial.polynomial.polyval(x, _c)

    def psi0(x, _c=psi_coeffs):
        return np.polynomial.polynomial.polyval(x, _c)

    report = vdc_check(phi, psi0, a, b, grid)
    return _report_output(report, phi=phi_coeffs, psi0=psi_coeffs,
                          interval=[a, b])


# each subcommand's help summary, body and the top-level config keys it
# reads
_COMMANDS = {
    "count": ("exact lattice point counts over a t grid", _run_count,
              {"basis", "n", "t", "t_grid"}),
    "theorem1": ("remainder scaling over a compact family of bases",
                 _run_theorem1, {"n", "t_grid", "samples", "seed", "family",
                                 "band"}),
    "theorem2": ("remainder variance over random unimodular bases",
                 _run_theorem2, {"n", "t", "samples", "seed"}),
    "cn": ("the variance constant c_n", _run_cn, {"n"}),
    "fourier": ("the ball indicator transform on a radial grid",
                _run_fourier, {"n", "s_max", "points"}),
    "sandwich": ("smoothed-count bracket around an exact count",
                 _run_sandwich, {"basis", "n", "t", "epsilon"}),
    "oscint": ("oscillatory integrals or their Hessian-decay check",
               _run_oscint, {"n", "k", "l", "signs", "eta", "psi_intervals",
                             "t", "t_grid", "points_per_period", "hessian"}),
    "vdc": ("first-derivative bound check for polynomial phases", _run_vdc,
            {"phi", "psi0", "a", "b", "t", "t_grid"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticeball",
        description="Lattice point counts in balls and the supporting "
                    "Fourier and oscillatory-integral experiments.",
    )
    parser.add_argument("--version", action="version",
                        version=f"latticeball {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (summary, _, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="directory for result, data, manifest")
        if "seed" in keys:
            p.add_argument("--seed", type=int, default=None,
                           help="master seed, overrides the config value")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command

    try:
        cfg = _load_config(args.config) if args.config else {}
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    _, run, keys = _COMMANDS[command]
    unknown = sorted(cfg.keys() - keys)
    if unknown:
        print(f"error: {command} reads no config key "
              f"{', '.join(map(repr, unknown))}", file=sys.stderr)
        return EXIT_USAGE
    seed = getattr(args, "seed", None)
    settings = cfg if seed is None else dict(cfg, seed=seed)

    # made before the experiment runs, so an unusable --out costs nothing
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"error: cannot use --out {args.out!r} as a directory: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE

    start = time.perf_counter()
    try:
        result, csv_payload = run(settings)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, ValueError, ZeroDivisionError, OverflowError,
            MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CalibrationError, RejectionBudgetError, ArithmeticError) as exc:
        print(f"calibration error: {exc}", file=sys.stderr)
        return EXIT_CALIBRATION
    except ResolutionError as exc:
        print(f"resolution error: {exc}", file=sys.stderr)
        return EXIT_RESOLUTION
    wall = time.perf_counter() - start

    if out_dir is not None:
        # imported here: it costs about 20 ms, which only a manifest needs
        from importlib import metadata

        outputs = ["result.json"]
        _write_json(out_dir / "result.json", result)
        if csv_payload is not None:
            header, rows = csv_payload
            _write_csv(out_dir / "data.csv", header, rows)
            outputs.append("data.csv")
        manifest = {
            "command": command,
            "config": cfg,
            # the seed that ran, from --seed or the config; null for the
            # commands that draw nothing
            "seed": _seed(settings) if "seed" in keys else None,
            "version": __version__,
            "dependencies": {"numpy": metadata.version("numpy")},
            "wall_time_s": wall,
            "outputs": sorted(outputs),
        }
        _write_json(out_dir / "manifest.json", manifest)
    else:
        json.dump(result, sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
