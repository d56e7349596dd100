"""Command-line front end.

Subcommands cover the everyday pipelines: sample a constructed potential
(construct), tabulate scattering amplitudes (amplitude), run the transfer
matrix and its conservation checks (verify, xfer), compute power budgets
(power), and sweep the screen-power benchmark (fig2).

Numbers are written with 17 significant digits so a written table reads
back bit-identically; every CSV opens with a '#' comment carrying the
resolved configuration as JSON.

Exit codes: 0 success, 2 invalid arguments or configuration, 3 numerical
failure (blown-up integration, singular M22), 4 I/O failure. A flag's text
and a --config value share one conversion and one set of checks, so an
invalid value from either makes ``main`` return 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from functools import cache

import numpy as np

from .born import amplitude_table
from .construct import ConstructionParams, build_potential_2d
from .empower import ScreenSpec, fig2_curves, screen_power, total_power_changes
from .envelopes import gaussian_envelope, quartic_envelope
from .grids import WaveContext, gauss_grid
from .potentials import PotentialSpec, sample_potential
from .xfermat import (
    IntegrationError,
    check_symplectic,
    classify,
    conserved_current,
    evolve_transfer,
    operator_to_dict,
    scattering_coeffs,
)

__all__ = ["main", "build_parser", "parse_k", "read_table"]


def parse_k(text) -> float:
    """Wavenumber parser: plain float, or a multiple of pi like '2pi'."""
    if isinstance(text, (int, float)):
        return float(text)
    s = str(text).strip().lower().replace(" ", "")
    if s.endswith("pi"):
        head = s[:-2].rstrip("*")
        factor = 1.0 if head in ("", "+") else -1.0 if head == "-" else float(head)
        return factor * np.pi
    return float(s)


# Every option: name -> (default, type or tuple of choices, help).
_OPTIONS = {
    "k": (4 * np.pi, parse_k, "wavenumber; accepts multiples of pi like 2pi"),
    "ell": (-1, int, "first grating harmonic (nonzero integer)"),
    "m": (1, int, "second grating harmonic (nonzero, != ell)"),
    "envelope": ("quartic", ("gaussian", "quartic"), "transverse envelope"),
    "g0": (1e-2, float, "envelope strength"),
    "b": (1.0, float, "envelope width"),
    "slab": (1.0, float, "slab thickness"),
    "grid_n": (41, int, "momentum nodes (odd)"),
    "slices": (None, int, "integration slices"),
    "tol": (1e-6, float, "predicate tolerance"),
    "side": ("left", ("left", "right"), "incidence side"),
    "method": ("born", ("born", "closed"), "amplitude route"),
    "thetas": (721, int, "angle sample count"),
    "nx": (201, int, "x samples"),
    "ny": (201, int, "y samples"),
    "d": (100.0, float, "screen distance"),
    "s": (10.0, float, "screen width"),
    "s_max": (100.0, float, "largest screen width"),
    "samples": (400, int, "screen width count"),
    "ks": ("2pi,4pi,8pi,12pi", str, "comma-separated wavenumbers"),
    "format": ("csv", ("csv", "json"), "output format"),
    "out": (None, str, "output path ('-' for stdout)"),
    "out_dir": (".", str, "output directory"),
}

# 17 significant digits round-trip every float64
_VALUE = "{:.17g}"


def _echo_cfg(config) -> dict:
    # Output paths stay out of the echoed config so the payload does not
    # depend on where it was written.
    return {k: v for k, v in config.items() if k not in ("out", "out_dir")}


def _config_value(key, value):
    """An option's value, from its flag's text or a config file, converted
    and checked by its _OPTIONS entry; never a boolean, and null only where
    the default is."""
    default, kind, _ = _OPTIONS[key]
    if value is None:
        if default is None:
            return None
        raise ValueError(f"{key} must not be null")
    if isinstance(value, bool):
        raise ValueError(f"{key} cannot take a boolean, got {value!r}")
    if isinstance(kind, tuple):
        if value not in kind:
            raise ValueError(f"{key} must be one of {kind}, got {value!r}")
        return value
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{key} must be an integer, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{key} cannot take {value!r}") from None


def _resolve(args, keys) -> dict:
    """Layer defaults, then --config JSON, then explicit flags."""
    cfg = {k: _OPTIONS[k][0] for k in keys}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path) as fh:
                loaded = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {config_path} is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {config_path} must hold a JSON object")
        unknown = set(loaded) - set(_OPTIONS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key in keys:
            if key in loaded:
                cfg[key] = _config_value(key, loaded[key])
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = _config_value(key, val)
    return cfg


@contextmanager
def _open_out(path):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _write_json(path, blob, indent=None):
    with _open_out(path) as fh:
        json.dump(blob, fh, sort_keys=True, indent=indent)
        fh.write("\n")


def _write_table(path, config, columns, rows, fmt):
    if fmt == "json":
        _write_json(
            path,
            {
                "config": _echo_cfg(config),
                "columns": list(columns),
                "rows": [[_VALUE.format(x) for x in row] for row in rows.tolist()],
            },
        )
        return
    line = ",".join([_VALUE] * len(columns)) + "\n"
    with _open_out(path) as fh:
        fh.write("# " + json.dumps(_echo_cfg(config), sort_keys=True) + "\n")
        fh.write(",".join(columns) + "\n")
        fh.write((line * rows.shape[0]).format(*rows.ravel().tolist()))


def read_table(path):
    """Read back a CSV written by this tool: (config, columns, float array)."""
    with open(path) as fh:
        first = fh.readline()
        if not first.startswith("# "):
            raise ValueError(f"{path} lacks the config comment line")
        config = json.loads(first[2:])
        columns = fh.readline().strip().split(",")
        data = [
            [float(tok) for tok in line.strip().split(",")]
            for line in fh
            if line.strip()
        ]
    return config, columns, np.array(data)


def _potential(cfg) -> PotentialSpec:
    make = {"gaussian": gaussian_envelope, "quartic": quartic_envelope}
    env = make[cfg["envelope"]](cfg["g0"], cfg["b"])
    params = ConstructionParams(
        ell=cfg["ell"],
        m=cfg["m"],
        envelope=env,
        ctx=WaveContext(k=cfg["k"]),
        slab=cfg["slab"],
    )
    return build_potential_2d(params)


def _cmd_construct(cfg) -> int:
    xs, ys, vals = sample_potential(_potential(cfg), cfg["nx"], cfg["ny"])
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    vals = vals.ravel()
    rows = np.column_stack([xg.ravel(), yg.ravel(), vals.real, vals.imag])
    _write_table(cfg["out"], cfg, ("x", "y", "re_v", "im_v"), rows, cfg["format"])
    return 0


def _thetas(n_forward: int, n_backward: int) -> np.ndarray:
    """Evenly spaced angles on the forward, then the backward arc, each
    closed from grazing to grazing."""
    half = np.pi / 2.0
    return np.concatenate(
        [
            np.linspace(-half, half, n_forward),
            np.linspace(half, 3.0 * half, n_backward),
        ]
    )


def _cmd_amplitude(cfg) -> int:
    v = _potential(cfg)
    n = cfg["thetas"]
    if n < 2:
        raise ValueError(f"--thetas must be at least 2, got {n}")
    thetas = _thetas(n // 2 + n % 2, n // 2)
    f = amplitude_table(v, cfg["side"], thetas, method=cfg["method"])
    rows = np.column_stack([thetas, f.real, f.imag, np.abs(f)])
    _write_table(cfg["out"], cfg, ("theta", "re_f", "im_f", "abs_f"), rows, cfg["format"])
    return 0


def _evolved(cfg):
    v = _potential(cfg)
    return evolve_transfer(v, gauss_grid(cfg["grid_n"], v.params.ctx), slices=cfg["slices"])


def _cmd_verify(cfg) -> int:
    op = _evolved(cfg)
    left = scattering_coeffs(op, "left")
    right = scattering_coeffs(op, "right")
    j_lr = conserved_current(left, right, op.grid)
    report = {
        "config": _echo_cfg(cfg),
        "slices": op.slices,
        "symplectic_residual": check_symplectic(op),
        "m22_condition": op.m22_condition,
        "current_minus_inf": [j_lr[0].value.real, j_lr[0].value.imag],
        "current_plus_inf": [j_lr[1].value.real, j_lr[1].value.imag],
        **classify(op, cfg["tol"]),
    }
    _write_json(cfg["out"], report, indent=2)
    return 0


def _cmd_xfer(cfg) -> int:
    op = _evolved(cfg)
    dump = operator_to_dict(op)
    dump["config"] = _echo_cfg(cfg)
    _write_json(cfg["out"], dump)
    return 0


def _cmd_power(cfg) -> int:
    v = _potential(cfg)
    summary = total_power_changes(v)
    screen = ScreenSpec(d=cfg["d"], s=cfg["s"])
    report = {
        "config": _echo_cfg(cfg),
        "left_backward": summary.left_backward,
        "left_forward": summary.left_forward,
        "left_total": summary.left_total,
        "right_backward": summary.right_backward,
        "right_forward": summary.right_forward,
        "right_total": summary.right_total,
        "screen_power": screen_power(v.params, screen),
    }
    _write_json(cfg["out"], report, indent=2)
    return 0


def _k_tag(k: float) -> str:
    ratio = k / np.pi
    if abs(ratio - round(ratio)) < 1e-12:
        return f"{int(round(ratio))}pi"
    return f"{k:g}".replace(".", "p")


def _cmd_fig2(cfg) -> int:
    # WaveContext refuses a non-finite or non-positive k before it is tagged
    ks = [WaveContext(parse_k(tok)).k for tok in cfg["ks"].split(",") if tok.strip()]
    if not ks:
        raise ValueError("--ks produced an empty wavenumber list")
    tags = [_k_tag(k) for k in ks]
    if len(set(tags)) < len(tags):
        raise ValueError(f"--ks {cfg['ks']} names two wavenumbers with one file name: {tags}")
    n = cfg["samples"]
    if n < 1:
        raise ValueError(f"--samples must be positive, got {n}")
    slab = cfg["slab"]
    s_values = np.linspace(cfg["s_max"] / n, cfg["s_max"], n) * slab
    curves = fig2_curves(
        s_values=s_values,
        ks=ks,
        d=cfg["d"] * slab,
        g0=cfg["g0"],
        b=cfg["b"],
        slab=slab,
        ell=cfg["ell"],
        m=cfg["m"],
    )
    os.makedirs(cfg["out_dir"], exist_ok=True)
    files = {}
    for tag, curve in zip(tags, curves):
        name = f"fig2_k{tag}.csv"
        path = os.path.join(cfg["out_dir"], name)
        rows = np.column_stack([curve.s_values / slab, curve.values])
        curve_cfg = dict(cfg, k=curve.k)
        curve_cfg.pop("ks")
        _write_table(path, curve_cfg, ("s_over_a", "dP_hat"), rows, "csv")
        files[tag] = name
    manifest = {"config": _echo_cfg(cfg), "files": files}
    mpath = os.path.join(cfg["out_dir"], "fig2_manifest.json")
    _write_json(mpath, manifest, indent=2)
    print(mpath)
    return 0


_CONSTRUCTION = ("k", "ell", "m", "envelope", "g0", "b", "slab")

# Every subcommand: name -> (handler, help, the options it reads).
_COMMANDS = {
    "construct": (
        _cmd_construct, "sample a constructed potential",
        (*_CONSTRUCTION, "nx", "ny", "format", "out"),
    ),
    "amplitude": (
        _cmd_amplitude, "tabulate a scattering amplitude",
        (*_CONSTRUCTION, "side", "method", "thetas", "format", "out"),
    ),
    "verify": (
        _cmd_verify, "transfer-matrix conservation checks",
        (*_CONSTRUCTION, "grid_n", "slices", "tol", "out"),
    ),
    "xfer": (
        _cmd_xfer, "dump the transfer operator as JSON",
        (*_CONSTRUCTION, "grid_n", "slices", "out"),
    ),
    "power": (
        _cmd_power, "far-zone and screen power changes",
        (*_CONSTRUCTION, "d", "s", "out"),
    ),
    "fig2": (
        _cmd_fig2, "screen-power benchmark sweep",
        ("ell", "m", "g0", "b", "slab", "d", "s_max", "samples", "ks", "out_dir"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uniscat",
        description="one-way-invisible potentials: construction, scattering, power",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, names) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        for name in names:
            _, kind, text = _OPTIONS[name]
            # a choice option lists its choices in --help, as argparse would
            shown = {"metavar": "{" + ",".join(kind) + "}"} if isinstance(kind, tuple) else {}
            sub.add_argument(f"--{name.replace('_', '-')}", default=None, help=text, **shown)
        sub.add_argument("--config", default=None, help="JSON config file")
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    # Parsing leaves the parser unchanged, so one instance serves every call.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler, _, names = _COMMANDS[args.command]
    try:
        return handler(_resolve(args, names))
    except (IntegrationError, np.linalg.LinAlgError) as exc:
        # before ValueError, of which LinAlgError is a subclass
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
