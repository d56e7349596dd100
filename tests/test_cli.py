"""Command-line interface: argument handling, file formats, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import uniscat
from uniscat import (
    EXTINCTION_FACTOR,
    ConstructionParams,
    SpectralSingularityWarning,
    TransferOperator,
    WaveContext,
    born_f_2d,
    build_potential_2d,
    classify,
    closed_form_f_left,
    evolve_transfer,
    gauss_grid,
    gaussian_envelope,
    potential_from_samples,
    quartic_envelope,
    transfer_tables,
)
from uniscat.cli import main, parse_k, read_table


def test_parse_k_forms():
    assert parse_k("2pi") == 2.0 * np.pi
    assert parse_k("pi") == np.pi
    assert parse_k("-pi") == -np.pi
    assert parse_k("0.5pi") == 0.5 * np.pi
    assert parse_k("2*pi") == 2.0 * np.pi
    assert parse_k("3.25") == 3.25
    assert parse_k(12.0) == 12.0
    with pytest.raises(ValueError):
        parse_k("two pi")


def test_construct_csv_round_trip(tmp_path):
    out = tmp_path / "field.csv"
    rc = main(
        [
            "construct", "--k", "4pi", "--nx", "11", "--ny", "9",
            "--out", str(out),
        ]
    )
    assert rc == 0
    config, columns, data = read_table(out)
    assert columns == ["x", "y", "re_v", "im_v"]
    assert data.shape == (11 * 9, 4)
    assert config["k"] == 4 * np.pi
    assert config["envelope"] == "quartic"
    # rewriting the parsed numbers at the same precision is lossless
    assert np.array_equal(
        data, np.array([[float(f"{v:.17g}") for v in row] for row in data])
    )


def test_construct_csv_read_back_reproduces_the_transfer_tables(tmp_path):
    # the tabulated route's job: a construct CSV, read back and splined,
    # scatters like the construction it samples, converging with the samples
    # (the command's defaults but the envelope: g0 = 1e-2; k = 4 pi, 41
    # nodes, 400 slices).  The bounds are the measured errors as fractions
    # of the largest sup norm (quartic 6.65e-7 and 1.98e-8, gaussian 3.00e-4
    # and 2.55e-5), rounded up.
    cases = {
        "quartic": (quartic_envelope, ((51, 6.7e-7), (101, 2.0e-8)), 16.0),
        "gaussian": (gaussian_envelope, ((51, 3.1e-4), (101, 2.6e-5)), 8.0),
    }
    for envelope, (make, bounds, gain) in cases.items():
        params = ConstructionParams(
            ell=-1, m=1, envelope=make(1e-2, 1.0), ctx=WaveContext(k=4 * np.pi), slab=1.0
        )
        grid = gauss_grid(41, params.ctx)
        want = transfer_tables(evolve_transfer(build_potential_2d(params), grid, slices=400))
        scale = max(table.sup for table in want.values())
        errs = {}
        for n, bound in bounds:
            out = tmp_path / f"{envelope}{n}.csv"
            assert main([
                "construct", "--k", "4pi", "--envelope", envelope,
                "--nx", str(n), "--ny", str(n), "--out", str(out),
            ]) == 0
            cfg, columns, data = read_table(out)
            assert (cfg["envelope"], cfg["g0"], cfg["b"], cfg["k"]) == (envelope, 1e-2, 1.0, 4 * np.pi)
            xs, ys = data[:, 0].reshape(n, n), data[:, 1].reshape(n, n)
            assert np.all(xs == xs[:, :1]) and np.all(ys == ys[:1, :])
            values = (data[:, 2] + 1j * data[:, 3]).reshape(n, n)
            copy = potential_from_samples(xs[:, 0], ys[0], values)
            got = transfer_tables(evolve_transfer(copy, grid, slices=400))
            errs[n] = max(np.max(np.abs(got[key].values - want[key].values)) for key in want)
            assert errs[n] <= bound * scale, (envelope, n, errs[n] / scale)
        assert errs[101] < errs[51] / gain, envelope


def test_construct_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["construct", "--nx", "7", "--ny", "7", "--out", str(a)])
    main(["construct", "--nx", "7", "--ny", "7", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_amplitude_routes_agree(tmp_path):
    born = tmp_path / "born.csv"
    closed = tmp_path / "closed.csv"
    common = ["--k", "4pi", "--thetas", "41", "--side", "left"]
    assert main(["amplitude", *common, "--method", "born", "--out", str(born)]) == 0
    assert main(["amplitude", *common, "--method", "closed", "--out", str(closed)]) == 0
    _, cols, a = read_table(born)
    _, _, b = read_table(closed)
    assert cols == ["theta", "re_f", "im_f", "abs_f"]
    assert np.array_equal(a[:, 0], b[:, 0])
    scale = np.max(a[:, 3])
    assert np.max(np.abs(a[:, 1:3] - b[:, 1:3])) < 1e-10 * scale
    # spot-check one angle against the library
    params_cfg, _, _ = read_table(born)
    import uniscat

    params = uniscat.ConstructionParams(
        ell=params_cfg["ell"],
        m=params_cfg["m"],
        envelope=uniscat.quartic_envelope(params_cfg["g0"], params_cfg["b"]),
        ctx=uniscat.WaveContext(k=params_cfg["k"]),
        slab=params_cfg["slab"],
    )
    want = closed_form_f_left(params, a[5, 0])
    assert complex(a[5, 1], a[5, 2]) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("method", ["born", "closed"])
def test_amplitude_samples_each_arc_to_grazing(tmp_path, method):
    out = tmp_path / "f.csv"
    assert main(["amplitude", "--method", method, "--thetas", "21", "--out", str(out)]) == 0
    config, _, data = read_table(out)
    # 11 forward rows, then 10 backward; each arc is closed at both edges
    forward, backward = data[:11], data[11:]
    assert forward[0, 0] == -np.pi / 2 and forward[-1, 0] == np.pi / 2
    assert backward[0, 0] == np.pi / 2 and backward[-1, 0] == 3 * np.pi / 2
    params = ConstructionParams(
        ell=config["ell"],
        m=config["m"],
        envelope=quartic_envelope(config["g0"], config["b"]),
        ctx=WaveContext(k=config["k"]),
        slab=config["slab"],
    )
    for row in (forward[0], forward[-1]):
        want = closed_form_f_left(params, row[0])
        assert complex(row[1], row[2]) == pytest.approx(want, rel=1e-12)


def test_amplitude_json_format(tmp_path):
    out = tmp_path / "f.json"
    assert main(["amplitude", "--thetas", "21", "--format", "json", "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["columns"] == ["theta", "re_f", "im_f", "abs_f"]
    assert len(blob["rows"]) == 21
    assert blob["config"]["side"] == "left"


def test_verify_report(tmp_path):
    out = tmp_path / "report.json"
    rc = main(
        [
            "verify", "--k", "4pi", "--grid-n", "21", "--slices", "100",
            "--out", str(out),
        ]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["symplectic_residual"] < 1e-8
    assert report["predicates"]["reciprocal_transmission"] is True
    assert report["reciprocity_mismatch"] < 1e-10
    assert set(report["sup_norms"]) == {
        "left_plus", "left_minus", "right_plus", "right_minus"
    }
    j0 = complex(*report["current_minus_inf"])
    j1 = complex(*report["current_plus_inf"])
    assert abs(j0 - j1) < 1e-8 * max(1.0, abs(j0))
    # the report's classification is the library's, for the same operator
    cfg = report["config"]
    params = ConstructionParams(
        ell=cfg["ell"],
        m=cfg["m"],
        envelope=quartic_envelope(cfg["g0"], cfg["b"]),
        ctx=WaveContext(k=cfg["k"]),
        slab=cfg["slab"],
    )
    op = evolve_transfer(
        build_potential_2d(params), gauss_grid(21, params.ctx), slices=100
    )
    want = classify(op, cfg["tol"])
    for key in ("sup_norms", "reciprocity_mismatch", "predicates"):
        assert report[key] == want[key]


def test_verify_reciprocity_has_no_roundoff_floor(tmp_path):
    # at g0 = 1e-6 the forward transmissions are 1e-13 against an incident
    # delta of 6.6; read off W they keep their own precision, and the
    # mismatch (4.3e-14 of the largest sup norm) passes a tolerance of 1e-8
    out = tmp_path / "report.json"
    rc = main([
        "verify", "--g0", "1e-6", "--grid-n", "21", "--slices", "100",
        "--tol", "1e-8", "--out", str(out),
    ])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["predicates"]["reciprocal_transmission"] is True
    assert report["reciprocity_mismatch"] <= 1e-12 * max(report["sup_norms"].values())


def test_xfer_dump(tmp_path):
    out = tmp_path / "op.json"
    rc = main(["xfer", "--grid-n", "9", "--slices", "40", "--out", str(out)])
    assert rc == 0
    blob = json.loads(out.read_text())
    assert blob["grid_n"] == 9
    assert blob["slices"] == 40
    assert blob["config"]["grid_n"] == 9
    assert len(blob["blocks"]["m11"]["re"]) == 9
    m11 = np.array(blob["blocks"]["m11"]["re"]) + 1j * np.array(blob["blocks"]["m11"]["im"])
    assert m11.shape == (9, 9)


def test_xfer_dump_keeps_the_scattered_part_to_its_own_precision(tmp_path):
    # at g0 = 1e-6, W11 is about 2e-7 against the 1 of M11 = I + W11, so
    # `blocks` minus I loses its low bits and `scattered` keeps all of them
    out = tmp_path / "op.json"
    rc = main([
        "xfer", "--g0", "1e-6", "--grid-n", "21", "--slices", "100", "--out", str(out),
    ])
    assert rc == 0
    blob = json.loads(out.read_text())
    params = ConstructionParams(
        ell=-1, m=1, envelope=quartic_envelope(1e-6, 1.0), ctx=WaveContext(k=4 * np.pi), slab=1.0
    )
    op = evolve_transfer(build_potential_2d(params), gauss_grid(21, params.ctx), slices=100)
    n = op.n
    for name, block in (
        ("w11", op.scattered[:n, :n]), ("w12", op.scattered[:n, n:]),
        ("w21", op.scattered[n:, :n]), ("w22", op.scattered[n:, n:]),
    ):
        entry = blob["scattered"][name]
        assert np.array_equal(np.array(entry["re"]) + 1j * np.array(entry["im"]), block), name
    m11 = np.array(blob["blocks"]["m11"]["re"]) + 1j * np.array(blob["blocks"]["m11"]["im"])
    assert np.array_equal(m11, op.m11)


def test_power_report(tmp_path):
    out = tmp_path / "power.json"
    rc = main(["power", "--k", "4pi", "--d", "100", "--s", "10", "--out", str(out)])
    assert rc == 0
    blob = json.loads(out.read_text())
    for key in (
        "left_backward", "left_forward", "right_backward", "right_forward",
        "left_total", "right_total", "screen_power",
    ):
        assert key in blob
    assert abs(blob["right_total"]) < 1e-10 * abs(blob["left_total"])


@pytest.mark.parametrize("envelope", ["quartic", "gaussian"])
def test_default_power_budget_matches_the_reference(tmp_path, arc_reference, envelope):
    # the forward arc runs grazing to grazing; the extinction term reads f
    # at theta = 0 directly
    out = tmp_path / "power.json"
    assert main(["power", "--envelope", envelope, "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    make = quartic_envelope if envelope == "quartic" else gaussian_envelope
    v = build_potential_2d(
        ConstructionParams(ell=-1, m=1, envelope=make(1e-2, 1.0), ctx=WaveContext(k=4 * np.pi))
    )
    want = arc_reference(v, "left", -np.pi / 2) - EXTINCTION_FACTOR * np.imag(
        born_f_2d(v, "left", 0.0)
    )
    assert abs(blob["left_forward"] - want) <= 1e-12 * abs(want)
    assert abs(blob["right_backward"]) <= 1e-30


def test_fig2_writes_manifest(tmp_path, capsys):
    rc = main(
        [
            "fig2", "--ks", "4pi", "--samples", "5", "--s-max", "10",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    manifest = json.loads((tmp_path / "fig2_manifest.json").read_text())
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("fig2_manifest.json")
    files = manifest["files"]
    assert list(files) == ["4pi"]
    config, columns, data = read_table(tmp_path / files["4pi"])
    assert columns == ["s_over_a", "dP_hat"]
    assert data.shape[0] == 5
    assert config["d"] == 100.0
    assert config["k"] == 4 * np.pi
    assert "ks" not in config


def test_import_every_command_and_sampled_evolution_load_no_scipy(tmp_path):
    # the package is numpy-only: construct, amplitude, verify, xfer, power,
    # fig2 and the evolution of a tabulated potential load no SciPy. A fresh
    # interpreter is the only place where an import shows.
    script = textwrap.dedent(
        f"""
        import sys
        import uniscat
        from uniscat.cli import main
        out = {str(tmp_path)!r}
        assert main(["construct", "--nx", "5", "--ny", "5", "--out", out + "/v.csv"]) == 0
        for method in ("born", "closed"):
            argv = ["amplitude", "--method", method, "--thetas", "21", "--out", out + "/f.csv"]
            assert main(argv) == 0
        small = ["--grid-n", "9", "--slices", "40"]
        assert main(["verify", *small, "--out", out + "/r.json"]) == 0
        assert main(["xfer", *small, "--out", out + "/o.json"]) == 0
        assert main(["power", "--out", out + "/p.json"]) == 0
        assert main(["fig2", "--samples", "8", "--ks", "2pi", "--out-dir", out]) == 0
        v = uniscat.random_smooth_potential(6)
        copy = uniscat.potential_from_samples(*uniscat.sample_potential(v, 21, 21))
        grid = uniscat.gauss_grid(9, uniscat.WaveContext(k=6.0))
        assert uniscat.evolve_transfer(copy, grid, slices=40).slices == 40
        print(sorted(m for m in sys.modules if m.startswith("scipy")))
        """
    )
    src = str(Path(uniscat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]", run.stdout


def test_singular_m22_is_a_numerical_failure(tmp_path, monkeypatch, capsys):
    # numpy's LinAlgError is a ValueError, but an exactly singular M22 is a
    # numerical failure, not an argument error
    def singular(v, grid, slices=None):
        matrix = np.eye(2 * grid.n, dtype=complex)
        matrix[grid.n :, grid.n :] = 0.0
        return TransferOperator(grid=grid, scattered=matrix - np.eye(2 * grid.n), slices=1)

    monkeypatch.setattr(uniscat.cli, "evolve_transfer", singular)
    with pytest.warns(SpectralSingularityWarning):
        assert main(["verify", "--grid-n", "9", "--out", str(tmp_path / "v.json")]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: ")


def test_near_singular_m22_warns_once_at_the_command(tmp_path, monkeypatch):
    # solvable, but past the spectral-singularity condition limit
    def near_singular(v, grid, slices=None):
        scattered = np.zeros((2 * grid.n, 2 * grid.n), dtype=complex)
        scattered[grid.n :, grid.n :] = np.diag(np.r_[np.zeros(grid.n - 1), 1e-14 - 1.0])
        return TransferOperator(grid=grid, scattered=scattered, slices=1)

    monkeypatch.setattr(uniscat.cli, "evolve_transfer", near_singular)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", "--grid-n", "9", "--out", str(tmp_path / "v.json")]) == 0
    singular = [w for w in caught if issubclass(w.category, SpectralSingularityWarning)]
    assert len(singular) == 1
    # attributed to the command that first read the operator
    assert Path(singular[0].filename).name == "cli.py"
    assert json.loads((tmp_path / "v.json").read_text())["m22_condition"] > 1e12


def test_config_file_layering(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": "2pi", "nx": 5, "ny": 5}))
    out = tmp_path / "t.csv"
    # explicit flag beats the config file, config beats the default
    rc = main(["construct", "--config", str(cfg), "--nx", "7", "--out", str(out)])
    assert rc == 0
    config, _, data = read_table(out)
    assert config["k"] == 2 * np.pi
    assert config["nx"] == 7 and config["ny"] == 5
    assert data.shape == (35, 4)


def test_fig2_refuses_two_wavenumbers_with_one_file_name(tmp_path):
    # the file tag keeps six significant digits, so these two curves would
    # share fig2_k7.csv; the refusal comes before any output is made
    for ks in ("7.0000001,7.0000002", "2pi,2pi"):
        out = tmp_path / "out"
        assert main(["fig2", "--ks", ks, "--samples", "3", "--out-dir", str(out)]) == 2
        assert not out.exists()


def test_error_exit_codes(tmp_path):
    # bad wavenumber text -> argument error
    assert main(["construct", "--k", "nope", "--out", str(tmp_path / "x.csv")]) == 2
    # unknown config key -> argument error
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"wavenumber": 1.0}))
    assert main(["construct", "--config", str(cfg), "--out", str(tmp_path / "y.csv")]) == 2
    # invalid JSON -> argument error
    cfg2 = tmp_path / "broken.json"
    cfg2.write_text("{not json")
    assert main(["construct", "--config", str(cfg2), "--out", str(tmp_path / "z.csv")]) == 2
    # missing config file -> i/o error
    assert main(["construct", "--config", str(tmp_path / "absent.json")]) == 4
    # unwritable output -> i/o error
    assert main(["construct", "--out", str(tmp_path / "no" / "dir" / "f.csv")]) == 4
    # grid constraints surface as argument errors
    assert main(["verify", "--grid-n", "8", "--out", str(tmp_path / "v.json")]) == 2
    # the closed-form amplitude is left-incidence only
    argv = ["amplitude", "--method", "closed", "--side", "right", "--out", str(tmp_path / "f.csv")]
    assert main(argv) == 2
    # an amplitude route the config names but no code has
    cfg3 = tmp_path / "magic.json"
    cfg3.write_text(json.dumps({"method": "magic"}))
    assert main(["amplitude", "--config", str(cfg3), "--out", str(tmp_path / "g.csv")]) == 2
    # config values get the checks of their flags: a choice outside the
    # option's choices, and a non-integral number for an integer option
    cfg4 = tmp_path / "xml.json"
    cfg4.write_text(json.dumps({"format": "xml"}))
    assert main(["construct", "--config", str(cfg4), "--out", str(tmp_path / "h.csv")]) == 2
    cfg5 = tmp_path / "half.json"
    cfg5.write_text(json.dumps({"grid_n": 9.5}))
    assert main(["verify", "--config", str(cfg5), "--out", str(tmp_path / "w.json")]) == 2
    # a flag cannot be null, so a config value is null only where the default is
    cfg6 = tmp_path / "null.json"
    cfg6.write_text(json.dumps({"g0": None, "slices": None}))
    assert main(["verify", "--config", str(cfg6), "--out", str(tmp_path / "u.json")]) == 2
    # a non-finite strength, a negative or non-finite tolerance, and a sample
    # count below one are argument errors, not numbers to compute with
    for argv in (
        ["power", "--g0", "nan"],
        ["power", "--g0", "1e400"],
        ["verify", "--g0", "inf"],
        ["verify", "--tol", "nan"],
        ["verify", "--tol", "-1"],
        ["construct", "--nx", "0"],
    ):
        assert main([*argv, "--out", str(tmp_path / "t.out")]) == 2, argv
    # no option takes a JSON boolean, though Python's bool is an int
    for key in ("slices", "g0"):
        cfg7 = tmp_path / f"bool_{key}.json"
        cfg7.write_text(json.dumps({key: True}))
        assert main(["verify", "--config", str(cfg7), "--out", str(tmp_path / "b.json")]) == 2


def test_stdout_output(capsys):
    rc = main(["amplitude", "--thetas", "21", "--out", "-"])
    assert rc == 0
    text = capsys.readouterr().out
    assert text.startswith("# ")
    assert "theta,re_f,im_f,abs_f" in text
