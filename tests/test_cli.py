"""Command-line interface: argument handling, file formats, exit codes."""

from __future__ import annotations

import json

import numpy as np
import pytest

from uniscat import (
    ConstructionParams,
    WaveContext,
    build_potential_2d,
    classify,
    closed_form_f_left,
    evolve_transfer,
    gauss_grid,
    quartic_envelope,
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


def test_stdout_output(capsys):
    rc = main(["amplitude", "--thetas", "21", "--out", "-"])
    assert rc == 0
    text = capsys.readouterr().out
    assert text.startswith("# ")
    assert "theta,re_f,im_f,abs_f" in text
