"""Output checks for the benchmark workloads.

Every check returns a list of problem strings (empty when the output is
right).  None compares against a stored copy of earlier output: each tests
a property the method must have, or compares against an independent route
that the check computes itself (closed forms, the fixed-order screen
oracle, the analytic twin of a tabulated potential).  `selftest.py` shows
that each one fails on a deliberately corrupted output.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import uniscat.born as born

TABLE_KEYS = ("left_plus", "left_minus", "right_plus", "right_minus")

# xfer_verify -------------------------------------------------------------

SYMPLECTIC_MAX = 1e-6  # acceptance criterion 4's bound on M^T S M = S
RECIPROCITY_TOL = 1e-6  # |T^l_+(0) - T^r_-(0)| per largest sup norm
CURRENT_TOL = 1e-6  # |j(-inf) - j(+inf)| per larger |j|
M22_COND_MAX = 1e12  # xfermat's spectral-singularity limit
TABULATED_TOL = 1e-7  # tabulated copy vs analytic twin, per largest sup
# Right/left sup ratio and relative gap to closed_form_t_left, both
# bounded by C * g0.  The constants depend on the envelope shape, not on its
# strength: a gaussian of the same g0 is wider and ~40x stronger than the
# quartic.  Largest values measured over the workload's configurations:
# quartic 1.85 and 0.69, gaussian (g0 <= 1e-3) 95 and 301.
BORN_ORDER = {"quartic": (4.0, 2.0), "gaussian": (200.0, 600.0)}


def _sups(tables):
    return {key: float(np.max(np.abs(tables[key]))) for key in TABLE_KEYS}


def check_verify(out, center: int, tol: float) -> list:
    """Conservation laws and self-consistency of one verify report."""
    problems = []
    res = out["symplectic"]
    if not res <= SYMPLECTIC_MAX:
        problems.append(f"symplectic residual {res:.3e} > {SYMPLECTIC_MAX:g}")
    cond = out["m22_condition"]
    if not (math.isfinite(cond) and cond <= M22_COND_MAX):
        problems.append(f"M22 condition {cond:.3e} beyond {M22_COND_MAX:g}")
    j_minus, j_plus = out["current"]
    jscale = max(abs(j_minus), abs(j_plus))
    if not (jscale > 0 and abs(j_minus - j_plus) <= CURRENT_TOL * jscale):
        problems.append(
            f"current not conserved: j(-inf)={j_minus:.6g} j(+inf)={j_plus:.6g}"
        )
    tables = out["tables"]
    sups = _sups(tables)
    top = max(sups.values())
    recip = abs(tables["left_plus"][center] - tables["right_minus"][center])
    if not (top > 0 and recip <= RECIPROCITY_TOL * top):
        problems.append(f"reciprocity mismatch {recip:.3e} vs largest sup {top:.3e}")
    lim = tol * top
    expected = {
        "left_reflectionless": sups["left_minus"] <= lim,
        "left_transparent": sups["left_plus"] <= lim,
        "right_reflectionless": sups["right_plus"] <= lim,
        "right_transparent": sups["right_minus"] <= lim,
        "reciprocal_transmission": recip <= lim,
    }
    expected["left_invisible"] = (
        expected["left_reflectionless"] and expected["left_transparent"]
    )
    expected["right_invisible"] = (
        expected["right_reflectionless"] and expected["right_transparent"]
    )
    for name, want in expected.items():
        if out["flags"].get(name) != want:
            problems.append(f"predicate {name}={out['flags'].get(name)} but sups say {want}")
    return problems


def check_born_order(out, params, nodes, envelope_kind: str, g0: float) -> list:
    """Right invisibility and the Born gap of a constructed potential, O(g0)."""
    c_ratio, c_gap = BORN_ORDER[envelope_kind]
    tables = out["tables"]
    sups = _sups(tables)
    left = max(sups["left_plus"], sups["left_minus"])
    right = max(sups["right_plus"], sups["right_minus"])
    problems = []
    if not left > 0:
        return [f"left tables vanish (sup {left:.3e})"]
    ratio = right / left
    if not ratio <= c_ratio * g0:
        problems.append(f"right/left sup ratio {ratio:.3e} > {c_ratio:g} * g0")
    gap = max(
        float(np.max(np.abs(tables[f"left_{sign}"] - born.closed_form_t_left(params, sign, nodes))))
        for sign in ("plus", "minus")
    ) / left
    if not gap <= c_gap * g0:
        problems.append(f"gap to closed-form T^l {gap:.3e} > {c_gap:g} * g0")
    return problems


def check_tabulated(out, twin) -> list:
    """A tabulated copy evolves like the analytic potential it samples."""
    top = max(_sups(twin["tables"]).values())
    err = max(
        float(np.max(np.abs(out["tables"][key] - twin["tables"][key])))
        for key in TABLE_KEYS
    )
    if not err <= TABULATED_TOL * top:
        return [f"tabulated copy differs by {err / top:.3e} (relative) > {TABULATED_TOL:g}"]
    return []


# screen_sweep ------------------------------------------------------------

SMALL_WIDTH_RATIO = 1e-4  # acceptance 8i: |dP(1e-3)| <= 1e-4 max|dP|
ORACLE_TOL = 1e-9  # |adaptive - oracle| per max|dP| of the curve


def read_csv(path):
    """(config, columns, rows of tokens) of a CSV with a '# {json}' head."""
    with open(path) as fh:
        first = fh.readline()
        if not first.startswith("# "):
            raise ValueError(f"{path}: missing the '# ' config line")
        config = json.loads(first[2:])
        columns = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return config, columns, rows


def _full_precision(token: str) -> bool:
    return format(float(token), ".17g") == token


def check_fig2(outdir, rc: int, printed: str, reference: dict) -> list:
    """The fig2 files: layout, 17-digit values, small-width limit, oracle.

    `reference` maps each k tag to {"k", "s", "tiny", "subset", "oracle",
    "direct"}: the expected widths, |dP(s=1e-3)|, a seeded subset of width
    indices with the oracle's values and a fresh in-process screen_power at
    each.
    """
    if rc != 0:
        return [f"fig2 exited with {rc}"]
    problems = []
    manifest_path = os.path.join(outdir, "fig2_manifest.json")
    if printed.strip() != manifest_path:
        problems.append(f"fig2 printed {printed.strip()!r}, not the manifest path")
    with open(manifest_path) as fh:
        files = json.load(fh)["files"]
    if sorted(files) != sorted(reference):
        return problems + [f"manifest lists {sorted(files)}, expected {sorted(reference)}"]
    for tag, ref in reference.items():
        config, columns, rows = read_csv(os.path.join(outdir, files[tag]))
        if columns != ["s_over_a", "dP_hat"] or len(rows) != ref["s"].size:
            problems.append(f"{tag}: columns {columns}, {len(rows)} rows")
            continue
        if config.get("k") != ref["k"]:
            problems.append(f"{tag}: config k {config.get('k')} != {ref['k']}")
        short = [tok for row in rows for tok in row if not _full_precision(tok)]
        if short:
            problems.append(f"{tag}: {len(short)} values not written to 17 digits, e.g. {short[0]}")
        data = np.array([[float(tok) for tok in row] for row in rows])
        s, dp = data[:, 0], data[:, 1]
        if not np.all(np.isfinite(dp)):
            problems.append(f"{tag}: non-finite dP")
            continue
        if not np.allclose(s, ref["s"], rtol=1e-15, atol=0.0):
            problems.append(f"{tag}: widths differ from linspace(s_max/n, s_max, n)")
        peak = float(np.max(np.abs(dp)))
        if not ref["tiny"] <= SMALL_WIDTH_RATIO * peak:
            problems.append(f"{tag}: |dP(1e-3)| {ref['tiny']:.3e} > 1e-4 max|dP| {peak:.3e}")
        sub = ref["subset"]
        if not np.array_equal(dp[sub], ref["direct"]):
            problems.append(f"{tag}: CSV values do not read back to the computed ones")
        worst = float(np.max(np.abs(dp[sub] - ref["oracle"])))
        if not worst <= ORACLE_TOL * peak:
            problems.append(f"{tag}: adaptive vs oracle {worst / peak:.3e} of max|dP| > {ORACLE_TOL:g}")
    return problems


# power_points ------------------------------------------------------------

POWER_KEYS = (
    "left_backward", "left_forward", "left_total",
    "right_backward", "right_forward", "right_total",
)
RIGHT_ROUNDOFF = 1e-16  # right entries per largest left entry
SCALING_TOL = 1e-10  # acceptance criterion 7's tolerance
SCALING_FLOOR = 1e-20  # entries below this share of the largest are zeros
SCREEN_REL_TOL = 1e-8  # screen power vs oracle, relative part
SCREEN_ABS_PER_G0 = 1e-14  # and absolute part per unit g0 (dP is linear in g0)


def check_power(report, point: dict, oracle: float) -> list:
    """One power report: config echo, sums, right roundoff, screen oracle."""
    problems = []
    missing = [key for key in POWER_KEYS + ("screen_power", "config") if key not in report]
    if missing:
        return [f"power report lacks {missing}"]
    cfg = report["config"]
    for key in ("g0", "s", "d"):
        if cfg.get(key) != point[key]:
            problems.append(f"config {key}={cfg.get(key)} but the input was {point[key]}")
    if not math.isclose(cfg.get("k", 0.0), point["k"], rel_tol=1e-15):
        problems.append(f"config k={cfg.get('k')} but the input was {point['k']}")
    vals = {key: report[key] for key in POWER_KEYS + ("screen_power",)}
    if not all(isinstance(v, float) and math.isfinite(v) for v in vals.values()):
        return problems + [f"non-finite power entries {vals}"]
    for side in ("left", "right"):
        total = vals[f"{side}_backward"] + vals[f"{side}_forward"]
        if not math.isclose(vals[f"{side}_total"], total, rel_tol=1e-15, abs_tol=1e-300):
            problems.append(f"{side}_total {vals[f'{side}_total']} != backward + forward {total}")
    left = max(abs(vals[k]) for k in POWER_KEYS[:3])
    right = max(abs(vals[k]) for k in POWER_KEYS[3:])
    if not (left > 0 and right <= RIGHT_ROUNDOFF * left):
        problems.append(f"right entries {right:.3e} not at roundoff of left {left:.3e}")
    screen = vals["screen_power"]
    tol = SCREEN_REL_TOL * abs(oracle) + SCREEN_ABS_PER_G0 * point["g0"]
    if not abs(screen - oracle) <= tol:
        problems.append(f"screen power {screen:.6e} vs oracle {oracle:.6e}")
    return problems


def check_scaling(report, doubled, g0: float) -> list:
    """Criterion 7's laws: doubling g0 multiplies the far-zone entries by 4
    and the screen power by 2; entries at roundoff stay there."""
    base = np.array([report[k] for k in POWER_KEYS])
    twice = np.array([doubled[k] for k in POWER_KEYS])
    floor = SCALING_FLOOR * np.max(np.abs(base))
    live = np.abs(base) > floor
    problems = []
    if not np.any(live):
        return ["no far-zone entry above roundoff"]
    quad = float(np.max(np.abs(twice[live] / base[live] - 4.0)))
    if not quad <= SCALING_TOL:
        problems.append(f"far-zone entries scale by 4 only within {quad:.3e}")
    if not np.all(np.abs(twice[~live]) <= 4.0 * floor):
        problems.append("entries at roundoff grew under doubling")
    s1, s2 = report["screen_power"], doubled["screen_power"]
    lin = abs(s2 - 2.0 * s1)
    if not lin <= SCALING_TOL * abs(s2) + SCREEN_ABS_PER_G0 * 2.0 * g0:
        problems.append(f"screen power scales by 2 only within {lin:.3e} (abs)")
    return problems
