"""Self-tests of the benchmark's checks: none of them is vacuous.

    python3 bench/selftest.py

Runs one genuine operation of each kind, shows that every check passes on
it, then corrupts the output in one way at a time (swapped left and right
tables, a broken current, a perturbed dP sample, short CSV digits, ...)
and shows that the check meant to catch it reports a problem.  Exits 1 if
any expectation fails.  Takes about ten seconds.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import tempfile

import run  # pins BLAS to one thread before numpy loads

run.import_program()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(name, problems, should_fail=True):
    ok = bool(problems) == should_fail
    verdict = "ok  " if ok else "FAIL"
    detail = problems[0] if problems else "no problem reported"
    print(f"{verdict} {name}: {detail}")
    if not ok:
        FAILURES.append(name)


def xfer_cases(workdir):
    wl = workloads.XferVerify(0, workdir)
    # pool: 2pi (analytic, copy, analytic), 4pi (analytic, copy, analytic), 2 random
    analytic = wl.pool[3]
    outs = {i: wl.run(wl.pool[i]) for i in (3, 4, 6)}
    center, tol = analytic.grid.center_index, wl.TOL

    def generic(out):
        return checks.check_verify(out, center, tol)

    def born_order(out):
        return checks.check_born_order(
            out, analytic.params, analytic.grid.nodes, analytic.envelope, analytic.g0
        )

    expect("verify: genuine analytic output passes", generic(outs[3]) + born_order(outs[3]), False)
    expect("verify: genuine random output passes", generic(outs[6]), False)
    expect("verify: genuine tabulated copy passes",
           checks.check_tabulated(outs[4], outs[3]), False)

    bad = copy.deepcopy(outs[3])
    t = bad["tables"]
    t["left_plus"], t["right_plus"] = t["right_plus"], t["left_plus"]
    t["left_minus"], t["right_minus"] = t["right_minus"], t["left_minus"]
    expect("verify: swapped left and right tables", born_order(bad))

    bad = copy.deepcopy(outs[3])
    for key in ("left_plus", "left_minus"):
        bad["tables"][key] = bad["tables"][key] * 1.05
    expect("verify: left tables 5% off the closed form", born_order(bad))

    bad = copy.deepcopy(outs[6])
    bad["symplectic"] = 1e-5
    expect("verify: symplectic residual above bound", generic(bad))

    bad = copy.deepcopy(outs[6])
    j_minus, j_plus = bad["current"]
    bad["current"] = (j_minus, j_plus * (1.0 + 1e-4))
    expect("verify: broken current", generic(bad))

    bad = copy.deepcopy(outs[6])
    top = max(float(np.max(np.abs(v))) for v in bad["tables"].values())
    bad["tables"]["right_minus"] = bad["tables"]["right_minus"].copy()
    bad["tables"]["right_minus"][center] += 1e-5 * top
    expect("verify: forward transmissions disagree", generic(bad))

    bad = copy.deepcopy(outs[6])
    bad["flags"]["right_invisible"] = not bad["flags"]["right_invisible"]
    expect("verify: predicate flag contradicts the tables", generic(bad))

    bad = copy.deepcopy(outs[6])
    bad["m22_condition"] = float("inf")
    expect("verify: singular M22", generic(bad))

    bad = copy.deepcopy(outs[4])
    bad["tables"]["left_plus"] = bad["tables"]["left_plus"] * (1.0 + 1e-6)
    expect("verify: tabulated copy drifts 1e-6", checks.check_tabulated(bad, outs[3]))


def _rewrite_csv(path, transform):
    """Rewrite the dP column of a fig2 CSV through transform(index, value)."""
    with open(path) as fh:
        lines = fh.readlines()
    for i in range(2, len(lines)):
        s_tok, dp_tok = lines[i].strip().split(",")
        lines[i] = f"{s_tok},{transform(i - 2, float(dp_tok))}\n"
    with open(path, "w") as fh:
        fh.writelines(lines)


def screen_cases(workdir):
    wl = workloads.ScreenSweep(0, workdir)
    rc, printed = wl.run(None)
    ref = wl.reference()
    outdir = wl.outdir
    expect("fig2: genuine output passes", checks.check_fig2(outdir, rc, printed, ref), False)

    def fresh_copy():
        dst = os.path.join(workdir, "corrupt")
        shutil.rmtree(dst, ignore_errors=True)
        shutil.copytree(outdir, dst)
        return dst, printed.replace(outdir, dst)

    # A wrong adaptive integral shows in the file and in a fresh in-process
    # call alike; only the oracle comparison can catch it.
    dst, out = fresh_copy()
    sub = set(ref["2pi"]["subset"][:1].tolist())
    _rewrite_csv(os.path.join(dst, "fig2_k2pi.csv"),
                 lambda i, v: format(v * (1.0 + 1e-6) if i in sub else v, ".17g"))
    bad_ref = copy.deepcopy(ref)
    bad_ref["2pi"]["direct"] = bad_ref["2pi"]["direct"].copy()
    bad_ref["2pi"]["direct"][0] *= 1.0 + 1e-6
    expect("fig2: one dP sample off by 1e-6", checks.check_fig2(dst, rc, out, bad_ref))

    dst, out = fresh_copy()
    _rewrite_csv(os.path.join(dst, "fig2_k4pi.csv"), lambda i, v: format(v, ".8g"))
    expect("fig2: values written to 8 digits", checks.check_fig2(dst, rc, out, ref))

    _, _, rows = checks.read_csv(os.path.join(outdir, "fig2_k8pi.csv"))
    bad_ref = copy.deepcopy(ref)
    bad_ref["8pi"]["tiny"] = 1e-3 * max(abs(float(dp)) for _, dp in rows)
    expect("fig2: dP does not vanish at s = 1e-3", checks.check_fig2(outdir, rc, printed, bad_ref))

    bad_ref = copy.deepcopy(ref)
    bad_ref["12pi"]["s"] = bad_ref["12pi"]["s"] * (1.0 + 1e-12)
    expect("fig2: widths off the requested grid", checks.check_fig2(outdir, rc, printed, bad_ref))

    expect("fig2: printed path is not the manifest",
           checks.check_fig2(outdir, rc, printed + "x", ref))

    dst, out = fresh_copy()
    mpath = os.path.join(dst, "fig2_manifest.json")
    with open(mpath) as fh:
        manifest = json.load(fh)
    del manifest["files"]["12pi"]
    with open(mpath, "w") as fh:
        json.dump(manifest, fh)
    expect("fig2: manifest misses a wavenumber", checks.check_fig2(dst, rc, out, ref))


def power_cases(workdir):
    wl = workloads.PowerPoints(0, workdir)
    index = min(wl._scaled)
    point = wl.pool[index]
    if wl.run(point) != 0:
        raise RuntimeError("uniscat power failed")
    report = wl._report()
    if wl._power(point, 2.0 * point["g0"]) != 0:
        raise RuntimeError("uniscat power at doubled g0 failed")
    doubled = wl._report()
    oracle = wl.oracle(index)
    expect("power: genuine report passes", checks.check_power(report, point, oracle), False)
    expect("power: genuine g0 doubling passes",
           checks.check_scaling(report, doubled, point["g0"]), False)

    bad = dict(report)
    for side in ("backward", "forward", "total"):
        bad[f"left_{side}"], bad[f"right_{side}"] = report[f"right_{side}"], report[f"left_{side}"]
    expect("power: swapped left and right entries", checks.check_power(bad, point, oracle))

    bad = dict(report, screen_power=report["screen_power"] * (1.0 + 1e-6))
    expect("power: screen power off by 1e-6", checks.check_power(bad, point, oracle))

    bad = dict(report, left_total=report["left_total"] * (1.0 + 1e-9))
    expect("power: total is not backward + forward", checks.check_power(bad, point, oracle))

    bad = dict(report, config=dict(report["config"], g0=2.0 * point["g0"]))
    expect("power: report echoes another g0", checks.check_power(bad, point, oracle))

    bad = {k: v for k, v in report.items() if k != "right_forward"}
    expect("power: report misses an entry", checks.check_power(bad, point, oracle))

    bad = dict(doubled, left_backward=doubled["left_backward"] * (1.0 + 1e-8))
    expect("power: far-zone entry off the x4 law",
           checks.check_scaling(report, bad, point["g0"]))

    bad = dict(doubled, screen_power=doubled["screen_power"] * (1.0 + 1e-6))
    expect("power: screen power off the x2 law",
           checks.check_scaling(report, bad, point["g0"]))


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        xfer_cases(workdir)
        screen_cases(workdir)
        power_cases(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if FAILURES:
        print(f"{len(FAILURES)} self-test expectation(s) failed: {FAILURES}")
        return 1
    print("all check self-tests behave as expected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
