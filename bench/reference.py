"""Reference timings of the hot paths, set beside the ROADMAP re-anchor figures.

    python3 bench/reference.py

Times, with BLAS pinned to one thread as in run.py, the median of three
repeats of: evolve_transfer at N = 41/81/161 with 400 slices (the verify
defaults: quartic (-1, 1), g0 = 1e-2, k = 4 pi), fig2_curves with its
defaults, one screen_power at s = 100 per fig2 wavenumber, and one Tier-1
pytest run.  Prints a markdown table; takes about two minutes.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from time import perf_counter

import run  # pins BLAS to one thread before numpy loads

run.import_program()

import numpy as np  # noqa: E402

import uniscat  # noqa: E402

REPEATS = 3
# ROADMAP re-anchor figures (2 cores, OpenBLAS 0.3.31, default threads).
ROADMAP = {
    "evolve_transfer N=41, 400 slices": "~0.40 s",
    "evolve_transfer N=81, 400 slices": "~1.9 s",
    "evolve_transfer N=161, 400 slices": "~9.8 s",
    "fig2_curves, 4 x 400 widths": "~2.4 s",
    "Tier-1 pytest": "~24 s",
}


def timed(fn, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def construction(k):
    return uniscat.ConstructionParams(
        ell=-1, m=1, envelope=uniscat.quartic_envelope(1e-2, 1.0),
        ctx=uniscat.WaveContext(k=k),
    )


def main() -> int:
    rows = []
    params = construction(4.0 * np.pi)
    v = uniscat.build_potential_2d(params)
    for n in (41, 81, 161):
        grid = uniscat.gauss_grid(n, params.ctx)
        rows.append((f"evolve_transfer N={n}, 400 slices",
                     timed(lambda: uniscat.evolve_transfer(v, grid, slices=400))))
    rows.append(("fig2_curves, 4 x 400 widths", timed(uniscat.fig2_curves)))
    for mult in (2, 4, 8, 12):
        p = construction(mult * np.pi)
        screen = uniscat.ScreenSpec(d=100.0, s=100.0)
        rows.append((f"screen_power s=100, k={mult}pi",
                     timed(lambda: uniscat.screen_power(p, screen), repeats=25)))
    root = run.SRC.parent
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "tests"],
        cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        check=False,
    )
    rows.append(("Tier-1 pytest", perf_counter() - t0))
    print("| Case | This machine, 1 BLAS thread | ROADMAP re-anchor |")
    print("|---|---|---|")
    for name, secs in rows:
        print(f"| {name} | {secs:.3g} s | {ROADMAP.get(name, '-')} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
