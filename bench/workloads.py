"""The benchmark's three closed-loop workloads.

Each workload builds a fixed, seeded pool of inputs at set-up; one round is
one pass over the pool, and a run repeats whole rounds.  Every round is the
same work, so a run's figures do not depend on how many rounds fit in it
and the per-round counts of a traced run repeat exactly.  The pools are
stratified so that what sets an operation's cost (the wavenumber, the
kind of potential, the screen width) has the same make-up for every seed;
the seed moves only the values within each stratum.

All calls into uniscat go through module attributes (``xfermat.evolve_transfer``
and so on), so a tracer installed after import sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

import checks
import uniscat.cli as cli
import uniscat.construct as construct
import uniscat.empower as empower
import uniscat.envelopes as envelopes
import uniscat.grids as grids
import uniscat.potentials as potentials
import uniscat.xfermat as xfermat

PI = float(np.pi)


def fig2_construction(k: float, g0: float):
    """The construction behind fig2 and power: quartic g(y), b = 1,
    (ell, m) = (-1, 1), slab 1."""
    return construct.ConstructionParams(
        ell=-1, m=1, envelope=envelopes.quartic_envelope(g0, 1.0), ctx=grids.WaveContext(k=k)
    )


# ---------------------------------------------------------------------------
# xfer_verify


@dataclass(frozen=True)
class VerifyItem:
    label: str
    potential: object
    grid: object
    params: object = None  # ConstructionParams of constructed potentials
    envelope: str = ""
    g0: float = 0.0
    twin: int = -1  # pool index of the analytic potential a copy samples


class XferVerify:
    """One op verifies one potential at N = 41 with the default slice count:
    what ``uniscat verify`` computes, for analytic, random and tabulated
    potentials."""

    GRID_N = 41
    TOL = 1e-6  # the verify command's default predicate tolerance
    PAIRS = ((-1, 1), (1, 2), (-2, 3))
    # A gaussian of g0 = 1e-2 is outside the Born regime (its evolved T^l
    # differs from the Born one by up to 100%), so it is left out there.
    G0S = {"quartic": (1e-4, 1e-3, 1e-2), "gaussian": (1e-4, 1e-3)}
    # 401 x 401 samples keep the spline error of a quartic copy near 1e-9;
    # the gaussian is not tabulated, since the generic transverse quadrature
    # limits its copies to ~2e-6.
    TAB_SAMPLES = 401
    # Random potentials run at k = 4 pi only: at 2 pi the default 200 slices
    # leave a symplectic residual above 1e-6 at amplitude ~300.
    RANDOM_K = 4.0 * PI
    RANDOM_AMPLITUDE = (0.05, 300.0)

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 1])
        pool = []

        def constructed(kind, k):
            ell, m = self.PAIRS[rng.integers(len(self.PAIRS))]
            g0 = float(rng.choice(self.G0S[kind]))
            make = envelopes.quartic_envelope if kind == "quartic" else envelopes.gaussian_envelope
            params = construct.ConstructionParams(
                ell=ell, m=m, envelope=make(g0, 1.0), ctx=grids.WaveContext(k=k)
            )
            return VerifyItem(
                label=f"constructed {kind} ({ell},{m}) g0={g0:g} k={k / PI:g}pi",
                potential=construct.build_potential_2d(params),
                grid=grids.gauss_grid(self.GRID_N, params.ctx),
                params=params,
                envelope=kind,
                g0=g0,
            )

        for k in (2.0 * PI, 4.0 * PI):
            analytic = constructed("quartic", k)
            pool.append(analytic)
            x, y, vals = potentials.sample_potential(
                analytic.potential, self.TAB_SAMPLES, self.TAB_SAMPLES
            )
            pool.append(
                VerifyItem(
                    label=f"tabulated copy of {analytic.label}",
                    potential=potentials.potential_from_samples(x, y, vals),
                    grid=analytic.grid,
                    twin=len(pool) - 1,
                )
            )
            pool.append(constructed(str(rng.choice(("quartic", "gaussian"))), k))
        grid = grids.gauss_grid(self.GRID_N, grids.WaveContext(k=self.RANDOM_K))
        lo, hi = np.log(self.RANDOM_AMPLITUDE)
        for stratum in range(2):  # one weak and one strong draw
            amp = float(np.exp(lo + (hi - lo) * (stratum + rng.uniform()) / 2.0))
            pot_seed = int(rng.integers(2**31))
            pool.append(
                VerifyItem(
                    label=f"random seed={pot_seed} amplitude={amp:.4g}",
                    potential=potentials.random_smooth_potential(pot_seed, amplitude=amp),
                    grid=grid,
                )
            )
        self.pool = pool
        self._last = {}

    def run(self, item: VerifyItem) -> dict:
        op = xfermat.evolve_transfer(item.potential, item.grid)
        flags = xfermat.predicates(op, self.TOL)
        left = xfermat.scattering_coeffs(op, "left")
        right = xfermat.scattering_coeffs(op, "right")
        current = xfermat.conserved_current(left, right, item.grid)
        tables = {
            key: xfermat.extract_t(op, *key.split("_")).values
            for key in checks.TABLE_KEYS
        }
        return {
            "tables": tables,
            "flags": flags,
            "current": (current[0].value, current[1].value),
            "symplectic": xfermat.check_symplectic(op),
            "m22_condition": op.m22_condition,
            "slices": op.slices,
        }

    def check(self, index: int, out: dict) -> list:
        item = self.pool[index]
        problems = checks.check_verify(out, item.grid.center_index, self.TOL)
        if item.params is not None:
            problems += checks.check_born_order(
                out, item.params, item.grid.nodes, item.envelope, item.g0
            )
        if item.twin >= 0:
            twin = self._last.get(item.twin)
            problems += (
                ["its analytic twin has no output"] if twin is None
                else checks.check_tabulated(out, twin)
            )
        self._last[index] = out
        return [f"{item.label}: {p}" for p in problems]


# ---------------------------------------------------------------------------
# screen_sweep


class ScreenSweep:
    """One op is one ``uniscat fig2`` with its defaults (4 wavenumbers x 400
    widths up to s = 100), run in-process through ``cli.main``."""

    KS = {"2pi": 2.0 * PI, "4pi": 4.0 * PI, "8pi": 8.0 * PI, "12pi": 12.0 * PI}
    S_MAX, SAMPLES, D, G0 = 100.0, 400, 100.0, 1e-2
    SUBSET = 16  # seeded widths per wavenumber checked against the oracle

    def __init__(self, seed: int, workdir: str):
        self.outdir = os.path.join(workdir, "fig2")
        self.pool = [None]
        rng = np.random.default_rng([seed, 2])
        self._subsets = {
            tag: np.sort(rng.choice(self.SAMPLES, self.SUBSET, replace=False))
            for tag in self.KS
        }
        self._reference = None

    def run(self, item) -> tuple:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["fig2", "--out-dir", self.outdir])
        return rc, buf.getvalue()

    def reference(self) -> dict:
        """Independent figures for the checks, computed once per run."""
        if self._reference is None:
            s = np.linspace(self.S_MAX / self.SAMPLES, self.S_MAX, self.SAMPLES)
            ref = {}
            for tag, k in self.KS.items():
                params = fig2_construction(k, self.G0)
                sub = self._subsets[tag]
                screens = [empower.ScreenSpec(d=self.D, s=float(w)) for w in s[sub]]
                ref[tag] = {
                    "k": k,
                    "s": s,
                    "tiny": abs(empower.screen_power(params, empower.ScreenSpec(d=self.D, s=1e-3))),
                    "subset": sub,
                    "oracle": np.array([empower.screen_power_oracle(params, sc) for sc in screens]),
                    "direct": np.array([empower.screen_power(params, sc) for sc in screens]),
                }
            self._reference = ref
        return self._reference

    def check(self, index: int, out: tuple) -> list:
        rc, printed = out
        return checks.check_fig2(self.outdir, rc, printed, self.reference())


# ---------------------------------------------------------------------------
# power_points


class PowerPoints:
    """One op is one ``uniscat power`` at a seeded point, run in-process
    through ``cli.main``: Born amplitude tables, the far-zone budget and one
    adaptive screen integral."""

    K_MULTIPLES = (2, 4, 6, 8, 10, 12)
    S_RANGE = (0.5, 400.0)
    S_STRATA = 32  # log-width strata; every wavenumber gets one point in each
    G0_RANGE = (1e-3, 2e-2)
    D = 100.0

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 3])
        lo, hi = np.log(self.S_RANGE)
        pool = []
        for n in self.K_MULTIPLES:
            for stratum in range(self.S_STRATA):
                frac = (stratum + rng.uniform()) / self.S_STRATA
                pool.append(
                    {
                        "n": n,
                        "k": n * PI,
                        "g0": float(rng.uniform(*self.G0_RANGE)),
                        "s": float(np.exp(lo + (hi - lo) * frac)),
                        "d": self.D,
                    }
                )
        order = rng.permutation(len(pool))
        self.pool = [pool[i] for i in order]
        # the first point of each wavenumber in the shuffled pool also gets
        # the doubled-g0 scaling check
        self._scaled = {
            next(i for i, p in enumerate(self.pool) if p["n"] == n)
            for n in self.K_MULTIPLES
        }
        self.out = os.path.join(workdir, "power.json")
        self._oracle = {}

    def _power(self, point: dict, g0: float) -> int:
        return cli.main([
            "power", "--k", f"{point['n']}pi", "--g0", repr(g0), "--s", repr(point["s"]),
            "--d", repr(point["d"]), "--out", self.out,
        ])

    def run(self, point: dict) -> int:
        return self._power(point, point["g0"])

    def _report(self) -> dict:
        with open(self.out) as fh:
            return json.load(fh)

    def oracle(self, index: int) -> float:
        """screen_power_oracle at pool point `index`, computed once per run."""
        if index not in self._oracle:
            point = self.pool[index]
            self._oracle[index] = empower.screen_power_oracle(
                fig2_construction(point["k"], point["g0"]),
                empower.ScreenSpec(d=point["d"], s=point["s"]),
            )
        return self._oracle[index]

    def check(self, index: int, rc: int) -> list:
        point = self.pool[index]
        tag = f"k={point['n']}pi g0={point['g0']:.4g} s={point['s']:.4g}"
        if rc != 0:
            return [f"{tag}: power exited with {rc}"]
        report = self._report()
        problems = checks.check_power(report, point, self.oracle(index))
        if index in self._scaled:
            self._scaled.discard(index)  # once per run is enough
            if self._power(point, 2.0 * point["g0"]) != 0:
                problems.append("power at doubled g0 failed")
            else:
                problems += checks.check_scaling(report, self._report(), point["g0"])
        return [f"{tag}: {p}" for p in problems]


WORKLOADS = {
    "xfer_verify": XferVerify,
    "screen_sweep": ScreenSweep,
    "power_points": PowerPoints,
}
