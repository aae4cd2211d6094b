"""The three benchmark workloads.

Each workload builds its inputs from the workload seed once (set-up), then
runs identical units of work in a closed loop with one caller. A unit
returns its wall time, how many operations it attempted and how many
failed, the correctness problems it found, and the figures the run reports.

The package is reached only through module attributes looked up at call
time (``experiment.adjust_cell``, never a name bound at import), so the
tracer's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from ess import bulk_ess

PRIORS = ("uninformative", "typeA", "typeB", "typeC")
KINDS = ("linear", "logistic")
SLOPE = {"linear": "beta", "logistic": "alpha"}
ADJUST_STREAM = 1000  # stream prefix meadjust's replication grid gives its cells


@dataclass
class Unit:
    wall_s: float
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # per-kind cell wall time and scan count
    cell_s: dict[str, float] = field(default_factory=dict)
    scans: dict[str, int] = field(default_factory=dict)
    # one entry per cell (acceptance: per cell and chain)
    ess_slope: list[float] = field(default_factory=list)
    ess_log_tau_e: list[float] = field(default_factory=list)
    accept: dict[str, list[float]] = field(default_factory=dict)
    cells: int = 0
    unconverged: int = 0
    logistic_iterations: int = 0
    fingerprint: str = ""


def _finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _record_cell(unit: Unit, cell, label: str) -> None:
    """Count the cell, failing it on a non-finite summary or R-hat."""
    unit.cells += 1
    bad = [s.parameter for s in cell.summaries if not _finite(s.mean, s.p2_5, s.p97_5)]
    bad += [r.parameter for r in cell.rhats if not _finite(r.rhat)]
    if bad:
        unit.failed += 1
        unit.problems.append(f"{label}: non-finite summary for {', '.join(bad)}")
        return
    unit.unconverged += not cell.converged
    slope = np.array(cell.samples.chain_arrays(SLOPE[cell.kind]))
    tau_e = np.array(cell.samples.chain_arrays("tau_e"))
    unit.ess_slope.append(bulk_ess(slope))
    unit.ess_log_tau_e.append(bulk_ess(np.log(tau_e)))
    for rates in cell.samples.acceptance_rates:
        for block, rate in rates.items():
            unit.accept.setdefault(block, []).append(rate)


class DeskGrid:
    """`meadjust replicate` in-process through `cli.main`: an n=2000 null
    cohort, all four priors by both model kinds, three chains per cell.

    Each scan costs about a millisecond of Python call overhead spread over
    ten small blocks, and the eight cells are independent, so this is where
    mixing (ESS) and cell or chain parallelism show. Burn-in spans four
    windows of the scale adaptation and seven refreshes of the structural
    proposal covariance, so the kept draws come from adapted proposals; the
    kept part is shorter than the package default so that grids fit a
    benchmark run, and the gate verdict at this length is reported, not
    counted as a failure.
    """

    name = "desk-grid"
    MCMC = {"n_chains": 3, "burn_in": 200, "keep": 50, "thin": 1}

    def __init__(self, meadjust, seed: int, out_dir: str):
        self.m = meadjust
        self.table_dir = os.path.join(out_dir, "tables")
        self.config_path = os.path.join(out_dir, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as f:
            json.dump({"cohort": {"n": 2000, "seed": seed}, "mcmc": {**self.MCMC, "seed": seed}}, f)
        self.scans_per_cell = self.MCMC["n_chains"] * (self.MCMC["burn_in"] + self.MCMC["keep"])

    def unit(self, index: int) -> Unit:
        cli, experiment = self.m.cli, self.m.experiment
        attempted = len(PRIORS) * len(KINDS)
        captured = {}
        cell_s = dict.fromkeys(KINDS, 0.0)
        grid, adjust_cell = cli.run_replication_grid, experiment.adjust_cell

        def capture_grid(*args, **kwargs):
            captured["results"] = grid(*args, **kwargs)
            return captured["results"]

        def timed_cell(cohort, kind, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return adjust_cell(cohort, kind, *args, **kwargs)
            finally:
                cell_s[kind] += time.perf_counter() - t0

        cli.run_replication_grid, experiment.adjust_cell = capture_grid, timed_cell
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["replicate", "--config", self.config_path, "--out-dir", self.table_dir])
        except Exception:  # a failed grid is counted, the run goes on
            code = None
            err.write(traceback.format_exc(limit=3))
        finally:
            wall = time.perf_counter() - t0
            cli.run_replication_grid, experiment.adjust_cell = grid, adjust_cell

        unit = Unit(wall_s=wall, attempted=attempted, cell_s=cell_s)
        results = captured.get("results")
        if code not in (0, 3) or results is None:  # 3: some cell missed the R-hat gate
            unit.failed = attempted
            unit.problems.append(f"replicate exited {code}: {err.getvalue().strip()}")
            return unit
        for kind in KINDS:
            cells = results.get(kind, [])
            unit.scans[kind] = self.scans_per_cell * len(cells)
            if [c.variant for c in cells] != list(PRIORS):
                unit.problems.append(f"{kind}: grid rows {[c.variant for c in cells]}")
            for cell in cells:
                _record_cell(unit, cell, f"{kind}/{cell.variant}")
        unit.failed += attempted - unit.cells
        unit.fingerprint = self._fingerprint(unit)
        return unit

    def _fingerprint(self, unit: Unit) -> str:
        """SHA-256 over table_linear.csv then table_logistic.csv."""
        digest = hashlib.sha256()
        for kind in KINDS:
            path = os.path.join(self.table_dir, f"table_{kind}.csv")
            try:
                with open(path, "rb") as f:
                    data = f.read()
            except OSError as exc:
                unit.problems.append(f"missing table: {exc}")
                return ""
            rows = [ln for ln in data.decode("utf-8").splitlines() if not ln.startswith("#")]
            if len(rows) != 1 + len(PRIORS):
                unit.problems.append(f"{path}: {len(rows) - 1} rows")
            digest.update(data)
        return digest.hexdigest()


class FullCell:
    """`run_chains` once per model kind with the typeB prior at n=100 000,
    two chains and a short fixed scan count.

    A scan costs 30-60 ms, most of it O(n) array passes in the structural
    move and the latent block, so this is where caching and sufficient
    statistics show, and where a costlier logistic proposal shows as a
    slowdown. Mixing cannot be measured at this length: the logistic
    coefficient block accepts a few proposals in a hundred at this n, so
    a short chain often never moves and the R-hat of `adjust_cell` raises
    on a zero within-chain variance. The sampler layer, which takes nearly
    all of a cell's time, is therefore timed directly. Burn-in is shorter
    than the 50-scan adaptation window, so the acceptance rates reported
    here are those of the starting proposal scales.
    """

    name = "full-cell"
    MCMC = {"n_chains": 2, "burn_in": 5, "keep": 15, "thin": 1}
    PRIOR = "typeB"

    def __init__(self, meadjust, seed: int, out_dir: str):
        self.m = meadjust
        cohort = meadjust.cohort.simulate_cohort(meadjust.CohortConfig(n=100_000, seed=seed))
        self.specs = {
            kind: meadjust.ModelSpec.from_cohort(cohort, kind, meadjust.experiment.priors_for(kind, self.PRIOR))
            for kind in KINDS
        }
        self.mcmc = meadjust.McmcConfig(**self.MCMC, seed=seed)
        self.scans_per_cell = self.MCMC["n_chains"] * (self.MCMC["burn_in"] + self.MCMC["keep"])
        self.first_draws: dict[str, np.ndarray] = {}

    def unit(self, index: int) -> Unit:
        unit = Unit(wall_s=0.0, attempted=len(KINDS))
        for k_idx, kind in enumerate(KINDS):
            stream = (ADJUST_STREAM, k_idx, PRIORS.index(self.PRIOR))
            t0 = time.perf_counter()
            try:
                samples = self.m.mcmc.run_chains(self.specs[kind], self.mcmc, stream=stream)
            except Exception:  # a failed cell is counted, the run goes on
                unit.failed += 1
                unit.problems.append(f"{kind}: {traceback.format_exc(limit=3)}")
                continue
            finally:
                unit.cell_s[kind] = time.perf_counter() - t0
                unit.wall_s += unit.cell_s[kind]
            unit.scans[kind] = self.scans_per_cell
            draws = np.array([samples.chain_arrays(name) for name in samples.param_names])
            if not np.all(np.isfinite(draws)):
                unit.failed += 1
                unit.problems.append(f"{kind}: non-finite draws")
            elif not np.array_equal(self.first_draws.setdefault(kind, draws), draws):
                unit.problems.append(f"{kind}: same-seed chains gave other draws")
            for rates in samples.acceptance_rates:
                for block, rate in rates.items():
                    unit.accept.setdefault(block, []).append(rate)
        return unit


class CohortIO:
    """simulate -> write_cohort -> read_cohort -> naive linear and logistic
    fits -> the `evidence` command with its default arguments, at n=100 000,
    on a new workload-seeded cohort each unit.

    The only workload where cohort CSV writes and reads dominate; it never
    reaches the sampler, so an MCMC change should not move it.
    """

    name = "cohort-io"
    N = 100_000
    STEPS = 6
    EVIDENCE_ROWS = 9  # default prefixes 10,100,1000 by p-null 0.5,0.25,0.01

    def __init__(self, meadjust, seed: int, out_dir: str):
        self.m = meadjust
        self.seed = seed
        self.path = os.path.join(out_dir, "cohort.csv")
        self.evidence_dir = os.path.join(out_dir, "evidence")

    def unit(self, index: int) -> Unit:
        m = self.m
        unit = Unit(wall_s=0.0, attempted=self.STEPS)
        done = 0
        seed = self.seed * 1000 + index
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            cohort = m.cohort.simulate_cohort(m.CohortConfig(n=self.N, seed=seed))
            done += 1
            m.cohort.write_cohort(cohort, self.path)
            done += 1
            back = m.cohort.read_cohort(self.path)
            done += 1
            linear = m.naive.fit_linear(back.w_obs, back.y)
            done += 1
            logistic = m.naive.fit_logistic(back.w_obs, back.z)
            done += 1
            with contextlib.redirect_stdout(out):
                code = m.cli.main(["evidence", "--seed", str(seed), "--out-dir", self.evidence_dir])
            if code != 0:
                raise RuntimeError(f"evidence exited {code}")
            done += 1
        except Exception:  # a failed step is counted, the run goes on
            unit.wall_s = time.perf_counter() - t0
            unit.failed = self.STEPS - done
            unit.problems.append(traceback.format_exc(limit=3))
            return unit
        unit.wall_s = time.perf_counter() - t0

        if not (back == cohort and back.config == cohort.config):
            unit.problems.append("read_cohort did not return the cohort written")
        for label, fit in (("fit_linear", linear), ("fit_logistic", logistic)):
            if not _finite(fit.intercept, fit.slope, fit.slope_se):
                unit.failed += 1
                unit.problems.append(f"{label}: non-finite estimate")
        if not logistic.converged:
            unit.problems.append("fit_logistic did not converge")
        unit.logistic_iterations = logistic.iterations
        rows = self._evidence_rows()
        if len(rows) != self.EVIDENCE_ROWS or not all(
            _finite(*row) and row[2] > 0 for row in rows
        ):
            unit.failed += 1
            unit.problems.append(f"evidence table: {rows}")
        return unit

    def _evidence_rows(self) -> list[list[float]]:
        """Rows of evidence.csv: n, p_null, delta and the two log marginals."""
        with open(os.path.join(self.evidence_dir, "evidence.csv"), encoding="utf-8") as f:
            lines = [ln for ln in f.read().splitlines() if ln and not ln.startswith("#")]
        return [[float(x) for x in ln.split(",")] for ln in lines[1:]]


WORKLOADS = {w.name: w for w in (DeskGrid, FullCell, CohortIO)}
