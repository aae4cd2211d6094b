"""meadjust benchmark: one workload per run, one JSON result line at the end.

    python3 perfbench/run.py --workload desk-grid --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The workload inputs come from ``--seed`` alone. Units of work run
back to back until ``--seconds`` is spent (at least one, two when traced).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
alternates untraced and traced units and reports the per-layer metrics:
times from the traced units, ESS/s and ms/scan from the untraced ones, and
the traced/untraced wall-time ratio minus one as ``trace.overhead``.

Lines before the last one report the figures by name and unit. Work files
and spans go to ``.perfbench_out/<workload>/``, and a result file with the
run environment to ``.perfbench_out/results/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# Each workload is one caller on one thread. Unless the caller says
# otherwise, BLAS gets one thread too: its idle workers would spin on the
# other core and make the timings depend on what else runs there.
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy  # noqa: E402  (after the thread variables are set)
import scipy  # noqa: E402

from tracing import MCMC_BLOCKS, Tracer
from workloads import KINDS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 7
RSS_INTERVAL_S = 0.05


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def _import_package():
    """Import meadjust from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "meadjust", "__init__.py")):
        raise SystemExit(f"error: no meadjust sources under {SRC}")
    sys.path.insert(0, SRC)
    import meadjust
    import meadjust.cli
    import meadjust.cohort
    import meadjust.evidence
    import meadjust.experiment
    import meadjust.naive

    if not os.path.abspath(meadjust.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported meadjust from {meadjust.__file__}, not {SRC}")
    return meadjust


def _setup(args, out_dir):
    meadjust = _import_package()
    os.makedirs(out_dir, exist_ok=True)
    return WORKLOADS[args.workload](meadjust, args.seed, out_dir)


def _clock() -> float:
    """Seconds on the system-wide monotonic clock, comparable across
    processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _setup_seconds(args) -> list[float]:
    """Set-up times of fresh processes, one after another: from spawn until
    the process has imported the package and built the inputs, read from
    the clock time the process prints at that point."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = _clock()
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=120)
        times.append(float(done.stdout.split()[-1]) - t0)
    return times


def _environment(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
    }


def _tree_rss_kb(pid: int) -> int:
    """Resident set of a process and all its descendants, from /proc; 0 for
    a process that has already gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as f:
            rss = next((int(ln.split()[1]) for ln in f if ln.startswith("VmRSS:")), 0)
        children = []
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as f:
                children += [int(c) for c in f.read().split()]
    except (OSError, ValueError):
        return 0
    return rss + sum(_tree_rss_kb(c) for c in children)


class TreeRssPeak:
    """Largest summed resident set of this process and its worker processes,
    sampled by a background thread while the block runs."""

    def __init__(self):
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self):
        while True:
            self.peak_kb = max(self.peak_kb, _tree_rss_kb(os.getpid()))
            if self._stop.wait(RSS_INTERVAL_S):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def _run_units(workload, seconds: float, trace: bool):
    """Closed loop: the next unit starts when the last one returns, while
    the time left fits another. Traced runs alternate untraced and traced
    units, starting untraced."""
    plain, traced = [], []
    start = time.perf_counter()
    i = 0
    while True:
        if trace and i % 2 == 1:
            tracer = Tracer()
            with tracer.patched():
                traced.append((workload.unit(i), tracer))
        else:
            plain.append(workload.unit(i))
        i += 1
        elapsed = time.perf_counter() - start
        if i >= (2 if trace else 1) and elapsed * (i + 1) / i > seconds:
            return plain, traced


def _median(values, default=0.0) -> float:
    values = [v for v in values if math.isfinite(v)]
    return statistics.median(values) if values else default


def _figures(units) -> dict[str, float]:
    """Untraced figures: ESS/s per cell sum, ms/scan per kind."""
    fig = {
        "ess_per_s.slope": _median([sum(u.ess_slope) / u.wall_s for u in units]),
        "ess_per_s.log_tau_e": _median([sum(u.ess_log_tau_e) / u.wall_s for u in units]),
    }
    for kind in KINDS:
        fig[f"ms_per_scan.{kind}"] = _median(
            [1000.0 * u.cell_s[kind] / u.scans[kind] for u in units if u.scans.get(kind)]
        )
    return fig


def _layers(unit, tracer, problems: list[str]) -> dict[str, float]:
    """Per-layer figures of one traced unit, seconds per unit unless named
    otherwise."""
    own = tracer.self_times()

    def self_s(prefix):
        return sum((t for name, t in own.items() if name.startswith(prefix)), 0.0)

    # run_chains time is its own plus that of the spans inside it, so the
    # block times and scan_other account for it when every span inside is
    # one of its kind's sampler blocks.
    for outer, inner in tracer.nested_in(".run_chains"):
        if inner not in {outer.replace("run_chains", b) for b in MCMC_BLOCKS}:
            problems.append(f"{inner} ran inside {outer}, outside the sampler blocks")
    out = {}
    for kind in KINDS:
        scans = unit.scans.get(kind, 0)
        names = [f"mcmc.{kind}.{b}" for b in MCMC_BLOCKS] + [f"mcmc.{kind}.run_chains"]
        for name in names:
            label = name.replace("run_chains", "scan_other")
            out[f"{label}.ms_per_scan"] = 1000.0 * own.get(name, 0.0) / scans if scans else 0.0
    out.update({
        "cli.s": own.get("cli.main", 0.0),
        "experiment.s": self_s("experiment.adjust_cell") + self_s("experiment.run_replication_grid"),
        "experiment.write_table_s": own.get("experiment.write_table", 0.0),
        "diagnostics.s": self_s("diagnostics."),
        "cohort.simulate_s": own.get("cohort.simulate", 0.0),
        "cohort.write_s": own.get("cohort.write", 0.0),
        "cohort.read_s": own.get("cohort.read", 0.0),
        "naive.fit_linear_s": own.get("naive.fit_linear", 0.0),
        "naive.fit_logistic_s": own.get("naive.fit_logistic", 0.0),
        "evidence.s": self_s("evidence."),
    })
    return out


def _counts(units) -> dict[str, float]:
    """Acceptance, minimum ESS and gate verdicts, which tracing leaves
    unchanged; 0 where the workload never reaches the sampler."""
    cells = sum(u.cells for u in units)
    out = {}
    for block in ("coeffs", "latent", "mu_x", "structural"):
        rates = [r for u in units for r in u.accept.get(block, [])]
        out[f"mcmc.{block}.accept"] = statistics.fmean(rates) if rates else 0.0
    out["mcmc.ess_min.slope"] = min((e for u in units for e in u.ess_slope), default=0.0)
    out["mcmc.ess_min.log_tau_e"] = min((e for u in units for e in u.ess_log_tau_e), default=0.0)
    out["experiment.unconverged_share"] = sum(u.unconverged for u in units) / cells if cells else 0.0
    out["naive.fit_logistic.iterations"] = _median([u.logistic_iterations for u in units])
    return out


# Each workload's own name for its wall time, and its headline figures;
# printed next to the BENCHMARK.json metrics.
WALL_ALIAS = {"desk-grid": "grid_wall_s", "full-cell": None, "cohort-io": "pipeline_s"}
HEADLINE = {
    "desk-grid": ("ess_per_s.slope", "ess_per_s.log_tau_e"),
    "full-cell": ("ms_per_scan.linear", "ms_per_scan.logistic"),
    "cohort-io": (),
}


def main(argv=None) -> int:
    args = _parse_args(argv)
    out_dir = os.path.join(ROOT, ".perfbench_out", args.workload)
    if args.setup_only:
        _setup(args, out_dir)
        print(_clock())
        return 0

    _import_package()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    units_of = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units_of.update(failed_share="share", grid_wall_s="s", pipeline_s="s")
    shutil.rmtree(out_dir, ignore_errors=True)
    setup_times = _setup_seconds(args)
    workload = _setup(args, out_dir)
    env = _environment(args)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    with TreeRssPeak() as rss:
        plain, traced = _run_units(workload, args.seconds, bool(args.trace))
    units = plain + [u for u, _ in traced]
    problems = [f"unit {i}: {p}" for i, u in enumerate(units) for p in u.problems]
    fingerprints = {u.fingerprint for u in units}
    if len(fingerprints) > 1:
        problems.append(f"same-seed units wrote different tables: {sorted(fingerprints)}")
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)

    wall = _median([u.wall_s for u in plain])
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        # the process's own high-water mark, or the sampled peak of the
        # process tree if workers made that larger
        "peak_rss_mb": max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, rss.peak_kb) / 1024.0,
        "wall_s": wall,
    }
    figures = _figures(plain)
    if args.trace:
        per_unit = [_layers(u, tracer, problems) for u, tracer in traced]
        values = {name: _median([d[name] for d in per_unit]) for name in per_unit[0]}
        values.update(_counts(units))
        values.update(figures)
        values["trace.overhead"] = _median([u.wall_s for u, _ in traced]) / wall - 1.0
        listed = spec["per_layer"]
        for i, (_, tracer) in enumerate(traced):
            tracer.write_csv(os.path.join(out_dir, f"spans_{i}.csv"))
    else:
        values = end_to_end
        listed = spec["end_to_end"]
    if {m["name"] for m in listed} != set(values):
        problems.append(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values.get(m["name"], math.nan), "unit": m["unit"]} for m in listed}

    report = {**end_to_end, "failed_share": failed / attempted}
    if WALL_ALIAS[args.workload]:
        report[WALL_ALIAS[args.workload]] = wall
    report.update({name: figures[name] for name in HEADLINE[args.workload]})
    report.update({name: m["value"] for name, m in metrics.items()})
    for name, value in report.items():
        print(f"{args.workload} {name} {value:.6g} {units_of[name]}")
    if fingerprints - {""}:
        print(f"{args.workload} fingerprint.sha256 {units[0].fingerprint}")
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)

    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    results_dir = os.path.join(ROOT, ".perfbench_out", "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({**result, "report": report, "environment": env, "setup_s_samples": setup_times,
                   "unit_wall_s": [u.wall_s for u in units], "fingerprint": units[0].fingerprint,
                   "problems": problems}, f, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
