"""Command-line harness: simulate, naive, adjust, replicate, evidence.

Exit codes are a stable contract: 0 success, 2 validation error,
3 convergence-gate failure, 4 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .cohort import read_cohort, simulate_cohort, write_cohort
from .diagnostics import RHAT_GATE
from .errors import NumericalError, ParameterError
from .evidence import HypothesisPriors, ToyData, delta, marginal_likelihood_null, marginal_likelihood_positive
from .experiment import (
    REPORT_FORMATS,
    ExperimentConfig,
    adjust_cell,
    experiment_from_dict,
    provenance_block,
    replication_rows,
    rhat_rows,
    run_replication_grid,
    summary_rows,
    write_table,
    write_traces,
)
from .mcmc import MODEL_KINDS
from .naive import fit_linear, fit_logistic
from .priors import PRIOR_VARIANT_ORDER
from .rng import Rng

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_GATE = 3
EXIT_NUMERICAL = 4


def _comma_list(value: str) -> list[str]:
    return [v.strip() for v in value.split(",") if v.strip()]


def _number_list(value: str, convert, flag: str) -> list:
    try:
        return [convert(v) for v in _comma_list(value)]
    except ValueError:
        raise ParameterError(f"{flag} takes comma-separated numbers, got {value!r}") from None


def _names(value: str) -> tuple[str, ...]:
    names = tuple(_comma_list(value))
    if not names:
        raise argparse.ArgumentTypeError("needs at least one name")
    return names


def _report_formats(value: str) -> tuple[str, ...]:
    formats = _names(value)
    for f in formats:
        if f not in REPORT_FORMATS:
            raise argparse.ArgumentTypeError(f"unknown report format {f!r}")
    return formats


_COMMON_FLAGS = {
    "--seed": dict(type=int, default=None, help="master seed (overrides config)"),
    "--config": dict(default=None, help="JSON experiment config file"),
    "--out-dir": dict(default="out", help="output directory"),
    "--format": dict(
        type=_report_formats,
        default=",".join(REPORT_FORMATS),
        help=f"comma-separated report formats ({','.join(REPORT_FORMATS)})",
    ),
}


def _add_common(parser: argparse.ArgumentParser, *flags: str):
    for flag in flags:
        parser.add_argument(flag, **_COMMON_FLAGS[flag])


def _override(config, args):
    """config with each field replaced by the flag of the same dest, where
    that flag was given; nested configs are resolved field by field, so
    --seed sets both the cohort and the MCMC seed."""
    values = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            values[f.name] = _override(value, args)
        elif getattr(args, f.name, None) is not None:
            values[f.name] = getattr(args, f.name)
    return dataclasses.replace(config, **values)


def _load_config(args) -> ExperimentConfig:
    """Resolve a run's settings: the experiment defaults, then the config
    file's values, then the flags that were given."""
    cfg = ExperimentConfig()
    if args.config:
        with open(args.config, encoding="utf-8") as f:
            try:
                d = json.load(f)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ParameterError(f"bad config file: {exc}") from exc
        cfg = experiment_from_dict(d)
    return _override(cfg, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meadjust",
        description="Simulate exposure-measurement-error cohorts, fit naive "
        "regressions, and run Bayesian measurement-error adjustment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a cohort CSV")
    _add_common(p_sim, "--seed", "--config", "--out-dir")
    p_sim.add_argument("--n", type=int, default=None)
    p_sim.add_argument("--mu-x", type=float, default=None)
    p_sim.add_argument("--tau-x", type=float, default=None)
    p_sim.add_argument("--tau-e", type=float, default=None)
    p_sim.add_argument("--pi", type=float, default=None)
    p_sim.add_argument("--beta-true", type=float, default=None)
    p_sim.add_argument("--alpha-true", type=float, default=None)
    p_sim.add_argument("--tau-y", type=float, default=None)
    p_sim.add_argument("--outcome-kind", choices=["continuous", "binary", "both"], default=None)
    p_sim.add_argument("--out", default=None, help="cohort file path (default OUT_DIR/cohort.csv)")

    p_naive = sub.add_parser("naive", help="naive frequentist fit on a cohort file")
    _add_common(p_naive, "--out-dir", "--format")
    p_naive.add_argument("cohort")
    p_naive.add_argument("--kind", choices=MODEL_KINDS, required=True)
    p_naive.add_argument(
        "--log-exposure", action="store_true", help="regress on log W instead of W"
    )

    p_adj = sub.add_parser("adjust", help="Bayesian measurement-error adjustment")
    _add_common(p_adj, "--seed", "--config", "--out-dir", "--format")
    p_adj.add_argument("cohort")
    p_adj.add_argument("--kind", choices=MODEL_KINDS, required=True)
    p_adj.add_argument("--prior", choices=list(PRIOR_VARIANT_ORDER), default="uninformative")
    p_adj.add_argument("--chains", dest="n_chains", type=int, default=None)
    p_adj.add_argument("--burn-in", type=int, default=None)
    p_adj.add_argument("--keep", type=int, default=None)
    p_adj.add_argument("--thin", type=int, default=None)
    p_adj.add_argument(
        "--init-strategy", choices=["paper_replication", "naive_start"], default=None
    )
    p_adj.add_argument("--log-exposure", action="store_true")
    p_adj.add_argument(
        "--mu-x-normal",
        action="store_true",
        help="use the normal prior on the exposure location in the linear model",
    )
    p_adj.add_argument("--emit-traces", action="store_true")

    p_rep = sub.add_parser("replicate", help="run the prior-variant grid and emit tables")
    _add_common(p_rep, "--seed", "--config", "--out-dir", "--format")
    p_rep.add_argument("--n", type=int, default=None, help="cohort size override")
    p_rep.add_argument(
        "--kinds", dest="model_kinds", type=_names, help="comma-separated subset of linear,logistic"
    )
    p_rep.add_argument(
        "--variants", dest="prior_variants", type=_names, help="comma-separated subset of the prior variants"
    )

    p_ev = sub.add_parser("evidence", help="evidence-ratio table on the toy model")
    _add_common(p_ev, "--out-dir", "--format")
    p_ev.add_argument("--seed", type=int, default=0, help="toy data seed")
    p_ev.add_argument("--n", type=int, default=1000, help="toy dataset size")
    p_ev.add_argument("--prefixes", default="10,100,1000", help="nested prefix sizes")
    p_ev.add_argument("--p-null", default="0.5,0.25,0.01", help="prior null masses")
    p_ev.add_argument("--sigma-b", type=float, default=1.0)
    p_ev.add_argument("--noise-precision", type=float, default=1.0)

    return parser


# ---------------------------------------------------------------------------
# Subcommand implementations


def _report(args, provenance, tables, lines=(), written=()) -> None:
    """Write each (name, rows, title) table under args.out_dir in the
    args.format formats, then print the summary lines and one 'wrote PATH'
    line per file: first the already written ones, then the tables'."""
    written = list(written)
    for name, rows, title in tables:
        written += write_table(os.path.join(args.out_dir, name), rows, args.format, provenance, title=title)
    for line in lines:
        print(line)
    for path in written:
        print(f"wrote {path}")


def _cohort_provenance(cohort, **extra) -> dict:
    return provenance_block(
        cohort_config=dataclasses.asdict(cohort.config) if cohort.config else None, **extra
    )


def _cmd_simulate(args) -> int:
    cohort = simulate_cohort(_load_config(args).cohort)
    out = args.out or os.path.join(args.out_dir, "cohort.csv")
    write_cohort(cohort, out)
    print(f"wrote {len(cohort)} subjects to {out}")
    return EXIT_OK


def _naive_fit(cohort, kind: str, log_exposure: bool):
    w = np.log(cohort.w_obs) if log_exposure else cohort.w_obs
    if kind == "linear":
        return fit_linear(w, cohort.y)
    return fit_logistic(w, cohort.z)


def _cmd_naive(args) -> int:
    cohort = read_cohort(args.cohort)
    fit = _naive_fit(cohort, args.kind, args.log_exposure)
    row = {"kind": args.kind, **dataclasses.asdict(fit)}
    label, estimate, lo, hi = "slope", fit.slope, fit.ci95_lo, fit.ci95_hi
    if args.kind == "logistic":
        label, estimate, lo, hi = "OR", math.exp(estimate), math.exp(lo), math.exp(hi)
        row.update(odds_ratio=estimate, or_ci95_lo=lo, or_ci95_hi=hi)
    _report(
        args,
        _cohort_provenance(cohort, command="naive", kind=args.kind, log_exposure=args.log_exposure),
        [(f"naive_{args.kind}", [row], f"Naive {args.kind} fit")],
        [f"naive {args.kind}: {label} {estimate:.4g} (95% CI {lo:.4g} to {hi:.4g})"],
    )
    return EXIT_OK


def _cmd_adjust(args) -> int:
    mcmc = _load_config(args).mcmc
    cohort = read_cohort(args.cohort)
    options = dict(exposure_transform="log" if args.log_exposure else "identity", mu_x_normal=args.mu_x_normal)
    cell = adjust_cell(cohort, args.kind, args.prior, mcmc, **options)
    prov = _cohort_provenance(
        cohort, command="adjust", kind=args.kind, prior=args.prior, mcmc=dataclasses.asdict(mcmc), **options
    )
    tag = f"{args.kind}_{args.prior}"
    traces = write_traces(cell.samples, args.out_dir, prefix=f"trace_{tag}") if args.emit_traces else []
    tables = [(f"rhat_{tag}", rhat_rows(cell), f"Convergence, {args.kind} model, {args.prior} prior")]
    if not cell.converged:
        _report(args, prov, tables, written=traces)
        print(
            f"convergence gate failed (R-hat >= {RHAT_GATE}) for: {', '.join(cell.gate_failures)}; "
            "summaries withheld",
            file=sys.stderr,
        )
        return EXIT_GATE
    tables.append(
        (f"summary_{tag}", summary_rows(cell), f"Posterior summaries, {args.kind} model, {args.prior} prior")
    )
    t = cell.target
    line = (
        f"{args.kind} / {args.prior}: {t.parameter} mean {t.mean:.4g}, "
        f"95% CrI ({t.p2_5:.4g}, {t.p97_5:.4g}), rhat {cell.target_rhat:.4g}"
    )
    _report(args, prov, tables, [line], written=traces)
    return EXIT_OK


def _cmd_replicate(args) -> int:
    cfg = _load_config(args)
    cohort = simulate_cohort(cfg.cohort)
    written = [os.path.join(args.out_dir, "cohort.csv")]
    write_cohort(cohort, written[0])
    results = run_replication_grid(cfg, cohort)

    prov = provenance_block(cfg, command="replicate")
    any_unconverged = False
    for kind, cells in results.items():
        rows = replication_rows(cells)
        lines = []
        for row in rows:
            status = "ok" if row["converged"] else "UNCONVERGED"
            lines.append(
                f"{kind:9s} {row['prior']:14s} mean {row['mean']:9.4g} "
                f"CrI ({row['p2_5']:9.4g}, {row['p97_5']:9.4g}) "
                f"null-in-CrI={'yes' if row['cri_contains_null'] else 'no'} [{status}]"
            )
            any_unconverged |= not row["converged"]
        title = (
            f"Posterior of the {'odds ratio' if kind == 'logistic' else 'slope'} "
            f"under each measurement-error precision prior ({kind} model)"
        )
        _report(args, prov, [(f"table_{kind}", rows, title)], lines, written)
        written = ()  # the cohort is named with the first kind's tables only
    return EXIT_GATE if any_unconverged else EXIT_OK


def _cmd_evidence(args) -> int:
    prefixes = sorted(set(_number_list(args.prefixes, int, "--prefixes")))
    p_nulls = _number_list(args.p_null, float, "--p-null")
    if not prefixes or not p_nulls:
        raise ParameterError("--prefixes and --p-null each need at least one value")
    if prefixes[0] < 1:
        raise ParameterError(f"--prefixes must be positive, got {prefixes[0]}")
    for flag, value in (("--sigma-b", args.sigma_b), ("--noise-precision", args.noise_precision)):
        if not (0 < value < math.inf):
            raise ParameterError(f"{flag} must be finite and > 0, got {value}")
    n = max(args.n, max(prefixes))
    rng = Rng(args.seed, (9,))
    v = rng.standard_normal(n)
    u = rng.standard_normal(n) / math.sqrt(args.noise_precision)

    priors = [HypothesisPriors(p_null=p0, sigma_b=args.sigma_b) for p0 in p_nulls]
    rows = []
    for m in prefixes:
        data = ToyData(v[:m], u[:m], args.noise_precision)
        log_null = marginal_likelihood_null(data)
        # the positive marginal depends on sigma_b only, not on the null mass
        log_pos = marginal_likelihood_positive(data, priors[0])
        for prior in priors:
            rows.append(
                {
                    "n": m,
                    "p_null": prior.p_null,
                    "delta": delta(log_null, log_pos, prior),
                    "log_marginal_null": log_null,
                    "log_marginal_positive": log_pos,
                }
            )
    prov = provenance_block(
        command="evidence",
        seed=args.seed,
        n=n,
        prefixes=prefixes,
        p_null=p_nulls,
        sigma_b=args.sigma_b,
        noise_precision=args.noise_precision,
    )
    lines = [f"n={row['n']:6d} p_null={row['p_null']:6.3g} delta={row['delta']:.4g}" for row in rows]
    _report(args, prov, [("evidence", rows, "Evidence ratio for the null vs a positive association")], lines)
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "naive": _cmd_naive,
    "adjust": _cmd_adjust,
    "replicate": _cmd_replicate,
    "evidence": _cmd_evidence,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
