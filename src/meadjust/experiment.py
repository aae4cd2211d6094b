"""End-to-end experiment orchestration: run adjustment cells, apply the
convergence gate, and write report tables and chain traces.

``ExperimentConfig`` holds only what changes results: the cohort, the
sampler settings and the grid. Where tables go and in which formats are
arguments of ``write_table``, never part of the config, so every table
embeds a provenance block (the resolved config and master seeds) that
re-runs it bit-identically, and runs into different directories produce
byte-identical tables.

Each grid cell draws from RNG streams keyed by its canonical position
(kind in ``MODEL_KINDS``, variant in ``PRIOR_VARIANT_ORDER``), so a grid
subset reproduces the full grid's rows.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .cohort import Cohort, CohortConfig, write_atomic
from .diagnostics import PosteriorSummary, RhatReport, require_draws, rhat, summarize, transform_summary
from .errors import ParameterError
from .mcmc import MODEL_KINDS, McmcConfig, ModelSpec, PosteriorSamples, run_chains
from .priors import PRIOR_VARIANT_ORDER, LogNormalPrior, PriorSet, linear_priors, logistic_priors

__all__ = [
    "ExperimentConfig",
    "CellResult",
    "adjust_cell",
    "run_replication_grid",
    "write_table",
    "write_traces",
    "experiment_from_dict",
]

REPORT_FORMATS = ("csv", "json", "markdown")

# stream namespaces under the mcmc seed, so grid cells never share streams
_STREAM_ADJUST = 1000


@dataclass(frozen=True)
class ExperimentConfig:
    cohort: CohortConfig = field(default_factory=lambda: CohortConfig(n=2000))
    mcmc: McmcConfig = field(default_factory=McmcConfig)
    prior_variants: tuple[str, ...] = PRIOR_VARIANT_ORDER
    model_kinds: tuple[str, ...] = MODEL_KINDS

    def __post_init__(self):
        for key, names, known in (
            ("prior_variants", self.prior_variants, PRIOR_VARIANT_ORDER),
            ("model_kinds", self.model_kinds, MODEL_KINDS),
        ):
            if not names:
                raise ParameterError(f"{key} must be non-empty")
            unknown = [name for name in names if name not in known]
            if unknown:
                raise ParameterError(f"{key}: unknown name {unknown[0]!r}; known: {', '.join(known)}")
            if len(set(names)) != len(names):
                raise ParameterError(f"{key} names an entry twice: {list(names)}")


def experiment_from_dict(d: dict) -> ExperimentConfig:
    """The experiment defaults with each field the document names replaced;
    a section that leaves out a key keeps that key's experiment default."""
    if not isinstance(d, dict):
        raise ParameterError("config must be a JSON object")
    defaults = ExperimentConfig()
    extra = set(d) - {f.name for f in dataclasses.fields(defaults)}
    if extra:
        raise ParameterError(f"unknown config keys: {sorted(extra)}")
    kwargs = {}
    try:
        for key, value in d.items():
            default = getattr(defaults, key)
            if dataclasses.is_dataclass(default):
                kwargs[key] = dataclasses.replace(default, **value)
            elif isinstance(value, list) and all(isinstance(name, str) for name in value):
                kwargs[key] = tuple(value)
            else:
                raise ParameterError(f"must be a JSON list of strings, got {value!r}")
    except (TypeError, ParameterError) as exc:
        raise ParameterError(f"bad config value for {key!r}: {exc}") from exc
    return dataclasses.replace(defaults, **kwargs)


# ---------------------------------------------------------------------------
# One adjustment cell: run chains, diagnose, summarize


def _convergence_views(samples: PosteriorSamples, priors: PriorSet) -> list[RhatReport]:
    """R-hat per parameter, computed on the log scale, where the
    normal-theory diagnostic behaves, for the parameters whose priors keep
    them positive: the precisions, and the exposure location under a
    lognormal prior. The scale follows the prior alone, never the draws, so
    a cell's labels do not depend on its data."""
    positive_mu_x = isinstance(priors.mu_x, LogNormalPrior)
    reports = []
    for name in samples.param_names:
        chains = samples.chain_arrays(name)
        if name.startswith("tau") or (name == "mu_x" and positive_mu_x):
            chains = [np.log(c) for c in chains]
            label = f"log({name})"
        else:
            label = name
        reports.append(rhat(chains, parameter=label))
    return reports


@dataclass
class CellResult:
    kind: str
    variant: str
    samples: PosteriorSamples
    summaries: list[PosteriorSummary]
    rhats: list[RhatReport]

    @property
    def target(self) -> PosteriorSummary:
        """The reported effect: the linear slope, or the logistic odds ratio."""
        name = "beta" if self.kind == "linear" else "odds_ratio"
        return next(s for s in self.summaries if s.parameter == name)

    @property
    def target_rhat(self) -> float:
        """R-hat of the slope behind the target."""
        name = "beta" if self.kind == "linear" else "alpha"
        return next(r.rhat for r in self.rhats if r.parameter == name)

    @property
    def converged(self) -> bool:
        return all(r.converged for r in self.rhats)

    @property
    def gate_failures(self) -> list[str]:
        return [r.parameter for r in self.rhats if not r.converged]

    @property
    def cri_contains_null(self) -> bool:
        null = 1.0 if self.kind == "logistic" else 0.0
        return bool(self.target.p2_5 <= null <= self.target.p97_5)


def priors_for(kind: str, variant: str, mu_x_normal: bool = False) -> PriorSet:
    if kind not in MODEL_KINDS:
        raise ParameterError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    if mu_x_normal and kind != "linear":
        raise ParameterError(f"--mu-x-normal (mu_x_normal) applies to the linear model, not {kind!r}")
    if kind == "linear":
        return linear_priors(variant, mu_x_normal=mu_x_normal)
    return logistic_priors(variant)


def adjust_cell(
    cohort: Cohort,
    kind: str,
    variant: str,
    mcmc: McmcConfig,
    exposure_transform: str = "identity",
    mu_x_normal: bool = False,
    stream: tuple[int, ...] | None = None,
) -> CellResult:
    """Run one (model kind, error prior) cell and package its diagnostics.

    The cell owns its RNG streams: they are derived from the mcmc seed plus
    the cell's stream prefix, by default the cell's place in the replication
    grid, so grid cells can run in any order or in parallel without changing
    results and a lone cell reproduces its grid row. Settings whose draws
    could not be summarized or diagnosed are refused before any sampling.
    """
    require_draws(mcmc.n_chains, mcmc.n_retained)
    priors = priors_for(kind, variant, mu_x_normal=mu_x_normal)
    spec = ModelSpec.from_cohort(cohort, kind, priors, exposure_transform=exposure_transform)
    if stream is None:
        stream = (_STREAM_ADJUST, MODEL_KINDS.index(kind), PRIOR_VARIANT_ORDER.index(variant))
    samples = run_chains(spec, mcmc, stream=stream)

    summaries = [summarize(samples.pooled(name), parameter=name) for name in samples.param_names]
    if kind == "logistic":
        summaries.append(transform_summary(samples.pooled("alpha"), parameter="odds_ratio"))
    return CellResult(
        kind=kind,
        variant=variant,
        samples=samples,
        summaries=summaries,
        rhats=_convergence_views(samples, priors),
    )


# ---------------------------------------------------------------------------
# Replication grid


def run_replication_grid(cfg: ExperimentConfig, cohort: Cohort) -> dict[str, list[CellResult]]:
    """Run the prior-variant grid for each requested model kind.

    Kinds and rows keep canonical order (rows: uninformative, A, B, C), and
    each cell's stream is keyed by that canonical position, so a subset of
    the grid gives the same rows as the full grid. A cell that fails the
    convergence gate still yields its row, flagged unconverged, so one bad
    cell cannot abort the grid.
    """
    results: dict[str, list[CellResult]] = {}
    for kind in MODEL_KINDS:
        if kind in cfg.model_kinds:
            results[kind] = [
                adjust_cell(cohort, kind, variant, cfg.mcmc)
                for variant in PRIOR_VARIANT_ORDER
                if variant in cfg.prior_variants
            ]
    return results


def replication_rows(cells: list[CellResult]) -> list[dict]:
    rows = []
    for cell in cells:
        rows.append(
            {
                "prior": cell.variant,
                "parameter": cell.target.parameter,
                "mean": cell.target.mean,
                "p2_5": cell.target.p2_5,
                "p97_5": cell.target.p97_5,
                "rhat": cell.target_rhat,
                "converged": cell.converged,
                "cri_contains_null": cell.cri_contains_null,
                "n_retained": cell.target.n_retained,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Serialization helpers


def provenance_block(cfg: ExperimentConfig | None = None, **extra) -> dict:
    block = {"tool": "meadjust", "version": __version__}
    if cfg is not None:
        block["config"] = dataclasses.asdict(cfg)
    block.update(extra)
    return block


def _fmt_full(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_value(value):
    """A non-finite float as the string the CSV shows; strict JSON has no inf or nan."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(float(value))
    return value


def _fmt_human(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if math.isfinite(value):
            return f"{value:.4g}"
        return repr(value)
    return str(value)


def write_table(base_path: str, rows: list[dict], formats, provenance: dict, title: str) -> list[str]:
    """Write one logical table as CSV/JSON/markdown siblings of base_path,
    creating its directory. The columns are the keys of the first row.

    CSV and JSON carry full float precision; markdown renders 4 significant
    digits. JSON writes a non-finite value as the CSV's string ("inf",
    "-inf", "nan"). All three embed the provenance block.
    """
    fieldnames = list(rows[0])
    written = []
    prov_json = json.dumps(provenance, sort_keys=True)
    if "csv" in formats:
        path = base_path + ".csv"
        lines = [f"# meadjust {prov_json}", ",".join(fieldnames)]
        for row in rows:
            lines.append(",".join(_fmt_full(row[f]) for f in fieldnames))
        write_atomic(path, ["\n".join(lines) + "\n"])
        written.append(path)
    if "json" in formats:
        path = base_path + ".json"
        payload = {"provenance": provenance, "rows": [{k: _json_value(v) for k, v in row.items()} for row in rows]}
        write_atomic(path, [json.dumps(payload, sort_keys=True, indent=2) + "\n"])
        written.append(path)
    if "markdown" in formats:
        path = base_path + ".md"
        lines = [f"# {title}", "", "| " + " | ".join(fieldnames) + " |"]
        lines.append("|" + "|".join(" --- " for _ in fieldnames) + "|")
        for row in rows:
            lines.append("| " + " | ".join(_fmt_human(row[f]) for f in fieldnames) + " |")
        lines.append("")
        lines.append(f"<!-- meadjust {prov_json} -->")
        write_atomic(path, ["\n".join(lines) + "\n"])
        written.append(path)
    return written


def write_traces(samples: PosteriorSamples, out_dir, prefix: str = "trace") -> list[str]:
    """One CSV per chain, one row per retained draw, parameter-named columns
    (CRLF line ends, as the csv module writes them)."""
    paths = []
    for c, chain in enumerate(samples.chains):
        path = os.path.join(os.fspath(out_dir), f"{prefix}_chain{c}.csv")
        draws = zip(*(chain[name].tolist() for name in samples.param_names))
        lines = [",".join(samples.param_names)] + [",".join(map(repr, row)) for row in draws]
        write_atomic(path, ["\r\n".join(lines) + "\r\n"])
        paths.append(path)
    return paths


def summary_rows(cell: CellResult) -> list[dict]:
    return [dataclasses.asdict(s) for s in cell.summaries]


def rhat_rows(cell: CellResult) -> list[dict]:
    rows = []
    for r in cell.rhats:
        row = {"parameter": r.parameter, "rhat": r.rhat, "converged": r.converged}
        for i, (m, v) in enumerate(zip(r.chain_means, r.chain_variances)):
            row[f"chain{i}_mean"] = m
            row[f"chain{i}_var"] = v
        rows.append(row)
    return rows
