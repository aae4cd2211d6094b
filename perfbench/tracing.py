"""Span tracing of meadjust from outside the package.

The tracer replaces module attributes at run time with wrappers that record
one span per call: name, start, end and the index of the enclosing span.
Each function is patched in the namespace where its caller looks it up
(``meadjust.cli.run_replication_grid`` is a different attribute from
``meadjust.experiment.run_replication_grid``). Spans stay in memory and are
written out once, at the end of the run.

Sampler blocks are named ``mcmc.<kind>.<block>`` after the model kind of the
enclosing ``run_chains`` call, so the linear and logistic scans are kept
apart.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time

import numpy as np

# (module, attribute, span name); "{kind}" is filled from the enclosing
# run_chains call.
PATCHES = [
    ("meadjust.cli", "main", "cli.main"),
    ("meadjust.cli", "simulate_cohort", "cohort.simulate"),
    ("meadjust.cli", "write_cohort", "cohort.write"),
    ("meadjust.cli", "run_replication_grid", "experiment.run_replication_grid"),
    ("meadjust.cli", "write_table", "experiment.write_table"),
    ("meadjust.cli", "marginal_likelihood_null", "evidence.marginal_likelihood_null"),
    ("meadjust.cli", "marginal_likelihood_positive", "evidence.marginal_likelihood_positive"),
    ("meadjust.cli", "delta", "evidence.delta"),
    ("meadjust.experiment", "adjust_cell", "experiment.adjust_cell"),
    ("meadjust.experiment", "run_chains", "mcmc.{kind}.run_chains"),
    ("meadjust.mcmc", "run_chains", "mcmc.{kind}.run_chains"),
    ("meadjust.experiment", "rhat", "diagnostics.rhat"),
    ("meadjust.experiment", "summarize", "diagnostics.summarize"),
    ("meadjust.experiment", "transform_summary", "diagnostics.transform_summary"),
    ("meadjust.mcmc", "full_conditional_coeffs_linear", "mcmc.{kind}.coeffs"),
    ("meadjust.mcmc", "update_logistic_coeffs", "mcmc.{kind}.coeffs"),
    ("meadjust.mcmc", "full_conditional_precision", "mcmc.{kind}.precision"),
    ("meadjust.mcmc", "sample_gamma", "mcmc.{kind}.precision"),
    ("meadjust.mcmc", "update_mu_x_tau_x", "mcmc.{kind}.mu_x_tau_x"),
    ("meadjust.mcmc", "update_latent_exposure", "mcmc.{kind}.latent"),
    ("meadjust.mcmc", "update_structural", "mcmc.{kind}.structural"),
    ("meadjust.cohort", "simulate_cohort", "cohort.simulate"),
    ("meadjust.cohort", "write_cohort", "cohort.write"),
    ("meadjust.cohort", "read_cohort", "cohort.read"),
    ("meadjust.naive", "fit_linear", "naive.fit_linear"),
    ("meadjust.naive", "fit_logistic", "naive.fit_logistic"),
    ("meadjust.evidence", "marginal_likelihood_null", "evidence.marginal_likelihood_null"),
    ("meadjust.evidence", "marginal_likelihood_positive", "evidence.marginal_likelihood_positive"),
    ("meadjust.evidence", "delta", "evidence.delta"),
]

MCMC_BLOCKS = ("coeffs", "precision", "mu_x_tau_x", "latent", "structural")


class Tracer:
    """Collects spans as (name, start, end, parent) rows; parent is the row
    index of the enclosing span, or -1."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open: list[int] = []
        self._kind = ""

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        sets_kind = name.endswith(".run_chains")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_kind = self._kind
            if sets_kind:
                self._kind = args[0].kind
            idx = len(self.names)
            self.names.append(name.format(kind=self._kind))
            self.parents.append(self._open[-1] if self._open else -1)
            self.ends.append(0.0)
            self._open.append(idx)
            self.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                self._open.pop()
                self._kind = outer_kind

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus the part its
        child spans cover."""
        start = np.asarray(self.starts)
        dur = np.asarray(self.ends) - start
        parents = np.asarray(self.parents, dtype=np.int64)
        own = dur.copy()
        nested = parents >= 0
        np.subtract.at(own, parents[nested], dur[nested])
        totals: dict[str, float] = {}
        for name, t in zip(self.names, own):
            totals[name] = totals.get(name, 0.0) + float(t)
        return totals

    def nested_in(self, suffix: str) -> set[tuple[str, str]]:
        """(ancestor, span) name pairs of every span that lies inside a span
        whose name ends with ``suffix``; the ancestor is the innermost one."""
        anchor = [-1] * len(self.names)
        pairs = set()
        for i, (name, p) in enumerate(zip(self.names, self.parents)):
            if p < 0:
                continue
            anchor[i] = p if self.names[p].endswith(suffix) else anchor[p]
            if anchor[i] >= 0:
                pairs.add((self.names[anchor[i]], name))
        return pairs

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("name,start_s,end_s,parent\n")
            t0 = self.starts[0] if self.starts else 0.0
            for name, s, e, p in zip(self.names, self.starts, self.ends, self.parents):
                f.write(f"{name},{s - t0:.9f},{e - t0:.9f},{p}\n")
