"""Cohort generation under multiplicative exposure measurement error.

Each subject carries a true exposure X (lognormal), an observed exposure
W = X * e with lognormal error e, a continuous outcome Y and a binary
outcome Z. Under the null configuration (zero slopes) the outcomes are
independent of exposure; positive-control slopes act on log X, where the
error is additive and the attenuation factor has a closed form.

Cohorts travel between commands as CSV files. ``write_cohort`` formats
rows in blocks, one string per block. ``read_cohort`` hands a canonical
file (an optional provenance line, the header, data rows) to numpy's C
parser and checks the values on whole arrays; anything else, or anything
that parser or those checks refuse, goes to a per-line reader, which
defines the format and names the line of every error.
"""
from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import CohortParseError, ParameterError
from .naive import expit
from .rng import Rng

__all__ = ["CohortConfig", "Cohort", "simulate_cohort", "write_cohort", "read_cohort"]

# stream ids under the cohort seed, one per simulated variable
_STREAM_X, _STREAM_E, _STREAM_Y, _STREAM_Z = 0, 1, 2, 3


def require_integers(config, names) -> None:
    """Raise ParameterError unless each named field of config holds an
    integer; numpy integers count, bools and integral floats do not."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ParameterError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class CohortConfig:
    n: int = 100_000
    mu_x: float = 0.0
    tau_x: float = 1.0
    tau_e: float = 1.0
    outcome_kind: str = "both"  # continuous | binary | both
    pi: float = 0.05
    beta_true: float = 0.0  # continuous-outcome slope on log X (0 = null)
    alpha_true: float = 0.0  # logistic slope on log X (0 = null)
    tau_y: float = 1.0
    seed: int = 0

    def __post_init__(self):
        require_integers(self, ("n", "seed"))
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got seed {self.seed}")
        if self.n < 1:
            raise ParameterError(f"n must be >= 1, got {self.n}")
        for name in ("mu_x", "beta_true", "alpha_true", "tau_x", "tau_e", "tau_y", "pi"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)) or not math.isfinite(v):
                raise ParameterError(f"{name} must be a finite real number, got {v!r}")
        for name in ("tau_x", "tau_e", "tau_y"):
            v = getattr(self, name)
            if not (v > 0):
                raise ParameterError(f"{name} must be > 0, got {v}")
        if not (0.0 < self.pi < 1.0):
            raise ParameterError(f"pi must lie in (0, 1), got {self.pi}")
        if self.outcome_kind not in ("continuous", "binary", "both"):
            raise ParameterError(f"unknown outcome_kind {self.outcome_kind!r}")


class Cohort:
    """Column-oriented cohort of at least one record: finite values,
    strictly positive exposures, binary outcomes in {0, 1}."""

    def __init__(self, x_true, w_obs, y, z, config: CohortConfig | None = None):
        self.x_true = np.asarray(x_true, dtype=float)
        self.w_obs = np.asarray(w_obs, dtype=float)
        self.y = np.asarray(y, dtype=float)
        if not np.isin(z, (0, 1)).all():
            raise ParameterError("binary outcomes z must be 0 or 1")
        self.z = np.asarray(z, dtype=np.int64)
        n = len(self.x_true)
        if not (len(self.w_obs) == len(self.y) == len(self.z) == n):
            raise ParameterError("cohort columns must have equal length")
        if n < 1:
            raise ParameterError("cohort has no records")
        if not all(np.isfinite(c).all() for c in (self.x_true, self.w_obs, self.y)):
            raise ParameterError("cohort values must be finite")
        if np.any(self.x_true <= 0) or np.any(self.w_obs <= 0):
            raise ParameterError("exposures must be strictly positive")
        if config is not None and config.n != n:
            raise ParameterError(f"config.n={config.n} but cohort has {n} records")
        self.config = config

    def __len__(self):
        return len(self.x_true)

    def __eq__(self, other):
        if not isinstance(other, Cohort):
            return NotImplemented
        return (
            np.array_equal(self.x_true, other.x_true)
            and np.array_equal(self.w_obs, other.w_obs)
            and np.array_equal(self.y, other.y)
            and np.array_equal(self.z, other.z)
        )


def simulate_cohort(config: CohortConfig) -> Cohort:
    """Generate one cohort, deterministically for a given config.

    Per subject i: x_i ~ LN(mu_x, tau_x); w_i = x_i * e_i with
    log e_i ~ N(0, 1/tau_e); y_i ~ N(beta_true * log x_i, 1/tau_y);
    z_i ~ Bern(expit(logit(pi) + alpha_true * log x_i)).

    Each variable draws from its own stream under the config seed, so the
    exposures are unchanged by the outcome_kind choice.
    """
    n = config.n
    root = Rng(config.seed)

    log_x = config.mu_x + root.split(_STREAM_X).standard_normal(n) / math.sqrt(config.tau_x)
    log_e = root.split(_STREAM_E).standard_normal(n) / math.sqrt(config.tau_e)
    x = np.exp(log_x)
    w = np.exp(log_x + log_e)

    if config.outcome_kind in ("continuous", "both"):
        y = config.beta_true * log_x + root.split(_STREAM_Y).standard_normal(n) / math.sqrt(config.tau_y)
    else:
        y = np.zeros(n)

    if config.outcome_kind in ("binary", "both"):
        logit_pi = math.log(config.pi / (1.0 - config.pi))
        p = expit(logit_pi + config.alpha_true * log_x)
        z = (root.split(_STREAM_Z).uniform(n) < p).astype(np.int64)
    else:
        z = np.zeros(n, dtype=np.int64)

    return Cohort(x, w, y, z, config=config)


_HEADER = ["x_true", "w_obs", "y", "z"]
_PROVENANCE_PREFIX = "# meadjust-cohort "
_WRITE_BLOCK = 4096  # rows that write_cohort formats into one string
# one data row as the fast reader parses it: z as an integer, never a float
_ROW_DTYPE = np.dtype([("x_true", "f8"), ("w_obs", "f8"), ("y", "f8"), ("z", "i8")])
_READ_BLOCK = 1 << 16  # characters of whole lines the fast reader takes at a time
# the ASCII file, group, record and unit separators: whitespace around a
# number to numpy's parser (Py_UNICODE_ISSPACE), an error to float() and int()
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def write_atomic(path, chunks) -> None:
    """Write the text chunks, in order and as given (no newline
    translation), to a temporary sibling of path, then move it into place:
    a reader never sees a half-written file. Creates path's directory; a
    failed or interrupted write removes the temporary file."""
    path = os.fspath(path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _row_blocks(cohort: Cohort):
    """The cohort's CRLF-terminated rows, one string per block of
    ``_WRITE_BLOCK`` rows."""
    columns = (cohort.x_true, cohort.w_obs, cohort.y, cohort.z)
    for start in range(0, len(cohort), _WRITE_BLOCK):
        rows = zip(*(column[start : start + _WRITE_BLOCK].tolist() for column in columns))
        yield "".join([f"{x!r},{w!r},{y!r},{z}\r\n" for x, w, y, z in rows])


def write_cohort(cohort: Cohort, path) -> None:
    """Write a cohort CSV at full round-trip precision, atomically.

    The config (when known) is embedded as a '#'-prefixed JSON provenance
    line (LF-terminated) ahead of the header so a read can restore it; the
    header and the rows end in CRLF. Rows are formatted and written in
    blocks of ``_WRITE_BLOCK``, one string per block, so the memory a write
    takes does not grow with the cohort.
    """
    head = ",".join(_HEADER) + "\r\n"
    if cohort.config is not None:
        head = _PROVENANCE_PREFIX + json.dumps(dataclasses.asdict(cohort.config)) + "\n" + head
    write_atomic(path, itertools.chain([head], _row_blocks(cohort)))


def _open_text(path):
    # bytes that are not UTF-8 decode to lone surrogates, so the error can
    # name its line
    return open(path, newline="", encoding="utf-8", errors="surrogateescape")


def _parse_provenance(line: str, lineno: int) -> CohortConfig:
    try:
        return CohortConfig(**json.loads(line[len(_PROVENANCE_PREFIX):]))
    except (json.JSONDecodeError, TypeError, ParameterError) as exc:
        raise CohortParseError(f"bad provenance block: {exc}", lineno) from exc


def read_cohort(path) -> Cohort:
    """Read a cohort CSV; raises CohortParseError naming the bad line.

    Two readers share the work. The fast one takes a canonical file: an
    optional provenance line, the header, then data rows, which numpy's C
    parser reads into arrays whose values are then checked as wholes. It
    declines, and the per-line reader reads the file from the start, when
    the head is anything else; when there are no data rows; when numpy
    refuses a row (a comment or provenance line after the header, a wrong
    column count, a z beyond int64, or a field such as ``1_0`` or one in
    non-ASCII digits, which float() and int() read and numpy does not);
    when a field holds one of the ASCII separators U+001C to U+001F, which
    numpy strips as whitespace and float() and int() refuse; or when a
    value breaks a rule of ``Cohort`` (finite, x > 0, w > 0, z in {0, 1}).
    So the per-line reader alone defines a valid file and every error.
    Past those separators numpy's parser accepts a subset of what float()
    and int() accept and rounds as they do, so a file the fast reader takes
    reads bit-identical to the per-line reader.
    """
    cohort = _read_canonical(path)
    return _read_lines(path) if cohort is None else cohort


def _read_canonical(path) -> Cohort | None:
    """The cohort in a canonical file, parsed by ``np.loadtxt``, or None
    where the per-line reader must decide (see ``read_cohort``)."""
    config = None
    with _open_text(path) as f:
        line = f.readline()
        if line.startswith(_PROVENANCE_PREFIX) and line.isascii():
            try:
                config = _parse_provenance(line.rstrip("\n").rstrip("\r"), 1)
            except CohortParseError:
                return None
            line = f.readline()
        if not line.isascii() or line.rstrip("\n").rstrip("\r") != ",".join(_HEADER):
            return None
        lines = f.readlines(_READ_BLOCK)
        # without a data row np.loadtxt would warn "input contained no data"
        if not any(row.rstrip("\n").rstrip("\r") for row in lines):
            return None
        try:
            rows = np.loadtxt(_checked_lines(lines, f), dtype=_ROW_DTYPE, delimiter=",", comments=None, ndmin=1)
        except ValueError:
            return None
    try:
        return Cohort(*(np.ascontiguousarray(rows[name]) for name in _HEADER), config=config)
    except ParameterError:
        return None


def _checked_lines(lines, f):
    """The given lines, then the rest of f a block of lines at a time;
    raises ValueError at a block holding a character that numpy's number
    parser strips as whitespace and float() and int() refuse."""
    while lines:
        block = "".join(lines)
        if any(c in block for c in _NUMPY_ONLY_SPACE):
            raise ValueError("a field holds an ASCII separator")
        yield from lines
        lines = f.readlines(_READ_BLOCK)


def _read_lines(path) -> Cohort:
    """The per-line reader: every rule of the format, checked line by line
    with float() and int(), naming the first bad line."""
    config = None
    xs, ws, ys, zs = [], [], [], []
    with _open_text(path) as f:
        lineno = 0
        header_seen = False
        for raw in f:
            lineno += 1
            if not raw.isascii():
                try:
                    raw.encode("utf-8")
                except UnicodeEncodeError:
                    raise CohortParseError("not UTF-8 text", lineno) from None
            line = raw.rstrip("\n").rstrip("\r")
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith(_PROVENANCE_PREFIX):
                    config = _parse_provenance(line, lineno)
                continue
            fields = line.split(",")
            if not header_seen:
                if fields != _HEADER:
                    raise CohortParseError(
                        f"expected header {','.join(_HEADER)!r}, got {line!r}", lineno
                    )
                header_seen = True
                continue
            if len(fields) != 4:
                raise CohortParseError(f"expected 4 columns, got {len(fields)}", lineno)
            try:
                x, w, y = float(fields[0]), float(fields[1]), float(fields[2])
                z = int(fields[3])
            except ValueError as exc:
                raise CohortParseError(str(exc), lineno) from exc
            if not (math.isfinite(x) and math.isfinite(w) and math.isfinite(y)):
                raise CohortParseError(f"non-finite value in {line!r}", lineno)
            if not (x > 0):
                raise CohortParseError(f"x_true must be > 0, got {x}", lineno)
            if not (w > 0):
                raise CohortParseError(f"w_obs must be > 0, got {w}", lineno)
            if z not in (0, 1):
                raise CohortParseError(f"z must be 0 or 1, got {z}", lineno)
            xs.append(x)
            ws.append(w)
            ys.append(y)
            zs.append(z)
    if not header_seen:
        raise CohortParseError("missing header row", max(lineno, 1))
    return Cohort(np.array(xs), np.array(ws), np.array(ys), np.array(zs, dtype=np.int64), config=config)
