import dataclasses
import hashlib
import json
import math
import warnings

import numpy as np
import pytest

import meadjust.cohort as cohort_module
from meadjust import (
    Cohort,
    CohortConfig,
    CohortParseError,
    ModelSpec,
    ParameterError,
    fit_linear,
    linear_priors,
    logistic_priors,
    read_cohort,
    simulate_cohort,
    write_cohort,
)


def test_config_validation_names_parameter():
    with pytest.raises(ParameterError, match="n "):
        CohortConfig(n=0)
    with pytest.raises(ParameterError, match="pi"):
        CohortConfig(pi=1.5)
    with pytest.raises(ParameterError, match="tau_e"):
        CohortConfig(tau_e=0.0)
    with pytest.raises(ParameterError, match="outcome_kind"):
        CohortConfig(outcome_kind="weird")
    for kwargs in ({"n": 50.0}, {"n": True}, {"seed": 1.7}):
        with pytest.raises(ParameterError, match="must be an integer"):
            CohortConfig(**kwargs)
    with pytest.raises(ParameterError, match="seed"):
        CohortConfig(seed=-1)
    for name in ("mu_x", "beta_true", "alpha_true", "tau_x", "tau_e", "tau_y", "pi"):
        for value in ("abc", [1], True, math.inf, math.nan):
            with pytest.raises(ParameterError, match=f"{name} must be a finite real number"):
                CohortConfig(**{name: value})
    assert CohortConfig(n=np.int64(5)).n == 5
    assert CohortConfig(mu_x=1, beta_true=np.float64(0.5), alpha_true=np.int64(-1)).alpha_true == -1


def test_full_scale_cohort_shape():
    c = simulate_cohort(CohortConfig(n=100_000, seed=1))
    lx, lw = np.log(c.x_true), np.log(c.w_obs)
    assert abs(lx.var() - 1.0) < 0.03
    assert abs(lw.var() - 2.0) < 0.05
    assert abs(c.z.mean() - 0.05) < 0.003
    # attenuation geometry on the log scale
    assert abs(np.corrcoef(lx, lw)[0, 1] - math.sqrt(0.5)) < 0.01


def test_no_error_limit():
    c = simulate_cohort(CohortConfig(n=5000, tau_e=1e12, seed=2))
    assert np.max(np.abs(c.w_obs / c.x_true - 1.0)) < 1e-5


def test_deterministic_and_seed_sensitive():
    cfg = CohortConfig(n=500, seed=3)
    assert simulate_cohort(cfg) == simulate_cohort(cfg)
    other = simulate_cohort(CohortConfig(n=500, seed=4))
    assert not (simulate_cohort(cfg) == other)


def test_exposures_unchanged_by_outcome_kind():
    base = dict(n=300, seed=5)
    both = simulate_cohort(CohortConfig(outcome_kind="both", **base))
    cont = simulate_cohort(CohortConfig(outcome_kind="continuous", **base))
    binary = simulate_cohort(CohortConfig(outcome_kind="binary", **base))
    assert np.array_equal(both.w_obs, cont.w_obs)
    assert np.array_equal(both.w_obs, binary.w_obs)
    assert np.array_equal(both.y, cont.y)
    assert np.array_equal(both.z, binary.z)
    assert np.all(cont.z == 0)
    assert np.all(binary.y == 0.0)


def test_error_nondifferential():
    c = simulate_cohort(CohortConfig(n=100_000, seed=6))
    log_e = np.log(c.w_obs) - np.log(c.x_true)
    bound = 4.0 / math.sqrt(len(c))
    assert abs(np.corrcoef(log_e, c.y)[0, 1]) < bound
    assert abs(np.corrcoef(log_e, c.z)[0, 1]) < bound


def test_null_independence_ci_coverage():
    """Across 100 replicates the naive linear CI covers zero at least 95
    times (nominal 95% coverage; fixed seed set)."""
    hits = 0
    for seed in range(100):
        c = simulate_cohort(CohortConfig(n=100_000, seed=1000 + seed))
        fit = fit_linear(c.w_obs, c.y)
        hits += fit.ci95_lo <= 0.0 <= fit.ci95_hi
    assert hits >= 95


def test_positivity():
    c = simulate_cohort(CohortConfig(n=10_000, mu_x=-3.0, tau_x=0.3, seed=8))
    assert np.all(c.x_true > 0)
    assert np.all(c.w_obs > 0)


def test_round_trip(tmp_path):
    c = simulate_cohort(CohortConfig(n=200, seed=9))
    path = tmp_path / "cohort.csv"
    write_cohort(c, path)
    back = read_cohort(path)
    assert back == c
    assert back.config == c.config


def test_hand_written_file(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("x_true,w_obs,y,z\n1.0,1.5,0.2,0\n2.0,1.0,-0.3,1\n0.5,0.25,0.0,0\n")
    c = read_cohort(path)
    assert len(c) == 3
    assert c.config is None
    assert c.z.tolist() == [0, 1, 0]


def test_negative_exposure_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x_true,w_obs,y,z\n1.0,-1.5,0.2,0\n")
    with pytest.raises(CohortParseError, match="line 2"):
        read_cohort(path)


_LATE = "x_true,w_obs,y,z\n" + "1.0,1.0,0.0,0\n" * 60_000  # rows on lines 2 to 60 001


@pytest.mark.parametrize(
    "body,lineno",
    [
        ("x_true,w_obs,y\n", 1),
        ("x_true,w_obs,y,z\n1.0,1.0,0.0\n", 2),
        ("x_true,w_obs,y,z\n1.0,1.0,abc,0\n", 2),
        ("x_true,w_obs,y,z\n1.0,1.0,0.0,2\n", 2),
        ("x_true,w_obs,y,z\n1.0,1.0,0.0,0\n1.0,1.0,0.0,7\n", 3),
        ("x_true,w_obs,y,z\n1.0,1.0,0.0,0\n1.0,inf,0.0,0\n", 3),
        ("x_true,w_obs,y,z\n1.0,1.0,0.0,0\n1.0,1.0,nan,0\n", 3),
        ("x_true,w_obs,y,z\ninf,1.0,0.0,1\n", 2),
        (b"x_true,w_obs,y,z\n1.0,1.0,0.0,0\n1.0,1.0,\xff0.0,0\n", 3),
        ('# meadjust-cohort {"n": 1,\nx_true,w_obs,y,z\n', 1),
        ("x_true,w_obs,y,z\n1.0,1.0,0.0,0\n0.0,1.0,0.0,0\n", 3),
        ("# a comment and no header\n", 1),
        # bad rows far past the first rows the fast reader takes in
        pytest.param(_LATE + "1.0,1.0,0.0,0\n1.0,nan,0.0,0\n", 60_003, id="late-non-finite"),
        pytest.param(_LATE + "1.0,1.0,0.0,0,1\n", 60_002, id="late-5-columns"),
        pytest.param(_LATE + "1.0,1.0,0.0,2\n", 60_002, id="late-z-2"),
        pytest.param(_LATE.encode() + b"1.0,\xff1.0,0.0,0\n", 60_002, id="late-not-utf8"),
    ],
)
def test_malformed_files_name_line(tmp_path, body, lineno):
    path = tmp_path / "bad.csv"
    path.write_bytes(body if isinstance(body, bytes) else body.encode())
    with pytest.raises(CohortParseError, match=f"line {lineno}") as excinfo:
        read_cohort(path)
    assert excinfo.value.line == lineno


# Computed at the commit before write_cohort formatted rows in blocks, when
# it wrote one string per row: the blocks must not change a byte.
WRITTEN_COHORT_SHA256 = "d2e7a64653fe94fbaa847b5afe8e51024d4ea588d8940b7d8291e4514588157b"


def test_written_bytes_pinned(tmp_path):
    cohort = simulate_cohort(CohortConfig(n=20_000, seed=14))
    assert len(cohort) > 2 * cohort_module._WRITE_BLOCK  # three blocks or more
    path = tmp_path / "cohort.csv"
    write_cohort(cohort, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WRITTEN_COHORT_SHA256


def test_failed_write_leaves_no_temporary_file(tmp_path):
    """A write whose move fails, or that is interrupted while writing,
    re-raises and removes its temporary file."""
    target = tmp_path / "cohort.csv"
    target.mkdir()
    with pytest.raises(OSError):
        write_cohort(simulate_cohort(CohortConfig(n=20, seed=1)), target)

    def interrupted():
        yield "x_true,w_obs,y,z\r\n"
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        cohort_module.write_atomic(tmp_path / "other.csv", interrupted())
    assert [p.name for p in tmp_path.iterdir()] == ["cohort.csv"]


def _outcome(reader, path):
    """What a reader makes of a file: the bytes of its arrays and its config,
    or the type and message of its error."""
    try:
        cohort = reader(path)
    except ParameterError as exc:
        return type(exc), str(exc)
    arrays = [getattr(cohort, name) for name in ("x_true", "w_obs", "y", "z")]
    return [(a.dtype, a.tobytes()) for a in arrays], cohort.config


def _random_rows(seed, n):
    """Rows of random double bit patterns (any finite y, x and w made
    positive), half written shortest, half to 25 digits, plus the extremes."""
    gen = np.random.default_rng(seed)
    values = np.frombuffer(gen.bytes(8 * 3 * n), dtype="<f8").reshape(n, 3).copy()
    values[~np.isfinite(values)] = 1.0
    exposures = values[:, :2]  # a view
    np.abs(exposures, out=exposures)
    exposures[exposures == 0.0] = 5e-324
    values[:4] = [[5e-324, 1.7976931348623157e308, -0.0], [2.2250738585072014e-308, 1e-320, 5e-324],
                  [1.7976931348623157e308, 1.0, -1.7976931348623157e308], [1.0, 1.0, 2.2250738585072009e-308]]
    z = gen.integers(0, 2, size=n)
    return [
        ",".join([(repr(v) if i % 2 else f"{v:.25e}") for v in row] + [str(zi)])
        for i, (row, zi) in enumerate(zip(values.tolist(), z.tolist()))
    ]


@pytest.mark.parametrize("newline", ["\n", "\r", "\r\n"], ids=["LF", "CR", "CRLF"])
@pytest.mark.parametrize("final_newline", [True, False], ids=["final-newline", "no-final-newline"])
@pytest.mark.parametrize("spaces", [False, True], ids=["tight", "spaced"])
@pytest.mark.parametrize("provenance", [False, True], ids=["bare", "provenance"])
def test_fast_reader_matches_per_line_reader(tmp_path, newline, final_newline, spaces, provenance):
    """Whatever the fast reader takes, it reads bit for bit as the per-line
    reader does, config included."""
    rows = _random_rows(16, 3000)
    if spaces:
        rows = [" " + row.replace(",", " ,\t") + " " for row in rows]
    head = ["x_true,w_obs,y,z"]
    if provenance:
        config = CohortConfig(n=len(rows), seed=3)
        head.insert(0, "# meadjust-cohort " + json.dumps(dataclasses.asdict(config)))
    path = tmp_path / "cohort.csv"
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(newline.join(head + rows) + (newline if final_newline else ""))
    assert cohort_module._read_canonical(path) is not None
    assert _outcome(cohort_module._read_canonical, path) == _outcome(cohort_module._read_lines, path)


_GOOD_ROWS = "1.5,2.5,-0.25,1\n0.5,0.75,3.0,0\n"


@pytest.mark.parametrize(
    "body",
    [
        pytest.param("x_true,w_obs,y,z\n1_0.5,2.5,-0.25,1\n" + _GOOD_ROWS, id="underscore"),
        pytest.param("x_true,w_obs,y,z\n\uff11.5,2.5,-0.25,1\n" + _GOOD_ROWS, id="full-width-digit"),
        pytest.param("x_true,w_obs,y,z\n" + _GOOD_ROWS + "# a note\n" + _GOOD_ROWS, id="comment-after-header"),
        pytest.param(
            "x_true,w_obs,y,z\n" + _GOOD_ROWS + '# meadjust-cohort {"n": 4, "seed": 2}\n' + _GOOD_ROWS,
            id="provenance-after-header",
        ),
        pytest.param("x_true,w_obs,y,z\r\n", id="header-only"),
        pytest.param("x_true,w_obs,y,z\n\n\n", id="header-and-blank-lines"),
        pytest.param("x_true,w_obs,y,z\n" + _GOOD_ROWS + "1.5,2.5,0.0,99999999999999999999\n", id="z-overflows-int64"),
        pytest.param("x_true,w_obs,y,z\n1.5\x1c,2.5,0.0,1\n", id="ascii-separator"),
        pytest.param("\n# a note\nx_true,w_obs,y,z\n" + _GOOD_ROWS, id="non-canonical-head"),
    ],
)
def test_fast_reader_declines_to_per_line_reader(tmp_path, body):
    """Files off the fast reader's subset go to the per-line reader, whose
    result or error read_cohort then gives."""
    path = tmp_path / "cohort.csv"
    path.write_bytes(body.encode())
    assert cohort_module._read_canonical(path) is None
    assert _outcome(read_cohort, path) == _outcome(cohort_module._read_lines, path)


def test_reading_installs_no_warnings_filter(tmp_path, monkeypatch, recwarn):
    """Neither reader touches the process-wide warnings filters, which no
    thread can change safely, and a header-only file fails without numpy's
    "no data" warning."""

    def forbidden(*args, **kwargs):
        raise AssertionError("read_cohort changed the warnings filters")

    good = tmp_path / "good.csv"
    write_cohort(simulate_cohort(CohortConfig(n=50, seed=15)), good)
    header_only = tmp_path / "header_only.csv"
    header_only.write_text("x_true,w_obs,y,z\n\n")
    bad = tmp_path / "bad.csv"
    bad.write_text("x_true,w_obs,y,z\n1.0,1.0,0.0,2\n")
    with monkeypatch.context() as m:
        for name in ("catch_warnings", "simplefilter", "filterwarnings", "resetwarnings"):
            m.setattr(warnings, name, forbidden)
        assert len(read_cohort(good)) == 50
        with pytest.raises(ParameterError, match="no records"):
            read_cohort(header_only)
        with pytest.raises(CohortParseError, match="line 2"):
            read_cohort(bad)
    assert not recwarn.list


def test_cohort_invariants_enforced():
    with pytest.raises(ParameterError):
        Cohort([1.0, -1.0], [1.0, 1.0], [0.0, 0.0], [0, 0])
    with pytest.raises(ParameterError):
        Cohort([1.0], [1.0, 1.0], [0.0], [0])
    for x, w, y in (([math.inf], [1.0], [0.0]), ([1.0], [math.inf], [0.0]), ([1.0], [1.0], [math.nan])):
        with pytest.raises(ParameterError, match="finite"):
            Cohort(x, w, y, [0])
    for z in ([2], [0.5]):
        with pytest.raises(ParameterError, match="0 or 1"):
            Cohort([1.0], [1.0], [0.0], z)
    with pytest.raises(ParameterError, match="no records"):
        Cohort([], [], [], [])
    # a 2-D column is refused at construction, z as much as the others
    columns = [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0, 0, 0]]
    for i in range(4):
        with pytest.raises(ParameterError, match="1-D"):
            Cohort(*columns[:i], np.ones((3, 2)), *columns[i + 1 :])


def test_model_spec_rejects_non_finite():
    for w, y in (([1.0, math.inf], [0.0, 0.0]), ([1.0, 2.0], [math.nan, 0.0])):
        with pytest.raises(ParameterError, match="finite"):
            ModelSpec(kind="linear", w=w, outcome=y, priors=linear_priors())
    ok = dict(kind="linear", w=[1.0, 2.0], outcome=[0.0, 1.0], priors=linear_priors())
    for changes, message in (
        ({"kind": "probit"}, "model kind"),
        ({"exposure_transform": "sqrt"}, "exposure_transform"),
        ({"w": [1.0, 2.0, 3.0]}, "equal length"),
        # refused at construction, not deep in the first scan
        ({"w": np.ones((2, 2)), "outcome": np.ones((2, 2))}, "w must be 1-D"),
        ({"outcome": [[0.0], [1.0]]}, "outcome must be 1-D"),
        ({"w": [1.0, 0.0]}, "strictly positive"),
        ({"priors": logistic_priors()}, "tau_eps"),
        ({"kind": "logistic"}, "takes no tau_eps"),
        ({"kind": "logistic", "outcome": [0.0, 2.0], "priors": logistic_priors()}, "0/1"),
    ):
        with pytest.raises(ParameterError, match=message):
            ModelSpec(**{**ok, **changes})
