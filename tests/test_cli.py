"""Command-line contract: subcommands, file outputs, exit codes,
determinism, and format consistency."""
import argparse
import csv
import dataclasses
import hashlib
import json
import math
import re

import pytest

import meadjust.cli as cli
import meadjust.experiment as experiment
from meadjust import CohortConfig, McmcConfig, read_cohort, simulate_cohort, write_cohort
from meadjust.cli import main
from meadjust.diagnostics import RHAT_GATE


def _read_table_csv(path):
    with open(path, encoding="utf-8") as f:
        lines = [ln for ln in f.read().strip().split("\n") if not ln.startswith("#")]
    reader = csv.DictReader(lines)
    return list(reader)


def _exit_code(argv):
    """The process exit code of `meadjust ARGV`, argparse errors included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _no_sampling(*args, **kwargs):
    raise AssertionError("run_chains was called")


def _write_cohort_file(tmp_path, n=400, seed=1, **kwargs):
    path = tmp_path / "cohort.csv"
    write_cohort(simulate_cohort(CohortConfig(n=n, seed=seed, **kwargs)), path)
    return path


def test_simulate_row_count_and_provenance(tmp_path):
    out = tmp_path / "c.csv"
    rc = main(["simulate", "--n", "2000", "--seed", "5", "--out", str(out)])
    assert rc == 0
    cohort = read_cohort(out)
    assert len(cohort) == 2000
    assert cohort.config.n == 2000
    assert cohort.config.seed == 5
    # defaults mirror the generation protocol
    assert cohort.config.tau_e == 1.0
    assert cohort.config.pi == 0.05


def test_simulate_default_is_desk_scale(tmp_path):
    """simulate resolves its settings as every command does, so without
    --n or a config file it writes the desk-scale cohort."""
    out = tmp_path / "c.csv"
    rc = main(["simulate", "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert len(read_cohort(out)) == 2000


def test_simulate_invalid_pi_names_parameter(tmp_path, capsys):
    rc = main(["simulate", "--pi", "1.5", "--out", str(tmp_path / "c.csv")])
    assert rc == 2
    assert "pi" in capsys.readouterr().err


@pytest.mark.parametrize("flag, name", [("--out-dir", ""), ("--out", "cohort.csv/")], ids=["out-dir", "out"])
def test_simulate_failed_write_leaves_nothing_new(tmp_path, capsys, flag, name):
    """A cohort that cannot be moved into place exits 2 and leaves no
    temporary file behind."""
    (tmp_path / "cohort.csv").mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert main(["simulate", "--n", "20", flag, str(tmp_path) + "/" + name]) == 2
    assert sorted(tmp_path.rglob("*")) == before


def test_simulate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--n", "500", "--seed", "7", "--out", str(a)]) == 0
    assert main(["simulate", "--n", "500", "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_naive_linear_outputs(tmp_path, capsys):
    cohort_file = _write_cohort_file(tmp_path, n=20_000, seed=2)
    out_dir = tmp_path / "out"
    rc = main(["naive", str(cohort_file), "--kind", "linear", "--out-dir", str(out_dir)])
    assert rc == 0
    rows = _read_table_csv(out_dir / "naive_linear.csv")
    assert len(rows) == 1
    row = rows[0]
    assert float(row["ci95_lo"]) <= 0.0 <= float(row["ci95_hi"])
    assert (out_dir / "naive_linear.json").exists()
    assert (out_dir / "naive_linear.md").exists()


def test_naive_logistic_or_columns(tmp_path):
    cohort_file = _write_cohort_file(tmp_path, n=20_000, seed=3)
    out_dir = tmp_path / "out"
    rc = main(["naive", str(cohort_file), "--kind", "logistic", "--out-dir", str(out_dir)])
    assert rc == 0
    row = _read_table_csv(out_dir / "naive_logistic.csv")[0]
    assert float(row["or_ci95_lo"]) <= 1.0 <= float(row["or_ci95_hi"])
    assert float(row["odds_ratio"]) == pytest.approx(math.exp(float(row["slope"])), rel=1e-12)


def test_naive_log_exposure_attenuation(tmp_path):
    cohort_file = _write_cohort_file(tmp_path, n=100_000, seed=31, beta_true=0.5)
    out_dir = tmp_path / "out"
    rc = main(["naive", str(cohort_file), "--kind", "linear", "--log-exposure", "--out-dir", str(out_dir)])
    assert rc == 0
    row = _read_table_csv(out_dir / "naive_linear.csv")[0]
    assert abs(float(row["slope"]) - 0.25) < 0.025


def test_naive_missing_file_exit_code(tmp_path, capsys):
    assert main(["naive", str(tmp_path / "nope.csv"), "--kind", "linear"]) == 2


def test_adjust_outputs_and_determinism(tmp_path):
    cohort_file = _write_cohort_file(tmp_path, n=300, seed=4)
    args = [
        "adjust", str(cohort_file), "--kind", "linear", "--prior", "uninformative",
        "--chains", "2", "--burn-in", "300", "--keep", "800", "--thin", "4",
        "--seed", "10", "--emit-traces",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    rc_a = main(args + ["--out-dir", str(out_a)])
    rc_b = main(args + ["--out-dir", str(out_b)])
    assert rc_a == rc_b
    assert rc_a in (0, 3)
    rhat_a = (out_a / "rhat_linear_uninformative.csv").read_bytes()
    rhat_b = (out_b / "rhat_linear_uninformative.csv").read_bytes()
    assert rhat_a == rhat_b
    assert (out_a / "trace_linear_uninformative_chain0.csv").exists()
    if rc_a == 0:
        sa = (out_a / "summary_linear_uninformative.csv").read_bytes()
        sb = (out_b / "summary_linear_uninformative.csv").read_bytes()
        assert sa == sb
        rows = _read_table_csv(out_a / "summary_linear_uninformative.csv")
        assert {r["parameter"] for r in rows} >= {"beta0", "beta", "tau_e", "tau_x", "mu_x"}


def _force_rhat(monkeypatch, rhat):
    """Make every R-hat of cli.adjust_cell's cells read rhat."""
    real_adjust_cell = cli.adjust_cell

    def cell_with_rhat(*args, **kwargs):
        cell = real_adjust_cell(*args, **kwargs)
        cell.rhats = [dataclasses.replace(r, rhat=rhat) for r in cell.rhats]
        return cell

    monkeypatch.setattr(cli, "adjust_cell", cell_with_rhat)


def test_adjust_gate_failure_withholds_summaries(tmp_path, monkeypatch, capsys):
    cohort_file = _write_cohort_file(tmp_path, n=100, seed=5)
    out_dir = tmp_path / "out"
    _force_rhat(monkeypatch, 2.0)
    rc = main([
        "adjust", str(cohort_file), "--kind", "linear", "--prior", "typeA",
        "--chains", "2", "--burn-in", "50", "--keep", "200", "--thin", "2",
        "--seed", "1", "--out-dir", str(out_dir),
    ])
    assert rc == 3
    assert (out_dir / "rhat_linear_typeA.csv").exists()
    assert not (out_dir / "summary_linear_typeA.csv").exists()
    assert f"gate failed (R-hat >= {RHAT_GATE})" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["naive", "adjust", "adjust-unconverged", "replicate", "evidence"])
def test_every_written_file_is_named_once(tmp_path, monkeypatch, capsys, command):
    """Each table-writing command prints one 'wrote PATH' line for each
    file it leaves under --out-dir, and no other."""
    cohort_file = _write_cohort_file(tmp_path, n=100, seed=5)
    out_dir = tmp_path / "out"
    if command.startswith("adjust"):
        _force_rhat(monkeypatch, 2.0 if command == "adjust-unconverged" else 1.0)
    argv = {
        "naive": ["naive", str(cohort_file), "--kind", "logistic"],
        "adjust": [
            "adjust", str(cohort_file), "--kind", "linear", "--chains", "2", "--burn-in", "50",
            "--keep", "200", "--thin", "2", "--seed", "1", "--emit-traces",
        ],
        "replicate": [
            "replicate", "--config", str(_tiny_replicate_config(tmp_path, out_dir, kinds=("linear", "logistic"))),
        ],
        "evidence": ["evidence"],
    }[command.removesuffix("-unconverged")]
    rc = main(argv + ["--out-dir", str(out_dir)])
    assert rc in {"adjust-unconverged": (3,), "replicate": (0, 3)}.get(command, (0,))
    wrote = [ln.removeprefix("wrote ") for ln in capsys.readouterr().out.splitlines() if ln.startswith("wrote ")]
    assert len(wrote) == len(set(wrote))
    assert sorted(wrote) == sorted(str(p) for p in out_dir.rglob("*") if p.is_file())


def test_adjust_initialization_failure_exit_code(tmp_path, monkeypatch, capsys):
    cohort_file = _write_cohort_file(tmp_path, n=100, seed=6)
    from meadjust.errors import InitializationError

    def broken(*args, **kwargs):
        raise InitializationError("alpha", "synthetic")

    monkeypatch.setattr(cli, "adjust_cell", broken)
    rc = main(["adjust", str(cohort_file), "--kind", "logistic", "--out-dir", str(tmp_path / "o")])
    assert rc == 4
    assert "alpha" in capsys.readouterr().err


def _tiny_replicate_config(tmp_path, out_dir, variants=("uninformative",), kinds=("linear",)):
    cfg = {
        "cohort": {"n": 300, "seed": 9},
        "mcmc": {"n_chains": 2, "burn_in": 200, "keep": 600, "thin": 3, "seed": 9},
        "prior_variants": list(variants),
        "model_kinds": list(kinds),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_replicate_single_variant_table(tmp_path):
    out_dir = tmp_path / "rep"
    cfg = _tiny_replicate_config(tmp_path, out_dir)
    rc = main(["replicate", "--config", str(cfg), "--out-dir", str(out_dir)])
    assert rc in (0, 3)
    rows = _read_table_csv(out_dir / "table_linear.csv")
    assert len(rows) == 1
    assert rows[0]["prior"] == "uninformative"
    assert rows[0]["parameter"] == "beta"
    assert rows[0]["cri_contains_null"] in ("true", "false")
    assert (out_dir / "cohort.csv").exists()


def test_replicate_markdown_matches_csv_precision(tmp_path):
    out_dir = tmp_path / "rep"
    cfg = _tiny_replicate_config(tmp_path, out_dir)
    rc = main(["replicate", "--config", str(cfg), "--out-dir", str(out_dir)])
    assert rc in (0, 3)
    rows = _read_table_csv(out_dir / "table_linear.csv")
    md = (out_dir / "table_linear.md").read_text()
    md_rows = [ln for ln in md.split("\n") if ln.startswith("|") and "---" not in ln]
    header = [h.strip() for h in md_rows[0].strip("|").split("|")]
    cells = [cell.strip() for cell in md_rows[1].strip("|").split("|")]
    md_row = dict(zip(header, cells))
    for field in ("mean", "p2_5", "p97_5", "rhat"):
        assert md_row[field] == f"{float(rows[0][field]):.4g}"


def test_replicate_flag_overrides(tmp_path):
    out_dir = tmp_path / "rep"
    cfg = _tiny_replicate_config(tmp_path, out_dir)
    rc = main([
        "replicate", "--config", str(cfg), "--out-dir", str(out_dir),
        "--n", "200", "--kinds", "linear", "--variants", "typeC",
    ])
    assert rc in (0, 3)
    rows = _read_table_csv(out_dir / "table_linear.csv")
    assert rows[0]["prior"] == "typeC"
    assert len(read_cohort(out_dir / "cohort.csv")) == 200


def test_replicate_unknown_config_key(tmp_path, capsys):
    path = tmp_path / "config.json"
    cases = [
        ({"cohort": {"n": 100}, "mystery": 1}, "mystery"),
        ({"cohort": {"nn": 5}}, "cohort"),
        ({"cohort": 5}, "cohort"),
        ({"mcmc": {"n_chains": "3"}}, "mcmc"),
        ({"out_dir": "x"}, "out_dir"),
        ({"formats": ["csv"]}, "formats"),
        ({"mcmc": {"n_chains": 2.0}}, "n_chains"),
        ({"cohort": {"n": 50.0}}, "n must be an integer"),
        ({"mcmc": {"seed": 1.7}}, "seed"),
        ({"mcmc": {"seed": -1}}, "seed"),
        ({"cohort": {"seed": -1}}, "seed"),
        ({"prior_variants": ["typeZ"]}, "typeZ"),
        ({"model_kinds": []}, "model_kinds"),
        ({"model_kinds": {"linear": 0}}, "model_kinds"),
        ({"prior_variants": "typeA"}, "prior_variants"),
        ({"prior_variants": ["typeA", "typeA"]}, "prior_variants"),
        ([{"cohort": {"n": 100}}], "JSON object"),
        ({"cohort": {"mu_x": "abc"}}, "mu_x"),
        ({"cohort": {"beta_true": "x"}}, "beta_true"),
        ({"cohort": {"alpha_true": [1]}}, "alpha_true"),
        ({"cohort": {"tau_x": "abc"}}, "tau_x"),
        ({"cohort": {"pi": "x"}}, "pi"),
    ]
    for config, key in cases:
        path.write_text(json.dumps(config))
        rc = main(["replicate", "--config", str(path), "--out-dir", str(tmp_path / "o")])
        assert rc == 2, config
        assert key in capsys.readouterr().err, config
    # each config is refused before the cohort is simulated and written
    assert not (tmp_path / "o" / "cohort.csv").exists()


def test_partial_cohort_section_keeps_desk_scale(tmp_path, monkeypatch):
    """Config values replace the experiment defaults field by field, so a
    cohort section that names only the seed keeps n=2000."""
    monkeypatch.setattr(cli, "run_replication_grid", lambda cfg, cohort: {})
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"cohort": {"seed": 1}}))
    for command in ("simulate", "replicate"):
        out_dir = tmp_path / command
        assert main([command, "--config", str(config), "--out-dir", str(out_dir)]) == 0, command
        cohort = read_cohort(out_dir / "cohort.csv")
        assert len(cohort) == 2000, command
        assert cohort.config.seed == 1, command


def test_replicate_variant_subset_reproduces_full_grid_rows(tmp_path):
    """A cell's streams are keyed by its canonical grid position, so its row
    does not depend on which other cells run."""
    cfg = _tiny_replicate_config(tmp_path, None)
    typeA_rows = []
    for variants in ("uninformative,typeA", "typeA"):
        out_dir = tmp_path / variants
        rc = main(["replicate", "--config", str(cfg), "--out-dir", str(out_dir), "--variants", variants])
        assert rc in (0, 3)
        lines = (out_dir / "table_linear.csv").read_bytes().splitlines()
        typeA_rows.append([ln for ln in lines if ln.startswith(b"typeA,")])
    assert len(typeA_rows[0]) == 1
    assert typeA_rows[0] == typeA_rows[1]


def test_adjust_reproduces_the_replicate_row(tmp_path):
    """adjust draws from the cell's grid streams, never from the cohort's,
    so on replicate's cohort with the same settings it gives that row's
    R-hat."""
    cfg = _tiny_replicate_config(tmp_path, None, variants=("typeA",))
    rep, adj = tmp_path / "rep", tmp_path / "adj"
    assert main(["replicate", "--config", str(cfg), "--out-dir", str(rep)]) in (0, 3)
    argv = ["adjust", str(rep / "cohort.csv"), "--kind", "linear", "--prior", "typeA"]
    assert main(argv + ["--config", str(cfg), "--out-dir", str(adj)]) in (0, 3)
    (row,) = _read_table_csv(rep / "table_linear.csv")
    (beta,) = [r for r in _read_table_csv(adj / "rhat_linear_typeA.csv") if r["parameter"] == "beta"]
    assert beta["rhat"] == row["rhat"]


def test_unknown_format_exits_before_sampling(tmp_path, monkeypatch, capsys):
    """So does an empty --kinds or --variants list, which would otherwise
    fall back to the whole grid."""
    monkeypatch.setattr(experiment, "run_chains", _no_sampling)
    cases = {"--format": ("xml", "csv,xml", "", ","), "--kinds": ("", ","), "--variants": ("", ",")}
    for flag, values in cases.items():
        for value in values:
            assert _exit_code(["replicate", f"{flag}={value}", "--out-dir", str(tmp_path)]) == 2, (flag, value)
            assert flag in capsys.readouterr().err, (flag, value)
    assert not list(tmp_path.iterdir())


def test_adjust_unsummarisable_draws_exit_before_sampling(tmp_path, monkeypatch, capsys):
    cohort_file = _write_cohort_file(tmp_path, n=100, seed=6)
    monkeypatch.setattr(experiment, "run_chains", _no_sampling)
    for flags, message in (
        (["--chains", "1"], "chains"),
        (["--chains", "2", "--keep", "40", "--thin", "4"], "draws"),
        (["--chains", "20", "--keep", "5", "--thin", "1"], "too short"),
    ):
        rc = main(["adjust", str(cohort_file), "--kind", "linear", "--out-dir", str(tmp_path / "o"), *flags])
        assert rc == 2, flags
        assert message in capsys.readouterr().err, flags


def test_replicate_refused_draw_counts_write_nothing(tmp_path, monkeypatch, capsys):
    """A replicate grid whose draw counts cannot be summarised exits 2
    before any sampling and writes nothing, not even the cohort."""
    monkeypatch.setattr(experiment, "run_chains", _no_sampling)
    config = tmp_path / "config.json"
    for mcmc_config, message in (({"n_chains": 1}, "chains"), ({"n_chains": 20, "keep": 5, "thin": 1}, "too short")):
        config.write_text(json.dumps({"mcmc": mcmc_config}))
        out_dir = tmp_path / "o"
        argv = ["replicate", "--n", "50", "--kinds", "linear", "--variants", "typeA", "--config", str(config)]
        assert main(argv + ["--out-dir", str(out_dir)]) == 2, mcmc_config
        assert message in capsys.readouterr().err, mcmc_config
        assert not out_dir.exists(), mcmc_config


@pytest.mark.parametrize(
    "command, config_type, section",
    [(["simulate"], CohortConfig, "cohort"), (["adjust", "c.csv", "--kind", "linear"], McmcConfig, "mcmc")],
)
def test_settings_flags_are_the_config_fields(command, config_type, section):
    """simulate has one flag per CohortConfig field and adjust one per
    McmcConfig field, seed (a common flag) aside: --<field with dashes>, or
    --chains for n_chains, with the field's name as dest; a value given on
    the command line reaches the resolved config."""
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = subparsers.choices[command[0]]._actions
    base = getattr(experiment.ExperimentConfig(), section)
    for f in dataclasses.fields(config_type):
        if f.name == "seed":
            continue
        (action,) = [a for a in actions if a.dest == f.name]
        flag = "--chains" if f.name == "n_chains" else "--" + f.name.replace("_", "-")
        assert action.option_strings == [flag]
        assert (action.type, action.default, action.choices) == (type(f.default), None, f.metadata.get("choices"))
        default = getattr(base, f.name)
        # twice the default keeps keep a multiple of thin and pi below 1
        value = next(c for c in action.choices if c != default) if action.choices else 2 * default or 0.5
        resolved = getattr(cli._load_config(parser.parse_args(command + [flag, str(value)])), section)
        assert getattr(resolved, f.name) == value, flag
        assert dataclasses.replace(resolved, **{f.name: default}) == base, flag


@pytest.mark.parametrize(
    "argv, flag",
    [(["simulate"], "--outcome-kind"), (["adjust", "c.csv", "--kind", "linear"], "--init-strategy")],
)
def test_settings_flags_refuse_unknown_choices(tmp_path, capsys, argv, flag):
    assert _exit_code(argv + [flag, "foo", "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: invalid choice: 'foo'" in err
    assert not (tmp_path / "o").exists()


def test_subcommands_reject_flags_they_do_not_read(tmp_path, monkeypatch, capsys):
    cohort_file = _write_cohort_file(tmp_path, n=100, seed=6)
    config = tmp_path / "config.json"
    config.write_text("{}")
    monkeypatch.setattr(experiment, "run_chains", _no_sampling)
    for argv, flag in (
        (["naive", str(cohort_file), "--kind", "linear", "--seed", "1"], "--seed"),
        (["naive", str(cohort_file), "--kind", "linear", "--config", str(config)], "--config"),
        (["evidence", "--config", str(config)], "--config"),
        (["simulate", "--n", "10", "--format", "csv"], "--format"),
        (["adjust", str(cohort_file), "--kind", "logistic", "--mu-x-normal"], "--mu-x-normal"),
    ):
        assert _exit_code(argv + ["--out-dir", str(tmp_path / "o")]) == 2, argv
        assert flag in capsys.readouterr().err, argv
    assert not (tmp_path / "o").exists()


# SHA-256 of table_linear.csv then table_logistic.csv for the seed-101 desk
# grid, recorded in BENCH_10.json under desk_grid.fingerprint_sha256["101"].
# A change to the sampler's law or to its use of the random stream changes
# it; such a change must update the value here and say so.
DESK_GRID_101_SHA256 = "8c08c0ab1987ee9a815d255bd7bdc7422c613f9987ffaf846bdbade548137cfb"


def test_replicate_desk_grid_fingerprint(tmp_path):
    """Same-seed replicate tables stay byte-identical across refactors."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "cohort": {"n": 2000, "seed": 101},
        "mcmc": {"n_chains": 3, "burn_in": 200, "keep": 50, "thin": 1, "seed": 101},
    }))
    out_dir = tmp_path / "rep"
    assert main(["replicate", "--config", str(config), "--out-dir", str(out_dir)]) in (0, 3)
    digest = hashlib.sha256()
    for kind in ("linear", "logistic"):
        digest.update((out_dir / f"table_{kind}.csv").read_bytes())
    assert digest.hexdigest() == DESK_GRID_101_SHA256


def test_bad_config_json_exit_code(tmp_path, capsys):
    path = tmp_path / "config.json"
    for body in (b"{not json", b'{"cohort": {"n": 100}}\xff'):
        path.write_bytes(body)
        assert main(["replicate", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 2, body
        assert "bad config file" in capsys.readouterr().err, body


def test_negative_seed_exit_code(tmp_path, capsys):
    cohort_file = _write_cohort_file(tmp_path, n=100, seed=6)
    for argv in (
        ["simulate", "--n", "10"],
        ["evidence"],
        ["replicate", "--n", "100"],
        ["adjust", str(cohort_file), "--kind", "linear"],
    ):
        assert main(argv + ["--seed=-1", "--out-dir", str(tmp_path / "o")]) == 2, argv
        assert "seed -1" in capsys.readouterr().err, argv


def test_naive_non_finite_cohort_exit_code(tmp_path, capsys):
    path = tmp_path / "cohort.csv"
    path.write_text("x_true,w_obs,y,z\n1.0,1.0,0.0,0\n2.0,inf,1.0,0\n3.0,3.0,nan,1\n")
    assert main(["naive", str(path), "--kind", "linear", "--out-dir", str(tmp_path / "o")]) == 2
    assert "line 3" in capsys.readouterr().err


def test_constant_exposure_exit_code(tmp_path, capsys):
    """A cohort whose every w is equal is a singular design for the naive
    fits and for the naive_start chains that begin from them."""
    path = tmp_path / "cohort.csv"
    path.write_text("x_true,w_obs,y,z\n" + "".join(f"1.0,0.3,{i % 3}.0,{i % 2}\n" for i in range(10)))
    for argv in (
        ["naive", str(path), "--kind", "linear"],
        ["naive", str(path), "--kind", "logistic"],
        ["adjust", str(path), "--kind", "logistic", "--init-strategy", "naive_start"],
    ):
        assert main(argv + ["--out-dir", str(tmp_path / "o")]) == 2, argv
        assert "zero variance" in capsys.readouterr().err, argv


def test_header_only_cohort_exit_code(tmp_path, capsys):
    path = tmp_path / "cohort.csv"
    path.write_text("x_true,w_obs,y,z\n")
    for argv in (
        ["naive", str(path), "--kind", "logistic"],
        ["adjust", str(path), "--kind", "linear"],
    ):
        assert main(argv + ["--out-dir", str(tmp_path / "o")]) == 2, argv
        assert "no records" in capsys.readouterr().err, argv


def test_evidence_empty_lists_exit_code(tmp_path, capsys):
    for flag, value in (
        ("--prefixes", ""),
        ("--p-null", ""),
        ("--prefixes", "10,abc"),
        ("--prefixes", "-5,10"),
        ("--prefixes", "0"),
        ("--p-null", "0.5,x"),
        ("--noise-precision", "-1"),
        ("--noise-precision", "0"),
        ("--noise-precision", "inf"),
        ("--sigma-b", "inf"),
        ("--n", "0"),
        ("--n", "-3"),
    ):
        assert main(["evidence", f"{flag}={value}", "--out-dir", str(tmp_path)]) == 2
        assert flag in capsys.readouterr().err


def test_evidence_table(tmp_path, capsys):
    out_dir = tmp_path / "ev"
    rc = main([
        "evidence", "--seed", "1", "--n", "1000", "--prefixes", "10,1000",
        "--p-null", "0.5,0.01", "--out-dir", str(out_dir),
    ])
    assert rc == 0
    rows = _read_table_csv(out_dir / "evidence.csv")
    assert len(rows) == 4
    by_key = {(int(r["n"]), float(r["p_null"])): float(r["delta"]) for r in rows}
    assert by_key[(1000, 0.5)] > 5.0
    assert by_key[(1000, 0.5)] > by_key[(10, 0.5)]
    assert by_key[(1000, 0.01)] < 1.0


@pytest.mark.parametrize("precision", ["1e-320", "5e-324"])
def test_evidence_tiny_noise_precision_is_finite(tmp_path, precision):
    """A subnormal precision draws noise near 1e160, whose u.u overflows
    while tau (u.u) stays near n: every delta and log marginal is finite."""
    out_dir = tmp_path / "ev"
    rc = main([
        "evidence", "--noise-precision", precision, "--n", "1000", "--prefixes", "10,1000",
        "--p-null", "0.5", "--out-dir", str(out_dir),
    ])
    assert rc == 0
    rows = _read_table_csv(out_dir / "evidence.csv")
    assert len(rows) == 2
    for row in rows:
        for key in ("delta", "log_marginal_null", "log_marginal_positive"):
            assert math.isfinite(float(row[key])), (key, row)


def test_evidence_json_provenance(tmp_path):
    out_dir = tmp_path / "ev"
    rc = main(["evidence", "--seed", "3", "--prefixes", "10", "--p-null", "0.5", "--out-dir", str(out_dir)])
    assert rc == 0
    payload = json.loads((out_dir / "evidence.json").read_text())
    assert payload["provenance"]["seed"] == 3
    assert payload["rows"]


def test_evidence_json_is_strict(tmp_path):
    """A delta beyond the float range is written as the CSV's "inf", not as
    the non-standard constant Infinity."""
    out_dir = tmp_path / "ev"
    rc = main(["evidence", "--sigma-b", "1e308", "--prefixes", "10", "--p-null", "0.5", "--out-dir", str(out_dir)])
    assert rc == 0

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    payload = json.loads((out_dir / "evidence.json").read_text(), parse_constant=refuse)
    assert [row["delta"] for row in payload["rows"]] == ["inf"]
    assert [row["delta"] for row in _read_table_csv(out_dir / "evidence.csv")] == ["inf"]


def test_format_subset(tmp_path):
    out_dir = tmp_path / "ev"
    rc = main(["evidence", "--prefixes", "10", "--p-null", "0.5", "--format", "csv", "--out-dir", str(out_dir)])
    assert rc == 0
    assert (out_dir / "evidence.csv").exists()
    assert not (out_dir / "evidence.json").exists()
    assert not (out_dir / "evidence.md").exists()
