"""CLI contract: exit codes, schema validation, CSV determinism."""

import json
import os

import numpy as np
import pytest

import ffode.cli
from ffode import PdeSpec, WitnessPair
from ffode.cli import (
    CSV_COLUMNS, EXIT_FAIL, EXIT_MISMATCH, EXIT_OK, EXIT_SCHEMA, LB_FAMILIES,
    LB_TABLE, SELFTEST_CONFIG, _print_certified, _sampler_b, _sampler_u, main,
    run_campaign,
)


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def strip_wall_time(csv_text):
    lines = csv_text.strip().split("\n")
    assert lines[0].split(",")[-1] == "wall_time_ms"
    return "\n".join(",".join(line.split(",")[:-1]) for line in lines)


HEAT_CAMPAIGN = {
    "version": 1,
    "campaign": "demo-heat",
    "solver": "eigen",
    "seed": 5,
    "sweep": {"T": [0.01, 0.1, 1.0], "eps": [1e-08]},
    "problems": [
        {"id": "heat-1d-8", "type": "pde", "kind": "heat", "d": 1, "n": 8,
         "u0": {"name": "one-plus-cos"}},
    ],
}


def test_solve_heat_sweep(tmp_path, capsys):
    cfg = write_config(tmp_path, HEAT_CAMPAIGN)
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_OK
    csv_path = tmp_path / "demo-heat.csv"
    text = csv_path.read_text(encoding="utf-8")
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 3  # header + one row per horizon
    err_col = CSV_COLUMNS.index("error_vs_reference")
    for line in lines[1:]:
        assert float(line.split(",")[err_col]) <= 1e-8


def test_solve_empty_sweep_is_schema_error(tmp_path, capsys):
    bad = dict(HEAT_CAMPAIGN, sweep={"T": []})
    cfg = write_config(tmp_path, bad)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) \
        == EXIT_SCHEMA


def test_solve_missing_config_schema_error(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.json")]) \
        == EXIT_SCHEMA


def test_solve_bad_version(tmp_path):
    bad = dict(HEAT_CAMPAIGN, version=2)
    cfg = write_config(tmp_path, bad)
    assert main(["solve", "--config", cfg]) == EXIT_SCHEMA


def test_unknown_solver_is_a_schema_error(tmp_path):
    # no solver skips the solve: a config naming one is rejected
    bad = dict(HEAT_CAMPAIGN, solver="reference-only")
    cfg = write_config(tmp_path, bad)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) \
        == EXIT_SCHEMA
    assert not (tmp_path / "demo-heat.csv").exists()


@pytest.mark.parametrize("problem", [
    {"id": "beam-2d", "type": "pde", "kind": "beam", "d": 2},
    {"id": "heat", "type": "pde", "kind": "heat", "n": 8,
     "u0": {"name": "no-such-sampler"}},
    {"id": "heat", "type": "pde", "kind": "heat", "n": 8,
     "b": {"name": "no-such-source"}},
    {"id": "heat", "type": "pde", "kind": "heat", "d": 1, "n": 8,
     "c": float("nan")},
], ids=["bad-problem", "unknown-sampler", "unknown-source-sampler",
        "nan-coefficient"])
def test_bad_pde_problem_is_a_schema_error(tmp_path, capsys, problem):
    # found while the campaign runs, and still reported as a schema violation
    bad = dict(HEAT_CAMPAIGN, problems=[problem])
    cfg = write_config(tmp_path, bad)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) \
        == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "demo-heat.csv").exists()


NAN = float("nan")
KG = {"id": "kg", "type": "pde", "kind": "klein-gordon", "w0": {"name": "sin"}}

#: case -> (solver, problem with one bad number); json.load reads NaN and
#: Infinity, so each must be rejected on loading, or by PdeSpec
BAD_PROBLEM_NUMBERS = {
    "delta-nan": ("negdef", {"family": "random-negdef", "delta": NAN}),
    "delta-above-one": ("negdef", {"family": "random-negdef", "delta": 1.5}),
    "delta-zero": ("negdef", {"family": "random-negdef", "delta": 0}),
    "N-zero": ("eigen", {"family": "random-normal", "N": 0}),
    "N-fraction": ("eigen", {"family": "random-normal", "N": 2.5}),
    "N-string": ("eigen", {"family": "random-normal", "N": "4"}),
    "n-nan": ("eigen", {"kind": "heat", "n": NAN}),
    "n-string": ("eigen", {"kind": "heat", "n": "8"}),
    "d-fraction": ("eigen", {"kind": "heat", "d": 1.9}),
    "width-nan": ("eigen", {"kind": "heat",
                            "u0": {"name": "gaussian-bump", "width": NAN}}),
    "width-zero": ("eigen", {"kind": "heat",
                             "u0": {"name": "gaussian-bump", "width": 0}}),
    "value-nan": ("eigen", {"kind": "heat",
                            "b": {"name": "constant", "value": NAN}}),
    "omega-nan": ("eigen-td", {"kind": "heat",
                               "b": {"name": "cos-drive", "omega": NAN}}),
    "k-infinite": ("eigen", {"kind": "wave", "u0": {"name": "sin"},
                             "w0": {"name": "sin", "k": float("inf")}}),
    "profile-k-nan": ("eigen", {"kind": "heat", "b": {
        "name": "spatial", "profile": {"name": "cos", "k": NAN}}}),
    "sampler-not-an-object": ("eigen", {"kind": "heat", "u0": "sin"}),
    "u0-null": ("eigen", {"kind": "heat", "u0": None}),
    "profile-null": ("eigen", {"kind": "heat", "b": {
        "name": "spatial", "profile": None}}),
    "mass-square-overflows": ("eigen", dict(KG, m=1e200)),
    "c-string": ("eigen", {"kind": "heat", "c": "abc"}),
    "c-numeric-string": ("eigen", {"kind": "heat", "c": "-1"}),
    "mass-string": ("eigen", dict(KG, m="2")),
    "a-string": ("eigen", {"kind": "heat", "a": "1.0"}),
    "a-list-of-strings": ("eigen", {"kind": "heat", "a": ["1"]}),
    "a-list-too-long": ("eigen", {"kind": "heat", "d": 1, "a": [1.0, 2.0]}),
    "a_prime-infinite": ("eigen", {"kind": "transport",
                                   "a_prime": [float("inf")]}),
}


@pytest.mark.parametrize("case", list(BAD_PROBLEM_NUMBERS))
def test_bad_problem_number_is_a_schema_error(tmp_path, capsys, case):
    solver, problem = BAD_PROBLEM_NUMBERS[case]
    kind = "pde" if "kind" in problem else "ode"
    cfg_obj = {"version": 1, "campaign": "bad", "solver": solver,
               "sweep": {"T": [0.5], "eps": [1e-3]},
               "problems": [dict({"id": "p", "type": kind}, **problem)]}
    cfg = write_config(tmp_path, cfg_obj)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) \
        == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "bad.csv").exists()


HEAT = {"id": "heat", "type": "pde", "kind": "heat", "n": 8}
ODE_WITH_B = {"id": "r", "type": "ode", "family": "random-normal", "N": 4}

#: case -> (solver, the one bad sweep axis, problem); every other axis is
#: valid, so each value alone must be rejected
BAD_SWEEP_VALUES = {
    "eps-zero-pde": ("eigen", {"eps": [0]}, HEAT),
    "eps-negative": ("eigen", {"eps": [-1e-3]}, HEAT),
    "eps-above-one": ("eigen", {"eps": [1.5]}, HEAT),
    "eps-one": ("eigen", {"eps": [1e-6, 1]}, ODE_WITH_B),
    "eps-non-numeric": ("eigen", {"eps": ["1e-6"]}, ODE_WITH_B),
    "T-zero-ode": ("eigen", {"T": [0]}, ODE_WITH_B),
    "T-negative-pde": ("eigen", {"T": [-0.5]}, HEAT),
    "T-non-numeric": ("eigen", {"T": [None]}, HEAT),
    "M-zero": ("eigen-td", {"M": [0]}, ODE_WITH_B),
    "M-fraction": ("eigen-td", {"M": [20.5]}, ODE_WITH_B),
    "n-zero": ("eigen", {"n": [0]}, HEAT),
    "d-boolean": ("eigen", {"d": [True]}, HEAT),
}


@pytest.mark.parametrize("case", list(BAD_SWEEP_VALUES))
def test_bad_sweep_value_is_a_schema_error(tmp_path, capsys, case):
    solver, sweep, problem = BAD_SWEEP_VALUES[case]
    cfg_obj = {"version": 1, "campaign": "bad", "solver": solver, "seed": 0,
               "sweep": dict({"T": [0.5], "eps": [1e-3]}, **sweep),
               "problems": [problem]}
    cfg = write_config(tmp_path, cfg_obj)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) \
        == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"sweep axis '{next(iter(sweep))}'" in err
    assert not (tmp_path / "bad.csv").exists()


#: case -> a config seed that is not a non-negative integer; json.load
#: reads NaN, and a fraction or a boolean must not run as seed 1
BAD_SEEDS = {"negative": -1, "string": "abc", "nan": NAN, "fraction": 1.5,
             "boolean": True}


@pytest.mark.parametrize("case", list(BAD_SEEDS))
def test_bad_config_seed_is_a_schema_error(tmp_path, capsys, case):
    cfg = write_config(tmp_path, dict(HEAT_CAMPAIGN, seed=BAD_SEEDS[case]))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) \
        == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("error: config: 'seed' takes a non-negative "
                          "integer") and err.count("\n") == 1
    assert not (tmp_path / "demo-heat.csv").exists()


@pytest.mark.parametrize("args", [
    ["solve", "--config", "unread.json", "--seed", "-3"],
    ["solve", "--config", "unread.json", "--jobs", "0"],
    ["solve", "--config", "unread.json", "--jobs", "-1"],
    ["selftest", "--seed", "-3"],
    ["selftest", "--jobs", "0"],
    ["lb", "--family", "realpart-gap", "--seed", "-1"],
    ["lb", "--family", "realpart-gap", "--seed", "1.5"],
])
def test_bad_seed_or_jobs_argument_is_a_usage_error(capsys, args):
    # rejected while the arguments are parsed, before any config is read
    with pytest.raises(SystemExit) as exit_:
        main(args)
    assert exit_.value.code == EXIT_SCHEMA
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: argument {args[-2]}: takes a" in err


@pytest.mark.parametrize("command", [
    ["solve", "--config", "unread.json"], ["selftest"]])
@pytest.mark.parametrize("tolerance", ["nan", "-1"])
def test_bad_tolerance_is_a_usage_error(capsys, command, tolerance):
    with pytest.raises(SystemExit) as exit_:
        main([*command, "--tolerance", tolerance])
    assert exit_.value.code == EXIT_SCHEMA
    out, err = capsys.readouterr()
    assert out == ""
    assert (f"error: argument --tolerance: takes a non-negative number, "
            f"got '{tolerance}'") in err


def test_zero_and_infinite_tolerances_parse():
    parser = ffode.cli.build_parser()
    for command in (["solve", "--config", "unread.json"], ["selftest"]):
        for text, value in (("0", 0.0), ("inf", float("inf"))):
            args = parser.parse_args([*command, "--tolerance", text])
            assert args.tolerance == value


def test_sweep_horizon_past_the_float_range_of_T_over_eps(tmp_path, capsys):
    # T/ε overflows: the gate model counts log2 T − log2 ε instead
    spec = PdeSpec("heat", 1, 4, 1e308, u0=lambda x: np.ones_like(x[0]))
    assert ffode.pde._gate_model(spec, 1e-6) == {
        "qft_gates": 4, "oracle_arithmetic_gates": 1044}
    cfg = write_config(tmp_path, dict(HEAT_CAMPAIGN, sweep={"T": [1e308]}))
    with np.errstate(over="ignore"):
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) \
            == EXIT_OK


def test_imaginary_time_horizon_past_the_float_range_is_a_range_error(capsys):
    # ξ = e^{−T} of the CLI's ‖H‖ = 1 family is not a float past T = 709.78
    assert main(["lb", "--family", "imaginary-time", "--T", "709"]) == EXIT_OK
    capsys.readouterr()
    assert main(["lb", "--family", "imaginary-time", "--T", "800"]) \
        == EXIT_SCHEMA
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: T must be positive with e^T a finite float\n"


def test_linear_system_kappa_past_a_finite_square_fails_its_check(capsys):
    # κ² overflows at κ = 1e160; 1/κ² does not, and the dense solve at
    # singular value 1e-160 fails the overlap ceiling: a FAIL line, exit 1
    assert main(["lb", "--family", "linear-system", "--kappa", "1e160"]) \
        == EXIT_FAIL
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("FAIL linear-system: ") and err.count("\n") == 1


def test_solver_problem_mismatch(tmp_path):
    bad = {
        "version": 1, "campaign": "bad", "solver": "eigen", "seed": 0,
        "sweep": {"T": [1.0]},
        "problems": [{"id": "nn", "type": "ode", "family": "nonnormal"}],
    }
    cfg = write_config(tmp_path, bad)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) \
        == EXIT_MISMATCH


@pytest.mark.parametrize("solver, problem", [
    ("negdef", {"id": "heat", "type": "pde", "kind": "heat", "n": 4}),
    ("sqrt", {"id": "heat", "type": "pde", "kind": "heat", "n": 4}),
    ("negdef", {"id": "rs", "type": "ode", "family": "random-sqrt"}),
    ("negdef", {"id": "nn", "type": "ode", "family": "nonnormal"}),
    ("sqrt", {"id": "rn", "type": "ode", "family": "random-normal"}),
    ("sqrt", {"id": "nn", "type": "ode", "family": "nonnormal"}),
    ("eigen-td", {"id": "nn", "type": "ode", "family": "nonnormal"}),
])
def test_every_solver_problem_mismatch_exits_before_solving(
        tmp_path, monkeypatch, solver, problem):
    # each mismatch is found before any problem is built or solved
    def unreachable(*args):
        raise AssertionError("a mismatched campaign reached _run_point")

    monkeypatch.setattr(ffode.cli, "_run_point", unreachable)
    bad = {"version": 1, "campaign": "bad", "solver": solver, "seed": 0,
           "sweep": {"T": [1.0]}, "problems": [problem]}
    cfg = write_config(tmp_path, bad)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) \
        == EXIT_MISMATCH


def test_solve_determinism(tmp_path):
    cfg_obj = {
        "version": 1, "campaign": "det", "solver": "eigen", "seed": 123,
        "sweep": {"T": [0.1, 0.7]},
        "problems": [
            {"id": "rn", "type": "ode", "family": "random-normal", "N": 6},
            {"id": "heat", "type": "pde", "kind": "heat", "n": 8,
             "u0": {"name": "one-plus-cos"}},
        ],
    }
    texts = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        cfg = write_config(tmp_path, cfg_obj, name=f"cfg-{run}.json")
        assert main(["solve", "--config", cfg, "--out", str(out_dir)]) \
            == EXIT_OK
        texts.append((out_dir / "det.csv").read_text(encoding="utf-8"))
    assert strip_wall_time(texts[0]) == strip_wall_time(texts[1])


def test_solve_negdef_campaign(tmp_path):
    cfg_obj = {
        "version": 1, "campaign": "nd", "solver": "negdef", "seed": 3,
        "sweep": {"T": [1.0], "eps": [1e-4]},
        "problems": [{"id": "r0", "type": "ode", "family": "random-negdef",
                      "N": 2, "delta": 0.5}],
    }
    cfg = write_config(tmp_path, cfg_obj)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
    text = (tmp_path / "nd.csv").read_text(encoding="utf-8")
    row = text.strip().split("\n")[1].split(",")
    assert float(row[CSV_COLUMNS.index("error_vs_reference")]) <= 1e-4
    assert int(row[CSV_COLUMNS.index("q_U_A")]) > 0


def test_solve_other_solver_paths(tmp_path):
    campaigns = [
        {"version": 1, "campaign": "sq", "solver": "sqrt", "seed": 2,
         "sweep": {"T": [1.0], "eps": [1e-4]},
         "problems": [{"id": "s", "type": "ode", "family": "random-sqrt",
                       "N": 2}]},
        {"version": 1, "campaign": "td", "solver": "eigen-td", "seed": 3,
         "sweep": {"T": [0.5], "eps": [1e-3], "M": [20000]},
         "problems": [{"id": "t", "type": "ode", "family": "random-normal",
                       "N": 4}]},
    ]
    for cfg_obj in campaigns:
        cfg = write_config(tmp_path, cfg_obj, name=f"{cfg_obj['campaign']}.json")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) \
            == EXIT_OK
        text = (tmp_path / f"{cfg_obj['campaign']}.csv").read_text("utf-8")
        row = text.strip().split("\n")[1].split(",")
        err = float(row[CSV_COLUMNS.index("error_vs_reference")])
        assert err <= float(cfg_obj["sweep"].get("eps", [1e-6])[0])


def test_solve_reads_pde_coefficient_keys(tmp_path):
    # a/a_prime of advection-diffusion and m of Klein-Gordon reach the spec
    problems = [
        {"id": "advdiff", "type": "pde", "kind": "advection-diffusion",
         "d": 2, "n": 8, "a": [0.5, 0.25], "a_prime": [1.0, -0.5]},
        {"id": "kg", "type": "pde", "kind": "klein-gordon", "d": 1, "n": 8,
         "m": 2.0, "u0": {"name": "cos"}, "w0": {"name": "sin"}},
    ]
    advdiff = ffode.cli._build_pde_spec(problems[0], None, None, 0.5)
    assert advdiff.a.tolist() == [0.5, 0.25]
    assert advdiff.a_prime.tolist() == [1.0, -0.5]
    assert ffode.cli._build_pde_spec(problems[1], None, None, 0.5).mass == 2.0
    cfg_obj = {"version": 1, "campaign": "coeffs", "solver": "eigen",
               "seed": 1, "sweep": {"T": [0.5], "eps": [1e-6]},
               "problems": problems}
    cfg = write_config(tmp_path, cfg_obj)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "coeffs.csv").read_text("utf-8").strip().split("\n")
    assert len(lines) == 1 + len(problems)
    for line in lines[1:]:
        row = line.split(",")
        assert float(row[CSV_COLUMNS.index("error_vs_reference")]) <= 1e-6


def test_eigen_td_takes_the_riemann_path_for_every_constant_source():
    # a constant b under eigen-td: the Riemann sum (one O_bt query), on a
    # PDE as on an ODE, not the constant-source circuit (one O_b query)
    rows = run_campaign({
        "version": 1, "campaign": "td-const", "solver": "eigen-td", "seed": 0,
        "sweep": {"T": [1.0], "eps": [1e-3]},
        "problems": [
            {"id": "heat-const", "type": "pde", "kind": "heat", "d": 1,
             "n": 4, "b": {"name": "constant"}},
            {"id": "normal-b", "type": "ode", "family": "random-normal",
             "N": 4},
        ]})
    for row in rows:
        assert (row["q_O_bt"], row["q_O_b"]) == (1, 0), row["problem_id"]
        assert row["error_vs_reference"] <= 1e-3


def test_solve_tolerance_gate(tmp_path):
    cfg_obj = {
        "version": 1, "campaign": "tg", "solver": "eigen-td", "seed": 4,
        "sweep": {"T": [1.0], "eps": [0.5], "M": [50]},  # coarse quadrature
        "problems": [{"id": "t", "type": "ode", "family": "random-normal",
                      "N": 4}],
    }
    cfg = write_config(tmp_path, cfg_obj)
    # an unreachable tolerance turns the run into a numeric failure (exit 4)
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path),
               "--tolerance", "1e-14"])
    assert rc == 4


def test_solve_parallel_jobs_deterministic(tmp_path):
    cfg_obj = {
        "version": 1, "campaign": "par", "solver": "eigen", "seed": 6,
        "sweep": {"T": [0.1, 0.3, 0.9]},
        "problems": [
            {"id": "a", "type": "ode", "family": "random-normal", "N": 4},
            {"id": "b", "type": "pde", "kind": "transport", "n": 8,
             "a_prime": [1.0], "u0": {"name": "one-plus-cos"}},
        ],
    }
    texts = []
    for run, jobs in (("serial", 1), ("parallel", 3)):
        out_dir = tmp_path / run
        cfg = write_config(tmp_path, cfg_obj, name=f"{run}.json")
        assert main(["solve", "--config", cfg, "--out", str(out_dir),
                     "--jobs", str(jobs)]) == EXIT_OK
        texts.append((out_dir / "par.csv").read_text(encoding="utf-8"))
    assert strip_wall_time(texts[0]) == strip_wall_time(texts[1])


def test_sweep_validates_each_pde_operator_once(monkeypatch):
    # a T×ε sweep builds a new PdeSpec per point, but the eigensystem depends
    # only on the operator: one axis probe per problem, serial or threaded,
    # and the rows of a run that measures every point afresh.  The probe is
    # slowed down so that threads on one operator miss its entry together.
    import time
    import ffode.pde as pde
    cfg = {
        "version": 1, "campaign": "sweep", "solver": "eigen", "seed": 3,
        "sweep": {"T": [0.05, 0.2, 1.0], "eps": [1e-6, 1e-9]},
        "problems": [
            {"id": "heat", "type": "pde", "kind": "heat", "d": 2, "n": 8,
             "u0": {"name": "gaussian-bump", "width": 0.2}},
            {"id": "wave", "type": "pde", "kind": "wave", "d": 2, "n": 8,
             "u0": {"name": "constant"}, "w0": {"name": "sin"}}],
    }
    probes = []
    probe = pde._probe_axes
    monkeypatch.setattr(pde, "_probe_axes",
                        lambda *args: probes.append(args[0].kind)
                        or time.sleep(0.05) or probe(*args))

    def rows(jobs):
        pde._MEMO.clear()
        probes.clear()
        return [{k: v for k, v in row.items() if k != "wall_time_ms"}
                for row in run_campaign(cfg, jobs=jobs)]
    serial = rows(1)
    assert sorted(probes) == ["heat", "wave"]
    for jobs in (2, 3):
        assert rows(jobs) == serial
        assert sorted(probes) == ["heat", "wave"], jobs
    run_point = ffode.cli._run_point

    def measured_afresh(*args):
        pde._MEMO.clear()
        return run_point(*args)
    monkeypatch.setattr(ffode.cli, "_run_point", measured_afresh)
    assert rows(1) == serial


def test_lb_families(capsys):
    assert main(["lb", "--family", "realpart-gap", "--eps", "0.01"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert main(["lb", "--family", "nonnormal-homo", "--delta", "0.5"]) \
        == EXIT_OK
    out = capsys.readouterr().out
    assert "perturbed_trace_distance_floor" in out
    assert main(["lb", "--family", "linear-system", "--kappa", "10"]) == EXIT_OK
    assert main(["lb", "--family", "amplifier", "--eps", "0.01",
                 "--trials", "5"]) == EXIT_OK
    capsys.readouterr()


def test_lb_bad_params(capsys):
    assert main(["lb", "--family", "nonnormal-homo", "--delta", "2.0"]) \
        == EXIT_SCHEMA
    assert main(["lb", "--family", "realpart-gap", "--eps", "1.5"]) \
        == EXIT_SCHEMA
    capsys.readouterr()


@pytest.mark.parametrize("args, code", [
    *(([family], EXIT_OK) for family in LB_FAMILIES),
    *(([family, f"--{name}", value], EXIT_SCHEMA)
      for family, name in (("realpart-gap", "eps"),
                           ("realpart-gap-inhomo", "eps"),
                           ("amplifier", "eps"),
                           ("nonnormal-homo", "delta"),
                           ("nonnormal-inhomo", "delta"))
      for value in ("0", "1")),
    (["linear-system", "--kappa", "1"], EXIT_SCHEMA),
    (["imaginary-time", "--eps", "1", "--kappa", "1"], EXIT_OK),  # unread
    (["linear-system", "--kappa", "inf"], EXIT_SCHEMA),
    *(([family, "--dim", dim], EXIT_SCHEMA)
      for family in LB_FAMILIES if "dim" in LB_TABLE[family].checked
      for dim in ("0", "1")),
    *(([family, "--T", T], EXIT_SCHEMA)
      for family in ("imaginary-time", "shifting")
      for T in ("-1", "0", "inf", "nan")),
    (["shifting", "--shift", "nan"], EXIT_SCHEMA),
    (["amplifier", "--trials", "0"], EXIT_SCHEMA),
    (["nonnormal-homo", "--dim", "0", "--T", "-1"], EXIT_OK),  # unread
])
def test_lb_every_family_at_defaults_and_out_of_range(args, code, capsys):
    assert main(["lb", "--family", *args]) == code
    out, err = capsys.readouterr()
    if code == EXIT_OK:
        assert out.startswith("PASS") and "FAIL" not in out
    else:
        assert out == "" and err.startswith("error:")


def test_degree_scan_csv(tmp_path, capsys):
    rc = main(["degree-scan", "--target", "gaussian",
               "--grid", "16,64,256,1024", "--eps", "1e-5",
               "--out", str(tmp_path)])
    assert rc == EXIT_OK
    capsys.readouterr()
    text = (tmp_path / "degree_scan_gaussian.csv").read_text(encoding="utf-8")
    lines = text.strip().split("\n")
    assert lines[0] == "param,degree"
    assert lines[-1].startswith("fitted_exponent,")
    exponent = float(lines[-1].split(",")[1])
    assert 0.40 <= exponent <= 0.65
    degrees = [int(l.split(",")[1]) for l in lines[1:-1]]
    assert degrees == sorted(degrees)


def test_degree_scan_needs_four_points(capsys):
    assert main(["degree-scan", "--target", "gaussian",
                 "--grid", "16,64"]) == EXIT_SCHEMA
    capsys.readouterr()


@pytest.mark.parametrize("target, grid", [
    ("gaussian", "16,64,abc,256"),
    ("cosine", "16,64,256,1024"),
    ("gaussian", "16,256,4096,inf"),
    ("gaussian", "16,256,4096,nan"),
])
def test_degree_scan_bad_input_is_a_schema_error(capsys, target, grid):
    assert main(["degree-scan", "--target", target, "--grid", grid]) \
        == EXIT_SCHEMA
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


def test_selftest_uses_a_zero_tolerance_as_given(capsys):
    assert main(["selftest", "--tolerance", "0"]) == EXIT_FAIL
    out = capsys.readouterr().out
    assert "<= 0.0" in out and "<= 1e-09" not in out


def test_selftest_transport_reports_a_unit_probability():
    # transport is unitary, so p is 1 up to rounding (0.99999999999999956
    # before the snap) and one run suffices
    rows = [row for row in run_campaign(SELFTEST_CONFIG)
            if row["problem_id"] == "transport-1d"]
    assert len(rows) == 3
    for row in rows:
        assert row["success_prob"] == 1.0
        assert (row["repeats_noAA"], row["repeats_AA"]) == (1, 2)


def _counted(f, calls):
    def wrapper(*args):
        calls.append(args)
        return f(*args)
    return wrapper


SAMPLERS_U = [{"name": "one-plus-cos", "k": 2.0}, {"name": "cos"},
              {"name": "sin"}, {"name": "gaussian-bump", "width": 0.2},
              {"name": "constant", "value": 0.5}]
SAMPLERS_B = [{"name": "constant", "value": 0.5},
              {"name": "cos-drive", "k": 2.0, "omega": 3.0},
              {"name": "spatial", "profile": {"name": "gaussian-bump"}}]


@pytest.mark.parametrize("field", ["u0", "w0"])
@pytest.mark.parametrize("sampler", SAMPLERS_U, ids=lambda s: s["name"])
def test_named_field_sampler_is_called_once_per_field(field, sampler):
    calls = []
    f = _sampler_u(sampler)
    spec = PdeSpec("heat", 2, 4, 1.0, **{"u0": f, field: _counted(f, calls)})
    got = getattr(spec, f"{field}_vector")()
    assert len(calls) == 1
    want = [f(x) for x in spec.grid()]
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("derivative", [False, True])
@pytest.mark.parametrize("sampler", SAMPLERS_B, ids=lambda s: s["name"])
def test_named_source_sampler_is_called_once_per_field(derivative, sampler):
    calls = []
    f = _sampler_b(sampler)[derivative]
    field = "b_dt" if derivative else "b"
    spec = PdeSpec("heat", 2, 4, 1.0, u0=_sampler_u({"name": "cos"}),
                   **{field: _counted(f, calls)})
    times = (0.3, 0.7)
    got = getattr(spec, f"{field}_vector")(np.array(times).reshape(-1, 1))
    assert len(calls) == 1
    want = [[f(x, t) for x in spec.grid()] for t in times]
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15)


def test_selftest_deterministic(tmp_path, capsys):
    texts = []
    for run in ("x", "y"):
        out_dir = tmp_path / run
        os.makedirs(out_dir, exist_ok=True)
        assert main(["selftest", "--out", str(out_dir), "--seed", "7"]) \
            == EXIT_OK
        texts.append((out_dir / "selftest.csv").read_text(encoding="utf-8"))
    capsys.readouterr()
    assert strip_wall_time(texts[0]) == strip_wall_time(texts[1])


UNREAD_AXES = {
    # a PDE problem picks its own Riemann node count
    "M-pde": ("eigen-td", {"M": [10, 100000]},
              {"id": "h", "type": "pde", "kind": "heat", "n": 4,
               "u0": {"name": "one-plus-cos"},
               "b": {"name": "cos-drive"}}),
    # only eigen-td reads M
    "M-ode-eigen": ("eigen", {"M": [10, 20]},
                    {"id": "r", "type": "ode", "family": "random-normal",
                     "N": 4}),
    # ODE sizes come from N, not from the PDE grid axes
    "n-ode": ("eigen", {"n": [4, 8]},
              {"id": "r", "type": "ode", "family": "random-normal", "N": 4}),
    "d-ode": ("eigen", {"d": [1, 2]},
              {"id": "r", "type": "ode", "family": "random-normal", "N": 4}),
}


@pytest.mark.parametrize("case", list(UNREAD_AXES))
def test_unread_sweep_axis_is_a_mismatch(tmp_path, capsys, case):
    solver, sweep, problem = UNREAD_AXES[case]
    cfg_obj = {"version": 1, "campaign": "unread", "solver": solver,
               "seed": 0, "sweep": dict(sweep, T=[0.5]),
               "problems": [problem]}
    cfg = write_config(tmp_path, cfg_obj)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) \
        == EXIT_MISMATCH
    axis = next(iter(sweep))
    assert f"sweep axis '{axis}'" in capsys.readouterr().err
    assert not (tmp_path / "unread.csv").exists()


def test_print_certified_judges_equalities_both_ways(capsys):
    pair = WitnessPair("demo", np.eye(1), np.ones(1), np.ones(1), 1.0)
    pair.certified = {"above": (1.0 + 1e-6, 1.0, "=="),
                      "equal": (1.0, 1.0, "=="),
                      "below": (1.0 - 1e-6, 1.0, "==")}
    assert _print_certified(pair) == 2
    out = capsys.readouterr().out
    assert "FAIL demo.above" in out and "FAIL demo.below" in out
    assert "PASS demo.equal" in out
