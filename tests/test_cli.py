"""CLI tests: subcommand outputs, JSON round-trips, figure data, exit codes,
and byte-determinism of repeated runs."""

import contextlib
import io
import itertools
import json
import re
import subprocess
import sys
import tracemalloc
import warnings

import pytest

from coarse_bounds.cli import run
from coarse_bounds.serde import act_from_record, format_number

ACT_RECORD = {
    "states": ["a", "b", "c", "d"],
    "values": [1.0, 2.0, 3.0, 4.0],
    "masses": [0.25, 0.25, 0.25, 0.25],
}

# A small valid fixture of the learn subcommand.
LEARN_FIXTURE = dict(ACT_RECORD, gamma=1.0, k=1e-5, K=50, B=100, seed=3)

# Smallest valid fixtures of the application subcommands.
APP_FIXTURES = {
    "insurance": {
        "contract": {"premium": 0.05, "deductible": 0.3, "coverage": 0.75, "wealth": 2.0},
        "grid": {"max_loss": 1.0, "n": 20},
    },
    "portfolio": {
        "endowment": 1.0, "safe_return": 1.02, "beta": 1 / 1.02,
        "risky_returns": [0.8, 1.1, 1.4], "risky_masses": [0.3, 0.4, 0.3],
    },
    "contract": {
        "outputs": [0.5, 0.75, 1.0], "effort_costs": {"low": 0.0, "high": 0.3},
        "output_masses": [[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]],
        "wage_grid": [0.1, 0.2, 0.3, 0.4], "schedule": [0.1, 0.2, 0.4],
    },
}
FIXTURES = dict(APP_FIXTURES, learn=LEARN_FIXTURE)

# The README learn fixture at a small sample size, and the values the
# exit-code generator puts in each field and list item of a fixture.
LEARN_README = {
    "states": [0, 1, 2, 3], "values": [1.0, 1.04, 1.07, 1.11],
    "masses": [0.3, 0.3, 0.2, 0.2], "gamma": 1.0, "k": 1e-5, "K": 20, "B": 40, "seed": 11,
}
MUTANTS = (float("nan"), float("inf"), float("-inf"), -1, 0, -0.0, 1e-300, 1e300, 20.0, 3,
           True, None, "x", [], [1.0], {})

# The README insurance fixture (plan.json); the README contract fixture is
# APP_FIXTURES["contract"].
INSURANCE_README = {
    "contract": {"premium": 0.05, "deductible": 0.3, "coverage": 0.75, "wealth": 2.0},
    "grid": {"max_loss": 1.0, "n": 200, "tilt": 1.5}, "gamma": 2.0, "target_deductible": 0.15,
}

# The README portfolio fixture and a 40-return one, with the stdout of
# ``portfolio --N 1..6`` for each attitude, captured before the share grid
# was valued in batches.
PORTFOLIO_PINS = {
    "readme": {
        "endowment": 1.0, "safe_return": 1.02, "beta": 0.9803921568627451,
        "risky_returns": [0.8, 0.95, 1.1, 1.25, 1.4],
        "risky_masses": [0.2, 0.25, 0.25, 0.2, 0.1], "gamma": 2.0, "savings": 0.5,
    },
    "forty-returns": {
        "endowment": 1.0, "safe_return": 1.02, "beta": 0.95,
        "risky_returns": [round(0.7 + 0.025 * i, 3) for i in range(40)],
        "risky_masses": [(i % 7 + 1) / 155 for i in range(40)], "gamma": 3.0, "savings": 0.6,
    },
}
PORTFOLIO_STDOUT = {
    ("readme", "cautious"): (
        "N,attitude,risky_share,price\n"
        "1,cautious,0,0.784313630777201\n"
        "2,cautious,0,0.946078362176195\n"
        "3,cautious,0,0.990196002770544\n"
        "4,cautious,0.503631922743682,1.02696070041252\n"
        "5,cautious,0.634884078888422,1.04166658061063\n"
        "6,cautious,0.634884078888422,1.04166658061063\n"
    ),
    ("readme", "reckless"): (
        "N,attitude,risky_share,price\n"
        "1,reckless,1,1.37254895069454\n"
        "2,reckless,1,1.16666661365432\n"
        "3,reckless,1,1.10049009997644\n"
        "4,reckless,0.819442612136681,1.07107833815355\n"
        "5,reckless,0.634884078888422,1.04166658061063\n"
        "6,reckless,0.634884078888422,1.04166658061063\n"
    ),
    ("forty-returns", "cautious"): (
        "N,attitude,risky_share,price\n"
        "1,cautious,0,0.66499994656624\n"
        "2,cautious,0,0.910467686626362\n"
        "3,cautious,0.1389332087415,0.993056388542755\n"
        "4,cautious,0.322502178984133,1.03427412097517\n"
        "5,cautious,0.480579300273696,1.06032250645512\n"
        "6,cautious,0.578413928419109,1.07610476428817\n"
    ),
    ("forty-returns", "reckless"): (
        "N,attitude,risky_share,price\n"
        "1,reckless,1,1.59124991245335\n"
        "2,reckless,1,1.34670154700871\n"
        "3,reckless,1,1.26518538003438\n"
        "4,reckless,1,1.23515312567179\n"
        "5,reckless,1,1.20512087269162\n"
        "6,reckless,1,1.18366926144517\n"
    ),
}


@pytest.fixture
def act_file(tmp_path):
    path = tmp_path / "act.json"
    path.write_text(json.dumps(ACT_RECORD))
    return str(path)


def act_to_record(act, belief) -> dict:
    return {
        "states": list(act.state_ids),
        "values": list(act.values),
        "masses": list(belief.masses),
    }


def fixture_slots(value, path=()) -> list:
    """The path, as a tuple of keys and list indices, of every field, list
    item, nested field and matrix entry of a fixture: the places the
    exit-code generator mutates."""
    if isinstance(value, dict):
        children = value.items()
    else:
        children = enumerate(value) if isinstance(value, list) else ()
    slots = [path] if path else []
    for key, child in children:
        slots += fixture_slots(child, (*path, key))
    return slots


def invoke(args, capsys):
    code = run(args)
    out = capsys.readouterr().out
    return code, out


class TestRoundTrip:
    def test_parse_serialize_parse_fixpoint(self):
        act, belief = act_from_record(ACT_RECORD)
        record = act_to_record(act, belief)
        act2, belief2 = act_from_record(record)
        assert act2.values == act.values
        assert belief2.masses == belief.masses
        assert act_to_record(act2, belief2) == record

    def test_number_format(self):
        assert format_number(2.5) == "2.5"
        assert format_number(1 / 3) == "0.333333333333333"
        assert format_number(7) == "7"


class TestSubcommands:
    def test_bounds(self, act_file, capsys):
        code, out = invoke(["bounds", "--in", act_file, "--N", "2", "--kind", "lower"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 2.0
        assert payload["cutoffs"] == [2]
        assert payload["exact"] is False

    def test_bounds_range(self, act_file, capsys):
        code, out = invoke(["bounds", "--in", act_file, "--N", "1..3"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["1"]["value"] == 1.0
        assert payload["3"]["value"] == 2.25

    def test_compare(self, act_file, tmp_path, capsys):
        other = dict(ACT_RECORD, values=[4.0, 3.0, 2.0, 1.0])
        path2 = tmp_path / "act2.json"
        path2.write_text(json.dumps(other))
        code, out = invoke(["compare", "--in", act_file, "--in2", str(path2), "--N", "2"], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "incomparable"

    def test_perceive(self, act_file, capsys):
        code, out = invoke(["perceive", "--in", act_file, "--N", "2", "--attitude", "cautious"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["support"] == [1.0, 3.0]
        assert payload["masses"] == [0.5, 0.5]

    def test_sweep_capacity_csv(self, act_file, capsys):
        code, out = invoke(["sweep-capacity", "--in", act_file, "--N", "1..4"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "N,W,increment"
        assert lines[1] == "1,1,"
        assert lines[2] == "2,2,1"

    def test_statics(self, act_file, capsys):
        code, out = invoke(["statics", "--in", act_file, "--N", "2"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["sandwich"] and report["mlr_cutoff_monotone"]

    def test_statics_verdicts_do_not_move_with_scale(self, tmp_path, capsys):
        # at 2^20 the last two increments, equal in real arithmetic, differ
        # by 3e-11, which an absolute slack of 1e-12 took for convexity
        path = tmp_path / "act.json"
        path.write_text(json.dumps({
            "states": list("abcde"), "values": [2 ** 20 * 0.1 * k for k in range(5)],
            "masses": [0.2] * 5,
        }))
        code, out = invoke(["statics", "--in", str(path), "--N", "5"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["profile_values"][2:] == [167772.16, 188743.68, 209715.2]
        assert report["profile_monotone"] and report["profile_concave"]

    def test_statics_tilt_stays_finite_on_long_ladders(self, tmp_path):
        # exp(0.8 * k) overflows from 889 levels on; a fresh process shows
        # that no numpy warning reaches stderr
        size = 900
        path = tmp_path / "act.json"
        path.write_text(json.dumps({
            "states": list(range(size)), "values": [0.5 * k for k in range(size)],
            "masses": [1 / size] * size,
        }))
        res = subprocess.run(
            [sys.executable, "-m", "coarse_bounds", "statics", "--in", str(path), "--N", "2"],
            capture_output=True, text=True,
        )
        assert (res.returncode, res.stderr) == (0, "")
        assert json.loads(res.stdout)["mlr_cutoff_monotone"]

    def test_learn(self, tmp_path, capsys):
        fixture = {
            "states": [0, 1, 2], "values": [1.0, 1.05, 1.12],
            "masses": [0.4, 0.3, 0.3],
            "gamma": 1.0, "k": 1e-5, "K": 100, "B": 400, "seed": 3,
        }
        path = tmp_path / "learn.json"
        path.write_text(json.dumps(fixture))
        qpath = tmp_path / "q.csv"
        code, out = invoke(
            ["learn", "--in", str(path), "--quantiles-out", str(qpath)], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["has_certain_equivalent"] is True
        assert abs(report["error_mean"]) < 1e-12
        assert qpath.read_text().startswith("quantile,error")

    def test_insurance_values_and_figures(self, tmp_path, capsys):
        fixture = {
            "contract": {"premium": 0.05, "deductible": 0.3, "coverage": 1.0, "wealth": 2.0},
            "grid": {"max_loss": 1.0, "n": 60}, "gamma": 2.0,
            "target_deductible": 0.1,
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(fixture))
        code, out = invoke(["insurance", "--in", str(path), "--N", "2..4"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "N,attitude,value"
        assert len(lines) == 4
        code, fig = invoke(
            ["insurance", "--in", str(path), "--N", "3", "--figure", "siminf_overlay"], capsys
        )
        assert code == 0
        header, *rows = fig.strip().splitlines()
        assert header == "loss,plan_wealth,siminf_value"
        # the lower-bound overlay never exceeds the plan wealth
        for row in rows:
            _, wealth, bound_v = (float(x) for x in row.split(","))
            assert bound_v <= wealth + 1e-12

    def test_insurance_dominated_pair_figure(self, tmp_path, capsys):
        fixture = {
            "contract": {"premium": 0.05, "deductible": 0.35, "coverage": 0.6, "wealth": 2.0},
            "grid": {"max_loss": 1.0, "n": 60, "tilt": 3.0}, "gamma": 2.0,
            "target_deductible": 0.15,
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(fixture))
        code, fig = invoke(
            ["insurance", "--in", str(path), "--N", "3", "--figure", "dominated_pair"], capsys
        )
        assert code == 0
        header, *rows = fig.strip().splitlines()
        assert header == "loss,plan_wealth,siminf_value,second_plan_wealth"
        for row in rows:
            _, wealth, bound_v, second = (float(x) for x in row.split(","))
            assert bound_v <= min(wealth, second) + 1e-12

    def test_portfolio(self, tmp_path, capsys):
        fixture = {
            "endowment": 1.0, "safe_return": 1.02, "beta": 1 / 1.02,
            "risky_returns": [0.8, 0.95, 1.1, 1.25, 1.4],
            "risky_masses": [0.2, 0.25, 0.25, 0.2, 0.1],
            "gamma": 2.0, "savings": 0.5,
        }
        path = tmp_path / "pf.json"
        path.write_text(json.dumps(fixture))
        code, out = invoke(["portfolio", "--in", str(path), "--N", "1..3"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "N,attitude,risky_share,price"
        prices = [float(l.split(",")[3]) for l in lines[1:]]
        assert prices == sorted(prices)

    @pytest.mark.parametrize("fixture", sorted(PORTFOLIO_PINS))
    @pytest.mark.parametrize("attitude", ["cautious", "reckless"])
    def test_portfolio_pinned_output(self, fixture, attitude, tmp_path, capsys):
        path = tmp_path / "pf.json"
        path.write_text(json.dumps(PORTFOLIO_PINS[fixture]))
        args = ["portfolio", "--in", str(path), "--N", "1..6", "--attitude", attitude]
        assert invoke(args, capsys) == (0, PORTFOLIO_STDOUT[fixture, attitude])

    def test_contract(self, tmp_path, capsys):
        n = 12
        fixture = {
            "outputs": [0.5 + 0.25 * i for i in range(n)],
            "effort_costs": {"low": 0.0, "high": 0.3},
            "output_masses": [
                [1.0 / n] * n,
                [(i + 1) / (n * (n + 1) / 2) for i in range(n)],
            ],
            "wage_grid": [0.1 + 0.1 * i for i in range(25)],
            "schedule": [0.2 + 0.15 * i for i in range(n)],
        }
        path = tmp_path / "contract.json"
        path.write_text(json.dumps(fixture))
        code, out = invoke(["contract", "--in", str(path), "--N", "3"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["effort_unchanged"] is True
        assert report["distinct_wages"] <= 3


class TestExitCodes:
    def test_missing_file(self, capsys):
        assert run(["bounds", "--in", "/nonexistent.json", "--N", "2"]) == 1

    def test_bad_capacity(self, act_file, capsys):
        assert run(["bounds", "--in", act_file, "--N", "0"]) == 1

    def test_unknown_subcommand_usage(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_no_subcommand(self, capsys):
        assert run([]) == 1

    @pytest.mark.parametrize("command", [
        "bounds", "compare", "perceive", "sweep-capacity", "statics",
        "insurance", "portfolio", "contract",
    ])
    def test_reversed_capacity_range(self, command, act_file, tmp_path, capsys):
        infile, extra = act_file, []
        if command == "compare":
            extra = ["--in2", act_file]
        elif command in APP_FIXTURES:
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps(APP_FIXTURES[command]))
            infile = str(path)
        assert run([command, "--in", infile, "--N", "3..1", *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: capacity range 3..1 is empty\n"

    @pytest.mark.parametrize("command, extra", [
        ("compare", ["--in2", "ACT"]),
        ("perceive", []),
        ("statics", []),
        ("contract", []),
        ("insurance", ["--dominated", "0.15"]),
        ("insurance", ["--figure", "siminf_overlay"]),
    ], ids=["compare", "perceive", "statics", "contract", "insurance-dominated",
            "insurance-figure"])
    def test_one_capacity_commands_reject_a_range(self, command, extra, act_file, tmp_path,
                                                  capsys):
        infile = act_file
        if command in APP_FIXTURES:
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps(APP_FIXTURES[command]))
            infile = str(path)
        extra = [act_file if arg == "ACT" else arg for arg in extra]
        assert run([command, "--in", infile, "--N", "2..3", *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: this command takes one capacity, not the range 2..3\n"

    def test_sweep_capacity_range_starts_at_one(self, act_file, capsys):
        assert run(["sweep-capacity", "--in", act_file, "--N", "3..4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: sweep-capacity profiles capacities 1..N; a range must start at 1, got 3..4\n"
        )
        # a single value is the largest capacity of the profile
        code, out = invoke(["sweep-capacity", "--in", act_file, "--N", "3"], capsys)
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()] == ["N", "1", "2", "3"]

    def test_nan_max_loss(self, tmp_path, capsys):
        # Python's json reads NaN; the loss grid rejects it before any plan is valued
        path = tmp_path / "insurance.json"
        path.write_text(json.dumps(dict(APP_FIXTURES["insurance"], grid={"max_loss": float("nan")})))
        assert run(["insurance", "--in", str(path), "--N", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: loss grid max_loss must be positive and finite, got nan\n"

    def test_values_not_a_list(self, tmp_path, capsys):
        path = tmp_path / "act.json"
        path.write_text(json.dumps(dict(ACT_RECORD, values=5)))
        assert run(["bounds", "--in", str(path), "--N", "2"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("record", [
        [1, 2],
        dict(ACT_RECORD, values=[1.0, None, 3.0, 4.0]),
        dict(ACT_RECORD, values=[True, 2.0, 3.0, 4.0]),
        dict(ACT_RECORD, masses=[0.25, 0.25, 0.25, "0.25"]),
    ], ids=["not-an-object", "null-value", "boolean-value", "string-mass"])
    def test_malformed_act_record(self, record, tmp_path, capsys):
        path = tmp_path / "act.json"
        path.write_text(json.dumps(record))
        assert run(["bounds", "--in", str(path), "--N", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("n", [0, -3, True])
    def test_empty_insurance_grid(self, n, tmp_path, capsys):
        path = tmp_path / "insurance.json"
        path.write_text(json.dumps(dict(APP_FIXTURES["insurance"], grid={"n": n})))
        assert run(["insurance", "--in", str(path), "--N", "2"]) == 1
        assert capsys.readouterr().err == (
            f"error: loss grid size n must be a positive integer, got {n}\n"
        )

    def test_zero_grid_option(self, tmp_path, capsys):
        # --grid 0 overrides the fixture's grid like any other size
        path = tmp_path / "insurance.json"
        path.write_text(json.dumps(APP_FIXTURES["insurance"]))
        assert run(["insurance", "--in", str(path), "--N", "2", "--grid", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: loss grid size n must be a positive integer, got 0\n"

    @pytest.mark.parametrize("extra", [[], ["--dominated", "0.1"], ["--figure", "siminf_overlay"]],
                             ids=["values", "dominated", "figure"])
    def test_premium_above_wealth_is_a_numerical_failure(self, extra, tmp_path, capsys):
        # the plan leaves wealth below zero, where CRRA utility is undefined
        contract = dict(APP_FIXTURES["insurance"]["contract"], premium=2.5)
        path = tmp_path / "insurance.json"
        path.write_text(json.dumps(dict(APP_FIXTURES["insurance"], contract=contract)))
        assert run(["insurance", "--in", str(path), "--N", "2", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical failure: CRRA utility needs positive wealth, got -0.525\n"

    def test_overflowing_portfolio_utility_is_a_numerical_failure(self, tmp_path):
        # at savings 1e-200 the wealth^-2 of gamma = 3 overflows the CRRA power;
        # a fresh process shows that no numpy warning reaches stderr
        path = tmp_path / "pf.json"
        path.write_text(json.dumps(dict(PORTFOLIO_PINS["readme"], savings=1e-200, gamma=3.0)))
        res = subprocess.run(
            [sys.executable, "-m", "coarse_bounds", "portfolio", "--in", str(path), "--N", "2"],
            capture_output=True, text=True,
        )
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr == (
            "numerical failure: CRRA utility with gamma=3.0 overflows at wealth 1.02e-200\n"
        )

    def test_dominated_negative_tol(self, tmp_path, capsys):
        path = tmp_path / "insurance.json"
        path.write_text(json.dumps(APP_FIXTURES["insurance"]))
        args = ["insurance", "--in", str(path), "--N", "2", "--dominated", "0.1", "--tol", "-1"]
        assert run(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: tol must be a non-negative finite number, got -1.0\n"

    @pytest.mark.parametrize("command, fixture", [
        ("insurance", [1, 2]),
        ("portfolio", [1, 2]),
        ("contract", [1, 2]),
        ("learn", [1, 2]),
        ("insurance", dict(APP_FIXTURES["insurance"], contract=[0.05, 0.3])),
        ("insurance", dict(APP_FIXTURES["insurance"], grid=[["n", 20]])),
    ], ids=["insurance", "portfolio", "contract", "learn", "contract-record", "grid-record"])
    def test_fixture_not_an_object(self, command, fixture, tmp_path, capsys):
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(fixture))
        extra = [] if command == "learn" else ["--N", "2"]
        assert run([command, "--in", str(path), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("command, fixture, field", [
        ("insurance", dict(APP_FIXTURES["insurance"],
                           contract=dict(APP_FIXTURES["insurance"]["contract"], premium="x")),
         "premium"),
        ("portfolio", dict(APP_FIXTURES["portfolio"], savings="a"), "savings"),
        ("contract", dict(APP_FIXTURES["contract"], effort_costs=[1, 2]), "effort_costs"),
        ("learn", dict(LEARN_FIXTURE, gamma="g"), "gamma"),
        # JSON booleans are no numbers, and sizes and seeds are whole numbers
        ("learn", dict(LEARN_FIXTURE, K=True), "K"),
        ("learn", dict(LEARN_FIXTURE, B=2.9), "B"),
        ("learn", dict(LEARN_FIXTURE, seed=1.5), "seed"),
        ("learn", dict(LEARN_FIXTURE, K=float("inf")), "K"),
        ("insurance", dict(APP_FIXTURES["insurance"], gamma=True), "gamma"),
        ("portfolio", dict(APP_FIXTURES["portfolio"], risky_returns=[0.8, True, 1.4]),
         "risky_returns"),
        ("contract", dict(APP_FIXTURES["contract"], effort_costs={"low": False, "high": 0.3}),
         "effort_costs"),
    ], ids=["insurance-premium", "portfolio-savings", "contract-effort-costs", "learn-gamma",
            "learn-K-bool", "learn-B-fraction", "learn-seed-fraction", "learn-K-inf",
            "insurance-gamma-bool", "portfolio-return-bool", "contract-cost-bool"])
    def test_wrongly_typed_field(self, command, fixture, field, tmp_path, capsys):
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(fixture))
        extra = [] if command == "learn" else ["--N", "2"]
        assert run([command, "--in", str(path), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert repr(field) in captured.err

    def test_learn_takes_whole_floats(self, tmp_path, capsys):
        # JSON does not tell 50 from 50.0; a whole-valued size runs as the integer
        runs = []
        for number in (int, float):
            path = tmp_path / f"learn-{number.__name__}.json"
            path.write_text(json.dumps(dict(LEARN_FIXTURE, K=number(50), B=number(100),
                                            seed=number(3))))
            runs.append(invoke(["learn", "--in", str(path)], capsys))
        assert runs[0] == runs[1] and runs[0][0] == 0

    @pytest.mark.parametrize("command, fixture, message", [
        ("bounds", {"states": ["a", "b"], "values": [1.0, 2.0]}, "missing field 'masses'"),
        ("learn", {k: v for k, v in LEARN_FIXTURE.items() if k != "B"}, "missing field 'B'"),
        ("learn", {k: v for k, v in LEARN_FIXTURE.items() if k != "states"},
         "missing field 'states'"),
        # a field of a nested object is named with the object's key
        ("insurance", dict(APP_FIXTURES["insurance"], contract={"premium": 0.05}),
         "contract: missing field 'deductible'"),
        ("portfolio", {k: v for k, v in APP_FIXTURES["portfolio"].items() if k != "beta"},
         "missing field 'beta'"),
        ("contract", {k: v for k, v in APP_FIXTURES["contract"].items() if k != "schedule"},
         "missing field 'schedule'"),
    ], ids=["act-masses", "learn-B", "learn-states", "insurance-deductible", "portfolio-beta",
            "contract-schedule"])
    def test_missing_field(self, command, fixture, message, tmp_path, capsys):
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(fixture))
        extra = [] if command == "learn" else ["--N", "2"]
        assert run([command, "--in", str(path), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("text", ["1..2..3", "3..", "..3", "x", "", "2.5"])
    def test_malformed_capacity(self, text, act_file, capsys):
        assert run(["bounds", "--in", act_file, "--N", text]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --N takes an integer N or a range a..b, got {text!r}\n"
        )

    @pytest.mark.parametrize("text", ["1", "1..1"])
    def test_sweep_capacity_needs_two(self, text, act_file, capsys):
        assert run(["sweep-capacity", "--in", act_file, "--N", text]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: sweep-capacity takes --N as N >= 2 or 1..N, got {text}\n"
        )

    def test_learn_rejects_nan_gamma(self, tmp_path, capsys):
        # Python's json reads NaN, so the rule's own check has to catch it
        path = tmp_path / "learn.json"
        path.write_text(json.dumps(dict(ACT_RECORD, gamma=float("nan"), k=1e-5, K=50, B=100)))
        assert "NaN" in path.read_text()
        assert run(["learn", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: gamma must be positive\n"

    @pytest.mark.parametrize("savings", [float("inf"), float("nan")], ids=["inf", "nan"])
    def test_non_finite_savings(self, savings, tmp_path):
        # a fresh process shows that no numpy warning reaches stderr
        path = tmp_path / "pf.json"
        path.write_text(json.dumps(dict(APP_FIXTURES["portfolio"], savings=savings)))
        res = subprocess.run(
            [sys.executable, "-m", "coarse_bounds", "portfolio", "--in", str(path), "--N", "2"],
            capture_output=True, text=True,
        )
        assert (res.returncode, res.stdout) == (1, "")
        assert res.stderr == f"error: savings must be positive and finite, got {savings!r}\n"

    def test_infinite_endowment(self, tmp_path, capsys):
        path = tmp_path / "pf.json"
        path.write_text(json.dumps(dict(APP_FIXTURES["portfolio"], endowment=float("inf"))))
        assert run(["portfolio", "--in", str(path), "--N", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: endowment must be positive and finite, got inf\n"

    @pytest.mark.parametrize("field, value", [
        ("premium", float("inf")), ("wealth", float("inf")), ("wealth", float("nan")),
    ], ids=["premium-inf", "wealth-inf", "wealth-nan"])
    def test_non_finite_plan_terms(self, field, value, tmp_path, capsys):
        contract = dict(APP_FIXTURES["insurance"]["contract"], **{field: value})
        path = tmp_path / "insurance.json"
        path.write_text(json.dumps(dict(APP_FIXTURES["insurance"], contract=contract)))
        assert run(["insurance", "--in", str(path), "--N", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {field} must be finite, got {value!r}\n"

    @pytest.mark.parametrize("command, change, code, message", [
        ("portfolio", {"risky_returns": [0.8, float("nan"), 1.4]}, 1,
         "risky_returns must be finite, got nan"),
        ("portfolio", {"risky_returns": [0.8, 1.1, float("inf")]}, 1,
         "risky_returns must be finite, got inf"),
        ("portfolio", {"risky_masses": [1.0]}, 1,
         "risky_masses must match risky_returns: 1 masses vs 3 returns"),
        ("portfolio", {"gamma": float("inf")}, 1,
         "relative risk aversion must be non-negative and finite, got gamma=inf"),
        ("portfolio", {"gamma": 0.5, "savings": 1.5e308}, 2,
         "savings 1.5e+308 overflow the second-period wealth"),
        ("portfolio", {"gamma": 2.0, "savings": 1.3e308}, 2,
         "savings 1.3e+308 overflow the second-period wealth"),
        ("insurance", {"grid": {"max_loss": 1.0, "n": 20.5}}, 1,
         "'n' must be a whole number, got 20.5"),
        ("insurance", {"grid": {"max_loss": 1.0, "n": float("nan")}}, 1,
         "'n' must be a whole number, got nan"),
        ("insurance", {"grid": {"max_loss": 1.0, "n": 20, "tilt": float("inf")}}, 1,
         "loss tilt must be finite, got inf"),
        ("insurance", {"grid": {"max_loss": 1.0, "n": 20, "tilt": float("-inf")}}, 1,
         "loss tilt must be finite, got -inf"),
        ("insurance", {"grid": {"max_loss": 1.0, "n": 20, "tilt": float("nan")}}, 1,
         "loss tilt must be finite, got nan"),
        ("insurance", {"grid": {"max_loss": 1.0, "n": 20, "tilt": 1e300}}, 2,
         "loss tilt 1e+300 over losses up to 0.9750000000000001 takes the tilted weights "
         "out of range"),
        ("insurance", {"grid": {"max_loss": 1.0, "n": 20, "tilt": -1e300}}, 2,
         "loss tilt -1e+300 over losses up to 0.9750000000000001 takes the tilted weights "
         "out of range"),
        ("insurance", {"grid": {"max_loss": 1e300, "n": 20, "tilt": 1.5}}, 2,
         "loss tilt 1.5 over losses up to 9.75e+299 takes the tilted weights out of range"),
        ("insurance", {"grid": {"max_loss": 1.0, "n": 1e300}}, 1,
         "loss grid size n = 1e+300 exceeds the limit of 1000000"),
        ("insurance", {"grid": {"max_loss": 1.0, "n": -1e300}}, 1,
         "loss grid size n must be a positive integer, got -1e+300"),
        ("contract", {"effort_costs": {"low": 0.0, "high": float("nan")}}, 1,
         "the cost of 'high' in 'effort_costs' must be finite, got nan"),
        ("contract", {"schedule": [0.1, float("nan"), 0.4]}, 1,
         "schedule wages must be finite, got nan"),
        ("contract", {"schedule": [0.1, 0.2, float("inf")]}, 1,
         "schedule wages must be finite, got inf"),
        ("contract", {"outputs": [0.5, float("nan"), 1.0]}, 1, "outputs must be finite, got nan"),
        ("contract", {"wage_grid": [0.1, 0.2, float("nan"), 0.4]}, 1,
         "wage_grid must be finite, got nan"),
        ("contract", {"wage_grid": [0.1, 0.3, 0.2, 0.4]}, 1,
         "wage_grid must be strictly ascending"),
        ("contract", {"wage_grid": [0.4]}, 1, "wage_grid must hold at least two wages, got 1"),
        ("contract", {"effort_costs": {}}, 1, "'effort_costs' must name at least one effort"),
        ("contract", {"output_masses": [[0.5, 0.3, 0.2]]}, 1,
         "output_masses must hold one distribution per effort, got 1 for 2 efforts"),
        ("contract", {"output_masses": [[0.5, 0.3, 0.2], [0.5, 0.5]]}, 1,
         "output_masses must match outputs: 2 masses vs 3 outputs"),
        ("contract", {"output_masses": [[0.5, 0.3, 0.2], [0.2, -0.3, 0.5]]}, 1,
         "output_masses: belief masses must be finite and non-negative"),
        ("contract", {"output_masses": [[0.5, 0.3, 0.2], {}]}, 1,
         "an item of 'output_masses' has the wrong type (object)"),
        ("portfolio", {"beta": float("inf")}, 1, "beta must be non-negative and finite, got inf"),
        ("portfolio", {"endowment": 1e300}, 2, "endowment 1e+300 underflows the marginal utility"),
        ("portfolio", {"endowment": 1e-300}, 2, "endowment 1e-300 overflows the marginal utility"),
        ("portfolio", {"gamma": 1e300}, 2,
         "CRRA utility with gamma=1e+300 overflows at wealth 0.51"),
        # type errors name the JSON type, at the top level and inside a list
        ("portfolio", {"beta": {}}, 1, "'beta' has the wrong type (object)"),
        ("portfolio", {"beta": None}, 1, "'beta' has the wrong type (null)"),
        ("portfolio", {"risky_returns": [0.8, {}, 1.4]}, 1,
         "an item of 'risky_returns' has the wrong type (object)"),
        ("portfolio", {"risky_masses": "x"}, 1, "'risky_masses' has the wrong type (string)"),
        ("insurance", {"contract": {}}, 1, "contract: missing field 'premium'"),
        ("learn", {"seed": -1}, 1, "seed must be in [0, 2**128), got -1"),
        ("learn", {"seed": 1e40}, 1,
         "seed must be in [0, 2**128), got 10000000000000000303786028427003666890752"),
        ("learn", {"K": 0}, 1, "'K' must be at least 1, got 0"),
        ("learn", {"B": -0.0}, 1, "'B' must be at least 1, got -0.0"),
        ("learn", {"B": -1, "seed": -1}, 1, "seed must be in [0, 2**128), got -1"),
        ("learn", {"states": []}, 1, "'states' must hold at least one state id"),
        ("learn", {"states": ["a", [1.0], "c", "d"]}, 1,
         "'states' must not hold lists or objects as ids"),
        ("learn", {"masses": []}, 1, "'masses' must hold at least one mass"),
        ("learn", {"gamma": float("inf")}, 1, "gamma must be finite, got inf"),
    ], ids=["returns-nan", "returns-inf", "masses-misaligned", "gamma-inf", "savings-overflow",
            "savings-overflow-gamma-2", "grid-n-fraction", "grid-n-nan", "tilt-inf",
            "tilt-minus-inf", "tilt-nan", "tilt-overflow", "tilt-underflow", "tilt-loss-scale",
            "grid-n-huge", "grid-n-huge-negative", "effort-cost-nan",
            "schedule-nan", "schedule-inf", "outputs-nan", "wage-grid-nan",
            "wage-grid-descending", "wage-grid-one-wage", "effort-costs-empty",
            "output-masses-count", "output-masses-short-row", "output-masses-negative",
            "output-masses-row-object",
            "beta-inf", "endowment-underflow", "endowment-overflow", "gamma-overflow",
            "beta-object", "beta-null",
            "returns-item-object", "masses-string", "insurance-contract-empty",
            "learn-seed-negative",
            "learn-seed-huge", "learn-K-zero", "learn-B-minus-zero", "learn-seed-before-B",
            "learn-states-empty", "learn-states-unhashable", "learn-masses-empty",
            "learn-gamma-inf"])
    def test_rejected_fixture_field(self, command, change, code, message, tmp_path, capsys):
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(dict(FIXTURES[command], **change)))
        extra = [] if command == "learn" else ["--N", "2"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning fails the test
            assert run([command, "--in", str(path), *extra]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        prefix = "error" if code == 1 else "numerical failure"
        assert captured.err == f"{prefix}: {message}\n"

    def assert_exit_code_contract(self, argv, fixture, tmp_path):
        # every slot of the fixture, replaced in turn by every mutant: exit 0
        # with an empty stderr, or exit 1 or 2 with one line of the matching
        # kind, and never a traceback or a warning; an exit-1 line names the
        # innermost key of the mutated slot (the act's own checks call the
        # states "state ids")
        path = tmp_path / "fixture.json"
        for slot, mutant in itertools.product(fixture_slots(fixture), MUTANTS):
            mutated = json.loads(json.dumps(fixture))
            parent = mutated
            for key in slot[:-1]:
                parent = parent[key]
            parent[slot[-1]] = mutant
            path.write_text(json.dumps(mutated))
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = run([argv[0], "--in", str(path), *argv[1:]])
            assert caught == []
            text = err.getvalue()
            prefix = {0: None, 1: "error: ", 2: "numerical failure: "}[code]
            if prefix is None:
                assert text == ""
            else:
                assert text.startswith(prefix) and text.endswith("\n") and text.count("\n") == 1
            if code == 1:
                field = [key for key in slot if isinstance(key, str)][-1]
                names = rf"\b{field}\b|state ids" if field == "states" else rf"\b{field}\b"
                assert re.search(names, text), (slot, mutant, text)

    def test_learn_exit_code_contract(self, tmp_path):
        self.assert_exit_code_contract(["learn"], LEARN_README, tmp_path)

    def test_bounds_exit_code_contract(self, tmp_path):
        # the act-record commands read their act through serde.act_from_record
        self.assert_exit_code_contract(["bounds", "--N", "2"], ACT_RECORD, tmp_path)

    def test_portfolio_exit_code_contract(self, tmp_path):
        fixture = PORTFOLIO_PINS["readme"]
        self.assert_exit_code_contract(["portfolio", "--N", "2"], fixture, tmp_path)

    def test_insurance_exit_code_contract(self, tmp_path):
        self.assert_exit_code_contract(["insurance", "--N", "2"], INSURANCE_README, tmp_path)

    def test_contract_exit_code_contract(self, tmp_path):
        fixture = APP_FIXTURES["contract"]
        self.assert_exit_code_contract(["contract", "--N", "2"], fixture, tmp_path)

    def test_fixture_slots_reach_nested_fields_and_rows(self):
        slots = fixture_slots({"a": 1, "b": {"c": [2, 3]}, "d": [[4], 5]})
        assert slots == [("a",), ("b",), ("b", "c"), ("b", "c", 0), ("b", "c", 1),
                         ("d",), ("d", 0), ("d", 0, 0), ("d", 1)]

    def test_whole_valued_float_grid_size(self, tmp_path, capsys):
        outputs = []
        for n in (20, 20.0):
            path = tmp_path / "fixture.json"
            fixture = dict(APP_FIXTURES["insurance"], grid={"max_loss": 1.0, "n": n})
            path.write_text(json.dumps(fixture))
            assert run(["insurance", "--in", str(path), "--N", "2"]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].err == ""

    @pytest.mark.parametrize("command, fixture, extra, message", [
        ("learn", dict(LEARN_FIXTURE, K=8192, B=4097), [],
         "K * B = 33562624 resample indices exceed the limit of 33554432"),
        ("insurance", dict(APP_FIXTURES["insurance"], grid={"n": 10**6 + 1}), ["--N", "2"],
         "loss grid size n = 1000001 exceeds the limit of 1000000"),
        ("insurance", APP_FIXTURES["insurance"], ["--N", "2", "--grid", str(10**9)],
         "loss grid size n = 1000000000 exceeds the limit of 1000000"),
        ("insurance", dict(APP_FIXTURES["insurance"], grid={"n": 1e9}), ["--N", "2"],
         "loss grid size n = 1000000000 exceeds the limit of 1000000"),
    ], ids=["learn-resamples", "insurance-grid", "insurance-grid-option", "insurance-grid-float"])
    def test_oversized_request_is_rejected_before_it_allocates(self, command, fixture, extra,
                                                               message, tmp_path, capsys):
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(fixture))
        tracemalloc.start()
        try:
            code = run([command, "--in", str(path), *extra])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert peak < 1 << 20
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_input_is_a_directory(self, tmp_path, capsys):
        assert run(["bounds", "--in", str(tmp_path), "--N", "2"]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestDeterminism:
    def test_byte_identical_outputs(self, act_file, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for target in (out1, out2):
            code = subprocess.run(
                [sys.executable, "-m", "coarse_bounds", "bounds", "--in", act_file,
                 "--N", "3", "--out", str(target)],
                capture_output=True,
            ).returncode
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_learn_byte_identical(self, tmp_path):
        fixture = {
            "states": [0, 1, 2], "values": [1.0, 1.03, 1.09], "masses": [0.4, 0.3, 0.3],
            "gamma": 1.0, "k": 1e-5, "K": 150, "B": 500, "seed": 9,
        }
        path = tmp_path / "learn.json"
        path.write_text(json.dumps(fixture))
        outs = []
        for name in ("r1.json", "r2.json"):
            target = tmp_path / name
            res = subprocess.run(
                [sys.executable, "-m", "coarse_bounds", "learn", "--in", str(path),
                 "--out", str(target)],
                capture_output=True,
            )
            assert res.returncode == 0
            outs.append(target.read_bytes())
        assert outs[0] == outs[1]


class TestStartup:
    def test_cli_import_leaves_scipy_optimize_out(self):
        # scipy.optimize takes most of the import time; no runtime module needs it
        res = subprocess.run(
            [sys.executable, "-c",
             "import sys, coarse_bounds.cli; print('scipy.optimize' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"

    def test_runtime_loads_no_scipy(self):
        # the runtime is numpy only: every module (bar the entry point that
        # runs the CLI on import), then a savings solve
        script = (
            "import importlib, pkgutil, sys\n"
            "import coarse_bounds\n"
            "for mod in pkgutil.walk_packages(coarse_bounds.__path__, 'coarse_bounds.'):\n"
            "    if mod.name != 'coarse_bounds.__main__':\n"
            "        importlib.import_module(mod.name)\n"
            "from coarse_bounds.applications.crra import CRRAUtility\n"
            "from coarse_bounds.applications.portfolio import PortfolioProblem, solve_savings\n"
            "problem = PortfolioProblem(1.0, 1.02, (0.8, 1.1, 1.4), (0.3, 0.4, 0.3),\n"
            "                           0.95, CRRAUtility(2.0), 2)\n"
            "assert solve_savings(problem).total > 0\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"
