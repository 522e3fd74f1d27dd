"""Batch command-line front end.

Subcommands parse JSON fixtures, dispatch to the library, and emit JSON or
CSV. Outputs are byte-identical for identical inputs, seed, and config; no
timestamps or timings are written.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from numbers import Real

import numpy as np

from . import acceptance
from .acts import build_ladder, check_finite
from .engine import bound, perceived_distribution
from .errors import (
    BracketingError,
    CoarseBoundsError,
    ConvergenceError,
    NonPositiveWealthError,
)
from .learning import (
    SmoothRule,
    audit_coarsening_preserves_ce,
    bootstrap_errors,
    draw_sample,
    empirical_expectation,
    has_certain_equivalent,
)
from .preferences import simple_bounds_compare
from .serde import (
    act_from_record,
    bound_to_record,
    check_shape,
    dump_json,
    load_act,
    load_record,
    perceived_to_record,
    write_csv,
)
from .statics import capacity_profile, mlr_cutoff_monotonicity, mlr_shift, sandwich_check
from .applications.crra import CRRAUtility
from .applications import insurance as ins
from .applications import portfolio as pf
from .applications import contracts as ct

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2

# Size guards: the most resample indices (K * B) learn draws, and the most
# points of an insurance loss grid.
MAX_RESAMPLE_INDICES = 1 << 25
MAX_LOSS_GRID = 10**6


def _parse_capacities(text: str) -> list:
    """The capacities ``--N`` names: one integer ``N`` or a range ``a..b``."""
    try:
        lo, hi = map(int, text.split("..") if ".." in text else (text, text))
    except ValueError:
        raise CoarseBoundsError(f"--N takes an integer N or a range a..b, got {text!r}") from None
    capacities = list(range(lo, hi + 1))
    if not capacities:
        raise CoarseBoundsError(f"capacity range {text} is empty")
    return capacities


def _one_capacity(text: str) -> int:
    """The capacity of a command that uses only one: a range of several is an error."""
    capacities = _parse_capacities(text)
    if len(capacities) > 1:
        raise CoarseBoundsError(f"this command takes one capacity, not the range {text}")
    return capacities[0]


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_bounds(args) -> int:
    act, belief = load_act(args.infile)
    ladder = build_ladder(act, belief)
    results = {
        n: bound_to_record(bound(ladder, n, args.kind))
        for n in _parse_capacities(args.capacity)
    }
    payload = results[next(iter(results))] if len(results) == 1 else results
    _emit(dump_json(payload), args.out)
    return EXIT_OK


def cmd_compare(args) -> int:
    act_f, belief = load_act(args.infile)
    act_g, belief_g = load_act(args.infile2)
    if belief_g.masses != belief.masses:
        raise CoarseBoundsError("the two acts must share one belief")
    verdict = simple_bounds_compare(act_f, act_g, belief, _one_capacity(args.capacity))
    _emit(dump_json(verdict.to_json()), args.out)
    return EXIT_OK


def cmd_perceive(args) -> int:
    act, belief = load_act(args.infile)
    ladder = build_ladder(act, belief)
    dist = perceived_distribution(ladder, _one_capacity(args.capacity), args.attitude)
    _emit(dump_json(perceived_to_record(dist)), args.out)
    return EXIT_OK


def cmd_sweep_capacity(args) -> int:
    act, belief = load_act(args.infile)
    ladder = build_ladder(act, belief)
    capacities = _parse_capacities(args.capacity)
    if len(capacities) > 1 and capacities[0] != 1:
        raise CoarseBoundsError(
            f"sweep-capacity profiles capacities 1..N; a range must start at 1, got {args.capacity}"
        )
    if capacities[-1] < 2:
        raise CoarseBoundsError(f"sweep-capacity takes --N as N >= 2 or 1..N, got {args.capacity}")
    profile = capacity_profile(ladder, capacities[-1], args.kind)
    text = write_csv(profile.rows(), ("N", "W", "increment"))
    _emit(text, args.out)
    return EXIT_OK


def cmd_statics(args) -> int:
    act, belief = load_act(args.infile)
    ladder = build_ladder(act, belief)
    n = _one_capacity(args.capacity)
    # the top weight exp(700) stays finite on long ladders
    lam = min(0.8, 700 / max(1, len(ladder) - 1))
    weights = np.exp(lam * np.arange(len(ladder))).tolist()
    profile = capacity_profile(ladder, max(2, n), "lower")
    report = {
        "sandwich": sandwich_check(ladder, n),
        "mlr_cutoff_monotone": mlr_cutoff_monotonicity(
            ladder, mlr_shift(ladder.level_masses, weights), n
        ),
        "profile_values": list(profile.values),
        "profile_monotone": profile.monotone,
        "profile_concave": profile.concave,
    }
    _emit(dump_json(report), args.out)
    return EXIT_OK


def cmd_learn(args) -> int:
    fixture = load_record(args.infile, dict.fromkeys(("gamma", "k", "K", "B", "seed"), Real))
    for key in ("K", "B", "seed"):
        if isinstance(fixture.get(key), float) and not fixture[key].is_integer():
            raise ValueError(f"{key!r} must be a whole number, got {fixture[key]}")
    act, belief = act_from_record(fixture)
    rule = SmoothRule(gamma=fixture["gamma"], k=fixture["k"])
    seed = int(fixture.get("seed", args.seed))
    k, b = int(fixture["K"]), int(fixture["B"])
    if k < 1:
        raise ValueError(f"'K' must be at least 1, got {fixture['K']}")
    if b >= 1 and k * b > MAX_RESAMPLE_INDICES:
        raise CoarseBoundsError(
            f"K * B = {k * b} resample indices exceed the limit of {MAX_RESAMPLE_INDICES}"
        )
    data = draw_sample(belief, act.state_ids, k, seed)
    # checked after the sample, whose seed check comes first
    if b < 1:
        raise ValueError(f"'B' must be at least 1, got {fixture['B']}")
    errors = bootstrap_errors(act, data, b, seed)
    audit = audit_coarsening_preserves_ce(act, data, rule, b, seed, true_belief=belief)
    report = {
        "empirical_mean": empirical_expectation(act, data),
        "has_certain_equivalent": has_certain_equivalent(act, data, rule, b, seed),
        "coarsening_audit": {
            "precondition_met": audit.precondition_met,
            "violations": [list(v) for v in audit.violations],
        },
        "error_mean": errors.mean(),
    }
    _emit(dump_json(report), args.out)
    if args.quantiles_out:
        _emit(write_csv(errors.quantiles(), ("quantile", "error")), args.quantiles_out)
    return EXIT_OK


def _loss_model(grid: dict) -> ins.LossModel:
    n = grid.get("n", 200)
    # JSON does not tell 20 from 20.0, so a whole-valued float is a size, as
    # learn's K, B and seed are; beyond 2**53 it need not be the integer that
    # was written, so it keeps its float form rather than hundreds of digits
    if isinstance(n, float):
        if not n.is_integer():
            raise ValueError(f"'n' must be a whole number, got {n}")
        if abs(n) <= 2**53:
            n = int(n)
    # other types and non-positive sizes are the loss model's to reject
    if isinstance(n, (int, float)) and n > MAX_LOSS_GRID:
        raise CoarseBoundsError(f"loss grid size n = {n} exceeds the limit of {MAX_LOSS_GRID}")
    model = ins.LossModel.uniform(grid.get("max_loss", 1.0), n)
    if grid.get("tilt"):
        model = model.tilted(float(grid["tilt"]))
    return model


def _contract(record: dict) -> ins.InsuranceContract:
    try:
        terms = {key: record[key] for key in ("premium", "deductible", "coverage", "wealth")}
    except ValueError as err:  # a missing field
        raise ValueError(f"contract: {err}") from None
    return ins.InsuranceContract(**terms, cap=record.get("cap"))


def cmd_insurance(args) -> int:
    fixture = load_record(args.infile, {
        "contract": {**dict.fromkeys(("premium", "deductible", "coverage", "wealth"), Real),
                     "cap": (Real, type(None))},
        "grid": {"max_loss": Real, "tilt": Real}, "gamma": Real, "target_deductible": Real,
    })
    contract = _contract(fixture["contract"])
    grid_spec = dict(fixture.get("grid", {}))
    if args.grid is not None:
        grid_spec["n"] = args.grid
    model = _loss_model(grid_spec)
    utility = CRRAUtility(fixture.get("gamma", 2.0))
    if args.dominated is not None:
        pair = ins.dominated_pair(contract, float(args.dominated), model, utility,
                                  _one_capacity(args.capacity), tol=args.tol)
        _emit(dump_json({
            "indifferent": pair.indifferent,
            "lowest_cutoff_ok": pair.lowest_cutoff_ok,
            "value_high": pair.value_high,
            "value_low": pair.value_low,
            "low_premium": pair.low_contract.premium,
            "low_deductible": pair.low_contract.deductible,
        }), args.out)
        return EXIT_OK
    if args.figure:
        text = emit_figure_data(args.figure, contract, model, utility,
                                _one_capacity(args.capacity), fixture.get("target_deductible"))
        _emit(text, args.out)
        return EXIT_OK
    rows = [
        (n, args.attitude, ins.plan_value(contract, model, utility, n, args.attitude))
        for n in _parse_capacities(args.capacity)
    ]
    _emit(write_csv(rows, ("N", "attitude", "value")), args.out)
    return EXIT_OK


def emit_figure_data(kind: str, contract, model, utility, n, target_deductible=None) -> str:
    """Plot-ready step-function overlays of plans and their lower bounds."""
    act = ins.plan_act(contract, model)
    wealth = dict(zip(act.state_ids, act.values))
    cuts = ins.plan_cutoffs(contract, model, utility, n)
    edges = [*cuts, model.max_loss]

    def bound_at(loss):
        # the wealth at the highest loss of the block holding ``loss``; the
        # last edge is the top loss, so every grid loss has one
        edge = next(e for e in edges if loss <= e)
        return contract.wealth - contract.premium - ins.consumer_payment(contract, edge)

    if kind == "siminf_overlay":
        rows = [(x, wealth[x], bound_at(x)) for x in model.losses]
        return write_csv(rows, ("loss", "plan_wealth", "siminf_value"))
    if kind == "dominated_pair":
        if target_deductible is None:
            raise CoarseBoundsError("dominated_pair figure needs target_deductible")
        pair = ins.dominated_pair(contract, float(target_deductible), model, utility, n)
        low_act = ins.plan_act(pair.low_contract, model)
        low_wealth = dict(zip(low_act.state_ids, low_act.values))
        rows = [
            (x, wealth[x], bound_at(x), low_wealth[x]) for x in model.losses
        ]
        return write_csv(rows, ("loss", "plan_wealth", "siminf_value", "second_plan_wealth"))
    raise CoarseBoundsError(f"unknown figure kind {kind!r}")


def cmd_portfolio(args) -> int:
    fixture = load_record(args.infile, {
        **dict.fromkeys(("endowment", "safe_return", "beta", "gamma", "savings"), Real),
        "risky_returns": [Real], "risky_masses": [Real],
    })
    capacities = _parse_capacities(args.capacity)
    problem = pf.PortfolioProblem(
        endowment=fixture["endowment"], safe_return=fixture["safe_return"],
        risky_returns=fixture["risky_returns"], risky_masses=fixture["risky_masses"],
        beta=fixture["beta"], utility=CRRAUtility(fixture.get("gamma", 2.0)),
        capacity=capacities[0], attitude=args.attitude,
    )
    rows = []
    for n in capacities:
        at_n = replace(problem, capacity=n)
        alpha = pf.solve_allocation(at_n, fixture.get("savings", 0.5))
        rows.append((n, args.attitude, alpha, pf.equilibrium_price(at_n)))
    _emit(write_csv(rows, ("N", "attitude", "risky_share", "price")), args.out)
    return EXIT_OK


def cmd_contract(args) -> int:
    fixture = load_record(args.infile, {
        **dict.fromkeys(("outputs", "wage_grid", "schedule"), [Real]),
        "effort_costs": dict, "output_masses": [[Real]],
    })
    costs = {}
    for effort, cost in fixture["effort_costs"].items():
        name = f"the cost of {effort!r} in 'effort_costs'"
        check_shape(cost, Real, name)
        costs[effort] = float(cost)
        check_finite((costs[effort],), name)
    if not costs:
        raise ValueError("'effort_costs' must name at least one effort")
    efforts = tuple(costs)
    problem = ct.ContractingProblem(
        outputs=tuple(fixture["outputs"]),
        efforts=efforts,
        output_masses=tuple(tuple(m) for m in fixture["output_masses"]),
        agent_utility=ct.sqrt_wage_utility(costs),
        principal_utility=lambda output, wage: output - wage,
        wage_grid=tuple(fixture["wage_grid"]),
    )
    schedule = fixture["schedule"]
    n = _one_capacity(args.capacity)
    result = ct.simplify_contract(problem, schedule, n)
    report = {
        "induced_effort": result.induced_effort,
        "effort_unchanged": result.effort_unchanged,
        "agent_value_gap": result.agent_value_gap,
        "principal_pointwise_ok": result.principal_pointwise_ok,
        "simplified_schedule": list(result.schedule),
        "distinct_wages": len(set(result.schedule)),
    }
    _emit(dump_json(report), args.out)
    return EXIT_OK


def cmd_accept(args) -> int:
    results = acceptance.run_all(seed=args.seed, suite=args.suite)
    lines = acceptance.report_lines(results)
    _emit("\n".join(lines), args.out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coarse-bounds",
        description="Coarse lower/upper bounds of uncertain acts under capacity constraints.",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p, capacity=True):
        p.add_argument("--in", dest="infile", required=True, help="input JSON file")
        p.add_argument("--out", default=None, help="output path (stdout otherwise)")
        if capacity:
            p.add_argument("--N", dest="capacity", required=True,
                           help="capacity, single value or range a..b")

    p = sub.add_parser("bounds", help="optimal bound of an act")
    common(p)
    p.add_argument("--kind", choices=("lower", "upper"), default="lower")

    p = sub.add_parser("compare", help="bound-based comparison of two acts")
    common(p)
    p.add_argument("--in2", dest="infile2", required=True, help="second act JSON")

    p = sub.add_parser("perceive", help="perceived distribution of an act")
    common(p)
    p.add_argument("--attitude", choices=("cautious", "reckless"), default="cautious")

    p = sub.add_parser("sweep-capacity", help="W(N) profile as CSV")
    common(p)
    p.add_argument("--kind", choices=("lower", "upper"), default="lower")

    p = sub.add_parser("statics", help="lattice checks on one instance")
    common(p)

    p = sub.add_parser("learn", help="learning fixture report")
    common(p, capacity=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quantiles-out", dest="quantiles_out", default=None)

    p = sub.add_parser("insurance", help="plan values, dominated pairs, or figure data")
    common(p)
    p.add_argument("--attitude", choices=("cautious", "reckless"), default="cautious")
    p.add_argument("--figure", choices=("siminf_overlay", "dominated_pair"), default=None)
    p.add_argument("--grid", type=int, default=None, help="override grid resolution")
    p.add_argument("--tol", type=float, default=ins.INDIFFERENCE_TOL,
                   help="indifference tolerance")
    p.add_argument("--dominated", default=None, metavar="TARGET_D",
                   help="emit the weakly dominated low-deductible pair report")

    p = sub.add_parser("portfolio", help="allocation and price sweeps")
    common(p)
    p.add_argument("--attitude", choices=("cautious", "reckless"), default="cautious")

    p = sub.add_parser("contract", help="contract simplification report")
    common(p)

    p = sub.add_parser("accept", help="run the acceptance suites")
    p.add_argument("--suite", default="all",
                   choices=("all", *acceptance.SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    return parser


COMMANDS = {
    "bounds": cmd_bounds,
    "compare": cmd_compare,
    "perceive": cmd_perceive,
    "sweep-capacity": cmd_sweep_capacity,
    "statics": cmd_statics,
    "learn": cmd_learn,
    "insurance": cmd_insurance,
    "portfolio": cmd_portfolio,
    "contract": cmd_contract,
    "accept": cmd_accept,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    if not args.command:
        parser.print_usage()
        return EXIT_USAGE
    try:
        if hasattr(args, "capacity") and isinstance(args.capacity, str):
            if any(n < 1 for n in _parse_capacities(args.capacity)):
                raise CoarseBoundsError("capacities must be at least 1")
        return COMMANDS[args.command](args)
    except (BracketingError, ConvergenceError, NonPositiveWealthError, ArithmeticError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CoarseBoundsError, OSError, KeyError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
