"""Valuation of piecewise-linear insurance plans by capacity-limited agents.

A plan charges a premium ``p`` and pays a fraction ``c`` of losses above the
deductible ``d``; an optional out-of-pocket cap ``m`` tops the consumer's
payment. Ex-post wealth is non-increasing in the realized loss, so the
bound problem lives on interval partitions of the loss line: blocks of the
lower bound evaluate at each block's highest loss. The operations below
compute plan values, finite-difference sensitivities, willingness to pay for
plan improvements, the weakly dominated low-deductible construction, and the
no-cutoff-at-the-kink property of optimal partitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..acts import Belief, DiscreteAct, ValueLadder, check_ascending, check_finite
from ..engine import (
    Fill, attitude_kind, blocks_from_cuts, bound, bound_value, optimum_set, tie_slack,
)
from ..errors import AlignmentError, BracketingError, ConvergenceError, PreconditionError


@dataclass(frozen=True)
class InsuranceContract:
    """Premium, deductible, coverage rate, optional out-of-pocket cap, wealth."""

    premium: float
    deductible: float
    coverage: float
    cap: float | None
    wealth: float

    def __post_init__(self):
        check_finite((self.premium,), "premium")
        check_finite((self.wealth,), "wealth")
        if not self.deductible >= 0:
            raise ValueError("deductible must be non-negative")
        if not 0.0 <= self.coverage <= 1.0:
            raise ValueError("coverage rate must lie in [0, 1]")
        if self.cap is not None and not self.cap >= 0:
            raise ValueError("out-of-pocket cap must be non-negative")
        # the terms as Python floats, so that numpy adds them as Python does
        for name in ("premium", "deductible", "coverage", "cap", "wealth"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, float(value))


@dataclass(frozen=True)
class LossModel:
    """Loss distribution on a non-empty, ascending, finite and non-negative
    grid, with one mass per loss."""

    losses: tuple
    masses: tuple
    belief: Belief = field(init=False, repr=False, compare=False)
    # the losses and masses as arrays, and which states have positive mass
    _losses: np.ndarray = field(init=False, repr=False, compare=False)
    _masses: np.ndarray = field(init=False, repr=False, compare=False)
    _live: np.ndarray = field(init=False, repr=False, compare=False)

    def __init__(self, losses, masses):
        losses = tuple(float(x) for x in losses)
        masses = tuple(float(m) for m in masses)
        if not losses:
            raise ValueError("loss grid must not be empty")
        check_ascending(losses, "loss grid")
        if not losses[0] >= 0.0:
            raise ValueError("loss grid must be non-negative")
        object.__setattr__(self, "belief", Belief(masses))
        if len(masses) != len(losses):
            raise AlignmentError(
                f"loss masses must match the loss grid: "
                f"{len(masses)} masses vs {len(losses)} losses"
            )
        object.__setattr__(self, "losses", losses)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "_losses", np.array(losses))
        object.__setattr__(self, "_masses", np.array(masses))
        object.__setattr__(self, "_live", self._masses > 0.0)

    def __len__(self):
        return len(self.losses)

    @property
    def max_loss(self) -> float:
        return self.losses[-1]

    @classmethod
    def from_density(cls, density, max_loss: float, n: int) -> "LossModel":
        """Midpoint discretization of a positive density on [0, max_loss]."""
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
            raise ValueError(f"loss grid size n must be a positive integer, got {n!r}")
        if not 0.0 < max_loss < np.inf:
            raise ValueError(f"loss grid max_loss must be positive and finite, got {max_loss!r}")
        step = max_loss / n
        losses = [(i + 0.5) * step for i in range(n)]
        weights = [density(x) for x in losses]
        total = sum(weights)
        if total <= 0:
            raise ValueError("density must have positive mass on the grid")
        return cls(losses, [w / total for w in weights])

    @classmethod
    def uniform(cls, max_loss: float, n: int) -> "LossModel":
        return cls.from_density(lambda _x: 1.0, max_loss, n)

    def tilted(self, lam: float) -> "LossModel":
        """Exponential tilt exp(lam * loss): an MLR-upward shift for lam > 0.

        A non-finite tilt raises ``ValueError``, and a finite one whose
        weights overflow, or all underflow, ``FloatingPointError``.
        """
        check_finite((lam,), "loss tilt")
        with np.errstate(over="ignore", invalid="ignore"):
            w = np.exp(lam * self._losses)
            raw = w * self._masses
            total = raw.sum()
        if not 0.0 < total < np.inf:
            raise FloatingPointError(
                f"loss tilt {lam!r} over losses up to {self.max_loss!r} "
                "takes the tilted weights out of range"
            )
        return LossModel(self.losses, (raw / total).tolist())


def consumer_payment(contract: InsuranceContract, loss: float) -> float:
    """Out-of-pocket payment at a realized loss, excluding the premium."""
    if loss < 0:
        raise ValueError("loss must be non-negative")
    d, c = contract.deductible, contract.coverage
    pay = loss if loss <= d else d + (1.0 - c) * (loss - d)
    if contract.cap is not None:
        pay = min(pay, contract.cap)
    return pay


def plan_act(contract: InsuranceContract, model: LossModel) -> DiscreteAct:
    """Ex-post wealth across the loss grid (wealth units; utility applied later)."""
    values = [
        contract.wealth - contract.premium - consumer_payment(contract, x)
        for x in model.losses
    ]
    return DiscreteAct(model.losses, values)


def utility_act(contract: InsuranceContract, model: LossModel, utility) -> DiscreteAct:
    wealth = plan_act(contract, model)
    return DiscreteAct(wealth.state_ids, utility.apply(wealth.values))


def _firsts(values):
    """Whether each element of ``values`` differs from the one before it."""
    firsts = np.empty(len(values), dtype=bool)
    firsts[0] = True
    np.not_equal(values[1:], values[:-1], out=firsts[1:])
    return firsts


def _payment_runs(contract: InsuranceContract, model: LossModel):
    """The plan's states grouped into runs of equal payment, in state order:
    ``(pays, live, run_of, masses)``, each run's payment, the runs that hold
    positive mass, and each positive-mass state's run and mass.

    The payments are ``consumer_payment``'s IEEE operations on the float
    terms, so they are non-decreasing in the loss, and a premium leaves them
    and the runs as they are.
    """
    x = model._losses
    d, c = contract.deductible, contract.coverage
    with np.errstate(over="ignore", invalid="ignore"):  # in the branch np.where drops
        pays = np.where(x <= d, x, d + (1.0 - c) * (x - d))
    if contract.cap is not None:
        # min(pay, cap) keeps pay on a tie, and so the sign of a zero pay
        pays = np.where(contract.cap < pays, contract.cap, pays)
    starts = _firsts(pays)
    run_of = (np.cumsum(starts) - 1)[model._live]
    return pays[starts], run_of[_firsts(run_of)], run_of, model._masses[model._live]


def _plan_ladder(contract: InsuranceContract, model: LossModel, utility, runs):
    """``(ladder, level_of)``: the ladder of ``utility_act(contract, model,
    utility)`` under the model's belief, bit for bit, and the index of each
    positive-mass state's level in it, from the plan's payment runs ``runs``
    (:func:`_payment_runs`).

    The utility is applied to each run's wealth ``(w - p) - pay`` in state
    order, so a non-positive wealth or an overflow raises the per-state
    path's first error, and where a wealth or a utility is not finite,
    ``utility_act`` raises its own. The levels are the distinct utilities
    of the positive-mass states. Each level's mass is summed from 0.0 in
    state order by ``np.bincount``, the sum ``build_ladder`` forms, so two
    runs whose utilities round to one value share a level.
    """
    pays, live, run_of, masses = runs
    with np.errstate(over="ignore"):
        wealth = (contract.wealth - contract.premium) - pays
    utils = np.array(utility.apply(wealth.tolist())) if np.isfinite(wealth).all() else wealth
    if not np.isfinite(utils).all():
        # plan_act's act rejects a non-finite wealth, and utility_act's a utility
        utility_act(contract, model, utility)
    levels = np.sort(utils[live])
    levels = levels[_firsts(levels)]
    level_of = np.searchsorted(levels, utils)[run_of]
    return ValueLadder(levels.tolist(), np.bincount(level_of, weights=masses).tolist()), level_of


def plan_value(contract: InsuranceContract, model: LossModel, utility, n: int,
               attitude: str = "cautious") -> float:
    """Perceived plan value: the capacity-``n`` bound of utility of wealth."""
    ladder, _ = _plan_ladder(contract, model, utility, _payment_runs(contract, model))
    return bound_value(ladder, n, attitude_kind(attitude))


def sensitivity(contract: InsuranceContract, model: LossModel, utility, n: int,
                parameter: str, h: float, side: str = "central") -> float:
    """Finite-difference derivative of the cautious plan value in one parameter.

    ``side="central"`` requires the parameter to be interior at step ``h``,
    a positive finite number; ``side="backward"`` serves the upper boundary
    (full coverage). ``parameter`` is ``"deductible"``, ``"coverage"`` or
    ``"cap"``. A shifted contract that the terms' checks reject raises
    :class:`PreconditionError`; an error in valuing one propagates.
    """
    if not 0.0 < h < np.inf:
        raise ValueError(f"h must be a positive finite number, got {h!r}")
    if parameter not in ("deductible", "coverage", "cap"):
        raise ValueError(f"unknown parameter {parameter!r}")
    x0 = getattr(contract, parameter)
    if x0 is None:
        raise PreconditionError("parameter is absent from the contract")
    shifted = lambda x: replace(contract, **{parameter: x})
    val = lambda c: plan_value(c, model, utility, n)
    if side not in ("central", "backward"):
        raise ValueError(f"unknown side {side!r}")
    # a step out of the terms' range fails a shifted contract's checks
    try:
        up = shifted(x0 + h) if side == "central" else contract
        down = shifted(x0 - h)
    except ValueError as err:
        raise PreconditionError(
            f"{parameter} at {x0} is not interior for step {h}"
        ) from err
    return (val(up) - val(down)) / (2.0 * h if side == "central" else h)


# Bracket width at which wtp's bisection stops, by default.
WTP_TOL = 1e-8
# Smallest upper end of wtp's first bracket, so that a zero or tiny delta
# still starts from a bracket of positive width.
WTP_BRACKET_FLOOR = 1e-6
# Most times wtp doubles its bracket's upper end before it gives up.
WTP_DOUBLINGS = 60


def wtp(contract: InsuranceContract, model: LossModel, utility, n: int,
        improvement: str, delta: float, tol: float = WTP_TOL) -> float:
    """Premium increase making a cautious agent indifferent to an improved plan.

    ``improvement`` is ``"lower_deductible"`` or ``"lower_cap"``; ``delta``
    is the reduction, a non-negative finite number. Solved by bisection to
    ``tol``, a positive finite number; a bracket whose midpoint rounds to
    one of its ends, which float spacing keeps wider than ``tol``, raises
    :class:`ConvergenceError`.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    if delta < 0:
        raise ValueError("delta must be non-negative")
    check_finite((delta,), "delta")
    if improvement == "lower_deductible":
        improved = replace(contract, deductible=contract.deductible - delta)
    elif improvement == "lower_cap":
        if contract.cap is None:
            raise PreconditionError("contract has no out-of-pocket cap")
        improved = replace(contract, cap=contract.cap - delta)
    else:
        raise ValueError(f"unknown improvement {improvement!r}")
    base_value = plan_value(contract, model, utility, n)
    # a premium moves no payment, so one layout serves every premium tried
    runs = _payment_runs(improved, model)
    gain = lambda dp: bound_value(
        _plan_ladder(replace(improved, premium=improved.premium + dp), model, utility, runs)[0],
        n, "lower",
    ) - base_value
    lo, hi = 0.0, max(delta, WTP_BRACKET_FLOOR)
    if gain(lo) < 0:
        raise BracketingError("improvement does not weakly raise the plan value")
    for _ in range(WTP_DOUBLINGS):
        if gain(hi) < 0:
            break
        hi *= 2.0
        if hi > contract.wealth:
            raise BracketingError("no premium increase offsets the improvement")
    else:
        raise BracketingError("failed to bracket the willingness to pay")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        # else the bisection would stay at [lo, hi] for ever
        if not lo < mid < hi:
            raise ConvergenceError(
                f"willingness-to-pay bisection stalls at [{lo!r}, {hi!r}], wider than {tol!r}"
            )
        if gain(mid) >= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _losses_by_level(level_of, ladder, model: LossModel) -> list:
    """The positive-mass losses at each level of ``ladder``, given each
    positive-mass state's level index ``level_of``."""
    losses_at = [[] for _ in ladder.levels]
    for x, j in zip(model._losses[model._live].tolist(), level_of.tolist()):
        losses_at[j].append(x)
    return losses_at


def loss_block_cutoffs(losses_by_level: list, cuts) -> tuple:
    """Interior loss-space cutoffs (each block's highest loss) induced by a
    cutoff vector over the wealth ladder, given the losses at each level."""
    spans = []
    for blo, bhi in blocks_from_cuts(tuple(cuts), len(losses_by_level)):
        losses = [x for at_level in losses_by_level[blo : bhi + 1] for x in at_level]
        spans.append((min(losses), max(losses)))
    spans.sort()
    return tuple(hi for _, hi in spans[:-1])


def plan_cutoffs(contract: InsuranceContract, model: LossModel, utility, n: int) -> tuple:
    """Loss-space cutoffs of the canonical optimal lower bound."""
    ladder, level_of = _plan_ladder(contract, model, utility, _payment_runs(contract, model))
    res = bound(ladder, n, "lower")
    return loss_block_cutoffs(_losses_by_level(level_of, ladder, model), res.cutoffs.cuts)


@dataclass(frozen=True)
class DominatedPairResult:
    low_contract: InsuranceContract
    indifferent: bool
    lowest_cutoff_ok: bool
    value_high: float
    value_low: float


def dominated_pair(base: InsuranceContract, target_deductible: float,
                   model: LossModel, utility, n: int) -> DominatedPairResult:
    """The weakly dominated low-deductible companion of a capless plan.

    Lowering the deductible from d' to d saves at most ``c (d' - d)`` in
    out-of-pocket payments, so charging exactly that much more makes the new
    plan weakly dominated (wealth coincides above d', is strictly lower
    below). A cautious capacity-``n`` agent is indifferent precisely when
    some optimal lower-bound partition of the base plan has its lowest
    cutoff at or above d'. The two values tie within ``engine.tie_slack`` at
    the larger |value|, so scaling every money term and loss keeps the verdict.
    """
    if base.cap is not None:
        raise PreconditionError("dominated-pair construction needs capless plans")
    d_hi = base.deductible
    if not 0 <= target_deductible < d_hi:
        raise ValueError("target deductible must lie below the base deductible")
    bump = base.coverage * (d_hi - target_deductible)
    low = replace(base, deductible=target_deductible, premium=base.premium + bump)
    # one fill of the base plan's ladder serves its value and its optimal partitions
    ladder, level_of = _plan_ladder(base, model, utility, _payment_runs(base, model))
    fill = Fill(ladder, (n,), "lower", None)
    v_hi = fill.value(n)
    v_lo = plan_value(low, model, utility, n, "cautious")
    return DominatedPairResult(
        low_contract=low,
        indifferent=abs(v_hi - v_lo) <= tie_slack(max(abs(v_hi), abs(v_lo))),
        lowest_cutoff_ok=_exists_selection_first_block_reaching(fill, level_of, model, n, d_hi),
        value_high=v_hi,
        value_low=v_lo,
    )


def _exists_selection_first_block_reaching(fill, level_of, model, n, loss_mark) -> bool:
    """True iff some optimal lower-bound partition at capacity ``n`` of the
    ladder of ``fill`` (a lower fill of the whole ladder), whose positive-mass
    states have the level indices ``level_of``, puts every loss below
    ``loss_mark`` into its first loss block (lowest cutoff >= loss_mark)."""
    if min(n, len(fill.levels)) == 1:
        return True
    # the first loss block is the top ladder block; its lowest loss cutoff
    # reaches loss_mark iff it starts at or below the level of the first
    # positive-mass loss at or beyond loss_mark
    i = np.searchsorted(model._losses[model._live], loss_mark)
    if i == len(level_of):
        return False
    j0 = level_of[i]
    return any(1 <= s <= j0 for s in fill.top_block_starts(n))


def has_kink(contract: InsuranceContract) -> bool:
    """Distinct payment slopes just below (1) and above (1 - coverage) a
    positive deductible; a cap at or below the deductible flattens the
    schedule before it."""
    if contract.deductible <= 0:
        return False
    if contract.cap is not None and contract.cap <= contract.deductible:
        return False
    return 1.0 - contract.coverage != 1.0


def kink_avoidance(contract: InsuranceContract, model: LossModel, utility, n: int) -> bool:
    """No optimal cutoff sits at the deductible kink's grid point.

    The grid point nearest the deductible stands in for the kink state; with
    cutoffs living on the grid this is the within-one-grid-cell exclusion
    zone around the kink. Quantifies over the full optimum set. Vacuously
    true for kink-free plans.
    """
    if not has_kink(contract):
        return True
    ladder, level_of = _plan_ladder(contract, model, utility, _payment_runs(contract, model))
    by_level = _losses_by_level(level_of, ladder, model)
    d = contract.deductible
    kink_point = min(model.losses, key=lambda x: abs(x - d))
    return not any(
        kink_point in loss_block_cutoffs(by_level, cuts)
        for cuts in optimum_set(ladder, n, "lower")
    )
