"""Frequentist learning from i.i.d. samples with bootstrap error estimates.

A decision maker holding ``K`` i.i.d. draws compares an act ``f`` to a
constant ``c`` using the empirical expectation and a bootstrap estimate of
the sampling-error distribution. Under the smooth rule the act is weakly
preferred to ``c`` when the expected concave transform of the bootstrap
payoff estimates clears ``phi(c) - k``, while ``c`` is weakly preferred
whenever it reaches the empirical mean; a certain equivalent exists exactly
when both directions hold at ``c`` equal to the empirical mean.

Merging two value cells of an act into their conditional mean removes one
source of estimation noise, so the merged act's error distribution
second-order stochastically dominates the original's, and certain
equivalents survive coarsening. The audits below exercise those facts on
concrete samples.

Randomness discipline: every operation takes an explicit seed in
``[0, 2**128)`` and drives a counter-based Philox generator; replicate draws
are materialized in one vectorized pass, so results are bit-identical for a
fixed seed regardless of evaluation order. Bootstrap resampling is *balanced*
(each observation appears exactly ``B`` times across the ``B`` replicates),
which pins the mean of every act's error distribution at zero up to rounding
and makes error distributions of different acts directly mean-comparable.

Every bootstrap replicate, those that ``bootstrap_errors`` reports and
those the decisions (the smooth rule, certain equivalents, the audits and
the SOSD test) read, comes from one cached label x replicate count matrix
of the resample, as ``sum_s counts[s] * value(s) / K``: a few
multiply-adds per replicate instead of ``K`` gathered loads, equal to the
gathered mean up to a few ulps.

The resample is shuffled as the dataset's label codes, not as observation
indices: one byte per entry up to 256 distinct labels, whatever K is, and
never 8 bytes, even while it is shuffled. The shuffled pool is tallied
into the counts and dropped; only the counts are cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .acts import Belief, DiscreteAct, check_aligned, check_finite
from .errors import AlignmentError, PreconditionError
from .preferences import PreferenceVerdict, verdict_of
from .statics import sosd_strict


def _rng(seed) -> np.random.Generator:
    key = int(seed)
    if not 0 <= key < 2**128:
        raise ValueError(f"seed must be in [0, 2**128), got {key}")
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class Dataset:
    """K i.i.d. draws of state labels, tagged with the seed that made them."""

    draws: tuple
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "draws", tuple(self.draws))
        if len(self.draws) == 0:
            raise ValueError("a dataset needs at least one draw")

    @property
    def K(self) -> int:
        return len(self.draws)


@dataclass(frozen=True)
class ErrorDistribution:
    """Bootstrap (or sampling) replicates of the estimation error of a mean."""

    errors: tuple

    def mean(self) -> float:
        return float(np.mean(self.errors))

    def quantiles(self) -> list:
        """(q, error quantile) rows at q = 5%, 25%, 50%, 75% and 95%."""
        arr = np.asarray(self.errors)
        return [(q, float(np.quantile(arr, q))) for q in (0.05, 0.25, 0.5, 0.75, 0.95)]


@dataclass(frozen=True)
class SmoothRule:
    """Exponential concave transform phi(x) = 1 - exp(-gamma x) with slack k."""

    gamma: float
    k: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if not self.k >= 0:
            raise ValueError("k must be non-negative")
        check_finite((self.gamma,), "gamma")
        check_finite((self.k,), "k")

    def phi(self, x):
        return 1.0 - np.exp(-self.gamma * np.asarray(x, dtype=float))

    def phi_scalar(self, x: float) -> float:
        return float(self.phi(x))


def draw_sample(true_belief: Belief, act_or_states, k: int, seed: int) -> Dataset:
    """K i.i.d. state draws from the true belief; deterministic given seed."""
    if k < 1:
        raise ValueError("sample size must be at least 1")
    if isinstance(act_or_states, DiscreteAct):
        states = act_or_states.state_ids
    else:
        states = tuple(act_or_states)
    if len(states) != len(true_belief):
        raise AlignmentError("states do not align with the belief")
    rng = _rng(seed)
    idx = rng.choice(len(states), size=k, p=true_belief.masses)
    return Dataset(draws=tuple(states[i] for i in idx), seed=int(seed))


def _draw_values(f: DiscreteAct, data: Dataset) -> list:
    """The act's payoff at each draw, in draw order."""
    values = dict(zip(f.state_ids, f.values))
    try:
        return [values[d] for d in data.draws]
    except KeyError as err:
        raise AlignmentError(f"draw {err.args[0]!r} is not a state of the act") from err


def empirical_expectation(f: DiscreteAct, data: Dataset) -> float:
    """Sample mean of the act over the draws."""
    return sum(_draw_values(f, data)) / data.K


def value_cells(f: DiscreteAct) -> dict:
    """Map each distinct payoff to the tuple of states carrying it."""
    cells: dict = {}
    for s, v in zip(f.state_ids, f.values):
        cells.setdefault(v, []).append(s)
    return {v: tuple(ss) for v, ss in cells.items()}


def coarsen_act(f: DiscreteAct, v1: float, v2: float, mode: str,
                true_belief: Belief | None = None, data: Dataset | None = None) -> DiscreteAct:
    """Merge the two value cells of ``f`` at payoffs ``v1`` and ``v2`` into
    their conditional mean.

    ``mode="true_mean"`` conditions on the supplied true belief;
    ``mode="empirical_mean"`` conditions on the dataset, falling back to the
    true conditional mean when the merged cell has no empirical mass. Both
    payoffs must be value cells and the mode known even when ``v1 == v2``,
    which returns ``f``.
    """
    cells = value_cells(f)
    if v1 not in cells or v2 not in cells:
        raise ValueError("both payoffs must be value cells of the act")
    if mode not in ("true_mean", "empirical_mean"):
        raise ValueError(f"unknown mode {mode!r}")
    if v1 == v2:
        return f
    merged = set(cells[v1]) | set(cells[v2])
    if mode == "true_mean":
        if true_belief is None:
            raise PreconditionError("true_mean mode needs the true belief")
        check_aligned(f, true_belief)
        num = sum(
            v * m
            for s, v, m in zip(f.state_ids, f.values, true_belief.masses)
            if s in merged
        )
        den = sum(
            m for s, m in zip(f.state_ids, true_belief.masses) if s in merged
        )
        if den <= 0:
            raise PreconditionError("merged cell has zero true mass")
        mean = num / den
    elif data is None:
        raise PreconditionError("empirical_mean mode needs a dataset")
    else:
        hits = [v for v in _draw_values(f, data) if v in (v1, v2)]
        if hits:
            mean = sum(hits) / len(hits)
        else:
            return coarsen_act(f, v1, v2, "true_mean", true_belief=true_belief)
    new_values = [
        mean if s in merged else v for s, v in zip(f.state_ids, f.values)
    ]
    return DiscreteAct(f.state_ids, new_values)


# Resample rows counted per pass, which bounds the temporary code and
# tally blocks
_COUNT_BLOCK_ROWS = 512


@lru_cache(maxsize=4)
def _resample_indices(draws: tuple, b: int, seed: int) -> tuple:
    """The balanced resample of ``draws``, b replicates of K draws each: the
    distinct labels in first-draw order, and the read-only (labels x b)
    matrix of how many times each replicate draws each label.

    The pool holds each draw's label code B times, in the smallest unsigned
    dtype that holds the number of labels. ``Generator.shuffle`` permutes
    it as it would the pool of observation indices ``0..K-1`` (the
    permutation depends only on the pool's length and the seed), so row r
    of the shuffled pool, read as a b x K matrix, holds the labels of the
    observations that replicate r drew. Two datasets with the same K, B
    and seed therefore share the permutation, and their replicates are
    coupled, though each keeps its own entry. The pool is tallied
    ``_COUNT_BLOCK_ROWS`` replicates at a time into counts of the smallest
    unsigned dtype that holds K, and then dropped, so the cache keeps no
    b x K array."""
    k = len(draws)
    position: dict = {}
    codes = np.fromiter(
        (position.setdefault(d, len(position)) for d in draws), dtype=np.intp, count=k
    )
    n = len(position)
    pool = np.tile(codes.astype(np.min_scalar_type(n - 1)), b)
    _rng(seed).shuffle(pool)
    drawn = pool.reshape(b, k)
    counts = np.empty((n, b), dtype=np.min_scalar_type(k))
    for lo in range(0, b, _COUNT_BLOCK_ROWS):
        block = drawn[lo:lo + _COUNT_BLOCK_ROWS].astype(np.intp)
        rows = len(block)
        block += np.arange(0, rows * n, n)[:, None]
        tally = np.bincount(block.ravel(), minlength=rows * n)
        counts[:, lo:lo + rows] = tally.reshape(rows, n).T
    counts.setflags(write=False)
    return tuple(position), counts


def bootstrap_errors(f: DiscreteAct, data: Dataset, b: int, seed: int) -> ErrorDistribution:
    """B replicates of (resampled mean - empirical mean).

    Replicates resample the K observations with replacement. The balanced
    scheme permutes a pool holding each observation exactly B times, so two
    acts bootstrapped with the same (data, b, seed) are driven by identical
    resamples and their error replicates are exactly coupled. The
    replicates are those the decisions read, from the cached count matrix.
    """
    return ErrorDistribution(errors=tuple(_replicate_errors(f, data, b, seed).tolist()))


def _replicate_errors(f: DiscreteAct, data: Dataset, b: int, seed: int) -> np.ndarray:
    """The bootstrap replicates read from the count matrix:
    ``sum_s counts[s] * value(s)`` over the labels in first-draw order,
    divided by K, minus the empirical mean. Within a few ulps of the
    replicates that one gather of the resampled observations gives."""
    if b < 1:
        raise ValueError("replicate count must be at least 1")
    obs = np.asarray(_draw_values(f, data), dtype=float)
    labels, counts = _resample_indices(data.draws, b, int(seed))
    values = dict(zip(f.state_ids, f.values))
    total = np.zeros(b)
    for label, row in zip(labels, counts):
        total += row * np.float64(values[label])
    return total / data.K - obs.mean()


def perceived_score(f: DiscreteAct, data: Dataset, rule: SmoothRule, b: int,
                    seed: int) -> float:
    """E over the bootstrap of phi(estimated mean of f)."""
    errors = _replicate_errors(f, data, b, seed)
    base = empirical_expectation(f, data)
    return float(np.mean(rule.phi(base + errors)))


def smooth_decide(f: DiscreteAct, c: float, data: Dataset, rule: SmoothRule,
                  b: int, seed: int) -> PreferenceVerdict:
    """Four-way verdict between act ``f`` and constant ``c``.

    ``f`` is weakly preferred when the bootstrap score clears phi(c) - k;
    ``c`` is weakly preferred when it reaches the empirical mean of ``f``.
    """
    score = perceived_score(f, data, rule, b, seed)
    f_over_c = score >= rule.phi_scalar(c) - rule.k
    c_over_f = c >= empirical_expectation(f, data)
    return verdict_of(False, False, f_over_c, c_over_f)


def has_certain_equivalent(f: DiscreteAct, data: Dataset, rule: SmoothRule,
                           b: int, seed: int) -> bool:
    """True iff the empirical mean itself is a certain equivalent: the
    smooth-rule score at the empirical mean clears phi(mean) - k."""
    score = perceived_score(f, data, rule, b, seed)
    mean = empirical_expectation(f, data)
    return score >= rule.phi_scalar(mean) - rule.k


@dataclass(frozen=True)
class AuditReport:
    precondition_met: bool
    checks: tuple
    violations: tuple

    @property
    def passed(self) -> bool:
        return self.precondition_met and not self.violations


def audit_coarsening_preserves_ce(f: DiscreteAct, data: Dataset, rule: SmoothRule,
                                  b: int, seed: int,
                                  true_belief: Belief | None = None) -> AuditReport:
    """Certain equivalents survive every two-cell empirical-mean merge.

    Skips (precondition unmet) when ``f`` itself has no certain equivalent.
    Both acts are bootstrapped from the same seed, so their replicates are
    coupled through identical resample indices.
    """
    if not has_certain_equivalent(f, data, rule, b, seed):
        return AuditReport(False, (), ())
    payoffs = sorted(value_cells(f))
    checks, violations = [], []
    for i in range(len(payoffs)):
        for j in range(i + 1, len(payoffs)):
            merged = coarsen_act(
                f, payoffs[i], payoffs[j], "empirical_mean",
                true_belief=true_belief, data=data,
            )
            checks.append((payoffs[i], payoffs[j]))
            if not has_certain_equivalent(merged, data, rule, b, seed):
                violations.append((payoffs[i], payoffs[j]))
    return AuditReport(True, tuple(checks), tuple(violations))


def audit_mixture_preserves_ce(f: DiscreteAct, g: DiscreteAct, data: Dataset,
                               rule: SmoothRule, b: int, seed: int) -> AuditReport:
    """Mixtures (weights 1/4, 1/2, 3/4) of a CE act with a CE act that equals
    it off a constant patch keep a certain equivalent (the patch value must
    be drawn from f's range)."""
    if g.state_ids != f.state_ids:
        raise AlignmentError("acts must share states")
    patch = {b_ for a_, b_ in zip(f.values, g.values) if a_ != b_}
    if len(patch) > 1 or (patch and next(iter(patch)) not in set(f.values)):
        raise PreconditionError("g must equal f except on one constant patch from f's range")
    if not (
        has_certain_equivalent(f, data, rule, b, seed)
        and has_certain_equivalent(g, data, rule, b, seed)
    ):
        return AuditReport(False, (), ())
    checks, violations = [], []
    for alpha in (0.25, 0.5, 0.75):
        mixed = DiscreteAct(
            f.state_ids,
            [alpha * a + (1 - alpha) * c for a, c in zip(f.values, g.values)],
        )
        checks.append(alpha)
        if not has_certain_equivalent(mixed, data, rule, b, seed):
            violations.append(alpha)
    return AuditReport(True, tuple(checks), tuple(violations))


# Spread of audit_near_constant_split's binary re-split of a merged cell: its
# two values lie this far apart, around the cell's empirical mean.
SPLIT_SPREAD = 1e-3


def audit_near_constant_split(f: DiscreteAct, data: Dataset, rule: SmoothRule,
                              b: int, seed: int, v1: float, v2: float,
                              true_belief: Belief | None = None) -> AuditReport:
    """After merging two cells, a near-constant binary re-split of the merged
    cell (spread ``SPLIT_SPREAD``) with matched empirical mean still has a
    certain equivalent."""
    if not has_certain_equivalent(f, data, rule, b, seed):
        return AuditReport(False, (), ())
    merged = coarsen_act(f, v1, v2, "empirical_mean", true_belief=true_belief, data=data)
    cells = value_cells(f)
    part1, part2 = set(cells[v1]), set(cells[v2])
    draws = _draw_values(f, data)
    k1, k2 = draws.count(v1), draws.count(v2)
    mean_val = next(
        mv for s, mv in zip(merged.state_ids, merged.values) if s in part1
    )
    if k1 + k2 == 0:
        raise PreconditionError("merged cell has no empirical mass")
    # opposite nudges keeping the empirical conditional mean fixed
    d1 = SPLIT_SPREAD if k1 == 0 else SPLIT_SPREAD * k2 / (k1 + k2)
    d2 = -SPLIT_SPREAD if k2 == 0 else -SPLIT_SPREAD * k1 / (k1 + k2)
    split_values = [
        mean_val + d1 if s in part1 else mean_val + d2 if s in part2 else v
        for s, v in zip(f.state_ids, f.values)
    ]
    split = DiscreteAct(f.state_ids, split_values)
    ok = has_certain_equivalent(split, data, rule, b, seed)
    checked = ((v1, v2, SPLIT_SPREAD),)
    return AuditReport(True, checked, () if ok else checked)


def coarsening_sosd_bootstrap(f: DiscreteAct, v1: float, v2: float, data: Dataset,
                              b: int, seed: int,
                              true_belief: Belief | None = None) -> bool:
    """Bootstrap errors of the empirical-mean merge strictly dominate the
    original act's errors in the second-order sense (coupled replicates)."""
    merged = coarsen_act(f, v1, v2, "empirical_mean", true_belief=true_belief, data=data)
    g_f = _replicate_errors(f, data, b, seed)
    g_m = _replicate_errors(merged, data, b, seed)
    return sosd_strict(g_m, g_f)
