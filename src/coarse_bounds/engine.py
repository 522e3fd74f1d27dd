"""Optimal coarse bounds of an act under a capacity constraint.

Given a value ladder (ascending payoff levels with masses) and a capacity
``N``, the *lower bound problem* partitions the levels into at most ``N``
contiguous blocks and maximizes the sum of block contributions, where each
block contributes its lowest level times its total mass. This is the best
expected value attainable by an ``N``-valued act lying weakly below the
original act on every positive-mass state. The *upper bound problem* is the
mirror image: blocks contribute their highest level times mass, and the sum
is minimized: the cheapest ``N``-valued act dominating the original. The
two problems are exchanged by negating the ladder.

Both are solved exactly by one dynamic program over ladder suffixes, which
records its choice at every state. Each capacity layer picks, for every
block start, the best block end or the close of the block to the top (the
top layer only for the first start, the one state a query reads there), in
one of three size-selected branches with identical candidate arithmetic. A
pure-Python scan below ``_NUMPY_DP_THRESHOLD`` (18) levels, where it is the
faster, and a dense numpy search below ``_MONOTONE_DP_THRESHOLD`` (512) both
search every end, in ``O(N * L^2)``. The dense search keeps only the upper
triangle of block starts and ends (a block that ends before it starts is
never chosen), in row blocks sized by ``_BATCH_BYTES`` so that a block's
cells and candidates stay in cache, each on a 64-byte boundary, where numpy
streams it fastest. It computes the cells once per fill and the candidates
of one row block at a time, in one float workspace per thread that grows to
the largest fill and is reused, so a repeated fill allocates no L x L
array. Longer ladders use a divide-and-conquer search in
``O(N * L log L)`` time and ``O(L)`` memory per layer. That search
relies on the smallest optimal block end being nondecreasing in the block
start, which follows from the submodularity (Monge property) of the cell
function; it holds exactly in real arithmetic, and the parity tests check
that the rounded candidates pick the same ends as the dense branch. It
splits each open interval of block starts 4 ways per depth, following a
schedule built once per ladder length and cached. On ladders whose
candidates tie to within a few ulps, rounding breaks the monotonicity, and
its value may then differ from the dense branch's by ulps.
:func:`bound_values` runs the dense branch's candidate arithmetic across
many ladders that share one mass vector, and :func:`bound_value` gives one
bound's value alone. Both kernels fold the close into the search, their one
tie mechanism: it is one more candidate with -0.0 as its next value, which
leaves every sum as it is, the sign of a zero included, placed where the
reduction keeps it on a tie: column 0, before the ends ascending, for the
fill's first-occurrence argmax, and the last slab, after the ends
descending, for ``bound_values``' max (min) reduction, which keeps the later
of two equal candidates. Each capacity layer is then one add, one reduction
and one lookup. ``bound_values`` keeps the layout of the last mass vector
it checked, so a run of calls on one mass vector builds it once.

Every query but ``bound_values`` reads one :class:`Fill`, which checks its
inputs, fills once and alone reads the layers, at any capacity up to its own,
so a library call holds one fill per ladder. Every optimal cutoff vector is
a path through the optimum DAG of the fill's suffix values, whose moves at
each reachable state are the tied candidates, recomputed with the fill's
cell arithmetic on its layers as Python lists and kept in one dict:
:meth:`Fill.optimum_sets` lists the paths and :meth:`Fill.top_block_starts`
reads where their top blocks start.
:func:`brute_force_bound` is an independent
exhaustive oracle, kept only as a reference for those queries and the DP,
for instances below a size guard. It reads the vectors of
:func:`enumerate_cut_vectors` from a cached block-edge table and sums each
vector's cells in block order in one numpy pass per chunk of vectors, the
same IEEE operations as :func:`coarse_value`; it reads no code of the fill.

Tie policy: the canonical cutoff vector compares candidate values exactly.
At every state it closes the block when closing is optimal and otherwise
takes the smallest optimal block end, which yields the lexicographically
smallest optimal vector, shorter vectors first. Every set query reads the
DP and counts a candidate as optimal when it lies within
``tie_slack(|optimum|)`` of the optimum. :func:`tie_slack` is the one tie
rule of the package, ``tol + tol * scale`` with ``tol = TIE_TOL`` by
default, and the statics verdicts read it too, scaled by their ladder. The
set queries keep its absolute floor, so on payoffs far below 1 they list
every vector within ``TIE_TOL`` of the optimum. The contract and portfolio
solvers keep slacks of their own: the contract solvers
``contracts.AGENT_VALUE_TOL``, an absolute 1e-12, which the benchmark's bait
check also uses on ``perceived_value_gap``, and the portfolio searches their
tie-break ``portfolio.SHARE_TIE_TOL`` and prune margin
``portfolio.PRUNE_MARGIN``, which are not verdicts.

Cutoff convention: a cutoff at index ``j`` starts a new block at level ``j``
(cut levels belong to the upper block). A vector of ``B - 1`` strictly
ascending cutoffs in ``[1, L - 1]`` describes a partition into ``B`` blocks.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate, chain, combinations, islice, repeat
from math import comb, inf, isfinite

import numpy as np

from .acts import Belief, DiscreteAct, ValueLadder, build_ladder
from .errors import OracleTooLargeError, PreconditionError, check_capacity, is_integer

LOWER = "lower"
UPPER = "upper"

# brute_force_bound enumerates at most MAX_ORACLE_LEVELS levels, so at most
# 2^21 cutoff vectors; Fill.optimum_sets lists at most MAX_ORACLE_VECTORS.
MAX_ORACLE_LEVELS = 22
MAX_ORACLE_VECTORS = 2_000_000

# The oracle's block-edge tables are built and scanned this many rows at a
# time; the tables kept for later calls take at most this many bytes in all.
_EDGE_CHUNK_ROWS = 1 << 13
_EDGE_CACHE_BYTES = 1 << 22
_edge_tables: dict = {}

# Ladders at least this long use the dense numpy DP fill, and from the
# second threshold on the monotone search, which never builds an L x L matrix.
# In interleaved timings of ``bound`` the dense fill is as fast as the Python
# scan from about 18 levels at N = 2 and from 15-17 levels at N = 3-8.
_NUMPY_DP_THRESHOLD = 18
_MONOTONE_DP_THRESHOLD = 512
# The monotone search splits each open interval of block starts this many
# ways per depth.
_SPLIT_WAYS = 4

# bound_values fills its rows in blocks of this many bytes // (16 L (L - 1))
# rows, about as many as keep their cells and candidates within it, and the
# dense fill its block starts in row blocks whose cells and candidates
# together stay within it.
_BATCH_BYTES = 1 << 18

# bound_values keeps the layout of the last mass vector it built one for
# (_mass_layout) as (key, layout), when it takes at most this many bytes; the
# pair is read and rebound whole, so threads share it without a lock.
_LAYOUT_CACHE_BYTES = 1 << 20
_last_layout = (None, None)

# The dense fill's cells and candidates live in one float array per thread,
# which grows to the largest fill that thread has run and never shrinks, so
# that a repeated fill allocates nothing of size L x L.
_workspace = threading.local()

# Relative and absolute tolerance under which set queries count a candidate
# value as tied with the optimum.
TIE_TOL = 1e-12


def tie_slack(scale: float, tol: float = TIE_TOL) -> float:
    """The one tie rule: two values of magnitude at most ``scale`` count as
    equal when they differ by at most ``tol`` absolute plus ``tol`` relative
    to ``scale``."""
    return tol + tol * scale


def _check_kind(kind: str) -> bool:
    if kind == LOWER:
        return False
    if kind == UPPER:
        return True
    raise ValueError(f"kind must be {LOWER!r} or {UPPER!r}, got {kind!r}")


@dataclass(frozen=True)
class CutoffVector:
    """Strictly ascending level indices where new blocks begin."""

    cuts: tuple

    def __init__(self, cuts):
        given = tuple(cuts)
        cuts = tuple(map(int, filter(isfinite, given)))
        if cuts != given:
            raise ValueError(f"cutoffs must be integers, got {given!r}")
        if any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise ValueError("cutoffs must be strictly ascending")
        object.__setattr__(self, "cuts", cuts)

    def __len__(self):
        return len(self.cuts)

    def __iter__(self):
        return iter(self.cuts)


@dataclass(frozen=True)
class BoundResult:
    """An optimal capacity-``N`` bound of a ladder.

    ``bound_values[i]`` is the bound act's payoff on ladder level ``i`` (its
    block's lowest level for a lower bound, highest for an upper bound);
    ``value`` is the bound's expectation under the ladder masses; ``exact``
    flags the case where the ladder itself fits within the capacity.
    """

    kind: str
    cutoffs: CutoffVector
    bound_values: tuple
    value: float
    exact: bool


@dataclass(frozen=True)
class OracleResult:
    """Exhaustive optimum together with every optimal cutoff vector."""

    bound: BoundResult
    optima: tuple


@dataclass(frozen=True)
class PerceivedDistribution:
    """Atomic distribution placing each block's mass on its representative level."""

    support: tuple
    masses: tuple

    def expectation(self) -> float:
        return sum(v * m for v, m in zip(self.support, self.masses))

    def cdf(self, x: float) -> float:
        return sum(m for v, m in zip(self.support, self.masses) if v <= x)


@dataclass(frozen=True)
class PullBackResult:
    """A bound mapped back to act states; ``violations`` lists zero-mass states
    whose payoff the bound could not stay on the dominated side of."""

    act: DiscreteAct
    violations: tuple


def blocks_from_cuts(cuts, num_levels: int) -> list:
    """Inclusive ``(lo, hi)`` index blocks induced by a cutoff vector."""
    edges = [0, *cuts, num_levels]
    return [(edges[i], edges[i + 1] - 1) for i in range(len(edges) - 1)]


def _prefix_masses(masses) -> list:
    return list(accumulate(masses, initial=0.0))


def _cell(levels, pref, lo: int, hi: int, upper: bool) -> float:
    rep = levels[hi] if upper else levels[lo]
    return rep * (pref[hi + 1] - pref[lo])


def cell_value(block, ladder: ValueLadder, kind: str) -> float:
    """Contribution of one contiguous block: extreme level times block mass."""
    upper = _check_kind(kind)
    lo, hi = block
    if not (0 <= lo <= hi < len(ladder)):
        raise ValueError(f"invalid block {block!r} for {len(ladder)} levels")
    pref = _prefix_masses(ladder.level_masses)
    return _cell(ladder.levels, pref, lo, hi, upper)


def coarse_value(cuts, ladder: ValueLadder, kind: str) -> float:
    """Sum of cell values over the blocks induced by a cutoff vector."""
    upper = _check_kind(kind)
    cuts = cuts.cuts if isinstance(cuts, CutoffVector) else tuple(cuts)
    pref = _prefix_masses(ladder.level_masses)
    length = len(ladder)
    edges = [0, *cuts, length]
    total = 0.0
    for i in range(len(edges) - 1):
        if not (0 <= edges[i] < edges[i + 1] <= length):
            raise ValueError(f"cutoffs {cuts!r} invalid for range [0, {length - 1}]")
        total += _cell(ladder.levels, pref, edges[i], edges[i + 1] - 1, upper)
    return total


@lru_cache(maxsize=16)
def _corner(height: int) -> np.ndarray:
    """Read-only mask of the blocks that end before they start in a row
    block of ``height`` rows, over its first ``height - 1`` ends: entry
    [i, k] is set when end k lies before row i."""
    rows = np.arange(height)
    mask = rows[None, :-1] < rows[:, None]
    mask.flags.writeable = False
    return mask


@lru_cache(maxsize=16)
def _row_blocks(length: int, height: int) -> tuple:
    """The dense branch's layout in row blocks of ``height`` rows, the last
    also carrying row L - 1; a row of block [r0, r1) holds the close and
    then the ends r0 .. L - 2. Returns the blocks as (r0, r1, workspace
    offset, column c0), the offsets of the candidates and the next values,
    the workspace size, per row its c0 (``shift``) and ``base``, with
    ``base[j] + a`` the workspace index of column a of row j, and per
    column a of all blocks its end (-1 for the close) and ``after`` (the
    prefix and next-value index, L for the close), then ``range(L)``. The
    arrays are read-only, as the layout is cached."""
    starts = range(0, length - 1, height)
    stops = [*starts[1:], length]
    blocks, shift, base, ends, off = [], [], [], [], 0
    for r0, r1 in zip(starts, stops):
        c0, width = len(ends), length - r0
        blocks.append((r0, r1, off, c0))
        shift += [c0] * (r1 - r0)
        base += range(off - c0, off - c0 + (r1 - r0) * width, width)
        ends += [-1, *range(r0, length - 1)]
        off -= (r1 - r0) * width // -8 * 8  # rounded up to 64 bytes
    cols = np.array(shift), np.array(base), np.array(ends), np.array(ends) + 1, np.arange(length)
    cols[3][cols[2] < 0] = length
    for a in cols:
        a.flags.writeable = False
    next_at = off - stops[0] * length // -8 * 8  # the first block is the largest
    return tuple(blocks), off, next_at, next_at + length + 1, *cols


def _triangle(lvl, pre, upper: bool, lo: int):
    """The dense branch's row blocks in this thread's workspace: row j
    holds ``stop[j]`` and then the cells ``(pre[e + 1] - pre[j]) * level``
    of the blocks [j..e], with the infinite sentinel where e < j. Returns
    the blocks as (r0, r1, cells, candidates) views, the workspace, its
    next values (the close's -0.0 last), the layout's rows and columns
    from :func:`_row_blocks`, and the choice of each column, -1 or e + lo.
    """
    length = len(lvl)
    layout, cand_at, next_at, need, shift, base, ends, after, rows = _row_blocks(
        length, max(1, _BATCH_BYTES // (16 * (length - 1)))
    )
    space = getattr(_workspace, "space", None)
    if space is None or space.size < need:
        space = np.empty(need + 7)
        space = _workspace.space = space[-space.ctypes.data % 64 // 8 :]
    widths, blocks = pre.take(after), []
    for r0, r1, off, c0 in layout:
        shape = (r1 - r0, length - r0)
        cells = space[off : off + shape[0] * shape[1]].reshape(shape)
        np.subtract(widths[None, c0 : c0 + shape[1]], pre[r0:r1, None], out=cells)
        # the close's end -1 takes level L - 1
        cells *= lvl.take(ends[None, c0 : c0 + shape[1]]) if upper else lvl[r0:r1, None]
        np.copyto(cells[:, 1 : shape[0]], inf if upper else -inf, where=_corner(shape[0]))
        blocks.append((r0, r1, cells, space[cand_at : cand_at + cells.size].reshape(shape)))
    space[need - 1] = -0.0
    choice = np.where(ends < 0, -1, ends + lo) if lo else ends
    return blocks, space, space[next_at:need], shift, base, after, rows, choice


def _dense_search(blocks, space, nxt, shift, base, after, rows, choice, upper: bool, prev):
    """Best value and choice of every row, one row block of :func:`_triangle`
    at a time: each block's candidates are its cells plus the next values,
    -0.0 for the close and the next layer's value after each end, and the
    first-occurrence argmax (argmin) of each row picks the close on a tie.
    With one block the best values are read from its candidates; otherwise
    each is read back as its cell plus its next value, the same addition,
    so that a block's candidates are dropped once it is searched.
    """
    pick = np.argmin if upper else np.argmax
    nxt[:-1] = prev
    if len(blocks) == 1:
        _, _, cells, cand = blocks[0]
        nxt[0] = -0.0
        arg = pick(np.add(cells, nxt[None, :-1], out=cand), axis=1)
        return cand[rows, arg], choice.take(arg)
    arg = np.empty(len(prev), dtype=np.intp)
    for r0, r1, cells, cand in blocks:
        nxt[r0] = -0.0
        pick(np.add(cells, nxt[None, r0:-1], out=cand), axis=1, out=arg[r0:r1])
        nxt[r0] = prev[r0]
    arg += shift
    return space.take(base + arg) + nxt.take(after.take(arg)), choice.take(arg)


@lru_cache(maxsize=16)
def _splits(rows: int) -> tuple:
    """Rows 0..rows-1 by split depth: per depth, the split rows and, for
    each, the rows solved before it that bound it on the left and right, as
    indices into a choice array padded by one sentinel at either end.

    Each open interval of ``size`` rows is split at ``lo + t * size // k``
    for t = 1..k-1, with k = ``_SPLIT_WAYS``; from ``size < k`` on these are
    all of its rows. The gaps between split rows are the next depth's open
    intervals. The arrays are read-only, as the schedule is cached.
    """
    depths = []
    lo, hi = np.array([0]), np.array([rows - 1])
    left_ref, right_ref = np.array([0]), np.array([rows + 1])
    ways = np.arange(1, _SPLIT_WAYS)
    while lo.size:
        mid = lo[:, None] + (ways * (hi - lo + 1)[:, None]) // _SPLIT_WAYS
        fresh = np.ones(mid.shape, dtype=bool)
        fresh[:, 1:] = mid[:, 1:] > mid[:, :-1]
        depth = (
            mid[fresh],
            np.broadcast_to(left_ref[:, None], mid.shape)[fresh],
            np.broadcast_to(right_ref[:, None], mid.shape)[fresh],
        )
        for a in depth:
            a.flags.writeable = False
        depths.append(depth)
        # an interval's edges are lo - 1, its split rows and hi + 1; the
        # next depth's intervals are the rows between adjacent edges, each
        # bounded by its edge rows or, at either end, by the interval's bounds
        edges = np.column_stack((lo - 1, mid, hi + 1))
        gap_lo, gap_hi = edges[:, :-1] + 1, edges[:, 1:] - 1
        gap_left, gap_right = gap_lo.copy(), gap_hi + 2
        gap_left[:, 0], gap_right[:, -1] = left_ref, right_ref
        open_ = gap_lo <= gap_hi
        lo, hi = gap_lo[open_], gap_hi[open_]
        left_ref, right_ref = gap_left[open_], gap_right[open_]
    return tuple(depths)


def _monotone_search(lvl, pre, upper: bool, depths, stop, lo: int, prev):
    """Same result as :func:`_dense_search` in O(L log L) time and O(L) memory.

    The cell function is submodular (Monge), so the smallest optimal end is
    nondecreasing in the block start. Rows are solved by split depth
    (``depths`` from :func:`_splits`, which cuts each open interval of rows
    ``_SPLIT_WAYS`` ways): each row searches only the ends between the
    choices of the rows that bound it, and all rows at one depth are searched
    in one pass. The last row has no end below ``L - 1``; it keeps the
    infinite sentinel, and the close ``stop`` wins there and on every tie.
    """
    last = len(lvl) - 1
    best = np.full(last + 1, inf if upper else -inf)
    padded = np.zeros(last + 2, dtype=np.intp)
    padded[-1] = last - 1
    reduce = np.minimum.reduceat if upper else np.maximum.reduceat
    pre_end, prev_end = pre[1:], prev[1:]
    for mid, left_ref, right_ref in depths:
        start = np.maximum(mid, padded[left_ref])
        # split rows of one interval do not bound each other, so rounding
        # can leave a left bound above the right one: search one end then
        count = np.maximum(padded[right_ref], start) - start + 1
        offsets = np.cumsum(count) - count
        ends = np.arange(offsets[-1] + count[-1]) + np.repeat(start - offsets, count)
        rep = lvl[ends] if upper else np.repeat(lvl[mid], count)
        cand = (pre_end[ends] - np.repeat(pre[mid], count)) * rep + prev_end[ends]
        hits = np.flatnonzero(cand == np.repeat(reduce(cand, offsets), count))
        first = hits[np.searchsorted(hits, offsets)]
        best[mid] = cand[first]
        padded[mid + 1] = ends[first]
    close = (stop <= best) if upper else (stop >= best)
    return np.where(close, stop, best), np.where(close, -1, padded[1:] + lo)


def _fill(levels, pref, lo: int, hi: int, n_blocks: int, upper: bool):
    """Suffix DP over levels[lo..hi] for capacities 1..n_blocks.

    ``values[b][j - lo]`` is the best value of partitioning levels[j..hi]
    into at most b blocks. ``choices[b][j - lo]`` is -1 when closing one
    block over [j..hi] is optimal, otherwise the smallest optimal end ``e``
    of the block starting at j. Row 0 of both is None. Only the readers of
    :class:`Fill` read this format, and they read the top layer, b =
    n_blocks, only at its start j = lo, so that layer holds only that entry.

    Three branches share the candidate arithmetic exactly (see the module
    notes); nothing the fill returns is a view of the dense branch's
    workspace. Both numpy branches build their search only when a layer
    below the top runs, and solve the top layer's one block start by a scan
    of the dense branch's row 0, the close first.
    """
    length = hi - lo + 1
    if length >= _NUMPY_DP_THRESHOLD:
        lvl = np.asarray(levels[lo : hi + 1], dtype=float)
        pre = np.asarray(pref[lo : hi + 2], dtype=float)
        # the blocks [j..hi]: the last column of the dense branch's matrix
        stop = (pre[-1] - pre[:-1]) * (lvl[-1] if upper else lvl)
        if n_blocks == 1:
            return [None, stop[:1]], [None, np.full(1, -1)]
        values, choices = [None, stop], [None, np.full(length, -1)]
        if n_blocks > 2:
            if length >= _MONOTONE_DP_THRESHOLD:
                search = partial(_monotone_search, lvl, pre, upper, _splits(length - 1), stop, lo)
            else:
                search = partial(_dense_search, *_triangle(lvl, pre, upper, lo), upper)
            for _ in range(3, n_blocks + 1):
                best, choice = search(values[-1])
                values.append(best)
                choices.append(choice)
        # row 0: the blocks [lo..hi], then [lo..e] for e <= hi - 1
        ends = (pre[1:-1] - pre[0]) * (lvl[:-1] if upper else lvl[0]) + values[-1][1:]
        cand = np.concatenate((stop[:1], ends))
        arg = (np.argmin if upper else np.argmax)(cand)
        values.append(cand[arg : arg + 1])
        choices.append(np.full(1, arg - 1 + lo if arg else -1))
        return values, choices
    starts = range(lo, hi + 1 if n_blocks > 1 else lo + 1)
    stop = [_cell(levels, pref, j, hi, upper) for j in starts]
    values, choices = [None, stop], [None, [-1] * len(stop)]
    for b in range(2, n_blocks + 1):
        prev = values[b - 1]
        width = 1 if b == n_blocks else length
        row, choice = stop[:width], [-1] * width
        for off in range(min(width, length - 1)):
            j = lo + off
            best, arg = row[off], -1
            for e in range(j, hi):
                cand = (
                    levels[e if upper else j] * (pref[e + 1] - pref[j])
                    + prev[e + 1 - lo]
                )
                if (cand < best) if upper else (cand > best):
                    best, arg = cand, e
            row[off], choice[off] = best, arg
        values.append(row)
        choices.append(choice)
    return values, choices


class Fill:
    """One checked DP fill of levels[lo..hi] (the whole ladder when ``interval``
    is None) up to the largest of ``capacities``, and the only reader of its
    layers. It checks that ``capacities`` is not empty, then the kind, the
    interval's integer bounds and each capacity. Layer b of a fill is what a
    fill at b computes, bit for bit, so it serves every capacity up to its own."""

    __slots__ = ("levels", "upper", "lo", "hi", "pref", "values", "choices")

    def __init__(self, ladder: ValueLadder, capacities, kind: str, interval):
        caps = tuple(capacities)
        if not caps:
            raise ValueError("capacities must not be empty")
        self.upper = upper = _check_kind(kind)
        if interval is None:
            lo, hi = 0, len(ladder) - 1
        else:
            lo, hi = interval
            if not (is_integer(lo) and is_integer(hi)):
                raise TypeError(f"interval bounds must be integers, got {interval!r}")
            if not 0 <= lo <= hi < len(ladder):
                raise ValueError(f"invalid interval {interval!r} for {len(ladder)} levels")
            lo, hi = int(lo), int(hi)
        top = check_capacity(caps[0]) if len(caps) == 1 else max(map(check_capacity, caps))
        self.levels, self.lo, self.hi = ladder.levels, lo, hi
        self.pref = pref = _prefix_masses(ladder.level_masses)
        self.values, self.choices = _fill(ladder.levels, pref, lo, hi, min(top, hi - lo + 1), upper)

    def _layer(self, n) -> int:
        """Capacity ``n`` clamped to the interval length: a layer of the fill."""
        b = min(check_capacity(n), self.hi - self.lo + 1)
        if b >= len(self.values):
            raise ValueError(f"capacity {n!r} exceeds the fill's {len(self.values) - 1}")
        return b

    def value(self, n) -> float:
        """The optimal value W(n) on levels[lo..hi]."""
        return float(self.values[self._layer(n)][0])

    def cutoffs(self, n) -> tuple:
        """The lexicographically smallest optimal cutoff vector at capacity ``n``."""
        b, j, cuts = self._layer(n), self.lo, []
        while (e := int(self.choices[b][j - self.lo])) >= 0:
            cuts.append(e + 1)
            j, b = e + 1, b - 1
        return tuple(cuts)

    def capacity_values(self, n_max) -> tuple:
        """W(1..n_max); from the interval length on, W stays at its last value."""
        row = tuple(float(v[0]) for v in self.values[1 : self._layer(n_max) + 1])
        return row + row[-1:] * (int(n_max) - len(row))

    def _optimal_moves(self, capacities):
        """Start states and moves of the optimum DAG of the fill.

        A state (j, b) asks for the best partition of levels[j..hi] into at
        most b blocks; capacity n starts at (lo, min(n, hi - lo + 1)).
        ``moves`` maps every reachable state to its optimal moves: -1 when
        closing one block over [j..hi] is optimal, then every optimal end
        ``e`` of the block starting at j, ascending, which leads to state
        (e + 1, b - 1). A move is optimal when its candidate value, the
        fill's cell arithmetic, lies within ``tie_slack(|v|)`` of the
        state's suffix value v. Every optimal cutoff vector is one path.
        """
        starts = [(self.lo, self._layer(n)) for n in capacities]
        levels, pref, lo, hi, upper = self.levels, self.pref, self.lo, self.hi, self.upper
        layers = [None, *(v if isinstance(v, list) else v.tolist() for v in self.values[1:])]
        moves, todo = {}, list(starts)
        while todo:
            state = todo.pop()
            if state in moves:
                continue
            j, b = state
            best, base = layers[b][j - lo], pref[j]
            tol = tie_slack(abs(best))
            close = levels[hi if upper else j] * (pref[hi + 1] - base)
            found = [-1] if abs(close - best) <= tol else []
            if b > 1:
                reps = levels[j:hi] if upper else repeat(levels[j])
                nxt = layers[b - 1][j + 1 - lo :]
                for e, rep, p, v in zip(range(j, hi), reps, pref[j + 1 : hi + 1], nxt):
                    if abs(rep * (p - base) + v - best) <= tol:
                        found.append(e)
                        todo.append((e + 1, b - 1))
            moves[state] = found
        return starts, moves

    def optimum_sets(self, capacities) -> tuple:
        """The optimum set of each of ``capacities``: every optimal cutoff
        vector, sorted, as the paths of the optimum DAG walked depth first,
        the close first. Each set is counted before any is listed; the first,
        in capacity order, above ``MAX_ORACLE_VECTORS`` vectors raises
        :class:`OracleTooLargeError`."""
        starts, moves = self._optimal_moves(capacities)
        count = {}
        # a move leads to a later block start, so in descending order each
        # state comes after every state that it leads to
        for j, b in sorted(moves, reverse=True):
            count[j, b] = sum(1 if m < 0 else count[m + 1, b - 1] for m in moves[j, b])
        if any(count[s] > MAX_ORACLE_VECTORS for s in starts):
            raise OracleTooLargeError("too many optimal cutoff vectors to list")
        sets = []
        for start in starts:
            # depth first, the close before the block ends ascending
            found, stack = [], [(start, ())]
            while stack:
                state, cuts = stack.pop()
                if state is None:
                    found.append(cuts)
                    continue
                b = state[1] - 1
                for m in reversed(moves[state]):
                    stack.append((None, cuts) if m < 0 else ((m + 1, b), (*cuts, m + 1)))
            sets.append(tuple(found))
        return tuple(sets)

    def top_block_starts(self, n) -> list:
        """Ascending level indices where some optimal partition at capacity
        ``n`` starts its top block, ``lo`` for the one-block partition: the
        reachable DAG states that close, so no vector is listed and no size
        guard applies."""
        _, moves = self._optimal_moves((n,))
        return sorted({j for (j, _), found in moves.items() if found and found[0] < 0})


def _dp_solve(ladder: ValueLadder, n, kind: str):
    """Optimal value and lexicographically smallest optimal cutoff vector."""
    fill = Fill(ladder, (n,), kind, None)
    return fill.value(n), fill.cutoffs(n)


def capacity_values(ladder: ValueLadder, n_max, kind: str, interval=None) -> tuple:
    """Optimal bound values W(1..n_max) of the problem on levels[lo..hi] (the
    whole ladder when ``interval`` is None), read from one DP fill."""
    return Fill(ladder, (n_max,), kind, interval).capacity_values(n_max)


def optimum_sets(ladder: ValueLadder, capacities, kind: str, interval=None) -> tuple:
    """``optimum_set`` at each of ``capacities`` on levels[lo..hi] (the whole
    ladder when ``interval`` is None), from one fill at the largest."""
    caps = tuple(capacities)
    return Fill(ladder, caps, kind, interval).optimum_sets(caps)


def optimum_set(ladder: ValueLadder, n, kind: str, interval=None) -> tuple:
    """Every optimal cutoff vector of the problem on levels[lo..hi] (the whole
    ladder when ``interval`` is None), sorted, in global level indices; see
    :meth:`Fill.optimum_sets`."""
    return optimum_sets(ladder, (n,), kind, interval)[0]


def _bound_from_cuts(ladder: ValueLadder, cuts, value: float, n: int, kind: str) -> BoundResult:
    upper = kind == UPPER
    reps = []
    for blo, bhi in blocks_from_cuts(cuts, len(ladder)):
        reps.extend([ladder.levels[bhi if upper else blo]] * (bhi - blo + 1))
    return BoundResult(
        kind=kind,
        cutoffs=CutoffVector(cuts),
        bound_values=tuple(reps),
        value=value,
        exact=len(ladder) <= n,
    )


def bound(ladder: ValueLadder, n, kind: str) -> BoundResult:
    """Optimal lower or upper bound of a ladder at capacity ``n``."""
    value, cuts = _dp_solve(ladder, n, kind)
    return _bound_from_cuts(ladder, cuts, value, int(n), kind)


def bound_value(ladder: ValueLadder, n, kind: str) -> float:
    """``bound(ladder, n, kind).value``, bit for bit and with the same
    errors, without walking the cutoffs or building the result."""
    return Fill(ladder, (n,), kind, None).value(n)


def _mass_layout(key: tuple):
    """The read-only layout that :func:`bound_values` reads for one mass
    vector, ``key`` = (masses as floats, L), whose masses a ladder has
    checked: ``(ends, widths, missing)``.

    Slab k of the candidates ends its block at level ``ends[k]``: first
    L - 2 down to 0, then L - 1, the block closed to the top. ``widths[k,
    j]`` is ``pre[ends[k] + 1] - pre[j]``, the mass of the block [j..ends[k]],
    and ``missing[k, j]`` marks the blocks that end before they start. The
    layout replaces the one in ``_last_layout`` when it takes at most
    ``_LAYOUT_CACHE_BYTES``, counting its key's masses at 32 bytes each (a
    float object and the key's reference to it); a larger one is not kept.
    """
    global _last_layout
    masses, length = key
    pre = np.array(_prefix_masses(masses))
    ends = np.arange(length - 2, -2, -1)
    ends[-1] = length - 1
    layout = ends, pre[ends + 1, None] - pre[None, :-1], np.arange(length) > ends[:, None]
    for a in layout:
        a.flags.writeable = False
    if sum(a.nbytes for a in layout) + 32 * length <= _LAYOUT_CACHE_BYTES:
        _last_layout = key, layout
    return layout


def bound_values(levels, masses, n, kind: str) -> np.ndarray:
    """Bound values of many ladders that share one mass vector.

    ``levels`` is an (M, L) array of M >= 1 rows of strictly ascending finite
    levels. Entry i of the result is
    ``bound(ValueLadder(levels[i], masses), n, kind).value``, bit for bit,
    and bad rows, masses, capacities and kinds raise what those calls raise,
    in their order. The masses are read once, so any iterable of them will
    do, and checked, as the first row's ladder checks them, unless they are
    those of the layout kept from the last call (see :func:`_mass_layout`).

    Below ``_MONOTONE_DP_THRESHOLD`` levels the rows are filled together, a
    block of rows at a time, with the candidate arithmetic of the dense
    branch of :func:`_fill`. The candidates of a block of rows form an
    L x rows x L array: one slab per block end, the ends below the top in
    descending order, and last the close with its next value -0.0 (see the
    module notes). Each capacity layer is one gather of the next values,
    one add into a reused buffer and one max (min) reduction over the slabs,
    and the last layer solves only the block that starts at level 0, so at
    N <= 2 only the L x rows cells of that block are built. Equal
    candidates differ at most in the sign of a zero. Longer rows are solved
    one at a time by :func:`bound_value`, which builds no L x L array.
    """
    rows = np.asarray(levels, dtype=float)
    if rows.ndim != 2 or not len(rows):
        raise ValueError(f"levels must be an (M, L) array with M >= 1, got shape {rows.shape}")
    rows = np.ascontiguousarray(rows)  # each row's levels adjacent, as the fill reads them
    length = rows.shape[1]
    masses = tuple(map(float, masses))
    key = masses, length
    kept, layout = _last_layout
    if kept != key:
        ValueLadder(rows[0], masses)  # the checks of row 0 and of the masses
        layout = None
    # a bad row raises what its ladder raises: row 0 before the kind and the
    # capacity, as bound meets them, and the first later one after
    ascending = (rows[:, :-1] < rows[:, 1:]).all(axis=1)
    bad = ~(ascending & np.isfinite(rows[:, 0]) & np.isfinite(rows[:, -1]))
    if bad[0]:
        ValueLadder(rows[0], masses)
    upper = _check_kind(kind)
    n = check_capacity(n)
    if bad.any():
        ValueLadder(rows[np.argmax(bad)], masses)
    if length >= _MONOTONE_DP_THRESHOLD:
        return np.array([bound_value(ValueLadder(row, masses), n, kind) for row in rows])
    ends, widths, missing = layout or _mass_layout(key)
    n_blocks = min(n, length)
    if n_blocks == 1:
        return widths[-1, 0] * rows[:, -1 if upper else 0]
    after = ends + 1
    reduce = np.minimum.reduce if upper else np.maximum.reduce
    cols = length if n_blocks > 2 else 1
    step = max(1, _BATCH_BYTES // (16 * length * max(1, length - 1)))
    out = np.empty(len(rows))
    for start in range(0, len(rows), step):
        lvl = rows[start : start + step]
        # the layer below, with the close's -0.0 last, and each slab's levels
        value = np.empty((len(lvl), length + 1))
        value[:, -1] = -0.0
        np.multiply(widths[-1], lvl[:, -1:] if upper else lvl, out=value[:, :-1])
        cells = widths[:, None, :cols] * (lvl.T[ends, :, None] if upper else lvl[:, :cols])
        nxt = np.empty((len(lvl), length))
        if n_blocks > 2:
            np.copyto(cells, inf if upper else -inf, where=missing[:, None])
            cand = np.empty_like(cells)
            for _ in range(2, n_blocks):
                np.take(value, after, axis=1, out=nxt)
                reduce(np.add(cells, nxt.T[:, :, None], out=cand), axis=0, out=value[:, :-1])
        np.take(value, after, axis=1, out=nxt)
        out[start : start + step] = reduce(cells[:, :, 0] + nxt.T, axis=0)
    return out


def siminf(ladder: ValueLadder, n) -> BoundResult:
    """Best expected value of an at-most-``n``-valued act below the ladder."""
    return bound(ladder, n, LOWER)


def simsup(ladder: ValueLadder, n) -> BoundResult:
    """Least expected value of an at-most-``n``-valued act above the ladder.

    Equals the negation dual of :func:`siminf` applied to the negated ladder.
    """
    return bound(ladder, n, UPPER)


def enumerate_cut_vectors(length: int, n: int):
    """All ascending cutoff vectors describing at most ``n`` blocks."""
    for b in range(min(n, length)):
        yield from combinations(range(1, length), b)


def _edge_chunks(length: int, width: int):
    """The block-edge table of every cutoff vector of at most ``width``
    blocks, in :func:`enumerate_cut_vectors` order, in chunks of
    ``_EDGE_CHUNK_ROWS`` rows (the last may be shorter).

    A vector's row holds its block edges ``0, c1, ..., length``, padded with
    ``length`` to ``width + 1`` columns, in uint8, which the level guard
    keeps in range. Each chunk comes with its cell indices:
    ``index[k, r] = s * (length + 1) + e`` for block ``k`` of row ``r``,
    ``[s, e)``, in the platform index type, which numpy gathers with several
    times faster than with uint8.
    """
    vectors = enumerate_cut_vectors(length, width)
    pending, count = [], 0
    for b in range(width):
        left = comb(length - 1, b)
        while left:
            rows = min(left, _EDGE_CHUNK_ROWS - count)
            part = np.full((rows, width + 1), length, dtype=np.uint8)
            part[:, 0] = 0
            # read to the end of the slice, which holds rows vectors even when b = 0
            part[:, 1 : b + 1] = np.fromiter(
                chain.from_iterable(islice(vectors, rows)), np.uint8
            ).reshape(rows, b)
            pending.append(part)
            count += rows
            left -= rows
            if count == _EDGE_CHUNK_ROWS or (b == width - 1 and not left):
                edges = np.concatenate(pending)
                cols = edges.T.astype(np.intp)
                yield edges, cols[:-1] * (length + 1) + cols[1:]
                pending, count = [], 0


def _edge_table(length: int, width: int):
    """The chunks of :func:`_edge_chunks`, cached when they fit.

    A table of at most ``_EDGE_CACHE_BYTES`` is built once and kept, and the
    oldest tables are dropped to keep the cache within that bound; a larger
    table is built again, one chunk at a time, on every call.
    """
    key = (length, width)
    if key in _edge_tables:
        return _edge_tables[key]
    rows = sum(comb(length - 1, b) for b in range(width))
    size = rows * (width + 1 + width * np.dtype(np.intp).itemsize)
    if size > _EDGE_CACHE_BYTES:
        return _edge_chunks(length, width)
    while _edge_cache_bytes() + size > _EDGE_CACHE_BYTES:
        del _edge_tables[next(iter(_edge_tables))]
    table = _edge_tables[key] = list(_edge_chunks(length, width))
    return table


def _edge_cache_bytes() -> int:
    return sum(a.nbytes for table in _edge_tables.values() for chunk in table for a in chunk)


def _enumerate_raw(levels, masses, n: int, upper: bool):
    """Exhaustive optimum over all levels: returns (value, optima) where
    optima holds every optimal cutoff vector, sorted.

    Each row of the block-edge table is one cutoff vector. Its total adds
    the cells of its blocks in block order, starting from 0.0, which is the
    sum :func:`coarse_value` forms; a padded block ``[length, length)`` has
    zero mass and adds an exact zero. As in a loop over the vectors, the
    value is the first optimal total and every row that equals it is an
    optimum. The level guard bounds the vectors enumerated at
    ``2^(MAX_ORACLE_LEVELS - 1)``, the count of all cutoff vectors of
    ``MAX_ORACLE_LEVELS`` levels.
    """
    length = len(levels)
    if length > MAX_ORACLE_LEVELS:
        raise OracleTooLargeError(f"{length} levels exceed the oracle guard")
    width = min(n, length)
    pre = np.array(_prefix_masses(masses))
    # cells[s * (length + 1) + e] = value of the block [s, e): level[e - 1]
    # or level[s] times its mass; the padded level meets only empty blocks
    rep = np.array([levels[-1], *levels])[None, :] if upper else np.array([*levels, 0.0])[:, None]
    best, optima = None, []
    with np.errstate(all="ignore"):
        cells = (rep * (pre[None, :] - pre[:, None])).ravel()
        for edges, index in _edge_table(length, width):
            blocks = cells.take(index)
            total = 0.0 + blocks[0]
            for cell in blocks[1:]:
                total += cell
            top = (np.min if upper else np.max)(total)
            if best is None or ((top < best) if upper else (top > best)):
                hits = np.flatnonzero(total == top)
                best, optima = float(total[hits[0]]), edges[hits].tolist()
            elif top == best:
                optima += edges[total == best].tolist()
    return best, sorted(tuple(row[1 : row.index(length)]) for row in optima)


def brute_force_bound(ladder: ValueLadder, n, kind: str) -> OracleResult:
    """Independent exhaustive oracle for :func:`bound` on small ladders."""
    upper = _check_kind(kind)
    n = check_capacity(n)
    value, optima = _enumerate_raw(ladder.levels, ladder.level_masses, n, upper)
    return OracleResult(
        bound=_bound_from_cuts(ladder, optima[0], value, n, kind),
        optima=tuple(optima),
    )


def pull_back(result: BoundResult, act: DiscreteAct, belief: Belief) -> PullBackResult:
    """Map a ladder bound back to a per-state act.

    Positive-mass states take their ladder level's bound value. Zero-mass
    states take the nearest bound value on the dominated side; when none
    exists the state is flagged as an unavoidable dominance violation.
    """
    ladder = build_ladder(act, belief)
    if len(result.bound_values) != len(ladder):
        raise PreconditionError("bound does not match the act/belief ladder")
    upper = result.kind == UPPER
    level_index = {v: i for i, v in enumerate(ladder.levels)}
    distinct_bounds = sorted(set(result.bound_values))
    values = []
    violations = []
    for sid, v, m in zip(act.state_ids, act.values, belief.masses):
        if m > 0.0:
            values.append(result.bound_values[level_index[v]])
            continue
        # the least bound >= v (upper) or the greatest bound <= v (lower)
        i = bisect_left(distinct_bounds, v) if upper else bisect_right(distinct_bounds, v) - 1
        if not 0 <= i < len(distinct_bounds):
            violations.append(sid)
            i = min(max(i, 0), len(distinct_bounds) - 1)
        values.append(distinct_bounds[i])
    return PullBackResult(
        act=DiscreteAct(act.state_ids, values), violations=tuple(violations)
    )


def perceived_distribution(ladder: ValueLadder, n, attitude: str) -> PerceivedDistribution:
    """Atoms at block representatives with block masses.

    A cautious agent perceives each block at its minimum level, a reckless
    agent at its maximum; the expectation equals the corresponding bound
    value, and the original ladder dominates (is dominated by) the cautious
    (reckless) perception in the first-order stochastic sense.
    """
    fill = Fill(ladder, (n,), attitude_kind(attitude), None)
    blocks = blocks_from_cuts(fill.cutoffs(n), len(ladder))
    support = tuple(ladder.levels[hi if fill.upper else lo] for lo, hi in blocks)
    masses = tuple(fill.pref[hi + 1] - fill.pref[lo] for lo, hi in blocks)
    return PerceivedDistribution(support, masses)


def attitude_kind(attitude) -> str:
    """Map an attitude (enum or string) to the bound kind it evaluates."""
    name = getattr(attitude, "value", attitude)
    if name == "cautious":
        return LOWER
    if name == "reckless":
        return UPPER
    raise ValueError(f"attitude must be 'cautious' or 'reckless', got {attitude!r}")
