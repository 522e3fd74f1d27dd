"""Paths between equal-size partitions through two-cell moves.

Any two ``N``-cell partitions of a finite set are connected by a sequence of
``N``-cell partitions in which consecutive elements differ on at most two
cells, every element coarsens the common refinement of the endpoints, and no
element repeats.

Two kinds of steps suffice. The *move* step applies when some current cell
holds a proper piece of a target cell that another current cell also meets:
shifting the piece into that neighbor strictly reduces the number of
(current cell, target cell) incidences. When no move is available, the
current partition decomposes into whole-cell unions on both sides; then some
target cell is a union of two or more current cells while some current cell
is a union of two or more target cells, and a *merge/split* pair of steps
(routing a target piece through a transitional cell) strictly increases the
number of cells shared with the target. Cells already equal to target cells
are never touched, so the sequence cannot cycle and its length is bounded by
the squared size of the common refinement.
"""

from __future__ import annotations

from .errors import AlignmentError


def _canon(partition) -> frozenset:
    cells = [frozenset(cell) for cell in partition]
    if any(len(c) == 0 for c in cells):
        raise ValueError("partition cells must be non-empty")
    return frozenset(cells)


def _sorted_cells(partition) -> list:
    return sorted(partition, key=lambda c: sorted(c))


def _validate_pair(tau, tau_prime):
    tau, tau_prime = _canon(tau), _canon(tau_prime)
    ground = frozenset().union(*tau)
    ground_prime = frozenset().union(*tau_prime)
    covered = sum(len(c) for c in tau)
    covered_prime = sum(len(c) for c in tau_prime)
    if covered != len(ground) or covered_prime != len(ground_prime):
        raise ValueError("cells must be pairwise disjoint")
    if ground != ground_prime:
        raise AlignmentError("partitions cover different ground sets")
    if len(tau) != len(tau_prime):
        raise AlignmentError(f"cell counts differ: {len(tau)} vs {len(tau_prime)}")
    return tau, tau_prime


def common_refinement(tau, tau_prime) -> frozenset:
    """Non-empty pairwise intersections of cells from the two partitions."""
    pieces = set()
    for a in tau:
        for b in tau_prime:
            piece = a & b
            if piece:
                pieces.add(frozenset(piece))
    return frozenset(pieces)


def partition_path(tau, tau_prime) -> list:
    """A sequence of same-size partitions from ``tau`` to ``tau_prime``.

    Consecutive partitions differ on at most two cells; every partition
    coarsens ``tau v tau_prime``; nothing repeats. Raises if the inputs do
    not partition the same ground set into the same number of cells.
    """
    tau, tau_prime = _validate_pair(tau, tau_prime)
    path = [tau]
    current = tau
    max_steps = len(common_refinement(tau, tau_prime)) ** 2 + 1
    while current != tau_prime:
        steps = _next_steps(current, tau_prime)
        for step in steps:
            path.append(step)
        current = path[-1]
        if len(path) > max_steps:  # pragma: no cover - guarded by the potential
            raise AssertionError("partition path exceeded its step bound")
    return path


def _next_steps(current, target) -> list:
    move = _move_step(current, target)
    if move is not None:
        return [move]
    return _merge_split_steps(current, target)


def _move_step(current, target):
    """Shift a proper straddling piece into a neighbor meeting the same
    target cell, or return None when no such configuration exists."""
    cells = _sorted_cells(current)
    for t_cell in _sorted_cells(target):
        for cell in cells:
            piece = cell & t_cell
            if not piece or piece == cell:
                continue
            for other in cells:
                if other is not cell and other & t_cell:
                    rest = [c for c in cells if c is not cell and c is not other]
                    return frozenset([*rest, cell - piece, other | piece])
    return None


def _merge_split_steps(current, target) -> list:
    """Two steps routing a target piece through a transitional cell.

    Applicable whenever no move step exists and the partitions differ: every
    cell of one partition is then a union of whole cells of the other, some
    target cell ``wide`` contains current cells ``a`` and ``b``, and some
    current cell ``host`` strictly contains a target cell ``piece``. The
    first step hands ``piece`` to ``b`` (touching ``b`` and ``host``); the
    second fuses ``a`` into ``b`` and releases ``piece`` as its own cell
    (touching ``a`` and the transitional cell).
    """
    cells = _sorted_cells(current)
    wide_members = None
    for t_cell in _sorted_cells(target):
        inside = [c for c in cells if c <= t_cell]
        if len(inside) >= 2:
            wide_members = inside[:2]
            break
    host = piece = None
    for cell in cells:
        for t_cell in _sorted_cells(target):
            if t_cell < cell:
                host, piece = cell, t_cell
                break
        if host is not None:
            break
    if wide_members is None or host is None:  # pragma: no cover
        raise AssertionError("no straddling piece found although partitions differ")
    a, b = wide_members
    rest = [c for c in cells if c not in (a, b, host)]
    first = frozenset([*rest, a, b | piece, host - piece])
    second = frozenset([*rest, a | b, piece, host - piece])
    return [first, second]
