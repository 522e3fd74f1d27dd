"""Partition-path tests: step validity, termination bound, and edge cases."""

import numpy as np
import pytest

from coarse_bounds.errors import AlignmentError
from coarse_bounds.partitions import common_refinement, partition_path


def step_differences(p, q) -> int:
    """Number of cells of ``p`` not present in ``q``."""
    return len(frozenset(p) - frozenset(q))


def is_coarsening_of(partition, pieces) -> bool:
    """True when every cell is a union of the given refinement pieces."""
    for cell in partition:
        rest = set(cell)
        for piece in pieces:
            if piece <= rest:
                rest -= piece
        if rest:
            return False
    return True


def check_path(tau, tau_prime, path):
    pieces = common_refinement(tau, tau_prime)
    assert path[0] == frozenset(frozenset(c) for c in tau)
    assert path[-1] == frozenset(frozenset(c) for c in tau_prime)
    assert len(path) <= len(pieces) ** 2 + 1
    assert len(set(path)) == len(path), "path repeats a partition"
    n = len(tau)
    for p in path:
        assert len(p) == n
        assert is_coarsening_of(p, pieces)
    for a, b in zip(path, path[1:]):
        assert step_differences(a, b) <= 2


def random_partition(rng, ground, n):
    labels = rng.integers(0, n, size=len(ground))
    while len(set(labels.tolist())) < n:
        labels = rng.integers(0, n, size=len(ground))
    cells = {}
    for x, lab in zip(ground, labels.tolist()):
        cells.setdefault(lab, set()).add(x)
    return [frozenset(c) for c in cells.values()]


class TestPartitionPath:
    def test_identical_partitions(self):
        tau = [{1, 2}, {3, 4}]
        path = partition_path(tau, tau)
        assert len(path) == 1

    def test_two_by_two_crossing(self):
        tau = [{1, 2}, {3, 4}]
        tau_prime = [{1, 3}, {2, 4}]
        path = partition_path(tau, tau_prime)
        check_path(tau, tau_prime, path)

    def test_swallowing_target_cell(self):
        # a target cell strictly containing several current cells
        tau = [{1}, {2}, {3}, {4, 5, 6}]
        tau_prime = [{1, 2, 3}, {4}, {5}, {6}]
        path = partition_path(tau, tau_prime)
        check_path(tau, tau_prime, path)

    def test_errors(self):
        with pytest.raises(AlignmentError):
            partition_path([{1, 2}], [{1}, {2}])
        with pytest.raises(AlignmentError):
            partition_path([{1}, {2}], [{1}, {3}])
        with pytest.raises(ValueError):
            partition_path([{1}, set()], [{1}, set()])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_randomized_pairs(self, n):
        rng = np.random.default_rng(100 + n)
        ground = list(range(8))
        for _ in range(200):
            tau = random_partition(rng, ground, n)
            tau_prime = random_partition(rng, ground, n)
            path = partition_path(tau, tau_prime)
            check_path(tau, tau_prime, path)
