"""Acceptance gate: every release criterion at its stated scale and
tolerance, one pass/fail line printed per criterion.

Criteria 1-9 run through the shared suite implementations; criterion 10
runs the full `accept` command in two concurrent subprocesses and compares
bytes.
"""

import subprocess
import sys

from coarse_bounds import acceptance as acc

_RESULTS = {}


def _check(result):
    _RESULTS[result.number] = result
    print(result.line())
    assert result.passed, result.line()


class TestAcceptance:
    def test_criterion_1_oracle_equivalence(self):
        _check(acc.criterion_oracle_equivalence(seed=0))

    def test_criterion_2_structural_invariants(self):
        _check(acc.criterion_structural_invariants(seed=0))

    def test_criterion_3_lattice_suite(self):
        _check(acc.criterion_lattice_suite(seed=0))

    def test_criterion_4_perceived_distributions(self):
        _check(acc.criterion_perceived_distributions(seed=0))

    def test_criterion_5_learning(self):
        _check(acc.criterion_learning(seed=0))

    def test_criterion_6_insurance(self):
        _check(acc.criterion_insurance(seed=0))

    def test_criterion_7_portfolio(self):
        _check(acc.criterion_portfolio(seed=0))

    def test_criterion_8_contracting(self):
        _check(acc.criterion_contracting(seed=0))

    def test_criterion_9_preferences(self):
        _check(acc.criterion_preferences(seed=0))

    def test_criterion_10_deterministic_accept_run(self, tmp_path):
        # two full CLI invocations with the same seed must agree byte-wise;
        # neither reads the other's output, so they run at the same time
        targets = [tmp_path / name for name in ("r1.txt", "r2.txt")]
        runs = [
            subprocess.Popen(
                [sys.executable, "-m", "coarse_bounds", "accept",
                 "--suite", "all", "--seed", "0", "--out", str(target)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for target in targets
        ]
        outputs = [run.communicate() for run in runs]
        for run, (_, err) in zip(runs, outputs):
            assert run.returncode == 0, err.decode()
        reports = [target.read_bytes() for target in targets]
        assert reports[0] == reports[1]
        print("[PASS] criterion 10: determinism: full accept runs byte-identical")
