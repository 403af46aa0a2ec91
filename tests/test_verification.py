"""The verification suites: what they accept, and what they must still reject."""

import dataclasses

import numpy as np
import pytest

from preview_lqr import verification


def sandwich_instance():
    # Instance 9 of ``verify --seed 2479536241``: its pass 6 freezes at
    # exactly (Qbar_max, Rbar_max), so that pass's tail converges to Pbar.
    # The float Pbar is off by about 7e-13 relative to ||Pbar||_2 = 4,132,
    # which shows as an absolute slack of -2.8e-9; in 50 digits the true
    # slack is +4.8e-24.
    return verification._instances(2479536241, 10)[9]


class TestValueSandwich:
    def test_pbar_round_off_passes(self):
        result = verification.value_sandwich_suite([sandwich_instance()])
        assert result.passed, result.detail

    @pytest.mark.parametrize("side", ["floor", "ceiling"])
    def test_loewner_violation_fails(self, side):
        inst = sandwich_instance()
        c = inst.constants
        delta = 1e-6 * np.linalg.norm(c.Pbar_max, 2) * np.eye(inst.sys.n)
        P = inst.P.copy()
        P[3, 5] = c.Qbar_min - delta if side == "floor" else c.Pbar_max + delta
        result = verification.value_sandwich_suite([dataclasses.replace(inst, P=P)])
        assert not result.passed
        assert float(result.detail.split()[-1]) == pytest.approx(-1e-6, rel=1e-6)
