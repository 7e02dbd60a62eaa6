"""The seeded test-data generators of ``_helpers``."""

import numpy as np

from _helpers import random_state, random_symplectic
from bosonic_telesim import symplectic_form


class TestRandomGenerators:
    def test_random_symplectic_residual(self, rng):
        om = {1: symplectic_form(1), 2: symplectic_form(2)}
        for n in (1, 2):
            for _ in range(100):
                s = random_symplectic(n, rng)
                assert np.max(np.abs(s @ om[n] @ s.T - om[n])) <= 1e-10

    def test_random_state_is_valid(self, rng):
        for n in (1, 2):
            state = random_state(n, rng, displace=1.0)
            assert np.min(state.symplectic_spectrum()) >= 1.0 - 1e-9
