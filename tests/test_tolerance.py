"""The one rule for ``tol``: None, or a real number (not a bool) in
``[0, 0.5)``, where the tau = 0 and tau = 1 bands of the classification
meet.  ``symplectic._checked`` owns it, and every function that takes
``tol`` meets it there first; ``is_symplectic``, ``SymplecticMatrix`` and
``GaussianState.is_pure`` keep tolerances of their own."""

import math

import numpy as np
import pytest

import bosonic_telesim as bt
from bosonic_telesim import CanonicalClass, DomainError, ValidationError

LOSS = bt.canonical_channel(bt.form_from_fields(CanonicalClass.C_Att, tau=0.5, nbar=0.5))
CM = np.diag([2.0, 2.0])

CONSUMERS = {
    "classify": lambda tol: bt.classify(LOSS, tol),
    "validate_channel": lambda tol: bt.validate_channel(LOSS, tol),
    "decide_uniform": lambda tol: bt.decide_uniform(LOSS, tol=tol),
    "diamond_upper_bound": lambda tol: bt.diamond_upper_bound(LOSS, 10.0, tol=tol),
    "convergence_scan": lambda tol: bt.convergence_scan(LOSS, [2.0, 10.0], tol=tol),
    "epsilon_tp_bound": lambda tol: bt.epsilon_tp_bound(3, 10.0, LOSS, "uniform", tol=tol),
    "corrected_key_bound": lambda tol: bt.corrected_key_bound(LOSS, 100, 0.1, 1e3, tol=tol),
    "symplectic_eigenvalues": lambda tol: bt.symplectic_eigenvalues(CM, tol=tol),
    "williamson": lambda tol: bt.williamson(CM, tol=tol),
}
MESSAGE = r"tolerance must be (None or )?a real number"


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -5e-324, 0.5, 0.7,
                                 1.0, True, False, "1e-9", 1e-9j, [1e-9],
                                 np.float64(math.nan), np.float32(0.5)], ids=repr)
@pytest.mark.parametrize("name", sorted(CONSUMERS))
def test_bad_tol_raises_domain_error(name, tol):
    with pytest.raises(DomainError, match=MESSAGE):
        CONSUMERS[name](tol)


@pytest.mark.parametrize("tol", [None, 0.0, 0, 1e-12, 1e-6, 0.49, np.float64(1e-9)], ids=repr)
@pytest.mark.parametrize("name", sorted(CONSUMERS))
def test_tol_in_range_accepted(name, tol):
    CONSUMERS[name](tol)


def test_nan_tol_no_longer_skips_the_symmetry_check():
    # NaN compares false with every deviation, so the check of a NaN tol
    # passed this V, which the default rejects; now the tol itself fails
    v = [[2.0, 1.0], [0.0, 2.0]]
    with pytest.raises(ValidationError, match="not symmetric"):
        bt.symplectic_eigenvalues(v)
    with pytest.raises(DomainError, match=MESSAGE):
        bt.symplectic_eigenvalues(v, tol=math.nan)


def test_tolerances_of_their_own_keep_their_rules():
    assert bt.is_symplectic(np.eye(2), tol=1.0)
    assert bt.SymplecticMatrix(np.eye(2), tol=0.7).s.shape == (2, 2)
    assert bt.thermal_state(1.2).is_pure(tol=0.7)
