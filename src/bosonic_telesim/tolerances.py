"""Default numerical tolerances, overridable per call throughout the API."""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class Tolerances:
    """Bundle of the tolerances used by validation and classification.

    symmetry      bound on |M - M^T| entries, relative to s = max(1, max|M|)
    symplectic    absolute bound on |S Omega S^T - Omega| entries
    uncertainty   V + i Omega (a CM) or N + i (1 - det T) Omega (a channel)
                  has no eigenvalue below -e, e = max(uncertainty, 64 eps s):
                  the tolerance at unit scale, the eigenvalue's roundoff
                  beyond (a closed form within about eps s for 2x2, one
                  eigvalsh within a few eps s for 4x4); in
                  a CM's thermal frame that is nu_min >= 1 - e, and
                  single-mode squeezing r widens the band by at most
                  (r^2 + r^-2) / 2
    rank          singular values below rank * max(s_max, 1) count as zero
    tau_boundary  |tau| <= tau_boundary is tau = 0; |tau - 1| likewise tau = 1
    """

    symmetry: float = 1e-12
    symplectic: float = 1e-10
    uncertainty: float = 1e-9
    rank: float = 1e-10
    tau_boundary: float = 1e-9

    @classmethod
    def uniform(cls, tol: float) -> "Tolerances":
        """All fields set to a single value (CLI --tol / env-var override)."""
        return cls(symmetry=tol, symplectic=tol, uncertainty=tol,
                   rank=tol, tau_boundary=tol)


DEFAULT = Tolerances()
