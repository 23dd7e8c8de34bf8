"""Dense reference kernels that serve the tests as oracles only."""

import numpy as np

from fwlab import FWLabError, Spectrum, frobenius
from fwlab.algebra import NORM_FLOOR

# Eigenvalues above -PSD_RTOL * ||A||_F count as nonnegative.
PSD_RTOL = 1e-12


class NotPositiveSemidefinite(FWLabError):
    """Square-root operand has an eigenvalue below the negative tolerance."""


def principal_sqrt(a, *, psd_rtol: float = PSD_RTOL):
    """Principal (positive) root R, R @ R = a, of a Hermitian PSD matrix or Spectrum.

    Eigenvalues down to -psd_rtol * ||a||_F are rounding noise and clamp to
    zero; below that NotPositiveSemidefinite is raised.
    """
    a = Spectrum.of(a)
    floor = -psd_rtol * max(frobenius(a.matrix), NORM_FLOOR)
    if a.w[0] < floor:
        raise NotPositiveSemidefinite(f"smallest eigenvalue {a.w[0]:.3e} "
                                      f"is below tolerance {floor:.3e}")
    return a.apply(lambda w: np.sqrt(np.clip(w, 0.0, None)))
