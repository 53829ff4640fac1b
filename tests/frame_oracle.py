"""Eigendecomposition frames and pseudoinverse powers, as oracles.

The library whitens a graph's Laplacian with its grounded Cholesky
factor (``laplacian_frame``) and never eigendecomposes it.  This module
reads the same objects off ``eig_sym`` instead, so the Cholesky route
has an independent check and raw matrices can be fed to the pencil:
``normalized_pencil`` takes a frame ``(M, U_0)`` with ``M^T A M = I``
off the null space of ``A`` and ``U_0`` spanning that null space, and
``eig_frame`` builds it as ``M = U_r diag(lambda_r)^-1/2`` over the
eigenvalues above the zero cutoff.
"""

from __future__ import annotations

import numpy as np

from treespark.spectral import SpectralDecomposition, eig_sym


def eig_frame(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(U_r diag(lambda_r)^-1/2, U_0)`` of a symmetric PSD matrix."""
    dec = eig_sym(a)
    keep = dec.keep
    return dec.basis[:, keep] * (1.0 / np.sqrt(dec.eigenvalues[keep])), dec.basis[:, ~keep]


def pinv_power(dec: SpectralDecomposition, power: float) -> np.ndarray:
    """``A^-power`` on the numerical range of a PSD ``A``, zero on its null space.

    ``power = 1`` gives the pseudoinverse and ``power = 0.5`` the inverse
    square root.  Eigenvalues at or below the zero cutoff map to 0;
    eigenvalues more negative than the cutoff are rejected because the
    matrix was supposed to be positive semidefinite.
    """
    vals = dec.eigenvalues
    if float(vals[0]) < -max(dec.zero_cutoff, 1e-300):
        raise ValueError(
            f"matrix has a negative eigenvalue {float(vals[0]):g} beyond the zero cutoff"
        )
    inv = np.zeros_like(vals)
    inv[dec.keep] = 1.0 / vals[dec.keep] ** power
    return (dec.basis * inv) @ dec.basis.T
