"""Eigendecomposition frames and pseudoinverse powers, as oracles.

The library whitens a graph's Laplacian with its grounded Cholesky
factor (``laplacian_frame``) and never eigendecomposes it.  This module
reads the same objects off ``eig_sym`` instead, so the Cholesky route
has an independent check and raw matrices can be fed to the pencil:
``normalized_pencil`` takes a frame ``M`` with ``M^T A M = I`` off the
null space of ``A`` (the ones vector, for a connected graph's
Laplacian), and ``eig_frame`` builds it as ``M = U_r
diag(lambda_r)^-1/2`` over the numerical range.

That range is the one eigenvalue cutoff left in the project:
eigenvalues at or below ``n * 2.2e-16`` times the largest count as zero.
"""

from __future__ import annotations

import numpy as np

from treespark.spectral import eig_sym


def zero_cutoff(vals: np.ndarray) -> float:
    """``n * 2.2e-16 * lambda_max`` of nondecreasing eigenvalues ``vals``."""
    return len(vals) * 2.2e-16 * max(float(vals[-1]), 0.0)


def eig_frame(a: np.ndarray) -> np.ndarray:
    """``U_r diag(lambda_r)^-1/2`` of a symmetric PSD matrix."""
    vals, vecs = eig_sym(a)
    keep = vals > zero_cutoff(vals)
    return vecs[:, keep] * (1.0 / np.sqrt(vals[keep]))


def pinv_power(dec: tuple[np.ndarray, np.ndarray], power: float) -> np.ndarray:
    """``A^-power`` on the numerical range of a PSD ``A``, zero on its null space.

    ``dec`` is ``eig_sym(A)``.  ``power = 1`` gives the pseudoinverse and
    ``power = 0.5`` the inverse square root.  Eigenvalues at or below
    the zero cutoff map to 0; eigenvalues more negative than the cutoff
    are rejected because the matrix was supposed to be positive
    semidefinite.
    """
    vals, vecs = dec
    cutoff = zero_cutoff(vals)
    if float(vals[0]) < -max(cutoff, 1e-300):
        raise ValueError(
            f"matrix has a negative eigenvalue {float(vals[0]):g} beyond the zero cutoff"
        )
    keep = vals > cutoff
    inv = np.zeros_like(vals)
    inv[keep] = 1.0 / vals[keep] ** power
    return (vecs * inv) @ vecs.T
