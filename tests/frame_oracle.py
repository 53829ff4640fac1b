"""Whitening frames from an eigendecomposition, as the pencil's oracle.

``normalized_pencil`` takes a frame ``(M, U_0)`` with ``M^T A M = I`` off
the null space of ``A`` and ``U_0`` spanning that null space.  The
library builds it from the grounded Cholesky factor of a graph's
Laplacian (``laplacian_frame``); this module builds it from ``eig_sym``
instead, ``M = U_r diag(lambda_r)^-1/2`` over the eigenvalues above the
zero cutoff, so raw matrices can be fed to the pencil and the Cholesky
frame has an independent check.
"""

from __future__ import annotations

import numpy as np

from treespark.spectral import eig_sym


def eig_frame(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(U_r diag(lambda_r)^-1/2, U_0)`` of a symmetric PSD matrix."""
    dec = eig_sym(a)
    keep = dec.keep
    return dec.basis[:, keep] * (1.0 / np.sqrt(dec.eigenvalues[keep])), dec.basis[:, ~keep]
