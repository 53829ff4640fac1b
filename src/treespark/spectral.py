"""Dense symmetric eigen-utilities: eigensolving, relative condition
numbers of Laplacian pencils and PSD order tests.

No eigenvalue is thresholded here: the pencil reads a whitening frame of
L_G and the PSD order test decides on the spectrum of ``B - A``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PSD_TOL = 1e-9


def _check_symmetric(a: np.ndarray) -> float:
    """Reject a non-finite or asymmetric ``a``; return its largest absolute entry."""
    scale = float(np.maximum(a.max(), -a.min())) if a.size else 1.0
    if not math.isfinite(scale):
        raise ValueError("matrix has a non-finite entry")
    diff = a - a.T
    skew = float(np.abs(diff, out=diff).max()) if a.size else 0.0
    if skew > 1e-12 * max(scale, 1e-300):
        raise ValueError(f"matrix is not symmetric: max |A - A^T| = {skew:g}")
    return scale


def eig_sym(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix via LAPACK.

    Returns numpy's ``(eigenvalues, eigenvectors)`` pair, eigenvalues
    nondecreasing.  The input must be symmetric to relative 1e-12; it is
    symmetrised before the solve so tiny asymmetries cannot leak into
    the result.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    _check_symmetric(a)
    return np.linalg.eigh((a + a.T) / 2.0)


def normalized_pencil(scaled: np.ndarray, lap_h: np.ndarray) -> tuple[float, float]:
    """Extreme eigenvalues of ``lap_h`` relative to ``L_G``, given as a frame of ``L_G``.

    ``scaled`` is a frame ``M`` with ``M^T L_G M = I`` on the complement
    of the ones vector, which spans the null space of ``L_G``, as
    :func:`treespark.leverage.laplacian_frame` returns it.  Conjugating
    ``lap_h`` by ``M`` restricts the pencil to that complement, so the
    null space is deflated explicitly instead of trusting a tiny
    eigenvalue; ``lap_h`` must vanish on the ones vector.  Returns
    ``(lambda_min_pos, lambda_max)``; the pair is ``(1, 1)`` exactly
    when the two matrices agree off the null space.  A rank-deficient
    ``lap_h`` reports ``lambda_min_pos = 0`` rather than raising.
    """
    lap_h = np.asarray(lap_h, dtype=np.float64)
    h_scale = max(_check_symmetric(lap_h), 1.0)
    if not scaled.shape[1]:
        raise ValueError("left Laplacian is identically zero")
    leak = float(np.abs(lap_h.sum(axis=1)).max()) / math.sqrt(len(scaled))
    if leak > 1e-8 * h_scale:
        raise ValueError("right Laplacian does not vanish on the null space of the left")
    core = scaled.T @ lap_h @ scaled
    core += core.T
    core *= 0.5
    vals = np.linalg.eigvalsh(core)
    return float(vals[0]), float(vals[-1])


@dataclass(frozen=True)
class PsdOrderVerdict:
    """Outcome of a PSD order test ``A <= B``.

    ``witness_gap`` is the smallest eigenvalue of ``B - A``; it reads 0
    on a common null space of the two inputs.  ``scale`` is the larger
    operator norm (floored at 1) that verdicts are measured against.
    """

    holds: bool
    witness_gap: float
    scale: float


def _opnorm(a: np.ndarray):
    """Spectral norm of a symmetric matrix, or of each matrix in a stack.

    A single matrix gives a float, a ``(..., n, n)`` stack an array of
    norms from one batched ``eigvalsh``; empty matrices have norm 0.
    """
    if a.size == 0:
        norms = np.zeros(a.shape[:-2])
    else:
        norms = np.abs(np.linalg.eigvalsh(a)).max(axis=-1)
    return float(norms) if norms.ndim == 0 else norms


def psd_leq(a: np.ndarray, b: np.ndarray) -> PsdOrderVerdict:
    """Test ``a <= b`` in the PSD order, scale-invariantly.

    Holds iff the witness gap is at least ``-PSD_TOL * scale`` with
    ``scale = max(opnorm(a), opnorm(b), 1)``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    _check_symmetric(a)
    _check_symmetric(b)
    scale = max(_opnorm(a), _opnorm(b), 1.0)
    gap = float(np.linalg.eigvalsh(b - a)[0])
    return PsdOrderVerdict(gap >= -PSD_TOL * scale, gap, scale)


def check_symmetric_triangle(a: np.ndarray, b: np.ndarray) -> bool:
    """Verify ``(a - b)^2 <= 2 a^2 + 2 b^2`` for symmetric a, b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    diff = a - b
    return psd_leq(diff @ diff, 2.0 * a @ a + 2.0 * b @ b).holds
