"""Dense symmetric eigen-utilities: decompositions, relative condition
numbers of Laplacian pencils and PSD order tests."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (nondecreasing) and orthonormal eigenbasis columns.

    Eigenvalues at or below :attr:`zero_cutoff`, ``n * 2.2e-16`` times
    the largest eigenvalue, count as zero wherever rank matters; every
    rank decision reads the one :attr:`keep` mask.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray

    @property
    def zero_cutoff(self) -> float:
        return len(self.eigenvalues) * 2.2e-16 * max(float(self.eigenvalues[-1]), 0.0)

    @cached_property
    def keep(self) -> np.ndarray:
        """Mask of the eigenvalues above the zero cutoff: the numerical range."""
        keep = self.eigenvalues > self.zero_cutoff
        keep.flags.writeable = False
        return keep


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


def eig_sym(a: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix via LAPACK.

    The input must be symmetric to relative 1e-12; it is symmetrised
    before the solve so tiny asymmetries cannot leak into the result.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    _check_symmetric(a)
    vals, vecs = np.linalg.eigh((a + a.T) / 2.0)
    return SpectralDecomposition(vals, vecs)


def normalized_pencil(
    frame: tuple[np.ndarray, np.ndarray], lap_h: np.ndarray
) -> tuple[float, float]:
    """Extreme eigenvalues of ``lap_h`` relative to ``L_G``, given as a frame of ``L_G``.

    ``frame`` is ``(M, U_0)``: ``M^T L_G M = I`` and ``U_0`` spans the
    null space of ``L_G``, as :func:`treespark.leverage.laplacian_frame`
    returns them.  Conjugating ``lap_h`` by ``M`` restricts the pencil
    to a complement of that null space, which is deflated explicitly
    instead of trusting a tiny eigenvalue.  Returns ``(lambda_min_pos,
    lambda_max)``; the pair is ``(1, 1)`` exactly when the two matrices
    agree off the null space.  A rank-deficient ``lap_h`` reports
    ``lambda_min_pos = 0`` rather than raising.
    """
    lap_h = np.asarray(lap_h, dtype=np.float64)
    h_scale = max(_check_symmetric(lap_h), 1.0)
    scaled, null = frame
    if not scaled.shape[1]:
        raise ValueError("left Laplacian is identically zero")
    if null.shape[1]:
        leak = float(np.abs(lap_h @ null).max())
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

    ``witness_gap`` is the most negative eigenvalue of ``B - A`` after
    projecting off the common null space of the two inputs, so equality
    up to that null space reports a gap of 0.  ``scale`` is the larger
    operator norm (floored at 1) that verdicts are measured against.
    """

    holds: bool
    witness_gap: float
    tol: float
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


def psd_leq(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> PsdOrderVerdict:
    """Test ``a <= b`` in the PSD order, scale-invariantly.

    Holds iff the witness gap is at least ``-tol * scale`` with ``scale =
    max(opnorm(a), opnorm(b), 1)``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    _check_symmetric(a)
    _check_symmetric(b)
    scale = max(_opnorm(a), _opnorm(b), 1.0)
    dec = eig_sym(a @ a + b @ b)
    if not np.any(dec.keep):
        return PsdOrderVerdict(True, 0.0, tol, scale)
    basis = dec.basis[:, dec.keep]
    restricted = basis.T @ (b - a) @ basis
    gap = float(np.linalg.eigvalsh((restricted + restricted.T) / 2.0)[0])
    return PsdOrderVerdict(gap >= -tol * scale, gap, tol, scale)


def check_symmetric_triangle(a: np.ndarray, b: np.ndarray) -> bool:
    """Verify ``(a - b)^2 <= 2 a^2 + 2 b^2`` for symmetric a, b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    diff = a - b
    return psd_leq(diff @ diff, 2.0 * a @ a + 2.0 * b @ b).holds
