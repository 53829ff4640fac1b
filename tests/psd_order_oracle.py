"""The range-projection PSD order test, as an oracle for ``psd_leq``.

``psd_leq(A, B)`` decides on the smallest eigenvalue of ``B - A``.  The
route here first projects onto the numerical range of ``A^2 + B^2``
(eigenvalues above ``frame_oracle.zero_cutoff``) and decides on the
restriction of ``B - A`` there.  The common null space of A and B is an
invariant subspace of ``B - A`` with eigenvalue 0, which always clears
the ``-PSD_TOL * scale`` threshold, so the two must agree.

Run as a script to compare them on many random pairs from five
families::

    PYTHONPATH=src:tests python tests/psd_order_oracle.py [pairs] [seed]
"""

from __future__ import annotations

import itertools
import sys

import numpy as np

from frame_oracle import zero_cutoff
from treespark.spectral import PSD_TOL, _opnorm, eig_sym, psd_leq

FAMILIES = ("matrix-fact", "shared-null", "chain", "bump", "scaled")


def range_psd_leq(a: np.ndarray, b: np.ndarray) -> bool:
    """Verdict of ``a <= b`` decided on the range of ``a^2 + b^2``."""
    scale = max(_opnorm(a), _opnorm(b), 1.0)
    vals, vecs = eig_sym(a @ a + b @ b)
    basis = vecs[:, vals > zero_cutoff(vals)]
    if not basis.shape[1]:
        return True
    restricted = basis.T @ (b - a) @ basis
    gap = float(np.linalg.eigvalsh((restricted + restricted.T) / 2.0)[0])
    return gap >= -PSD_TOL * scale


def _sym(gen, n: int) -> np.ndarray:
    a = gen.uniform(-1.0, 1.0, (n, n))
    return (a + a.T) / 2.0


def _matrix_fact(gen, n):
    a, b = _sym(gen, n), _sym(gen, n)
    diff = a - b
    return diff @ diff, 2.0 * a @ a + 2.0 * b @ b


def _shared_null(gen, n):
    """Both sides live on a random rank-r subspace, r from 0 to n."""
    r = int(gen.integers(0, n + 1))
    u = np.linalg.qr(gen.standard_normal((n, n)))[0][:, :r]
    x = _sym(gen, r)
    p = gen.standard_normal((r, r))
    y = x + gen.choice((-1.0, 1.0)) * p @ p.T
    return u @ x @ u.T, u @ y @ u.T


def _chain(gen, n):
    a = _sym(gen, n)
    p = gen.standard_normal((n, int(gen.integers(1, n + 1))))
    b = a + p @ p.T
    return (a, b) if gen.random() < 0.5 else (b, a)


def _bump(gen, n):
    """``b = a +- delta v v^T`` with delta log-uniform in [1e-12, 1e-6]."""
    a = _sym(gen, n)
    v = gen.standard_normal(n)
    v /= np.linalg.norm(v)
    delta = 10.0 ** gen.uniform(-12.0, -6.0)
    return a, a + gen.choice((-1.0, 1.0)) * delta * np.outer(v, v)


def _scaled(gen, n):
    """A matrix-fact or chain pair congruent by a diagonal in [1e-8, 1e8]."""
    a, b = (_matrix_fact if gen.random() < 0.5 else _chain)(gen, n)
    d = 10.0 ** gen.uniform(-8.0, 8.0, n)
    return d[:, None] * a * d, d[:, None] * b * d


_BUILDERS = (_matrix_fact, _shared_null, _chain, _bump, _scaled)


def random_pairs(gen, per_family: int):
    """Yield ``(family, a, b)``, ``per_family`` pairs of each family, dims 2..16."""
    dims = itertools.cycle(range(2, 17))
    for _ in range(per_family):
        for family, build in zip(FAMILIES, _BUILDERS):
            yield (family, *build(gen, next(dims)))


def main(argv: list[str]) -> int:
    pairs = int(argv[0]) if argv else 20_000
    seed = int(argv[1]) if len(argv) > 1 else 12
    gen = np.random.Generator(np.random.Philox(seed))
    agree = {f: 0 for f in FAMILIES}
    holds = {f: 0 for f in FAMILIES}
    for family, a, b in random_pairs(gen, pairs // len(FAMILIES)):
        verdict = psd_leq(a, b).holds
        agree[family] += verdict == range_psd_leq(a, b)
        holds[family] += verdict
    per = pairs // len(FAMILIES)
    for family in FAMILIES:
        print(f"{family:12s} agree {agree[family]}/{per}  holds {holds[family]}")
    total = sum(agree.values())
    print(f"total agree {total}/{per * len(FAMILIES)} (seed {seed})")
    return 0 if total == per * len(FAMILIES) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
