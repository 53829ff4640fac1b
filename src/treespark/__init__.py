"""Weighted spanning tree sampling and spectral sparsification certificates.

The library splits into thin layers: graph representation and named
constructions (:mod:`treespark.graph`), dense symmetric eigen-utilities
(:mod:`treespark.spectral`), leverage scores and forest contraction
(:mod:`treespark.leverage`), tree sampling and averaging
(:mod:`treespark.treesample`), concentration diagnostics
(:mod:`treespark.srdiag`), experiment drivers (:mod:`treespark.experiments`)
and a command line front end (:mod:`treespark.cli`).
"""

__version__ = "0.1.0"
