"""Exact Laplacian coefficients of graphs and the statistics of their
coefficient distributions.

Each name is imported from its module: ``lapstats.graphs``, ``families``,
``exact``, ``spectra``, ``limits``, ``diagnostics``, ``corpus``,
``serialize``, ``errors`` or ``cli``. Importing the package loads none of them.
"""

__version__ = "0.1.0"
