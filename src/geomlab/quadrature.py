"""Tensor-product quadrature rules.

Periodic axes use the endpoint-free composite trapezoid rule, which is
spectrally accurate for smooth periodic integrands.  Non-periodic axes use
composite Gauss-Legendre panels.  Reductions use numpy's pairwise
summation, so results are deterministic for a fixed grid.
"""

import functools

import numpy as np

__all__ = ["periodic_trapezoid", "gauss_legendre", "composite_gauss_legendre", "axis_rule"]


def periodic_trapezoid(a, b, n):
    """n equispaced nodes on [a,b) with uniform weights (b-a)/n."""
    h = (b - a) / n
    nodes = a + h * np.arange(n)
    return nodes, np.full(n, h)


def gauss_legendre(a, b, n):
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def composite_gauss_legendre(a, b, panels, order):
    """`panels` Gauss-Legendre panels of `order` nodes each (one rule,
    broadcast over the panel edges)."""
    edges = np.linspace(a, b, panels + 1)
    x, w = gauss_legendre(edges[:-1, None], edges[1:, None], order)
    return x.ravel(), w.ravel()


# Gauss nodes per panel of a non-periodic axis
GL_ORDER = 6


def axis_rule(a, b, n, periodic):
    """Pick the rule for one axis: trapezoid if periodic, panelled GL otherwise.

    For non-periodic axes, n points are laid out as ceil(n / GL_ORDER)
    panels of ``GL_ORDER`` Gauss nodes.
    """
    if periodic:
        return periodic_trapezoid(a, b, n)
    panels = max(1, int(np.ceil(n / GL_ORDER)))
    return composite_gauss_legendre(a, b, panels, GL_ORDER)


def tensor_nodes(rules):
    """Mesh a list of (nodes, weights) axis rules.

    Returns the open mesh of the nodes, one array per axis with that
    axis's nodes along it and length one along every other (shapes
    (n0, 1, 1), (1, n1, 1), (1, 1, n2) for three axes), so a function of
    some coordinates is evaluated once per node of those axes and
    broadcasts over the rest; and the dense tensor-product weights, of
    the grid's full shape.
    """
    w = rules[0][1]
    for _, wa in rules[1:]:
        w = np.multiply.outer(w, wa)
    return list(np.ix_(*(nodes for nodes, _ in rules))), w


@functools.lru_cache(maxsize=8)
def product_rule(bounds, counts, periodic):
    """``tensor_nodes`` of the ``axis_rule`` per axis of the tuples ``bounds``
    ((a, b) each), ``counts`` and ``periodic``; built once per key, read-only."""
    coords, weights = tensor_nodes([axis_rule(a, b, n, p)
                                    for (a, b), n, p in zip(bounds, counts, periodic)])
    for array in (*coords, weights):
        array.flags.writeable = False
    return tuple(coords), weights


# points per block of a grid evaluation: a block's temporaries then stay
# small enough to be reused instead of freshly mapped
_GRID_CHUNK = 1 << 13


def _row_blocks(ns, row_points, block=_GRID_CHUNK):
    """Slices of ``ns`` rows of ``row_points`` points each, in blocks of
    whole rows: at most ``block`` points each but at least one row."""
    rows = max(1, block // max(row_points, 1))
    return [slice(k, k + rows) for k in range(0, ns, rows)]
