"""Extrinsic geometry of parameterised surfaces inside a metric chart.

The pipeline is fully generic: tangents and second parameter derivatives
come from order-2 jets of the immersion, ambient Christoffel symbols from
``chart_tensor``, and the unit normal solves g(N, dX) = 0, g(N, N) = 1
with a per-surface orientation sign.  Mean curvature is reported as the
averaged H = (k1 + k2)/2, half the shape-operator trace; the Willmore
energy is W = integral of (1 + H^2) dA with that H, so a minimal surface
has W = area and the orbit tori rho = rho0 of the round S^3 have
W = 2 pi^2 / sin(2 rho0).
"""

from dataclasses import dataclass

import numpy as np

from . import jets, quadrature
from .chart_tensor import _check_nondegenerate, _sym3_inverse_det, _value, christoffel
from .errors import ImmersionError, MetricParameterError
from .exprgrammar import compile_expression
from .kernels import cross3, dot3, shape_operator_batch
from .quadrature import _row_blocks

_TWO_PI = 2.0 * np.pi


@dataclass
class SurfaceImmersion:
    """Parameterised surface patch (s, t) -> chart point.

    ``chart_map`` must accept jets and return three coordinate quantities.
    ``orient`` flips the normal; built-ins orient spheres outward and Hopf
    tori toward increasing rho.  ``topology`` is one of sphere/torus/disc
    and drives Euler-characteristic bookkeeping downstream.
    """

    name: str
    chart_map: callable
    domain: tuple
    periodic: tuple
    orient: int = 1
    topology: str = "disc"
    chart: str = "cartesian"


@dataclass
class CurvatureReport:
    """Pointwise extrinsic data; fields are arrays over the sample batch.

    For a batch on one orbit (see ``fundamental_forms``) every field but
    ``point`` is a read-only view of one row, broadcast over the batch.
    """

    point: np.ndarray        # chart coordinates (N,3)
    first: np.ndarray        # induced metric I (N,2,2)
    second: np.ndarray       # second fundamental form II (N,2,2)
    normal: np.ndarray       # unit normal (N,3)
    h_mean: np.ndarray       # (k1 + k2)/2 = trace(I^-1 II)/2
    k1: np.ndarray
    k2: np.ndarray
    disc: np.ndarray         # |k1 - k2|
    disc_sq: np.ndarray      # (k1 - k2)^2, smooth through umbilics
    area_density: np.ndarray  # sqrt(det I)


def fundamental_forms(surface, metric, s, t, chart=None):
    """First/second fundamental forms and curvatures at parameters (s, t).

    ``s`` and ``t`` broadcast together, and the report has one row per
    point of their broadcast shape, in C order.  Each keeps its own shape
    through the jet pass (see ``jets.variables``), so the axes
    ``s[:, None]`` and ``t[None, :]`` of a product grid give the rows of
    the grid, bit for bit, with each parameter's sines and cosines taken
    once per axis value.

    A batch whose points agree in the coordinates the metric reads, and
    whose first and second parameter derivatives agree too, is one orbit
    (the Clifford torus in a T^2-invariant metric, a plane in flat space),
    found on the jets before any grid-sized read-out: its forms are computed
    at the first point and expanded, bit for bit as at every point.

    ``chart``, if given, is ``(xs, comps)``: the jet variables seeded on
    ``s`` and ``t`` and the chart map's components of them, from a caller
    that has them already, so the chart map is not evaluated again.
    ``_integrate`` seeds a grid's axes once, decides on those jets whether
    the grid is one orbit, and passes them cut (``_cut_axes``) to the one
    node of an orbit, whose forms stand for the whole grid, or to each
    block of s-rows.  Either way every call is checked here: the
    parameters for finiteness, and the forms by ``_forms``.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    scalar = s.ndim == 0 and t.ndim == 0
    # checked before the jet pass: a chart map need not read a parameter
    # (Clifford's rho is a constant), so a NaN one can leave the tangents finite
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(t))):
        raise ImmersionError("coordinate tangents are not finite")
    if chart is None:
        xs = jets.variables([np.atleast_1d(s), np.atleast_1d(t)], order=2)
        chart = xs, surface.chart_map(*xs)
    xs, comps = chart
    grid = np.broadcast(*[x.f for x in xs])
    row = _orbit_row(metric.depends_on, comps) if grid.size > 1 else None
    if row is None:
        point, d1, d2 = jets.read_out(comps, xs)
        # rows of the component-major buffers: views, not copies
        report = _forms(surface, metric, point.reshape(-1, 3), d1.reshape(-1, 2, 3),
                        d2.reshape(-1, 2, 2, 3))
    else:
        # every row of the forms is the same: compute row 0 and expand it
        point = np.stack([np.broadcast_to(_value(c), grid.shape) for c in comps], axis=-1)
        report = _forms(surface, metric, point.reshape(-1, 3)[:1], *row)
        for name in _ROW_FIELDS:
            value = getattr(report, name)
            setattr(report, name, np.broadcast_to(value, (grid.size,) + value.shape[1:]))
        report.point = point.reshape(-1, 3)
    if scalar:
        for name in report.__dataclass_fields__:
            setattr(report, name, getattr(report, name)[0])
    return report


_ROW_FIELDS = tuple(CurvatureReport.__dataclass_fields__)[1:]  # every field but point


def _dot_constant(x, g):
    """``dot3(x, g)`` for numbers ``g``, not all zero: the terms of exact
    zeros left out and exact ones not multiplied, the rest added in order."""
    terms = [xi if gi == 1.0 else xi * gi for xi, gi in zip(x, g) if gi != 0.0]
    return sum(terms[1:], terms[0])


def _orbit_row(axes, comps):
    """Row 0 (d1, d2) of the read-out of the chart map's ``comps`` if every row
    equals it in every partial and the metric's coordinates ``axes``, else None;
    decided on the coefficients by exact ``==`` (a NaN is never an orbit), ends first."""
    partials = (a.reshape(len(c.support) ** r, -1) for c in comps if isinstance(c, jets.Jet)
                for r, a in ((1, c.gs), (2, c.hs)))
    values = (_value(comps[k]).reshape(1, -1) for k in axes)
    if not all((c[:, -1] == c[:, 0]).all() and (c == c[:, :1]).all()
               for key in (partials, values) for c in key):
        return None
    d1, d2 = np.zeros((1, 2, 3)), np.zeros((1, 2, 2, 3))
    for k, comp in enumerate(comps):
        for a, i in enumerate(comp.support if isinstance(comp, jets.Jet) else ()):
            d1[0, i, k] = comp.gs[a].flat[0]
            for b, j in enumerate(comp.support):
                d2[0, i, j, k] = comp.hs[a, b].flat[0]
    return d1, d2


def _forms(surface, metric, point, d1, d2):
    """CurvatureReport of the rows of ``point`` (N,3), ``d1`` (N,2,3) and
    ``d2`` (N,2,2,3).  Every operation is row by row, and a row reads the
    metric only at its ``metric.depends_on`` coordinates.

    The contractions are written out over components: ``x[a][i]`` is the
    (N,) array dX_a^i, one contiguous block when ``d1`` comes from
    ``jets.read_out``, and a metric entry ``g[i][j]`` is an (N,) array,
    or one number for a constant metric, whose checked value the metric
    holds (``MetricField.constant_matrix``) and whose contractions skip
    its exact zeros and ones (``_dot_constant``).
    The forms and the normal are point-major views of component-major
    arrays."""
    n = point.shape[0]
    x = [[d1[:, a, i] for i in range(3)] for a in range(2)]
    if metric.constant:
        gm = metric.constant_matrix(point[:1])
        g = gm[0].tolist()
        dot_g = _dot_constant
    else:
        gm = metric.matrix(point)
        g = [[gm[:, i, j] for j in range(3)] for i in range(3)]
        dot_g = dot3
    # covectors g.dX_a: they give the first form and annihilate the normal;
    # non-finite values in g or d1 fail the check below, which names them
    with np.errstate(invalid="ignore", over="ignore"):
        cov = [[dot_g(xa, (g[0][j], g[1][j], g[2][j])) for j in range(3)] for xa in x]
        f00, f01, f11 = dot3(cov[0], x[0]), dot3(cov[0], x[1]), dot3(cov[1], x[1])
        det_first = f00 * f11 - f01 ** 2
        scale = dot3(x[0], x[0]) + dot3(x[1], x[1])
    floor = 1e-14 * np.maximum(scale, 1.0) ** 2
    if not np.all(det_first > floor):
        if not np.all(np.isfinite(d1)):
            raise ImmersionError("coordinate tangents are not finite")
        # a singular or non-finite metric degenerates the first form too:
        # name the metric
        with np.errstate(invalid="ignore", over="ignore"):
            det = np.broadcast_to(_sym3_inverse_det(gm)[1], (n,))
        _check_nondegenerate(metric, point.T, det)
        # so does one singular to working precision (det g > 0): at the
        # first failing point, tangents that pass the same check in the
        # chart's euclidean inner product put the fault on the metric
        k = int(np.argmin(det_first > floor))
        euclid = d1[k] @ d1[k].T
        if euclid[0, 0] * euclid[1, 1] - euclid[0, 1] ** 2 > floor[k]:
            raise MetricParameterError(
                f"metric {metric.name} is numerically singular at point "
                f"{tuple(float(x) for x in point[k])} (det g = {det[k]:.6g})")
        raise ImmersionError("coordinate tangents are (numerically) dependent")
    # ambient Christoffels first, while few per-point arrays are alive; they
    # vanish for a constant metric
    gamma = None if metric.constant else christoffel(metric, point)

    # normal: cross product of the two covectors annihilates both tangents
    v = cross3(cov[0], cov[1])
    gv = [dot_g(v, g[i]) for i in range(3)]
    vlen = np.sqrt(dot3(v, gv))
    normal = np.array([surface.orient * vi / vlen for vi in v])
    g_normal = [surface.orient * gvi / vlen for gvi in gv]

    # covariant second derivative of the immersion; II uses the normal-derivative
    # sign convention II_ab = g(grad_a N, dX_b) = -g(N, grad_a dX_b), so a round
    # sphere with outward normal has II = I/r and k1 = k2 = +1/r.  Both terms
    # are contracted with g.N first: II = -(d2 . gN + dX Gamma(gN) dX^T).
    # II is symmetric, so its (1, 0) entry is taken to be the (0, 1) one;
    # the jet Hessian d2 is symmetric bit for bit.
    pairs = ((0, 0), (0, 1), (1, 1))
    second = [-dot3([d2[:, a, b, k] for k in range(3)], g_normal) for a, b in pairs]
    if gamma is not None:
        gamma_n = [[dot3([gamma[:, k, i, j] for k in range(3)], g_normal)
                    for j in range(3)] for i in range(3)]
        xg = [[dot3(xa, (gamma_n[0][j], gamma_n[1][j], gamma_n[2][j])) for j in range(3)]
              for xa in x]
        second = [sab - dot3(xg[a], x[b]) for sab, (a, b) in zip(second, pairs)]

    tr, k1, k2, gap_sq, _ = shape_operator_batch(f00, f01, f11, *second)
    first = np.array([[f00, f01], [f01, f11]]).transpose(2, 0, 1)
    second = np.array([second[:2], second[1:]]).transpose(2, 0, 1)
    return CurvatureReport(
        point=point, first=first, second=second, normal=normal.T,
        h_mean=0.5 * tr, k1=k1, k2=k2,
        disc=np.sqrt(gap_sq), disc_sq=gap_sq,
        area_density=np.sqrt(det_first),
    )


def _quadrature_grid(surface, grid):
    """Quadrature axes s (ns, 1) and t (1, nt) and weights (ns, nt), shared
    and read-only (``quadrature.product_rule``)."""
    (ss, tt), weights = quadrature.product_rule(
        tuple(map(tuple, surface.domain)), tuple(grid), tuple(surface.periodic))
    return ss, tt, weights


def _grid_eval(field, s, t):
    """``field`` on the points that the parameter arrays ``s`` and ``t``, of
    equal ndim, broadcast to: pass a product grid as its axes ``s[:, None]``
    and ``t[None, :]``.  ``field(s, t)`` is called on the s-row blocks of
    ``_row_blocks``, of ``_GRID_CHUNK`` points, and returns an array, or a
    tuple of arrays, whose leading axes are its block's broadcast shape;
    the blocks are joined along the s-rows, and ``np.concatenate`` keeps
    their memory layout (component-major blocks join component-major)."""
    shape = np.broadcast_shapes(np.shape(s), np.shape(t))
    parts = [field(*(a[rows] if a.shape[0] > 1 else a for a in (s, t)))
             for rows in _row_blocks(shape[0], int(np.prod(shape[1:])))]
    if len(parts) == 1:
        return parts[0]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(blocks) for blocks in zip(*parts))
    return np.concatenate(parts)


def _cut_axes(chart, rows, cols):
    """The jets ``(xs, comps)`` of a chart map on the axes ``s`` (ns, 1) and
    ``t`` (1, nt) of a product grid, cut to the grid's ``rows`` and ``cols``:
    every coefficient array is sliced on its two trailing sample axes, and an
    axis of length one, which broadcasts, is kept whole."""
    def cut(a):
        if np.ndim(a) < 2:
            return a
        return a[..., rows if a.shape[-2] > 1 else slice(None),
                 cols if a.shape[-1] > 1 else slice(None)]

    def cut_jet(c):
        if not isinstance(c, jets.Jet):
            return cut(c)
        return jets.Jet(cut(c.f), c.support, cut(c.gs), None if c.hs is None else cut(c.hs))
    xs, comps = chart
    return [cut_jet(x) for x in xs], [cut_jet(c) for c in comps]


def _integrate(surface, metric, grid, integrands):
    """Integrals of each integrand over the quadrature grid, from
    fundamental_forms over its axes.  An integrand is a function of a
    CurvatureReport that works row by row on its forms and curvatures
    (not on ``point``), and returns one value per row.

    Where no component of the chart map reads both parameters (tried on
    plain values at 2 x 2 nodes), the chart map is seeded once, on the
    axes, and its jets stay the size of the axes.  On them ``_orbit_row``
    decides, as ``fundamental_forms`` does, whether the grid is one orbit
    (the Clifford torus in the Hopf metrics).  On an orbit every density
    is one number: the jets are cut to the grid's first node and the forms
    taken there, in one ``fundamental_forms`` call of one point, and each
    integrand's value is broadcast over the weights and summed as a
    density of the whole grid would be, bit for bit.  Any other grid
    costs about 78 planes of its points per block, so it is passed in
    ``_GRID_CHUNK`` blocks of whole s-rows, each cut from the axis jets
    where there are any (``_cut_axes``), else seeded on its own rows."""
    ss, tt, ww = _quadrature_grid(surface, grid)
    mixed = any(np.ndim(c) == 2 and min(np.shape(c)) > 1
                for c in surface.chart_map(ss[:2], tt[:, :2]))
    chart = None
    if not mixed:
        xs = jets.variables([ss, tt], order=2)
        chart = xs, surface.chart_map(*xs)
        if _orbit_row(metric.depends_on, chart[1]) is not None:
            node = slice(0, 1)
            rep = fundamental_forms(surface, metric, ss[node], tt[:, node],
                                    _cut_axes(chart, node, node))
            return [float(np.sum(np.broadcast_to(integrand(rep), ww.shape) * ww))
                    for integrand in integrands]

    def densities(rows):
        s = ss[rows]
        block = None if chart is None else _cut_axes(chart, rows, slice(None))
        rep = fundamental_forms(surface, metric, s, tt, block)
        return [integrand(rep).reshape(s.shape[0], tt.shape[1]) for integrand in integrands]
    parts = [densities(rows) for rows in _row_blocks(*ww.shape)]
    return [float(np.sum((d[0] if len(d) == 1 else np.concatenate(d)) * ww))
            for d in zip(*parts)]


def _area_density(rep):
    return rep.area_density


def _willmore_density(rep):
    return (1.0 + rep.h_mean ** 2) * rep.area_density


def area(surface, metric, grid=(256, 256)):
    """Induced area of the (closed or bounded) surface patch."""
    return _integrate(surface, metric, grid, [_area_density])[0]


def willmore_energy(surface, metric, grid=(256, 256)):
    """W = integral of (1 + H^2) dA with H = (k1 + k2)/2 the averaged mean
    curvature (the S^3 convention, in which W >= 2 pi^2 is the Willmore
    conjecture)."""
    return _integrate(surface, metric, grid, [_willmore_density])[0]


def willmore_and_area(surface, metric, grid=(256, 256)):
    """(willmore_energy, area) from one pass over the grid; each equals the
    separate call bit for bit."""
    return tuple(_integrate(surface, metric, grid, [_willmore_density, _area_density]))


def max_abs_mean_curvature(surface, metric, n_samples=10000, seed=0):
    """max |H|, H = (k1 + k2)/2, over uniform random parameter samples."""
    rng = np.random.default_rng(seed)
    (s0, s1), (t0, t1) = surface.domain
    ss = rng.uniform(s0, s1, n_samples)
    tt = rng.uniform(t0, t1, n_samples)
    rep = fundamental_forms(surface, metric, ss, tt)
    return float(np.max(np.abs(rep.h_mean)))


# -- built-in surfaces -------------------------------------------------------

def _clifford(params):
    def chart_map(s, t):
        return (np.pi / 4, s, t)
    return SurfaceImmersion("clifford", chart_map,
                            ((0.0, _TWO_PI), (0.0, _TWO_PI)), (True, True),
                            orient=1, topology="torus", chart="hopf")


def _round_sphere(params):
    r = float(params.get("r", 1.0))
    center = np.asarray(params.get("center", (0.0, 0.0, 0.0)), dtype=float)

    def chart_map(u, v):
        su, cu = jets.sincos(u)
        sv, cv = jets.sincos(v)
        return (center[0] + r * cu * sv,
                center[1] + r * su * sv,
                center[2] + r * cv)
    return SurfaceImmersion("round-sphere", chart_map,
                            ((0.0, _TWO_PI), (0.0, np.pi)), (True, False),
                            orient=-1, topology="sphere")


def _ellipsoid_axes(params):
    a = float(params.get("a", 2.0))
    b = float(params.get("b", 1.5))
    c = float(params.get("c", 1.0))
    return a, b, c


def _ellipsoid(params):
    a, b, c = _ellipsoid_axes(params)

    def chart_map(u, v):
        su, cu = jets.sincos(u)
        sv, cv = jets.sincos(v)
        return (a * cu * sv, b * su * sv, c * cv)
    return SurfaceImmersion("ellipsoid", chart_map,
                            ((0.0, _TWO_PI), (0.0, np.pi)), (True, False),
                            orient=-1, topology="sphere")


def _ellipsoid_offset(params):
    """Ellipsoid pushed distance d along its outward unit normal.

    The normal is written in closed form, so jets of the offset map stay
    second order.  Parallel surfaces share normal lines with the base
    ellipsoid, hence share umbilic locations.
    """
    a, b, c = _ellipsoid_axes(params)
    d = float(params.get("d", 0.2))

    def chart_map(u, v):
        su, cu = jets.sincos(u)
        sv, cv = jets.sincos(v)
        x = a * cu * sv
        y = b * su * sv
        z = c * cv
        nx, ny, nz = x / a ** 2, y / b ** 2, z / c ** 2
        ln = jets.sqrt(nx * nx + ny * ny + nz * nz)
        return (x + d * nx / ln, y + d * ny / ln, z + d * nz / ln)
    return SurfaceImmersion("ellipsoid-offset", chart_map,
                            ((0.0, _TWO_PI), (0.0, np.pi)), (True, False),
                            orient=-1, topology="sphere")


def _torus_revolution(params):
    big = float(params.get("R", 2.0))
    small = float(params.get("r", 1.0))

    def chart_map(u, v):
        su, cu = jets.sincos(u)
        sv, cv = jets.sincos(v)
        ring = big + small * cv
        return (ring * cu, ring * su, small * sv)
    return SurfaceImmersion("torus-revolution", chart_map,
                            ((0.0, _TWO_PI), (0.0, _TWO_PI)), (True, True),
                            orient=1, topology="torus")


def _graph(params):
    expr = params.get("expr")
    fn = params.get("fn")
    half = float(params.get("half_width", 1.0))
    if not 0.0 < half < np.inf:
        raise MetricParameterError(f"graph half_width must be positive and finite, got {half!r}")
    if fn is None:
        if expr is None:
            raise MetricParameterError("graph surface needs expr or fn")
        compiled = compile_expression(expr, ("x", "y"))
        fn = lambda x, y: compiled(x=x, y=y)

    def chart_map(x, y):
        return (x, y, fn(x, y))
    return SurfaceImmersion("graph", chart_map,
                            ((-half, half), (-half, half)), (False, False),
                            orient=1, topology="disc")


_BUILTINS = {
    "clifford": _clifford,
    "round-sphere": _round_sphere,
    "ellipsoid": _ellipsoid,
    "ellipsoid-offset": _ellipsoid_offset,
    "torus-revolution": _torus_revolution,
    "graph": _graph,
    "paraboloid": lambda p: _graph({**p, "expr": "(x^2 + y^2)/2"}),
    "saddle": lambda p: _graph({**p, "expr": "x^2 - y^2"}),
    "plane": lambda p: _graph({**p, "expr": "0"}),
}


def surface_by_name(name, **params):
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise MetricParameterError(
            f"unknown surface {name!r}; choices: {sorted(_BUILTINS)}") from None
    return factory(params)
