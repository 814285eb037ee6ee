"""Extrinsic geometry of parameterised surfaces inside a metric chart.

The pipeline is fully generic: tangents and second parameter derivatives
come from order-2 jets of the immersion, ambient Christoffel symbols from
``chart_tensor``, and the unit normal solves g(N, dX) = 0, g(N, N) = 1
with a per-surface orientation sign.  Mean curvature is reported both as
the shape-operator trace k1 + k2 (the convention the Willmore integrand
uses here) and as the averaged (k1 + k2)/2.
"""

from dataclasses import dataclass, field

import numpy as np

from . import jets, quadrature
from .chart_tensor import _check_nondegenerate, _sym3_inverse_det, christoffel
from .errors import ImmersionError, MetricParameterError
from .exprgrammar import compile_expression
from .kernels import shape_operator_batch

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
    params: dict = field(default_factory=dict)


@dataclass
class CurvatureReport:
    """Pointwise extrinsic data; fields are arrays over the sample batch."""

    point: np.ndarray        # chart coordinates (N,3)
    tangent1: np.ndarray     # dX/ds (N,3)
    tangent2: np.ndarray     # dX/dt (N,3)
    first: np.ndarray        # induced metric I (N,2,2)
    second: np.ndarray       # second fundamental form II (N,2,2)
    normal: np.ndarray       # unit normal (N,3)
    h_trace: np.ndarray      # k1 + k2 = trace(I^-1 II)
    h_mean: np.ndarray       # (k1 + k2)/2
    k1: np.ndarray
    k2: np.ndarray
    disc: np.ndarray         # |k1 - k2|
    disc_sq: np.ndarray      # (k1 - k2)^2, smooth through umbilics
    area_density: np.ndarray  # sqrt(det I)


def fundamental_forms(surface, metric, s, t):
    """First/second fundamental forms and curvatures at parameters (s, t)."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    scalar = s.ndim == 0 and t.ndim == 0
    s2, t2 = np.broadcast_arrays(np.atleast_1d(s), np.atleast_1d(t))
    point, d1, d2 = jets.derivatives(surface.chart_map, [s2.ravel(), t2.ravel()], order=2)

    g = metric.matrix(point)
    n = point.shape[0]
    d1t = d1.transpose(0, 2, 1)
    # covectors g.dX_a: they give the first form and annihilate the normal
    cov = d1 @ g
    first = cov @ d1t
    det_first = first[:, 0, 0] * first[:, 1, 1] - first[:, 0, 1] ** 2
    scale = np.einsum("nai,nai->n", d1, d1)
    if not np.all(det_first > 1e-14 * np.maximum(scale, 1.0) ** 2):
        if not np.all(np.isfinite(det_first)):
            raise ImmersionError("coordinate tangents are not finite")
        # a singular metric degenerates the first form too: name the metric
        _check_nondegenerate(metric, point, _sym3_inverse_det(g)[1])
        raise ImmersionError("coordinate tangents are (numerically) dependent")
    # ambient Christoffels first, while few per-point arrays are alive
    gamma = None if metric.constant else christoffel(metric, point)

    # normal: cross product of the two covectors annihilates both tangents
    v = np.cross(cov[:, 0], cov[:, 1])
    gv = (g @ v[:, :, None])[:, :, 0]
    vlen = np.sqrt(np.einsum("ni,ni->n", v, gv))[:, None]
    normal = surface.orient * v / vlen
    g_normal = surface.orient * gv / vlen

    # covariant second derivative of the immersion; II uses the normal-derivative
    # sign convention II_ab = g(grad_a N, dX_b) = -g(N, grad_a dX_b), so a round
    # sphere with outward normal has II = I/r and k1 = k2 = +1/r.  Both terms
    # are contracted with g.N first: II = -(d2 . gN + dX Gamma(gN) dX^T).
    second = -(d2.reshape(n, 4, 3) @ g_normal[:, :, None]).reshape(n, 2, 2)
    if gamma is not None:
        # gamma is a [n, k, i, j] view of an [n, ij, k] array: contract k there
        gamma_n = (gamma.transpose(0, 2, 3, 1).reshape(n, 9, 3)
                   @ g_normal[:, :, None]).reshape(n, 3, 3)
        second -= d1 @ gamma_n @ d1t

    tr, k1, k2, gap_sq = shape_operator_batch(
        np.ascontiguousarray(first), np.ascontiguousarray(second))
    report = CurvatureReport(
        point=point, tangent1=d1[:, 0], tangent2=d1[:, 1],
        first=first, second=second, normal=normal,
        h_trace=tr, h_mean=0.5 * tr, k1=k1, k2=k2,
        disc=np.sqrt(gap_sq), disc_sq=gap_sq,
        area_density=np.sqrt(det_first),
    )
    if scalar:
        for name in report.__dataclass_fields__:
            setattr(report, name, getattr(report, name)[0])
    return report


def curvatures(surface, metric, s, t):
    """(h_trace, k1, k2, |k1 - k2|) at parameters (s, t)."""
    rep = fundamental_forms(surface, metric, s, t)
    return rep.h_trace, rep.k1, rep.k2, rep.disc


def _quadrature_grid(surface, grid):
    (s0, s1), (t0, t1) = surface.domain
    rule_s = quadrature.axis_rule(s0, s1, grid[0], surface.periodic[0], gl_order=6)
    rule_t = quadrature.axis_rule(t0, t1, grid[1], surface.periodic[1], gl_order=6)
    coords, weights = quadrature.tensor_nodes([rule_s, rule_t])
    return coords[0], coords[1], weights


def _integrate(surface, metric, grid, integrands, chunk=1 << 16):
    """Integrals of each integrand (a function of a CurvatureReport) over
    the quadrature grid, from one fundamental_forms pass."""
    ss, tt, ww = _quadrature_grid(surface, grid)
    totals = [0.0] * len(integrands)
    for start in range(0, ss.shape[0], chunk):
        rep = fundamental_forms(surface, metric, ss[start:start + chunk],
                                tt[start:start + chunk])
        for k, integrand in enumerate(integrands):
            totals[k] += float(np.sum(integrand(rep) * ww[start:start + chunk]))
    return totals


def _area_density(rep):
    return rep.area_density


def _willmore_density(rep):
    return (1.0 + rep.h_trace ** 2) * rep.area_density


def area(surface, metric, grid=(256, 256)):
    """Induced area of the (closed or bounded) surface patch."""
    return _integrate(surface, metric, grid, [_area_density])[0]


def willmore_energy(surface, metric, grid=(256, 256)):
    """W = integral of (1 + H^2) dA with H the shape-operator trace."""
    return _integrate(surface, metric, grid, [_willmore_density])[0]


def willmore_and_area(surface, metric, grid=(256, 256)):
    """(willmore_energy, area) from one pass over the grid; each equals the
    separate call bit for bit."""
    return tuple(_integrate(surface, metric, grid, [_willmore_density, _area_density]))


def max_abs_mean_curvature(surface, metric, n_samples=10000, seed=0):
    """max |k1+k2| over uniform random parameter samples."""
    rng = np.random.default_rng(seed)
    (s0, s1), (t0, t1) = surface.domain
    ss = rng.uniform(s0, s1, n_samples)
    tt = rng.uniform(t0, t1, n_samples)
    rep = fundamental_forms(surface, metric, ss, tt)
    return float(np.max(np.abs(rep.h_trace)))


def toponogov_probe(surface, metric, radii, rings=96, spokes=192):
    """Minimum sampled |k1 - k2| over nested parameter disks.

    The disks share one polar sample pool (rings up to the largest radius),
    so the reported minima are non-increasing by construction of nested
    sample sets.
    """
    radii = sorted(float(r) for r in radii)
    r_max = radii[-1]
    ring_r = np.linspace(0.0, r_max, rings + 1)[1:]
    phi = np.linspace(0.0, _TWO_PI, spokes, endpoint=False)
    rr, pp = np.meshgrid(ring_r, phi, indexing="ij")
    xs = np.concatenate([[0.0], (rr * np.cos(pp)).ravel()])
    ys = np.concatenate([[0.0], (rr * np.sin(pp)).ravel()])
    rep = fundamental_forms(surface, metric, xs, ys)
    rad = np.concatenate([[0.0], rr.ravel()])
    return [float(np.min(rep.disc[rad <= r + 1e-12])) for r in radii]


# -- built-in surfaces -------------------------------------------------------

def _clifford(params):
    def chart_map(s, t):
        return (0.0 * s + np.pi / 4, s, t)
    return SurfaceImmersion("clifford", chart_map,
                            ((0.0, _TWO_PI), (0.0, _TWO_PI)), (True, True),
                            orient=1, topology="torus", chart="hopf")


def _round_sphere(params):
    r = float(params.get("r", 1.0))
    center = np.asarray(params.get("center", (0.0, 0.0, 0.0)), dtype=float)

    def chart_map(u, v):
        sv = jets.sin(v)
        return (center[0] + r * jets.cos(u) * sv,
                center[1] + r * jets.sin(u) * sv,
                center[2] + r * jets.cos(v))
    return SurfaceImmersion("round-sphere", chart_map,
                            ((0.0, _TWO_PI), (0.0, np.pi)), (True, False),
                            orient=-1, topology="sphere",
                            params={"r": r, "center": tuple(center)})


def _ellipsoid_axes(params):
    a = float(params.get("a", 2.0))
    b = float(params.get("b", 1.5))
    c = float(params.get("c", 1.0))
    return a, b, c


def _ellipsoid(params):
    a, b, c = _ellipsoid_axes(params)

    def chart_map(u, v):
        sv = jets.sin(v)
        return (a * jets.cos(u) * sv, b * jets.sin(u) * sv, c * jets.cos(v))
    return SurfaceImmersion("ellipsoid", chart_map,
                            ((0.0, _TWO_PI), (0.0, np.pi)), (True, False),
                            orient=-1, topology="sphere",
                            params={"a": a, "b": b, "c": c})


def _ellipsoid_offset(params):
    """Ellipsoid pushed distance d along its outward unit normal.

    The normal is written in closed form, so jets of the offset map stay
    second order.  Parallel surfaces share normal lines with the base
    ellipsoid, hence share umbilic locations.
    """
    a, b, c = _ellipsoid_axes(params)
    d = float(params.get("d", 0.2))

    def chart_map(u, v):
        sv = jets.sin(v)
        x = a * jets.cos(u) * sv
        y = b * jets.sin(u) * sv
        z = c * jets.cos(v)
        nx, ny, nz = x / a ** 2, y / b ** 2, z / c ** 2
        ln = jets.sqrt(nx * nx + ny * ny + nz * nz)
        return (x + d * nx / ln, y + d * ny / ln, z + d * nz / ln)
    return SurfaceImmersion("ellipsoid-offset", chart_map,
                            ((0.0, _TWO_PI), (0.0, np.pi)), (True, False),
                            orient=-1, topology="sphere",
                            params={"a": a, "b": b, "c": c, "d": d})


def _torus_revolution(params):
    big = float(params.get("R", 2.0))
    small = float(params.get("r", 1.0))

    def chart_map(u, v):
        ring = big + small * jets.cos(v)
        return (ring * jets.cos(u), ring * jets.sin(u), small * jets.sin(v))
    return SurfaceImmersion("torus-revolution", chart_map,
                            ((0.0, _TWO_PI), (0.0, _TWO_PI)), (True, True),
                            orient=1, topology="torus",
                            params={"R": big, "r": small})


def _graph(params):
    expr = params.get("expr")
    fn = params.get("fn")
    half = float(params.get("half_width", 1.0))
    if fn is None:
        if expr is None:
            raise MetricParameterError("graph surface needs expr or fn")
        compiled = compile_expression(expr, ("x", "y"))
        fn = lambda x, y: compiled(x=x, y=y)

    def chart_map(x, y):
        return (x, y, fn(x, y))
    return SurfaceImmersion("graph", chart_map,
                            ((-half, half), (-half, half)), (False, False),
                            orient=1, topology="disc", params=dict(params))


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
