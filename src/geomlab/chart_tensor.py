"""Tensor calculus on three-dimensional coordinate charts.

Provides smooth metric fields with exact derivatives (forward-mode jets),
Christoffel symbols, pointwise tensor norms and L2 distances between
metrics.  Built-in families include the flat metric, the round 3-sphere in
Hopf coordinates (rho, theta1, theta2), and its one-parameter off-diagonal
deformation

    g = d rho^2 + sin^2(rho) d theta1^2 + cos^2(rho) d theta2^2
        + 2 eps * Psi(rho) * sin(rho) cos(rho) d theta1 d theta2,

which is positive definite for 0 <= eps < 1 on the open chart
0 < rho < pi/2.  With Psi = 1 (``hopf-eps``) it is not smooth on the
whole 3-sphere: sin rho cos rho d theta1 d theta2 equals
alpha1 alpha2 / (sin rho cos rho) for the smooth 1-forms
alpha1 = x1 dx2 - x2 dx1 and alpha2 = x3 dx4 - x4 dx3, which is
discontinuous at the Hopf circles rho = 0, pi/2.  The bump profile Psi
(``hopf-eps-bumped``) is localised around rho = pi/4 and vanishes near
them, and the metric then differs from the round one by an L2 amount
bounded by 16 pi^2 eps^3.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import jets, kvdoc, quadrature
from .errors import ChartDomainError, MetricParameterError
from .exprgrammar import ExpressionError, compile_expression
from .kernels import tensor_norm_sq_batch

DOMAIN_CLIP = 1e-6  # stay off Hopf coordinate degeneracies at rho = 0, pi/2
# points per block of l2_metric_distance's density
_DENSITY_CHUNK = 1 << 14


@dataclass(frozen=True)
class Chart:
    name: str
    coords: tuple
    lower: tuple
    upper: tuple
    periodic: tuple


HOPF_CHART = Chart("hopf", ("rho", "theta1", "theta2"),
                   (0.0, 0.0, 0.0), (np.pi / 2, 2 * np.pi, 2 * np.pi),
                   (False, True, True))
CARTESIAN_CHART = Chart("cartesian", ("x", "y", "z"),
                        (-np.inf,) * 3, (np.inf,) * 3, (False,) * 3)


@dataclass
class BumpProfile:
    """Smooth cutoff around rho = pi/4: one on the inner band, zero outside.

    Transition pieces use the classic exp(-1/x) smooth step, which glues
    C-infinity to the constant pieces at |rho - pi/4| = eps/4 and eps/2.
    """

    eps: float

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise MetricParameterError(f"bump width eps={self.eps} not in (0, 1)")

    def __call__(self, rho):
        r = rho - np.pi / 4
        r = jets.sqrt(r * r + 1e-120)  # smooth |r| away from the flat core
        x = (0.5 * self.eps - r) / (0.25 * self.eps)  # 1 at r=eps/4, 0 at r=eps/2
        inner = _value(r) <= 0.25 * self.eps
        outer = _value(r) >= 0.5 * self.eps
        return jets.where(inner, 1.0, jets.where(outer, 0.0, smoothstep(x)))


def _stack(rows, shape=()):
    """A 3x3 nested list of entries (numbers or arrays) as one array of
    shape (..., 3, 3) over the broadcast shape of ``shape`` and the entries."""
    shape = np.broadcast_shapes(shape, *(np.shape(e) for row in rows for e in row))
    out = np.empty(shape + (3, 3))
    for i in range(3):
        for j in range(3):
            out[..., i, j] = rows[i][j]
    return out


def _value(x):
    return x.f if isinstance(x, jets.Jet) else np.asarray(x)


def _glue(x):
    # exp(-1/x) for x>0, extended by 0; evaluated safely on jets
    pos = _value(x) > 0.0
    safe = jets.where(pos, x, 1.0)
    return jets.where(pos, jets.exp(-1.0 / safe), 0.0)


def smoothstep(x):
    """C-infinity monotone step: 0 for x<=0, 1 for x>=1."""
    clipped = jets.where(_value(x) < 0.0, 0.0, jets.where(_value(x) > 1.0, 1.0, x))
    a = _glue(clipped)
    b = _glue(1.0 - clipped)
    return a / (a + b)


@dataclass
class MetricField:
    """Symmetric 2-tensor field on a chart, with exact derivatives.

    ``components`` maps three coordinate quantities (ndarrays or jets that
    broadcast together) to a 3x3 nested list; entries may be plain
    constants, and an entry that reads some coordinates only has their
    broadcast shape.  ``depends_on`` lists the chart coordinates (0, 1, 2)
    the components read: ``fundamental_forms`` evaluates a batch whose
    points agree on them at one point, and an empty tuple marks a
    position-independent field (flat metric), letting callers skip
    Christoffel terms.
    """

    name: str
    chart: Chart
    components: callable
    depends_on: tuple = (0, 1, 2)
    # a constant field's checked value, kept by ``constant_matrix``
    _held: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    @property
    def constant(self):
        return not self.depends_on

    def matrix(self, pts):
        """Metric components g_ij at points, shape (N,3,3)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return _stack(self.components(pts[:, 0], pts[:, 1], pts[:, 2]), pts.shape[:1])

    def constant_matrix(self, point):
        """The value (1,3,3) of a constant field, read-only: evaluated by
        ``matrix`` at ``point`` (1,3) and checked non-degenerate on the
        first call, whose point a singular value names, then kept."""
        if self._held is None:
            g = self.matrix(point)
            _check_nondegenerate(self, point.T, _sym3_inverse_det(g)[1])
            g.flags.writeable = False
            self._held = g
        return self._held

    def matrix_and_partials(self, pts):
        """(g_ij, d_k g_ij) with exact first partials, shapes (N,3,3), (N,3,3,3)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.constant:
            return self.matrix(pts), np.zeros((pts.shape[0], 3, 3, 3))
        n = pts.shape[0]
        g, dg = jets.derivatives(
            lambda *c: [entry for row in self.components(*c) for entry in row],
            [pts[:, 0], pts[:, 1], pts[:, 2]], order=1)
        # component 3 i + j, so these are views in the [n, i, j] and
        # [n, k, i, j] layouts
        return g.reshape(n, 3, 3), dg.reshape(n, 3, 3, 3)


# -- built-in families -----------------------------------------------------

def _flat_components(x, y, z):
    return [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


_RHO = (0,)  # the Hopf families are T^2-invariant: they read rho alone


def _hopf_components(eps=0.0, bump=None):
    def components(rho, th1, th2):
        s, c = jets.sincos(rho)
        off = eps * s * c
        if bump is not None:
            off = off * bump(rho)
        return [[1.0, 0.0, 0.0],
                [0.0, s * s, off],
                [0.0, off, c * c]]
    return components


def metric_by_name(name, **params):
    """Look up a metric family by identifier.

    Families: ``flat-r3``, ``round-s3``, ``hopf-eps`` (param eps),
    ``hopf-eps-bumped`` (param eps).
    """
    if name == "flat-r3":
        return MetricField("flat-r3", CARTESIAN_CHART, _flat_components, depends_on=())
    if name == "round-s3":
        return MetricField("round-s3", HOPF_CHART, _hopf_components(eps=0.0),
                           depends_on=_RHO)
    if name in ("hopf-eps", "hopf-eps-bumped"):
        eps = float(params.get("eps", 0.0))
        if not (0.0 <= eps < 1.0):
            raise MetricParameterError(
                f"eps={eps} outside [0, 1); the deformed metric degenerates at eps=1")
        # BumpProfile needs 0 < eps, and at eps = 0 there is nothing to bump
        bump = BumpProfile(eps) if name == "hopf-eps-bumped" and eps > 0.0 else None
        return MetricField(name, HOPF_CHART, _hopf_components(eps, bump), depends_on=_RHO)
    raise MetricParameterError(f"unknown metric family {name!r}")


_CHARTS = {"hopf": HOPF_CHART, "cartesian": CARTESIAN_CHART}
_COMPONENT_KEYS = [("11", 0, 0), ("12", 0, 1), ("13", 0, 2),
                   ("22", 1, 1), ("23", 1, 2), ("33", 2, 2)]


def metric_from_expressions(chart_name, entries, name="custom"):
    """Build a metric from six component expressions (upper triangle).

    ``entries`` maps keys g11..g33 to expression strings over the chart
    coordinates (rho, theta1, theta2 or x, y, z); an ExpressionError names its key.
    """
    chart = _CHARTS.get(chart_name)
    if chart is None:
        raise MetricParameterError(f"unknown chart {chart_name!r}; use hopf or cartesian")
    compiled = {}
    for key, i, j in _COMPONENT_KEYS:
        try:
            compiled[(i, j)] = compile_expression(entries.get(f"g{key}", "0"), chart.coords)
        except ExpressionError as err:
            raise ExpressionError(f"g{key}: {err}") from None

    names = chart.coords
    reads = set().union(*(fn.reads for fn in compiled.values()))

    def components(c0, c1, c2):
        env = {names[0]: c0, names[1]: c1, names[2]: c2}
        rows = [[None] * 3 for _ in range(3)]
        for (i, j), fn in compiled.items():
            rows[i][j] = fn(**env)
            rows[j][i] = rows[i][j]
        return rows

    return MetricField(name, chart, components,
                       depends_on=tuple(k for k in range(3) if names[k] in reads))


def load_metric(path):
    """Read a metric from a key-value file: chart plus g11..g33 expressions.

    Example file:
        chart = hopf
        g11 = 1
        g22 = sin(rho)^2
        g33 = cos(rho)^2
        g23 = 0.3*sin(rho)*cos(rho)
    """
    # the value texts as written: the expression grammar reads them
    doc = dict(kvdoc.entries(Path(path).read_text(encoding="utf-8")))
    chart_name = doc.pop("chart", "cartesian")
    valid = {f"g{key}" for key, _, _ in _COMPONENT_KEYS}
    unknown = set(doc) - valid
    if unknown:
        raise MetricParameterError(
            f"unknown metric file keys {sorted(unknown)}; valid: "
            f"chart, {sorted(valid)}")
    return metric_from_expressions(chart_name, doc, name=str(path))


# -- point operations -------------------------------------------------------

def _sym3_inverse_det(g):
    """Inverse and determinant of symmetric 3x3 matrices (..., 3, 3), in
    closed form from the six upper-triangle components (the adjugate over
    det)."""
    a, b, c = g[..., 0, 0], g[..., 0, 1], g[..., 0, 2]
    d, e, f = g[..., 1, 1], g[..., 1, 2], g[..., 2, 2]
    adj = np.empty_like(g)
    adj[..., 0, 0] = d * f - e * e
    adj[..., 0, 1] = c * e - b * f
    adj[..., 0, 2] = b * e - c * d
    adj[..., 1, 1] = a * f - c * c
    adj[..., 1, 2] = b * c - a * e
    adj[..., 2, 2] = a * d - b * b
    adj[..., 1, 0], adj[..., 2, 0], adj[..., 2, 1] = (adj[..., 0, 1], adj[..., 0, 2],
                                                     adj[..., 1, 2])
    det = a * adj[..., 0, 0] + b * adj[..., 0, 1] + c * adj[..., 0, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        adj /= det[..., None, None]
    return adj, det


def _check_nondegenerate(metric, coords, det):
    """Raise MetricParameterError at the first point where det g is not a
    finite positive number.  ``coords`` are the three coordinate arrays
    and ``det`` broadcasts with them (a metric that reads rho alone has
    one value per rho node of an open mesh); points are counted in C order
    of the broadcast shape."""
    bad = ~(np.isfinite(det) & (det > 0))
    if np.any(bad):
        bad, det, *coords = np.broadcast_arrays(bad, det, *coords)
        k = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise MetricParameterError(
            f"metric {metric.name} is singular or not finite at point "
            f"{tuple(float(c[k]) for c in coords)} (det g = {det[k]:.6g})")


def christoffel(metric, point):
    """Christoffel symbols Gamma^k_ij, shape (...,3,3,3) indexed [k,i,j].

    Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij).
    """
    pts = np.atleast_2d(np.asarray(point, dtype=float))
    g, dg = metric.matrix_and_partials(pts)
    ginv, det = _sym3_inverse_det(g)
    _check_nondegenerate(metric, pts.T, det)
    # dg[:, k, i, j] = d_k g_ij; build term[m,i,j,l] = d_i g_jl + d_j g_il - d_l g_ij
    term = dg + dg.transpose(0, 2, 1, 3)
    term -= dg.transpose(0, 2, 3, 1)
    # one matmul over the (m, 9, 3) view gives [m, ij, k] (g^{-1} is symmetric)
    gamma = term.reshape(pts.shape[0], 9, 3) @ ginv
    gamma *= 0.5
    # the result is the [n, ij, k] array seen as [n, k, i, j]
    gamma = gamma.reshape(pts.shape[0], 3, 3, 3).transpose(0, 3, 1, 2)
    return gamma[0] if np.asarray(point).ndim == 1 else gamma


def _default_domain(chart):
    lo = list(chart.lower)
    hi = list(chart.upper)
    for k in range(3):
        if not chart.periodic[k]:
            lo[k] += DOMAIN_CLIP
            hi[k] -= DOMAIN_CLIP
    return list(zip(lo, hi))


def l2_metric_distance(g_a, g_b, background, domain=None, grid=(64, 64, 64),
                       gl_order=4):
    """Squared L2 distance 2 * integral of |gA - gB|^2 dV over the chart.

    The pointwise norm raises indices with ``background`` and dV is the
    background volume form.  Periodic axes use the trapezoid rule,
    non-periodic axes composite Gauss-Legendre with ``gl_order`` nodes per
    panel.  Each metric is evaluated on the open mesh of the nodes, so a
    metric that reads rho alone is computed once per rho node.  The
    density is filled in blocks of whole rho rows, at most
    ``_DENSITY_CHUNK`` points of the axes the metrics read each but at
    least one row, and summed against the product weights in one pass.
    The rule is shared (``quadrature.product_rule``), and a metric passed
    twice, such as the background as ``g_a``, is evaluated once per block.
    """
    metrics = (background, g_a, g_b)
    if any(m.chart.name != background.chart.name for m in metrics):
        raise ChartDomainError("metrics live on different charts")
    chart = background.chart
    if domain is None:
        domain = _default_domain(chart)
    coords, weights = quadrature.product_rule(tuple(map(tuple, domain)), tuple(grid),
                                              chart.periodic, gl_order)
    read = int(np.prod([coords[k].size for k in (1, 2)
                        if any(k in m.depends_on for m in metrics)]))
    distinct = {id(m): m for m in metrics}
    blocks = []
    for rows in quadrature._row_blocks(coords[0].size, read, _DENSITY_CHUNK):
        block = [coords[0][rows], *coords[1:]]
        value = {i: _stack(m.components(*block), block[0].shape) for i, m in distinct.items()}
        back, a, b = (value[id(m)] for m in metrics)
        ginv, det = _sym3_inverse_det(back)
        _check_nondegenerate(background, block, det)
        blocks.append(tensor_norm_sq_batch(ginv, a - b) * np.sqrt(det))
    return 2.0 * float(np.sum(np.concatenate(blocks) * weights))
