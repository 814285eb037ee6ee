"""Mean curvature flow of graphical discs in the oriented-line space.

The flow lives in a holomorphic chart over a hemisphere: stereographic
base coordinates (x, y) and fiber coordinates (w1, w2) in which the
ambient complex structure is literally multiplication by i (verified by
the test suite).  Consequences used here:

  * the neutral metric and its Christoffel symbols are exact (closed forms
    of the chart, the tangent-bundle chart of the stereographic map), so the
    only discretisation is in the disc's own finite differences;
  * fiber-affine discs w = c0 + c1 (x + i y) are holomorphic, hence
    maximal: their discrete mean curvature vanishes to rounding because
    second differences of affine data are exactly zero.

A step (``flow_step``, the one path every run takes) moves interior
samples by h * H (H the G-orthogonal projection of the discrete tension
field), re-projects boundary samples onto the target section along the
fiber, optionally applies one penalty iteration (``angle_penalty_step``)
pulling the boundary hyperbolic angle toward its target, and records one
diagnostics row, as ``run_flow`` records the start state's: induced area,
definiteness margin, max |H|, the normal-projection residual, the boundary
angle residual, and the boundary dbar defect against the monitored
schedule C/(1+t).  Each takes the geometry of its state, ``flow_geometry``,
from its caller.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from . import jets
from .errors import ChartDomainError, ConfigError, SignatureLossError
from .kernels import sym_eig2_batch
from .line_space import _complement_basis, defect_psi


# -- chart geometry -----------------------------------------------------------

class LineSpaceChart:
    """Holomorphic coordinates (x, y, w1, w2) on the line space.

    (x, y) is the stereographic chart of the direction sphere around
    ``center`` (covering the open hemisphere for x^2+y^2 < 1) and
    (w1, w2) the fiber components in the chart frame, scaled so that
    w = w1 + i w2 transforms as the holomorphic fiber coordinate.

    The scaled frame beta (e1, e2), beta = 2/D, D = 1 + x^2 + y^2, is
    exactly (u_x, u_y), so V = w1 u_x + w2 u_y: the chart is the
    tangent-bundle chart of the stereographic map, and the embedding, its
    partials, the metric and its Christoffel symbols are closed forms.  The
    neutral metric is invariant under rotations, so G and Gamma do not
    depend on ``center``.
    """

    def __init__(self, center=(0.0, 0.0, 1.0)):
        self.center = np.asarray(center, dtype=float)
        self.center /= np.linalg.norm(self.center)
        self._cpq = _complement_basis(self.center)

    def embed_differential(self, pts):
        """(u, V, D) with D[n, A] = (du, dV) of the chart direction A."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        x, y, w1, w2 = (pts[:, k, None] for k in range(4))
        c, p, q = self._cpq
        d = 1.0 + x * x + y * y
        # u is the inverse stereographic map; V = w1 u_x + w2 u_y
        u = (2.0 * x * p + 2.0 * y * q + (1.0 - x * x - y * y) * c) / d
        cu = c + u
        u_x = 2.0 * (p - x * cu) / d
        u_y = 2.0 * (q - y * cu) / d
        u_xx = -2.0 * (cu + 2.0 * x * u_x) / d
        u_yy = -2.0 * (cu + 2.0 * y * u_y) / d
        u_xy = -2.0 * (x * u_y + y * u_x) / d
        diff = np.zeros((len(pts), 4, 6))
        diff[:, 0, :3] = u_x
        diff[:, 1, :3] = u_y
        diff[:, 0, 3:] = w1 * u_xx + w2 * u_xy
        diff[:, 1, 3:] = w1 * u_xy + w2 * u_yy
        diff[:, 2, 3:] = u_x
        diff[:, 3, 3:] = u_y
        return u, w1 * u_x + w2 * u_y, diff

    def metric_and_christoffel(self, pts):
        """Exact G_AB and Gamma^D_AB = gamma[n, D, A, B] at the points."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        g4 = self.metric(pts)
        x, y, w1, w2 = pts.T
        d = 1.0 + x * x + y * y
        a_x = 2.0 * x / d
        a_y = 2.0 * y / d
        pp = 2.0 * (w1 * (x * x - y * y + 1.0) + 2.0 * w2 * x * y) / d ** 2
        qq = 2.0 * (w2 * (x * x - y * y - 1.0) - 2.0 * w1 * x * y) / d ** 2
        X, Y, W1, W2 = range(4)
        entries = {
            X: {(X, X): -a_x, (X, Y): -a_y, (Y, Y): a_x},
            Y: {(X, X): a_y, (X, Y): -a_x, (Y, Y): -a_y},
            W1: {(X, X): pp, (X, Y): -qq, (Y, Y): -pp,
                 (X, W1): -a_x, (X, W2): -a_y, (Y, W1): -a_y, (Y, W2): a_x},
            W2: {(X, X): qq, (X, Y): pp, (Y, Y): -qq,
                 (X, W1): a_y, (X, W2): -a_x, (Y, W1): -a_x, (Y, W2): -a_y},
        }
        gamma = np.zeros((len(pts), 4, 4, 4))
        for k, row in entries.items():
            for (a, b), val in row.items():
                gamma[:, k, a, b] = gamma[:, k, b, a] = val
        return g4, gamma

    def metric(self, pts):
        """Exact G_AB at the points."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        x, y, w1, w2 = pts.T
        d = 1.0 + x * x + y * y
        g4 = np.zeros((len(pts), 4, 4))
        g4[:, 0, 0] = g4[:, 1, 1] = 16.0 * (x * w2 - y * w1) / d ** 3
        g4[:, 1, 2] = g4[:, 2, 1] = 4.0 / d ** 2
        g4[:, 0, 3] = g4[:, 3, 0] = -4.0 / d ** 2
        return g4


# -- target sections ----------------------------------------------------------

class ChartSection:
    """Graphical section (x, y) -> fiber (w1, w2); the map must accept jets."""

    def __init__(self, fiber_fn, name="section"):
        self.fiber_fn = fiber_fn
        self.name = name

    def fiber(self, x, y):
        w1, w2 = self.fiber_fn(np.asarray(x, float), np.asarray(y, float))
        return np.broadcast_to(w1, np.shape(x)).copy(), np.broadcast_to(w2, np.shape(x)).copy()

    def fiber_with_partials(self, x, y):
        """Fiber values w[n, k] and their partials dw[n, a, k], a over (x, y)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return jets.derivatives(self.fiber_fn, [x, y], order=1)


def twisted_zero_section(strength):
    """Zero section plus the linear holomorphic twist, w = -i s (x + i y).

    For strength > 0 the induced metric is positive definite on the open
    hemisphere around the chart center and degenerates at the equator.
    """
    s = float(strength)
    return ChartSection(lambda x, y: (s * y, -s * x), name=f"twisted-zero[{s}]")


def affine_section(c0=(0.0, 0.0), c1=(0.0, 0.0)):
    """Holomorphic affine section w = c0 + c1 * (x + i y)."""
    c0 = complex(c0[0], c0[1]) if not isinstance(c0, complex) else c0
    c1 = complex(c1[0], c1[1]) if not isinstance(c1, complex) else c1

    def fiber(x, y):
        return (c0.real + c1.real * x - c1.imag * y,
                c0.imag + c1.imag * x + c1.real * y)
    return ChartSection(fiber, name="affine")


# -- flow state ---------------------------------------------------------------

@dataclass
class FlowDiagnostics:
    step: int
    time: float
    area: float
    margin: float
    max_h: float
    normal_residual: float
    angle_residual: float
    dbar_norm: float
    dbar_target: float

    def as_row(self):
        """The field values in field order: a row of the flow CSV, whose
        header is the field names."""
        return [getattr(self, f.name) for f in fields(self)]


@dataclass
class FlowState:
    chart: LineSpaceChart
    x_axis: np.ndarray
    y_axis: np.ndarray
    f: np.ndarray              # (nx, ny, 4) chart coordinates
    section: ChartSection      # boundary target
    h: float
    t: float = 0.0
    cosh_target: float = None
    dbar_c: float = 1.0
    angle_rate: float = 0.0
    diagnostics: list = field(default_factory=list)
    halted: str = ""

    @property
    def shape(self):
        return self.f.shape[:2]


def _fd_derivatives(f, dx, dy):
    """First and second central differences; one-sided first at the edges."""
    d1 = np.empty(f.shape[:2] + (2,) + f.shape[2:])
    d1[1:-1, :, 0] = (f[2:] - f[:-2]) / (2 * dx)
    d1[0, :, 0] = (-3 * f[0] + 4 * f[1] - f[2]) / (2 * dx)
    d1[-1, :, 0] = (3 * f[-1] - 4 * f[-2] + f[-3]) / (2 * dx)
    d1[:, 1:-1, 1] = (f[:, 2:] - f[:, :-2]) / (2 * dy)
    d1[:, 0, 1] = (-3 * f[:, 0] + 4 * f[:, 1] - f[:, 2]) / (2 * dy)
    d1[:, -1, 1] = (3 * f[:, -1] - 4 * f[:, -2] + f[:, -3]) / (2 * dy)
    d2 = np.zeros(f.shape[:2] + (2, 2) + f.shape[2:])
    d2[1:-1, :, 0, 0] = (f[2:] - 2 * f[1:-1] + f[:-2]) / dx ** 2
    d2[:, 1:-1, 1, 1] = (f[:, 2:] - 2 * f[:, 1:-1] + f[:, :-2]) / dy ** 2
    mixed = np.zeros_like(f)
    mixed[1:-1, 1:-1] = (f[2:, 2:] - f[2:, :-2] - f[:-2, 2:] + f[:-2, :-2]) / (4 * dx * dy)
    d2[:, :, 0, 1] = mixed
    d2[:, :, 1, 0] = mixed
    return d1, d2


def _t(a):
    """Swap the last two axes."""
    return np.swapaxes(a, -1, -2)


def _det2(m):
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def flow_geometry(state):
    """Shared per-step geometry: derivatives, Gram, mean curvature field.

    With d1 the (2, 4) tangents and ginv the inverse Gram at a sample,
    the tension is ginv^ab (d2_ab + Gamma(d1_a, d1_b)); its Christoffel
    part is Gamma^A_BC M^BC with M = d1^T ginv d1, one (4, 16) @ (16,)
    product.  G d1 is formed once and serves the Gram, the projection onto
    the tangent plane and the normal residual; every contraction is a
    matmul.
    """
    nx, ny = state.shape
    dx = state.x_axis[1] - state.x_axis[0]
    dy = state.y_axis[1] - state.y_axis[0]
    d1, d2 = _fd_derivatives(state.f, dx, dy)
    pts = state.f.reshape(-1, 4)
    g4, gamma = state.chart.metric_and_christoffel(pts)
    g4 = g4.reshape(nx, ny, 4, 4)
    gamma = gamma.reshape(nx, ny, 4, 16)
    gd1 = d1 @ g4                                  # (nx, ny, 2, 4), G symmetric
    gram = gd1 @ _t(d1)

    lo, hi = sym_eig2_batch(np.ascontiguousarray(gram.reshape(-1, 2, 2)))
    margin = float(np.min(lo))
    if not margin > 0.0:
        if not np.isfinite(margin):
            raise SignatureLossError(f"induced metric is not finite (margin {margin})")
        raise SignatureLossError(
            f"induced metric lost definiteness (margin {margin:.3e})")

    det = gram[..., 0, 0] * gram[..., 1, 1] - gram[..., 0, 1] ** 2
    ginv = np.empty_like(gram)
    ginv[..., 0, 0] = gram[..., 1, 1] / det
    ginv[..., 1, 1] = gram[..., 0, 0] / det
    ginv[..., 0, 1] = ginv[..., 1, 0] = -gram[..., 0, 1] / det

    second = (ginv.reshape(nx, ny, 1, 4) @ d2.reshape(nx, ny, 4, 4))[..., 0, :]
    christoffel = (gamma @ (_t(d1) @ ginv @ d1).reshape(nx, ny, 16, 1))[..., 0]
    tension = second + christoffel
    # project G-orthogonally to the tangent plane
    rhs = gd1 @ tension[..., None]
    coef = ginv @ rhs
    mean_curv = tension - (_t(coef) @ d1)[..., 0, :]
    residual = gd1 @ mean_curv[..., None]
    return {
        "d1": d1, "g4": g4, "gram": gram, "det": det,
        "mean_curv": mean_curv, "margin": margin,
        "normal_residual": float(np.max(np.abs(residual))),
        "dx": dx, "dy": dy,
    }


def mean_curvature_vector(geo):
    """Mean curvature field H of ``geo = flow_geometry(state)`` in chart
    components, zero on the boundary ring."""
    h_field = geo["mean_curv"].copy()
    h_field[0, :] = h_field[-1, :] = 0.0
    h_field[:, 0] = h_field[:, -1] = 0.0
    return h_field


def induced_area(state, geo):
    """Trapezoid integral of sqrt(det Gram) over the parameter square."""
    dens = np.sqrt(geo["det"])
    wx = np.full(state.shape[0], geo["dx"])
    wx[0] = wx[-1] = 0.5 * geo["dx"]
    wy = np.full(state.shape[1], geo["dy"])
    wy[0] = wy[-1] = 0.5 * geo["dy"]
    return float(wx @ dens @ wy)


def boundary_mask(shape):
    mask = np.zeros(shape, dtype=bool)
    mask[0, :] = mask[-1, :] = True
    mask[:, 0] = mask[:, -1] = True
    return mask


def _edge_indices(shape):
    """Boundary samples excluding the four corners, as index arrays (ii, jj),
    with their first-interior neighbours (ni, nj).  Corner tangent frames
    are one-sided in both directions and carry no interior dependence, so
    the angle machinery skips them."""
    nx, ny = shape
    pairs = []
    pairs.extend(((0, j), (1, j)) for j in range(1, ny - 1))
    pairs.extend(((nx - 1, j), (nx - 2, j)) for j in range(1, ny - 1))
    pairs.extend(((i, 0), (i, 1)) for i in range(1, nx - 1))
    pairs.extend(((i, ny - 1), (i, ny - 2)) for i in range(1, nx - 1))
    pairs = np.array(pairs)
    return pairs[:, 0, 0], pairs[:, 0, 1], pairs[:, 1, 0], pairs[:, 1, 1]


def dbar_boundary_norm(state, geo):
    """max |psi| of the disc's tangent planes along the boundary ring."""
    ii, jj = np.nonzero(boundary_mask(state.shape))
    pts = state.f[ii, jj]
    u, V, diff = state.chart.embed_differential(pts)
    d1 = geo["d1"][ii, jj]                        # (m, 2, 4)
    lifted = d1 @ diff                            # (m, 2, 6)
    psi = defect_psi(u, V, lifted[:, 0, :3], lifted[:, 0, 3:],
                     lifted[:, 1, :3], lifted[:, 1, 3:], tuple(state.chart.center))
    return float(np.max(np.abs(psi)))


def _plane_cosh(g4, p_basis, q_basis):
    """cosh of the hyperbolic angle between two definite planes at a point.

    It is |det| of the cross Gram of the G-unit bivectors of the planes,
    1 for equal planes.  With P and Q the (2, 4) bases that is
    |det(P G Q^T)| / sqrt(det(P G P^T) det(Q G Q^T)): orthonormalising a
    basis divides the cross determinant by the square root of its own
    Gram determinant.  A 2x2 Gram is definite, of either sign, exactly
    when its determinant is positive, so a plane with det <= 0 is refused.
    """
    return _plane_grams(g4, p_basis, q_basis)[0]


def _plane_grams(g4, p_basis, q_basis):
    """``_plane_cosh`` with the products it is made of: (cosh, P G,
    P G P^T, P G Q^T)."""
    gp = p_basis @ g4
    gram = gp @ _t(p_basis)
    cross = gp @ _t(q_basis)
    p_det = _det2(gram)
    q_det = _det2(q_basis @ g4 @ _t(q_basis))
    cross_det = _det2(cross)
    if not np.all(np.isfinite([p_det, q_det, cross_det])):
        raise SignatureLossError("boundary tangent plane is not finite")
    if not (np.all(p_det > 0.0) and np.all(q_det > 0.0)):
        raise SignatureLossError("boundary tangent plane is not definite")
    return np.abs(cross_det) / np.sqrt(p_det * q_det), gp, gram, cross


def _boundary_planes(state, geo):
    """The chart metric (m, 4, 4), the disc's tangent basis (m, 2, 4) and
    the target section's (m, 2, 4) at the non-corner boundary samples."""
    ii, jj, _, _ = _edge_indices(state.shape)
    pts = state.f[ii, jj]
    _, dw = state.section.fiber_with_partials(pts[:, 0], pts[:, 1])
    sec_basis = np.zeros((len(ii), 2, 4))
    sec_basis[:, 0, 0] = sec_basis[:, 1, 1] = 1.0
    sec_basis[:, :, 2:] = dw
    return geo["g4"][ii, jj], geo["d1"][ii, jj], sec_basis


def boundary_angle_cosh(state, geo):
    """cosh of the angle between the disc and the target section, per
    non-corner boundary sample."""
    return _plane_cosh(*_boundary_planes(state, geo))


def angle_residual(state, geo):
    """Mean |cosh(angle) - cosh(target)| over the non-corner boundary; the
    first call fixes an unset target at the measured mean."""
    cosh_vals = boundary_angle_cosh(state, geo)
    if state.cosh_target is None:
        state.cosh_target = float(np.mean(cosh_vals))
    return float(np.mean(np.abs(cosh_vals - state.cosh_target)))


def _angle_gradient(state, geo):
    """``boundary_angle_cosh`` and its exact gradient (m, 2) in the fiber
    of each sample's own first-interior node.

    That node enters the sample only through the one-sided normal
    difference: moving its fiber component k by w moves row a (the normal
    axis) of the disc basis P by w weight e_{2+k}, weight = +-4/(2 dx).
    With o = 1 - a, M = P G Q^T, N = P G P^T, r = e_{2+k} G Q^T and
    s = P G e_{2+k}, per unit row move c = det M (linear in the row) moves
    by r_a M_oo - r_o M_oa and p = det N by 2 (N_oo s_a - N_ao s_o), so
    d cosh = cosh (dc / c - dp / (2 p)).
    """
    ii, jj, ni, nj = _edge_indices(state.shape)
    g4, disc_basis, sec_basis = _boundary_planes(state, geo)
    cosh, gp, gram, cross = _plane_grams(g4, disc_basis, sec_basis)
    a = (nj != jj).astype(int)
    o = 1 - a
    weight = 2.0 * ((ni - ii) + (nj - jj)) / np.where(a == 0, geo["dx"], geo["dy"])
    m = np.arange(len(a))
    r = (g4 @ _t(sec_basis))[:, 2:]               # r[m, k, j]
    s = gp[:, :, 2:]                              # s[m, b, k]
    dc = r[m, :, a] * cross[m, o, o, None] - r[m, :, o] * cross[m, o, a, None]
    dp = 2.0 * (gram[m, o, o, None] * s[m, a] - gram[m, a, o, None] * s[m, o])
    dlog = dc / _det2(cross)[:, None] - dp / (2.0 * _det2(gram))[:, None]
    return cosh, (weight * cosh)[:, None] * dlog


def angle_penalty_step(state, geo):
    """One penalty iteration on the boundary angle, at ``state.angle_rate``.

    Nudges the fiber components of the first interior ring along the
    exact gradient of (cosh angle - cosh target)^2, with the per-sample
    move clamped to a fraction of the grid spacing.  ``geo`` is
    ``flow_geometry(state)`` before the nudge; returns the post-step
    residual and the post-step geometry.
    """
    base, grads = _angle_gradient(state, geo)
    if state.cosh_target is None:
        state.cosh_target = float(np.mean(base))
    err = base - state.cosh_target
    norm_sq = np.sum(grads ** 2, axis=1)
    scale = np.where(norm_sq > 1e-30, err / np.maximum(norm_sq, 1e-30), 0.0)
    step = state.angle_rate * scale[:, None] * grads
    cap = 0.05 * (state.x_axis[1] - state.x_axis[0])
    mag = np.sqrt(np.sum(step ** 2, axis=1, keepdims=True))
    step = np.where(mag > cap, step * (cap / np.maximum(mag, 1e-300)), step)
    # nodes adjacent to a corner serve two boundary samples; average their
    # requested nudges instead of stacking them
    _, _, ni, nj = _edge_indices(state.shape)
    accum = np.zeros(state.shape + (2,))
    count = np.zeros(state.shape)
    np.add.at(accum, (ni, nj), step)
    np.add.at(count, (ni, nj), 1.0)
    nonzero = count > 0
    accum[nonzero] /= count[nonzero][:, None]
    state.f[..., 2:] -= accum
    geo = flow_geometry(state)
    return angle_residual(state, geo), geo


# hemisphere edge in chart radius: samples must stay inside it
_CHART_LIMIT = 0.98


def _check_in_chart(r, where):
    """ChartDomainError unless every chart radius is below ``_CHART_LIMIT``."""
    if not np.all(r < _CHART_LIMIT):
        if not np.all(np.isfinite(r)):
            raise ChartDomainError(f"{where} sample is not finite")
        raise ChartDomainError(f"{where} sample ran off the hemisphere chart")


def project_boundary(state):
    """Condition (ii): boundary fibers snap onto the target section."""
    mask = boundary_mask(state.shape)
    xb = state.f[mask][:, 0]
    yb = state.f[mask][:, 1]
    _check_in_chart(np.sqrt(xb ** 2 + yb ** 2), "boundary")
    w1, w2 = state.section.fiber(xb, yb)
    fib = state.f[mask]
    fib[:, 2] = w1
    fib[:, 3] = w2
    state.f[mask] = fib


def _record(state, geo, h_field, angle_res):
    """Append the diagnostics row of the current state, whose geometry is
    ``geo``: ``h_field`` is the mean curvature the step that led here moved
    by (the state's own at step 0), ``angle_res`` its angle residual."""
    state.diagnostics.append(FlowDiagnostics(
        step=len(state.diagnostics), time=state.t,
        area=induced_area(state, geo), margin=geo["margin"],
        max_h=float(np.max(np.sqrt(np.sum(h_field ** 2, axis=-1)))),
        normal_residual=geo["normal_residual"], angle_residual=angle_res,
        dbar_norm=dbar_boundary_norm(state, geo),
        dbar_target=state.dbar_c / (1.0 + state.t)))


def flow_step(state, geo):
    """One explicit step from ``geo = flow_geometry(state)``: interior moves
    by h*H, boundary re-projected, then one angle penalty iteration when
    ``state.angle_rate`` is positive.  Records the step's diagnostics row
    and returns the post-step geometry, which is the next step's ``geo``.
    """
    h_field = mean_curvature_vector(geo)
    state.f = state.f + state.h * h_field
    interior = ~boundary_mask(state.shape)
    r_int = np.sqrt(state.f[..., 0] ** 2 + state.f[..., 1] ** 2)
    _check_in_chart(r_int[interior], "interior")
    project_boundary(state)
    geo = flow_geometry(state)
    if state.angle_rate > 0.0:
        angle_res, geo = angle_penalty_step(state, geo)
    else:
        angle_res = angle_residual(state, geo)
    state.t += state.h
    _record(state, geo, h_field, angle_res)
    return geo


# -- configuration ------------------------------------------------------------

FLOW_CONFIG_KEYS = {
    "grid_n": 25, "chart_radius": 0.55, "center": (0.0, 0.0, 1.0),
    "twist_strength": 1.0, "disc": "twisted-hemisphere",
    "perturbation": 0.0, "h": None, "cfl": 0.2, "steps": 200,
    "angle_target": None, "dbar_c": 1.0, "angle_rate": 0.0,
    "stagnation_tol": 0.0, "snapshot_every": 0,
}


def build_state(config=None, **overrides):
    """Assemble a FlowState from a config mapping (unknown keys rejected)."""
    cfg = dict(FLOW_CONFIG_KEYS)
    supplied = dict(config or {})
    supplied.update(overrides)
    for key, value in supplied.items():
        if key not in FLOW_CONFIG_KEYS:
            raise ConfigError(
                f"unknown flow config key {key!r}; valid keys: "
                f"{sorted(FLOW_CONFIG_KEYS)}")
        cfg[key] = value
    n = int(cfg["grid_n"])
    if n < 5:
        raise ConfigError("grid_n must be at least 5")
    for key in ("steps", "snapshot_every"):
        value = cfg[key]
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
            raise ConfigError(f"{key} must be a non-negative integer, got {value!r}")
        cfg[key] = int(value)
    radius = float(cfg["chart_radius"])
    if not (0.0 < radius < 1.0):
        raise ConfigError("chart_radius must sit inside the open hemisphere (0,1)")
    strength = float(cfg["twist_strength"])
    chart = LineSpaceChart(cfg["center"])
    section = twisted_zero_section(strength)
    x_axis = np.linspace(-radius, radius, n)
    y_axis = np.linspace(-radius, radius, n)
    xm, ym = np.meshgrid(x_axis, y_axis, indexing="ij")
    f = np.zeros((n, n, 4))
    f[..., 0] = xm
    f[..., 1] = ym
    disc = cfg["disc"]
    w1, w2 = section.fiber(xm, ym)
    if disc == "twisted-hemisphere":
        f[..., 2] = w1
        f[..., 3] = w2
        amp = float(cfg["perturbation"])
        if amp:
            shape_fn = (1.0 - (xm / radius) ** 2) * (1.0 - (ym / radius) ** 2)
            f[..., 2] += amp * shape_fn
            f[..., 3] += 0.5 * amp * shape_fn * (xm / radius)
    elif disc == "holomorphic-affine":
        sec = affine_section(c0=(0.05, -0.02), c1=(0.0, -strength))
        w1a, w2a = sec.fiber(xm, ym)
        f[..., 2] = w1a
        f[..., 3] = w2a
        section = sec
    else:
        raise ConfigError(f"unknown disc id {disc!r}; "
                          "use twisted-hemisphere or holomorphic-affine")
    dx = x_axis[1] - x_axis[0]
    h = cfg["h"] if cfg["h"] is not None else float(cfg["cfl"]) * dx * dx
    state = FlowState(chart, x_axis, y_axis, f, section, float(h),
                      cosh_target=None if cfg["angle_target"] is None
                      else float(np.cosh(cfg["angle_target"])),
                      dbar_c=float(cfg["dbar_c"]),
                      angle_rate=float(cfg["angle_rate"]))
    return state, cfg


def run_flow(config=None, **overrides):
    """Iterate flow steps per the config; halts on budget, signature loss,
    chart exit, or stagnation.  Returns (state, snapshots)."""
    state, cfg = build_state(config, **overrides)
    every = cfg["snapshot_every"]
    tol = float(cfg["stagnation_tol"])
    snapshots = []
    try:
        geo = flow_geometry(state)
        _record(state, geo, mean_curvature_vector(geo), angle_residual(state, geo))
        for step in range(cfg["steps"]):
            geo = flow_step(state, geo)
            if every and (step + 1) % every == 0:
                snapshots.append((state.t, state.f.copy()))
            if tol and state.diagnostics[-1].max_h < tol:
                state.halted = "stagnation"
                break
    except (SignatureLossError, ChartDomainError) as err:
        state.halted = f"{type(err).__name__}: {err}"
    return state, snapshots
