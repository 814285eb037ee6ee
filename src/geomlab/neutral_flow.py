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

The boundary target is a ``ChartSection``, which carries the chart the
flow lives in, and whose ``eval`` gives the (u, V, du, dV) samples that
every line-space routine reads (``line_space.symplectic_area``, say).

``run_flow`` projects the boundary ring onto the target section along
the fiber once, before its first row.  A step (``flow_step``, the one
path every run takes) writes interior samples alone: it moves them by
h * H (H the G-orthogonal projection of the discrete tension field),
optionally applies one penalty iteration (``angle_penalty_step``, which
nudges the first interior ring) pulling the boundary hyperbolic angle
toward its target, and records one diagnostics row, as ``run_flow``
records the start state's: induced area, definiteness margin, max |H|,
the normal-projection residual, the boundary angle residual, and the
boundary dbar defect against the monitored schedule C/(1+t).  Each takes
the geometry of its state, ``flow_geometry``, from its caller; it is
arithmetic on the (nx, ny) planes of the chart metric's two distinct
entries and the Christoffel symbols' four sources, with no dense metric
or Christoffel array.  What the boundary terms need beyond that
geometry (the edge samples' chart metric, the ring's embedding
differential contracted with its sphere frame and with itself) depends
on the ring samples alone, which no step writes, so it is built and
checked once per run (``BoundaryRing``) and rebuilt only when the ring
or the section changes.
"""

import functools
from dataclasses import dataclass, field, fields

import numpy as np

from . import jets
from .errors import ChartDomainError, ConfigError, SignatureLossError
from .kernels import sym_eig2_batch
from .line_space import _complement_basis, _psi_from_parts, sphere_frame


# -- chart geometry -----------------------------------------------------------

def _gamma_table():
    """The nonzero Christoffel symbols Gamma^k_ab, a <= b, of the chart as
    index arrays (k, a, b) with each one's source among (a_x, a_y, pp, qq)
    and its sign."""
    X, Y, W1, W2 = range(4)
    ax, ay, pp, qq = range(4)
    rows = [
        (X, X, X, -1, ax), (X, X, Y, -1, ay), (X, Y, Y, 1, ax),
        (Y, X, X, 1, ay), (Y, X, Y, -1, ax), (Y, Y, Y, -1, ay),
        (W1, X, X, 1, pp), (W1, X, Y, -1, qq), (W1, Y, Y, -1, pp),
        (W1, X, W1, -1, ax), (W1, X, W2, -1, ay), (W1, Y, W1, -1, ay), (W1, Y, W2, 1, ax),
        (W2, X, X, 1, qq), (W2, X, Y, 1, pp), (W2, Y, Y, -1, qq),
        (W2, X, W1, 1, ay), (W2, X, W2, -1, ax), (W2, Y, W1, -1, ax), (W2, Y, W2, -1, ay),
    ]
    k, a, b, sign, source = (np.array(col) for col in zip(*rows))
    return k, a, b, sign.astype(float), source


_GAMMA_K, _GAMMA_A, _GAMMA_B, _GAMMA_SIGN, _GAMMA_SOURCE = _gamma_table()
# the 7 lower-index pairs (a, b) the symbols read, as 4a + b, and each
# symbol's pair among them; Gamma^k_AB M^AB over symmetric M is
# _GAMMA_SUM @ (source * M^ab) over the symbols, with an off-diagonal
# pair counted twice
_PAIRS = sorted(set(4 * _GAMMA_A + _GAMMA_B))
_GAMMA_PAIR = np.array([_PAIRS.index(ab) for ab in 4 * _GAMMA_A + _GAMMA_B])
_PAIR_A, _PAIR_B = np.divmod(_PAIRS, 4)
_GAMMA_SUM = np.zeros((4, len(_GAMMA_K)))
_GAMMA_SUM[_GAMMA_K, np.arange(len(_GAMMA_K))] = np.where(_GAMMA_A == _GAMMA_B, 1.0, 2.0) * _GAMMA_SIGN


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
        self._cpq = _complement_basis(tuple(self.center))

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

    @staticmethod
    def _coefficients(x, y, w1, w2):
        """(alpha, beta, a_x, a_y, pp, qq) at points given by their
        coordinate arrays: G_xx = G_yy = alpha and G_{y,w1} = -G_{x,w2} =
        beta (the other entries are zero), and the sources of the
        Christoffel symbols in ``_gamma_table``."""
        xx, yy = x * x, y * y
        d = 1.0 + xx + yy
        d_sq = d ** 2
        return (16.0 * (x * w2 - y * w1) / d ** 3, 4.0 / d_sq, 2.0 * x / d, 2.0 * y / d,
                2.0 * (w1 * (xx - yy + 1.0) + 2.0 * w2 * x * y) / d_sq,
                2.0 * (w2 * (xx - yy - 1.0) - 2.0 * w1 * x * y) / d_sq)

    def metric_and_christoffel(self, pts):
        """Exact G_AB and Gamma^D_AB = gamma[n, D, A, B] at the points."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        sources = np.stack(self._coefficients(*pts.T)[2:])
        vals = sources[_GAMMA_SOURCE] * _GAMMA_SIGN[:, None]
        gamma = np.zeros((4, 4, 4, len(pts)))
        gamma[_GAMMA_K, _GAMMA_A, _GAMMA_B] = vals
        gamma[_GAMMA_K, _GAMMA_B, _GAMMA_A] = vals
        return self.metric(pts), np.ascontiguousarray(gamma.transpose(3, 0, 1, 2))

    def metric(self, pts):
        """Exact G_AB at the points."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        alpha, beta = self._coefficients(*pts.T)[:2]
        g4 = np.zeros((len(pts), 4, 4))
        g4[:, 0, 0] = g4[:, 1, 1] = alpha
        g4[:, 1, 2] = g4[:, 2, 1] = beta
        g4[:, 0, 3] = g4[:, 3, 0] = -beta
        return g4


# -- target sections ----------------------------------------------------------

class ChartSection:
    """Graphical section (x, y) -> fiber (w1, w2) in the coordinates of
    ``chart``, a ``LineSpaceChart``; the map must accept jets."""

    def __init__(self, fiber_fn, chart):
        self.fiber_fn = fiber_fn
        self.chart = chart

    def fiber(self, x, y):
        w1, w2 = self.fiber_fn(np.asarray(x, float), np.asarray(y, float))
        return np.broadcast_to(w1, np.shape(x)).copy(), np.broadcast_to(w2, np.shape(x)).copy()

    def fiber_with_partials(self, x, y):
        """Fiber values w[n, k] and their partials dw[n, a, k], a over (x, y)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return jets.derivatives(self.fiber_fn, [x, y], order=1)

    def eval(self, s, t):
        """The section's lines (u, V) over chart points (x, y) = (s, t) and
        their tangents (du, dV) along x and y, of shapes (..., 3) and
        (..., 2, 3) for the broadcast shape ... of ``s`` and ``t``."""
        s, t = np.broadcast_arrays(np.asarray(s, float), np.asarray(t, float))
        w, dw = self.fiber_with_partials(s.ravel(), t.ravel())
        u, V, diff = self.chart.embed_differential(np.column_stack((s.ravel(), t.ravel(), w)))
        lifted = diff[:, :2] + dw @ diff[:, 2:]    # (n, 2, 6): (e_a + dw[a, k] e_{2+k}) diff
        return (u.reshape(*s.shape, 3), V.reshape(*s.shape, 3),
                lifted[..., :3].reshape(*s.shape, 2, 3), lifted[..., 3:].reshape(*s.shape, 2, 3))


def affine_section(chart, c0=(0.0, 0.0), c1=(0.0, 0.0)):
    """Holomorphic affine section w = c0 + c1 * (x + i y) of ``chart``.

    c1 = -i s is the linear holomorphic twist w = -i s (x + i y): for
    s > 0 its induced metric is positive definite on the open hemisphere
    around the chart center and degenerates at the equator.
    """
    c0 = complex(c0[0], c0[1]) if not isinstance(c0, complex) else c0
    c1 = complex(c1[0], c1[1]) if not isinstance(c1, complex) else c1

    def fiber(x, y):
        return (c0.real + c1.real * x - c1.imag * y,
                c0.imag + c1.imag * x + c1.real * y)
    return ChartSection(fiber, chart)


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
    x_axis: np.ndarray
    y_axis: np.ndarray
    f: np.ndarray              # (nx, ny, 4) chart coordinates
    section: ChartSection      # boundary target; holds the flow's chart
    h: float
    t: float = 0.0
    cosh_target: float = None
    dbar_c: float = 1.0
    angle_rate: float = 0.0
    diagnostics: list = field(default_factory=list)
    halted: str = ""
    # boundary data that depend on the ring samples alone, built by ``_ring``
    ring: "BoundaryRing" = field(default=None, init=False, repr=False, compare=False)

    @property
    def shape(self):
        return self.f.shape[:2]


def _fd_derivatives(f, dx, dy):
    """First and second central differences; one-sided first at the edges.

    Computed on the component planes of ``f`` and returned as point-major
    views d1[i, j, a, A] and d2[i, j, a, b, A] of them, so that
    ``d1.transpose(2, 3, 0, 1)`` is the contiguous tangent planes.
    """
    f = np.ascontiguousarray(f.transpose(2, 0, 1))
    d1 = np.empty((2,) + f.shape)
    d1[0, :, 1:-1] = (f[:, 2:] - f[:, :-2]) / (2 * dx)
    d1[0, :, 0] = (-3 * f[:, 0] + 4 * f[:, 1] - f[:, 2]) / (2 * dx)
    d1[0, :, -1] = (3 * f[:, -1] - 4 * f[:, -2] + f[:, -3]) / (2 * dx)
    d1[1, ..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2 * dy)
    d1[1, ..., 0] = (-3 * f[..., 0] + 4 * f[..., 1] - f[..., 2]) / (2 * dy)
    d1[1, ..., -1] = (3 * f[..., -1] - 4 * f[..., -2] + f[..., -3]) / (2 * dy)
    d2 = np.zeros((2, 2) + f.shape)
    d2[0, 0, :, 1:-1] = (f[:, 2:] - 2 * f[:, 1:-1] + f[:, :-2]) / dx ** 2
    d2[1, 1, ..., 1:-1] = (f[..., 2:] - 2 * f[..., 1:-1] + f[..., :-2]) / dy ** 2
    d2[0, 1, :, 1:-1, 1:-1] = (f[:, 2:, 2:] - f[:, 2:, :-2] - f[:, :-2, 2:]
                               + f[:, :-2, :-2]) / (4 * dx * dy)
    d2[1, 0] = d2[0, 1]
    return d1.transpose(2, 3, 0, 1), d2.transpose(3, 4, 0, 1, 2)


def _t(a):
    """Swap the last two axes."""
    return np.swapaxes(a, -1, -2)


def _det2(m):
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def flow_geometry(state):
    """Shared per-step geometry: derivatives, Gram, mean curvature field.

    Everything is plane arithmetic on (nx, ny) component planes.  With t_a
    the two tangents (4 planes each) and g^ab the inverse Gram, the
    tension is g^ab (d2_ab + Gamma(t_a, t_b)); G t_a is formed once from
    G's two distinct entries and serves the Gram, the projection onto the
    tangent plane and the normal residual.  The Christoffel part is
    Gamma^K_AB M^AB with M = t_a g^ab t_b, summed over ``_gamma_table``'s
    20 symbols, which read only 7 entries of M.  No dense chart metric or
    Christoffel array is built.  Floating-point warnings are off: a
    non-finite sample surfaces as a non-finite margin, which is refused.
    """
    nx, ny = state.shape
    dx = state.x_axis[1] - state.x_axis[0]
    dy = state.y_axis[1] - state.y_axis[0]
    d1, d2 = _fd_derivatives(state.f, dx, dy)
    t = d1.transpose(2, 3, 0, 1)                               # t[a, A]
    with np.errstate(all="ignore"):
        alpha, beta, *sources = LineSpaceChart._coefficients(
            *np.ascontiguousarray(state.f.transpose(2, 0, 1)))
        gt = np.stack((alpha * t[:, 0] - beta * t[:, 3], alpha * t[:, 1] + beta * t[:, 2],
                       beta * t[:, 1], -beta * t[:, 0]), axis=1)  # (G t_a)_A
        gram = np.empty((nx, ny, 2, 2))
        gram[..., 0, 0] = np.sum(t[0] * gt[0], axis=0)
        gram[..., 0, 1] = gram[..., 1, 0] = np.sum(t[0] * gt[1], axis=0)
        gram[..., 1, 1] = np.sum(t[1] * gt[1], axis=0)
        lo, _ = sym_eig2_batch(gram.reshape(-1, 2, 2))
        margin = float(np.min(lo))
        if not margin > 0.0:
            if not np.isfinite(margin):
                raise SignatureLossError(f"induced metric is not finite (margin {margin})")
            raise SignatureLossError(
                f"induced metric lost definiteness (margin {margin:.3e})")

        g00, g01, g11 = gram[..., 0, 0], gram[..., 0, 1], gram[..., 1, 1]
        det = g00 * g11 - g01 ** 2
        i00, i01, i11 = g11 / det, -g01 / det, g00 / det
        raised = np.stack((i00 * t[0] + i01 * t[1], i01 * t[0] + i11 * t[1]))  # g^ab t_b
        pairs = np.sum(t[:, _PAIR_A] * raised[:, _PAIR_B], axis=0)             # M^ab
        terms = np.stack(sources)[_GAMMA_SOURCE] * pairs[_GAMMA_PAIR]
        christoffel = (_GAMMA_SUM @ terms.reshape(len(terms), -1)).reshape(4, nx, ny)
        hess = d2.transpose(2, 3, 4, 0, 1)
        tension = i00 * hess[0, 0] + 2.0 * i01 * hess[0, 1] + i11 * hess[1, 1] + christoffel
        # project G-orthogonally to the tangent plane: subtract
        # t_a g^ab (G t_b . tension)
        rhs = np.sum(gt * tension, axis=1)
        mean_curv = tension - rhs[0] * raised[0] - rhs[1] * raised[1]
        residual = np.sum(gt * mean_curv, axis=1)
    return {
        "d1": d1, "gram": gram, "det": det,
        "christoffel": christoffel.transpose(1, 2, 0), "mean_curv": mean_curv.transpose(1, 2, 0),
        "margin": margin, "normal_residual": float(np.max(np.abs(residual))),
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


@functools.lru_cache(maxsize=8)
def _ring_indices(shape):
    """(ii, jj) of every boundary sample, in C order; read-only."""
    mask = np.ones(shape, dtype=bool)
    mask[1:-1, 1:-1] = False
    ii, jj = np.nonzero(mask)
    ii.flags.writeable = jj.flags.writeable = False
    return ii, jj


def _edge_indices(shape):
    """Boundary samples excluding the four corners, as index arrays (ii, jj),
    with their first-interior neighbours (ni, nj).  Corner tangent frames
    are one-sided in both directions and carry no interior dependence, so
    the angle machinery skips them."""
    nx, ny = shape
    i, j = np.arange(1, nx - 1), np.arange(1, ny - 1)
    # the rows x = 0 and x = nx - 1, then the columns y = 0 and y = ny - 1
    ii = np.concatenate((0 * j, 0 * j + nx - 1, i, i))
    jj = np.concatenate((j, j, 0 * i, 0 * i + ny - 1))
    # each sample's neighbour is one step inward across its edge
    return ii, jj, ii + (ii == 0) - (ii == nx - 1), jj + (jj == 0) - (jj == ny - 1)


@dataclass(frozen=True, eq=False)
class BoundaryRing:
    """What the flow needs of its boundary ring beyond the geometry: the
    ring samples (``samples``, at ``ring_ij``), the products of their chart
    embedding differential D with their sphere frame and with itself
    (``_ring_products``), the non-corner ``edge`` indices with
    their first-interior neighbours, and there the chart metric G and,
    with the target section's tangent basis Q, G Q^T and det(Q G Q^T),
    checked positive when built.  All of it depends only on the ring
    samples and the section with its chart, and no flow step writes the
    ring: ``run_flow`` projects it once, before its first row."""
    section: ChartSection
    shape: tuple               # the grid's (nx, ny)
    ring_ij: tuple             # (ii, jj) of every boundary sample
    samples: np.ndarray        # (m, 4) state.f there
    frame_w: np.ndarray        # (m, 4, 4) [D_u.e1, D_u.e2, D_v.e1, D_v.e2]
    gram: np.ndarray           # (m, 4, 4) D D^T
    edge: tuple                # _edge_indices: (ii, jj, ni, nj)
    edge_metric: np.ndarray    # (m_edge, 4, 4) chart metric
    edge_gq: np.ndarray        # (m_edge, 4, 2) G Q^T
    edge_q_det: np.ndarray     # (m_edge,) det(Q G Q^T)


def _ring_products(diff, frame):
    """W = [D_u.e1, D_u.e2, D_v.e1, D_v.e2] and D D^T of the embedding
    differential D = (D_u, D_v) and the sphere frame (e1, e2): a chart
    tangent t lifts to t D, of frame components t W and length^2 t D D^T t."""
    e = np.transpose(frame)  # (m, 3, 2): e[..., i] = e_i
    return np.concatenate((diff[..., :3] @ e, diff[..., 3:] @ e), axis=-1), diff @ _t(diff)


def _build_ring(state):
    """The ``BoundaryRing`` of the state's current ring samples."""
    ii, jj = _ring_indices(state.shape)
    samples = state.f[ii, jj]
    chart = state.section.chart
    u, _, diff = chart.embed_differential(samples)
    frame_w, gram = _ring_products(diff, sphere_frame(u, tuple(chart.center)))
    edge = _edge_indices(state.shape)
    pts = state.f[edge[0], edge[1]]
    _, dw = state.section.fiber_with_partials(pts[:, 0], pts[:, 1])
    sec_basis = np.zeros((len(pts), 2, 4))
    sec_basis[:, 0, 0] = sec_basis[:, 1, 1] = 1.0
    sec_basis[:, :, 2:] = dw
    edge_metric = chart.metric(pts)
    edge_gq = edge_metric @ _t(sec_basis)
    edge_q_det = _det2(sec_basis @ edge_gq)
    _check_definite(edge_q_det)
    for a in (samples, frame_w, gram, edge_metric, edge_gq, edge_q_det):
        a.flags.writeable = False
    return BoundaryRing(state.section, state.shape, (ii, jj), samples,
                        frame_w, gram, edge, edge_metric, edge_gq, edge_q_det)


def _ring(state):
    """The state's ``BoundaryRing``, rebuilt when the section, the grid or
    any ring sample differs from what it was built from."""
    ring = state.ring
    if (ring is None or ring.section is not state.section or ring.shape != state.shape
            or not np.array_equal(state.f[ring.ring_ij], ring.samples)):
        ring = state.ring = _build_ring(state)
    return ring


def dbar_boundary_norm(state, geo):
    """max |psi| of the disc's tangent planes along the boundary ring, from
    the ring's products: ``defect_psi`` of the lifted tangents, to rounding."""
    ring = _ring(state)
    t = geo["d1"][ring.ring_ij]                                   # (m, 2, 4)
    # t W is (m, 2, 4), tangent k's row [x_k, y_k, p_k, q_k] of _psi_from_parts
    parts = list((t @ ring.frame_w).transpose(1, 2, 0).reshape(8, -1))
    psi = _psi_from_parts(parts, np.sqrt(np.einsum("mka,mka->km", t @ ring.gram, t)))
    return float(np.max(np.abs(psi)))


def _check_definite(det, *others):
    """SignatureLossError unless the plane Gram determinants ``det`` and
    the ``others`` are finite and ``det`` is positive: a 2x2 Gram is
    definite, of either sign, exactly when its determinant is positive."""
    if not all(np.all(np.isfinite(a)) for a in (det, *others)):
        raise SignatureLossError("boundary tangent plane is not finite")
    if not np.all(det > 0.0):
        raise SignatureLossError("boundary tangent plane is not definite")


def _plane_grams(g4, p_basis, gq, q_det):
    """cosh of the hyperbolic angle between two definite planes at a point,
    with the products it is made of: (cosh, P G, P G P^T, P G Q^T).

    ``g4`` is the chart metric G, ``p_basis`` the (2, 4) basis P of the
    first plane, and ``gq`` and ``q_det`` are G Q^T and det(Q G Q^T) of
    the second plane's basis Q.  The cosh is |det| of the cross Gram of
    the G-unit bivectors of the planes, 1 for equal planes, which is
    |det(P G Q^T)| / sqrt(det(P G P^T) det(Q G Q^T)): orthonormalising a
    basis divides the cross determinant by the square root of its own
    Gram determinant.  The first plane is refused unless definite
    (``_check_definite``); the second is the target section's, checked
    once with the ring that holds its products (``_build_ring``).
    """
    gp = p_basis @ g4
    gram = gp @ _t(p_basis)
    cross = p_basis @ gq
    p_det = _det2(gram)
    cross_det = _det2(cross)
    _check_definite(p_det, cross_det)
    return np.abs(cross_det) / np.sqrt(p_det * q_det), gp, gram, cross


def _boundary_planes(ring, geo):
    """``_plane_grams``' arguments at the non-corner boundary samples: the
    chart metric (m, 4, 4), the disc's tangent basis P (m, 2, 4), and
    G Q^T and det(Q G Q^T) of the target section's basis Q."""
    ii, jj, _, _ = ring.edge
    return ring.edge_metric, geo["d1"][ii, jj], ring.edge_gq, ring.edge_q_det


def boundary_angle_cosh(state, geo):
    """cosh of the angle between the disc and the target section, per
    non-corner boundary sample."""
    return _plane_grams(*_boundary_planes(_ring(state), geo))[0]


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
    ring = _ring(state)
    ii, jj, ni, nj = ring.edge
    cosh, gp, gram, cross = _plane_grams(*_boundary_planes(ring, geo))
    a = (nj != jj).astype(int)
    o = 1 - a
    weight = 2.0 * ((ni - ii) + (nj - jj)) / np.where(a == 0, geo["dx"], geo["dy"])
    m = np.arange(len(a))
    r = ring.edge_gq[:, 2:]                       # r[m, k, j]
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
    _, _, ni, nj = _ring(state).edge
    accum = np.zeros(state.shape + (2,))
    count = np.zeros(state.shape)
    np.add.at(accum, (ni, nj), step)
    np.add.at(count, (ni, nj), 1.0)
    nonzero = count > 0
    accum[nonzero] /= count[nonzero][:, None]
    state.f[1:-1, 1:-1, 2:] -= accum[1:-1, 1:-1]
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
    ii, jj = _ring_indices(state.shape)
    xb = state.f[ii, jj, 0]
    yb = state.f[ii, jj, 1]
    _check_in_chart(np.sqrt(xb ** 2 + yb ** 2), "boundary")
    state.f[ii, jj, 2], state.f[ii, jj, 3] = state.section.fiber(xb, yb)


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
    """One explicit step from ``geo = flow_geometry(state)``: the interior
    moves by h*H, then one angle penalty iteration when ``state.angle_rate``
    is positive.  The boundary ring is not written.  Records the step's
    diagnostics row and returns the post-step geometry, which is the next
    step's ``geo``.
    """
    h_field = mean_curvature_vector(geo)
    inner = state.f[1:-1, 1:-1]
    inner += state.h * h_field[1:-1, 1:-1]
    _check_in_chart(np.sqrt(inner[..., 0] ** 2 + inner[..., 1] ** 2), "interior")
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


# the constant fiber c0 of each disc id's target section
_DISC_OFFSETS = {"twisted-hemisphere": (0.0, 0.0), "holomorphic-affine": (0.05, -0.02)}


def _is_integer(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value):
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _to_float(value):
    """float(value) of a number; an integer too large for a float gives
    the infinity of its sign, which the finiteness checks refuse."""
    try:
        return float(value)
    except OverflowError:
        return np.inf if value > 0 else -np.inf


def build_state(config=None, **overrides):
    """Assemble a FlowState from a config mapping (unknown keys rejected).

    ``perturbation`` bumps the ``twisted-hemisphere`` start disc off its
    section; a ``holomorphic-affine`` disc ignores it.
    """
    cfg = dict(FLOW_CONFIG_KEYS)
    supplied = dict(config or {})
    supplied.update(overrides)
    for key, value in supplied.items():
        if key not in FLOW_CONFIG_KEYS:
            raise ConfigError(
                f"unknown flow config key {key!r}; valid keys: "
                f"{sorted(FLOW_CONFIG_KEYS)}")
        cfg[key] = value
    n = cfg["grid_n"]
    if not _is_integer(n) or n < 5:
        raise ConfigError(f"grid_n must be an integer of at least 5, got {n!r}")
    n = int(n)
    for key in ("steps", "snapshot_every"):
        value = cfg[key]
        if not _is_integer(value) or value < 0:
            raise ConfigError(f"{key} must be a non-negative integer, got {value!r}")
        cfg[key] = int(value)
    # checked before the first step: a value a config file gives as text
    # fails in the arithmetic, a step that is not positive runs the flow
    # backward, and a value that is not finite ends in a chart exit or a
    # signature loss
    reals = {key: cfg[key] for key in ("h", "cfl", "angle_rate", "twist_strength",
                                       "perturbation", "dbar_c", "angle_target",
                                       "chart_radius", "stagnation_tol")
             if cfg[key] is not None}
    for key, value in reals.items():
        if not _is_real(value):
            raise ConfigError(f"{key} must be a number, got {value!r}")
        reals[key] = value = _to_float(value)
        if not np.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value!r}")
    for key in ("h", "cfl"):
        if reals.get(key, 1.0) <= 0.0:
            raise ConfigError(f"{key} must be positive, got {reals[key]!r}")
    if reals["angle_rate"] < 0.0:
        raise ConfigError(f"angle_rate must be non-negative, got {reals['angle_rate']!r}")
    radius = reals["chart_radius"]
    if not (0.0 < radius < 1.0):
        raise ConfigError("chart_radius must sit inside the open hemisphere (0,1)")
    center = cfg["center"]
    if not (np.ndim(center) == 1 and len(center) == 3 and all(map(_is_real, center))
            and np.all(np.isfinite([_to_float(c) for c in center])) and np.any(center)):
        raise ConfigError(f"center must be three finite numbers, not all zero, got {center!r}")
    cosh_target = None
    if cfg["angle_target"] is not None:
        with np.errstate(over="ignore"):
            cosh_target = float(np.cosh(reals["angle_target"]))
        if not np.isfinite(cosh_target):
            raise ConfigError(f"angle_target must have a finite cosh, got "
                              f"{reals['angle_target']!r}")
    disc = cfg["disc"]
    if not isinstance(disc, str) or disc not in _DISC_OFFSETS:
        raise ConfigError(f"unknown disc id {disc!r}; "
                          "use twisted-hemisphere or holomorphic-affine")
    # the twist w = -i s (x + i y), offset by the disc's constant fiber
    section = affine_section(LineSpaceChart(center), c0=_DISC_OFFSETS[disc],
                             c1=(0.0, -reals["twist_strength"]))
    x_axis = np.linspace(-radius, radius, n)
    y_axis = np.linspace(-radius, radius, n)
    xm, ym = np.meshgrid(x_axis, y_axis, indexing="ij")
    f = np.zeros((n, n, 4))
    f[..., 0] = xm
    f[..., 1] = ym
    f[..., 2], f[..., 3] = section.fiber(xm, ym)
    amp = reals["perturbation"]
    if amp and disc == "twisted-hemisphere":
        shape_fn = (1.0 - (xm / radius) ** 2) * (1.0 - (ym / radius) ** 2)
        f[..., 2] += amp * shape_fn
        f[..., 3] += 0.5 * amp * shape_fn * (xm / radius)
    dx = x_axis[1] - x_axis[0]
    h = reals["h"] if "h" in reals else reals["cfl"] * dx * dx
    state = FlowState(x_axis, y_axis, f, section, float(h), cosh_target=cosh_target,
                      dbar_c=reals["dbar_c"], angle_rate=reals["angle_rate"])
    return state, cfg


def run_flow(config=None, **overrides):
    """Iterate flow steps per the config; halts on budget, signature loss,
    chart exit, or stagnation.  The boundary ring is projected onto the
    target section once, before the first row (ChartDomainError if off
    the chart, not a halt).  Returns (state, snapshots)."""
    state, cfg = build_state(config, **overrides)
    every = cfg["snapshot_every"]
    tol = float(cfg["stagnation_tol"])
    snapshots = []
    project_boundary(state)
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
