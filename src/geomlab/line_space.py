"""The space of oriented lines of flat R^3 and its neutral pseudo-Kahler structure.

An oriented line is a pair (u, V) with |u| = 1 the direction and V the
foot of the perpendicular from the origin (u.V = 0); this realises the
space as the total space of the tangent bundle of the 2-sphere.  Tangent
vectors (du, dV) obey u.du = 0 and u.dV + V.du = 0.

The structure triple used throughout:

  J(du, dV) = (u x du, u x P(dV) + c u),  P(w) = w - (u.w)u,
              c = -V.(u x du)               [rotation by 90 deg about u]
  omega(X, Y) = dV_X . du_Y - dV_Y . du_X   [exact: omega = d(V . du)]
  G(X, Y) = omega(J X, Y)                   [symmetric, signature (2,2)]

Normal congruences of oriented surfaces are Lagrangian sections; their
complex points (tangent plane preserved by J) sit exactly over the
surface's umbilics, and the Keller-Maslov index of a loop equals four
times the enclosed umbilic index sum.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import ChartDomainError, ConfigError, UnreliableLoopError
from .kernels import cross3, dot3
from .surface_geom import _grid_eval
from .umbilic_topology import (_LOOP_CELLS, _LOOP_SAMPLES, _loop_index,
                               _loop_winding, _scan_zeros)

TWO_PI = 2.0 * np.pi
CONSTRAINT_TOL = 1e-12


# -- containers --------------------------------------------------------------

@dataclass
class OrientedLine:
    u: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.V = np.asarray(self.V, dtype=float)

    def validate(self, tol=CONSTRAINT_TOL):
        if abs(np.dot(self.u, self.u) - 1.0) > tol:
            raise ValueError("direction is not unit length")
        if abs(np.dot(self.u, self.V)) > tol:
            raise ValueError("foot vector is not perpendicular to the direction")


@dataclass
class LineTangent:
    base: OrientedLine
    du: np.ndarray
    dV: np.ndarray

    def __post_init__(self):
        self.du = np.asarray(self.du, dtype=float)
        self.dV = np.asarray(self.dV, dtype=float)

    def validate(self, tol=CONSTRAINT_TOL):
        scale = 1.0 + float(np.max(np.abs(self.du)) + np.max(np.abs(self.dV)))
        if abs(np.dot(self.base.u, self.du)) > tol * scale:
            raise ValueError("du is not tangent to the direction sphere")
        res = np.dot(self.base.u, self.dV) + np.dot(self.base.V, self.du)
        if abs(res) > tol * scale:
            raise ValueError("(du, dV) violates the foot-perpendicularity constraint")


def line_through(point, direction):
    """Oriented line through ``point`` with unit ``direction``."""
    u = np.asarray(direction, dtype=float)
    u = u / np.linalg.norm(u)
    p = np.asarray(point, dtype=float)
    return OrientedLine(u, p - np.dot(p, u) * u)


def random_base(rng):
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    w = rng.normal(size=3)
    return OrientedLine(u, w - np.dot(w, u) * u)


def random_tangent(rng, base, scale=1.0):
    a = rng.normal(size=3) * scale
    du = a - np.dot(a, base.u) * base.u
    w = rng.normal(size=3) * scale
    dV = w - (np.dot(base.u, w) + np.dot(base.V, du)) * base.u
    return LineTangent(base, du, dV)


# -- structure kernels (batched over leading axes) ---------------------------

def _dot(a, b):
    return np.einsum("...i,...i->...", a, b)


def _components(a):
    """The three components of vectors along the last axis of ``a``."""
    a = np.asarray(a, dtype=float)
    return [a[..., k] for k in range(3)]


def apply_j(u, V, du, dV):
    """Ambient complex structure on a tangent (du, dV) at base (u, V)."""
    u, V, du, dV = (_components(a) for a in (u, V, du, dV))
    du2 = cross3(u, du)
    udv = dot3(u, dV)
    perp = [d - udv * uk for d, uk in zip(dV, u)]
    c = -dot3(V, du2)
    dV2 = [a + c * uk for a, uk in zip(cross3(u, perp), u)]
    return np.stack(du2, axis=-1), np.stack(dV2, axis=-1)


def omega_pair(du_x, dv_x, du_y, dv_y):
    """Symplectic form on two tangents given by their components."""
    return _dot(dv_x, du_y) - _dot(dv_y, du_x)


def metric_pair(u, V, du_x, dv_x, du_y, dv_y):
    """Neutral metric G(X, Y) = omega(J X, Y)."""
    ju, jv = apply_j(u, V, du_x, dv_x)
    return omega_pair(ju, jv, du_y, dv_y)


def neutral_structures(x, y):
    """(J x, omega(x, y), G(x, y)) for tangents at a common base line."""
    if not np.allclose(x.base.u, y.base.u) or not np.allclose(x.base.V, y.base.V):
        raise ValueError("tangents live at different base lines")
    u, V = x.base.u, x.base.V
    ju, jv = apply_j(u, V, x.du, x.dV)
    om = omega_pair(x.du, x.dV, y.du, y.dV)
    g = metric_pair(u, V, x.du, x.dV, y.du, y.dV)
    return LineTangent(x.base, ju, jv), float(om), float(g)


def potential_form(V, du):
    """Primitive lambda with d(lambda) = omega: lambda(du, dV) = V . du."""
    return _dot(V, du)


# -- sphere frames ------------------------------------------------------------

def _complement_basis(center):
    c = np.asarray(center, dtype=float)
    c = c / np.linalg.norm(c)
    k = np.argmin(np.abs(c))
    axis = np.zeros(3)
    axis[k] = 1.0
    p = np.cross(c, axis)
    p /= np.linalg.norm(p)
    q = np.cross(c, p)
    return c, p, q


def sphere_frame(u, center):
    """Smooth orthonormal frame (e1, e2 = u x e1) of u-perp over a chart.

    e1 follows the first stereographic coordinate direction of the chart
    centred at ``center`` (projection from -center), so the frame is smooth
    on the sphere minus the antipode of the center and J-compatible:
    J maps (0, e1) to (0, e2) in the vertical splitting.
    """
    e1, e2 = _sphere_frame(_components(u), center)
    return np.stack(e1, axis=-1), np.stack(e2, axis=-1)


def _sphere_frame(u, center):
    """``sphere_frame`` over the components of u: e1 and e2 as components."""
    c, p, q = _complement_basis(center)
    denom = 1.0 + dot3(u, c)
    if np.any(denom <= 1e-12):
        raise ChartDomainError("direction at or beyond the chart antipode")
    x = dot3(u, p) / denom
    # d/dx of u(x, y) = (2x p + 2y q + (1 - r^2) c)/(1 + r^2) is a positive
    # multiple of p - x (c + u)
    e1 = [pk - x * (ck + uk) for pk, ck, uk in zip(p, c, u)]
    norm = np.sqrt(dot3(e1, e1))
    e1 = [ek / norm for ek in e1]
    return e1, cross3(u, e1)


def stereo_to_sphere(x, y, center):
    """Inverse stereographic chart: plane coords -> unit direction (jets ok)."""
    c, p, q = _complement_basis(center)
    r_sq = x * x + y * y
    denom = 1.0 + r_sq
    ux = (2.0 * x * p[0] + 2.0 * y * q[0] + (1.0 - r_sq) * c[0]) / denom
    uy = (2.0 * x * p[1] + 2.0 * y * q[1] + (1.0 - r_sq) * c[1]) / denom
    uz = (2.0 * x * p[2] + 2.0 * y * q[2] + (1.0 - r_sq) * c[2]) / denom
    return ux, uy, uz


def sphere_to_stereo(u, center):
    c, p, q = _complement_basis(center)
    u = _components(u)
    denom = 1.0 + dot3(u, c)
    return dot3(u, p) / denom, dot3(u, q) / denom


# -- the anti-complex defect --------------------------------------------------

def defect_psi(u, V, du1, dv1, du2, dv2, center, normalize=True):
    """Complex defect whose zeros are the J-invariant tangent planes.

    Decomposes J X1 = a X1 + b X2 + g1 E1 + g2 E2, with E_i = (0, e_i) the
    vertical vectors of the chart frame (e1, e2) of ``center``; the two
    vertical coefficients form psi = g1 + i g2.  In that frame write
    z_k = du_k.(e1 + i e2) and w_k = dv_k.(e1 + i e2).  J acts on du as
    multiplication by i, so the real a, b solve i z1 = a z1 + b z2: with
    c = conj(z1) z2, a = -Re c / Im c and b = |z1|^2 / Im c.  Then
    psi = i w1 - a w1 - b w2; the c u term of J and the u-components cancel
    by the tangency constraint u.dV + V.du = 0, so V does not enter.

    A smooth nonvanishing rescale of the tangent frame changes psi by a
    nonvanishing factor and never the winding around a zero; ``normalize``
    applies the unit-frame rescale that makes |psi| a dimensionless measure.
    """
    e1, e2 = _sphere_frame(_components(u), center)
    return _psi_in_frame(e1, e2, du1, dv1, du2, dv2, normalize)


def _psi_in_frame(e1, e2, du1, dv1, du2, dv2, normalize):
    """``defect_psi`` in a given chart frame (e1, e2), as components: a
    caller whose directions u never move builds the frame once."""
    du1, dv1, du2, dv2 = (_components(v) for v in (du1, dv1, du2, dv2))
    # real and imaginary parts of z_k and w_k, written out
    (x1, y1), (x2, y2), (p1, q1), (p2, q2) = (
        (dot3(v, e1), dot3(v, e2)) for v in (du1, du2, dv1, dv2))
    if normalize:
        n1 = np.sqrt(dot3(du1, du1) + dot3(dv1, dv1))
        n2 = np.sqrt(dot3(du2, du2) + dot3(dv2, dv2))
        x1, y1, p1, q1 = x1 / n1, y1 / n1, p1 / n1, q1 / n1
        x2, y2, p2, q2 = x2 / n2, y2 / n2, p2 / n2, q2 / n2
    # c = conj(z1) z2
    c_re = x1 * x2 + y1 * y2
    c_im = x1 * y2 - y1 * x2
    a = -c_re / c_im
    b = (x1 ** 2 + y1 ** 2) / c_im
    psi = np.empty(np.shape(a), dtype=complex)
    psi.real = -q1 - a * p1 - b * p2
    psi.imag = p1 - a * q1 - b * q2
    return psi


def plane_off_j_fraction(u, V, du1, dv1, du2, dv2):
    """Relative size of the part of J X_a outside span(X1, X2).

    The projection onto the span solves the 2x2 normal equations in closed
    form: with Gram entries g11, g12, g22 and r_k = X_k.w, the coefficients
    of w = J X_a are (g22 r1 - g12 r2, g11 r2 - g12 r1) / det.
    """
    x1 = np.concatenate([du1, dv1], axis=-1)
    x2 = np.concatenate([du2, dv2], axis=-1)
    g11, g12, g22 = _dot(x1, x1), _dot(x1, x2), _dot(x2, x2)
    det = g11 * g22 - g12 * g12
    worst = np.zeros(np.shape(u)[:-1])
    for dua, dva in ((du1, dv1), (du2, dv2)):
        w = np.concatenate(apply_j(u, V, dua, dva), axis=-1)
        r1, r2 = _dot(x1, w), _dot(x2, w)
        resid = (w - ((g22 * r1 - g12 * r2) / det)[..., None] * x1
                 - ((g11 * r2 - g12 * r1) / det)[..., None] * x2)
        worst = np.maximum(worst, np.sqrt(_dot(resid, resid) / _dot(w, w)))
    return worst


# -- plane classification and the Wirtinger identity -------------------------

@dataclass
class PlaneClass:
    kind: str
    lagrangian: bool
    holomorphic: bool
    eigenvalues: tuple
    omega: float


def classify_plane(x1, x2, rel_tol=1e-8):
    """Signature type of span(x1, x2) plus Lagrangian/holomorphic flags."""
    u, V = x1.base.u, x1.base.V
    scale1 = np.linalg.norm(np.concatenate([x1.du, x1.dV]))
    scale2 = np.linalg.norm(np.concatenate([x2.du, x2.dV]))
    cross_gram = abs(np.dot(np.concatenate([x1.du, x1.dV]),
                            np.concatenate([x2.du, x2.dV])))
    if cross_gram > (1.0 - 1e-10) * scale1 * scale2 or min(scale1, scale2) == 0.0:
        raise ValueError("tangent inputs are (numerically) linearly dependent")
    gram = np.empty((2, 2))
    pairs = ((x1.du, x1.dV), (x2.du, x2.dV))
    for i, (dui, dvi) in enumerate(pairs):
        for j, (duj, dvj) in enumerate(pairs):
            gram[i, j] = metric_pair(u, V, dui, dvi, duj, dvj)
    om = omega_pair(x1.du, x1.dV, x2.du, x2.dV)
    evals = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    scale = scale1 * scale2
    tol = rel_tol * scale
    small = np.abs(evals) <= tol
    if small.all():
        kind = "totally-null"
    elif small.any():
        kind = "degenerate"
    elif evals[0] > 0:
        kind = "positive-definite"
    elif evals[1] < 0:
        kind = "negative-definite"
    else:
        kind = "lorentz"
    lagrangian = abs(om) <= tol
    holo = plane_off_j_fraction(u[None], V[None], x1.du[None], x1.dV[None],
                                x2.du[None], x2.dV[None])[0] <= rel_tol ** 0.5
    return PlaneClass(kind, bool(lagrangian), bool(holo),
                      (float(evals[0]), float(evals[1])), float(om))


def _quad_form(a, b, c, d):
    """(omega ^ omega)/2 evaluated on four tangents (component tuples)."""
    om = omega_pair
    return (om(*a, *b) * om(*c, *d)
            - om(*a, *c) * om(*b, *d)
            + om(*a, *d) * om(*b, *c))


# (omega ^ omega)/2 equals the G-volume form up to a global sign, fixed by
# the conventions for J and omega above; +1 is the sign for which the neutral
# Wirtinger identity omega^2 - det4 = det Gram holds (with -1 the residual
# on random planes is of order 100, not rounding)
_DET4_SIGN = 1.0


def wirtinger_residual(x1, x2):
    """|omega(X1,X2)^2 - det[X1,X2,JX1,JX2] - det G(Xi,Xj)|.

    The 4-determinant is taken against the G-volume form oriented by
    ``_DET4_SIGN``.
    """
    u, V = x1.base.u, x1.base.V
    a = (x1.du, x1.dV)
    b = (x2.du, x2.dV)
    c = apply_j(u, V, *a)
    d = apply_j(u, V, *b)
    det4 = _DET4_SIGN * _quad_form(a, b, c, d)
    gram = np.array([[metric_pair(u, V, *a, *a), metric_pair(u, V, *a, *b)],
                     [metric_pair(u, V, *b, *a), metric_pair(u, V, *b, *b)]])
    om = omega_pair(*a, *b)
    return float(abs(om * om - det4 - np.linalg.det(gram)))


# -- normal congruences -------------------------------------------------------

class CongruenceMap:
    """Oriented normal lines of a surface in the flat chart.

    ``eval(s, t)`` returns the section sample u, V and its exact parameter
    tangents dU, dV of shapes (..., 3) and (..., 2, 3) for the broadcast
    shape ... of ``s`` and ``t``, differentiated in closed form from the
    immersion's second-order jet.  The parameters keep their own shapes
    through the jet pass (see ``jets.variables``), so a product grid can
    be passed as its axes ``s[:, None]`` and ``t[None, :]``.  The outputs
    are views over component-major arrays (3, ...) and (2, 3, ...), so
    each component ``u[..., k]`` is one contiguous block.
    """

    def __init__(self, surface):
        if surface.chart != "cartesian":
            raise ChartDomainError("normal congruences require a flat cartesian chart")
        self.surface = surface

    def eval(self, s, t):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        t = np.atleast_1d(np.asarray(t, dtype=float))
        # written out over the components of the immersion's jet
        p, d1, d2 = jets.derivatives(self.surface.chart_map, [s, t], order=2)
        orient = self.surface.orient
        p = [p[..., k] for k in range(3)]
        x = [[d1[..., a, k] for k in range(3)] for a in range(2)]
        xx = [[[d2[..., a, b, k] for k in range(3)] for b in range(2)] for a in range(2)]
        # raw normal X_s x X_t and its partials X_as x X_t + X_s x X_at
        raw = [orient * c for c in cross3(x[0], x[1])]
        draw = [[orient * (c0 + c1) for c0, c1 in zip(cross3(xx[0][a], x[1]),
                                                      cross3(x[0], xx[1][a]))]
                for a in range(2)]
        norm = np.sqrt(dot3(raw, raw))
        u = [c / norm for c in raw]
        du = []
        for dr in draw:
            ud = dot3(u, dr)
            du.append([(dc - ud * uc) / norm for dc, uc in zip(dr, u)])
        # foot V = p - (p.u) u
        pu = dot3(p, u)
        V = [pc - pu * uc for pc, uc in zip(p, u)]
        dV = []
        for xa, dua in zip(x, du):
            dpu = dot3(xa, u) + dot3(p, dua)
            dV.append([xc - dpu * uc - pu * dc for xc, uc, dc in zip(xa, u, dua)])
        return (np.moveaxis(np.array(u), 0, -1), np.moveaxis(np.array(V), 0, -1),
                np.moveaxis(np.array(du), (0, 1), (-2, -1)),
                np.moveaxis(np.array(dV), (0, 1), (-2, -1)))


@dataclass
class LineSection:
    """Sampled section of the line space over a parameter grid.

    ``u`` and ``V`` have shape (ns, nt, 3) and their exact parameter
    tangents ``du``/``dV`` shape (ns, nt, 2, 3): the samples of
    ``source.eval`` on the grid, which refinements and winding loops
    evaluate off it.
    """

    s_axis: np.ndarray
    t_axis: np.ndarray
    u: np.ndarray
    V: np.ndarray
    du: np.ndarray
    dV: np.ndarray
    source: object
    periodic: tuple = (False, False)
    center: tuple = (0.0, 0.0, 1.0)


def normal_congruence(surface, grid=(128, 96)):
    """Sampled normal-line section of a surface in flat R^3.

    Warns when the sampled Gauss map is not injective (the section is then
    not graphical over the direction sphere), but still returns samples.
    Raises ConfigError when the Gauss map's Jacobian vanishes on the whole
    grid (a plane, a cylinder): no section over directions exists.  The
    section's chart center is the normalised mean sampled direction, or
    (0, 0, 1) where that mean vanishes.
    """
    cmap = CongruenceMap(surface)
    (s0, s1), (t0, t1) = surface.domain
    ns, nt = grid
    margin_s = 0.0 if surface.periodic[0] else (s1 - s0) / (2 * ns)
    margin_t = 0.0 if surface.periodic[1] else (t1 - t0) / (2 * nt)
    if surface.periodic[0]:
        s_axis = s0 + (s1 - s0) * np.arange(ns) / ns
    else:
        s_axis = np.linspace(s0 + margin_s, s1 - margin_s, ns)
    if surface.periodic[1]:
        t_axis = t0 + (t1 - t0) * np.arange(nt) / nt
    else:
        t_axis = np.linspace(t0 + margin_t, t1 - margin_t, nt)
    u, V, du, dV = _grid_eval(cmap.eval, s_axis[:, None], t_axis[None, :])
    jac = dot3(cross3(_components(du[..., 0, :]), _components(du[..., 1, :])),
               _components(u))
    # |jac| <= |du_0| |du_1| <= 3 max|du|^2: zero relative to that everywhere
    # means a Gauss map of rank below two (one pass each, no per-point norms)
    if np.max(np.abs(jac)) <= 1e-12 * np.max(np.abs(du)) ** 2:
        raise ConfigError(
            f"the Gauss map of surface {surface.name!r} has zero Jacobian on the "
            "whole sampled grid, so its normal lines form no section over directions")
    if np.any(jac > 0) and np.any(jac < 0):
        warnings.warn("Gauss map is not injective on the sampled grid; "
                      "the section is not graphical", stacklevel=2)
    mean = u.mean(axis=(0, 1))
    norm = np.linalg.norm(mean)
    center = tuple(mean / norm) if norm > 1e-8 else (0.0, 0.0, 1.0)
    return LineSection(s_axis, t_axis, u, V, du, dV, cmap,
                       periodic=surface.periodic, center=center)


# -- complex points and the Keller-Maslov index -------------------------------

@dataclass
class ComplexPointRecord:
    s: float
    t: float
    direction: tuple
    defect_min: float
    isolated: bool
    winding: int = None
    index: float = None


def section_defect(section, center=None, normalize=True):
    """psi over the section grid."""
    du, dV = section.du, section.dV
    ctr = center if center is not None else section.center
    return defect_psi(section.u, section.V, du[..., 0, :], dV[..., 0, :],
                      du[..., 1, :], dV[..., 1, :], ctr, normalize=normalize)


def _psi_at(source, s, t, center):
    """The directions u of ``source`` at parameters (s, t) and the defect
    psi there."""
    u, V, du, dV = source.eval(s, t)
    return u, defect_psi(u, V, du[..., 0, :], dV[..., 0, :],
                         du[..., 1, :], dV[..., 1, :], center)


def _sampled_domain(section):
    """The parameter rectangle the section's grid samples, one (lo, hi) per
    axis: a periodic axis spans one period from its first sample, any other
    axis is cell-centred (see normal_congruence), half a cell past its end
    samples."""
    domain = []
    for ax, per in zip((section.s_axis, section.t_axis), section.periodic):
        d = ax[1] - ax[0]
        domain.append((ax[0], ax[0] + len(ax) * d) if per
                      else (ax[0] - 0.5 * d, ax[-1] + 0.5 * d))
    return domain


def complex_point_scan(section):
    """Zeros of the anti-complex defect with their integer windings.

    |psi|^2 goes through ``umbilic_topology._scan_zeros``, refined by Newton
    on (Re psi, Im psi) of the section's exact source, and each isolated
    zero is wound on the index loop of ``umbilic_topology._loop_index``,
    ``_LOOP_CELLS`` cells of the grid about it.  Returns records with the
    umbilic index i = winding / 2; a refused loop leaves both unset, with a
    warning that names its fault.  A section whose defect vanishes on a
    large fraction of samples (the zero section) is reported as a single
    non-isolated record without a winding.
    """
    mag = np.abs(section_defect(section))
    center, source = section.center, section.source
    # psi is computed on unit-normalised frames, so an absolute floor is
    # meaningful; it catches identically-complex sections (zero defect)
    tol = max(1e-6 * float(np.max(mag)), 1e-10)
    ds = section.s_axis[1] - section.s_axis[0]
    dt = section.t_axis[1] - section.t_axis[0]
    domain = _sampled_domain(section)

    def defect_rows(s, t):
        psi = _psi_at(source, s, t, center)[1]
        return np.stack([np.abs(psi) ** 2, psi.real, psi.imag], axis=-1)

    def defect_and_angle(s, t):
        u, psi = _psi_at(source, s, t, center)
        # arg psi for the orientation the index loop takes in the direction chart
        sign = _chart_orientation(u[:_LOOP_SAMPLES], center)
        return np.abs(psi), sign * np.angle(psi)

    zeros = _scan_zeros(mag ** 2, defect_rows, (section.s_axis, section.t_axis), (ds, dt),
                        domain, section.periodic, tol * tol, "complex-point")
    if not zeros:
        return []
    directions = source.eval(np.array([z.s for z in zeros]),
                             np.array([z.t for z in zeros]))[0]
    radii = (_LOOP_CELLS * ds, _LOOP_CELLS * dt)
    records = []
    for z, direction in zip(zeros, directions):
        rec = ComplexPointRecord(z.s, z.t, tuple(np.asarray(direction, float)),
                                 float(np.sqrt(z.value)), z.isolated)
        if z.isolated:
            try:
                rec.winding = _loop_index(defect_and_angle, (z.s, z.t), radii, domain,
                                          section.periodic, rec.defect_min, TWO_PI,
                                          "complex point")
                rec.index = rec.winding / 2.0
            except UnreliableLoopError as fault:
                warnings.warn(f"complex point at (s, t) = ({z.s:.6g}, {z.t:.6g}) left "
                              f"without a winding: {fault}", stacklevel=2)
        records.append(rec)
    return records


def _chart_orientation(u_loop, center):
    """+1/-1: orientation of the loop's projection to the direction chart.

    Windings are always reported for the boundary orientation induced by
    the direction sphere, so the Maslov values do not depend on the
    handedness of the surface parameterisation.
    """
    x, y = sphere_to_stereo(u_loop, center)
    area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    return 1.0 if area >= 0 else -1.0


# a loop whose smallest |psi| is below this share of its largest passes a complex point
_MIN_DEFECT_RATIO = 1e-6

# Newton step cap and residual bound of invert_gauss_map
_INVERT_ITERS = 15
_INVERT_TOL = 1e-12


def maslov_index(source, loop_s, loop_t, center):
    """Keller-Maslov index of a parameter loop on a Lagrangian section.

    mu = 2 x (winding of the defect psi along the loop, traversed with the
    orientation induced from the direction chart); also reports the
    enclosed umbilic index sum i = mu/4, the operator index mu + 2, and
    the unparameterised disc dimension mu - 1.
    """
    loop_s = np.asarray(loop_s, float)
    loop_t = np.asarray(loop_t, float)
    u, psi = _psi_at(source, loop_s, loop_t, center)
    mag = np.abs(psi)
    if np.min(mag) < _MIN_DEFECT_RATIO * np.max(mag):
        raise UnreliableLoopError("loop passes too close to a complex point")
    winding = _loop_winding(np.angle(psi), TWO_PI)
    if winding is None:
        raise UnreliableLoopError("winding is not resolved; densify the loop")
    w = int(_chart_orientation(u, center)) * winding
    return {"mu": 2 * w, "index_sum": w / 2.0,
            "operator_index": 2 * w + 2, "unparameterized_dim": 2 * w - 1}


def invert_gauss_map(directions, section):
    """Parameter preimages of direction-space points, for convex congruences.

    Seeds each Newton solve from the nearest sampled grid direction of
    ``section`` and refines it on the section's exact ``source``; the
    equations are the two components of n(s,t) - u against a fixed basis of
    the plane orthogonal to u, each step the closed-form 2x2 solve.  Raises
    UnreliableLoopError naming the row whose Jacobian is singular, whose
    iterate leaves the section's sampled rectangle on a non-periodic axis,
    or whose residual is still above ``_INVERT_TOL`` after ``_INVERT_ITERS``
    steps: a direction the section does not cover has no preimage.  A zero
    or non-finite row is no direction at all: ConfigError names it.
    """
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    bad = np.flatnonzero(~(np.isfinite(norms) & (norms > 0.0)))
    if bad.size:
        raise ConfigError(f"row {bad[0]} is not a direction: {directions[bad[0]].tolist()}")
    directions = directions / norms
    grid_u = _components(section.u)
    sm, tm = np.meshgrid(section.s_axis, section.t_axis, indexing="ij")
    flat_s, flat_t = sm.ravel(), tm.ravel()
    domain = _sampled_domain(section)
    out_s = np.empty(directions.shape[0])
    out_t = np.empty(directions.shape[0])
    for m, target in enumerate(directions):
        seed = int(np.argmax(dot3(grid_u, target)))
        s_c, t_c = float(flat_s[seed]), float(flat_t[seed])
        _, p, q = _complement_basis(target)
        for k in range(_INVERT_ITERS + 1):
            u, _, du, _ = section.source.eval(s_c, t_c)
            r_p, r_q = np.dot(p, u[0] - target), np.dot(q, u[0] - target)
            if max(abs(r_p), abs(r_q)) < _INVERT_TOL:
                break
            if k == _INVERT_ITERS:
                raise UnreliableLoopError(
                    f"Gauss-map inversion of row {m} did not converge: residual "
                    f"{max(abs(r_p), abs(r_q)):.3e} after {_INVERT_ITERS} steps")
            (a, b), (c, d) = ((np.dot(e, du[0, 0]), np.dot(e, du[0, 1])) for e in (p, q))
            det = a * d - b * c
            if not abs(det) > 0.0:
                raise UnreliableLoopError(
                    f"Gauss-map inversion of row {m} hit a singular Jacobian")
            s_c -= (d * r_p - b * r_q) / det
            t_c -= (a * r_q - c * r_p) / det
            for name, value, (lo, hi), per in zip("st", (s_c, t_c), domain, section.periodic):
                if not (per or lo <= value <= hi):
                    raise UnreliableLoopError(
                        f"Gauss-map inversion of row {m} left the sampled rectangle: "
                        f"{name} = {value:.6g} outside [{lo:.6g}, {hi:.6g}]")
        out_s[m], out_t[m] = s_c, t_c
    return out_s, out_t


# -- symplectic area -----------------------------------------------------------

def symplectic_area(disc, n_rad=48, n_ang=256):
    """(integral of omega over the disc, circulation of lambda = V.du).

    ``disc`` must provide eval(a, b) -> (u, V, du, dV) over polar
    parameters a in [0,1], b in [0,2pi); the two returns should agree by
    Stokes' theorem since omega = d(V.du).
    """
    from .quadrature import gauss_legendre, periodic_trapezoid
    ra, wa = gauss_legendre(0.0, 1.0, n_rad)
    tb, wb = periodic_trapezoid(0.0, TWO_PI, n_ang)
    rm, tm = np.meshgrid(ra, tb, indexing="ij")
    u, V, du, dV = disc.eval(rm, tm)
    om = omega_pair(du[..., 0, :], dV[..., 0, :], du[..., 1, :], dV[..., 1, :])
    two_form = float(np.einsum("ab,a,b->", om, wa, wb))
    ub, Vb, dub, dVb = disc.eval(np.ones_like(tb), tb)
    lam = potential_form(Vb, dub[..., 1, :])
    boundary = float(np.sum(lam * wb))
    return two_form, boundary


class SectionDisc:
    """Polar disc inside a section, mapped through surface parameters."""

    def __init__(self, source, s_center, t_center, rad_s, rad_t):
        self.source = source
        self.s_center, self.t_center = s_center, t_center
        self.rad_s, self.rad_t = rad_s, rad_t

    def eval(self, a, b):
        s = self.s_center + self.rad_s * a * np.cos(b)
        t = self.t_center + self.rad_t * a * np.sin(b)
        u, V, du, dV = self.source.eval(s, t)
        # chain rule to polar parameters
        ds = np.stack([self.rad_s * np.cos(b), -self.rad_s * a * np.sin(b)], axis=-1)
        dt = np.stack([self.rad_t * np.sin(b), self.rad_t * a * np.cos(b)], axis=-1)
        du_p = ds[..., :, None] * du[..., 0:1, :] + dt[..., :, None] * du[..., 1:2, :]
        dV_p = ds[..., :, None] * dV[..., 0:1, :] + dt[..., :, None] * dV[..., 1:2, :]
        return u, V, du_p, dV_p


class JetDisc:
    """Disc given by a jet-capable map (a, b) -> (u components, V components).

    The map must return unit directions and perpendicular feet; see
    ``random_jet_disc`` for a generic constructor.
    """

    def __init__(self, fn):
        self.fn = fn

    def eval(self, a, b):
        a = np.atleast_1d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))

        def flat(av, bv):
            u_c, v_c = self.fn(av, bv)
            return [*u_c, *v_c]

        f, g = jets.derivatives(flat, [a, b], order=1)
        return f[..., :3], f[..., 3:], g[..., :3], g[..., 3:]


def random_jet_disc(rng, amplitude=0.5):
    """Smooth random disc in line space: u from a trig map, V projected."""
    cu = rng.normal(size=(3, 4)) * amplitude
    cv = rng.normal(size=(3, 4)) * amplitude

    def fn(a, b):
        sb, cb = jets.sincos(b)
        sa = [1.0 + 0.3 * a * cb, 0.4 * a * sb, a * a]
        raw_u = [cu[i, 0] + cu[i, 1] * sa[0] + cu[i, 2] * sa[1] + cu[i, 3] * sa[2]
                 for i in range(3)]
        nrm = jets.sqrt(dot3(raw_u, raw_u))
        u = [c / nrm for c in raw_u]
        raw_v = [cv[i, 0] * sa[1] + cv[i, 1] * sa[0] + cv[i, 2] * sa[2] + cv[i, 3]
                 for i in range(3)]
        uv = dot3(u, raw_v)
        V = [raw_v[i] - uv * u[i] for i in range(3)]
        return u, V

    return JetDisc(fn)


# -- holomorphic twist ----------------------------------------------------------

class TwistedSection:
    """Section plus the rotational fiber twist V -> V + s (u x axis).

    The added field is the real part of a linear holomorphic vertical
    section vanishing at the axis direction: it keeps every tangency
    constraint, changes no complex point, and for strength s > 0 its
    metric contribution is positive-definite on the open hemisphere around
    ``axis``, degenerating exactly at the equator.
    """

    def __init__(self, source, strength, axis):
        self.source = source
        self.strength = float(strength)
        axis = np.asarray(axis, dtype=float)
        self.axis = axis / np.linalg.norm(axis)

    def eval(self, s, t):
        return self.twist(*self.source.eval(s, t))

    def twist(self, u, V, du, dV):
        """The twisted sample (u, V + s u x axis, du, dV + s du x axis)."""
        sgn = self.strength
        return (u, V + sgn * np.cross(u, self.axis), du,
                dV + sgn * np.cross(du, np.broadcast_to(self.axis, du.shape)))


def holomorphic_twist(section, strength, center):
    """Twist a sampled LineSection fiberwise about `center`.

    Requires the sampled directions to stay inside the open hemisphere
    around the center (the largest domain the twist can positivise).  The
    twisted section shares the untwisted axes, ``u`` and ``du``.
    """
    source = TwistedSection(section.source, strength, center)
    if np.any(np.einsum("ijk,k->ij", section.u, source.axis) <= 0.0):
        raise ChartDomainError(
            "section leaves the open hemisphere around the twist center")
    return LineSection(section.s_axis, section.t_axis,
                       *source.twist(section.u, section.V, section.du, section.dV),
                       source, periodic=section.periodic, center=tuple(source.axis))


def section_gram(section):
    """Induced 2x2 Gram matrices of the section tangent planes, (ns,nt,2,2)."""
    du, dV = section.du, section.dV
    g = np.empty(section.u.shape[:2] + (2, 2))
    for a in range(2):
        for b in range(2):
            g[..., a, b] = metric_pair(section.u, section.V,
                                       du[..., a, :], dV[..., a, :],
                                       du[..., b, :], dV[..., b, :])
    return g
