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

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import ChartDomainError, ConfigError, UnreliableLoopError
from .kernels import cross3, dot3
from .quadrature import _row_blocks, gauss_legendre
from .surface_geom import fundamental_forms
from .umbilic_topology import (_LOOP_CELLS, _LOOP_SAMPLES, _cells, _loop_indices,
                               _loop_winding, _scan_zeros, principal_angles)

TWO_PI = 2.0 * np.pi


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


def potential_form(V, du):
    """Primitive lambda with d(lambda) = omega: lambda(du, dV) = V . du."""
    return _dot(V, du)


# -- sphere frames ------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _complement_basis(center):
    """The unit ``center`` c, a tuple, and an orthonormal basis (p, q) of
    its complement with q = c x p; cached per center, read-only."""
    c = np.asarray(center, dtype=float)
    c = c / np.linalg.norm(c)
    k = np.argmin(np.abs(c))
    axis = np.zeros(3)
    axis[k] = 1.0
    p = np.cross(c, axis)
    p /= np.linalg.norm(p)
    q = np.cross(c, p)
    for a in (c, p, q):
        a.flags.writeable = False
    return c, p, q


def sphere_frame(u, center):
    """Smooth orthonormal frame (e1, e2 = u x e1) of u-perp over a chart.

    ``u`` holds directions along its last axis; e1 and e2 are returned as
    lists of their three components.  e1 follows the first stereographic
    coordinate direction of the chart centred at ``center`` (projection
    from -center), so the frame is smooth on the sphere minus the antipode
    of the center and J-compatible: J maps (0, e1) to (0, e2) in the
    vertical splitting.
    """
    u = _components(u)
    c, p, q = _complement_basis(tuple(center))
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


def sphere_to_stereo(u, center):
    c, p, q = _complement_basis(tuple(center))
    u = _components(u)
    denom = 1.0 + dot3(u, c)
    return dot3(u, p) / denom, dot3(u, q) / denom


# -- the anti-complex defect --------------------------------------------------

def defect_psi(frame, du, dV):
    """Complex defect whose zeros are the J-invariant tangent planes.

    ``du`` and ``dV`` hold the tangents X_k = (du_k, dv_k) in the (..., 2, 3)
    layout of every section's ``eval``, and ``frame`` is the ``sphere_frame``
    (e1, e2) of their directions u in a chart.  Decomposes
    J X1 = a X1 + b X2 + g1 E1 + g2 E2, with E_i = (0, e_i) the vertical
    vectors of the frame; the two vertical coefficients form
    psi = g1 + i g2.  In that frame write z_k = du_k.(e1 + i e2) and
    w_k = dv_k.(e1 + i e2).  J acts on du as multiplication by i, so the
    real a, b solve i z1 = a z1 + b z2: with c = conj(z1) z2,
    a = -Re c / Im c and b = |z1|^2 / Im c.  Then psi = i w1 - a w1 - b w2;
    the c u term of J and the u-components cancel by the tangency
    constraint u.dV + V.du = 0, so V does not enter.

    Each tangent is rescaled to unit length, which makes |psi| a
    dimensionless measure; a smooth nonvanishing rescale of the tangent
    frame changes psi by a nonvanishing factor and never the winding
    around a zero.
    """
    du1, du2, dv1, dv2 = (_components(v[..., k, :]) for v in (du, dV) for k in range(2))
    # the real and imaginary parts x_k, y_k of z_k and p_k, q_k of w_k
    parts = [dot3(v, e) for v in (du1, dv1, du2, dv2) for e in frame]
    # the frame is released once projected on, before the arithmetic of psi
    del frame
    return _psi_from_parts(parts, (np.sqrt(dot3(du_k, du_k) + dot3(dv_k, dv_k))
                                   for du_k, dv_k in ((du1, dv1), (du2, dv2))))


def _psi_from_parts(parts, norms):
    """``defect_psi`` from the frame projections ``parts`` of the tangents,
    [x1, y1, p1, q1, x2, y2, p2, q2], and the tangents' lengths ``norms``
    (an iterable of two).  Divides in the caller's list, so each undivided
    projection is released as its quotient replaces it."""
    for k, n in enumerate(norms):
        for m in range(4 * k, 4 * k + 4):
            parts[m] = parts[m] / n
    x1, y1, p1, q1, x2, y2, p2, q2 = parts
    # c = conj(z1) z2
    c_im = x1 * y2 - y1 * x2
    a = -(x1 * x2 + y1 * y2) / c_im
    b = (x1 ** 2 + y1 ** 2) / c_im
    psi = np.empty(np.shape(a), dtype=complex)
    psi.real = -q1 - a * p1 - b * p2
    psi.imag = p1 - a * q1 - b * q2
    return psi


# -- random lines and tangents ------------------------------------------------

def random_tangents(rng, n, k):
    """``n`` random oriented lines, each with ``k`` random tangents there.

    Returns u, V of shape (n, 3) and du, dV of shape (n, k, 3), drawn as
    one ``rng.normal(size=(n, 2 + 2k, 3))``: per line a direction and a
    foot draw, then a (du, dV) pair of draws per tangent, each projected
    onto |u| = 1, u.V = 0, u.du = 0 and u.dV + V.du = 0.
    """
    # component-major, so the projections are written-out contractions
    g = np.moveaxis(rng.normal(size=(n, 2 + 2 * k, 3)), -1, 0)
    u = g[:, :, 0] / np.sqrt(dot3(g[:, :, 0], g[:, :, 0]))
    V = g[:, :, 1] - dot3(g[:, :, 1], u) * u
    a, w = g[:, :, 2::2], g[:, :, 3::2]
    u_k, V_k = u[..., None], V[..., None]
    du = a - dot3(a, u_k) * u_k
    dV = w - (dot3(u_k, w) + dot3(V_k, du)) * u_k
    return tuple(np.moveaxis(c, 0, -1) for c in (u, V, du, dV))


# -- the Wirtinger identity and the structure audit ---------------------------

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


def wirtinger_residual(u, V, x, y):
    """|omega(X,Y)^2 - det[X,Y,JX,JY] - det G(Xi,Xj)| per row.

    ``x`` and ``y`` are tangents (du, dV) at the lines (u, V), arrays of
    shape (..., 3).  The 4-determinant is taken against the G-volume form
    oriented by ``_DET4_SIGN``; the 2x2 Gram determinant is written out.
    """
    jx, jy = apply_j(u, V, *x), apply_j(u, V, *y)
    det4 = _DET4_SIGN * _quad_form(x, y, jx, jy)
    # G(A, B) = omega(J A, B)
    gram_det = (omega_pair(*jx, *x) * omega_pair(*jy, *y)
                - omega_pair(*jx, *y) * omega_pair(*jy, *x))
    om = omega_pair(*x, *y)
    return np.abs(om * om - det4 - gram_det)


# each structure residual's pass bound in ``structure_audit``
_AUDIT_BOUNDS = {"j_squared": 1e-10, "constraint": 1e-12, "omega_antisym": 1e-12,
                 "omega_j_invariant": 1e-10, "g_symmetric": 1e-10, "wirtinger": 1e-9}

# random 4-frames whose Gram matrix must have signature (2, 2)
_SIGNATURE_FRAMES = 32


def structure_audit(rng, samples):
    """The identities of (J, omega, G) on ``samples`` random tangent pairs.

    One batched pass over ``random_tangents(rng, samples, 2)`` gives the
    worst residual of J^2 = -1, of the tangency constraint on J X, of the
    antisymmetry and J-invariance of omega, of the symmetry of G and of
    the Wirtinger identity; the signature check then draws
    ``_SIGNATURE_FRAMES`` random 4-frames and needs two positive and two
    negative eigenvalues of every Gram matrix.  Returns the ``residuals``,
    the ``checks`` (each residual below its bound in ``_AUDIT_BOUNDS``,
    and ``signature_2_2``) and ``passed``, all checks true.
    """
    u, V, du, dV = random_tangents(rng, samples, 2)
    x, y = (du[:, 0], dV[:, 0]), (du[:, 1], dV[:, 1])
    (ju, jv), jy = apply_j(u, V, *x), apply_j(u, V, *y)
    jju, jjv = apply_j(u, V, ju, jv)
    om = omega_pair(*x, *y)
    rows = {
        "j_squared": np.maximum(np.max(np.abs(jju + x[0]), axis=-1),
                                np.max(np.abs(jjv + x[1]), axis=-1)),
        "constraint": np.maximum(np.abs(_dot(u, ju)), np.abs(_dot(u, jv) + _dot(V, ju))),
        "omega_antisym": np.abs(om + omega_pair(*y, *x)),
        "omega_j_invariant": np.abs(omega_pair(ju, jv, *jy) - om),
        "g_symmetric": np.abs(metric_pair(u, V, *x, *y) - metric_pair(u, V, *y, *x)),
        "wirtinger": wirtinger_residual(u, V, x, y),
    }
    residuals = {name: float(np.max(r, initial=0.0)) for name, r in rows.items()}
    checks = {name: residuals[name] < bound for name, bound in _AUDIT_BOUNDS.items()}
    u, V, du, dV = random_tangents(rng, _SIGNATURE_FRAMES, 4)
    # gram[m, a, b] = G(X_a, X_b) of frame m
    gram = metric_pair(u[:, None, None], V[:, None, None], du[:, :, None], dV[:, :, None],
                       du[:, None], dV[:, None])
    evals = np.linalg.eigvalsh(gram)
    checks["signature_2_2"] = bool(np.all((np.sum(evals > 0, axis=-1) == 2)
                                          & (np.sum(evals < 0, axis=-1) == 2)))
    return {"residuals": residuals, "checks": checks, "passed": all(checks.values())}


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
    each component ``u[..., k]`` is one contiguous block: fresh ones, or
    the buffers ``out = (u, V, dU, dV)`` of those shapes, written in place.
    """

    def __init__(self, surface):
        if surface.chart != "cartesian":
            raise ChartDomainError("normal congruences require a flat cartesian chart")
        self.surface = surface

    def eval(self, s, t, out=None):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        t = np.atleast_1d(np.asarray(t, dtype=float))
        # written out over the components of the immersion's jet
        p, d1, d2 = jets.derivatives(self.surface.chart_map, [s, t], order=2)
        if out is None:
            shape = p.shape[:-1]
            out = (np.empty((3,) + shape), np.empty((3,) + shape),
                   np.empty((2, 3) + shape), np.empty((2, 3) + shape))
        u, V, du, dV = out
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
        for k in range(3):
            np.divide(raw[k], norm, out=u[k])
        for a, dr in enumerate(draw):
            ud = dot3(u, dr)
            for k in range(3):
                np.divide(dr[k] - ud * u[k], norm, out=du[a, k])
        # foot V = p - (p.u) u
        pu = dot3(p, u)
        for k in range(3):
            np.subtract(p[k], pu * u[k], out=V[k])
        for a in range(2):
            dpu = dot3(x[a], u) + dot3(p, du[a])
            for k in range(3):
                np.subtract(x[a][k] - dpu * u[k], pu * du[a, k], out=dV[a, k])
        d = u.ndim - 1
        return (u.transpose(*range(1, d + 1), 0), V.transpose(*range(1, d + 1), 0),
                du.transpose(*range(2, d + 2), 0, 1), dV.transpose(*range(2, d + 2), 0, 1))


@dataclass
class LineSection:
    """Sampled section of the line space over a parameter grid.

    ``u`` and ``V`` have shape (ns, nt, 3) and their exact parameter
    tangents ``du``/``dV`` shape (ns, nt, 2, 3): the samples of
    ``source.eval`` on the grid, which refinements and winding loops
    evaluate off it.  ``domain`` is the parameter rectangle the grid
    samples, ((s_lo, s_hi), (t_lo, t_hi)), cut into ns x nt equal cells
    whose centres are the axes: scans take their cell size from it, keep
    their refinements and loops inside it on a non-periodic axis and wrap
    them into it on a ``periodic`` one.  In a section built by
    ``normal_congruence`` the four fields are views of one (18, ns, nt)
    buffer, so holding any one of them keeps all 18 planes alive (6.75 MB
    at 256 x 192).
    """

    s_axis: np.ndarray
    t_axis: np.ndarray
    u: np.ndarray
    V: np.ndarray
    du: np.ndarray
    dV: np.ndarray
    source: object
    domain: tuple
    periodic: tuple = (False, False)
    center: tuple = (0.0, 0.0, 1.0)


def normal_congruence(surface, grid=(128, 96)):
    """Sampled normal-line section of a surface in flat R^3.

    The section samples the cell centres of the umbilic scan's grid
    (``umbilic_topology._cells``) over ``surface.domain``, so the two sides
    of the mu = 4i mirror seed from the same samples.  Warns when the
    sampled Gauss map is not injective (the section is then not graphical
    over the direction sphere), but still returns samples.  Raises
    ConfigError when the Gauss map's Jacobian vanishes on the whole
    grid (a plane, a cylinder): no section over directions exists.  The
    section's chart center is the normalised mean sampled direction, or
    (0, 0, 1) where that mean vanishes.

    u, V, du and dV are views of one component-major (18, ns, nt) buffer,
    each component a contiguous plane: a caller that keeps any one field
    keeps the whole buffer (6.75 MB at 256 x 192).  One allocation of that
    size, freed after a scan, also lets the allocator keep its pages for
    the next grid pass instead of returning and re-faulting them.
    """
    cmap = CongruenceMap(surface)
    s_axis, t_axis, _, _ = _cells(surface, grid)
    ns, nt = len(s_axis), len(t_axis)
    buf = np.empty((18, ns, nt))
    planes = (buf[0:3], buf[3:6], buf[6:12].reshape(2, 3, ns, nt),
              buf[12:18].reshape(2, 3, ns, nt))
    # blocks of whole s-rows, each written straight into the section's planes
    for rows in _row_blocks(ns, nt):
        cmap.eval(s_axis[rows, None], t_axis[None, :], out=tuple(b[..., rows, :] for b in planes))
    u, V = (np.moveaxis(b, 0, -1) for b in planes[:2])
    du, dV = (np.moveaxis(b, (0, 1), (-2, -1)) for b in planes[2:])
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
    return LineSection(s_axis, t_axis, u, V, du, dV, cmap, surface.domain,
                       periodic=surface.periodic, center=center)


# -- complex points and the Keller-Maslov index -------------------------------

def _grid_psi(section):
    """psi over the section grid in the sphere frame of its ``center``, in
    the s-row blocks of ``_row_blocks`` that ``normal_congruence`` writes:
    yields each block's rows and psi.  A non-finite psi (a degenerate
    tangent plane, as at a flat point of a graph) raises ConfigError
    naming the (s, t) of the first such sample, before the caller reduces
    the block."""
    ns, nt = section.u.shape[:2]
    for rows in _row_blocks(ns, nt):
        # a non-finite psi is named below, not warned about
        with np.errstate(invalid="ignore", divide="ignore"):
            psi = defect_psi(sphere_frame(section.u[rows], section.center), section.du[rows],
                             section.dV[rows])
        bad = ~np.isfinite(psi)
        if bad.any():
            i, j = np.unravel_index(np.argmax(bad), bad.shape)
            raise ConfigError(
                f"the complex-point defect is not finite at (s, t) = "
                f"({section.s_axis[rows][i]:.6g}, {section.t_axis[j]:.6g}): the section's "
                "tangent plane there is degenerate or not finite")
        yield rows, psi


def _psi_at(source, s, t, center):
    """The directions u of ``source`` at parameters (s, t) and the defect
    psi there."""
    u, _, du, dV = source.eval(s, t)
    return u, defect_psi(sphere_frame(u, center), du, dV)


def complex_point_scan(section):
    """Zeros of the anti-complex defect with their integer windings.

    |psi|^2 and (Re psi, Im psi) on the grid, written block by block from
    ``_grid_psi`` into one (3, ns, nt) buffer, go through
    ``umbilic_topology._scan_zeros``, which seeds from the grid minima of
    |psi|^2 and the cells round which psi winds, and refines by Newton on
    (Re psi, Im psi) of the section's exact source, and each isolated
    zero is wound on the index loop of ``umbilic_topology._loop_indices``,
    ``_LOOP_CELLS`` cells of the grid about it, all loops in one
    ``source.eval``.  Returns ``umbilic_topology.ZeroRecord``s with the
    line's direction as ``point`` and the umbilic index i = winding / 2;
    a refused loop leaves both unset, with a warning that names its fault.
    A section whose defect vanishes on a large fraction of samples (the
    zero section) is reported as a single non-isolated record without a winding.
    """
    center, source = section.center, section.source
    grid = np.empty((3,) + section.u.shape[:2])
    peak = 0.0
    for rows, psi in _grid_psi(section):
        mag = np.abs(psi)
        peak = max(peak, float(np.max(mag)))
        np.multiply(mag, mag, out=grid[0, rows])
        grid[1, rows], grid[2, rows] = psi.real, psi.imag
    # psi is computed on unit-normalised frames, so an absolute floor is
    # meaningful; it catches identically-complex sections (zero defect)
    tol = max(1e-6 * peak, 1e-10)
    domain = section.domain
    step = np.ptp(np.array(domain, dtype=float), axis=1) / grid.shape[1:]

    def defect_rows(s, t):
        psi = _psi_at(source, s, t, center)[1]
        return np.stack([np.abs(psi) ** 2, psi.real, psi.imag], axis=-1)

    def defect_and_angle(s, t):
        u, psi = _psi_at(source, s, t, center)
        # arg psi for the orientation each index loop takes in the direction chart
        sign = _chart_orientation(u[:, :_LOOP_SAMPLES], center)
        return np.abs(psi), sign[:, None] * np.angle(psi)

    records = _scan_zeros(grid[0], grid[1:], defect_rows, (section.s_axis, section.t_axis),
                          step, domain, section.periodic, tol * tol, "complex-point")
    # the grid values are read by the scan alone: free them before the loops
    del grid
    if not records:
        return []
    for rec, u in zip(records, source.eval(np.array([r.s for r in records]),
                                           np.array([r.t for r in records]))[0]):
        rec.point = tuple(np.asarray(u, float))
    isolated = [rec for rec in records if rec.isolated]
    windings = _loop_indices(defect_and_angle, [(r.s, r.t) for r in isolated],
                             _LOOP_CELLS * step, domain, section.periodic,
                             [r.value for r in isolated], TWO_PI, "complex point")
    for rec, winding in zip(isolated, windings):
        if isinstance(winding, UnreliableLoopError):
            warnings.warn(f"complex point at (s, t) = ({rec.s:.6g}, {rec.t:.6g}) left "
                          f"without a winding: {winding}", stacklevel=2)
        else:
            rec.winding = winding
            rec.index = winding / 2.0
    return records


def _chart_orientation(u_loop, center):
    """+1/-1: orientation of the loop's projection to the direction chart,
    per loop of ``u_loop`` (..., n, 3).

    Windings are always reported for the boundary orientation induced by
    the direction sphere, so the Maslov values do not depend on the
    handedness of the surface parameterisation.
    """
    x, y = sphere_to_stereo(u_loop, center)
    area = 0.5 * np.sum(x * np.roll(y, -1, axis=-1) - np.roll(x, -1, axis=-1) * y, axis=-1)
    return np.where(area >= 0, 1.0, -1.0)


# a loop whose smallest |psi| is below this share of its largest passes a complex point
_MIN_DEFECT_RATIO = 1e-6

# Newton step cap and residual bound of invert_gauss_map, the most
# direction-by-sample products its seed search holds at once, and the
# stride, in samples, of the coarse subgrid that search starts on
_INVERT_ITERS = 15
_INVERT_TOL = 1e-12
_INVERT_BLOCK = 1 << 18
_INVERT_STRIDE = 8


def maslov_index(source, loop_s, loop_t, center):
    """Keller-Maslov index of a parameter loop on a Lagrangian section.

    mu = 2 x (winding of the defect psi along the loop, traversed with the
    orientation induced from the direction chart); also reports the
    enclosed umbilic index sum i = mu/4, the operator index mu + 2, and
    the unparameterised disc dimension mu - 1.  ``loop_s`` and ``loop_t``
    hold one loop (n,), or a stack of loops (k, n) evaluated in one
    ``source.eval``, which gives a list of k results, each loop judged on
    its own: the first refused one raises.
    """
    loop_s = np.asarray(loop_s, float)
    loop_t = np.asarray(loop_t, float)
    # a non-finite psi is refused below, not warned about
    with np.errstate(invalid="ignore", divide="ignore"):
        u, psi = _psi_at(source, loop_s, loop_t, center)
    signs = _chart_orientation(u, center)
    results = []
    for p, sign in zip(psi.reshape(-1, psi.shape[-1]), np.reshape(signs, -1)):
        if not np.all(np.isfinite(p)):
            raise UnreliableLoopError("the defect is not finite on the loop: it passes a "
                                      "degenerate or non-finite tangent plane")
        mag = np.abs(p)
        if np.min(mag) < _MIN_DEFECT_RATIO * np.max(mag):
            raise UnreliableLoopError("loop passes too close to a complex point")
        winding = _loop_winding(np.angle(p), TWO_PI)
        if winding is None:
            raise UnreliableLoopError("winding is not resolved; densify the loop")
        w = int(sign) * winding
        results.append({"mu": 2 * w, "index_sum": w / 2.0,
                        "operator_index": 2 * w + 2, "unparameterized_dim": 2 * w - 1})
    return results if loop_s.ndim > 1 else results[0]


def maslov_mirror(surface, metric, section, loop_s, loop_t):
    """The Keller-Maslov index of a parameter loop on the normal-line
    ``section`` of ``surface``, and its mirror: the winding i of the
    surface's principal line field on the same loop, with mu = 4i.

    i is taken for the loop traversed counterclockwise in the parameters,
    by the sign of its shoelace area with s unwrapped by the surface's s
    period, so a loop and its reverse give the same pair (mu is oriented
    by the direction chart already).  A stack of loops (k, n) takes one
    ``maslov_index`` and one principal-angle pass for all of them and
    gives a list of k pairs.  Raises ``UnreliableLoopError`` when a loop
    is too coarse to resolve the principal winding.
    """
    one = np.ndim(loop_s) == 1
    loop_s, loop_t = np.atleast_2d(np.asarray(loop_s, float), np.asarray(loop_t, float))
    mas = maslov_index(section.source, loop_s, loop_t, section.center)
    angles = principal_angles(
        fundamental_forms(surface, metric, loop_s, loop_t)).reshape(loop_s.shape)
    (s0, s1), _ = surface.domain
    s = np.unwrap(loop_s, period=s1 - s0) if surface.periodic[0] else loop_s
    area = np.sum(s * np.roll(loop_t, -1, axis=1) - np.roll(s, -1, axis=1) * loop_t, axis=1)
    pairs = []
    for m, a, ccw in zip(mas, angles, area >= 0):
        winding = _loop_winding(a, np.pi)
        if winding is None:
            raise UnreliableLoopError("principal line field winding is not resolved; "
                                      "densify the loop")
        pairs.append((m, (winding if ccw else -winding) / 2.0))
    return pairs[0] if one else pairs


def invert_gauss_map(directions, section):
    """Parameter preimages of direction-space points, for convex congruences.

    Seeds each Newton solve from the nearest sampled grid direction of
    ``section`` that ``_nearest_samples`` finds (in blocks of rows, so at
    most ``_INVERT_BLOCK`` products with its coarse subgrid are held at
    once) and refines every unconverged row together, one ``source.eval``
    per iteration; each row's equations are the two components of
    n(s,t) - u against a fixed basis of the plane orthogonal to u, each
    step the closed-form 2x2 solve.  Raises UnreliableLoopError naming the
    lowest row whose Jacobian is singular, whose iterate leaves the
    section's ``domain`` on a non-periodic axis, or whose residual is
    still above ``_INVERT_TOL`` after ``_INVERT_ITERS`` steps:
    a direction the section does not cover has no preimage.  A zero or
    non-finite row is no direction at all: ConfigError names it.
    """
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    bad = np.flatnonzero(~(np.isfinite(norms) & (norms > 0.0)))
    if bad.size:
        raise ConfigError(f"row {bad[0]} is not a direction: {directions[bad[0]].tolist()}")
    directions = directions / norms
    coarse = section.u[::_INVERT_STRIDE, ::_INVERT_STRIDE, 0].size
    seed = np.concatenate([_nearest_samples(directions[rows], section) for rows in
                           _row_blocks(len(directions), coarse, _INVERT_BLOCK)])
    sm, tm = np.meshgrid(section.s_axis, section.t_axis, indexing="ij")
    params = np.stack((sm.ravel()[seed], tm.ravel()[seed]))
    # (p, q) of each target as _complement_basis builds them, rows of a (m, 2, 3) basis
    p = np.cross(directions, np.eye(3)[np.argmin(np.abs(directions), axis=1)])
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    basis = np.stack((p, np.cross(directions, p)), axis=1)
    faults = {}
    rows = np.arange(len(directions))
    for k in range(_INVERT_ITERS + 1):
        if not rows.size:
            break
        u, _, du, _ = section.source.eval(*params[:, rows])
        res = (basis[rows] @ (u - directions[rows])[:, :, None])[:, :, 0]
        live = ~(np.max(np.abs(res), axis=1) < _INVERT_TOL)
        rows, res, du = rows[live], res[live], du[live]
        if k == _INVERT_ITERS:
            faults.update((m, f"did not converge: residual {r:.3e} after {_INVERT_ITERS} steps")
                          for m, r in zip(rows, np.max(np.abs(res), axis=1)))
            break
        jac = basis[rows] @ np.swapaxes(du, 1, 2)          # jac[m, i, j] = e_i . du_j
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        ok = np.abs(det) > 0.0
        faults.update(dict.fromkeys(rows[~ok], "hit a singular Jacobian"))
        rows, res, jac, det = rows[ok], res[ok], jac[ok], det[ok]
        (a, b), (c, d) = np.moveaxis(jac, 0, -1)
        params[0, rows] -= (d * res[:, 0] - b * res[:, 1]) / det
        params[1, rows] -= (a * res[:, 1] - c * res[:, 0]) / det
        for name, value, (lo, hi), per in zip("st", params, section.domain, section.periodic):
            if not per:
                out = ~((lo <= value[rows]) & (value[rows] <= hi))
                faults.update((m, f"left the sampled rectangle: {name} = {value[m]:.6g} "
                                  f"outside [{lo:.6g}, {hi:.6g}]") for m in rows[out])
                rows = rows[~out]
    if faults:
        m = min(faults)
        raise UnreliableLoopError(f"Gauss-map inversion of row {m} {faults[m]}")
    return params[0], params[1]


def _nearest_samples(directions, section):
    """Flat index of the grid sample of ``section.u`` nearest each unit
    direction (largest u . direction): the nearest sample of the subgrid of
    every ``_INVERT_STRIDE``-th sample, then the nearest of the full grid
    within ``_INVERT_STRIDE`` samples of it on each axis, wrapped on a
    periodic axis and cut at the edge of another.  Ties go to the lowest
    index, as in a search of the whole grid.  Where the grid's directions
    change much faster along one axis than the other (near an ellipsoid's
    poles), the nearest sample can lie outside that window; the window's
    nearest then seeds Newton, which reaches the same preimage."""
    h = _INVERT_STRIDE
    ns, nt = section.u.shape[:2]
    coarse = [c[::h, ::h] for c in _components(section.u)]
    best = np.argmax(dot3([c.reshape(1, -1) for c in coarse],
                          [c[:, None] for c in directions.T]), axis=1)
    window = np.arange(-h, h + 1)
    rows, cols = ((h * i)[:, None] + window for i in np.divmod(best, coarse[0].shape[1]))
    rows, cols = ((k % n if per else np.clip(k, 0, n - 1))
                  for k, n, per in zip((rows, cols), (ns, nt), section.periodic))
    flat = np.sort((rows[:, :, None] * nt + cols[:, None, :]).reshape(len(directions), -1),
                   axis=1)
    near = np.argmax(dot3([c.ravel()[flat] for c in _components(section.u)],
                          [c[:, None] for c in directions.T]), axis=1)
    return flat[np.arange(len(flat)), near]


# -- symplectic area -----------------------------------------------------------

# Gauss-Legendre nodes of ``symplectic_area`` on each axis and each edge
_AREA_NODES = 64


def symplectic_area(source, domain):
    """(integral of omega over a parameter rectangle, circulation of
    lambda = V.du round its boundary).

    ``source`` is any section, ``source.eval(s, t)`` -> (u, V, du, dV), and
    ``domain`` the rectangle ((s_lo, s_hi), (t_lo, t_hi)).  omega(d_s, d_t)
    is integrated with ``_AREA_NODES`` Gauss-Legendre nodes on each axis,
    and lambda with as many on each edge, counterclockwise in (s, t); the
    two returns agree by Stokes' theorem since omega = d(lambda).
    """
    (s, ws), (t, wt) = (gauss_legendre(lo, hi, _AREA_NODES) for lo, hi in domain)
    _, _, du, dV = source.eval(s[:, None], t[None, :])
    om = omega_pair(du[..., 0, :], dV[..., 0, :], du[..., 1, :], dV[..., 1, :])
    two_form = float(ws @ om @ wt)
    # lambda(d_s) on the edges t = t_lo, t_hi and lambda(d_t) on s = s_lo, s_hi
    _, V, du, _ = source.eval(s[:, None], np.array(domain[1], dtype=float))
    bottom, top = ws @ potential_form(V, du[..., 0, :])
    _, V, du, _ = source.eval(np.array(domain[0], dtype=float), t[:, None])
    left, right = wt @ potential_form(V, du[..., 1, :])
    return two_form, float(bottom + right - top - left)


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
    twisted section shares the untwisted axes, ``domain``, ``u`` and ``du``.
    """
    source = TwistedSection(section.source, strength, center)
    if np.any(np.einsum("ijk,k->ij", section.u, source.axis) <= 0.0):
        raise ChartDomainError(
            "section leaves the open hemisphere around the twist center")
    return LineSection(section.s_axis, section.t_axis,
                       *source.twist(section.u, section.V, section.du, section.dV),
                       source, section.domain, periodic=section.periodic,
                       center=tuple(source.axis))

