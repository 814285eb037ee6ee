"""Umbilic points: detection, half-integer indices, and bound audits.

Umbilics are zeros of the principal-curvature gap.  The scan works on the
smooth squared gap (k1-k2)^2 = trace^2 - 4 det of the shape operator, so
candidate minima refine cleanly by iterated quadratic fits even though
|k1-k2| itself is conical at a zero.  Indices come from the winding of the
principal-direction line field (an angle modulo pi) around isolating
loops.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import UnreliableLoopError
from .kernels import shape_operator, winding_total
from .surface_geom import fundamental_forms

TWO_PI = 2.0 * np.pi


@dataclass
class UmbilicRecord:
    s: float
    t: float
    chart_position: tuple
    disc_min: float
    isolated: bool
    index: float = None       # half-integer winding, None until computed
    index_num: int = None     # 2 * index as an exact integer
    ambiguous: bool = False


def principal_angles(surface, metric, s, t):
    """Angle (mod pi) of the k1 principal direction in parameter coordinates."""
    return _principal_angles(
        fundamental_forms(surface, metric, np.asarray(s, float), np.asarray(t, float)))


def _principal_angles(rep):
    """``principal_angles`` from a CurvatureReport already in hand."""
    first, second = np.atleast_3d(rep.first), np.atleast_3d(rep.second)
    s00, s01, s10, s11 = shape_operator(first, second)
    k1 = np.atleast_1d(rep.k1)
    # two kernel vectors of (S - k1); pick the better conditioned one
    w_a = np.stack([-s01, s00 - k1], axis=-1)
    w_b = np.stack([s11 - k1, -s10], axis=-1)
    use_b = np.einsum("...i,...i->...", w_b, w_b) > np.einsum("...i,...i->...", w_a, w_a)
    w = np.where(use_b[..., None], w_b, w_a)
    return np.mod(np.arctan2(w[..., 1], w[..., 0]), np.pi)


def line_field_winding(angles):
    """Total rotation of a projective angle sequence, divided by 2*pi.

    Returns the half-integer index of the line field for a closed loop of
    samples (continuation stays within +-pi/2 between samples).
    """
    total = winding_total(np.ascontiguousarray(angles, dtype=float), np.pi)
    return total / TWO_PI


def _loop_winding(angles, period):
    """Total rotation of a closed loop of angles (modulo ``period``) in units
    of ``period``, rounded; None unless every other sample rounds the same,
    since a loop too coarse for the angle misses turns."""
    whole, half = (round(winding_total(np.ascontiguousarray(a, dtype=float), period) / period)
                   for a in (angles, angles[::2]))
    return whole if whole == half else None


def _cells(surface, grid):
    (s0, s1), (t0, t1) = surface.domain
    ns, nt = grid
    ds, dt = (s1 - s0) / ns, (t1 - t0) / nt
    ss = s0 + ds * (np.arange(ns) + 0.5)
    tt = t0 + dt * (np.arange(nt) + 0.5)
    return ss, tt, ds, dt


def _grid_eval(field, s, t, chunk=1 << 16):
    """``field`` (one value or row per point of flat s, t arrays) at points
    of any shape, ``chunk`` points per call."""
    flat_s, flat_t = np.ravel(s), np.ravel(t)
    out = np.concatenate([field(flat_s[k:k + chunk], flat_t[k:k + chunk])
                          for k in range(0, flat_s.size, chunk)])
    return out.reshape(np.shape(s) + out.shape[1:])


def _local_minima(values, periodic):
    """Cells below their 4 lexicographically later neighbours and not above
    the 4 earlier ones, so a plateau or a tied pair yields one cell.  Cells
    on the edge of a non-periodic axis never count: the grid does not
    bracket them, and a refinement stencil about them reaches the edge of
    the domain, where the parameterisation may be singular (the poles of
    the ellipsoid, the chart antipode of its normal congruence)."""
    is_min = np.ones(values.shape, dtype=bool)
    for axis_shift in ((-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1)):
        # a negative shift brings the later neighbour (i - sh) onto cell i
        shifted = np.roll(values, axis_shift, axis=(0, 1))
        is_min &= values < shifted if axis_shift < (0, 0) else values <= shifted
    for axis in np.flatnonzero(~np.asarray(periodic)):
        is_min[(slice(None),) * axis + ([0, -1],)] = False
    return np.argwhere(is_min)


# 5x5 refinement stencil in units of its span (s-major) and the 6x25
# least-squares fit of c0 + c1 x + c2 y + c3 x^2 + c4 xy + c5 y^2 to it,
# the same for every candidate (a 2-D Savitzky-Golay fit)
_STENCIL_X, _STENCIL_Y = (a.ravel() for a in np.meshgrid(
    np.linspace(-1.0, 1.0, 5), np.linspace(-1.0, 1.0, 5), indexing="ij"))
_QUAD_BASIS = np.stack([np.ones(25), _STENCIL_X, _STENCIL_Y, _STENCIL_X ** 2,
                        _STENCIL_X * _STENCIL_Y, _STENCIL_Y ** 2], axis=1)
_QUAD_FIT = np.linalg.pinv(_QUAD_BASIS)


def _refine_minima(field, s, t, span, domain, periodic, iters):
    """Refine seeds of a smooth non-negative field towards its minima, together.

    Each iteration evaluates ``field`` once on the 5x5 stencil around every
    candidate, fits a quadratic, steps to its stationary point (at most two
    stencil spans; no step where the fit has none), wraps periodic and
    clamps other parameters into ``domain``, and shrinks the span fourfold.
    Returns the refined s and t and, per candidate, whether the last fit
    matched its samples to within a tenth of their range.
    """
    pts = np.stack([s, t], axis=-1).astype(float)
    span = np.array(span, dtype=float)
    lo, hi = np.array(domain, dtype=float).T
    width = hi - lo
    ok = np.ones(len(pts), dtype=bool)
    for _ in range(iters):
        vals = _grid_eval(field, pts[:, :1] + span[0] * _STENCIL_X,
                          pts[:, 1:] + span[1] * _STENCIL_Y)
        coef = vals @ _QUAD_FIT.T
        residual = np.max(np.abs(coef @ _QUAD_BASIS.T - vals), axis=1)
        scale = np.ptp(vals, axis=1)
        ok = (scale <= 0) | (residual <= 0.1 * scale)
        # solve [[hxx, hxy], [hxy, hyy]] step = -(c1, c2) in closed form
        hxx, hxy, hyy = 2 * coef[:, 3], coef[:, 4], 2 * coef[:, 5]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = (np.stack([hxy * coef[:, 2] - hyy * coef[:, 1],
                              hxy * coef[:, 1] - hxx * coef[:, 2]], axis=-1)
                    / (hxx * hyy - hxy * hxy)[:, None])
        step[~np.all(np.isfinite(step), axis=1)] = 0.0
        pts += np.clip(step, -2.0, 2.0) * span
        # a point a rounding step below lo wraps to exactly hi: send it to lo
        wrapped = lo + (pts - lo) % width
        pts = np.where(periodic, np.where(wrapped < hi, wrapped, lo),
                       np.clip(pts, lo + 1e-9 * width, hi - 1e-9 * width))
        span *= 0.25
    return pts[:, 0], pts[:, 1], ok


def umbilic_scan(surface, metric, grid=(512, 384), tol=None, refine_iters=4,
                 degenerate_fraction=0.05):
    """Locate isolated umbilics as refined minima of the curvature gap.

    The squared gap goes through ``_scan_zeros``; records come in grid
    order, and a surface whose gap vanishes on a large fraction of the grid
    (a round sphere) yields a single record flagged non-isolated, at the
    first such cell.
    """
    ss, tt, ds, dt = _cells(surface, grid)

    def gap_and_curvatures(s, t):
        rep = fundamental_forms(surface, metric, s, t)
        return np.stack([rep.disc_sq, np.abs(rep.k1), np.abs(rep.k2)], axis=-1)

    scan = _grid_eval(gap_and_curvatures, *np.meshgrid(ss, tt, indexing="ij"))
    if tol is None:
        tol = 1e-6 * max(float(np.max(scan[..., 1:])), 1e-30)

    def gap_sq(s, t):
        return fundamental_forms(surface, metric, s, t).disc_sq

    zeros = _scan_zeros(scan[..., 0], gap_sq, (ss, tt), (ds, dt), surface.domain,
                        surface.periodic, tol * tol, refine_iters, degenerate_fraction,
                        "umbilic")
    if not zeros:
        return []
    points = fundamental_forms(surface, metric, np.array([z.s for z in zeros]),
                               np.array([z.t for z in zeros])).point
    return [UmbilicRecord(z.s, z.t, tuple(p), float(np.sqrt(z.value)), z.isolated,
                          ambiguous=z.ambiguous) for z, p in zip(zeros, points)]


@dataclass
class _Zero:
    s: float
    t: float
    value: float      # the field at (s, t)
    isolated: bool
    ambiguous: bool = False


def _scan_zeros(values, field, axes, step, domain, periodic, tol_sq, refine_iters,
                degenerate_fraction, kind):
    """Zeros of a smooth non-negative field, from its samples on a grid.

    ``values`` holds the field at the grid whose s and t lines are ``axes``,
    ``step`` apart, inside the parameter rectangle ``domain``; ``field(s, t)``
    evaluates it anywhere in the rectangle.  Returns ``_Zero``s in grid
    order (see ``_grid_order``):

    * if more than ``degenerate_fraction`` of the samples are below
      ``tol_sq``, the field vanishes on a region: one non-isolated zero at
      the first such sample;
    * otherwise every local minimum of the grid (see ``_local_minima``) at
      most a quarter of the median sample seeds a candidate (the seed
      filter: a grid minimum above it is a positive minimum, not a zero);
    * the candidates are refined together by ``_refine_minima``; those
      still at or above ``tol_sq`` get up to ``refine_iters`` more single
      steps while their value at least quarters per step, and those still
      falling at the end are dropped with a warning;
    * candidates below ``tol_sq`` are merged best first: one within two
      cells of a kept zero is dropped, with a warning and the kept zero
      flagged ambiguous if its seed lay farther than two cells from it;
    * a zero is isolated when the field exceeds ``tol_sq`` all round an
      ellipse of two cells about it.

    ``kind`` names the zeros in the warnings.
    """
    flat = values < tol_sq
    if np.mean(flat) > degenerate_fraction:
        # the first flat sample, not the argmin of rounding noise
        i, j = np.unravel_index(np.argmax(flat), flat.shape)
        return [_Zero(float(axes[0][i]), float(axes[1][j]), float(values[i, j]),
                      isolated=False)]
    seeds = _local_minima(values, periodic)
    seeds = seeds[values[seeds[:, 0], seeds[:, 1]] <= 0.25 * np.median(values)]
    if len(seeds) == 0:
        return []
    seed_s, seed_t = axes[0][seeds[:, 0]], axes[1][seeds[:, 1]]
    s, t, ok = _refine_minima(field, seed_s, seed_t, step, domain, periodic,
                              refine_iters)
    value = field(s, t)
    # a coarse grid can leave a zero just above tol: refine the misses on,
    # from their shrunken span, while their value at least quarters per
    # step (one that stops falling is a positive minimum, no zero)
    span = np.array(step, dtype=float) * 0.25 ** refine_iters
    todo = np.flatnonzero(~(ok & (value < tol_sq)))
    for _ in range(refine_iters):
        if not todo.size:
            break
        s[todo], t[todo], ok[todo] = _refine_minima(
            field, s[todo], t[todo], span, domain, periodic, 1)
        now = field(s[todo], t[todo])
        falling = now <= 0.25 * value[todo]
        value[todo] = now
        todo = todo[falling & ~(ok[todo] & (now < tol_sq))]
        span *= 0.25
    if todo.size:
        warnings.warn(
            f"{todo.size} {kind} candidate(s) dropped: still falling but above "
            f"tol after {2 * refine_iters} refinement iterations; scan a finer grid",
            stacklevel=3)

    two_cells = 2.0 * np.asarray(step)
    zeros = []
    found = np.flatnonzero(ok & (value < tol_sq))
    for k in found[np.argsort(value[found], kind="stable")]:
        clash = next((z for z in zeros if np.all(_param_distance(
            domain, periodic, (s[k], t[k]), (z.s, z.t)) < two_cells)), None)
        if clash is None:
            zeros.append(_Zero(float(s[k]), float(t[k]), float(value[k]), isolated=True))
        elif np.any(_param_distance(domain, periodic, (seed_s[k], seed_t[k]),
                                    (clash.s, clash.t)) > two_cells):
            clash.ambiguous = True
            warnings.warn(f"scan resolution too coarse to separate {kind} "
                          "candidates; records merged", stacklevel=3)
    if zeros:
        phi = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        ring = _grid_eval(field, np.array([z.s for z in zeros])[:, None]
                          + two_cells[0] * np.cos(phi),
                          np.array([z.t for z in zeros])[:, None]
                          + two_cells[1] * np.sin(phi))
        for z, low in zip(zeros, np.min(ring, axis=1)):
            z.isolated = bool(low > tol_sq)
    return _grid_order(zeros, np.array(domain, dtype=float)[:, 0], step, values.shape,
                       periodic)


def _grid_order(records, origin, step, count, periodic):
    """Records sorted by the index of the grid line nearest each parameter,
    taken modulo ``count`` on periodic axes.  Merged records are two cells
    apart, so the keys are distinct, and the order does not change when a
    refined position moves in its last bits or by a period."""
    def key(rec):
        idx = np.rint((np.array([rec.s, rec.t]) - origin) / step).astype(int)
        return tuple(np.where(periodic, idx % count, idx).tolist())
    return sorted(records, key=key)


def _param_distance(domain, periodic, p, q):
    """Per-parameter gaps between p and q, the short way round periodic seams."""
    gap = np.abs(np.subtract(p, q))
    return np.where(periodic, np.minimum(gap, np.ptp(domain, axis=1) - gap), gap)


def umbilic_index(surface, metric, record, loop_radius, n_loop=1024, _depth=0):
    """Half-integer index of an isolated umbilic from a circular loop.

    ``loop_radius`` is in parameter units; the loop must stay inside the
    isolating annulus.  The loop is sampled at ``2 * n_loop`` points, and
    the angular resolution is quadrupled until every other sample gives the
    same rounded index.
    """
    if not record.isolated:
        raise UnreliableLoopError("cannot assign an index to a non-isolated umbilic")
    phi = np.linspace(0.0, TWO_PI, 2 * n_loop, endpoint=False)
    rep = fundamental_forms(surface, metric, record.s + loop_radius * np.cos(phi),
                            record.t + loop_radius * np.sin(phi))
    if np.min(rep.disc) <= 10.0 * max(record.disc_min, 1e-14):
        raise UnreliableLoopError(
            "loop touches a near-umbilic region; shrink or grow loop_radius")
    twice = _loop_winding(_principal_angles(rep), np.pi)
    if twice is None:
        if _depth >= 3:
            raise UnreliableLoopError("winding failed to stabilise under refinement")
        return umbilic_index(surface, metric, record, loop_radius,
                             n_loop=4 * n_loop, _depth=_depth + 1)
    return twice / 2.0


def attach_indices(surface, metric, records, grid=(512, 384), loop_cells=4.0):
    """Compute indices for all isolated records in place."""
    (s0, s1), (t0, t1) = surface.domain
    ds = (s1 - s0) / grid[0]
    dt = (t1 - t0) / grid[1]
    radius = loop_cells * max(ds, dt)
    for rec in records:
        if rec.isolated:
            rec.index = umbilic_index(surface, metric, rec, radius)
            rec.index_num = int(round(2 * rec.index))
    return records


_EULER = {"sphere": 2, "torus": 0}


def conjecture_audit(surface, metric, grid=(512, 384), tol=None):
    """Scan, index, and check the classical umbilic statements.

    Reports umbilic count (>= 2 on convex spheres), the Hamburger bound
    (index <= 1), the local bound (index < 2), and the line-field
    Poincare-Hopf sum against the Euler characteristic.
    """
    records = umbilic_scan(surface, metric, grid=grid, tol=tol)
    non_isolated = any(not r.isolated for r in records)
    isolated = [r for r in records if r.isolated]
    attach_indices(surface, metric, isolated, grid=grid)
    euler = _EULER.get(surface.topology)
    report = {
        "surface": surface.name,
        "umbilic_count": len(isolated),
        "non_isolated_present": non_isolated,
        "caveat": "audit restricted to isolated umbilics" if non_isolated else "",
        "records": records,
    }
    if non_isolated and not isolated:
        report.update({"count_at_least_two": None, "max_index": None,
                       "hamburger_ok": None, "local_bound_ok": None,
                       "index_sum": None, "poincare_hopf_ok": None,
                       "euler_characteristic": euler})
        return report
    indices = [r.index for r in isolated]
    idx_sum = float(sum(indices)) if indices else 0.0
    max_idx = max(indices) if indices else None
    report.update({
        "count_at_least_two": len(isolated) >= 2,
        "max_index": max_idx,
        "hamburger_ok": (max_idx is None) or (max_idx <= 1.0),
        "local_bound_ok": (max_idx is None) or (max_idx < 2.0),
        "index_sum": idx_sum,
        "euler_characteristic": euler,
        "poincare_hopf_ok": None if euler is None else bool(abs(idx_sum - euler) < 1e-12),
    })
    return report
