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
    the 4 earlier ones, so a plateau or a tied pair yields one cell."""
    is_min = np.ones(values.shape, dtype=bool)
    for axis_shift in ((-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1)):
        shifted = values
        valid = np.ones(values.shape, dtype=bool)
        for axis, sh in enumerate(axis_shift):
            if sh == 0:
                continue
            shifted = np.roll(shifted, sh, axis=axis)
            if not periodic[axis]:
                idx = [slice(None)] * 2
                idx[axis] = 0 if sh == 1 else -1
                valid[tuple(idx)] = False
        # a negative shift brings the later neighbour (i - sh) onto cell i
        is_min &= ~valid | (values < shifted if axis_shift < (0, 0) else values <= shifted)
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

    Returns records in grid order (see ``_grid_order``).  A surface whose
    gap vanishes on a large fraction of the grid (a round sphere) yields a
    single record flagged non-isolated, at the first such cell.  Candidates
    still above ``tol`` after ``refine_iters`` iterations get up to
    ``refine_iters`` more while their gap keeps falling; those still
    falling at the end are dropped with a warning.
    """
    ss, tt, ds, dt = _cells(surface, grid)

    def gap_and_curvatures(s, t):
        rep = fundamental_forms(surface, metric, s, t)
        return np.stack([rep.disc_sq, np.abs(rep.k1), np.abs(rep.k2)], axis=-1)

    scan = _grid_eval(gap_and_curvatures, *np.meshgrid(ss, tt, indexing="ij"))
    disc_sq = scan[..., 0]
    if tol is None:
        tol = 1e-6 * max(float(np.max(scan[..., 1:])), 1e-30)
    tol_sq = tol * tol

    flat = disc_sq < tol_sq
    if np.mean(flat) > degenerate_fraction:
        # the first flat cell, not the argmin of rounding noise
        i, j = np.unravel_index(np.argmax(flat), flat.shape)
        rep = fundamental_forms(surface, metric, ss[i], tt[j])
        return [UmbilicRecord(float(ss[i]), float(tt[j]),
                              tuple(np.asarray(rep.point, float)),
                              float(rep.disc), isolated=False)]

    seeds = _local_minima(disc_sq, surface.periodic)
    if len(seeds) == 0:
        return []
    seed_s, seed_t = ss[seeds[:, 0]], tt[seeds[:, 1]]

    def gap_sq(s, t):
        return fundamental_forms(surface, metric, s, t).disc_sq

    s, t, ok = _refine_minima(gap_sq, seed_s, seed_t, (ds, dt), surface.domain,
                              surface.periodic, refine_iters)
    rep = fundamental_forms(surface, metric, s, t)
    disc, point = np.array(rep.disc), np.array(rep.point)
    # a coarse grid can leave an umbilic's gap just above tol: refine the
    # misses on, from their shrunken span, while their gap at least halves
    # per step (a gap that stops falling is a positive minimum, no umbilic)
    span = np.array([ds, dt]) * 0.25 ** refine_iters
    todo = np.flatnonzero(~(ok & (disc < tol)))
    for _ in range(refine_iters):
        if not todo.size:
            break
        s[todo], t[todo], ok[todo] = _refine_minima(
            gap_sq, s[todo], t[todo], span, surface.domain, surface.periodic, 1)
        rep = fundamental_forms(surface, metric, s[todo], t[todo])
        falling = rep.disc <= 0.5 * disc[todo]
        disc[todo], point[todo] = rep.disc, rep.point
        todo = todo[falling & ~(ok[todo] & (disc[todo] < tol))]
        span *= 0.25
    if todo.size:
        warnings.warn(
            f"{todo.size} umbilic candidate(s) dropped: the curvature gap was still "
            f"falling but above tol after {2 * refine_iters} refinement iterations; "
            "scan a finer grid", stacklevel=2)
    candidates = [(float(s[k]), float(t[k]), float(disc[k]), point[k],
                   float(seed_s[k]), float(seed_t[k]))
                  for k in np.flatnonzero(ok & (disc < tol))]
    records = _merge_candidates(surface, metric, candidates, ds, dt, tol)
    return _grid_order(records, np.array(surface.domain)[:, 0], (ds, dt), grid,
                       surface.periodic)


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


def _merge_candidates(surface, metric, candidates, ds, dt, tol):
    """Merge candidates (s, t, gap, chart point, seed s, seed t), best first."""
    merged = []
    two_cells = (2 * ds, 2 * dt)
    for s_c, t_c, disc, point, s_seed, t_seed in sorted(candidates, key=lambda c: c[2]):
        clash = next((rec for rec in merged if np.all(_param_distance(
            surface.domain, surface.periodic, (s_c, t_c), (rec.s, rec.t)) < two_cells)), None)
        if clash is None:
            merged.append(UmbilicRecord(s_c, t_c, tuple(point), disc, isolated=False))
        elif np.any(_param_distance(surface.domain, surface.periodic,
                                    (s_seed, t_seed), (clash.s, clash.t)) > two_cells):
            clash.ambiguous = True
            warnings.warn(
                "scan resolution too coarse to separate umbilic candidates; "
                "records merged", stacklevel=3)
    if merged:
        isolated = _is_isolated(surface, metric, [r.s for r in merged],
                                [r.t for r in merged], ds, dt, tol)
        for rec, flag in zip(merged, isolated):
            rec.isolated = bool(flag)
    return merged


def _is_isolated(surface, metric, s, t, ds, dt, tol, n_ring=64):
    """Whether the gap exceeds ``tol`` on a two-cell ring around each point."""
    phi = np.linspace(0.0, TWO_PI, n_ring, endpoint=False)
    ring_s = np.asarray(s)[:, None] + 2 * ds * np.cos(phi)
    ring_t = np.asarray(t)[:, None] + 2 * dt * np.sin(phi)
    rep = fundamental_forms(surface, metric, ring_s.ravel(), ring_t.ravel())
    return np.min(rep.disc.reshape(ring_s.shape), axis=1) > tol


def umbilic_index(surface, metric, record, loop_radius, n_loop=1024, _depth=0):
    """Half-integer index of an isolated umbilic from a circular loop.

    ``loop_radius`` is in parameter units; the loop must stay inside the
    isolating annulus.  The angular resolution is doubled until the rounded
    index is stable.
    """
    if not record.isolated:
        raise UnreliableLoopError("cannot assign an index to a non-isolated umbilic")
    phi = np.linspace(0.0, TWO_PI, n_loop, endpoint=False)
    ss = record.s + loop_radius * np.cos(phi)
    tt = record.t + loop_radius * np.sin(phi)
    rep = fundamental_forms(surface, metric, ss, tt)
    if np.min(rep.disc) <= 10.0 * max(record.disc_min, 1e-14):
        raise UnreliableLoopError(
            "loop touches a near-umbilic region; shrink or grow loop_radius")
    index = line_field_winding(_principal_angles(rep))
    index2 = line_field_winding(principal_angles(
        surface, metric,
        record.s + loop_radius * np.cos(phi2 := np.linspace(0, TWO_PI, 2 * n_loop, endpoint=False)),
        record.t + loop_radius * np.sin(phi2)))
    if round(2 * index) != round(2 * index2):
        if _depth >= 3:
            raise UnreliableLoopError("winding failed to stabilise under refinement")
        return umbilic_index(surface, metric, record, loop_radius,
                             n_loop=4 * n_loop, _depth=_depth + 1)
    return round(2 * index) / 2.0


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
