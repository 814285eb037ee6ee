"""Umbilic points: detection, half-integer indices, and bound audits.

Umbilics are zeros of the principal-curvature gap.  The scan seeds them at
grid minima of the smooth squared gap (k1-k2)^2 = trace^2 - 4 det of the
shape operator and in the grid cells round which the traceless second
form (T11, T12), T = II - H I, winds, and refines them by Newton's method
on (T11, T12), a smooth map whose zeros are exactly the umbilics, so
positions settle to rounding even though |k1-k2| itself is conical at a
zero.  Indices come from the winding of the
principal-direction line field (an angle modulo pi) on an index loop of
``_LOOP_CELLS`` cells about each umbilic.  ``_loop_indices`` winds those loops
for the complex points of ``line_space`` too, with the same sample count,
inner check loop and refusals; only the angle wound differs.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UnreliableLoopError
from .kernels import shape_operator_batch, winding_total
from .surface_geom import _grid_eval, fundamental_forms

TWO_PI = 2.0 * np.pi


@dataclass
class ZeroRecord:
    """A zero of ``_scan_zeros``: an umbilic, or a complex point of ``line_space``."""
    s: float
    t: float
    value: float              # the magnitude |k1 - k2| or |psi| at (s, t)
    isolated: bool
    ambiguous: bool = False   # merged with another candidate
    point: tuple = None       # the chart position, or the line's direction
    winding: int = None       # 2 * index as an exact integer, None until wound
    index: float = None       # half-integer index


def principal_angles(rep):
    """Angle (mod pi) of the k1 principal direction in parameter coordinates,
    per point of the CurvatureReport ``rep``."""
    first, second = rep.first, rep.second
    _, k1, _, _, (s00, s01, s10, s11) = shape_operator_batch(
        first[..., 0, 0], first[..., 0, 1], first[..., 1, 1],
        second[..., 0, 0], second[..., 0, 1], second[..., 1, 1])
    # two kernel vectors of (S - k1); pick the better conditioned one
    w_a = np.stack([-s01, s00 - k1], axis=-1)
    w_b = np.stack([s11 - k1, -s10], axis=-1)
    use_b = np.einsum("...i,...i->...", w_b, w_b) > np.einsum("...i,...i->...", w_a, w_a)
    w = np.where(use_b[..., None], w_b, w_a)
    return np.mod(np.arctan2(w[..., 1], w[..., 0]), np.pi)


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


def _median(values):
    """``np.median`` of all of ``values``, bit for bit, from one
    ``np.partition``: NaN when any value is NaN (NaNs sort last), else the
    middle value or ``0.5 * (a + b)`` of the middle two.  ``np.median``'s
    own NaN check imports ``numpy.ma`` on its first call, which costs more
    than a scan's whole seed filter."""
    a = np.ravel(values)
    n = a.size
    k = n // 2
    part = np.partition(a, (k - 1, k, n - 1) if n % 2 == 0 else (k, n - 1))
    if np.isnan(part[-1]):
        return np.nan
    return part[k] if n % 2 else 0.5 * (part[k - 1] + part[k])


# a value below tol on more than this fraction of the grid vanishes on a region
_DEGENERATE_FRACTION = 0.05
# Newton's Jacobian offset and the step that stops it, in cells, and its cap
_JACOBIAN_STEP = 1e-3
_STEP_TOL = 1e-6
_NEWTON_ITERS = 6


def _refine_zeros(field, s, t, step, domain, periodic):
    """Refine seeds towards zeros of the smooth 2-vector part of ``field``, together.

    ``field(s, t)`` returns rows that begin (value, F1, F2).  Each Newton iteration
    evaluates ``field`` once, at every candidate and its four neighbours
    ``_JACOBIAN_STEP`` cells away; the Jacobian is their central difference,
    so it only sets the rate, and the zero reached is that of the exact F.
    The 2x2 system is solved in closed form (no step where it is singular
    or not finite), a step is capped at two cells, periodic parameters are
    wrapped into ``domain`` and others clamped half a cell inside it, to the
    outer sample lines of a scan's grid: the grid brackets no zero beyond
    them, and the domain's edge may be singular (an ellipsoid's poles,
    where (T11, T12) vanishes too).  Stops once no step exceeds
    ``_STEP_TOL`` cells, or after ``_NEWTON_ITERS`` iterations.
    """
    pts = np.stack([s, t], axis=-1).astype(float)
    step = np.asarray(step, dtype=float)
    lo, hi = np.array(domain, dtype=float).T
    width = hi - lo
    h = _JACOBIAN_STEP
    offsets = np.array([[0.0, 0.0], [h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]]) * step
    for _ in range(_NEWTON_ITERS):
        rows = _grid_eval(field, pts[:, None, 0] + offsets[:, 0],
                          pts[:, None, 1] + offsets[:, 1])[..., 1:3]
        f1, f2 = rows[:, 0].T
        # the Jacobian per cell, [[a, b], [c, d]] = d(F1, F2)/d(s, t)
        (a, c), (b, d) = ((rows[:, k] - rows[:, k + 1]).T / (2 * h) for k in (1, 3))
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = (np.stack([b * f2 - d * f1, c * f1 - a * f2], axis=-1)
                      / (a * d - b * c)[:, None])
        newton[~np.all(np.isfinite(newton), axis=1)] = 0.0
        newton = np.clip(newton, -2.0, 2.0)
        pts += newton * step
        # a point a rounding step below lo wraps to exactly hi: send it to lo
        wrapped = lo + (pts - lo) % width
        pts = np.where(periodic, np.where(wrapped < hi, wrapped, lo),
                       np.clip(pts, lo + 0.5 * step, hi - 0.5 * step))
        if np.max(np.abs(newton)) <= _STEP_TOL:
            break
    return pts[:, 0], pts[:, 1]


def umbilic_scan(surface, metric, grid=(512, 384)):
    """Locate isolated umbilics as zeros of the traceless second form.

    The squared gap and (T11, T12), T = II - H I, go through ``_scan_zeros``,
    which seeds from the gap's grid minima and from the cells round which
    (T11, T12) winds, and refines by Newton on (T11, T12): since
    tr(I^-1 T) = 0, both vanish exactly at the umbilics.  Records come in
    grid order, and a surface whose gap vanishes on a large fraction of the
    grid (a round sphere) yields a single record flagged non-isolated, at
    the first such cell.
    """
    ss, tt, ds, dt = _cells(surface, grid)

    def gap_rows(s, t):
        """(disc_sq, T11, T12, |k1|, |k2|) at (s, t), component-major, so
        each column of the grid pass is one contiguous block; the scan reads
        the curvatures only on the grid, for its tolerance."""
        rep = fundamental_forms(surface, metric, s, t)
        traceless = rep.second[:, 0] - rep.h_mean[:, None] * rep.first[:, 0]
        rows = np.stack([rep.disc_sq, traceless[:, 0], traceless[:, 1],
                         np.abs(rep.k1), np.abs(rep.k2)])
        return rows.T.reshape(np.broadcast_shapes(s.shape, t.shape) + (5,))

    scan = _grid_eval(gap_rows, ss[:, None], tt[None, :])
    tol = 1e-6 * max(float(np.max(scan[..., 3:])), 1e-30)
    # the grid pass stores each column as one plane: (T11, T12) as (2, ns, nt)
    records = _scan_zeros(scan[..., 0], gap_rows, (ss, tt), (ds, dt), surface.domain,
                          surface.periodic, tol * tol, "umbilic",
                          vectors=np.moveaxis(scan[..., 1:3], -1, 0))
    # the chart map on plain arrays: the points without a jet or forms pass
    points = np.stack(np.broadcast_arrays(*surface.chart_map(
        np.array([r.s for r in records]), np.array([r.t for r in records]))), axis=-1)
    for rec, p in zip(records, points):
        rec.point = tuple(p)
    return records


def _scan_zeros(values, field, axes, step, domain, periodic, tol_sq, kind, vectors=None):
    """Zeros of a smooth field, from samples of its non-negative value on a grid.

    ``values`` holds the value at the grid whose s and t lines are ``axes``,
    ``step`` apart, inside the parameter rectangle ``domain``, and
    ``vectors``, if given, the 2-vector F there as its two component planes
    (2, ns, nt); ``field(s, t)`` evaluates rows that begin (value, F1, F2)
    anywhere in the rectangle, where F is a smooth 2-vector that vanishes
    exactly where the value does.  Returns ``ZeroRecord``s, with the root of
    the value, in grid order (``_grid_order``):

    * if more than ``_DEGENERATE_FRACTION`` of the samples are below
      ``tol_sq``, the field vanishes on a region: one non-isolated zero at
      the first such sample;
    * otherwise every local minimum of the grid (see ``_local_minima``) at
      most a quarter of the median sample seeds a candidate (the seed
      filter: a grid minimum above it is a positive minimum, not a zero),
      and so does the centre of every cell round which ``vectors`` winds
      (see ``_degree_cells``): two zeros that share one grid minimum, or
      one that Newton cannot reach from it, still lie in cells of their own;
    * the candidates are refined together by Newton on F (``_refine_zeros``),
      and those whose value is still at or above ``tol_sq`` are dropped;
    * candidates below ``tol_sq`` are merged best first: one within two
      cells of a kept zero is dropped, and the kept zero is flagged
      ambiguous, with a warning, when the dropped one's seed lay farther
      than two cells from it or the value at their midpoint is at or above
      ``tol_sq`` (two zeros, not one; pairs within ``_JACOBIAN_STEP`` cells
      of each other are one zero to the refinement and are not evaluated);
    * a zero is isolated when the value exceeds ``tol_sq`` all round an
      ellipse of two cells about it.

    ``kind`` names the zeros in the warnings.
    """
    flat = values < tol_sq
    if np.mean(flat) > _DEGENERATE_FRACTION:
        # the first flat sample, not the argmin of rounding noise
        i, j = np.unravel_index(np.argmax(flat), flat.shape)
        return [ZeroRecord(float(axes[0][i]), float(axes[1][j]),
                           float(np.sqrt(values[i, j])), isolated=False)]
    minima = _local_minima(values, periodic)
    minima = minima[values[minima[:, 0], minima[:, 1]] <= 0.25 * _median(values)]
    step = np.asarray(step, dtype=float)
    seed_s, seed_t = axes[0][minima[:, 0]], axes[1][minima[:, 1]]
    if vectors is not None:
        cells = _degree_cells(vectors, periodic)
        seed_s = np.concatenate([seed_s, axes[0][cells[:, 0]] + 0.5 * step[0]])
        seed_t = np.concatenate([seed_t, axes[1][cells[:, 1]] + 0.5 * step[1]])
    if len(seed_s) == 0:
        return []
    s, t = _refine_zeros(field, seed_s, seed_t, step, domain, periodic)
    value = field(s, t)[:, 0]

    two_cells = 2.0 * step
    zeros, clashes = [], []
    found = np.flatnonzero(value < tol_sq)
    for k in found[np.argsort(value[found], kind="stable")]:
        clash = next((z for z in zeros if np.all(_param_distance(
            domain, periodic, (s[k], t[k]), (z.s, z.t)) < two_cells)), None)
        if clash is None:
            zeros.append(ZeroRecord(float(s[k]), float(t[k]), float(np.sqrt(value[k])), True))
        elif np.any(_param_distance(domain, periodic, (seed_s[k], seed_t[k]),
                                    (clash.s, clash.t)) > two_cells):
            clash.ambiguous = True
        elif np.any(_param_distance(domain, periodic, (s[k], t[k]), (clash.s, clash.t))
                    > _JACOBIAN_STEP * step):
            clashes.append((k, clash))
    if clashes:
        width = np.ptp(np.array(domain, dtype=float), axis=1)
        here = np.array([(s[k], t[k]) for k, _ in clashes])
        gap = np.array([(z.s, z.t) for _, z in clashes]) - here
        # the short way round a periodic seam
        gap = np.where(periodic, gap - width * np.round(gap / width), gap)
        mid = here + 0.5 * gap
        for (_, z), low in zip(clashes, field(mid[:, 0], mid[:, 1])[:, 0] < tol_sq):
            z.ambiguous = z.ambiguous or not low
    if any(z.ambiguous for z in zeros):
        warnings.warn(f"scan resolution too coarse to separate {kind} "
                      "candidates; records merged", stacklevel=3)
    if zeros:
        phi = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        ring = _grid_eval(field, np.array([z.s for z in zeros])[:, None]
                          + two_cells[0] * np.cos(phi),
                          np.array([z.t for z in zeros])[:, None]
                          + two_cells[1] * np.sin(phi))[..., 0]
        for z, low in zip(zeros, np.min(ring, axis=1)):
            z.isolated = bool(low > tol_sq)
    return _grid_order(zeros, np.array(domain, dtype=float)[:, 0], step, values.shape,
                       periodic)


def _degree_cells(vectors, periodic):
    """Cells round whose four corner samples the grid 2-vector winds.

    ``vectors`` holds the field's two component planes, shape (2, ns, nt),
    each read as one contiguous block when the grid is stored
    component-major, as both scans store it; a cell spans samples i, i + 1
    and j, j + 1, and on a periodic axis the last cell wraps to the first
    sample.  The degree of a cell is the sum of the angle increments along
    its edges, each wrapped into (-pi, pi], over 2 pi; a cell of nonzero
    degree holds a zero of the field wherever the field turns by less than
    pi between neighbouring samples (Kearfott, Numer. Math. 32, 1979).  A
    nonzero degree needs both components to change sign among the corners,
    so angles are taken only in those cells.  Returns the (i, j) index of
    the first corner of each cell of nonzero degree or with an edge whose
    corners are exactly antiparallel (a zero on the edge, which a sample
    line of symmetry puts there: an ellipsoid's two zeros at s = pi lie
    on the middle s line of a grid with an odd number of s lines), in
    grid order.  A zero of higher winding can show the same angle at all
    four corners of its cell; the minima seeds cover it.
    """
    def any_corner(signs):
        # per cell of each plane: whether any of its four corners has the sign
        for axis in np.flatnonzero(periodic) + 1:
            signs = np.concatenate([signs, np.take(signs, [0], axis=axis)], axis=axis)
        pairs = signs[:, :-1] | signs[:, 1:]
        return pairs[:, :, :-1] | pairs[:, :, 1:]

    both = any_corner(vectors >= 0.0) & any_corner(vectors <= 0.0)
    i, j = np.divmod(np.flatnonzero(both[0] & both[1]), both.shape[2])
    ns, nt = vectors.shape[1:]
    # corner vectors of each candidate cell, counter-clockwise in (s, t)
    u, v = vectors[:, [i, (i + 1) % ns, (i + 1) % ns, i], [j, j, (j + 1) % nt, (j + 1) % nt]]
    angle = np.arctan2(v, u)
    turn = np.roll(angle, -1, axis=0) - angle
    turn = np.pi - (np.pi - turn) % TWO_PI
    degree = np.rint(np.sum(turn, axis=0) / TWO_PI)
    # a turn of exactly pi, either way, joins antiparallel corners: the zero
    # lies on the edge, and the wrap credits pi to both of its cells
    keep = (degree != 0) | np.any(turn == np.pi, axis=0)
    return np.stack([i[keep], j[keep]], axis=-1)


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


# an index loop is an ellipse of _LOOP_CELLS cells on each axis, sampled at
# _LOOP_SAMPLES points and followed by its inner check loop: 64 samples at
# 1/16 of its radii
_LOOP_CELLS = 4
_LOOP_SAMPLES = 1024
_LOOP = np.concatenate([np.exp(1j * np.linspace(0.0, TWO_PI, _LOOP_SAMPLES, endpoint=False)),
                        np.exp(1j * np.linspace(0.0, TWO_PI, 64, endpoint=False)) / 16])


def _loop_indices(field, centers, radii, domain, periodic, zero_values, period, kind):
    """Winding, in units of ``period``, of each zero's angle on its index loop.

    A zero's loop is the ellipse of ``radii`` about its point of
    ``centers``, followed by its inner check loop.  Every loop that stays
    inside ``domain`` is evaluated in one call of ``field(s, t)``, with one
    row of ``s`` and ``t`` per loop; it returns, in the same shape, the
    magnitude that vanishes at the zeros and the angle (modulo ``period``)
    to wind.  Each loop is then judged on its own.  Returns, per zero, its
    winding or the ``UnreliableLoopError`` that names why its loop is
    refused:

    * it leaves ``domain`` on a non-periodic axis, where the
      parameterisation may be singular (an ellipsoid's poles); such a loop
      is not evaluated;
    * it touches a near-zero region: its smallest magnitude is at most 10
      times the zero's own value in ``zero_values``, or 1e-13;
    * its winding is not resolved: every other sample rounds to another;
    * the inner loop winds otherwise: the loop encloses another ``kind``.
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    radii = np.asarray(radii, dtype=float)
    lo, hi = np.array(domain, dtype=float).T
    leaves = np.any(~np.asarray(periodic) & ((centers - radii <= lo) | (centers + radii >= hi)),
                    axis=1)
    results = [UnreliableLoopError("index loop leaves the sampled parameter rectangle; "
                                   "scan a finer grid") if out else None for out in leaves]
    wound = np.flatnonzero(~leaves)
    if not wound.size:
        return results
    magnitude, angle = field(centers[wound, :1] + radii[0] * _LOOP.real,
                             centers[wound, 1:] + radii[1] * _LOOP.imag)
    for k, mag, ang in zip(wound, magnitude, angle):
        if np.min(mag[:_LOOP_SAMPLES]) <= 10.0 * max(zero_values[k], 1e-14):
            results[k] = UnreliableLoopError(
                "index loop touches a near-zero region; scan a finer grid")
            continue
        winding = _loop_winding(ang[:_LOOP_SAMPLES], period)
        if winding is None:
            results[k] = UnreliableLoopError(
                "index loop winding is not resolved; scan a finer grid")
        elif _loop_winding(ang[_LOOP_SAMPLES:], period) != winding:
            results[k] = UnreliableLoopError(
                f"index loop encloses another {kind}; scan a finer grid")
        else:
            results[k] = winding
    return results


def attach_indices(surface, metric, records, radii):
    """Set the winding and the half-integer index of every isolated record
    in place, and return the records: the winding of the principal line
    field on the index loop of ``radii`` (see ``_loop_indices``) about it,
    all loops from one ``fundamental_forms`` call.  A record that is not
    isolated gets no index.  The first refused loop, in record order,
    raises its ``UnreliableLoopError`` after the records before it got
    their indices."""
    def gap_and_angle(s, t):
        rep = fundamental_forms(surface, metric, s, t)
        return rep.disc.reshape(s.shape), principal_angles(rep).reshape(s.shape)

    isolated = [rec for rec in records if rec.isolated]
    windings = _loop_indices(gap_and_angle, [(r.s, r.t) for r in isolated], radii,
                             surface.domain, surface.periodic, [r.value for r in isolated],
                             np.pi, "umbilic")
    for rec, winding in zip(isolated, windings):
        if isinstance(winding, UnreliableLoopError):
            raise winding
        rec.winding, rec.index = winding, winding / 2.0
    return records


_EULER = {"sphere": 2, "torus": 0}


def conjecture_audit(surface, metric, grid=(512, 384)):
    """Scan, index, and check the classical umbilic statements.

    Reports umbilic count (>= 2 on convex spheres), the Hamburger bound
    (index <= 1), the local bound (index < 2), and the line-field
    Poincare-Hopf sum against the Euler characteristic.
    """
    records = umbilic_scan(surface, metric, grid=grid)
    non_isolated = any(not r.isolated for r in records)
    isolated = [r for r in records if r.isolated]
    attach_indices(surface, metric, isolated, _LOOP_CELLS * np.array(_cells(surface, grid)[2:]))
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


def audit_values(audit):
    """A ``conjecture_audit`` report for JSON: each record becomes a dict of
    its s, t, disc (the gap), index and isolated flag."""
    out = {k: v for k, v in audit.items() if k != "records"}
    out["records"] = [
        {"s": r.s, "t": r.t, "disc": r.value, "index": r.index,
         "isolated": r.isolated} for r in audit["records"]]
    return out


def enclosing_loop(iso, count, phi):
    """Parameter loop (s, t) at angles ``phi`` enclosing ``count`` of the
    isolated umbilics ``iso`` on a surface whose s-axis has period 2 pi.

    0: a small circle at (pi/2, pi/2); 1: a circle around ``iso[0]``;
    2: an ellipse around ``iso[0]`` and the record nearest it in s.
    """
    if count == 0:
        return np.pi / 2 + 0.2 * np.cos(phi), np.pi / 2 + 0.2 * np.sin(phi)
    if count == 1:
        if not iso:
            raise ConfigError("surface has no isolated umbilics to enclose")
        return iso[0].s + 0.15 * np.cos(phi), iso[0].t + 0.15 * np.sin(phi)
    if count == 2:
        if len(iso) < 2:
            raise ConfigError("surface has fewer than two umbilics")
        period = 2 * np.pi
        partner = min(iso[1:], key=lambda r: min(
            abs(r.s - iso[0].s) % period,
            period - abs(r.s - iso[0].s) % period))
        t_mid = 0.5 * (iso[0].t + partner.t)
        t_rad = 0.35 + 0.5 * abs(partner.t - iso[0].t)
        return iso[0].s + 0.35 * np.cos(phi), t_mid + t_rad * np.sin(phi)
    raise ConfigError("--enclose supports counts 0, 1, 2")
