"""Umbilic detection, half-integer indices, and the bound audit."""

import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from geomlab import chart_tensor as ct
from geomlab import surface_geom as sg
from geomlab import umbilic_topology as ut
from geomlab.errors import UnreliableLoopError

FLAT = ct.metric_by_name("flat-r3")
ELL = sg.surface_by_name("ellipsoid", a=2.0, b=1.5, c=1.0)

# analytic umbilic positions of the (2, 1.5, 1) ellipsoid, confirmed by the
# brute-force discriminant scan below: x = +-a sqrt((a^2-b^2)/(a^2-c^2)),
# z = +-c sqrt((b^2-c^2)/(a^2-c^2)), y = 0
X_UMB = 2.0 * np.sqrt(1.75 / 3.0)          # 1.5275252316519468
Z_UMB = 1.0 * np.sqrt(1.25 / 3.0)          # 0.6454972243679028


def brute_force_minima(surface, metric, grid):
    """Independent oracle: raw discriminant scan, no refinement."""
    ss = np.linspace(0, 2 * np.pi, grid[0], endpoint=False)
    tt = np.linspace(0.05, np.pi - 0.05, grid[1])
    sm, tm = np.meshgrid(ss, tt, indexing="ij")
    rep = sg.fundamental_forms(surface, metric, sm.ravel(), tm.ravel())
    disc = rep.disc.reshape(grid)
    pts = rep.point.reshape(grid + (3,))
    keep = disc < 1e-2
    return pts[keep], float(np.min(disc))


def test_brute_force_oracle_confirms_umbilic_positions():
    pts, dmin = brute_force_minima(ELL, FLAT, (1024, 768))
    assert dmin < 5e-3
    assert len(pts) >= 4
    for p in pts:
        assert abs(abs(p[0]) - X_UMB) < 2e-2
        assert abs(p[1]) < 2e-2
        assert abs(abs(p[2]) - Z_UMB) < 2e-2


def test_ellipsoid_scan_finds_four_isolated_umbilics():
    from geomlab import line_space as ls
    t0 = np.arccos(Z_UMB)
    exact = [(s, t) for s in (0.0, np.pi) for t in (t0, np.pi - t0)]
    for grid in ((16, 12), (32, 24), (64, 48), (128, 96), (256, 192), (512, 384)):
        records = ut.umbilic_scan(ELL, FLAT, grid=grid)
        assert len(records) == 4
        signs = set()
        for rec in records:
            assert rec.isolated and not rec.ambiguous
            assert rec.value < 1e-6
            x, y, z = rec.point
            assert abs(abs(x) - X_UMB) < 1e-6
            assert abs(y) < 1e-6
            assert abs(abs(z) - Z_UMB) < 1e-6
            signs.add((x > 0, z > 0))
        assert len(signs) == 4  # all four quadrants of the long/short axis plane
        # both scans against the closed form (s, t) in {0, pi} x {t0, pi - t0};
        # at 16x12 the complex-point winding loops reach the poles, refused aloud
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            points = ls.complex_point_scan(ls.normal_congruence(ELL, grid=grid))
        assert all("leaves the sampled parameter rectangle" in str(w.message)
                   for w in caught)
        for found in (records, points):
            assert len(found) == 4
            for rec in found:
                gaps = [np.max(ut._param_distance(ELL.domain, ELL.periodic,
                                                  (rec.s, rec.t), p)) for p in exact]
                assert min(gaps) <= 1e-12, (grid, rec)


def test_ellipsoid_indices_and_sum():
    records = ut.umbilic_scan(ELL, FLAT, grid=(512, 384))
    ut.attach_indices(ELL, FLAT, records, ut._LOOP_CELLS * np.array([2 * np.pi / 512,
                                                                     np.pi / 384]))
    assert [r.index for r in records] == [0.5] * 4
    assert [r.winding for r in records] == [1] * 4
    assert sum(r.index for r in records) == pytest.approx(2.0)


def test_index_invariant_under_loop_radius_doubling():
    records = ut.umbilic_scan(ELL, FLAT, grid=(256, 192))
    rec = records[0]
    radius = 4 * (2 * np.pi / 256)
    i1, i2 = (ut.attach_indices(ELL, FLAT, [replace(rec)], radii)[0].index
              for radii in ((radius, radius), (2 * radius, 2 * radius)))
    assert i1 == i2 == 0.5


def test_index_rejects_non_isolated_and_touching_loops():
    sphere = sg.surface_by_name("round-sphere", r=1.0)
    sphere_rec = ut.umbilic_scan(sphere, FLAT, grid=(64, 48))[0]
    assert not sphere_rec.isolated
    # a record that is not isolated is given no index: its loop is not wound
    assert ut.attach_indices(sphere, FLAT, [sphere_rec], (0.1, 0.1)) == [sphere_rec]
    assert sphere_rec.winding is None and sphere_rec.index is None


def test_synthetic_star_pattern_has_index_minus_half():
    phi = np.linspace(0, 2 * np.pi, 1024, endpoint=False)
    angles = np.mod(-phi / 2.0, np.pi)
    # the winding in units of pi is twice the index
    assert ut._loop_winding(angles, np.pi) == -1
    # doubling the angular resolution must not change the rounded index
    phi2 = np.linspace(0, 2 * np.pi, 2048, endpoint=False)
    assert ut._loop_winding(np.mod(-phi2 / 2, np.pi), np.pi) == -1


def test_torus_of_revolution_has_no_umbilics():
    torus = sg.surface_by_name("torus-revolution", R=2.0, r=1.0)
    records = ut.umbilic_scan(torus, FLAT, grid=(192, 192))
    assert records == []
    # grid lower bound oracle: discriminant bounded away from zero
    ss = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    sm, tm = np.meshgrid(ss, ss, indexing="ij")
    rep = sg.fundamental_forms(torus, FLAT, sm.ravel(), tm.ravel())
    assert np.min(rep.disc) > 0.5


def test_round_sphere_reports_non_isolated():
    records = ut.umbilic_scan(sg.surface_by_name("round-sphere", r=1.0),
                              FLAT, grid=(64, 48))
    assert len(records) == 1
    assert not records[0].isolated
    assert records[0].value < 1e-12
    # the first cell whose gap is below tol, not the argmin of rounding noise
    assert (records[0].s, records[0].t) == (0.5 * (2 * np.pi / 64), 0.5 * (np.pi / 48))


def test_clifford_torus_in_deformed_metric_has_no_umbilics():
    metric = ct.metric_by_name("hopf-eps", eps=0.4)
    records = ut.umbilic_scan(sg.surface_by_name("clifford"), metric,
                              grid=(96, 96))
    assert records == []


def test_record_positions_are_the_forms_points_bit_for_bit():
    # the chart map on plain arrays, not a fundamental_forms pass: the same
    # points, on the ellipsoid and on the Clifford torus's orbit path (a
    # constant metric, in which the torus is totally geodesic: one
    # non-isolated record)
    flat_hopf = ct.metric_from_expressions("hopf", {"g11": "1", "g22": "1", "g33": "1"})
    for surface, metric, count in ((ELL, FLAT, 4), (sg.surface_by_name("clifford"), flat_hopf, 1)):
        records = ut.umbilic_scan(surface, metric, grid=(64, 48))
        assert len(records) == count
        points = sg.fundamental_forms(surface, metric, np.array([r.s for r in records]),
                                      np.array([r.t for r in records])).point
        assert np.array_equal(np.array([r.point for r in records]), points)


def test_attach_indices_winds_every_loop_in_one_forms_call(monkeypatch):
    records = ut.umbilic_scan(ELL, FLAT, grid=(64, 48))
    shapes = []
    forms = ut.fundamental_forms

    def counting_forms(surface, metric, s, t):
        shapes.append(np.broadcast_shapes(np.shape(s), np.shape(t)))
        return forms(surface, metric, s, t)
    monkeypatch.setattr(ut, "fundamental_forms", counting_forms)
    radii = ut._LOOP_CELLS * np.array([2 * np.pi / 64, np.pi / 48])
    alone = [ut.attach_indices(ELL, FLAT, [replace(rec)], radii)[0].index for rec in records]
    shapes.clear()
    ut.attach_indices(ELL, FLAT, records, radii)
    # one row of 1024 + 64 samples per loop, all four loops in one call
    assert shapes == [(4, 1088)]
    # the indices of the loops wound one at a time
    assert [rec.index for rec in records] == alone == [0.5] * 4
    assert [rec.winding for rec in records] == [1] * 4


def test_scan_deterministic():
    a = ut.umbilic_scan(ELL, FLAT, grid=(128, 96))
    b = ut.umbilic_scan(ELL, FLAT, grid=(128, 96))
    assert [(r.s, r.t, r.value) for r in a] == [(r.s, r.t, r.value) for r in b]


def test_record_order_ignores_last_bits_and_periods():
    grid = (128, 96)
    records = ut.umbilic_scan(ELL, FLAT, grid=grid)
    assert len(records) == 4
    step = (2 * np.pi / grid[0], np.pi / grid[1])
    # pairs on the meridians s = 0 and s = pi, ordered by t within a pair
    assert [round(r.s / np.pi) % 2 for r in records] == [0, 0, 1, 1]
    assert records[0].t < records[1].t and records[2].t < records[3].t
    for ds in (1e-13, -1e-13, 2 * np.pi, -2 * np.pi):
        moved = [replace(r, s=r.s + ds * (-1) ** k, t=r.t - 1e-13 * (-1) ** k,
                         value=k) for k, r in enumerate(records)]
        ordered = ut._grid_order(moved[::-1], (0.0, 0.0), step, grid, ELL.periodic)
        assert [r.value for r in ordered] == [0, 1, 2, 3]


def test_local_minima_break_ties():
    assert len(ut._local_minima(np.full((8, 6), 0.3), (True, True))) == 0
    values = np.ones((7, 5))
    values[3, 2] = values[4, 2] = 0.0
    assert ut._local_minima(values, (True, True)).tolist() == [[4, 2]]


def test_local_minima_skip_the_edges_of_non_periodic_axes():
    values = np.ones((7, 5))
    values[0, 2] = values[3, 4] = values[3, 2] = 0.0
    assert ut._local_minima(values, (True, True)).tolist() == [[0, 2], [3, 2], [3, 4]]
    assert ut._local_minima(values, (True, False)).tolist() == [[0, 2], [3, 2]]
    assert ut._local_minima(values, (False, False)).tolist() == [[3, 2]]


def test_local_minima_one_candidate_per_ellipsoid_umbilic():
    ss, tt, _, _ = ut._cells(ELL, (256, 192))
    sm, tm = np.meshgrid(ss, tt, indexing="ij")
    gap = sg.fundamental_forms(ELL, FLAT, sm.ravel(), tm.ravel()).disc_sq
    assert len(ut._local_minima(gap.reshape(sm.shape), ELL.periodic)) == 4


def test_scan_refines_all_candidates_in_one_call_per_iteration(monkeypatch):
    sizes = []

    def counting_forms(surface, metric, s, t):
        sizes.append(np.broadcast(s, t).size)
        return sg.fundamental_forms(surface, metric, s, t)

    monkeypatch.setattr(ut, "fundamental_forms", counting_forms)
    records = ut.umbilic_scan(ELL, FLAT, grid=(128, 96))
    n_cand = sizes[2] // 5
    iters = len(sizes) - 4
    assert len(records) == 4 and n_cand >= 4 and 1 <= iters <= ut._NEWTON_ITERS
    # grid in blocks of whole rows (85 of 96 points, then the other 43),
    # Newton iterations (each candidate and its four neighbours), final
    # check, isolation rings; the chart points take no forms call
    assert sizes == ([85 * 96, 43 * 96] + [5 * n_cand] * iters
                     + [n_cand, 64 * len(records)])


def test_seed_filter_leaves_the_torus_grid_pass_alone(monkeypatch):
    # the gap's minimum circles hold rounding-noise grid minima at 2/3 of
    # the median gap: none passes the seed filter, so none is refined
    sizes = []

    def counting_forms(surface, metric, s, t):
        sizes.append(np.broadcast(s, t).size)
        return sg.fundamental_forms(surface, metric, s, t)

    monkeypatch.setattr(ut, "fundamental_forms", counting_forms)
    torus = sg.surface_by_name("torus-revolution", R=2.0, r=1.0)
    assert ut.umbilic_scan(torus, FLAT, grid=(192, 192)) == []
    # the grid pass alone: four blocks of 42 whole rows and one of the other 24
    assert sizes == [42 * 192] * 4 + [24 * 192]


@pytest.mark.parametrize("seed", range(6))
def test_seed_filter_median_equals_numpy_median_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    sizes = [1, 2, 3, 4] + list(rng.integers(5, 400, size=50))
    for k, n in enumerate(sizes):
        values = rng.standard_normal(n) ** 2
        if k % 5 == 4:
            values = np.round(values, 1)     # ties across the middle
        if k % 7 == 6:
            values[rng.integers(n)] = np.nan
        for a in (values, values.reshape(1, n)):
            got, want = ut._median(a), np.median(a)
            assert (np.isnan(got) and np.isnan(want)) or got == want


def test_a_scan_imports_no_masked_arrays():
    # np.median's NaN check would import numpy.ma on its first call
    code = ("import sys\n"
            "from geomlab import chart_tensor as ct, surface_geom as sg, umbilic_topology as ut\n"
            "ut.umbilic_scan(sg.surface_by_name('ellipsoid'), ct.metric_by_name('flat-r3'),\n"
            "                grid=(32, 24))\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(ut.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_refine_wraps_periodic_parameters_into_the_half_open_domain():
    # a step landing a rounding error below 0 must not come back as 2 pi
    def field(s, t):
        f1, f2 = s + 1e-17, t - 1
        return np.stack([f1 ** 2 + f2 ** 2, f1, f2], axis=-1)

    s, t = ut._refine_zeros(field, np.array([0.0]), np.array([1.0]), (0.02, 0.02),
                            ((0.0, 2 * np.pi), (0.0, 2.0)), (True, False))
    assert 0.0 <= s[0] < 2 * np.pi
    assert abs(t[0] - 1.0) < 1e-12


def test_refinement_stays_inside_the_sampled_rows():
    # (T11, T12) also vanishes on the pole lines t = 0 and pi, where X_s = 0:
    # the grid minima next to the poles of this ellipsoid at 16x12 refine
    # towards them, and once halted the scan with dependent tangents at a
    # clamp 1e-9 of the domain from the pole; clamped at the outer sample
    # rows, they stop above tol and are dropped
    ell = sg.surface_by_name("ellipsoid", a=1.8152229146764958, b=1.6128656424327812,
                             c=0.9669325542035241)
    records = ut.umbilic_scan(ell, FLAT, grid=(16, 12))
    assert len(records) == 4 and all(r.isolated for r in records)


def test_merge_warns_on_coarse_ambiguity():
    # two zeros 1.9 cells apart; the grid seeds one on the first and one
    # 3 cells from it, which refines into the second
    def field(s, t):
        f1, f2 = (s - 1.05) * (s - 1.24), t - 1.05
        return np.stack([f1 ** 2 + f2 ** 2, f1, f2], axis=-1)

    axes = (0.05 + 0.1 * np.arange(20),) * 2
    values = np.ones((20, 20))
    values[10, 10], values[13, 10] = 0.0, 0.1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        merged = ut._scan_zeros(values, field, axes, (0.1, 0.1), ((0.0, 2.0),) * 2,
                                (False, False), 1e-8, "umbilic")
    assert len(merged) == 1
    assert merged[0].ambiguous
    assert any("merged" in str(w.message) for w in caught)


def test_merge_warns_when_the_midpoint_separates_two_zeros():
    # zeros at s = 1.0 and 1.12, 1.2 cells apart, seeded from the samples
    # 0.95 and 1.15: each seed lies within two cells of the other zero, so
    # only the field at the midpoint, well above tol, tells them apart
    def field(s, t):
        f1, f2 = (s - 1.0) * (s - 1.12), t - 1.05
        return np.stack([f1 ** 2 + f2 ** 2, f1, f2], axis=-1)

    axes = (0.05 + 0.1 * np.arange(20),) * 2
    values = np.ones((20, 20))
    values[9, 10], values[11, 10] = 0.0, 0.1
    with pytest.warns(UserWarning, match="umbilic candidates; records merged"):
        merged = ut._scan_zeros(values, field, axes, (0.1, 0.1), ((0.0, 2.0),) * 2,
                                (False, False), 1e-8, "umbilic")
    assert len(merged) == 1 and merged[0].ambiguous


def test_coarse_near_spheroid_scans_say_they_merged():
    # at 16x12 the two umbilics of each meridian of (2, 1.05, 1) sit 1.42
    # cells apart; both scans keep one record per meridian and say so
    from geomlab import line_space as ls
    ell = sg.surface_by_name("ellipsoid", a=2.0, b=1.05, c=1.0)
    with pytest.warns(UserWarning, match="umbilic candidates; records merged"):
        records = ut.umbilic_scan(ell, FLAT, grid=(16, 12))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        points = ls.complex_point_scan(ls.normal_congruence(ell, grid=(16, 12)))
    assert any("complex-point candidates; records merged" in str(w.message)
               for w in caught)
    assert len(records) == 2 == len(points)
    assert all(r.ambiguous for r in records + points)


def _product_vectors(zeros, conjugate=(), shape=(20, 20), step=0.1):
    """The planes (Re, Im) of prod_k (z - z_k), z = s + i t, with the factors in
    ``conjugate`` taken of conj(z - z_k) (winding -1), on the grid of axes
    step/2 + step k, and the field of rows (|w|^2, Re w, Im w)."""
    def w(s, t):
        z = s + 1j * t
        return np.prod([np.conj(z - zk) if k in conjugate else z - zk
                        for k, zk in enumerate(zeros)], axis=0)

    def field(s, t):
        v = w(s, t)
        return np.stack([np.abs(v) ** 2, v.real, v.imag], axis=-1)

    axes = tuple(0.5 * step + step * np.arange(n) for n in shape)
    v = w(axes[0][:, None], axes[1][None, :])
    return axes, np.stack([v.real, v.imag]), field


def test_degree_cells_hold_the_simple_zeros():
    zeros = [0.53 + 0.71j, 1.27 + 0.38j, 0.92 + 1.49j, 1.61 + 1.62j]
    axes, vectors, _ = _product_vectors(zeros, conjugate=(2,))
    cells = ut._degree_cells(vectors, (False, False))
    # the cell of z spans the samples floor((z - step/2) / step) and the next
    want = sorted([int((z.real - 0.05) // 0.1), int((z.imag - 0.05) // 0.1)] for z in zeros)
    assert cells.tolist() == want


def test_degree_cells_wrap_a_periodic_axis_and_seed_a_zero_on_an_edge():
    # sin(pi s) + i (t - 0.71), of period 2 in s, vanishes at s = 1, between
    # the samples 0.95 and 1.05, and at s = 0, between the last sample 1.95
    # and the first 0.05 + 2: a cell of its own only on a periodic s
    axes = (0.05 + 0.1 * np.arange(20),) * 2
    sm, tm = np.meshgrid(*axes, indexing="ij")
    vectors = np.stack([np.sin(np.pi * sm), tm - 0.71])
    assert ut._degree_cells(vectors, (True, False)).tolist() == [[9, 6], [19, 6]]
    assert ut._degree_cells(vectors, (False, False)).tolist() == [[9, 6]]
    # a zero on the sample line s = axes[0][9]: the corners of that edge are
    # antiparallel, and both cells that share it seed
    vectors = np.stack([sm - axes[0][9], tm - 0.71])
    assert ut._degree_cells(vectors, (False, False)).tolist() == [[8, 6], [9, 6]]


def _cell_degrees(vectors, periodic):
    """Brute force: the degree of every cell, one at a time, from the angles
    at its four corners counter-clockwise, each step taken the short way
    round; the cells of nonzero degree in grid order."""
    _, ns, nt = vectors.shape
    cells = []
    for i in range(ns if periodic[0] else ns - 1):
        for j in range(nt if periodic[1] else nt - 1):
            corners = [((i + a) % ns, (j + b) % nt) for a, b in ((0, 0), (1, 0), (1, 1), (0, 1))]
            angles = [np.arctan2(vectors[1][c], vectors[0][c]) for c in corners]
            steps = [np.angle(np.exp(1j * (angles[(k + 1) % 4] - angles[k]))) for k in range(4)]
            if round(sum(steps) / (2 * np.pi)) != 0:
                cells.append([i, j])
    return cells


@pytest.mark.parametrize("periodic", [(False, False), (True, False), (False, True), (True, True)])
def test_degree_cells_equal_the_cell_by_cell_winding(periodic):
    for seed, shape in ((0, (9, 7)), (1, (6, 11)), (2, (13, 13))):
        vectors = np.random.default_rng(seed).normal(size=(2,) + shape)
        want = _cell_degrees(vectors, periodic)
        assert want  # random fields wind round many cells
        assert ut._degree_cells(vectors, periodic).tolist() == want


def test_a_winding_four_zero_inside_one_cell_is_found_through_the_minima():
    # (z - z0)^4 with z0 at a cell centre shows one angle at all four
    # corners of its cell, which therefore has degree 0
    z0 = 1.0 + 1.0j
    axes, vectors, field = _product_vectors([z0] * 4)
    assert [9, 9] not in ut._degree_cells(vectors, (False, False)).tolist()
    values = field(axes[0][:, None], axes[1][None, :])[..., 0]
    zeros = ut._scan_zeros(values, field, axes, (0.1, 0.1), ((0.0, 2.0),) * 2,
                           (False, False), 1e-12, "umbilic", vectors=vectors)
    assert len(zeros) == 1 and zeros[0].isolated and not zeros[0].ambiguous
    assert abs(zeros[0].s + 1j * zeros[0].t - z0) < 0.02


def test_coarse_scan_refines_near_misses_on():
    # at 64x48 the scan agrees with the line-space scan to rounding
    from geomlab import line_space as ls
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = ut.umbilic_scan(ELL, FLAT, grid=(64, 48))
        # a positive minimum of the gap is refined no further and not warned about
        torus = sg.surface_by_name("torus-revolution", R=2.0, r=1.0)
        assert ut.umbilic_scan(torus, FLAT, grid=(64, 64)) == []
    points = ls.complex_point_scan(ls.normal_congruence(ELL, grid=(64, 48)))
    assert len(records) == 4 == len(points)
    for rec, cp in zip(records, points):
        assert rec.isolated and rec.value < 1e-6
        gap = ut._param_distance(ELL.domain, ELL.periodic, (cp.s, cp.t), (rec.s, rec.t))
        assert np.all(gap < 1e-12)


def test_index_loop_enclosing_another_umbilic_is_refused():
    # on this near-spheroid each meridian's two umbilics lie 0.37 apart in t,
    # inside the index loop of 4 cells at 32x24: the loop winds 1, not 1/2,
    # and its inner check loop exposes it
    ell = sg.surface_by_name("ellipsoid", a=2.0, b=1.05, c=1.0)
    records = ut.umbilic_scan(ell, FLAT, grid=(32, 24))
    assert len(records) == 4 and all(r.isolated for r in records)
    with pytest.raises(UnreliableLoopError, match="encloses another umbilic"):
        ut.conjecture_audit(ell, FLAT, grid=(32, 24))


def test_coarse_near_spheroid_audit_is_refused():
    # at 16x12 the scan merges the two umbilics of each meridian of this
    # near-spheroid, 1.42 cells apart, and says so; the index loop (radius
    # pi/3 in t) of each record also holds the other umbilic of its
    # meridian; the index sum was once 1, without a word
    ell = sg.surface_by_name("ellipsoid", a=2.0, b=1.05, c=1.0)
    with pytest.warns(UserWarning, match="umbilic candidates; records merged"), \
            pytest.raises(UnreliableLoopError, match="encloses another umbilic"):
        ut.conjecture_audit(ell, FLAT, grid=(16, 12))


def test_coarse_audit_reaching_the_poles_is_refused():
    # at 16x12 every index loop (radius pi/3 in t) crosses a pole, where the
    # parameterisation is singular; a circle of radius pi/2 once summed to 2
    with pytest.raises(UnreliableLoopError,
                       match="leaves the sampled parameter rectangle"):
        ut.conjecture_audit(ELL, FLAT, grid=(16, 12))


def _product_field(zeros, period):
    """Magnitude and angle (modulo ``period``) of prod_k (s + i t - z_k): the
    angle turns by one period round each enclosed zero."""
    def field(s, t):
        w = np.prod([s + 1j * t - z for z in zeros], axis=0)
        return np.abs(w), np.mod(np.angle(w) * period / (2 * np.pi), period)
    return field


# the period of the angle each side winds
LOOP_PERIODS = {"umbilic": np.pi, "complex point": 2 * np.pi}


@pytest.mark.parametrize("kind", LOOP_PERIODS)
def test_index_loop_winds_one_zero_and_refuses_by_name(kind):
    period = LOOP_PERIODS[kind]
    box, flat_axes = ((0.0, 10.0), (0.0, 10.0)), (False, False)

    def index(field, center=(5.0, 5.0), periodic=flat_axes, zero_value=0.0):
        winding, = ut._loop_indices(field, [center], (1.0, 1.0), box, periodic, [zero_value],
                                    period, kind)
        if isinstance(winding, UnreliableLoopError):
            raise winding
        return winding

    assert index(_product_field([5 + 5j], period)) == 1
    # a loop across the t edge of the box: fine only where t is periodic
    near_edge = _product_field([5 + 0.5j], period)
    assert index(near_edge, center=(5.0, 0.5), periodic=(False, True)) == 1
    with pytest.raises(UnreliableLoopError, match="leaves the sampled parameter rectangle"):
        index(near_edge, center=(5.0, 0.5))
    # |w| = 1 on the loop, at most 10 times a zero that is not one
    with pytest.raises(UnreliableLoopError, match="touches a near-zero region"):
        index(_product_field([5 + 5j], period), zero_value=0.2)
    # 0.4 of a turn per sample winds 409 turns, 0.8 per other sample -102
    with pytest.raises(UnreliableLoopError, match="winding is not resolved"):
        index(lambda s, t: (np.ones_like(s), np.mod(0.4 * period * np.arange(s.size),
                                                    period).reshape(s.shape)))
    # a second zero half way out: the loop winds 2, its inner check loop 1
    with pytest.raises(UnreliableLoopError, match=f"encloses another {kind}"):
        index(_product_field([5 + 5j, 5.5 + 5j], period))


def test_index_loop_touching_a_near_umbilic_region_is_refused():
    rec = ut.umbilic_scan(ELL, FLAT, grid=(64, 48))[0]
    radii = (4 * 2 * np.pi / 64, 4 * np.pi / 48)
    assert ut.attach_indices(ELL, FLAT, [replace(rec)], radii)[0].index == 0.5
    # as if the scan had stopped at |k1 - k2| = 1, above a tenth of the gap
    # anywhere on the loop
    with pytest.raises(UnreliableLoopError, match="touches a near-zero region"):
        ut.attach_indices(ELL, FLAT, [replace(rec, value=1.0)], radii)


def test_unresolved_index_loop_is_refused(monkeypatch):
    rec = ut.umbilic_scan(ELL, FLAT, grid=(64, 48))[0]
    # synthetic principal angles turning 0.4 of a half turn per sample
    monkeypatch.setattr(ut, "principal_angles",
                        lambda rep: np.mod(0.4 * np.pi * np.arange(rep.disc.size), np.pi))
    with pytest.raises(UnreliableLoopError, match="winding is not resolved"):
        ut.attach_indices(ELL, FLAT, [rec], (4 * 2 * np.pi / 64, 4 * np.pi / 48))


def test_conjecture_audit_ellipsoid():
    audit = ut.conjecture_audit(ELL, FLAT, grid=(256, 192))
    assert audit["umbilic_count"] == 4
    assert audit["count_at_least_two"] is True
    assert audit["max_index"] == 0.5
    assert audit["hamburger_ok"] and audit["local_bound_ok"]
    assert audit["index_sum"] == pytest.approx(2.0)
    assert audit["poincare_hopf_ok"] is True
    assert not audit["non_isolated_present"]


def test_conjecture_audit_torus_and_sphere():
    torus = sg.surface_by_name("torus-revolution", R=2.0, r=1.0)
    audit = ut.conjecture_audit(torus, FLAT, grid=(128, 128))
    assert audit["umbilic_count"] == 0
    assert audit["index_sum"] == 0.0
    assert audit["poincare_hopf_ok"] is True  # Euler characteristic 0

    sphere = sg.surface_by_name("round-sphere", r=1.0)
    audit = ut.conjecture_audit(sphere, FLAT, grid=(64, 48))
    assert audit["non_isolated_present"]
    assert audit["hamburger_ok"] is None
    assert "isolated" in audit["caveat"]


def test_grid_pass_in_row_chunks_equals_the_flattened_grid(monkeypatch):
    # 512 x 384 is 24 blocks of 21 whole s-rows (at most 1 << 13 points)
    # and a last one of 8 rows; the scan's grid pass is the first 25 calls
    calls = []

    def recording_forms(surface, metric, s, t):
        rep = sg.fundamental_forms(surface, metric, s, t)
        calls.append((np.broadcast_shapes(np.shape(s), np.shape(t)), rep.disc_sq, rep.k1))
        return rep

    monkeypatch.setattr(ut, "fundamental_forms", recording_forms)
    grid = (512, 384)
    assert len(ut.umbilic_scan(ELL, FLAT, grid=grid)) == 4
    assert [shape for shape, _, _ in calls[:25]] == [(21, 384)] * 24 + [(8, 384)]
    ss, tt, _, _ = ut._cells(ELL, grid)
    sm, tm = np.meshgrid(ss, tt, indexing="ij")
    flat_s, flat_t = sm.ravel(), tm.ravel()
    for k, (_, disc_sq, k1) in enumerate(calls[:25]):
        rows = slice(k * 21 * 384, (k * 21 + 21) * 384)
        ref = sg.fundamental_forms(ELL, FLAT, flat_s[rows], flat_t[rows])
        assert np.array_equal(disc_sq, ref.disc_sq) and np.array_equal(k1, ref.k1)
