"""Umbilic detection, half-integer indices, and the bound audit."""

from dataclasses import replace

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
    records = ut.umbilic_scan(ELL, FLAT, grid=(512, 384))
    assert len(records) == 4
    signs = set()
    for rec in records:
        assert rec.isolated and not rec.ambiguous
        assert rec.disc_min < 1e-6
        x, y, z = rec.chart_position
        assert abs(abs(x) - X_UMB) < 1e-6
        assert abs(y) < 1e-6
        assert abs(abs(z) - Z_UMB) < 1e-6
        signs.add((x > 0, z > 0))
    assert len(signs) == 4  # all four quadrants of the long/short axis plane


def test_ellipsoid_indices_and_sum():
    records = ut.umbilic_scan(ELL, FLAT, grid=(512, 384))
    ut.attach_indices(ELL, FLAT, records, grid=(512, 384))
    assert [r.index for r in records] == [0.5] * 4
    assert [r.index_num for r in records] == [1] * 4
    assert sum(r.index for r in records) == pytest.approx(2.0)


def test_index_invariant_under_loop_radius_doubling():
    records = ut.umbilic_scan(ELL, FLAT, grid=(256, 192))
    rec = records[0]
    radius = 4 * (2 * np.pi / 256)
    i1 = ut.umbilic_index(ELL, FLAT, rec, radius)
    i2 = ut.umbilic_index(ELL, FLAT, rec, 2 * radius)
    assert i1 == i2 == 0.5


def test_index_rejects_non_isolated_and_touching_loops():
    sphere_rec = ut.umbilic_scan(sg.surface_by_name("round-sphere", r=1.0),
                                 FLAT, grid=(64, 48))[0]
    assert not sphere_rec.isolated
    with pytest.raises(UnreliableLoopError):
        ut.umbilic_index(sg.surface_by_name("round-sphere", r=1.0), FLAT,
                         sphere_rec, 0.1)


def test_synthetic_star_pattern_has_index_minus_half():
    phi = np.linspace(0, 2 * np.pi, 1024, endpoint=False)
    angles = np.mod(-phi / 2.0, np.pi)
    assert ut.line_field_winding(angles) == pytest.approx(-0.5, abs=1e-12)
    # doubling the angular resolution must not change the rounded index
    phi2 = np.linspace(0, 2 * np.pi, 2048, endpoint=False)
    assert ut.line_field_winding(np.mod(-phi2 / 2, np.pi)) == pytest.approx(-0.5, abs=1e-12)


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
    assert records[0].disc_min < 1e-12
    # the first cell whose gap is below tol, not the argmin of rounding noise
    assert (records[0].s, records[0].t) == (0.5 * (2 * np.pi / 64), 0.5 * (np.pi / 48))


def test_clifford_torus_in_deformed_metric_has_no_umbilics():
    metric = ct.metric_by_name("hopf-eps", eps=0.4)
    records = ut.umbilic_scan(sg.surface_by_name("clifford"), metric,
                              grid=(96, 96))
    assert records == []


def test_scan_deterministic():
    a = ut.umbilic_scan(ELL, FLAT, grid=(128, 96))
    b = ut.umbilic_scan(ELL, FLAT, grid=(128, 96))
    assert [(r.s, r.t, r.disc_min) for r in a] == [(r.s, r.t, r.disc_min) for r in b]


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
                         disc_min=k) for k, r in enumerate(records)]
        ordered = ut._grid_order(moved[::-1], (0.0, 0.0), step, grid, ELL.periodic)
        assert [r.disc_min for r in ordered] == [0, 1, 2, 3]


def test_local_minima_break_ties():
    assert len(ut._local_minima(np.full((8, 6), 0.3), (True, True))) == 0
    values = np.ones((7, 5))
    values[3, 2] = values[4, 2] = 0.0
    assert ut._local_minima(values, (True, True)).tolist() == [[4, 2]]


def test_local_minima_one_candidate_per_ellipsoid_umbilic():
    ss, tt, _, _ = ut._cells(ELL, (256, 192))
    sm, tm = np.meshgrid(ss, tt, indexing="ij")
    gap = sg.fundamental_forms(ELL, FLAT, sm.ravel(), tm.ravel()).disc_sq
    assert len(ut._local_minima(gap.reshape(sm.shape), ELL.periodic)) == 4


def test_scan_refines_all_candidates_in_one_call_per_iteration(monkeypatch):
    sizes = []

    def counting_forms(surface, metric, s, t):
        sizes.append(np.size(s))
        return sg.fundamental_forms(surface, metric, s, t)

    monkeypatch.setattr(ut, "fundamental_forms", counting_forms)
    records = ut.umbilic_scan(ELL, FLAT, grid=(128, 96), refine_iters=4)
    n_cand = sizes[5]
    assert len(records) == 4 and n_cand >= 4
    # grid, 4 refinement iterations, final check, isolation rings
    assert sizes == [128 * 96] + [25 * n_cand] * 4 + [n_cand, 64 * len(records)]


def test_refine_wraps_periodic_parameters_into_the_half_open_domain():
    # a step landing a rounding error below 0 must not come back as 2 pi
    s, t, ok = ut._refine_minima(lambda s, t: (s + 1e-17) ** 2 + (t - 1) ** 2,
                                 [0.0], [1.0], (0.02, 0.02),
                                 ((0.0, 2 * np.pi), (0.0, 2.0)), (True, False), 1)
    assert 0.0 <= s[0] < 2 * np.pi
    assert abs(t[0] - 1.0) < 1e-12 and ok[0]


def test_merge_warns_on_coarse_ambiguity():
    import warnings
    candidates = [(1.0, 1.0, 1e-9, (0.0, 0.0, 0.0), 1.0, 1.0),
                  (1.02, 1.0, 2e-9, (0.0, 0.0, 0.0), 1.5, 1.0)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        merged = ut._merge_candidates(ELL, FLAT, candidates, 0.1, 0.1, 1e-6)
    assert len(merged) == 1
    assert merged[0].ambiguous
    assert any("merged" in str(w.message) for w in caught)


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
