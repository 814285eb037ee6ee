"""Acceptance suite: one test per headline criterion, at stated tolerances.

Each test prints a single [PASS]/[FAIL] line (visible under pytest -s) in
addition to asserting, so the suite doubles as a checklist run.
"""

import time

import numpy as np
import pytest

from geomlab import chart_tensor as ct
from geomlab import line_space as ls
from geomlab import neutral_flow as nf
from geomlab import surface_geom as sg
from geomlab import umbilic_topology as ut

TWO_PI_SQ = 2.0 * np.pi ** 2
FLAT = ct.metric_by_name("flat-r3")


def _verdict(num, label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_1_willmore_counterexample():
    """Quadrature matches 2 sqrt(1-eps^2) pi^2 to 1e-8 rel; strict drop; <10 s."""
    torus = sg.surface_by_name("clifford")
    t0 = time.perf_counter()
    ok = True
    worst_rel = 0.0
    for eps in np.round(np.arange(0.0, 0.91, 0.1), 10):
        metric = ct.metric_by_name("hopf-eps", eps=float(eps))
        w = sg.willmore_energy(torus, metric, grid=(128, 128))
        closed = 2.0 * np.sqrt(1.0 - eps ** 2) * np.pi ** 2
        rel = abs(w - closed) / closed
        worst_rel = max(worst_rel, rel)
        ok &= rel <= 1e-8
        if eps > 0:
            ok &= w < TWO_PI_SQ
        else:
            ok &= abs(w - 19.7392088) < 1e-6 and abs(w - TWO_PI_SQ) <= 1e-8 * TWO_PI_SQ
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _verdict(1, f"Willmore sweep (worst rel err {worst_rel:.2e}, {elapsed:.1f}s)", ok)


def test_criterion_2_minimality_under_deformation():
    """max|H| over 1e4 Clifford samples < 1e-10 for five deformation values."""
    torus = sg.surface_by_name("clifford")
    worst = 0.0
    for eps in (0.0, 0.25, 0.5, 0.75, 0.99 * (1.0 - 1e-9)):
        metric = ct.metric_by_name("hopf-eps", eps=eps)
        worst = max(worst, sg.max_abs_mean_curvature(torus, metric,
                                                     n_samples=10000, seed=17))
    _verdict(2, f"torus stays minimal (max|H| {worst:.2e})", worst < 1e-10)


def test_criterion_3_l2_bound_and_energy_preservation():
    """Bumped-metric distance <= 16 pi^2 eps^3; bump leaves W(T) unchanged."""
    ground = ct.metric_by_name("round-s3")
    torus = sg.surface_by_name("clifford")
    ok = True
    for eps in (0.1, 0.2, 0.4):
        bumped = ct.metric_by_name("hopf-eps-bumped", eps=eps)
        dist_sq = ct.l2_metric_distance(ground, bumped, ground,
                                        grid=(576, 32, 32), gl_order=6)
        ok &= dist_sq <= 16.0 * np.pi ** 2 * eps ** 3
        w_bumped = sg.willmore_energy(torus, bumped, grid=(128, 128))
        w_plain = 2.0 * np.sqrt(1.0 - eps ** 2) * np.pi ** 2
        ok &= abs(w_bumped - w_plain) < 1e-10
    _verdict(3, "L2 cubic bound and bump-invariant torus energy", ok)


def test_criterion_4_umbilic_topology():
    """Ellipsoid: 4 umbilics of index 1/2 summing to 2; torus: none; index
    invariant under loop-radius doubling."""
    ell = sg.surface_by_name("ellipsoid", a=2.0, b=1.5, c=1.0)
    records = ut.umbilic_scan(ell, FLAT, grid=(512, 384))
    ok = len(records) == 4 and all(r.isolated for r in records)
    ut.attach_indices(ell, FLAT, records, grid=(512, 384))
    ok &= all(r.index == 0.5 for r in records)
    ok &= abs(sum(r.index for r in records) - 2.0) < 1e-12
    radius = 4 * (2 * np.pi / 512)
    for rec in records[:2]:
        ok &= (ut.umbilic_index(ell, FLAT, rec, (radius, radius))
               == ut.umbilic_index(ell, FLAT, rec, (2 * radius, 2 * radius)))
    torus = sg.surface_by_name("torus-revolution", R=2.0, r=1.0)
    torus_records = ut.umbilic_scan(torus, FLAT, grid=(256, 256))
    ok &= torus_records == []
    _verdict(4, "umbilic counts, half-integer indices, loop invariance", ok)


def test_criterion_5_line_space_correspondence():
    """Complex points at umbilic directions (2 cells at 512^2); Lagrangian
    sections; J^2=-I; omega compatibility; signature (2,2); Wirtinger."""
    ell = sg.surface_by_name("ellipsoid", a=2.0, b=1.5, c=1.0)
    section = ls.normal_congruence(ell, grid=(512, 512))
    complex_pts = ls.complex_point_scan(section)
    umb = ut.umbilic_scan(ell, FLAT, grid=(512, 384))
    ok = len(complex_pts) == 4 == len(umb)
    ds = section.s_axis[1] - section.s_axis[0]
    dt = section.t_axis[1] - section.t_axis[0]
    for rec in umb:
        gap_cells = []
        for cp in complex_pts:
            gap_s = abs(cp.s - rec.s) % (2 * np.pi)
            gap_s = min(gap_s, 2 * np.pi - gap_s)
            gap_cells.append(max(gap_s / ds, abs(cp.t - rec.t) / dt))
        ok &= min(gap_cells) <= 2.0

    du, dV = section.du, section.dV
    om = ls.omega_pair(du[..., 0, :], dV[..., 0, :], du[..., 1, :], dV[..., 1, :])
    ok &= float(np.max(np.abs(om))) < 1e-8

    audit = ls.structure_audit(np.random.default_rng(23), 1000)
    ok &= audit["passed"]
    worst_wirt = audit["residuals"]["wirtinger"]
    _verdict(5, f"line-space structure (wirtinger {worst_wirt:.1e})", ok)


def _line_field_index(angles):
    """Half-integer index of a closed loop of line-field angles (mod pi):
    the rotation of the doubled angle, unwrapped by numpy, over 4 pi."""
    doubled = np.unwrap(2.0 * np.append(angles, angles[0]))
    return (doubled[-1] - doubled[0]) / (4.0 * np.pi)


def test_criterion_6_maslov_formula():
    """mu = 4i on loops enclosing 0, 1, 2 umbilics, i from an independent
    principal-direction winding."""
    ell = sg.surface_by_name("ellipsoid", a=2.0, b=1.5, c=1.0)
    section = ls.normal_congruence(ell, grid=(256, 192))
    cmap = section.source
    umb = ut.umbilic_scan(ell, FLAT, grid=(256, 192))
    iso = [r for r in umb if r.isolated]
    period = 2 * np.pi
    partner = min(iso[1:], key=lambda r: min(abs(r.s - iso[0].s) % period,
                                             period - abs(r.s - iso[0].s) % period))
    phi = np.linspace(0, 2 * np.pi, 2048, endpoint=False)
    t_mid = 0.5 * (iso[0].t + partner.t)
    t_rad = 0.35 + 0.5 * abs(partner.t - iso[0].t)
    loops = {
        0: (np.pi / 2 + 0.2 * np.cos(phi), np.pi / 2 + 0.2 * np.sin(phi)),
        1: (iso[0].s + 0.15 * np.cos(phi), iso[0].t + 0.15 * np.sin(phi)),
        2: (iso[0].s + 0.35 * np.cos(phi), t_mid + t_rad * np.sin(phi)),
    }
    ok = True
    for count, (loop_s, loop_t) in loops.items():
        mas = ls.maslov_index(cmap, loop_s, loop_t, section.center)
        i_surf = _line_field_index(ut.principal_angles(ell, FLAT, loop_s, loop_t))
        ok &= mas["mu"] == 2 * count
        ok &= abs(mas["mu"] - 4.0 * i_surf) < 1e-9
    _verdict(6, "Keller-Maslov index equals four times the umbilic sum", ok)


def _random_cubic_section(rng):
    """A chart section over a random chart centre whose fiber is a random
    cubic polynomial in the chart coordinates (x, y)."""
    coeffs = rng.normal(size=(2, 10)) * 0.5

    def fiber(x, y):
        monomials = (1.0, x, y, x * x, x * y, y * y, x * x * x, x * x * y, x * y * y, y * y * y)
        return tuple(sum(c * m for c, m in zip(row, monomials)) for row in coeffs)
    return nf.ChartSection(fiber, nf.LineSpaceChart(rng.normal(size=3)))


def test_criterion_7_symplectic_area():
    """Stokes agreement < 1e-8 on random sections; Lagrangian rectangles
    carry no symplectic area."""
    rng = np.random.default_rng(31)
    ok = True
    for _ in range(8):
        two_form, boundary = ls.symplectic_area(_random_cubic_section(rng),
                                                ((-0.5, 0.5), (-0.5, 0.5)))
        ok &= abs(two_form - boundary) < 1e-8
    ell = sg.surface_by_name("ellipsoid", a=2.0, b=1.5, c=1.0)
    cmap = ls.CongruenceMap(ell)
    for (s0, t0) in ((1.0, 1.5), (4.0, 2.0)):
        two_form, _ = ls.symplectic_area(cmap, ((s0 - 0.5, s0 + 0.5), (t0 - 0.35, t0 + 0.35)))
        ok &= abs(two_form) < 1e-8
    _verdict(7, "symplectic area: Stokes and Lagrangian vanishing", ok)


def test_criterion_8_flow_properties():
    """500-step definite run: area non-decreasing (1e-10/step), margin
    positive, normal residual < 1e-8; maximal disc stationary; < 2 min."""
    t0 = time.perf_counter()
    state, _ = nf.run_flow({"grid_n": 17, "steps": 500, "perturbation": 0.05})
    ok = state.halted == ""
    areas = np.array([d.area for d in state.diagnostics])
    ok &= bool(np.all(np.diff(areas) >= -1e-10))
    ok &= min(d.margin for d in state.diagnostics) > 0.0
    ok &= max(d.normal_residual for d in state.diagnostics) < 1e-8
    ok &= len(state.diagnostics) == 501

    still, _ = nf.build_state({"disc": "holomorphic-affine", "grid_n": 17})
    before = still.f.copy()
    geo = nf.flow_geometry(still)
    for _ in range(5):
        geo = nf.flow_step(still, geo)
    ok &= float(np.max(np.abs(still.f - before))) < 5 * 1e-10
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    _verdict(8, f"flow monotonicity and stationarity ({elapsed:.0f}s)", ok)


def test_criterion_9_finite_difference_oracles():
    """Christoffels and fundamental forms vs central differences, 1e-6 rel."""
    rng = np.random.default_rng(41)
    ok = True
    worst = 0.0

    def fd_metric_partials(metric, p, h=1e-5):
        out = np.zeros((3, 3, 3))
        for k in range(3):
            pp, pm = p.copy(), p.copy()
            pp[k] += h
            pm[k] -= h
            out[k] = (metric.matrix(pp[None])[0] - metric.matrix(pm[None])[0]) / (2 * h)
        return out

    def fd_christoffel(metric, p):
        g = metric.matrix(p[None])[0]
        dg = fd_metric_partials(metric, p)
        ginv = np.linalg.inv(g)
        gam = np.zeros((3, 3, 3))
        for k in range(3):
            for i in range(3):
                for j in range(3):
                    gam[k, i, j] = 0.5 * sum(
                        ginv[k, l] * (dg[i, j, l] + dg[j, i, l] - dg[l, i, j])
                        for l in range(3))
        return gam

    # second differences need a larger step than first ones: rounding error
    # grows like eps/h^2 while truncation falls like h^2
    def fd_map(surface, s, t, h=1e-4):
        def at(ss, tt):
            return np.array(surface.chart_map(np.array(ss), np.array(tt)),
                            dtype=float)
        d1 = np.stack([(at(s + h, t) - at(s - h, t)) / (2 * h),
                       (at(s, t + h) - at(s, t - h)) / (2 * h)])
        d2 = np.zeros((2, 2, 3))
        d2[0, 0] = (at(s + h, t) - 2 * at(s, t) + at(s - h, t)) / h ** 2
        d2[1, 1] = (at(s, t + h) - 2 * at(s, t) + at(s, t - h)) / h ** 2
        mixed = (at(s + h, t + h) - at(s + h, t - h)
                 - at(s - h, t + h) + at(s - h, t - h)) / (4 * h ** 2)
        d2[0, 1] = d2[1, 0] = mixed
        return at(s, t), d1, d2

    cases = [(sg.surface_by_name("clifford"),
              ct.metric_by_name("hopf-eps", eps=0.37),
              (0.0, 2 * np.pi), (0.0, 2 * np.pi), 500),
             (sg.surface_by_name("ellipsoid", a=2.0, b=1.5, c=1.0),
              ct.metric_by_name("flat-r3"),
              (0.0, 2 * np.pi), (0.4, np.pi - 0.4), 500)]
    for surface, metric, s_range, t_range, count in cases:
        ss = rng.uniform(*s_range, count)
        tt = rng.uniform(*t_range, count)
        rep = sg.fundamental_forms(surface, metric, ss, tt)
        for idx in range(count):
            s_val, t_val = float(ss[idx]), float(tt[idx])
            point, d1, d2 = fd_map(surface, s_val, t_val)
            gam = (np.zeros((3, 3, 3)) if metric.constant
                   else fd_christoffel(metric, point))
            exact_gam = ct.christoffel(metric, point)
            scale_g = np.max(np.abs(gam)) + 1.0
            worst = max(worst, float(np.max(np.abs(exact_gam - gam))) / scale_g)
            g = metric.matrix(point[None])[0]
            first = np.einsum("ai,ij,bj->ab", d1, g, d1)
            cov = np.einsum("ij,aj->ai", g, d1)
            v = np.cross(cov[0], cov[1]) * surface.orient
            normal = v / np.sqrt(np.einsum("i,ij,j->", v, g, v))
            acc = d2 + np.einsum("kij,ai,bj->abk", gam, d1, d1)
            second = -np.einsum("abk,kj,j->ab", acc, g, normal)
            scale_1 = np.max(np.abs(first)) + 1.0
            scale_2 = np.max(np.abs(second)) + 1.0
            worst = max(worst,
                        float(np.max(np.abs(rep.first[idx] - first))) / scale_1,
                        float(np.max(np.abs(rep.second[idx] - second))) / scale_2)
        ok &= worst < 1e-6
    _verdict(9, f"finite-difference oracles (worst rel {worst:.2e})", ok)
