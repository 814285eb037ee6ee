"""The neutral pseudo-Kahler structure on oriented lines and its invariants."""

import warnings

import numpy as np
import pytest

from geomlab import chart_tensor as ct
from geomlab import line_space as ls
from geomlab import surface_geom as sg
from geomlab import umbilic_topology as ut
from geomlab.errors import ChartDomainError, ConfigError

FLAT = ct.metric_by_name("flat-r3")
ELL = sg.surface_by_name("ellipsoid", a=2.0, b=1.5, c=1.0)


def test_line_through_point_and_validation():
    line = ls.line_through([1.0, 2.0, 2.0], [0.0, 0.0, 5.0])
    line.validate()
    assert np.allclose(line.u, [0, 0, 1])
    assert np.allclose(line.V, [1, 2, 0])


def test_j_squares_to_minus_identity_and_preserves_constraints():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        base = ls.random_base(rng)
        x = ls.random_tangent(rng, base)
        ju, jv = ls.apply_j(base.u, base.V, x.du, x.dV)
        ls.LineTangent(base, ju, jv).validate()
        jju, jjv = ls.apply_j(base.u, base.V, ju, jv)
        assert np.max(np.abs(jju + x.du)) < 1e-10
        assert np.max(np.abs(jjv + x.dV)) < 1e-10


def test_omega_antisymmetric_and_j_invariant():
    rng = np.random.default_rng(11)
    for _ in range(300):
        base = ls.random_base(rng)
        x = ls.random_tangent(rng, base)
        y = ls.random_tangent(rng, base)
        om = ls.omega_pair(x.du, x.dV, y.du, y.dV)
        assert om == pytest.approx(-ls.omega_pair(y.du, y.dV, x.du, x.dV), abs=1e-12)
        jx = ls.apply_j(base.u, base.V, x.du, x.dV)
        jy = ls.apply_j(base.u, base.V, y.du, y.dV)
        assert ls.omega_pair(*jx, *jy) == pytest.approx(om, abs=1e-10)


def test_neutral_structures_returns_symmetric_metric():
    rng = np.random.default_rng(12)
    base = ls.random_base(rng)
    x = ls.random_tangent(rng, base)
    y = ls.random_tangent(rng, base)
    jx, om, g_xy = ls.neutral_structures(x, y)
    jx.validate()
    _, _, g_yx = ls.neutral_structures(y, x)
    assert g_xy == pytest.approx(g_yx, abs=1e-12)
    with pytest.raises(ValueError):
        ls.neutral_structures(x, ls.random_tangent(rng, ls.random_base(rng)))


def test_metric_signature_two_two():
    rng = np.random.default_rng(13)
    for _ in range(50):
        base = ls.random_base(rng)
        frame = [ls.random_tangent(rng, base) for _ in range(4)]
        gram = np.array([[ls.metric_pair(base.u, base.V, a.du, a.dV, b.du, b.dV)
                          for b in frame] for a in frame])
        evals = np.linalg.eigvalsh(gram)
        assert np.sum(evals > 0) == 2 and np.sum(evals < 0) == 2


def test_wirtinger_identity_on_random_planes():
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(1000):
        base = ls.random_base(rng)
        x = ls.random_tangent(rng, base)
        y = ls.random_tangent(rng, base)
        worst = max(worst, ls.wirtinger_residual(x, y))
    assert worst < 1e-9


def test_wirtinger_terms_vanish_on_totally_null_plane():
    sphere = sg.surface_by_name("round-sphere", r=1.3)
    cmap = ls.CongruenceMap(sphere)
    u, V, du, dV = cmap.eval(1.0, 1.2)
    base = ls.OrientedLine(u[0], V[0])
    x1 = ls.LineTangent(base, du[0, 0], dV[0, 0])
    x2 = ls.LineTangent(base, du[0, 1], dV[0, 1])
    assert abs(ls.omega_pair(x1.du, x1.dV, x2.du, x2.dV)) < 1e-10
    gram = [[ls.metric_pair(base.u, base.V, a.du, a.dV, b.du, b.dV)
             for b in (x1, x2)] for a in (x1, x2)]
    assert np.max(np.abs(gram)) < 1e-10
    assert ls.wirtinger_residual(x1, x2) < 1e-10


def test_lagrangian_lorentz_plane_sign_relation():
    # for Lagrangian planes the volume term carries the whole identity:
    # det4 = -det Gram > 0 on a Lorentz plane
    cmap = ls.CongruenceMap(ELL)
    u, V, du, dV = cmap.eval(1.0, 1.2)
    base = ls.OrientedLine(u[0], V[0])
    x1 = ls.LineTangent(base, du[0, 0], dV[0, 0])
    x2 = ls.LineTangent(base, du[0, 1], dV[0, 1])
    cls = ls.classify_plane(x1, x2)
    assert cls.kind == "lorentz" and cls.lagrangian
    a = (x1.du, x1.dV)
    b = (x2.du, x2.dV)
    c = ls.apply_j(base.u, base.V, *a)
    d = ls.apply_j(base.u, base.V, *b)
    det4 = ls._DET4_SIGN * ls._quad_form(a, b, c, d)
    gram_det = (cls.eigenvalues[0] * cls.eigenvalues[1])
    assert det4 > 0 and gram_det < 0
    assert det4 == pytest.approx(-gram_det, rel=1e-9)


def test_classify_x_jx_plane_definite_holomorphic():
    rng = np.random.default_rng(15)
    base = ls.random_base(rng)
    x = None
    for _ in range(100):
        cand = ls.random_tangent(rng, base)
        if ls.metric_pair(base.u, base.V, cand.du, cand.dV, cand.du, cand.dV) > 0.2:
            x = cand
            break
    jx, _, _ = ls.neutral_structures(x, x)
    cls = ls.classify_plane(x, jx)
    assert cls.kind == "positive-definite"
    assert cls.holomorphic and not cls.lagrangian


def test_classify_rejects_dependent_inputs():
    rng = np.random.default_rng(16)
    base = ls.random_base(rng)
    x = ls.random_tangent(rng, base)
    x2 = ls.LineTangent(base, 2.0 * x.du, 2.0 * x.dV)
    with pytest.raises(ValueError):
        ls.classify_plane(x, x2)


def test_normal_congruence_of_centered_sphere_is_zero_section():
    for r in (1.0, 2.0):
        section = ls.normal_congruence(sg.surface_by_name("round-sphere", r=r),
                                       grid=(32, 24))
        assert np.max(np.abs(section.V)) < 1e-12


def test_normal_congruences_are_lagrangian():
    for surface in (ELL, sg.surface_by_name("round-sphere", r=1.5),
                    sg.surface_by_name("torus-revolution", R=2.0, r=1.0)):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            section = ls.normal_congruence(surface, grid=(48, 36))
        du, dV = section.du, section.dV
        om = ls.omega_pair(du[..., 0, :], dV[..., 0, :],
                           du[..., 1, :], dV[..., 1, :])
        assert np.max(np.abs(om)) < 1e-8


def test_torus_congruence_warns_not_graphical():
    torus = sg.surface_by_name("torus-revolution", R=2.0, r=1.0)
    with pytest.warns(UserWarning, match="not injective"):
        ls.normal_congruence(torus, grid=(48, 48))


def test_gauss_map_of_rank_below_two_is_refused():
    # a plane (rank 0) and a parabolic cylinder (rank 1): no section over directions
    for expr in ("x + 2*y", "x^2"):
        with pytest.raises(ConfigError, match="Gauss map"):
            ls.normal_congruence(sg.surface_by_name("graph", expr=expr), grid=(32, 32))


@pytest.mark.parametrize("name", ["ellipsoid", "ellipsoid-offset"])
def test_congruence_tangents_match_central_differences(name):
    cmap = ls.CongruenceMap(sg.surface_by_name(name))
    rng = np.random.default_rng(5)
    s = rng.uniform(0.0, 2 * np.pi, 200)
    t = rng.uniform(0.2, np.pi - 0.2, 200)
    u, V, du, dV = cmap.eval(s, t)
    h = 1e-5
    for a, (ds, dt) in enumerate(((h, 0.0), (0.0, h))):
        up, Vp, _, _ = cmap.eval(s + ds, t + dt)
        um, Vm, _, _ = cmap.eval(s - ds, t - dt)
        assert np.max(np.abs(du[:, a] - (up - um) / (2 * h))) < 1e-8 * np.max(np.abs(du))
        assert np.max(np.abs(dV[:, a] - (Vp - Vm) / (2 * h))) < 1e-8 * np.max(np.abs(dV))


def _psi_least_squares(u, V, du1, dv1, du2, dv2, center):
    """psi from a 6x4 least-squares solve of J X1 over (X1, X2, E1, E2)."""
    e1, e2 = ls.sphere_frame(u, center)
    ju, jv = ls.apply_j(u, V, du1, dv1)
    out = np.empty(len(u), dtype=complex)
    zero = np.zeros(3)
    for k in range(len(u)):
        frame = np.stack([np.concatenate([du1[k], dv1[k]]),
                          np.concatenate([du2[k], dv2[k]]),
                          np.concatenate([zero, e1[k]]),
                          np.concatenate([zero, e2[k]])], axis=1)
        coef = np.linalg.lstsq(frame, np.concatenate([ju[k], jv[k]]), rcond=None)[0]
        out[k] = coef[2] + 1j * coef[3]
    return out


@pytest.mark.parametrize("normalize", [True, False])
def test_defect_psi_matches_least_squares_decomposition(normalize):
    rng = np.random.default_rng(11)
    center = (0.0, 0.0, 1.0)
    bases = [b for b in (ls.random_base(rng) for _ in range(300)) if b.u[2] > -0.5]
    tangents = [(ls.random_tangent(rng, b, scale=rng.uniform(0.1, 3.0)),
                 ls.random_tangent(rng, b, scale=rng.uniform(0.1, 3.0))) for b in bases]
    u = np.array([b.u for b in bases])
    V = np.array([b.V for b in bases])
    du1, dv1, du2, dv2 = (np.array([getattr(x[i], f) for x in tangents])
                          for i, f in ((0, "du"), (0, "dV"), (1, "du"), (1, "dV")))
    psi = ls.defect_psi(u, V, du1, dv1, du2, dv2, center, normalize=normalize)
    if normalize:
        n1 = np.linalg.norm(np.concatenate([du1, dv1], axis=1), axis=1)[:, None]
        n2 = np.linalg.norm(np.concatenate([du2, dv2], axis=1), axis=1)[:, None]
        du1, dv1, du2, dv2 = du1 / n1, dv1 / n1, du2 / n2, dv2 / n2
    ref = _psi_least_squares(u, V, du1, dv1, du2, dv2, center)
    assert np.max(np.abs(psi - ref)) < 1e-10 * np.max(np.abs(ref))


def test_congruence_rejects_hopf_chart_surfaces():
    with pytest.raises(ChartDomainError):
        ls.CongruenceMap(sg.surface_by_name("clifford"))


def test_complex_points_match_umbilics():
    section = ls.normal_congruence(ELL, grid=(256, 192))
    records = ls.complex_point_scan(section)
    umb = ut.umbilic_scan(ELL, FLAT, grid=(256, 192))
    assert len(records) == 4 == len(umb)
    # directions of complex points equal umbilic normals
    normals = []
    for rec in umb:
        x, y, z = rec.chart_position
        n = np.array([x / 4.0, y / 2.25, z])
        normals.append(n / np.linalg.norm(n))
    for cp in records:
        gaps = [np.arccos(np.clip(np.dot(cp.direction, n), -1, 1)) for n in normals]
        assert min(gaps) < 1e-4
    assert all(r.winding == 1 and r.index == 0.5 for r in records)
    # both scans list their records in the same grid order
    for cp, rec in zip(records, umb):
        gap = ut._param_distance(ELL.domain, ELL.periodic, (cp.s, cp.t), (rec.s, rec.t))
        assert np.all(gap < 1e-6)


def test_complex_points_merge_across_the_seam():
    section = ls.normal_congruence(ELL, grid=(64, 48))
    # two of the zeros sit on the s = 0 / 2 pi seam, on grid column 0;
    # overwrite that column with a far one, so each of them is seeded from
    # both sides of the seam and refined to s = 0 twice
    for arr in (section.u, section.V, section.du, section.dV):
        arr[0] = arr[16]
    records = ls.complex_point_scan(section)
    assert len(records) == 4
    assert all(r.winding == 1 for r in records)


def test_complex_scan_warns_on_an_ambiguous_merge():
    # the seam trick above, with the t labels moved 2.1 cells off the data:
    # both seeds of a seam zero lie more than two cells from where they meet
    section = ls.normal_congruence(ELL, grid=(64, 48))
    for arr in (section.u, section.V, section.du, section.dV):
        arr[0] = arr[16]
    section.t_axis = section.t_axis + 2.1 * (section.t_axis[1] - section.t_axis[0])
    with pytest.warns(UserWarning, match="complex-point candidates; records merged"):
        records = ls.complex_point_scan(section)
    assert len(records) == 4


@pytest.mark.parametrize("axes, grid", [((1.05, 1.02, 1.0), (16, 12)),
                                        ((3.0, 2.0, 0.5), (32, 24))])
def test_coarse_complex_scan_finds_every_umbilic(axes, grid):
    # zeros the first refine_iters iterations leave just above tol are
    # refined on, as in umbilic_scan
    ell = sg.surface_by_name("ellipsoid", a=axes[0], b=axes[1], c=axes[2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = ls.complex_point_scan(ls.normal_congruence(ell, grid=grid))
        umb = ut.umbilic_scan(ell, FLAT, grid=grid)
    assert len(records) == 4 == len(umb)
    for cp, rec in zip(records, umb):
        gap = ut._param_distance(ell.domain, ell.periodic, (cp.s, cp.t), (rec.s, rec.t))
        assert cp.isolated and np.all(gap < 1e-4)


def test_complex_scan_seeds_no_pole_row():
    # this ellipsoid's defect has positive grid minima on the rows next to
    # the poles at 0.49 of the median; seeded, the one next to the chart
    # antipode sent its refinement stencil onto the antipode
    ell = sg.surface_by_name("ellipsoid", a=1.82643299868963, b=1.602395183883715,
                             c=0.8666725021917754)
    records = ls.complex_point_scan(ls.normal_congruence(ell, grid=(256, 192)))
    assert [(r.isolated, r.winding) for r in records] == [(True, 1)] * 4


def test_umbilic_free_annulus_has_positive_defect():
    section = ls.normal_congruence(ELL, grid=(128, 96))
    psi = ls.section_defect(section)
    mask = np.ones(psi.shape, dtype=bool)
    records = ls.complex_point_scan(section)
    ds = section.s_axis[1] - section.s_axis[0]
    dt = section.t_axis[1] - section.t_axis[0]
    for rec in records:
        sel_s = np.abs((section.s_axis - rec.s + np.pi) % (2 * np.pi) - np.pi) < 8 * ds
        sel_t = np.abs(section.t_axis - rec.t) < 8 * dt
        mask[np.ix_(sel_s, sel_t)] = False
    assert np.min(np.abs(psi[mask])) > 1e-3


def test_zero_section_scan_flags_degenerate():
    section = ls.normal_congruence(sg.surface_by_name("round-sphere", r=1.0),
                                   grid=(48, 36))
    records = ls.complex_point_scan(section)
    assert len(records) == 1 and not records[0].isolated
    # the first sample whose defect is below tol
    assert (records[0].s, records[0].t) == (section.s_axis[0], section.t_axis[0])


def test_maslov_loops_and_additivity():
    section = ls.normal_congruence(ELL, grid=(192, 144))
    cmap = section.source
    records = ls.complex_point_scan(section)
    phi = np.linspace(0, 2 * np.pi, 2048, endpoint=False)
    rec = records[0]
    one = ls.maslov_index(cmap, rec.s + 0.15 * np.cos(phi),
                          rec.t + 0.15 * np.sin(phi), section.center)
    assert one == {"mu": 2, "index_sum": 0.5, "operator_index": 4,
                   "unparameterized_dim": 1}
    empty = ls.maslov_index(cmap, np.pi / 2 + 0.2 * np.cos(phi),
                            np.pi / 2 + 0.2 * np.sin(phi), section.center)
    assert empty["mu"] == 0 and empty["operator_index"] == 2
    # reversing the traversal cannot flip the chart-oriented answer
    rev = ls.maslov_index(cmap, rec.s + 0.15 * np.cos(-phi),
                          rec.t + 0.15 * np.sin(-phi), section.center)
    assert rev["mu"] == 2


def test_maslov_matches_principal_winding():
    section = ls.normal_congruence(ELL, grid=(192, 144))
    records = ls.complex_point_scan(section)
    phi = np.linspace(0, 2 * np.pi, 2048, endpoint=False)
    for rec in records[:2]:
        loop_s = rec.s + 0.12 * np.cos(phi)
        loop_t = rec.t + 0.12 * np.sin(phi)
        mas = ls.maslov_index(section.source, loop_s, loop_t, section.center)
        i_surf = ut.line_field_winding(
            ut.principal_angles(ELL, FLAT, loop_s, loop_t))
        assert mas["mu"] == pytest.approx(4 * i_surf, abs=1e-9)


def test_symplectic_area_stokes_on_random_discs():
    rng = np.random.default_rng(21)
    for _ in range(5):
        disc = ls.random_jet_disc(rng)
        two_form, boundary = ls.symplectic_area(disc, n_rad=48, n_ang=256)
        assert abs(two_form - boundary) < 1e-8


def test_symplectic_area_vanishes_inside_lagrangian_section():
    cmap = ls.CongruenceMap(ELL)
    disc = ls.SectionDisc(cmap, 1.0, 1.5, 0.5, 0.4)
    two_form, _ = ls.symplectic_area(disc)
    assert abs(two_form) < 1e-8


def test_symplectic_area_zero_section():
    cmap = ls.CongruenceMap(sg.surface_by_name("round-sphere", r=1.0))
    disc = ls.SectionDisc(cmap, 1.0, 1.5, 0.5, 0.4)
    two_form, boundary = ls.symplectic_area(disc)
    assert abs(two_form) < 1e-12 and abs(boundary) < 1e-12


def test_omega_is_closed_second_order():
    # discrete exterior derivative over shrinking parameter cubes
    rng = np.random.default_rng(22)
    cu = rng.normal(size=(3, 3))
    cv = rng.normal(size=(3, 3))

    def family(a, b, c):
        raw = cu @ np.array([1.0 + a, b - 0.3 * a, c + a * b])
        u = raw / np.linalg.norm(raw)
        w = cv @ np.array([b, c, a * c + 0.5])
        return u, w - np.dot(w, u) * u

    def omega_face(axis_pair, fixed_axis, center, h):
        # omega(d_i f, d_j f) by central differences at `center`
        def tangent(axis, pt, hh):
            lo = list(pt)
            hi = list(pt)
            lo[axis] -= hh
            hi[axis] += hh
            ul, vl = family(*lo)
            uh, vh = family(*hi)
            return (uh - ul) / (2 * hh), (vh - vl) / (2 * hh)
        i, j = axis_pair
        du_i, dv_i = tangent(i, center, h)
        du_j, dv_j = tangent(j, center, h)
        return ls.omega_pair(du_i, dv_i, du_j, dv_j)

    def d_omega(center, h):
        total = 0.0
        for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            hi = list(center)
            lo = list(center)
            hi[k] += h
            lo[k] -= h
            total += (omega_face((i, j), k, hi, h)
                      - omega_face((i, j), k, lo, h)) / (2 * h)
        return total

    center = (0.1, -0.2, 0.3)
    res_h = abs(d_omega(center, 2e-3))
    res_h2 = abs(d_omega(center, 1e-3))
    assert res_h < 1e-4
    assert res_h2 < 0.3 * res_h  # roughly second-order decay


def test_euclidean_equivariance():
    rng = np.random.default_rng(23)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = 0.7
    K = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    rot = np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)
    shift = np.array([0.3, -1.1, 0.6])

    base_surface = sg.surface_by_name("ellipsoid", a=2.0, b=1.5, c=1.0)

    def moved_map(s, t):
        x, y, z = base_surface.chart_map(s, t)
        vec = [x, y, z]
        out = []
        for i in range(3):
            out.append(rot[i, 0] * vec[0] + rot[i, 1] * vec[1]
                       + rot[i, 2] * vec[2] + shift[i])
        return tuple(out)

    moved = sg.SurfaceImmersion("moved", moved_map, base_surface.domain,
                                base_surface.periodic, orient=base_surface.orient,
                                topology="sphere")
    cm_a = ls.CongruenceMap(base_surface)
    cm_b = ls.CongruenceMap(moved)
    ss = np.linspace(0.4, 5.8, 6)
    tt = np.linspace(0.3, 2.8, 6)
    ua, va, dua, dva = cm_a.eval(ss, tt)
    ub, vb, dub, dvb = cm_b.eval(ss, tt)
    # the congruence transforms by u -> Ru, V -> RV + w - (w.Ru)Ru
    ru = ua @ rot.T
    rv = va @ rot.T + shift[None, :] - (ru @ shift)[:, None] * ru
    assert np.max(np.abs(ub - ru)) < 1e-10
    assert np.max(np.abs(vb - rv)) < 1e-10
    # omega and G agree on corresponding tangent pairs
    for m in range(len(ss)):
        om_a = ls.omega_pair(dua[m, 0], dva[m, 0], dua[m, 1], dva[m, 1])
        om_b = ls.omega_pair(dub[m, 0], dvb[m, 0], dub[m, 1], dvb[m, 1])
        assert om_b == pytest.approx(om_a, abs=1e-10)
        g_a = ls.metric_pair(ua[m], va[m], dua[m, 0], dva[m, 0], dua[m, 1], dva[m, 1])
        g_b = ls.metric_pair(ub[m], vb[m], dub[m, 0], dvb[m, 0], dub[m, 1], dvb[m, 1])
        assert g_b == pytest.approx(g_a, abs=1e-10)


def _hemisphere_patch(surface, center, grid=(64, 40), t_hi=1.0):
    cmap = ls.CongruenceMap(surface)
    s_axis = np.linspace(0, 2 * np.pi, grid[0], endpoint=False)
    t_axis = np.linspace(0.05, t_hi, grid[1])
    sm, tm = np.meshgrid(s_axis, t_axis, indexing="ij")
    u, V, du, dV = cmap.eval(sm, tm)
    return ls.LineSection(s_axis, t_axis, u, V, du, dV, cmap,
                          periodic=(True, False), center=center)


def test_twist_strength_zero_is_identity():
    patch = _hemisphere_patch(sg.surface_by_name("round-sphere", r=1.0), (0, 0, 1))
    tw = ls.holomorphic_twist(patch, 0.0, (0, 0, 1))
    assert np.allclose(tw.V, patch.V)
    assert np.allclose(tw.u, patch.u)


def test_twist_positivises_above_threshold():
    # prolate spheroid congruence over a polar cap: Lagrangian, umbilic-free
    spheroid = sg.surface_by_name("ellipsoid", a=1.0, b=1.0, c=1.4)
    patch = _hemisphere_patch(spheroid, (0, 0, 1), t_hi=0.9)
    margins = []
    for strength in (0.05, 0.2, 0.8, 2.0):
        tw = ls.holomorphic_twist(patch, strength, (0, 0, 1))
        gram = ls.section_gram(tw)
        lo = np.linalg.eigvalsh(gram)[..., 0]
        margins.append(float(np.min(lo)))
    assert margins[-1] > 0  # strong twist makes the patch definite
    assert margins == sorted(margins)  # margin grows with strength


def test_twist_does_not_create_or_destroy_complex_points():
    # annulus of the spheroid congruence away from its poles: defect-free
    spheroid = sg.surface_by_name("ellipsoid", a=1.0, b=1.0, c=1.4)
    cmap = ls.CongruenceMap(spheroid)
    s_axis = np.linspace(0, 2 * np.pi, 96, endpoint=False)
    t_axis = np.linspace(0.35, 1.1, 48)
    sm, tm = np.meshgrid(s_axis, t_axis, indexing="ij")
    u, V, du, dV = cmap.eval(sm, tm)
    patch = ls.LineSection(s_axis, t_axis, u, V, du, dV, cmap,
                           periodic=(True, False), center=(0, 0, 1))
    before = ls.section_defect(patch, normalize=False)
    tw = ls.holomorphic_twist(patch, 1.3, (0, 0, 1))
    after = ls.section_defect(tw, normalize=False)
    assert np.min(np.abs(ls.section_defect(patch))) > 1e-3  # umbilic-free annulus
    assert np.min(np.abs(ls.section_defect(tw))) > 1e-3     # still free after
    # the added field is holomorphic: the unnormalised defect is unchanged
    assert np.max(np.abs(after - before)) < 1e-10


def test_twist_keeps_complex_points_through_the_scan():
    # a patch of the ellipsoid congruence around (1, 0, 0) holding two of its
    # four complex points; the scan refines and winds them on the twisted source
    ell = sg.surface_by_name("ellipsoid", a=2.0, b=1.5, c=1.0)
    cmap = ls.CongruenceMap(ell)
    s_axis = np.linspace(-1.0, 1.0, 64)
    t_axis = np.linspace(0.3, np.pi - 0.3, 64)
    sm, tm = np.meshgrid(s_axis, t_axis, indexing="ij")
    patch = ls.LineSection(s_axis, t_axis, *cmap.eval(sm, tm), cmap, center=(1, 0, 0))
    before = ls.complex_point_scan(patch)
    assert [(r.isolated, r.winding) for r in before] == [(True, 1)] * 2
    for strength in (0.5, 2.0):
        tw = ls.holomorphic_twist(patch, strength, (1, 0, 0))
        for sampled, exact in zip((tw.u, tw.V, tw.du, tw.dV), tw.source.eval(sm, tm)):
            assert np.array_equal(sampled, exact)
        after = ls.complex_point_scan(tw)
        assert [(r.isolated, r.winding) for r in after] == [(True, 1)] * 2
        for a, b in zip(before, after):
            assert abs(a.s - b.s) < 1e-6 and abs(a.t - b.t) < 1e-6


def test_twist_requires_open_hemisphere():
    section = ls.normal_congruence(ELL, grid=(48, 36))  # full sphere of directions
    with pytest.raises(ChartDomainError):
        ls.holomorphic_twist(section, 1.0, (0, 0, 1))


def test_gauss_map_inversion():
    section = ls.normal_congruence(ELL, grid=(96, 72))
    cmap = section.source
    targets = np.array([[0.3, 0.4, 0.87], [-0.5, 0.1, 0.85], [0.0, -0.7, 0.7]])
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    ss, tt = ls.invert_gauss_map(cmap, targets, section)
    u, _, _, _ = cmap.eval(ss, tt)
    assert np.max(np.abs(u - targets)) < 1e-10
