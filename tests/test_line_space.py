"""The neutral pseudo-Kahler structure on oriented lines and its invariants."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from geomlab import chart_tensor as ct
from geomlab import jets
from geomlab import line_space as ls
from geomlab import neutral_flow as nf
from geomlab import surface_geom as sg
from geomlab import umbilic_topology as ut
from geomlab.errors import ChartDomainError, ConfigError, UnreliableLoopError
from geomlab.kernels import dot3

FLAT = ct.metric_by_name("flat-r3")
ELL = sg.surface_by_name("ellipsoid", a=2.0, b=1.5, c=1.0)


def _pairs(du, dV):
    """The first two tangents (du, dV)[:, a] of each row, as (du, dV) pairs."""
    return (du[:, 0], dV[:, 0]), (du[:, 1], dV[:, 1])


def _grid_defect(section):
    """psi over the whole section grid, joined from the row blocks of
    ``line_space._grid_psi``."""
    return np.concatenate([psi for _, psi in ls._grid_psi(section)])


def _gram(u, V, du, dV):
    """G(X_a, X_b) over the tangents X_a = (du, dV)[..., a, :] at (u, V)."""
    u, V = u[..., None, None, :], V[..., None, None, :]
    return ls.metric_pair(u, V, du[..., :, None, :], dV[..., :, None, :],
                          du[..., None, :, :], dV[..., None, :, :])


def _norms(*tangents):
    """The product of the norms |(du, dV)| of the tangents, per row."""
    return np.prod([np.sqrt(_dot(du, du) + _dot(dv, dv)) for du, dv in tangents], axis=0)


def test_random_tangents_equal_per_row_draws():
    def dot(a, b):
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]

    for n, k in ((1, 0), (7, 1), (200, 4)):
        rng = np.random.default_rng(n)
        want = [[], [], [], []]
        for _ in range(n):
            u = rng.normal(size=3)
            u /= np.sqrt(dot(u, u))
            w = rng.normal(size=3)
            V = w - dot(w, u) * u
            rows = []
            for _ in range(k):
                a = rng.normal(size=3)
                du = a - dot(a, u) * u
                w = rng.normal(size=3)
                rows.append((du, w - (dot(u, w) + dot(V, du)) * u))
            for out, value in zip(want, (u, V, [r[0] for r in rows], [r[1] for r in rows])):
                out.append(value)
        got = ls.random_tangents(np.random.default_rng(n), n, k)
        for g, w, shape in zip(got, want, ((n, 3), (n, 3), (n, k, 3), (n, k, 3))):
            assert g.shape == shape
            assert np.max(np.abs(g - np.reshape(w, shape)), initial=0.0) <= 4.5e-16


def test_j_squares_to_minus_identity_and_preserves_constraints():
    u, V, du, dV = ls.random_tangents(np.random.default_rng(10), 1000, 1)
    ju, jv = ls.apply_j(u, V, du[:, 0], dV[:, 0])
    # J X is tangent: u.du = 0 and u.dV + V.du = 0 relative to its size
    scale = 1.0 + np.max(np.abs(ju), axis=-1) + np.max(np.abs(jv), axis=-1)
    assert np.all(np.abs(_dot(u, ju)) <= 1e-12 * scale)
    assert np.all(np.abs(_dot(u, jv) + _dot(V, ju)) <= 1e-12 * scale)
    jju, jjv = ls.apply_j(u, V, ju, jv)
    assert np.max(np.abs(jju + du[:, 0])) < 1e-10
    assert np.max(np.abs(jjv + dV[:, 0])) < 1e-10


def test_omega_antisymmetric_and_j_invariant():
    u, V, du, dV = ls.random_tangents(np.random.default_rng(11), 300, 2)
    x, y = _pairs(du, dV)
    om = ls.omega_pair(*x, *y)
    assert np.max(np.abs(om + ls.omega_pair(*y, *x))) <= 1e-12
    jx, jy = ls.apply_j(u, V, *x), ls.apply_j(u, V, *y)
    assert np.max(np.abs(ls.omega_pair(*jx, *jy) - om)) <= 1e-10


def test_neutral_structures_returns_symmetric_metric():
    u, V, du, dV = ls.random_tangents(np.random.default_rng(12), 300, 2)
    x, y = _pairs(du, dV)
    g_xy, g_yx = ls.metric_pair(u, V, *x, *y), ls.metric_pair(u, V, *y, *x)
    assert np.max(np.abs(g_xy - g_yx)) <= 1e-12


def test_metric_signature_two_two():
    evals = np.linalg.eigvalsh(_gram(*ls.random_tangents(np.random.default_rng(13), 50, 4)))
    assert np.all(np.sum(evals > 0, axis=-1) == 2)
    assert np.all(np.sum(evals < 0, axis=-1) == 2)


def test_wirtinger_identity_on_random_planes():
    u, V, du, dV = ls.random_tangents(np.random.default_rng(14), 1000, 2)
    assert np.max(ls.wirtinger_residual(u, V, *_pairs(du, dV))) < 1e-9


def test_wirtinger_terms_vanish_on_totally_null_plane():
    sphere = sg.surface_by_name("round-sphere", r=1.3)
    u, V, du, dV = ls.CongruenceMap(sphere).eval(1.0, 1.2)
    x, y = _pairs(du, dV)
    assert np.max(np.abs(ls.omega_pair(*x, *y))) < 1e-10
    assert np.max(np.abs(_gram(u, V, du, dV))) < 1e-10
    assert np.max(ls.wirtinger_residual(u, V, x, y)) < 1e-10


def test_lagrangian_lorentz_plane_sign_relation():
    # for Lagrangian planes the volume term carries the whole identity:
    # det4 = -det Gram > 0 on a Lorentz plane
    u, V, du, dV = ls.CongruenceMap(ELL).eval(1.0, 1.2)
    x, y = _pairs(du, dV)
    assert abs(ls.omega_pair(*x, *y)[0]) <= 1e-8 * _norms(x, y)[0]
    g = _gram(u, V, du, dV)[0]
    gram_det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    det4 = ls._DET4_SIGN * ls._quad_form(x, y, ls.apply_j(u, V, *x), ls.apply_j(u, V, *y))[0]
    assert det4 > 0 and gram_det < 0
    assert det4 == pytest.approx(-gram_det, rel=1e-9)


def test_classify_x_jx_plane_definite_holomorphic():
    u, V, du, dV = ls.random_tangents(np.random.default_rng(15), 1, 100)
    # the first of the tangents with G(X, X) > 0.2
    k = np.flatnonzero(_gram(u, V, du, dV)[0].diagonal() > 0.2)[0]
    x = (du[:, k], dV[:, k])
    jx = ls.apply_j(u, V, *x)
    tol = 1e-8 * _norms(x, jx)[0]
    plane = (np.stack([x[0], jx[0]], axis=1), np.stack([x[1], jx[1]], axis=1))
    evals = np.linalg.eigvalsh(_gram(u, V, *plane))[0]
    assert evals[0] > tol
    assert abs(ls.omega_pair(*x, *jx)[0]) > tol
    # J-invariant: the defect in the chart centred at u vanishes
    assert abs(ls.defect_psi(ls.sphere_frame(u, u[0]), *plane)[0]) < 1e-12


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


@pytest.mark.parametrize("name", ["ellipsoid", "torus-revolution", "paraboloid"])
def test_congruence_samples_the_umbilic_scan_cells(name):
    # one grid for both sides of the mirror: s periodic (ellipsoid), both
    # axes periodic (torus) and neither (paraboloid)
    surface = sg.surface_by_name(name)
    grid = (24, 18)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the torus's Gauss map is not injective
        section = ls.normal_congruence(surface, grid=grid)
    ss, tt, _, _ = ut._cells(surface, grid)
    assert np.array_equal(section.s_axis, ss) and np.array_equal(section.t_axis, tt)
    assert section.domain == surface.domain


def test_torus_congruence_warns_not_graphical():
    torus = sg.surface_by_name("torus-revolution", R=2.0, r=1.0)
    with pytest.warns(UserWarning, match="not injective"):
        ls.normal_congruence(torus, grid=(48, 48))


def test_gauss_map_of_rank_below_two_is_refused():
    # a plane (rank 0) and a parabolic cylinder (rank 1): no section over directions
    for expr in ("x + 2*y", "x^2"):
        with pytest.raises(ConfigError, match="Gauss map"):
            ls.normal_congruence(sg.surface_by_name("graph", expr=expr), grid=(32, 32))


def test_normal_congruence_equals_the_flattened_eval_bit_for_bit():
    # the grid is written block by block into the section's planes, the
    # same numbers as one evaluation of every grid point
    section = ls.normal_congruence(ELL, grid=(256, 192))
    sm, tm = np.meshgrid(section.s_axis, section.t_axis, indexing="ij")
    flat = ls.CongruenceMap(ELL).eval(sm.ravel(), tm.ravel())
    for got, want in zip((section.u, section.V, section.du, section.dV), flat):
        assert np.array_equal(got, want.reshape(got.shape))
    # component-major planes, as the scans read them
    assert np.moveaxis(section.u, -1, 0).flags["C_CONTIGUOUS"]
    assert np.moveaxis(section.dV, (-2, -1), (0, 1)).flags["C_CONTIGUOUS"]


def test_normal_congruence_fields_are_views_of_one_buffer():
    # disjoint views, so np.shares_memory is False: they share the base
    section = ls.normal_congruence(ELL, grid=(256, 192))
    fields = (section.u, section.V, section.du, section.dV)
    buf = section.u.base
    assert buf.shape == (18, 256, 192) and all(f.base is buf for f in fields)
    planes = [np.moveaxis(section.u, -1, 0), np.moveaxis(section.V, -1, 0),
              np.moveaxis(section.du, (-2, -1), (0, 1)),
              np.moveaxis(section.dV, (-2, -1), (0, 1))]
    for field in planes:
        for plane in field.reshape((-1,) + field.shape[-2:]):
            assert plane.flags["C_CONTIGUOUS"]
    whole = ls.CongruenceMap(ELL).eval(section.s_axis[:, None], section.t_axis[None, :])
    for got, want in zip((section.u, section.V, section.du, section.dV), whole):
        assert np.array_equal(got, want)


def test_congruence_eval_writes_into_the_buffers_it_is_given():
    s, t = np.linspace(0.1, 6.0, 7)[:, None], np.linspace(0.2, 3.0, 5)[None, :]
    out = (np.empty((3, 7, 5)), np.empty((3, 7, 5)), np.empty((2, 3, 7, 5)),
           np.empty((2, 3, 7, 5)))
    cmap = ls.CongruenceMap(ELL)
    got = cmap.eval(s, t, out=out)
    for g, buf, fresh in zip(got, out, cmap.eval(s, t)):
        assert np.shares_memory(g, buf) and np.array_equal(g, fresh)


def test_normal_congruence_allocates_under_27_grid_planes():
    # the section's 18 planes are allocated once and written in place: 25.0
    # planes at the peak, 36.1 when each block was packaged into arrays of
    # its own and the blocks were then joined
    ls.normal_congruence(ELL, grid=(32, 24))
    tracemalloc.start()
    try:
        ls.normal_congruence(ELL, grid=(256, 192))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 27 * 256 * 192 * 8


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
    e1, e2 = _einsum_sphere_frame(u, center)
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


def test_defect_psi_matches_least_squares_decomposition():
    rng = np.random.default_rng(11)
    center = (0.0, 0.0, 1.0)
    u, V, du, dV = ls.random_tangents(rng, 300, 2)
    # the projection is linear: scaled draws give scaled tangents
    scale = rng.uniform(0.1, 3.0, size=(300, 2, 1))
    cap = u[:, 2] > -0.5
    u, V, du, dV = u[cap], V[cap], (scale * du)[cap], (scale * dV)[cap]
    psi = ls.defect_psi(ls.sphere_frame(u, center), du, dV)
    # psi reads each tangent rescaled to unit length
    (du1, dv1), (du2, dv2) = _pairs(du, dV)
    n1 = np.linalg.norm(np.concatenate([du1, dv1], axis=1), axis=1)[:, None]
    n2 = np.linalg.norm(np.concatenate([du2, dv2], axis=1), axis=1)[:, None]
    du1, dv1, du2, dv2 = du1 / n1, dv1 / n1, du2 / n2, dv2 / n2
    ref = _psi_least_squares(u, V, du1, dv1, du2, dv2, center)
    assert np.max(np.abs(psi - ref)) < 1e-10 * np.max(np.abs(ref))


def test_defect_psi_is_the_shared_helper_on_explicit_projections():
    # defect_psi projects on the frame, then hands the projections and the
    # tangent lengths to the helper the flow's boundary defect also calls
    u, _, du, dV = ls.random_tangents(np.random.default_rng(12), 300, 2)
    cap = u[:, 2] > -0.5
    u, du, dV = u[cap], du[cap], dV[cap]
    frame = ls.sphere_frame(u, (0.0, 0.0, 1.0))
    du1, du2, dv1, dv2 = ([v[:, k, i] for i in range(3)] for v in (du, dV) for k in range(2))
    parts = [dot3(v, e) for v in (du1, dv1, du2, dv2) for e in frame]
    norms = [np.sqrt(dot3(a, a) + dot3(b, b)) for a, b in ((du1, dv1), (du2, dv2))]
    assert np.array_equal(ls.defect_psi(frame, du, dV), ls._psi_from_parts(parts, norms))


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
        x, y, z = rec.point
        n = np.array([x / 4.0, y / 2.25, z])
        normals.append(n / np.linalg.norm(n))
    for cp in records:
        gaps = [np.arccos(np.clip(np.dot(cp.point, n), -1, 1)) for n in normals]
        assert min(gaps) < 1e-4
    assert all(r.winding == 1 and r.index == 0.5 for r in records)
    # both scans list their records in the same grid order
    for cp, rec in zip(records, umb):
        gap = ut._param_distance(ELL.domain, ELL.periodic, (cp.s, cp.t), (rec.s, rec.t))
        assert np.all(gap < 1e-12)


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
    # Newton refines every grid seed onto its zero, as in umbilic_scan
    ell = sg.surface_by_name("ellipsoid", a=axes[0], b=axes[1], c=axes[2])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = ls.complex_point_scan(ls.normal_congruence(ell, grid=grid))
        umb = ut.umbilic_scan(ell, FLAT, grid=grid)
    # no candidate is dropped or merged; a winding loop of 4 cells that
    # reaches a pole is refused by name, and its record keeps no winding
    unwound = [str(w.message) for w in caught]
    assert all("left without a winding" in m for m in unwound), unwound
    assert sum(cp.winding is None for cp in records) == len(unwound)
    assert len(records) == 4 == len(umb)
    for cp, rec in zip(records, umb):
        gap = ut._param_distance(ell.domain, ell.periodic, (cp.s, cp.t), (rec.s, rec.t))
        assert cp.isolated and np.all(gap < 1e-4) and cp.winding in (None, 1)


def _closed_form_umbilics(a, b, c):
    """(s, t) of the four umbilics of the ellipsoid (a > b > c)."""
    t0 = np.arccos(np.sqrt((b * b - c * c) / (a * a - c * c)))
    return [(s, t) for s in (0.0, np.pi) for t in (t0, np.pi - t0)]


@pytest.mark.parametrize("axes, grid", [((3.0, 2.0, 0.5), (16, 12)),
                                        ((2.0, 1.05, 1.0), (24, 18))])
def test_coarse_scans_find_every_zero_through_the_degree_seeds(axes, grid):
    # the grid minima once gave umbilic_scan none of the four umbilics of
    # (3, 2, 0.5) at 16x12, where Newton cannot reach them from the minima,
    # and both scans two of (2, 1.05, 1) at 24x18, whose pairs share one
    # minimum; each zero lies in a cell of its own round which the 2-vector
    # winds. Windings are not asserted: the loops of 4 cells are refused
    ell = sg.surface_by_name("ellipsoid", a=axes[0], b=axes[1], c=axes[2])
    umb = ut.umbilic_scan(ell, FLAT, grid=grid)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        points = ls.complex_point_scan(ls.normal_congruence(ell, grid=grid))
    assert all("left without a winding" in str(w.message) for w in caught)
    exact = _closed_form_umbilics(*axes)
    for found in (umb, points):
        assert len(found) == 4 and all(r.isolated for r in found)
        for rec in found:
            gaps = [np.max(ut._param_distance(ell.domain, ell.periodic, (rec.s, rec.t), p))
                    for p in exact]
            assert min(gaps) <= 1e-10, (axes, grid, rec)
        assert not any(getattr(r, "ambiguous", False) for r in found)


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
    psi = _grid_defect(section)
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
        mas, i_surf = ls.maslov_mirror(ELL, FLAT, section, loop_s, loop_t)
        assert mas["mu"] == 4 * i_surf == 2


def test_maslov_mirror_does_not_depend_on_the_loop_direction():
    # i is taken counterclockwise in the parameters, as mu is in the chart
    section = ls.normal_congruence(ELL, grid=(64, 48))
    rec = ls.complex_point_scan(section)[0]
    phi = np.linspace(0, 2 * np.pi, 2048, endpoint=False)
    loop_s, loop_t = rec.s + 0.15 * np.cos(phi), rec.t + 0.15 * np.sin(phi)
    forward = ls.maslov_mirror(ELL, FLAT, section, loop_s, loop_t)
    assert forward == ls.maslov_mirror(ELL, FLAT, section, loop_s[::-1], loop_t[::-1])
    assert (forward[0]["mu"], forward[1]) == (2, 0.5)


def test_maslov_mirror_refuses_an_unresolved_principal_winding():
    # a flat ellipse of 12 samples about one umbilic resolves the defect's
    # winding (mu = 2) but not the principal line field's; 2048 samples do
    section = ls.normal_congruence(ELL, grid=(64, 48))
    rec = ls.complex_point_scan(section)[0]
    for n, want in ((12, None), (2048, 0.5)):
        phi = np.linspace(0, 2 * np.pi, n, endpoint=False)
        loop_s, loop_t = rec.s + 0.9 * np.cos(phi), rec.t + 0.05 * np.sin(phi)
        assert ls.maslov_index(section.source, loop_s, loop_t, section.center)["mu"] == 2
        if want is None:
            with pytest.raises(UnreliableLoopError, match="principal line field"):
                ls.maslov_mirror(ELL, FLAT, section, loop_s, loop_t)
        else:
            assert ls.maslov_mirror(ELL, FLAT, section, loop_s, loop_t)[1] == want


def _random_cubic_section(rng):
    """A chart section over a random chart centre whose fiber is a random
    cubic polynomial in the chart coordinates (x, y)."""
    coeffs = rng.normal(size=(2, 10)) * 0.5

    def fiber(x, y):
        monomials = (1.0, x, y, x * x, x * y, y * y, x * x * x, x * x * y, x * y * y, y * y * y)
        return tuple(sum(c * m for c, m in zip(row, monomials)) for row in coeffs)
    return nf.ChartSection(fiber, nf.LineSpaceChart(rng.normal(size=3)))


def test_symplectic_area_stokes_on_random_discs():
    rng = np.random.default_rng(21)
    for _ in range(5):
        two_form, boundary = ls.symplectic_area(_random_cubic_section(rng),
                                                ((-0.5, 0.5), (-0.5, 0.5)))
        assert abs(two_form - boundary) < 1e-8


def test_symplectic_area_vanishes_inside_lagrangian_section():
    two_form, _ = ls.symplectic_area(ls.CongruenceMap(ELL), ((0.5, 1.5), (1.1, 1.9)))
    assert abs(two_form) < 1e-8


def test_symplectic_area_zero_section():
    cmap = ls.CongruenceMap(sg.surface_by_name("round-sphere", r=1.0))
    two_form, boundary = ls.symplectic_area(cmap, ((0.5, 1.5), (1.1, 1.9)))
    assert abs(two_form) < 1e-12 and abs(boundary) < 1e-12


def test_symplectic_area_of_a_twisted_congruence_obeys_stokes():
    """The twist gives a normal congruence symplectic area; its two
    returns still agree."""
    cmap = ls.CongruenceMap(sg.surface_by_name("round-sphere", r=1.0))
    two_form, boundary = ls.symplectic_area(ls.TwistedSection(cmap, 1.0, (0, 0, 1)),
                                            ((0.5, 1.5), (1.1, 1.9)))
    assert abs(two_form) > 0.05 and abs(two_form - boundary) < 1e-12


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
    # one period of s, and t half a cell past its end samples
    dt = t_axis[1] - t_axis[0]
    domain = ((0.0, 2 * np.pi), (0.05 - 0.5 * dt, t_hi + 0.5 * dt))
    return ls.LineSection(s_axis, t_axis, u, V, du, dV, cmap, domain,
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
        gram = _gram(tw.u, tw.V, tw.du, tw.dV)
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
    dt = t_axis[1] - t_axis[0]
    domain = ((0.0, 2 * np.pi), (0.35 - 0.5 * dt, 1.1 + 0.5 * dt))
    patch = ls.LineSection(s_axis, t_axis, u, V, du, dV, cmap, domain,
                           periodic=(True, False), center=(0, 0, 1))
    tw = ls.holomorphic_twist(patch, 1.3, (0, 0, 1))
    before, after = (_einsum_defect(sec.u, sec.V, sec.du[..., 0, :], sec.dV[..., 0, :],
                                    sec.du[..., 1, :], sec.dV[..., 1, :], sec.center,
                                    normalize=False) for sec in (patch, tw))
    assert np.min(np.abs(_grid_defect(patch))) > 1e-3  # umbilic-free annulus
    assert np.min(np.abs(_grid_defect(tw))) > 1e-3     # still free after
    # the added field is holomorphic: the unnormalised defect is unchanged
    assert np.max(np.abs(after - before)) < 1e-10


def _ellipsoid_cap(grid=(64, 64)):
    """The patch of the ELL congruence around (1, 0, 0) that holds two of
    its four complex points, and its sample meshes."""
    cmap = ls.CongruenceMap(ELL)
    s_axis = np.linspace(-1.0, 1.0, grid[0])
    t_axis = np.linspace(0.3, np.pi - 0.3, grid[1])
    sm, tm = np.meshgrid(s_axis, t_axis, indexing="ij")
    # the rectangle of cells centred on the samples
    ds, dt = s_axis[1] - s_axis[0], t_axis[1] - t_axis[0]
    domain = ((-1.0 - 0.5 * ds, 1.0 + 0.5 * ds), (0.3 - 0.5 * dt, np.pi - 0.3 + 0.5 * dt))
    return ls.LineSection(s_axis, t_axis, *cmap.eval(sm, tm), cmap, domain,
                          center=(1, 0, 0)), sm, tm


def test_twist_keeps_complex_points_through_the_scan():
    # the scan refines and winds the cap's two complex points on the twisted source
    patch, sm, tm = _ellipsoid_cap()
    before = ls.complex_point_scan(patch)
    assert [(r.isolated, r.winding) for r in before] == [(True, 1)] * 2
    for strength in (0.5, 2.0):
        tw = ls.holomorphic_twist(patch, strength, (1, 0, 0))
        for sampled, exact in zip((tw.u, tw.V, tw.du, tw.dV), tw.source.eval(sm, tm)):
            assert np.array_equal(sampled, exact)
        after = ls.complex_point_scan(tw)
        assert [(r.isolated, r.winding) for r in after] == [(True, 1)] * 2
        for a, b in zip(before, after):
            assert abs(a.s - b.s) < 1e-12 and abs(a.t - b.t) < 1e-12


def test_twist_requires_open_hemisphere():
    section = ls.normal_congruence(ELL, grid=(48, 36))  # full sphere of directions
    with pytest.raises(ChartDomainError):
        ls.holomorphic_twist(section, 1.0, (0, 0, 1))


def test_gauss_map_inversion():
    section = ls.normal_congruence(ELL, grid=(96, 72))
    cmap = section.source
    targets = np.array([[0.3, 0.4, 0.87], [-0.5, 0.1, 0.85], [0.0, -0.7, 0.7]])
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    ss, tt = ls.invert_gauss_map(targets, section)
    u, _, _, _ = cmap.eval(ss, tt)
    assert np.max(np.abs(u - targets)) < 1e-10


@pytest.mark.parametrize("direction", [
    (0.287, 0.0, -0.958),   # the lower hemisphere: no normal of the paraboloid
    (0.995, 0.0, 0.0995),   # the normal at x = -10, off the [-1, 1] patch
])
def test_gauss_map_inversion_refuses_a_direction_without_preimage(direction):
    section = ls.normal_congruence(sg.surface_by_name("paraboloid"), grid=(32, 32))
    covered = [0.3, 0.1, 0.9]
    assert np.all(np.abs(ls.invert_gauss_map([covered], section)) < 1.0)
    with pytest.raises(UnreliableLoopError, match="row 1"):
        ls.invert_gauss_map([covered, direction], section)


def _invert_rows_one_by_one(directions, section):
    """invert_gauss_map row by row: each row's Newton iteration on its own,
    one single-point eval per step, stopping at the first refusal."""
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    directions = directions / np.linalg.norm(directions, axis=1, keepdims=True)
    grid_u = ls._components(section.u)
    sm, tm = np.meshgrid(section.s_axis, section.t_axis, indexing="ij")
    out = np.empty((2, len(directions)))
    for m, target in enumerate(directions):
        seed = int(np.argmax(ls.dot3(grid_u, target)))
        s_c, t_c = float(sm.ravel()[seed]), float(tm.ravel()[seed])
        _, p, q = ls._complement_basis(tuple(target))
        for k in range(ls._INVERT_ITERS + 1):
            u, _, du, _ = section.source.eval(s_c, t_c)
            r_p, r_q = np.dot(p, u[0] - target), np.dot(q, u[0] - target)
            if max(abs(r_p), abs(r_q)) < ls._INVERT_TOL:
                break
            if k == ls._INVERT_ITERS:
                raise UnreliableLoopError(
                    f"Gauss-map inversion of row {m} did not converge: residual "
                    f"{max(abs(r_p), abs(r_q)):.3e} after {ls._INVERT_ITERS} steps")
            (a, b), (c, d) = ((np.dot(e, du[0, 0]), np.dot(e, du[0, 1])) for e in (p, q))
            det = a * d - b * c
            if not abs(det) > 0.0:
                raise UnreliableLoopError(
                    f"Gauss-map inversion of row {m} hit a singular Jacobian")
            s_c -= (d * r_p - b * r_q) / det
            t_c -= (a * r_q - c * r_p) / det
            for name, value, (lo, hi), per in zip("st", (s_c, t_c), section.domain,
                                                  section.periodic):
                if not (per or lo <= value <= hi):
                    raise UnreliableLoopError(
                        f"Gauss-map inversion of row {m} left the sampled rectangle: "
                        f"{name} = {value:.6g} outside [{lo:.6g}, {hi:.6g}]")
        out[:, m] = s_c, t_c
    return out


def _umbilic_normal_circle(n, radius=0.1):
    """n directions on a circle of angular radius ``radius`` about the
    normal of one umbilic of ELL."""
    normal = np.array([2.0 * np.sqrt(1.75 / 3.0) / 4.0, 0.0, np.sqrt(1.25 / 3.0)])
    normal /= np.linalg.norm(normal)
    e1 = np.cross(normal, [0.0, 1.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(normal, e1)
    phi = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)[:, None]
    return np.cos(radius) * normal + np.sin(radius) * (np.cos(phi) * e1 + np.sin(phi) * e2)


@pytest.mark.parametrize("grid, block", [((64, 48), 1 << 18), ((256, 192), 1 << 18),
                                         ((64, 48), 1000)])
def test_batched_gauss_map_inversion_matches_the_row_oracle(monkeypatch, grid, block):
    # one Newton iteration for every row at once, seeds searched in row
    # blocks (one sample row per block at 1000 products) against the
    # per-row solve
    monkeypatch.setattr(ls, "_INVERT_BLOCK", block)
    section = ls.normal_congruence(ELL, grid=grid)
    loop = _umbilic_normal_circle(256)
    got = np.stack(ls.invert_gauss_map(loop, section))
    want = _invert_rows_one_by_one(loop, section)
    assert np.max(np.abs(got - want)) <= 1e-14
    u, _, _, _ = section.source.eval(*got)
    assert np.max(np.abs(u - loop)) < 1e-11


@pytest.mark.parametrize("grid", [(16, 12), (64, 48), (256, 192)])
def test_seed_search_finds_the_nearest_sample_of_the_whole_grid(grid):
    # the coarse subgrid, then a window of the full grid about its nearest
    # sample, across the periodic s seam and up to the t edges
    section = ls.normal_congruence(ELL, grid=grid)
    rng = np.random.default_rng(29)
    directions = np.concatenate([_umbilic_normal_circle(256), rng.normal(size=(1000, 3))])
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    whole = np.argmax(ls.dot3([c.ravel()[None, :] for c in ls._components(section.u)],
                              [c[:, None] for c in directions.T]), axis=1)
    assert np.array_equal(ls._nearest_samples(directions, section), whole)


def _refusal(fn, *args):
    with pytest.raises(UnreliableLoopError) as err:
        fn(*args)
    return str(err.value)


class _FlatWhereNegative:
    """A congruence source whose parameter tangents vanish where s < -0.5,
    so a Newton step there meets a singular Jacobian."""

    def __init__(self, source):
        self.source = source

    def eval(self, s, t):
        u, V, du, dV = self.source.eval(s, t)
        return u, V, np.where((np.asarray(s) < -0.5)[..., None, None], 0.0, du), dV


@pytest.mark.parametrize("iters", [15, 2])
def test_batched_gauss_map_inversion_names_the_lowest_failing_row(monkeypatch, iters):
    # the paraboloid's lower hemisphere has no preimage, the normal at
    # x = -10 leaves the patch, and a flattened source or a short step cap
    # refuses rows for their Jacobian or their residual; whichever row fails
    # first in the batch, the refusal names the lowest failing row with the
    # per-row solve's reason
    monkeypatch.setattr(ls, "_INVERT_ITERS", iters)
    section = ls.normal_congruence(sg.surface_by_name("paraboloid"), grid=(32, 32))
    flattened = replace(section, source=_FlatWhereNegative(section.source))
    covered, below, off_patch = [0.3, 0.1, 0.9], [0.287, 0.0, -0.958], [0.995, 0.0, 0.0995]
    reasons = set()
    for sec in (section, flattened):
        for rows in ([covered, below, off_patch], [covered, off_patch, below],
                     [off_patch, covered, below], [covered, covered, below, off_patch]):
            message = _refusal(ls.invert_gauss_map, rows, sec)
            assert message == _refusal(_invert_rows_one_by_one, rows, sec)
            reasons.add(message.split(" ", 5)[-1].split(":")[0])
    assert {"left the sampled rectangle", "hit a singular Jacobian"} <= reasons
    assert ("did not converge" in reasons) == (iters == 2)


# -- the written-out congruence and defect against np.cross / einsum oracles --

def _dot(a, b):
    return np.einsum("...i,...i->...", a, b)


def _cross_congruence(surface, s, t):
    """``CongruenceMap.eval`` with np.cross and einsum over point-major arrays."""
    p, d1, d2 = (np.ascontiguousarray(a) for a in
                 jets.derivatives(surface.chart_map, [s, t], order=2))
    orient = surface.orient
    xs, xt = d1[..., 0, :], d1[..., 1, :]
    raw = orient * np.cross(xs, xt)
    draw = orient * (np.cross(d2[..., 0, :], xt[..., None, :])
                     + np.cross(xs[..., None, :], d2[..., 1, :]))
    norm = np.sqrt(_dot(raw, raw))[..., None]
    u = raw / norm
    du = (draw - _dot(u[..., None, :], draw)[..., None] * u[..., None, :]) / norm[..., None]
    pu = _dot(p, u)[..., None]
    V = p - pu * u
    dpu = _dot(d1, u[..., None, :]) + _dot(p[..., None, :], du)
    dV = d1 - dpu[..., None] * u[..., None, :] - pu[..., None] * du
    return u, V, du, dV


def _cross_apply_j(u, V, du, dV):
    du2 = np.cross(u, du)
    perp = dV - _dot(u, dV)[..., None] * u
    c = -_dot(V, du2)
    return du2, np.cross(u, perp) + c[..., None] * u


def _einsum_sphere_frame(u, center):
    c, p, q = ls._complement_basis(tuple(center))
    denom = 1.0 + np.einsum("...i,i->...", u, c)
    x = np.einsum("...i,i->...", u, p) / denom
    e1 = p - x[..., None] * (c + u)
    e1 = e1 / np.linalg.norm(e1, axis=-1, keepdims=True)
    return e1, np.cross(u, e1)


def _einsum_defect(u, V, du1, dv1, du2, dv2, center, normalize=True):
    """``defect_psi`` with einsum, np.cross and complex arithmetic."""
    if normalize:
        n1 = np.sqrt(_dot(du1, du1) + _dot(dv1, dv1))[..., None]
        n2 = np.sqrt(_dot(du2, du2) + _dot(dv2, dv2))[..., None]
        du1, dv1 = du1 / n1, dv1 / n1
        du2, dv2 = du2 / n2, dv2 / n2
    e1, e2 = _einsum_sphere_frame(u, center)

    def frame(v):
        return _dot(v, e1) + 1j * _dot(v, e2)

    z1, z2, w1, w2 = frame(du1), frame(du2), frame(dv1), frame(dv2)
    c = np.conj(z1) * z2
    a = -c.real / c.imag
    b = (z1.real ** 2 + z1.imag ** 2) / c.imag
    return 1j * w1 - a * w1 - b * w2


def _assert_relative(got, want, what, rel=1e-13):
    assert np.shape(got) == np.shape(want), what
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want)), what


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_written_out_congruence_and_defect_equal_their_oracles(seed):
    rng = np.random.default_rng(seed)
    # a convex graph: a Gauss map that folds makes psi ill-conditioned
    coef = [float(c) for c in rng.uniform(-0.1, 0.1, 3)]
    surfaces = [sg.surface_by_name("ellipsoid", a=rng.uniform(1.6, 2.4),
                                   b=rng.uniform(1.2, 1.55), c=rng.uniform(0.7, 1.1)),
                sg.surface_by_name("torus-revolution", R=rng.uniform(1.8, 2.6),
                                   r=rng.uniform(0.5, 1.2)),
                sg.surface_by_name("graph", expr=f"x^2 + y^2/2 + {coef[0]!r}*x^3 "
                                                 f"+ {coef[1]!r}*x*y^3 + {coef[2]!r}*sin(2*y)")]
    for surface in surfaces:
        (s0, s1), (t0, t1) = surface.domain
        pad = 0.05 * (t1 - t0)
        s = rng.uniform(s0, s1, (30, 20))
        t = rng.uniform(t0 + pad, t1 - pad, (30, 20))
        got = ls.CongruenceMap(surface).eval(s, t)
        ref = _cross_congruence(surface, s.ravel(), t.ravel())
        for name, a, b in zip(("u", "V", "du", "dV"), got, ref):
            _assert_relative(a, b.reshape(a.shape), (surface.name, name))
        # evaluation in blocks of whole s-rows (ten of three rows) concatenates
        # the same rows
        blocks = []

        def recording_eval(s_block, t_block, cmap=ls.CongruenceMap(surface)):
            blocks.append(s_block.shape)
            return cmap.eval(s_block, t_block)
        chunked = ut._grid_eval(recording_eval, s, t, block=64)
        assert blocks == [(3, 20)] * 10
        for a, b in zip(got, chunked):
            assert np.array_equal(a, b)
        # and keeps them component-major
        assert np.moveaxis(chunked[0], -1, 0).flags["C_CONTIGUOUS"]
        assert np.moveaxis(chunked[2], (-2, -1), (0, 1)).flags["C_CONTIGUOUS"]
        u, V, du, dV = got
        _assert_relative(np.stack(ls.apply_j(u, V, du[..., 0, :], dV[..., 0, :])),
                         np.stack(_cross_apply_j(u, V, du[..., 0, :], dV[..., 0, :])),
                         (surface.name, "apply_j"))
        # the defect in the chart of a random center, on the samples of the
        # cap u.center > -1/2, well inside the frame's domain
        center = rng.normal(size=3)
        center /= np.linalg.norm(center)
        cap = _dot(u, center) > -0.5
        args = (u[cap], V[cap], du[cap][:, 0], dV[cap][:, 0], du[cap][:, 1], dV[cap][:, 1])
        _assert_relative(ls.defect_psi(ls.sphere_frame(u[cap], center), du[cap], dV[cap]),
                         _einsum_defect(*args, tuple(center)), (surface.name, "defect_psi"))
        for got_e, want_e in zip(ls.sphere_frame(u[cap], center),
                                 _einsum_sphere_frame(u[cap], center)):
            got_e = np.stack(got_e, axis=-1)
            _assert_relative(got_e, want_e, (surface.name, "sphere_frame"))


def test_section_defect_equals_the_einsum_oracle():
    section = ls.normal_congruence(ELL, grid=(64, 48))
    du, dV = section.du, section.dV
    want = _einsum_defect(section.u, section.V, du[..., 0, :], dV[..., 0, :],
                          du[..., 1, :], dV[..., 1, :], section.center)
    _assert_relative(_grid_defect(section), want, "_grid_psi")


def test_coarse_complex_windings_are_refused_not_wrong():
    # at 16x12 the winding loop of 4 cells reaches the poles: the windings
    # were 0 here, silently; they are now left unset, with the cause
    with pytest.warns(UserWarning, match="leaves the sampled parameter rectangle"):
        records = ls.complex_point_scan(ls.normal_congruence(ELL, grid=(16, 12)))
    assert len(records) == 4
    assert all(r.isolated and r.winding is None and r.index is None for r in records)
    # at 64x48 the index loop of 4 cells about an umbilic of this
    # near-spheroid winds it alone, without its neighbour 0.37 away in t
    ell = sg.surface_by_name("ellipsoid", a=2.0, b=1.05, c=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = ls.complex_point_scan(ls.normal_congruence(ell, grid=(64, 48)))
    assert [(r.isolated, r.winding) for r in records] == [(True, 1)] * 4


def test_winding_loop_enclosing_another_complex_point_is_refused():
    # at 32x24 the winding loop of 4 cells about each complex point of this
    # near-spheroid also holds its neighbour 0.37 away in t: it winds 2, its
    # inner check loop 1, and the record keeps no winding
    ell = sg.surface_by_name("ellipsoid", a=2.0, b=1.05, c=1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = ls.complex_point_scan(ls.normal_congruence(ell, grid=(32, 24)))
    assert len(caught) == 4
    assert all("encloses another complex point" in str(w.message) for w in caught)
    assert [(r.isolated, r.winding, r.index) for r in records] == [(True, None, None)] * 4


# the table of the shared index loop, kept at its 21 cases; (3, 2, 0.5) at
# 16x12, where umbilic_scan once found none of the four umbilics, is
# test_coarse_scans_find_every_zero_through_the_degree_seeds
AGREEMENT_CASES = [(axes, grid)
                   for axes in [(2.0, 1.05, 1.0), (2.0, 1.5, 1.0), (3.0, 2.0, 0.5)]
                   for grid in [(16, 12), (24, 18), (32, 24), (48, 36), (64, 48),
                                (80, 60), (128, 96)]
                   if (axes, grid) != ((3.0, 2.0, 0.5), (16, 12))]


@pytest.mark.parametrize("axes, grid", AGREEMENT_CASES,
                         ids=["{}x{}x{}-{}x{}".format(*axes, *grid)
                              for axes, grid in AGREEMENT_CASES])
def test_audit_and_complex_scan_agree_on_their_index_loops(axes, grid):
    # both sides wind the same loop about the same zeros: the audit resolves
    # index 1/2 wherever the complex scan resolves winding 1, and refuses
    # with the fault the complex scan warns of everywhere else; where the
    # grid is too coarse to separate two zeros, both scans say they merged
    ell = sg.surface_by_name("ellipsoid", a=axes[0], b=axes[1], c=axes[2])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        points = ls.complex_point_scan(ls.normal_congruence(ell, grid=grid))
    merged = [str(w.message) for w in caught if "records merged" in str(w.message)]
    faults = {str(w.message).split(": ", 1)[1] for w in caught
              if "records merged" not in str(w.message)}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            audit = ut.conjecture_audit(ell, FLAT, grid=grid)
        except UnreliableLoopError as refusal:
            assert faults == {str(refusal).replace("umbilic", "complex point")}
            assert any(p.winding is None for p in points)
            audit = None
    assert merged == [str(w.message).replace("umbilic", "complex-point") for w in caught]
    if audit is None:
        return
    assert not faults
    assert [r.index for r in audit["records"]] == [p.winding / 2 for p in points] == [0.5] * 4
    assert audit["index_sum"] == 2.0


@pytest.mark.parametrize("fault", ["touches a near-zero region", "winding is not resolved"])
def test_refused_winding_loops_leave_complex_points_unwound(monkeypatch, fault):
    loop_indices = ut._loop_indices

    def distorted(field, centers, radii, domain, periodic, zero_values, period, kind):
        if fault == "touches a near-zero region":
            # as if the scan had stopped at |psi| = 1, above a tenth of it on the loops
            zero_values = [1.0] * len(zero_values)
        else:
            # synthetic defect angles turning 0.4 of a turn per sample of each loop
            defect = field

            def field(s, t):
                turns = np.mod(0.8 * np.pi * np.arange(s.shape[-1]), 2 * np.pi)
                return defect(s, t)[0], np.broadcast_to(turns, s.shape)
        return loop_indices(field, centers, radii, domain, periodic, zero_values, period, kind)

    section = ls.normal_congruence(ELL, grid=(64, 48))
    monkeypatch.setattr(ls, "_loop_indices", distorted)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = ls.complex_point_scan(section)
    assert len(caught) == 4 and all(fault in str(w.message) for w in caught)
    assert [(r.isolated, r.winding, r.index) for r in records] == [(True, None, None)] * 4


class _CountingSource:
    """A section source that records the shape of every ``eval`` call."""

    def __init__(self, source):
        self.source, self.shapes = source, []

    def eval(self, s, t):
        self.shapes.append(np.broadcast_shapes(np.shape(s), np.shape(t)))
        return self.source.eval(s, t)


def test_complex_point_scan_winds_every_loop_in_one_eval(monkeypatch):
    section = ls.normal_congruence(ELL, grid=(64, 48))
    counting = _CountingSource(section.source)
    records = ls.complex_point_scan(replace(section, source=counting))
    assert [(r.isolated, r.winding) for r in records] == [(True, 1)] * 4
    # one row of 1024 + 64 samples per loop, all four loops in one call
    assert [shape for shape in counting.shapes if shape[-1] >= 1024] == [(4, 1088)]

    # the same records, bit for bit, with each loop wound in a call of its own
    loop_indices = ut._loop_indices

    def one_by_one(field, centers, radii, domain, periodic, zero_values, period, kind):
        return [loop_indices(field, [c], radii, domain, periodic, [z], period, kind)[0]
                for c, z in zip(centers, zero_values)]
    monkeypatch.setattr(ls, "_loop_indices", one_by_one)
    assert ls.complex_point_scan(section) == records


def test_maslov_refuses_a_loop_through_a_complex_point():
    section = ls.normal_congruence(ELL, grid=(64, 48))
    rec = ls.complex_point_scan(section)[0]
    phi = np.linspace(0, 2 * np.pi, 1024, endpoint=False)
    with pytest.raises(UnreliableLoopError, match="loop passes too close to a complex point"):
        ls.maslov_index(section.source, rec.s - 0.15 + 0.15 * np.cos(phi),
                        rec.t + 0.15 * np.sin(phi), section.center)


def test_maslov_refuses_an_unresolved_loop():
    section = ls.normal_congruence(ELL, grid=(64, 48))
    rec = ls.complex_point_scan(section)[0]
    # four samples wind once about the point, every other sample not at all
    quarter = np.linspace(0, 2 * np.pi, 4, endpoint=False)
    with pytest.raises(UnreliableLoopError, match="winding is not resolved"):
        ls.maslov_index(section.source, rec.s + 0.15 * np.cos(quarter),
                        rec.t + 0.15 * np.sin(quarter), section.center)


@pytest.mark.parametrize("grid", [(64, 48), (128, 96)])
@pytest.mark.parametrize("axes", [(2.0, 1.5, 1.0), (2.13, 1.41, 0.93), (1.87, 1.62, 1.04)])
@pytest.mark.parametrize("turns", [1, -1])
def test_records_do_not_depend_on_a_periodic_shift(axes, grid, turns):
    ell = sg.surface_by_name("ellipsoid", a=axes[0], b=axes[1], c=axes[2])
    shift = turns * 2 * np.pi
    moved = replace(ell, domain=((shift, shift + 2 * np.pi), ell.domain[1]))
    umb, cps = [], []
    for surface in (ell, moved):
        radii = ut._LOOP_CELLS * np.array(ut._cells(surface, grid)[2:])
        umb.append(ut.attach_indices(surface, FLAT, ut.umbilic_scan(surface, FLAT, grid=grid),
                                     radii))
        cps.append(ls.complex_point_scan(ls.normal_congruence(surface, grid=grid)))

    def gaps(a, b):
        ds = np.abs(np.array([r.s for r in a]) - [r.s for r in b]) % (2 * np.pi)
        return np.maximum(np.minimum(ds, 2 * np.pi - ds),
                          np.abs(np.array([r.t for r in a]) - [r.t for r in b]))

    assert [(r.isolated, r.winding) for r in umb[0]] == [(r.isolated, r.winding)
                                                         for r in umb[1]]
    assert [(r.isolated, r.winding) for r in cps[0]] == [(r.isolated, r.winding)
                                                       for r in cps[1]]
    assert len(umb[0]) == len(cps[0]) == 4
    assert np.all(gaps(*cps) <= 1e-12)
    assert np.all(gaps(*umb) <= 1e-12)


def test_congruence_on_axes_equals_the_flattened_grid():
    surfaces = [sg.surface_by_name(name) for name in
                ("ellipsoid", "ellipsoid-offset", "round-sphere", "torus-revolution",
                 "paraboloid", "saddle", "plane")]
    surfaces.append(sg.surface_by_name("graph", expr="x^2 + y^2/2 + 0.2*sin(2*y)"))
    for surface in surfaces:
        (s0, s1), (t0, t1) = surface.domain
        ss = s0 + (s1 - s0) * (np.arange(20) + 0.5) / 20
        tt = t0 + (t1 - t0) * (np.arange(14) + 0.5) / 14
        sm, tm = np.meshgrid(ss, tt, indexing="ij")
        cmap = ls.CongruenceMap(surface)
        for got, want in zip(cmap.eval(ss[:, None], tt[None, :]),
                             cmap.eval(sm.ravel(), tm.ravel())):
            assert got.shape == sm.shape + want.shape[1:]
            assert np.array_equal(got.reshape(want.shape), want), surface.name


# -- the blocked grid pass of the defect --------------------------------------

def _whole_grid_defect(section):
    """psi over the whole section grid in one pass, written out as
    ``defect_psi`` was before the grid was cut into row blocks: the
    bit-for-bit oracle of ``_grid_psi``."""
    du, dV = section.du, section.dV
    e1, e2 = ls.sphere_frame(section.u, section.center)
    du1, dv1, du2, dv2 = (ls._components(v) for v in (du[..., 0, :], dV[..., 0, :],
                                                      du[..., 1, :], dV[..., 1, :]))
    (x1, y1), (x2, y2), (p1, q1), (p2, q2) = (
        (dot3(v, e1), dot3(v, e2)) for v in (du1, du2, dv1, dv2))
    n1 = np.sqrt(dot3(du1, du1) + dot3(dv1, dv1))
    n2 = np.sqrt(dot3(du2, du2) + dot3(dv2, dv2))
    x1, y1, p1, q1 = x1 / n1, y1 / n1, p1 / n1, q1 / n1
    x2, y2, p2, q2 = x2 / n2, y2 / n2, p2 / n2, q2 / n2
    c_re = x1 * x2 + y1 * y2
    c_im = x1 * y2 - y1 * x2
    a = -c_re / c_im
    b = (x1 ** 2 + y1 ** 2) / c_im
    psi = np.empty(np.shape(a), dtype=complex)
    psi.real = -q1 - a * p1 - b * p2
    psi.imag = p1 - a * q1 - b * q2
    return psi


@pytest.mark.parametrize("case", ["256x192", "64x48", "97x31", "twist"])
def test_blocked_grid_values_equal_the_whole_grid_defect_bit_for_bit(monkeypatch, case):
    if case == "twist":
        section = ls.holomorphic_twist(_ellipsoid_cap((97, 31))[0], 0.5, (1, 0, 0))
    else:
        section = ls.normal_congruence(ELL, grid=tuple(map(int, case.split("x"))))
    # 256x192 is six blocks of 42 rows and one of 4, 64x48 and the cap are
    # one block each, and 97x31 is cut into blocks of 32 rows, so that its
    # last block is one row
    size = 1000 if case == "97x31" else sg._GRID_CHUNK
    rows = []
    row_blocks = ls._row_blocks

    def recording_blocks(ns, nt):
        blocks = row_blocks(ns, nt, size)
        rows.append([len(range(ns)[b]) for b in blocks])
        return blocks
    monkeypatch.setattr(ls, "_row_blocks", recording_blocks)
    seen = {}
    scan_zeros = ls._scan_zeros

    def recording_scan(values, field, axes, step, domain, periodic, tol_sq, kind, vectors):
        seen.update(values=values, vectors=vectors, tol_sq=tol_sq)
        return scan_zeros(values, field, axes, step, domain, periodic, tol_sq, kind,
                          vectors=vectors)
    monkeypatch.setattr(ls, "_scan_zeros", recording_scan)
    ls.complex_point_scan(section)
    psi = _whole_grid_defect(section)
    mag = np.abs(psi)
    assert np.array_equal(seen["values"], mag ** 2)
    assert np.array_equal(seen["vectors"], np.stack([psi.real, psi.imag]))
    assert seen["tol_sq"] == max(1e-6 * float(np.max(mag)), 1e-10) ** 2
    assert np.array_equal(_grid_defect(section), psi)
    assert rows[0] == {"256x192": [42] * 6 + [4], "64x48": [64], "97x31": [32] * 3 + [1],
                       "twist": [97]}[case]


def _grid_planes_allocated(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / (256 * 192 * 8)
    finally:
        tracemalloc.stop()


def test_complex_point_scan_allocates_under_7_grid_planes():
    # the grid values go block by block into one (3, ns, nt) buffer, freed
    # once the zeros are found: 6.3 planes above the section at the peak,
    # 8.3 with the buffer kept through the index loops, 24.0 with psi over
    # the whole grid
    ls.complex_point_scan(ls.normal_congruence(ELL, grid=(32, 24)))
    section = ls.normal_congruence(ELL, grid=(256, 192))
    assert _grid_planes_allocated(ls.complex_point_scan, section) < 7


def test_a_non_finite_defect_is_named_not_swallowed():
    # one NaN sample would make the tolerance and every comparison NaN, and
    # the scan would return no records without a word
    section = ls.normal_congruence(ELL, grid=(256, 192))
    du = section.du.copy()
    du[100, 50, 0, 1] = np.nan
    where = rf"\(s, t\) = \({section.s_axis[100]:.6g}, {section.t_axis[50]:.6g}\)"
    with pytest.raises(ConfigError, match=where):
        ls.complex_point_scan(replace(section, du=du))
    with pytest.raises(ConfigError, match=where):
        _grid_defect(replace(section, du=du))
    assert len(ls.complex_point_scan(section)) == 4
    # the graph's flat point, where its Gauss map is singular, is the centre
    # of the middle cell of a 33x33 grid, so psi is 0/0 there
    flat_point = sg.surface_by_name("graph", expr="x^4 + y^4 + x*y^2")
    with pytest.warns(UserWarning, match="not injective"):
        section = ls.normal_congruence(flat_point, grid=(33, 33))
    with pytest.raises(ConfigError, match=r"\(s, t\) = \(0, 0\)"):
        ls.complex_point_scan(section)


def test_maslov_refuses_a_loop_through_a_degenerate_tangent_plane():
    flat_point = sg.surface_by_name("graph", expr="x^4 + y^4 + x*y^2")
    with pytest.warns(UserWarning, match="not injective"):
        section = ls.normal_congruence(flat_point, grid=(32, 32))
    phi = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    # the loop's first sample is the flat point (0, 0)
    with pytest.raises(UnreliableLoopError, match="defect is not finite on the loop"):
        ls.maslov_index(section.source, 0.3 * np.cos(phi) - 0.3, 0.3 * np.sin(phi),
                        section.center)
