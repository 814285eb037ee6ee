"""Fundamental forms, curvatures, areas and the Willmore integrand."""

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

from geomlab import chart_tensor as ct
from geomlab import jets, kernels, quadrature
from geomlab import surface_geom as sg
from geomlab.errors import ImmersionError, MetricParameterError

FLAT = ct.metric_by_name("flat-r3")
TWO_PI_SQ = 2 * np.pi ** 2


def test_clifford_first_form_matches_deformation():
    for eps in (0.0, 0.3, 0.6):
        metric = ct.metric_by_name("hopf-eps", eps=eps)
        rep = sg.fundamental_forms(sg.surface_by_name("clifford"), metric, 0.7, 1.9)
        assert np.allclose(rep.first, 0.5 * np.array([[1.0, eps], [eps, 1.0]]),
                           atol=1e-14)


def test_clifford_second_form_trace_free_sign_pattern():
    for eps in (0.0, 0.25, 0.8):
        metric = ct.metric_by_name("hopf-eps", eps=eps)
        rep = sg.fundamental_forms(sg.surface_by_name("clifford"), metric, 2.0, 0.3)
        assert abs(rep.second[0, 1]) < 1e-14
        c = rep.second[0, 0]
        assert c > 0 and rep.second[1, 1] == pytest.approx(-c, abs=1e-14)
        # trace-free against the induced metric
        assert rep.h_mean == pytest.approx(0.0, abs=1e-13)


def test_clifford_normal_points_along_increasing_rho():
    metric = ct.metric_by_name("hopf-eps", eps=0.4)
    rep = sg.fundamental_forms(sg.surface_by_name("clifford"), metric, 1.0, 1.0)
    assert rep.normal[0] > 0.99


def test_round_sphere_second_form_proportional_to_first():
    for r in (1.0, 2.5):
        sphere = sg.surface_by_name("round-sphere", r=r)
        rep = sg.fundamental_forms(sphere, FLAT, 0.9, 1.3)
        assert np.allclose(rep.second, rep.first / r, atol=1e-12)
        assert rep.k1 == pytest.approx(1.0 / r, rel=1e-12)
        assert rep.k2 == pytest.approx(1.0 / r, rel=1e-12)
        # a random batch: the curvature gap must not cancel at the umbilics
        rng = np.random.default_rng(5)
        rep = sg.fundamental_forms(sphere, FLAT, rng.uniform(0.0, 2 * np.pi, 4000),
                                   rng.uniform(0.05, np.pi - 0.05, 4000))
        assert np.allclose(rep.k1, 1.0 / r, rtol=1e-12, atol=0.0)
        assert np.allclose(rep.k2, 1.0 / r, rtol=1e-12, atol=0.0)


def test_sphere_normal_is_outward():
    sphere = sg.surface_by_name("round-sphere", r=2.0, center=(1.0, 0.0, -1.0))
    rep = sg.fundamental_forms(sphere, FLAT, 2.2, 0.8)
    radial = rep.point - np.array([1.0, 0.0, -1.0])
    assert np.dot(rep.normal, radial) > 0


def test_unit_cylinder_curvatures():
    cyl = sg.SurfaceImmersion(
        "cylinder", lambda s, t: (jets.cos(s), jets.sin(s), t),
        ((0.0, 2 * np.pi), (-1.0, 1.0)), (True, False))
    rep = sg.fundamental_forms(cyl, FLAT, 0.5, 0.2)
    assert sorted([rep.k1, rep.k2]) == pytest.approx([0.0, 1.0], abs=1e-12)
    assert rep.disc == pytest.approx(1.0, abs=1e-12)


def test_ellipsoid_long_axis_poles_not_umbilic():
    ell = sg.surface_by_name("ellipsoid", a=2.0, b=1.5, c=1.0)
    for s in (0.0, np.pi):
        rep = sg.fundamental_forms(ell, FLAT, s, np.pi / 2)
        assert abs(abs(rep.point[0]) - 2.0) < 1e-12
        assert rep.disc > 0.5
        # brute-force neighbourhood scan: the gap stays positive nearby
        ss = s + np.linspace(-0.2, 0.2, 41)
        tt = np.pi / 2 + np.linspace(-0.2, 0.2, 41)
        sm, tm = np.meshgrid(ss, tt, indexing="ij")
        grid_rep = sg.fundamental_forms(ell, FLAT, sm.ravel(), tm.ravel())
        assert np.min(grid_rep.disc) > 0.3


def test_degenerate_frame_raises():
    pin = sg.SurfaceImmersion(
        "pinch", lambda s, t: (s, s, 0.0 * t), ((0, 1), (0, 1)), (False, False))
    with pytest.raises(ImmersionError):
        sg.fundamental_forms(pin, FLAT, 0.5, 0.5)


def test_nan_point_raises_immersion_error():
    sphere = sg.surface_by_name("round-sphere")
    with pytest.raises(ImmersionError, match="not finite"):
        sg.fundamental_forms(sphere, FLAT, np.array([0.5, np.nan]), np.array([0.5, 0.5]))
    # a NaN row keeps a Clifford batch off the one-orbit path, wherever it is
    torus = sg.surface_by_name("clifford")
    for row in (0, 3):
        s = np.linspace(0.1, 1.0, 6)
        s[row] = np.nan
        with pytest.raises(ImmersionError, match="coordinate tangents are not finite"):
            sg.fundamental_forms(torus, ct.metric_by_name("hopf-eps", eps=0.3), s, np.full(6, 0.4))


def test_metric_singular_along_the_surface_is_named(tmp_path):
    # g33 = 0 makes the first form of the Clifford torus singular: the halt
    # names the metric, not the immersion
    path = tmp_path / "singular.kv"
    path.write_text("chart = hopf\ng11 = 1\ng22 = sin(rho)^2\ng33 = 0\n")
    clifford = sg.surface_by_name("clifford")
    with pytest.raises(MetricParameterError, match="singular or not finite at point"):
        sg.fundamental_forms(clifford, ct.load_metric(path), 0.7, 1.9)


def test_constant_singular_metric_is_named(tmp_path):
    # a constant metric has no Christoffel pass: its one value is checked
    path = tmp_path / "singular_flat.kv"
    path.write_text("chart = cartesian\ng11 = 1\ng22 = 1\ng33 = 0\n")
    metric = ct.load_metric(path)
    assert metric.constant
    ell = sg.surface_by_name("ellipsoid")
    with pytest.raises(MetricParameterError, match="singular or not finite at point"):
        sg.fundamental_forms(ell, metric, [0.3, 0.4], [1.0, 1.2])


def test_near_singular_metric_is_named():
    # det g = 1.1e-16 > 0 passes the determinant check, but the first form
    # fails while the tangents d/dtheta1, d/dtheta2 are orthonormal in the
    # chart: the halt names the metric
    metric = ct.metric_by_name("hopf-eps", eps=1.0 - 2.2e-16)
    with pytest.raises(MetricParameterError, match="metric hopf-eps is numerically singular"):
        sg.fundamental_forms(sg.surface_by_name("clifford"), metric, [0.7, 0.8], [1.9, 1.0])


EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "docs", "examples")


def test_orbit_reduced_forms_are_bit_identical():
    # the Clifford torus sits on one rho-orbit of the T^2-invariant metrics,
    # and a plane in flat space is one orbit too: every field must equal the
    # pointwise path, forced by declaring that the metric reads all of x
    torus = sg.surface_by_name("clifford")
    rng = np.random.default_rng(3)
    random = (rng.uniform(0, 2 * np.pi, 2000), rng.uniform(0, 2 * np.pi, 2000))
    # the quadrature axes, flattened into the product grid's nodes
    nodes = [a.ravel() for a in np.broadcast_arrays(*sg._quadrature_grid(torus, (48, 40))[:2])]
    plane = sg.surface_by_name("plane", half_width=3.0)
    bumped = ct.metric_by_name("hopf-eps-bumped", eps=0.3)
    cases = [(torus, metric, params)
             for metric in (ct.metric_by_name("hopf-eps", eps=0.45), bumped,
                            ct.load_metric(os.path.join(EXAMPLES, "deformed_round.kv")))
             for params in (nodes, random)]
    cases.append((plane, FLAT, (random[0] - 3.0, random[1] - 3.0)))
    # constant tangents across rho-orbits: not one orbit, rho must be compared
    tilted = sg.SurfaceImmersion("tilted", lambda s, t: (0.6 + 0.1 * s, s, t),
                                 torus.domain, torus.periodic, chart="hopf")
    cases.append((tilted, bumped, random))
    # equal tangents at s = +-0.5 but opposite II: d2 must be compared
    cases.append((sg.surface_by_name("graph", expr="x^3"), FLAT,
                  (np.array([0.5, -0.5, 0.5]), np.full(3, 0.2))))
    for surface, metric, (s, t) in cases:
        full = dataclasses.replace(metric, depends_on=(0, 1, 2))
        rep = sg.fundamental_forms(surface, metric, s, t)
        ref = sg.fundamental_forms(surface, full, s, t)
        for name in rep.__dataclass_fields__:
            got, want = getattr(rep, name), getattr(ref, name)
            assert got.shape == want.shape and np.array_equal(got, want), name
        # a single point never takes the orbit path: the row-by-row oracle
        for k in range(0, len(s), max(len(s) // 10, 1)):
            one = sg.fundamental_forms(surface, metric, s[k], t[k])
            for name in rep.__dataclass_fields__:
                assert np.array_equal(getattr(rep, name)[k], getattr(one, name)), name
        if surface is torus:
            assert (sg.willmore_and_area(torus, metric, grid=(48, 40))
                    == sg.willmore_and_area(torus, full, grid=(48, 40)))


def _counting(metric):
    """``metric`` with its components wrapped to record each call's batch size."""
    sizes = []

    def components(*coords):
        c = coords[0]
        sizes.append(np.size(c.f if isinstance(c, jets.Jet) else c))
        return metric.components(*coords)
    return dataclasses.replace(metric, components=components), sizes


def test_one_orbit_batch_evaluates_the_metric_at_one_point():
    rng = np.random.default_rng(8)
    s, t = rng.uniform(-1.0, 1.0, 300), rng.uniform(-1.0, 1.0, 300)
    for surface, metric in ((sg.surface_by_name("clifford"),
                             ct.metric_by_name("hopf-eps-bumped", eps=0.3)),
                            (sg.surface_by_name("plane"), FLAT)):
        counted, sizes = _counting(metric)
        sg.fundamental_forms(surface, counted, s, t)
        assert sizes and set(sizes) == {1}, surface.name
    # off an orbit a metric that reads the position is evaluated at every
    # point, and a constant one still at one
    warped = ct.metric_from_expressions("cartesian", {"g11": "1 + x^2/4", "g22": "1",
                                                      "g33": "1 + y*z/8"})
    for surface in (sg.surface_by_name("ellipsoid"), sg.surface_by_name("graph", expr="x^2")):
        for metric, size in ((warped, 300), (FLAT, 1)):
            counted, sizes = _counting(metric)
            sg.fundamental_forms(surface, counted, s + 1.5, t + 1.5)
            assert sizes and set(sizes) == {size}, (surface.name, metric.name)


def test_orbit_batch_fills_no_grid_sized_jets():
    # the orbit is found on the jets of the axes: of the 192 x 192 grid only
    # ``point`` is filled (3 grid planes), where reading every partial out
    # over the grid took 22.5
    torus = sg.surface_by_name("clifford")
    s, t = sg._quadrature_grid(torus, (192, 192))[:2]
    tracemalloc.start()
    try:
        rep = sg.fundamental_forms(torus, ct.metric_by_name("hopf-eps", eps=0.4), s, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 192 * 192 * 8
    assert rep.point.shape == rep.normal.shape == (192 * 192, 3)
    assert not rep.first.flags.writeable and not rep.second.flags.writeable


def test_constant_grid_sized_component_takes_the_orbit_path(monkeypatch):
    # rho0 + 0 s is a jet whose value and partials are arrays as large as the
    # batch, each constant: still one orbit, the metric counted at one point
    # and the chart map's two-seed jets never read out over the batch
    read_outs = []
    read_out = jets.read_out
    monkeypatch.setattr(jets, "read_out",
                        lambda comps, xs: read_outs.append(len(xs)) or read_out(comps, xs))
    rng = np.random.default_rng(9)
    s, t = rng.uniform(0, 2 * np.pi, 300), rng.uniform(0, 2 * np.pi, 300)
    torus = sg.surface_by_name("clifford")
    bumped = ct.metric_by_name("hopf-eps-bumped", eps=0.3)
    constant = sg.SurfaceImmersion("rho0", lambda s, t: (0.7 + 0.0 * s, s, t),
                                   torus.domain, torus.periodic, chart="hopf")
    counted, sizes = _counting(bumped)
    rep = sg.fundamental_forms(constant, counted, s, t)
    assert sizes and set(sizes) == {1} and 2 not in read_outs
    ref = sg.fundamental_forms(constant, dataclasses.replace(bumped, depends_on=(0, 1, 2)),
                               s, t)
    for name in rep.__dataclass_fields__:
        assert np.array_equal(getattr(rep, name), getattr(ref, name)), name
    # rho that moves with s, and equal tangents under opposite II, stay off it
    tilted = sg.SurfaceImmersion("tilted", lambda s, t: (0.6 + 0.1 * s, s, t),
                                 torus.domain, torus.periodic, chart="hopf")
    counted, sizes = _counting(bumped)
    read_outs.clear()
    sg.fundamental_forms(tilted, counted, s, t)
    assert set(sizes) == {300} and 2 in read_outs
    read_outs.clear()
    sg.fundamental_forms(sg.surface_by_name("graph", expr="x^3"), FLAT,
                         np.array([0.5, -0.5, 0.5]), np.full(3, 0.2))
    assert read_outs == [2]


@pytest.mark.parametrize("entry", ["g11 = 1/0", "g23 = log(0)", "g23 = log(rho - rho)"])
def test_non_finite_metric_file_is_named(tmp_path, entry):
    # the expressions give inf or NaN quietly; the halt names the metric
    path = tmp_path / "nonfinite.kv"
    key = entry.split()[0]
    lines = {"g11": "g11 = 1", "g22": "g22 = sin(rho)^2", "g33": "g33 = cos(rho)^2",
             "g23": "g23 = 0.3*sin(rho)*cos(rho)", key: entry}
    path.write_text("chart = hopf\n" + "\n".join(lines.values()) + "\n")
    clifford = sg.surface_by_name("clifford")
    with pytest.raises(MetricParameterError, match="singular or not finite at point"):
        sg.fundamental_forms(clifford, ct.load_metric(path), [0.7, 0.8, 0.9], [1.9, 1.9, 2.0])


def test_normality_residuals():
    metric = ct.metric_by_name("hopf-eps", eps=0.45)
    rng = np.random.default_rng(5)
    clifford = sg.surface_by_name("clifford")
    s, t = rng.uniform(0, 2 * np.pi, 500), rng.uniform(0, 2 * np.pi, 500)
    rep = sg.fundamental_forms(clifford, metric, s, t)
    g = metric.matrix(rep.point)
    tangents = jets.derivatives(clifford.chart_map, [s, t], order=1)[1]
    for a in range(2):
        res = np.einsum("ni,nij,nj->n", rep.normal, g, tangents[:, a])
        assert np.max(np.abs(res)) < 1e-10
    unit = np.einsum("ni,nij,nj->n", rep.normal, g, rep.normal)
    assert np.max(np.abs(unit - 1.0)) < 1e-10


def test_clifford_minimal_at_many_samples():
    for eps in (0.0, 0.25, 0.5, 0.75, 0.99 * (1 - 1e-6)):
        metric = ct.metric_by_name("hopf-eps", eps=eps)
        max_h = sg.max_abs_mean_curvature(sg.surface_by_name("clifford"),
                                          metric, n_samples=10000, seed=3)
        assert max_h < 1e-10


def test_willmore_closed_forms():
    torus = sg.surface_by_name("clifford")
    w0 = sg.willmore_energy(torus, ct.metric_by_name("hopf-eps", eps=0.0),
                            grid=(128, 128))
    assert w0 == pytest.approx(TWO_PI_SQ, rel=1e-10)
    assert w0 == pytest.approx(19.7392088, abs=1e-6)
    w6 = sg.willmore_energy(torus, ct.metric_by_name("hopf-eps", eps=0.6),
                            grid=(128, 128))
    assert w6 == pytest.approx(1.6 * np.pi ** 2, rel=1e-10)


@pytest.mark.parametrize("rho0", [0.3, 0.5, 0.6, np.pi / 4])
def test_willmore_of_round_orbit_tori(rho0):
    # the orbit torus rho = rho0 of the round S^3 has principal curvatures
    # cot(rho0) and -tan(rho0), so H = (k1 + k2)/2 = cot(2 rho0), area
    # 2 pi^2 sin(2 rho0) and W = (1 + H^2) area = 2 pi^2 / sin(2 rho0);
    # the trace k1 + k2 in place of H gives 106.4 against 34.96 at 0.3
    torus = sg.SurfaceImmersion("orbit-torus", lambda s, t: (rho0, s, t),
                                ((0.0, 2 * np.pi), (0.0, 2 * np.pi)), (True, True),
                                topology="torus", chart="hopf")
    w = sg.willmore_energy(torus, ct.metric_by_name("round-s3"), grid=(32, 32))
    assert w == pytest.approx(TWO_PI_SQ / np.sin(2 * rho0), rel=1e-14)
    # |H| = |cot 2 rho0| at every sample, not the trace |k1 + k2|; the
    # absolute bound serves rho0 = pi/4, where H = 0
    max_h = sg.max_abs_mean_curvature(torus, ct.metric_by_name("round-s3"), n_samples=200)
    assert max_h == pytest.approx(abs(1.0 / np.tan(2 * rho0)), rel=1e-14, abs=1e-15)


def test_willmore_equals_area_for_minimal_surfaces():
    torus = sg.surface_by_name("clifford")
    for eps in (0.0, 0.3, 0.9):
        metric = ct.metric_by_name("hopf-eps", eps=eps)
        w = sg.willmore_energy(torus, metric, grid=(96, 96))
        a = sg.area(torus, metric, grid=(96, 96))
        assert abs(w - a) < 1e-10


def test_willmore_and_area_equal_the_separate_integrals():
    bumped = ct.metric_by_name("hopf-eps-bumped", eps=0.3)
    torus = sg.surface_by_name("clifford")
    ell = sg.surface_by_name("ellipsoid", a=2.0, b=1.5, c=1.0)
    # the ellipsoid grid spans two chunks of the integration loop
    for surface, metric, grid in ((torus, bumped, (96, 96)), (ell, FLAT, (300, 240))):
        both = sg.willmore_and_area(surface, metric, grid=grid)
        assert both == (sg.willmore_energy(surface, metric, grid=grid),
                        sg.area(surface, metric, grid=grid))


def test_composite_gauss_legendre_equals_panel_loop():
    for a, b, panels, order in ((0.0, 1.0, 1, 4), (1e-6, np.pi / 2 - 1e-6, 96, 6),
                                (-3.0, 2.5, 17, 9)):
        edges = np.linspace(a, b, panels + 1)
        loop = [quadrature.gauss_legendre(lo, hi, order)
                for lo, hi in zip(edges[:-1], edges[1:])]
        nodes, weights = quadrature.composite_gauss_legendre(a, b, panels, order)
        assert np.array_equal(nodes, np.concatenate([x for x, _ in loop]))
        assert np.array_equal(weights, np.concatenate([w for _, w in loop]))


def test_quadrature_convergence_under_doubling():
    torus = sg.surface_by_name("clifford")
    metric = ct.metric_by_name("hopf-eps", eps=0.35)
    w1 = sg.willmore_energy(torus, metric, grid=(64, 64))
    w2 = sg.willmore_energy(torus, metric, grid=(128, 128))
    assert abs(w1 - w2) < 1e-9


def test_sphere_area_quadrature():
    sphere = sg.surface_by_name("round-sphere", r=2.0)
    assert sg.area(sphere, FLAT, grid=(96, 96)) == pytest.approx(16 * np.pi, rel=1e-10)


def test_parallel_surface_shares_umbilic_locations():
    # offsetting along the normal preserves the normal lines, hence umbilics
    base = sg.surface_by_name("ellipsoid", a=2.0, b=1.5, c=1.0)
    offset = sg.surface_by_name("ellipsoid-offset", a=2.0, b=1.5, c=1.0, d=0.3)
    ss = np.linspace(0.0, 2 * np.pi, 160, endpoint=False)
    tt = np.linspace(0.2, np.pi - 0.2, 120)
    sm, tm = np.meshgrid(ss, tt, indexing="ij")
    rep_a = sg.fundamental_forms(base, FLAT, sm.ravel(), tm.ravel())
    rep_b = sg.fundamental_forms(offset, FLAT, sm.ravel(), tm.ravel())
    disc_a = rep_a.disc.reshape(160, 120)
    disc_b = rep_b.disc.reshape(160, 120)
    # same cells achieve near-zero gap on both surfaces
    za = disc_a < np.percentile(disc_a, 0.5)
    for i, j in np.argwhere(za):
        block = disc_b[max(i - 1, 0):i + 2, max(j - 1, 0):j + 2]
        assert np.min(block) < np.percentile(disc_b, 1.0)


def test_offset_congruence_matches_base():
    from geomlab import line_space as ls
    base = ls.CongruenceMap(sg.surface_by_name("ellipsoid", a=2.0, b=1.5, c=1.0))
    off = ls.CongruenceMap(sg.surface_by_name("ellipsoid-offset",
                                              a=2.0, b=1.5, c=1.0, d=0.4))
    s = np.linspace(0.5, 5.5, 7)
    t = np.linspace(0.4, 2.7, 7)
    ua, va, _, _ = base.eval(s, t)
    ub, vb, _, _ = off.eval(s, t)
    assert np.allclose(ua, ub, atol=1e-12)
    assert np.allclose(va, vb, atol=1e-12)


def test_graph_surface_from_expression():
    graph = sg.surface_by_name("graph", expr="x^2 - y^2", half_width=2.0)
    rep = sg.fundamental_forms(graph, FLAT, 0.0, 0.0)
    assert sorted([rep.k1, rep.k2]) == pytest.approx([-2.0, 2.0], abs=1e-12)


# -- the written-out contractions against the batched-matmul oracle -----------

def _matmul_forms(surface, metric, point, d1, d2):
    """The forms as batched per-point 3x3 matmuls, np.cross and einsum over
    point-major (N,3), (N,2,3), (N,2,2,3) arrays: the contraction ``_forms``
    writes out over components."""
    n = point.shape[0]
    g = metric.matrix(point)
    d1t = d1.transpose(0, 2, 1)
    cov = d1 @ g
    first = cov @ d1t
    v = np.cross(cov[:, 0], cov[:, 1])
    gv = (g @ v[:, :, None])[:, :, 0]
    vlen = np.sqrt(np.einsum("ni,ni->n", v, gv))[:, None]
    normal = surface.orient * v / vlen
    g_normal = surface.orient * gv / vlen
    second = -(d2.reshape(n, 4, 3) @ g_normal[:, :, None]).reshape(n, 2, 2)
    if not metric.constant:
        gamma = ct.christoffel(metric, point)
        gamma_n = (gamma.transpose(0, 2, 3, 1).reshape(n, 9, 3)
                   @ g_normal[:, :, None]).reshape(n, 3, 3)
        second -= d1 @ gamma_n @ d1t
    tr, k1, k2, gap_sq = kernels.shape_operator_batch(first, second)
    det_first = first[:, 0, 0] * first[:, 1, 1] - first[:, 0, 1] ** 2
    return {"first": first, "second": second, "normal": normal, "h_mean": 0.5 * tr,
            "k1": k1, "k2": k2, "disc_sq": gap_sq, "area_density": np.sqrt(det_first)}


WARPED = ct.metric_from_expressions("cartesian", {
    "g11": "1 + x^2/10", "g12": "sin(x*z)/10", "g13": "x/(20*(1 + z^2))",
    "g22": "1 + (y + z)^2/20", "g23": "cos(y)/20", "g33": "1 + cos(x*y)/10"})


def _oracle_cases(rng):
    a, b, c = rng.uniform(1.6, 2.4), rng.uniform(1.2, 1.55), rng.uniform(0.7, 1.1)
    big, small = rng.uniform(1.8, 2.6), rng.uniform(0.5, 1.2)
    coef = [float(c) for c in rng.uniform(-0.8, 0.8, 3)]
    expr = f"{coef[0]!r}*x^2 + {coef[1]!r}*x*y^3 + {coef[2]!r}*sin(2*y)"
    surfaces = [sg.surface_by_name("ellipsoid", a=a, b=b, c=c),
                sg.surface_by_name("torus-revolution", R=big, r=small),
                sg.surface_by_name("graph", expr=expr)]
    return [(surface, metric) for surface in surfaces for metric in (FLAT, WARPED)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_written_out_forms_equal_the_matmul_oracle(seed):
    rng = np.random.default_rng(seed)
    for surface, metric in _oracle_cases(rng):
        (s0, s1), (t0, t1) = surface.domain
        pad = 0.05 * (t1 - t0)
        s = rng.uniform(s0, s1, 400)
        t = rng.uniform(t0 + pad, t1 - pad, 400)
        point, d1, d2 = jets.derivatives(surface.chart_map, [s, t], order=2)
        rep = sg._forms(surface, metric, point, d1, d2)
        ref = _matmul_forms(surface, metric, *(np.ascontiguousarray(a)
                                               for a in (point, d1, d2)))
        for name, want in ref.items():
            got = getattr(rep, name)
            assert got.shape == want.shape, name
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (
                surface.name, metric.name, name)


def test_orbit_forms_equal_the_matmul_oracle_bit_for_bit():
    # on the Clifford torus every contraction has one nonzero term, so the
    # written-out forms are the matmul ones exactly: W and the area of the
    # one-orbit path do not move
    clifford = sg.surface_by_name("clifford")
    s = np.linspace(0.0, 2 * np.pi, 7)
    for metric in (ct.metric_by_name("round-s3"),
                   ct.metric_by_name("hopf-eps", eps=0.55),
                   ct.metric_by_name("hopf-eps-bumped", eps=0.4)):
        point, d1, d2 = jets.derivatives(clifford.chart_map, [s, s[::-1]], order=2)
        rep = sg._forms(clifford, metric, point, d1, d2)
        ref = _matmul_forms(clifford, metric, *(np.ascontiguousarray(a)
                                                for a in (point, d1, d2)))
        for name, want in ref.items():
            assert np.array_equal(getattr(rep, name), want), (metric.name, name)


# every built-in surface, the graph as an expression of its own: clifford's
# rho and the plane's height are constants, which fill the grid by broadcasting
AXIS_SURFACES = {name: sg.surface_by_name(name) for name in sg._BUILTINS if name != "graph"}
AXIS_SURFACES["graph"] = sg.surface_by_name(
    "graph", expr="x^2 + y^2/2 + 0.3*x*y^3 + 0.2*sin(2*y) + exp(x/4)")


@pytest.mark.parametrize("name", sorted(AXIS_SURFACES))
def test_axis_seeds_equal_the_flattened_grid(name):
    surface = AXIS_SURFACES[name]
    (s0, s1), (t0, t1) = surface.domain
    ss = s0 + (s1 - s0) * (np.arange(24) + 0.5) / 24
    tt = t0 + (t1 - t0) * (np.arange(18) + 0.5) / 18
    sm, tm = np.meshgrid(ss, tt, indexing="ij")
    axes = jets.derivatives(surface.chart_map, [ss[:, None], tt[None, :]], order=2)
    flat = jets.derivatives(surface.chart_map, [sm.ravel(), tm.ravel()], order=2)
    for got, want in zip(axes, flat):
        assert got.shape == sm.shape + want.shape[1:]
        assert np.array_equal(got.reshape(want.shape), want)
    metrics = ([ct.metric_by_name("hopf-eps", eps=0.3)] if surface.chart == "hopf"
               else [FLAT, WARPED])
    for metric in metrics:
        rep = sg.fundamental_forms(surface, metric, ss[:, None], tt[None, :])
        ref = sg.fundamental_forms(surface, metric, sm.ravel(), tm.ravel())
        for field in rep.__dataclass_fields__:
            got, want = getattr(rep, field), getattr(ref, field)
            assert got.shape == want.shape and np.array_equal(got, want), (metric.name, field)
