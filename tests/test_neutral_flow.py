"""Codimension-two mean curvature flow: stationarity, monotonicity, controls."""

import dataclasses
import os
import warnings

import numpy as np
import pytest

from geomlab import kvdoc
from geomlab import line_space as ls
from geomlab import neutral_flow as nf
from geomlab.errors import ChartDomainError, ConfigError, SignatureLossError

FLOW_KV = os.path.join(os.path.dirname(__file__), "..", "docs", "examples", "flow.kv")
_RNG = np.random.default_rng(11)
CENTRES = [(0.0, 0.0, 1.0)] + [tuple(_RNG.normal(size=3)) for _ in range(3)]


def _chart_points(seed, n, radius=0.6):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-radius, radius, size=(n, 4))
    pts[:, 2:] *= 2.0
    return pts


def test_chart_is_holomorphic_for_j():
    from geomlab import line_space as ls
    chart = nf.LineSpaceChart((0.0, 0.0, 1.0))
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.5, 0.5, size=(20, 4))
    u, V, diff = chart.embed_differential(pts)
    jx = np.concatenate(ls.apply_j(u, V, diff[:, 0, :3], diff[:, 0, 3:]), axis=-1)
    jw = np.concatenate(ls.apply_j(u, V, diff[:, 2, :3], diff[:, 2, 3:]), axis=-1)
    dx = np.concatenate([diff[:, 1, :3], diff[:, 1, 3:]], axis=-1)
    dw = np.concatenate([diff[:, 3, :3], diff[:, 3, 3:]], axis=-1)
    assert np.max(np.abs(jx - dx)) < 1e-12
    assert np.max(np.abs(jw - dw)) < 1e-12


def test_chart_metric_matches_structure_kernels():
    from geomlab import line_space as ls
    chart = nf.LineSpaceChart((0.0, 0.0, 1.0))
    pts = np.array([[0.2, -0.1, 0.3, 0.15], [0.4, 0.3, -0.2, 0.5]])
    g4, gamma = chart.metric_and_christoffel(pts)
    u, V, diff = chart.embed_differential(pts)
    for n in range(len(pts)):
        for a in range(4):
            for b in range(4):
                ref = ls.metric_pair(u[n], V[n], diff[n, a, :3], diff[n, a, 3:],
                                     diff[n, b, :3], diff[n, b, 3:])
                assert g4[n, a, b] == pytest.approx(ref, abs=1e-12)
    assert np.allclose(gamma, gamma.transpose(0, 1, 3, 2), atol=1e-12)


def test_chart_christoffels_match_finite_differences():
    # one batched call over distinct points, each checked against its own
    # finite differences, so a mix-up of the point and direction axes shows
    chart = nf.LineSpaceChart((0.0, 0.0, 1.0))
    pts = np.array([[0.25, -0.15, 0.2, 0.1],
                    [-0.4, 0.3, -0.1, 0.35],
                    [0.1, 0.45, 0.5, -0.25],
                    [-0.2, -0.3, 0.0, 0.6]])
    g4, gamma = chart.metric_and_christoffel(pts)
    assert np.array_equal(g4, chart.metric(pts))
    h = 1e-5
    for n, p in enumerate(pts):
        dg = np.zeros((4, 4, 4))
        for k in range(4):
            pp, pm = p.copy(), p.copy()
            pp[k] += h
            pm[k] -= h
            dg[k] = chart.metric(pp[None])[0] - chart.metric(pm[None])[0]
            dg[k] /= 2 * h
        ginv = np.linalg.inv(chart.metric(p[None])[0])
        gamma_fd = np.zeros((4, 4, 4))
        for d in range(4):
            for a in range(4):
                for b in range(4):
                    s = sum(ginv[d, c] * (dg[a, b, c] + dg[b, a, c] - dg[c, a, b])
                            for c in range(4))
                    gamma_fd[d, a, b] = 0.5 * s
        assert np.max(np.abs(gamma[n] - gamma_fd)) < 1e-6


@pytest.mark.parametrize("centre", CENTRES)
def test_embed_is_the_stereographic_line_in_the_sphere_frame(centre):
    chart = nf.LineSpaceChart(centre)
    pts = _chart_points(1, 200)
    x, y, w1, w2 = pts.T
    u, V, _ = chart.embed_differential(pts)
    assert np.max(np.abs(np.stack(ls.sphere_to_stereo(u, chart.center)) - [x, y])) < 1e-15
    e1, e2 = (np.stack(e, axis=-1) for e in ls.sphere_frame(u, chart.center))
    beta = 2.0 / (1.0 + x * x + y * y)
    v_ref = beta[:, None] * (w1[:, None] * e1 + w2[:, None] * e2)
    assert np.max(np.abs(V - v_ref)) < 1e-14


@pytest.mark.parametrize("centre", CENTRES)
def test_embed_differential_matches_central_differences(centre):
    chart = nf.LineSpaceChart(centre)
    pts = _chart_points(2, 50)
    _, _, diff = chart.embed_differential(pts)
    h = 1e-6
    for a in range(4):
        step = np.zeros(4)
        step[a] = h
        up, vp, _ = chart.embed_differential(pts + step)
        um, vm, _ = chart.embed_differential(pts - step)
        assert np.max(np.abs(diff[:, a, :3] - (up - um) / (2 * h))) < 1e-8
        assert np.max(np.abs(diff[:, a, 3:] - (vp - vm) / (2 * h))) < 1e-8


@pytest.mark.parametrize("centre", CENTRES)
def test_chart_metric_matches_metric_pair_on_a_random_batch(centre):
    chart = nf.LineSpaceChart(centre)
    pts = _chart_points(3, 300)
    g4, _ = chart.metric_and_christoffel(pts)
    u, V, diff = chart.embed_differential(pts)
    ref = np.empty_like(g4)
    for a in range(4):
        for b in range(4):
            ref[:, a, b] = ls.metric_pair(u, V, diff[:, a, :3], diff[:, a, 3:],
                                          diff[:, b, :3], diff[:, b, 3:])
    assert np.max(np.abs(g4 - ref)) < 1e-13 * np.max(np.abs(ref))
    assert np.array_equal(g4, chart.metric(pts))


def _christoffel_from_metric_differences(chart, p, h=1e-5):
    dg = np.zeros((4, 4, 4))
    for k in range(4):
        pp, pm = p.copy(), p.copy()
        pp[k] += h
        pm[k] -= h
        dg[k] = (chart.metric(pp)[0] - chart.metric(pm)[0]) / (2 * h)
    ginv = np.linalg.inv(chart.metric(p)[0])
    term = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
    return 0.5 * np.einsum("dc,abc->dab", ginv, term)


@pytest.mark.parametrize("centre", CENTRES[1:])
def test_chart_christoffels_match_metric_differences_at_random_centres(centre):
    chart = nf.LineSpaceChart(centre)
    pts = _chart_points(4, 12)
    _, gamma = chart.metric_and_christoffel(pts)
    for n, p in enumerate(pts):
        assert np.max(np.abs(gamma[n] - _christoffel_from_metric_differences(chart, p))) < 1e-6


def test_chart_metric_and_christoffels_match_a_symbolic_derivation():
    # the line (u, V) of the chart from its definition: u the inverse
    # stereographic map of the default chart's frame (c, p, q), V = beta
    # (w1 e1 + w2 e2) with e1 the x-direction of u and e2 = u x e1; then
    # G(X, Y) = omega(J X, Y) with J and omega as defined in line_space.
    # The neutral metric is rotation-invariant, so the chart at any centre
    # has the same G and Gamma.  Each stage is reduced with cancel.
    sp = pytest.importorskip("sympy")
    x, y, w1, w2 = coords = sp.symbols("x y w1 w2", real=True)
    c, p, q = sp.Matrix([0, 0, 1]), sp.Matrix([0, 1, 0]), sp.Matrix([-1, 0, 0])
    frame = ls._complement_basis((0.0, 0.0, 1.0))
    assert all(np.array_equal(np.array(v, dtype=float).ravel(), w)
               for v, w in zip((c, p, q), frame))

    def reduce(m):
        return m.applyfunc(sp.cancel)

    d = 1 + x ** 2 + y ** 2
    u = reduce((2 * x * p + 2 * y * q + (1 - x ** 2 - y ** 2) * c) / d)
    e1 = reduce(p - x * (c + u))
    assert sp.cancel(e1.dot(e1)) == 1                 # already unit
    V = reduce(2 / d * (w1 * e1 + w2 * u.cross(e1)))
    tangents = [(reduce(u.diff(a)), reduce(V.diff(a))) for a in coords]

    def apply_j(du, dv):
        perp = dv - u.dot(dv) * u
        return reduce(u.cross(du)), reduce(u.cross(perp) - V.dot(u.cross(du)) * u)

    def omega(xt, yt):
        return sp.cancel(xt[1].dot(yt[0]) - yt[1].dot(xt[0]))

    j_tangents = [apply_j(*t) for t in tangents]
    g_sym = sp.Matrix(4, 4, lambda a, b: omega(j_tangents[a], tangents[b]))
    g_fn = sp.lambdify(coords, g_sym, "numpy")
    dg_fn = sp.lambdify(coords, [g_sym.diff(k) for k in coords], "numpy")

    pts = _chart_points(5, 20)
    g_ref = np.array([g_fn(*pt) for pt in pts], dtype=float)
    dg = np.array([dg_fn(*pt) for pt in pts], dtype=float)   # dg[n, k, a, b]
    term = dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1)
    gamma_ref = 0.5 * np.einsum("ndc,nabc->ndab", np.linalg.inv(g_ref), term)
    for centre in CENTRES:
        g4, gamma = nf.LineSpaceChart(centre).metric_and_christoffel(pts)
        assert np.max(np.abs(g4 - g_ref)) < 1e-13
        assert np.max(np.abs(gamma - gamma_ref)) < 1e-12


# -- chart sections, read as line-space sections -------------------------------

def _twist_lambda_circulation(strength, radius):
    """Counterclockwise circulation of lambda = V.du round the chart square
    [-R, R]^2 of the twist w = -i s (x + i y).

    There lambda = 4 s (y dx - x dy)/D^2 with D = 1 + x^2 + y^2, so each of
    the four edges gives -4 s R times the integral of dx/(a^2 + x^2)^2
    over [-R, R], a^2 = 1 + R^2.
    """
    a_sq = 1.0 + radius ** 2
    a = np.sqrt(a_sq)
    return -16.0 * strength * radius * (radius / (a_sq * (a_sq + radius ** 2))
                                        + np.arctan(radius / a) / a ** 3)


@pytest.mark.parametrize("strength, radius", [(1.0, 0.55), (0.7, 0.3), (1.3, 0.8)])
@pytest.mark.parametrize("centre", CENTRES[:2])
def test_flow_target_symplectic_area_matches_the_closed_form(strength, radius, centre):
    state, _ = nf.build_state(twist_strength=strength, chart_radius=radius, center=centre,
                              grid_n=5)
    want = _twist_lambda_circulation(strength, radius)
    square = ((-radius, radius), (-radius, radius))
    for got in ls.symplectic_area(state.section, square):
        assert got == pytest.approx(want, rel=1e-12)


def test_flow_kv_target_symplectic_area():
    state, _ = nf.build_state(kvdoc.load(FLOW_KV))
    radius = state.x_axis[-1]
    for got in ls.symplectic_area(state.section, ((-radius, radius), (-radius, radius))):
        assert got == pytest.approx(-4.97373056259242, rel=1e-12)


@pytest.mark.parametrize("centre", CENTRES[:3])
def test_twist_is_the_affine_section_with_c1_minus_i_s(centre):
    """The flow's target in chart coordinates and the twist of
    ``line_space.TwistedSection`` are one section."""
    chart = nf.LineSpaceChart(centre)
    x, y = _chart_points(6, 200)[:, :2].T
    zero = nf.affine_section(chart)
    for strength in (0.7, 1.0, 1.3):
        twisted = ls.TwistedSection(zero, strength, chart.center).eval(x, y)
        affine = nf.affine_section(chart, c1=(0.0, -strength)).eval(x, y)
        for got, want in zip(affine, twisted):
            assert np.max(np.abs(got - want)) < 1e-15


@pytest.mark.parametrize("centre", CENTRES)
def test_chart_section_eval_is_the_jet_of_a_section(centre):
    """(du, dV) of ``ChartSection.eval`` are central differences of its
    (u, V) and tangent to the line space, over a broadcast grid."""
    section = nf.ChartSection(
        lambda x, y: (0.3 * x * y - 0.2 * y * y * y + 0.1, 0.4 * x * x - 0.5 * y),
        nf.LineSpaceChart(centre))
    x = np.linspace(-0.6, 0.6, 20)[:, None]
    y = np.linspace(-0.5, 0.5, 10)[None, :]
    u, V, du, dV = section.eval(x, y)
    assert u.shape == V.shape == (20, 10, 3) and du.shape == dV.shape == (20, 10, 2, 3)
    h = 1e-6
    for a, (px, py) in enumerate(((h, 0.0), (0.0, h))):
        up, vp, _, _ = section.eval(x + px, y + py)
        um, vm, _, _ = section.eval(x - px, y - py)
        assert np.max(np.abs(du[..., a, :] - (up - um) / (2 * h))) < 1e-8
        assert np.max(np.abs(dV[..., a, :] - (vp - vm) / (2 * h))) < 1e-8
    u, V = u[..., None, :], V[..., None, :]
    assert np.max(np.abs(np.sum(u * du, axis=-1))) < 1e-14
    assert np.max(np.abs(np.sum(u * dV + V * du, axis=-1))) < 1e-14


def _one_node_central_differences(state, probe):
    """Each boundary sample's cosh differentiated by moving only its own
    first-interior node by +-probe and re-evaluating the whole geometry."""
    _, _, ni, nj = nf._edge_indices(state.shape)
    grads = np.empty((len(ni), 2))
    for m in range(len(ni)):
        for k in range(2):
            vals = []
            for sign in (1.0, -1.0):
                moved = dataclasses.replace(state, f=state.f.copy())
                moved.f[ni[m], nj[m], 2 + k] += sign * probe
                vals.append(nf.boundary_angle_cosh(moved, nf.flow_geometry(moved))[m])
            grads[m, k] = (vals[0] - vals[1]) / (2 * probe)
    return grads


def _forward_difference_gradient(state, geo, probe):
    """The forward difference the exact gradient replaced: each sample's
    normal row of the tangents shifted by weight * probe in one fiber
    component, the boundary's chart metric (held by the ring) kept."""
    ii, jj, ni, nj = nf._edge_indices(state.shape)
    axis = (nj != jj).astype(int)
    weight = 2.0 * ((ni - ii) + (nj - jj)) / np.where(axis == 0, geo["dx"], geo["dy"])
    base = nf.boundary_angle_cosh(state, geo)
    grads = np.empty((len(ii), 2))
    for k in range(2):
        d1 = geo["d1"].copy()
        d1[ii, jj, axis, 2 + k] += weight * probe
        grads[:, k] = (nf.boundary_angle_cosh(state, {"d1": d1}) - base) / probe
    return grads


def test_angle_gradient_matches_one_node_differences():
    # the central difference's error falls by four when its probe is halved
    state, _ = nf.build_state(kvdoc.load(FLOW_KV))
    geo = nf.flow_geometry(state)
    cosh, grads = nf._angle_gradient(state, geo)
    assert np.array_equal(cosh, nf.boundary_angle_cosh(state, geo))
    assert np.max(np.abs(grads)) > 1.0
    errors = [np.max(np.abs(grads - _one_node_central_differences(state, probe)))
              for probe in (4e-5, 2e-5)]
    assert errors[1] < 1e-4 * np.max(np.abs(grads))
    assert 3.0 < errors[0] / errors[1] < 5.0


def test_angle_gradient_matches_the_forward_difference_to_first_order():
    # the forward difference is biased by O(probe * weight): its error
    # halves with the probe
    state, _ = nf.build_state(kvdoc.load(FLOW_KV))
    geo = nf.flow_geometry(state)
    _, grads = nf._angle_gradient(state, geo)
    errors = [np.max(np.abs(grads - _forward_difference_gradient(state, geo, probe)))
              for probe in (2e-6, 1e-6)]
    assert errors[1] < 1e-3 * np.max(np.abs(grads))
    assert 1.7 < errors[0] / errors[1] < 2.3


# -- einsum oracles for the plane contractions --------------------------------

def _einsum_geometry(state):
    """flow_geometry's Gram, tension (and its Christoffel part), mean
    curvature, normal residual and G d1, each an einsum over the
    written-out index pattern of the dense metric_and_christoffel."""
    dx = state.x_axis[1] - state.x_axis[0]
    dy = state.y_axis[1] - state.y_axis[0]
    d1, d2 = nf._fd_derivatives(state.f, dx, dy)
    g4, gamma = state.section.chart.metric_and_christoffel(state.f.reshape(-1, 4))
    g4 = g4.reshape(state.shape + (4, 4))
    gamma = gamma.reshape(state.shape + (4, 4, 4))
    gram = np.einsum("...aA,...AB,...bB->...ab", d1, g4, d1)
    det = gram[..., 0, 0] * gram[..., 1, 1] - gram[..., 0, 1] ** 2
    ginv = np.empty_like(gram)
    ginv[..., 0, 0] = gram[..., 1, 1] / det
    ginv[..., 1, 1] = gram[..., 0, 0] / det
    ginv[..., 0, 1] = ginv[..., 1, 0] = -gram[..., 0, 1] / det
    christoffel = np.einsum("...ab,...ABC,...aB,...bC->...A", ginv, gamma, d1, d1)
    tension = np.einsum("...ab,...abA->...A", ginv, d2) + christoffel
    rhs = np.einsum("...A,...AB,...aB->...a", tension, g4, d1)
    coef = np.einsum("...ab,...b->...a", ginv, rhs)
    mean_curv = tension - np.einsum("...a,...aA->...A", coef, d1)
    residual = np.einsum("...A,...AB,...aB->...a", mean_curv, g4, d1)
    gd1 = np.einsum("...AB,...aB->...aA", g4, d1)
    return gram, tension, christoffel, mean_curv, residual, gd1


@pytest.mark.parametrize("seed, centre", list(enumerate(CENTRES[1:])))
def test_flow_geometry_matches_the_einsum_oracle(seed, centre):
    rng = np.random.default_rng(100 + seed)
    for n in (13, 25, 33):
        state, _ = nf.build_state({"grid_n": n, "center": centre,
                                   "perturbation": rng.uniform(0.02, 0.08)})
        state.f[1:-1, 1:-1, 2:] += rng.uniform(-0.003, 0.003, size=(n - 2, n - 2, 2))
        geo = nf.flow_geometry(state)
        gram, tension, christoffel, mean_curv, residual, gd1 = _einsum_geometry(state)
        # the Christoffel term is a real part of the tension, not a rounding,
        # and the 20 plane symbols contract to the dense gamma's M^AB
        assert np.max(np.abs(christoffel)) > 0.1 * np.max(np.abs(tension))
        assert np.max(np.abs(geo["christoffel"] - christoffel)) <= 1e-13 * np.max(np.abs(christoffel))
        assert np.max(np.abs(geo["gram"] - gram)) <= 1e-13 * np.max(np.abs(gram))
        scale = np.max(np.abs(tension))
        assert np.max(np.abs(geo["mean_curv"] - mean_curv)) <= 1e-13 * scale
        # both residuals are rounding; each is measured against |G d1| |tension|
        res_scale = 1e-13 * scale * np.max(np.abs(gd1))
        assert geo["normal_residual"] <= res_scale
        assert np.max(np.abs(residual)) <= res_scale


def _cholesky_plane_cosh(g4, p_basis, q_basis):
    """The angle through G-orthonormalised bases: Cholesky factor of each
    plane's Gram, with the sign of its trace, then |det| of the cross Gram."""
    def orthonormalise(basis):
        gram = np.einsum("...iA,...AB,...jB->...ij", basis, g4, basis)
        sign = np.where(np.trace(gram, axis1=-2, axis2=-1) >= 0, 1.0, -1.0)
        chol = np.linalg.cholesky(gram * sign[..., None, None])
        return np.einsum("...ij,...jA->...iA", np.linalg.inv(chol), basis)

    try:
        b1, b2 = orthonormalise(p_basis), orthonormalise(q_basis)
    except np.linalg.LinAlgError:
        raise SignatureLossError("boundary tangent plane is not definite")
    return np.abs(np.linalg.det(np.einsum("...iA,...AB,...jB->...ij", b1, g4, b2)))


def _plane_cosh(g4, p_basis, q_basis):
    """``nf._plane_grams``' cosh from the two planes' bases, the second
    plane checked as ``nf._build_ring`` checks the target section's."""
    gq = g4 @ np.swapaxes(q_basis, -1, -2)
    qgq = q_basis @ gq
    q_det = qgq[..., 0, 0] * qgq[..., 1, 1] - qgq[..., 0, 1] * qgq[..., 1, 0]
    with np.errstate(invalid="ignore"):  # a q_det <= 0 is refused below
        cosh = nf._plane_grams(g4, p_basis, gq, q_det)[0]
    nf._check_definite(q_det)
    return cosh


def _random_planes(seed, n):
    """Chart metrics at random points and pairs of random (2, 4) bases."""
    rng = np.random.default_rng(seed)
    g4 = nf.LineSpaceChart().metric(_chart_points(seed, n))
    return g4, rng.normal(size=(n, 2, 4)), rng.normal(size=(n, 2, 4))


def _refused(fn, *args):
    try:
        fn(*args)
    except SignatureLossError as err:
        return str(err)
    return ""


def test_plane_cosh_matches_the_cholesky_oracle():
    g4, p_basis, q_basis = _random_planes(5, 400)
    refused = np.array([_refused(_cholesky_plane_cosh, g4[k:k + 1], p_basis[k:k + 1],
                                 q_basis[k:k + 1]) != "" for k in range(len(g4))])
    # the metric is neutral, so random planes are often indefinite
    assert np.sum(refused) >= 30 and np.sum(~refused) >= 30
    for k in range(len(g4)):
        args = (g4[k:k + 1], p_basis[k:k + 1], q_basis[k:k + 1])
        assert (_refused(_plane_cosh, *args) != "") == refused[k]
    ok = ~refused
    value = _plane_cosh(g4[ok], p_basis[ok], q_basis[ok])
    oracle = _cholesky_plane_cosh(g4[ok], p_basis[ok], q_basis[ok])
    assert np.min(value) >= 1.0 - 1e-12
    assert np.max(np.abs(value - oracle) / oracle) < 1e-13


def test_plane_cosh_of_the_flow_boundary_matches_the_cholesky_oracle():
    state, _ = nf.build_state(kvdoc.load(FLOW_KV))
    geo = nf.flow_geometry(state)
    cosh = nf.boundary_angle_cosh(state, geo)
    oracle = _uncached_angle_cosh(state, geo, _cholesky_plane_cosh)
    assert np.max(np.abs(cosh - oracle)) < 1e-14
    assert np.max(cosh - 1.0) > 1e-3  # the planes are not all equal


def test_plane_cosh_refuses_an_indefinite_plane():
    g4 = nf.LineSpaceChart().metric(np.array([[0.2, -0.1, 0.3, 0.15]]))
    definite = np.array([[[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]])
    # (dy, dw1): Gram [[g_yy, g_yw1], [g_yw1, 0]] with g_yw1 = 4/D^2, det < 0
    indefinite = np.array([[[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]])
    assert _plane_cosh(g4, definite, definite) == pytest.approx(1.0, abs=1e-15)
    for p_basis, q_basis in ((indefinite, definite), (definite, indefinite)):
        message = "boundary tangent plane is not definite"
        assert _refused(_cholesky_plane_cosh, g4, p_basis, q_basis) == message
        assert _refused(_plane_cosh, g4, p_basis, q_basis) == message
    # one indefinite plane in a batch refuses the batch
    batch = np.concatenate([definite, indefinite, definite])
    assert _refused(_plane_cosh, np.repeat(g4, 3, axis=0),
                    batch, np.repeat(definite, 3, axis=0)) != ""


def test_plane_cosh_names_a_non_finite_plane():
    g4, p_basis, q_basis = _random_planes(6, 3)
    for where in ("g4", "p", "q"):
        args = {"g4": g4.copy(), "p": p_basis.copy(), "q": q_basis.copy()}
        args[where][1, 0, 0] = np.nan
        with pytest.raises(SignatureLossError, match="boundary tangent plane is not finite"):
            _plane_cosh(args["g4"], args["p"], args["q"])
    # the same through the boundary angle of a disc with a NaN tangent
    state, _ = nf.build_state({"grid_n": 11, "perturbation": 0.03})
    geo = nf.flow_geometry(state)
    geo["d1"][0, 4, 1, 2] = np.nan
    with pytest.raises(SignatureLossError, match="not finite"):
        nf.boundary_angle_cosh(state, geo)


def test_holomorphic_affine_disc_is_stationary():
    state, _ = nf.build_state({"disc": "holomorphic-affine", "grid_n": 15})
    geo = nf.flow_geometry(state)
    assert np.max(np.abs(nf.mean_curvature_vector(geo))) < 1e-8
    # stationary to 1e-10 per step
    before = state.f.copy()
    nf.flow_step(state, geo)
    assert np.max(np.abs(state.f - before)) < 1e-10


def test_mean_curvature_is_normal():
    state, _ = nf.build_state({"grid_n": 15, "perturbation": 0.05})
    geo = nf.flow_geometry(state)
    assert geo["normal_residual"] < 1e-8


def test_twisted_hemisphere_run_area_monotone_margin_positive():
    state, _ = nf.run_flow({"grid_n": 15, "steps": 120, "perturbation": 0.05})
    assert state.halted == ""
    areas = np.array([d.area for d in state.diagnostics])
    assert np.all(np.diff(areas) >= -1e-10)
    assert min(d.margin for d in state.diagnostics) > 0
    assert max(d.normal_residual for d in state.diagnostics) < 1e-8


def test_flow_decreases_mean_curvature():
    state, _ = nf.run_flow({"grid_n": 15, "steps": 100, "perturbation": 0.05})
    d = state.diagnostics
    assert d[-1].max_h < 0.5 * d[1].max_h


def test_zero_budget_returns_initial_diagnostics():
    state, _ = nf.run_flow({"grid_n": 11, "steps": 0, "perturbation": 0.03})
    assert len(state.diagnostics) == 1
    assert state.diagnostics[0].step == 0
    assert state.diagnostics[0].time == 0.0


def test_dbar_schedule_recorded():
    state, _ = nf.run_flow({"grid_n": 11, "steps": 10, "perturbation": 0.03,
                            "dbar_c": 2.0})
    for k, d in enumerate(state.diagnostics):
        assert d.dbar_target == pytest.approx(2.0 / (1.0 + d.time), rel=1e-12)
        assert np.isfinite(d.dbar_norm)


@pytest.mark.parametrize("centre", [(0.0, 0.0, 1.0), (0.3, -0.5, 0.8)])
def test_dbar_defect_vanishes_on_holomorphic_discs(centre):
    # fiber-affine discs are holomorphic: every tangent plane is complex, so
    # the boundary defect of the start state vanishes to rounding
    for disc in ("twisted-hemisphere", "holomorphic-affine"):
        state, _ = nf.build_state({"grid_n": 15, "center": centre, "disc": disc})
        geo = nf.flow_geometry(state)
        assert nf.dbar_boundary_norm(state, geo) <= 1e-13, disc
        assert _lifted_dbar_norm(state, geo) <= 1e-13, disc
    # a non-holomorphic bump tilts the boundary planes off complex ones
    state, _ = nf.build_state({"grid_n": 15, "center": centre, "perturbation": 0.05})
    assert nf.dbar_boundary_norm(state, nf.flow_geometry(state)) > 1e-2
    # the scans' reading of psi, on the samples of the chart's sections:
    # an affine one, and the zero section twisted about the chart centre
    chart = nf.LineSpaceChart(centre)
    axis = np.linspace(-0.5, 0.5, 9)
    sections = [nf.affine_section(chart, c0=(0.05, -0.02), c1=(0.3, -1.0)),
                ls.TwistedSection(nf.affine_section(chart), 1.0, chart.center)]
    for section in sections:
        u, _, du, dV = section.eval(axis[:, None], axis[None, :])
        psi = ls.defect_psi(ls.sphere_frame(u, chart.center), du, dV)
        assert psi.shape == (9, 9)
        assert np.max(np.abs(psi)) <= 1e-13, type(section).__name__


def test_step_halving_first_order():
    # halving h changes the state at fixed time by O(h)
    base = {"grid_n": 13, "perturbation": 0.05}
    state_h, _ = nf.run_flow({**base, "h": 4e-4, "steps": 50})
    state_h2, _ = nf.run_flow({**base, "h": 2e-4, "steps": 100})
    state_h4, _ = nf.run_flow({**base, "h": 1e-4, "steps": 200})
    diff_1 = np.max(np.abs(state_h.f - state_h2.f))
    diff_2 = np.max(np.abs(state_h2.f - state_h4.f))
    assert 0.3 < diff_1 / (2 * diff_2) < 1.7  # ratio ~1 for a first-order scheme


def test_angle_penalty_residual_decreases():
    state, _ = nf.build_state({"grid_n": 13, "perturbation": 0.04,
                               "angle_rate": 0.2})
    geo = nf.flow_geometry(state)
    vals = nf.boundary_angle_cosh(state, geo)
    state.cosh_target = float(np.mean(vals)) + 0.002
    history = [float(np.mean(np.abs(vals - state.cosh_target)))]
    for _ in range(20):
        residual, geo = nf.angle_penalty_step(state, geo)
        history.append(residual)
    tail = history[3:15]
    assert all(tail[i + 1] <= tail[i] + 1e-12 for i in range(len(tail) - 1))
    assert history[15] < 0.3 * history[0]


def test_boundary_stays_on_section():
    state, _ = nf.run_flow({"grid_n": 13, "steps": 30, "perturbation": 0.05})
    mask = _boundary_mask(state.shape)
    xb, yb = state.f[mask][:, 0], state.f[mask][:, 1]
    w1, w2 = state.section.fiber(xb, yb)
    assert np.max(np.abs(state.f[mask][:, 2] - w1)) < 1e-14
    assert np.max(np.abs(state.f[mask][:, 3] - w2)) < 1e-14


def test_signature_loss_halts_with_state_preserved():
    state, _ = nf.build_state({"grid_n": 11, "twist_strength": 0.05,
                               "perturbation": 0.2})
    snapshot = state.f.copy()
    with pytest.raises(SignatureLossError):
        nf.flow_step(state, nf.flow_geometry(state))
    assert np.array_equal(state.f, snapshot)  # failure leaves the state intact


def test_run_flow_reports_halt_reason():
    state, _ = nf.run_flow({"grid_n": 11, "twist_strength": 0.05,
                            "perturbation": 0.2, "steps": 200})
    assert "SignatureLossError" in state.halted or "ChartDomainError" in state.halted


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="valid keys"):
        nf.build_state({"grid_m": 11})
    with pytest.raises(ConfigError, match="valid keys"):
        nf.build_state({"seed": 0})
    with pytest.raises(ConfigError):
        nf.build_state({"chart_radius": 1.5})
    with pytest.raises(ConfigError):
        nf.build_state({"disc": "no-such-disc"})
    for key, value in (("steps", -1), ("snapshot_every", -1), ("steps", 2.5)):
        with pytest.raises(ConfigError, match=f"{key} must be a non-negative integer"):
            nf.build_state({"grid_n": 9, key: value})


def test_stagnation_stops_early():
    state, _ = nf.run_flow({"disc": "holomorphic-affine", "grid_n": 11,
                            "steps": 50, "stagnation_tol": 1e-8})
    assert state.halted == "stagnation"
    assert len(state.diagnostics) < 10


def _counting(monkeypatch, name, owner=nf):
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(1)
        return original(*args)
    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("angle_rate, per_step", [(0.0, 1), (0.2, 2)])
def test_run_flow_evaluates_geometry_once_per_new_state(monkeypatch, angle_rate, per_step):
    # one evaluation of the start state, then one per state a step keeps:
    # the post-step state, plus the moved state before an angle nudge;
    # every nudge goes through the one public penalty step
    calls = _counting(monkeypatch, "flow_geometry")
    nudges = _counting(monkeypatch, "angle_penalty_step")
    steps = 4
    state, _ = nf.run_flow({"grid_n": 11, "steps": steps, "perturbation": 0.03,
                            "angle_rate": angle_rate})
    assert state.halted == "" and len(state.diagnostics) == steps + 1
    assert len(calls) == 1 + per_step * steps
    assert len(nudges) == (per_step - 1) * steps


@pytest.mark.parametrize("angle_rate", [0.0, 0.2])
def test_reused_geometry_matches_recomputed(angle_rate):
    cfg = {"grid_n": 11, "steps": 5, "perturbation": 0.04, "angle_rate": angle_rate}
    reused, _ = nf.run_flow(cfg)
    fresh, _ = nf.build_state(cfg)
    # fixes the angle target, as run_flow's first row does
    nf.angle_residual(fresh, nf.flow_geometry(fresh))
    for _ in range(cfg["steps"]):
        nf.flow_step(fresh, nf.flow_geometry(fresh))  # recomputes the pre-step geometry
    assert len(reused.diagnostics) == len(fresh.diagnostics) + 1
    for a, b in zip(reused.diagnostics[1:], fresh.diagnostics):
        # the hand loop has no step-0 row, so its step numbers run one behind
        assert a.step == b.step + 1
        assert np.array_equal(a.as_row()[1:], b.as_row()[1:], equal_nan=True)
    assert np.array_equal(reused.f, fresh.f)


def test_nan_fiber_is_signature_loss_with_state_intact():
    state, _ = nf.build_state({"grid_n": 11, "perturbation": 0.03})
    state.f[5, 5, 2] = np.nan
    snapshot = state.f.copy()
    with pytest.raises(SignatureLossError, match="not finite"):
        nf.flow_step(state, nf.flow_geometry(state))
    assert np.array_equal(state.f, snapshot, equal_nan=True)


def test_nan_fiber_sample_halts_run_flow_without_a_warning(monkeypatch):
    # the plane arithmetic runs with floating-point warnings off: the NaN
    # reaches the margin, which names it, under -W error::RuntimeWarning
    build = nf.build_state

    def with_nan(*args, **kwargs):
        state, cfg = build(*args, **kwargs)
        state.f[5, 5, 2] = np.nan
        return state, cfg
    monkeypatch.setattr(nf, "build_state", with_nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        state, _ = nf.run_flow({"grid_n": 11, "steps": 5, "perturbation": 0.03})
    assert state.halted.startswith("SignatureLossError: induced metric is not finite")
    assert state.diagnostics == []


def test_nan_chart_coordinate_is_chart_domain_error():
    state, _ = nf.build_state({"grid_n": 11, "perturbation": 0.03})
    state.f[0, 4, 0] = np.nan
    with pytest.raises(ChartDomainError, match="boundary sample is not finite"):
        nf.project_boundary(state)
    # a non-finite step length drives every interior x to NaN
    state, _ = nf.build_state({"grid_n": 11, "perturbation": 0.03})
    state.h = float("nan")
    with pytest.raises(ChartDomainError, match="interior sample is not finite"):
        nf.flow_step(state, nf.flow_geometry(state))


# -- the boundary ring, built once per run ------------------------------------

def _boundary_mask(shape):
    """Every sample on the edge of the grid."""
    mask = np.ones(shape, dtype=bool)
    mask[1:-1, 1:-1] = False
    return mask


@pytest.mark.parametrize("shape", [(5, 5), (17, 17), (9, 13), (13, 7)])
def test_edge_indices_are_the_non_corner_ring_with_inward_neighbours(shape):
    ii, jj, ni, nj = nf._edge_indices(shape)
    ring = _boundary_mask(shape)
    edge = ring.copy()
    edge[[0, 0, -1, -1], [0, -1, 0, -1]] = False
    assert sorted(zip(ii, jj)) == sorted(zip(*np.nonzero(edge)))
    assert np.all(np.abs(ni - ii) + np.abs(nj - jj) == 1)
    assert not np.any(ring[ni, nj])


def _ring_tangents(state, geo):
    """The ring's directions u, embedding differential D and the disc's d1
    there, from scratch."""
    ii, jj = np.nonzero(_boundary_mask(state.shape))
    u, _, diff = state.section.chart.embed_differential(state.f[ii, jj])
    return u, diff, geo["d1"][ii, jj]


def _uncached_dbar_norm(state, geo):
    """dbar_boundary_norm from scratch: the products of a fresh embedding
    differential and a fresh sphere frame, through ``nf._ring_products``,
    with each frame component picked out by its index."""
    u, diff, t = _ring_tangents(state, geo)
    frame_w, gram = nf._ring_products(diff, ls.sphere_frame(u, tuple(state.section.chart.center)))
    tw = t @ frame_w                  # tw[m, k, 2 * (u or v) + (e1 or e2)]
    parts = [tw[:, k, 2 * h + e] for k in (0, 1) for h in (0, 1) for e in (0, 1)]
    psi = ls._psi_from_parts(parts, np.sqrt(np.einsum("mka,mka->km", t @ gram, t)))
    return float(np.max(np.abs(psi)))


def _lifted_dbar_norm(state, geo):
    """max |defect_psi| of the ring tangents lifted through a fresh
    embedding differential, in a fresh sphere frame."""
    u, diff, t = _ring_tangents(state, geo)
    lifted = t @ diff
    psi = ls.defect_psi(ls.sphere_frame(u, tuple(state.section.chart.center)),
                        lifted[..., :3], lifted[..., 3:])
    return float(np.max(np.abs(psi)))


def _fresh_edge_planes(state):
    """The chart metric and the section basis at the non-corner boundary
    samples, from scratch."""
    ii, jj, _, _ = nf._edge_indices(state.shape)
    pts = state.f[ii, jj]
    _, dw = state.section.fiber_with_partials(pts[:, 0], pts[:, 1])
    sec_basis = np.zeros((len(ii), 2, 4))
    sec_basis[:, 0, 0] = sec_basis[:, 1, 1] = 1.0
    sec_basis[:, :, 2:] = dw
    return state.section.chart.metric(pts), sec_basis


def _uncached_angle_cosh(state, geo, plane_cosh=_plane_cosh):
    """boundary_angle_cosh from scratch: a fresh chart metric and section
    basis."""
    ii, jj, _, _ = nf._edge_indices(state.shape)
    g4, sec_basis = _fresh_edge_planes(state)
    return plane_cosh(g4, geo["d1"][ii, jj], sec_basis)


def _assert_ring_edge_data_fresh(state):
    """The ring's edge metric, G Q^T and det(Q G Q^T) equal chart.metric
    and fresh products with a fresh section basis."""
    ring = nf._ring(state)
    g4, sec_basis = _fresh_edge_planes(state)
    gq = g4 @ np.swapaxes(sec_basis, -1, -2)
    qgq = sec_basis @ gq
    assert np.array_equal(ring.edge_metric, g4)
    assert np.array_equal(ring.edge_gq, gq)
    assert np.array_equal(ring.edge_q_det, qgq[:, 0, 0] * qgq[:, 1, 1] - qgq[:, 0, 1] * qgq[:, 1, 0])


def _assert_ring_matches_oracle(state):
    geo = nf.flow_geometry(state)
    assert nf.dbar_boundary_norm(state, geo) == _uncached_dbar_norm(state, geo)
    assert np.array_equal(nf.boundary_angle_cosh(state, geo),
                          _uncached_angle_cosh(state, geo))
    _assert_ring_edge_data_fresh(state)


@pytest.mark.parametrize("angle_rate", [0.0, 0.2])
def test_ring_diagnostics_match_the_uncached_oracle(angle_rate):
    state, _ = nf.build_state(kvdoc.load(FLOW_KV), angle_rate=angle_rate)
    _assert_ring_matches_oracle(state)
    ring = state.ring
    geo = nf.flow_geometry(state)
    nf.angle_residual(state, geo)
    for _ in range(20):
        geo = nf.flow_step(state, geo)
    assert state.halted == "" and len(state.diagnostics) == 20
    assert state.ring is ring  # the snapped ring never moved
    # its edge metric, G Q^T and det(Q G Q^T) still equal fresh ones
    _assert_ring_matches_oracle(state)
    assert state.diagnostics[-1].dbar_norm == _uncached_dbar_norm(state, geo)


@pytest.mark.parametrize("angle_rate, steps", [(0.0, 20), (0.2, 6)])
def test_dbar_norm_equals_defect_psi_of_the_lifted_ring_tangents(angle_rate, steps):
    # the ring's products contract the lift through the embedding
    # differential and the frame projection once; every row agrees with
    # the lifted route to rounding (on the holomorphic discs both vanish:
    # test_dbar_defect_vanishes_on_holomorphic_discs)
    state, _ = nf.build_state(kvdoc.load(FLOW_KV), angle_rate=angle_rate)
    geo = nf.flow_geometry(state)
    nf.angle_residual(state, geo)
    rows = [(nf.dbar_boundary_norm(state, geo), _lifted_dbar_norm(state, geo))]
    for _ in range(steps):
        geo = nf.flow_step(state, geo)
        rows.append((state.diagnostics[-1].dbar_norm, _lifted_dbar_norm(state, geo)))
    assert state.halted == "" and len(state.diagnostics) == steps
    for got, want in rows:
        assert abs(got - want) <= 1e-14 * want


@pytest.mark.parametrize("angle_rate", [0.0, 0.2])
def test_a_row_calls_no_lift_frame_or_defect_psi(monkeypatch, angle_rate):
    # once the ring is built, a row reads the ring's products alone
    state, _ = nf.build_state(kvdoc.load(FLOW_KV), angle_rate=angle_rate)
    geo = nf.flow_geometry(state)
    nf.angle_residual(state, geo)
    calls = [_counting(monkeypatch, "embed_differential", nf.LineSpaceChart)]
    # each name wherever it is bound
    calls += [_counting(monkeypatch, name, owner) for name in ("sphere_frame", "defect_psi")
              for owner in (ls, nf) if hasattr(owner, name)]
    for _ in range(3):
        geo = nf.flow_step(state, geo)
    assert state.halted == "" and len(state.diagnostics) == 3
    assert [len(c) for c in calls] == [0] * len(calls)


@pytest.mark.parametrize("disc", ["twisted-hemisphere", "holomorphic-affine"])
@pytest.mark.parametrize("angle_rate, steps", [(0.0, 20), (0.2, 6)])
def test_steps_never_write_the_boundary_ring(disc, angle_rate, steps):
    state, _ = nf.build_state(kvdoc.load(FLOW_KV), disc=disc, angle_rate=angle_rate)
    start = state.f.copy()
    geo = nf.flow_geometry(state)
    nf.angle_residual(state, geo)
    for _ in range(steps):
        geo = nf.flow_step(state, geo)
    assert state.halted == "" and len(state.diagnostics) == steps
    mask = _boundary_mask(state.shape)
    assert state.f[mask].tobytes() == start[mask].tobytes()
    if disc == "twisted-hemisphere":
        assert not np.array_equal(state.f[~mask], start[~mask])
    # the ring is still the target section's, bit for bit
    final = state.f.copy()
    nf.project_boundary(state)
    assert state.f.tobytes() == final.tobytes()


def test_a_ring_off_the_chart_halts_before_the_first_row():
    # the corners of a square of half width 0.70 sit at chart radius 0.99,
    # outside the chart limit; at 0.71 they are past the hemisphere's edge,
    # where the disc's definiteness is lost too, but the ring is the cause;
    # it is a refused config, raised before the first row, not a halt
    for radius in (0.70, 0.71):
        with pytest.raises(ChartDomainError,
                           match="^boundary sample ran off the hemisphere chart$"):
            nf.run_flow({"grid_n": 11, "chart_radius": radius, "steps": 3})


def test_a_non_definite_target_section_is_refused_when_the_ring_is_built():
    # det(Q G Q^T) of the target's tangent basis is ring data: checked once,
    # where the ring's products are formed
    state, _ = nf.build_state({"grid_n": 9})
    geo = nf.flow_geometry(state)
    # w2 = -5 x: Q G Q^T = diag(alpha + 10 beta, alpha) with alpha < 0 < beta
    # on the twisted ring, an indefinite plane
    state.section = nf.ChartSection(lambda x, y: (0.0 * x, -5.0 * x), state.section.chart)
    with pytest.raises(SignatureLossError, match="boundary tangent plane is not definite"):
        nf.boundary_angle_cosh(state, geo)
    assert state.ring is None


@pytest.mark.parametrize("angle_rate", [0.0, 0.2])
def test_run_flow_builds_its_boundary_ring_once(monkeypatch, angle_rate):
    embeds = _counting(monkeypatch, "embed_differential", nf.LineSpaceChart)
    bases = _counting(monkeypatch, "fiber_with_partials", nf.ChartSection)
    frames = _counting(monkeypatch, "sphere_frame")
    state, _ = nf.run_flow({"grid_n": 11, "steps": 20, "perturbation": 0.03,
                            "angle_rate": angle_rate})
    assert state.halted == "" and len(state.diagnostics) == 21
    assert (len(embeds), len(bases), len(frames)) == (1, 1, 1)


def test_moving_the_ring_rebuilds_it():
    state, _ = nf.build_state(kvdoc.load(FLOW_KV))
    _assert_ring_matches_oracle(state)
    ring = state.ring
    # an interior move keeps the ring
    state.f[5, 5, 2] += 1e-3
    _assert_ring_matches_oracle(state)
    assert state.ring is ring
    # a ring fiber moved in place
    state.f[0, 4, 2] += 1e-3
    _assert_ring_matches_oracle(state)
    assert state.ring is not ring
    # a copy made through dataclasses.replace, with a ring fiber moved;
    # the original keeps its own record
    ring = state.ring
    moved = dataclasses.replace(state, f=state.f.copy())
    moved.f[4, 0, 3] -= 1e-3
    _assert_ring_matches_oracle(moved)
    _assert_ring_matches_oracle(state)
    assert moved.ring is not ring and state.ring is ring
    # another target section, with the ring samples unchanged: the same
    # edge metric and new products
    state.section = nf.affine_section(state.section.chart, c1=(0.0, -0.8))
    _assert_ring_matches_oracle(state)
    assert np.array_equal(state.ring.edge_metric, ring.edge_metric)
    assert not np.array_equal(state.ring.edge_gq, ring.edge_gq)
    assert not np.array_equal(state.ring.edge_q_det, ring.edge_q_det)
