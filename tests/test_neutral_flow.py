"""Codimension-two mean curvature flow: stationarity, monotonicity, controls."""

import dataclasses
import os

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
    u, V = chart.embed(pts)
    u_ref = np.stack(ls.stereo_to_sphere(x, y, chart.center), axis=-1)
    e1, e2 = ls.sphere_frame(u_ref, chart.center)
    beta = 2.0 / (1.0 + x * x + y * y)
    v_ref = beta[:, None] * (w1[:, None] * e1 + w2[:, None] * e2)
    assert np.max(np.abs(u - u_ref)) < 1e-15
    assert np.max(np.abs(V - v_ref)) < 1e-14


@pytest.mark.parametrize("centre", CENTRES)
def test_embed_differential_matches_central_differences(centre):
    chart = nf.LineSpaceChart(centre)
    pts = _chart_points(2, 50)
    u, V, diff = chart.embed_differential(pts)
    u0, v0 = chart.embed(pts)
    assert np.array_equal(u, u0) and np.array_equal(V, v0)
    h = 1e-6
    for a in range(4):
        step = np.zeros(4)
        step[a] = h
        up, vp = chart.embed(pts + step)
        um, vm = chart.embed(pts - step)
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


def test_angle_gradient_matches_one_node_differences():
    # each boundary sample's gradient against moving only its own
    # first-interior node and re-evaluating the whole geometry
    state, _ = nf.build_state(kvdoc.load(FLOW_KV))
    geo = nf.flow_geometry(state)
    base = nf.boundary_angle_cosh(state, geo)
    grads = nf._angle_gradient(state, geo, base, probe=1e-6)
    _, _, ni, nj = nf._edge_indices(state.shape)
    brute = np.empty_like(grads)
    for m in range(len(base)):
        for k in range(2):
            moved = dataclasses.replace(state, f=state.f.copy())
            moved.f[ni[m], nj[m], 2 + k] += 1e-6
            vals = nf.boundary_angle_cosh(moved, nf.flow_geometry(moved))
            brute[m, k] = (vals[m] - base[m]) / 1e-6
    assert np.max(np.abs(brute)) > 1.0
    assert np.max(np.abs(grads - brute)) < 1e-8


def test_holomorphic_affine_disc_is_stationary():
    state, _ = nf.build_state({"disc": "holomorphic-affine", "grid_n": 15})
    h_field, geo = nf.mean_curvature_vector(state)
    assert np.max(np.abs(h_field)) < 1e-8
    # stationary to 1e-10 per step
    before = state.f.copy()
    nf.flow_step(state)
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
        history.append(nf.angle_penalty_step(state))
    tail = history[3:15]
    assert all(tail[i + 1] <= tail[i] + 1e-12 for i in range(len(tail) - 1))
    assert history[15] < 0.3 * history[0]


def test_boundary_stays_on_section():
    state, _ = nf.run_flow({"grid_n": 13, "steps": 30, "perturbation": 0.05})
    mask = nf.boundary_mask(state.shape)
    xb, yb = state.f[mask][:, 0], state.f[mask][:, 1]
    w1, w2 = state.section.fiber(xb, yb)
    assert np.max(np.abs(state.f[mask][:, 2] - w1)) < 1e-14
    assert np.max(np.abs(state.f[mask][:, 3] - w2)) < 1e-14


def test_signature_loss_halts_with_state_preserved():
    state, _ = nf.build_state({"grid_n": 11, "twist_strength": 0.05,
                               "perturbation": 0.2})
    snapshot = state.f.copy()
    with pytest.raises(SignatureLossError):
        nf.flow_step(state)
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


def test_stagnation_stops_early():
    state, _ = nf.run_flow({"disc": "holomorphic-affine", "grid_n": 11,
                            "steps": 50, "stagnation_tol": 1e-8})
    assert state.halted == "stagnation"
    assert len(state.diagnostics) < 10


def _counting_flow_geometry(monkeypatch):
    calls = []
    original = nf.flow_geometry

    def counted(state):
        calls.append(1)
        return original(state)
    monkeypatch.setattr(nf, "flow_geometry", counted)
    return calls


@pytest.mark.parametrize("angle_rate, per_step", [(0.0, 1), (0.2, 2)])
def test_run_flow_evaluates_geometry_once_per_new_state(monkeypatch, angle_rate, per_step):
    # one evaluation of the start state, then one per state a step keeps:
    # the post-step state, plus the projected state before an angle nudge
    calls = _counting_flow_geometry(monkeypatch)
    steps = 4
    state, _ = nf.run_flow({"grid_n": 11, "steps": steps, "perturbation": 0.03,
                            "angle_rate": angle_rate})
    assert state.halted == "" and len(state.diagnostics) == steps + 1
    assert len(calls) == 1 + per_step * steps


@pytest.mark.parametrize("angle_rate", [0.0, 0.2])
def test_reused_geometry_matches_recomputed(angle_rate):
    cfg = {"grid_n": 11, "steps": 5, "perturbation": 0.04, "angle_rate": angle_rate}
    reused, _ = nf.run_flow(cfg)
    fresh, _ = nf.build_state(cfg)
    nf.angle_residual(fresh)  # fixes the angle target, as run_flow's first row does
    for _ in range(cfg["steps"]):
        nf.flow_step(fresh)  # recomputes the pre-step geometry
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
        nf.flow_step(state)
    assert np.array_equal(state.f, snapshot, equal_nan=True)


def test_nan_chart_coordinate_is_chart_domain_error():
    state, _ = nf.build_state({"grid_n": 11, "perturbation": 0.03})
    state.f[0, 4, 0] = np.nan
    with pytest.raises(ChartDomainError, match="boundary sample is not finite"):
        nf.project_boundary(state)
    # a non-finite step length drives every interior x to NaN
    state, _ = nf.build_state({"grid_n": 11, "perturbation": 0.03})
    state.h = float("nan")
    with pytest.raises(ChartDomainError, match="interior sample is not finite"):
        nf.flow_step(state)
