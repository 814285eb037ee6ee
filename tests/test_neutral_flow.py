"""Codimension-two mean curvature flow: stationarity, monotonicity, controls."""

import numpy as np
import pytest

from geomlab import neutral_flow as nf
from geomlab.errors import ChartDomainError, ConfigError, SignatureLossError


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
