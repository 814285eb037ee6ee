"""Metric fields, Christoffel symbols, bump profile, and L2 distances."""

import numpy as np
import pytest

from geomlab import chart_tensor as ct
from geomlab.errors import ChartDomainError, MetricParameterError

RNG = np.random.default_rng(42)


def hopf_points(n, rng=RNG):
    return np.stack([rng.uniform(0.05, np.pi / 2 - 0.05, n),
                     rng.uniform(0.0, 2 * np.pi, n),
                     rng.uniform(0.0, 2 * np.pi, n)], axis=1)


def fd_partials(metric, p, h=1e-5):
    out = np.zeros((3, 3, 3))
    for k in range(3):
        pp, pm = p.copy(), p.copy()
        pp[k] += h
        pm[k] -= h
        out[k] = (metric.matrix(pp[None])[0] - metric.matrix(pm[None])[0]) / (2 * h)
    return out


def test_flat_metric_is_identity():
    flat = ct.metric_by_name("flat-r3")
    assert np.allclose(ct.eval_metric(flat, [0.3, -2.0, 7.0]), np.eye(3))


def test_deformed_metric_components_at_quarter_pi():
    g = ct.metric_by_name("hopf-eps", eps=0.3)
    m = ct.eval_metric(g, [np.pi / 4, 1.0, 2.0])
    expected = np.array([[1.0, 0.0, 0.0],
                         [0.0, 0.5, 0.15],
                         [0.0, 0.15, 0.5]])
    assert np.allclose(m, expected, atol=1e-15)


def test_zero_deformation_is_the_round_metric():
    g0 = ct.metric_by_name("hopf-eps", eps=0.0)
    ground = ct.metric_by_name("round-s3")
    pts = hopf_points(200)
    assert np.allclose(g0.matrix(pts), ground.matrix(pts), atol=1e-15)


def test_metric_symmetry_and_positive_definiteness():
    for name, kw in (("round-s3", {}), ("hopf-eps", {"eps": 0.7}),
                     ("hopf-eps-bumped", {"eps": 0.4})):
        g = ct.metric_by_name(name, **kw)
        mats = g.matrix(hopf_points(300))
        assert np.allclose(mats, mats.transpose(0, 2, 1), atol=1e-15)
        assert np.all(np.linalg.eigvalsh(mats) > 0)


def test_domain_and_parameter_errors():
    g = ct.metric_by_name("hopf-eps", eps=0.5)
    with pytest.raises(ChartDomainError):
        ct.eval_metric(g, [-0.1, 0.0, 0.0])
    with pytest.raises(ChartDomainError):
        ct.eval_metric(g, [np.pi / 2 + 0.01, 0.0, 0.0])
    with pytest.raises(MetricParameterError):
        ct.metric_by_name("hopf-eps", eps=1.0)
    with pytest.raises(MetricParameterError):
        ct.metric_by_name("no-such-family")


def test_christoffel_flat_vanishes():
    flat = ct.metric_by_name("flat-r3")
    gam = ct.christoffel(flat, [1.0, 2.0, 3.0])
    assert np.allclose(gam, 0.0)


def test_christoffel_round_reference_value():
    # oracle: central finite differences of the metric components
    ground = ct.metric_by_name("round-s3")
    p = np.array([np.pi / 4, 0.3, 0.8])
    gam = ct.christoffel(ground, p)
    assert gam[0, 1, 1] == pytest.approx(-0.5, abs=1e-12)
    g, _ = ground.matrix_and_partials(p[None])
    dg = fd_partials(ground, p)
    ginv = np.linalg.inv(g[0])
    term = np.einsum("ijl->ijl", dg)  # d_k g_ij layout
    gamma_fd = np.zeros((3, 3, 3))
    for k in range(3):
        for i in range(3):
            for j in range(3):
                s = sum(ginv[k, l] * (dg[i, j, l] + dg[j, i, l] - dg[l, i, j])
                        for l in range(3))
                gamma_fd[k, i, j] = 0.5 * s
    assert np.allclose(gam, gamma_fd, atol=1e-7)


def test_christoffel_symmetric_in_lower_indices():
    g = ct.metric_by_name("hopf-eps", eps=0.3)
    gam = ct.christoffel(g, hopf_points(100))
    assert np.allclose(gam, gam.transpose(0, 1, 3, 2), atol=1e-15)


def test_analytic_partials_match_finite_differences():
    rng = np.random.default_rng(7)
    for name, kw in (("round-s3", {}), ("hopf-eps", {"eps": 0.35}),
                     ("hopf-eps-bumped", {"eps": 0.3})):
        g = ct.metric_by_name(name, **kw)
        pts = hopf_points(1000, rng)
        _, dg = g.matrix_and_partials(pts)
        for p, exact in zip(pts[::37], dg[::37]):
            fd = fd_partials(g, p)
            scale = np.max(np.abs(fd)) + 1.0
            assert np.max(np.abs(exact.transpose(0, 1, 2) - fd)) < 1e-6 * scale


def test_bump_profile_pieces():
    for eps in (0.1, 0.25, 0.5):
        bump = ct.BumpProfile(eps)
        assert ct.bump_profile(np.pi / 4, bump) == 1.0
        assert ct.bump_profile(np.pi / 4 + eps / 5, bump) == 1.0
        assert ct.bump_profile(np.pi / 4 + eps, bump) == 0.0
        assert ct.bump_profile(np.pi / 4 - 0.9 * eps, bump) == 0.0
        mid = ct.bump_profile(np.pi / 4 + 0.375 * eps, bump)
        assert 0.0 < mid < 1.0


def test_bump_profile_continuity_at_seams():
    bump = ct.BumpProfile(0.3)
    for seam in (0.25 * 0.3, 0.5 * 0.3):
        for side in (seam - 1e-9, seam + 1e-9):
            lo = ct.bump_profile(np.pi / 4 + side, bump)
            hi = ct.bump_profile(np.pi / 4 + seam, bump)
            assert abs(lo - hi) < 1e-6
    # tighter check: values straddling each seam within 1e-13
    for seam in (0.25 * 0.3, 0.5 * 0.3):
        a = ct.bump_profile(np.pi / 4 + seam * (1 - 1e-13), bump)
        b = ct.bump_profile(np.pi / 4 + seam * (1 + 1e-13), bump)
        assert abs(a - b) < 1e-12


def test_bump_profile_monotone_transition():
    bump = ct.BumpProfile(0.2)
    rho = np.pi / 4 + np.linspace(0.05, 0.1, 200)
    vals = ct.bump_profile(rho, bump)
    assert np.all(np.diff(vals) <= 1e-12)


def test_pointwise_norm_matches_hand_expansion():
    # only off-diagonal theta1-theta2 entries differ; raising with the round
    # metric gives |delta|^2 = 2 eps^2 sin^2 cos^2/(sin^2 cos^2) = 2 eps^2
    eps = 0.37
    ground = ct.metric_by_name("round-s3")
    deformed = ct.metric_by_name("hopf-eps", eps=eps)
    pts = np.array([[np.pi / 4, 0.2, 0.5], [0.6, 1.0, 2.0]])
    delta = ground.matrix(pts) - deformed.matrix(pts)
    ginv = np.linalg.inv(ground.matrix(pts))
    vals = ct.tensor_norm_sq(delta, ginv)
    assert vals[0] == pytest.approx(2 * eps ** 2, rel=1e-12)
    # brute-force four-index contraction oracle
    brute = np.zeros(len(pts))
    for n in range(len(pts)):
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    for l in range(3):
                        brute[n] += (ginv[n, i, k] * ginv[n, j, l]
                                     * delta[n, i, j] * delta[n, k, l])
    assert np.allclose(vals, brute, rtol=1e-12)


def test_l2_distance_properties():
    ground = ct.metric_by_name("round-s3")
    deformed = ct.metric_by_name("hopf-eps", eps=0.2)
    zero = ct.l2_metric_distance(ground, ground, ground, grid=(48, 12, 12))
    assert zero == pytest.approx(0.0, abs=1e-14)
    ab = ct.l2_metric_distance(ground, deformed, ground, grid=(48, 12, 12))
    ba = ct.l2_metric_distance(deformed, ground, ground, grid=(48, 12, 12))
    assert ab == pytest.approx(ba, rel=1e-12)
    assert ab > 0


def test_l2_distance_rejects_chart_mismatch():
    with pytest.raises(ChartDomainError):
        ct.l2_metric_distance(ct.metric_by_name("flat-r3"),
                              ct.metric_by_name("round-s3"),
                              ct.metric_by_name("round-s3"))


def test_bumped_distance_obeys_cubic_bound():
    ground = ct.metric_by_name("round-s3")
    for eps in (0.1, 0.2, 0.4):
        bumped = ct.metric_by_name("hopf-eps-bumped", eps=eps)
        val = ct.l2_metric_distance(ground, bumped, ground,
                                    grid=(384, 16, 16), gl_order=6)
        assert val <= 16 * np.pi ** 2 * eps ** 3


def test_custom_metric_from_expressions():
    entries = {"g11": "1", "g22": "sin(rho)^2", "g33": "cos(rho)^2",
               "g23": "0.25*sin(rho)*cos(rho)"}
    custom = ct.metric_from_expressions("hopf", entries)
    reference = ct.metric_by_name("hopf-eps", eps=0.25)
    pts = hopf_points(50)
    assert np.allclose(custom.matrix(pts), reference.matrix(pts), atol=1e-14)
    gam_a = ct.christoffel(custom, pts[:5])
    gam_b = ct.christoffel(reference, pts[:5])
    assert np.allclose(gam_a, gam_b, atol=1e-12)


def test_closed_form_inverse_and_determinant_match_linalg():
    rng = np.random.default_rng(7)
    for scale in (1e-3, 1.0, 1e3):
        a = rng.normal(size=(2000, 3, 3))
        g = scale * (a @ a.transpose(0, 2, 1) + 0.1 * np.eye(3))
        ginv, det = ct._sym3_inverse_det(g)
        ref = np.linalg.inv(g)
        err = np.max(np.abs(ginv - ref), axis=(1, 2))
        assert np.all(err <= 1e-12 * np.max(np.abs(ref), axis=(1, 2)))
        assert np.allclose(det, np.linalg.det(g), rtol=1e-12, atol=0.0)


def _nan_g33(x, y, z):
    return [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, np.nan]]


def test_singular_or_non_finite_metric_is_refused(tmp_path):
    path = tmp_path / "singular.kv"
    path.write_text("chart = hopf\ng11 = 1\ng22 = sin(rho)^2\ng33 = 0\n")
    singular = ct.load_metric(path)
    nan_metric = ct.MetricField("nan-g33", ct.CARTESIAN_CHART, _nan_g33)
    for metric, pts, domain in ((singular, hopf_points(4), None),
                                (nan_metric, RNG.normal(size=(4, 3)), [(-1.0, 1.0)] * 3)):
        with pytest.raises(MetricParameterError, match="singular or not finite at point"):
            ct.christoffel(metric, pts)
        with pytest.raises(MetricParameterError, match="singular or not finite at point"):
            ct.l2_metric_distance(metric, metric, metric, domain=domain, grid=(4, 4, 4))
