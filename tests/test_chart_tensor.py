"""Metric fields, Christoffel symbols, bump profile, and L2 distances."""

import dataclasses
import os
import re

import numpy as np
import pytest

from geomlab import chart_tensor as ct
from geomlab import kernels
from geomlab.errors import ChartDomainError, MetricParameterError

RNG = np.random.default_rng(42)
DEFORMED_KV = os.path.join(os.path.dirname(__file__), "..", "docs", "examples",
                           "deformed_round.kv")


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
    assert np.allclose(flat.matrix([0.3, -2.0, 7.0]), np.eye(3))


def test_deformed_metric_components_at_quarter_pi():
    g = ct.metric_by_name("hopf-eps", eps=0.3)
    m = g.matrix([np.pi / 4, 1.0, 2.0])[0]
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


def test_parameter_errors():
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
        assert bump(np.pi / 4) == 1.0
        assert bump(np.pi / 4 + eps / 5) == 1.0
        assert bump(np.pi / 4 + eps) == 0.0
        assert bump(np.pi / 4 - 0.9 * eps) == 0.0
        mid = bump(np.pi / 4 + 0.375 * eps)
        assert 0.0 < mid < 1.0


def test_bump_profile_continuity_at_seams():
    bump = ct.BumpProfile(0.3)
    for seam in (0.25 * 0.3, 0.5 * 0.3):
        for side in (seam - 1e-9, seam + 1e-9):
            lo = bump(np.pi / 4 + side)
            hi = bump(np.pi / 4 + seam)
            assert abs(lo - hi) < 1e-6
    # tighter check: values straddling each seam within 1e-13
    for seam in (0.25 * 0.3, 0.5 * 0.3):
        a = bump(np.pi / 4 + seam * (1 - 1e-13))
        b = bump(np.pi / 4 + seam * (1 + 1e-13))
        assert abs(a - b) < 1e-12


def test_bump_profile_monotone_transition():
    bump = ct.BumpProfile(0.2)
    rho = np.pi / 4 + np.linspace(0.05, 0.1, 200)
    vals = bump(rho)
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
    vals = kernels.tensor_norm_sq_batch(ginv, delta)
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
        val = ct.l2_metric_distance(ground, bumped, ground, grid=(384, 16, 16))
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


# -- depends_on declares what the components read, it changes no value -------

def pointwise(metric):
    """The same metric declared to read every coordinate."""
    return dataclasses.replace(metric, depends_on=(0, 1, 2))


def orbit_points(rng=RNG):
    """A 24 x 24 Clifford-torus grid (rho = pi/4), then 40 points on each of
    seven rho values across the bump's transition band, in random order."""
    th = 2 * np.pi * np.arange(24) / 24
    t1, t2 = np.meshgrid(th, th, indexing="ij")
    torus = np.stack([np.full(t1.size, np.pi / 4), t1.ravel(), t2.ravel()], axis=1)
    rho = np.pi / 4 + np.array([-0.14, -0.1, -0.06, 0.0, 0.03, 0.08, 0.13])
    band = np.stack([np.repeat(rho, 40), rng.uniform(0, 2 * np.pi, 280),
                     rng.uniform(0, 2 * np.pi, 280)], axis=1)
    return np.concatenate([torus, rng.permutation(band)])


def t2_invariant_metrics():
    return [ct.metric_by_name("hopf-eps-bumped", eps=0.3), ct.load_metric(DEFORMED_KV)]


def test_orbit_reduced_evaluation_is_bit_identical():
    pts = orbit_points()
    for metric in t2_invariant_metrics():
        assert metric.depends_on == (0,)
        full = pointwise(metric)
        assert np.array_equal(metric.matrix(pts), full.matrix(pts))
        for a, b in zip(metric.matrix_and_partials(pts), full.matrix_and_partials(pts)):
            assert np.array_equal(a, b)
        assert np.array_equal(ct.christoffel(metric, pts), ct.christoffel(full, pts))
        ground = ct.metric_by_name("round-s3")
        for args in ((ground, metric, ground), (metric, ground, metric)):
            reduced = ct.l2_metric_distance(*args, grid=(48, 8, 8))
            assert reduced > 0
            assert reduced == ct.l2_metric_distance(*map(pointwise, args), grid=(48, 8, 8))


def test_built_in_families_read_only_their_declared_coordinates():
    rng = np.random.default_rng(11)
    families = [("flat-r3", {}, ()), ("round-s3", {}, (0,)), ("hopf-eps", {"eps": 0.6}, (0,)),
                ("hopf-eps-bumped", {"eps": 0.3}, (0,)), ("hopf-eps-bumped", {"eps": 0.0}, (0,))]
    for name, kw, declared in families:
        metric = ct.metric_by_name(name, **kw)
        assert metric.depends_on == declared
        assert metric.constant == (declared == ())
        pts = hopf_points(500, rng)
        if name == "hopf-eps-bumped":  # half the points inside the bump's band
            pts[::2, 0] = np.pi / 4 + rng.uniform(-0.15, 0.15, 250)
        # jets of every coordinate, whatever the family declares
        _, dg = pointwise(metric).matrix_and_partials(pts)
        undeclared = [k for k in range(3) if k not in metric.depends_on]
        assert np.all(dg[:, undeclared] == 0.0), name


def test_metric_files_depend_on_the_coordinates_they_read(tmp_path):
    assert ct.load_metric(DEFORMED_KV).depends_on == (0,)
    twisted = tmp_path / "twisted.kv"
    twisted.write_text("chart = hopf\ng11 = 1\ng22 = sin(rho)^2\n"
                       "g33 = cos(rho)^2 + 0.1*sin(theta1)^2\n")
    assert ct.load_metric(twisted).depends_on == (0, 1)
    constant = tmp_path / "constant.kv"
    constant.write_text("chart = cartesian\ng11 = 2\ng22 = 1\ng33 = 1\ng12 = 0.5\n")
    metric = ct.load_metric(constant)
    assert metric.depends_on == () and metric.constant
    pts = RNG.normal(size=(20, 3))
    assert np.array_equal(metric.matrix(pts), pointwise(metric).matrix(pts))
    # a metric reading two coordinates reduces over pairs of them
    pts = orbit_points()
    pts[:, 1] = np.round(pts[:, 1], 1)
    reduced, full = ct.load_metric(twisted), pointwise(ct.load_metric(twisted))
    assert np.array_equal(ct.christoffel(reduced, pts), ct.christoffel(full, pts))


def test_singular_orbit_is_named_by_its_first_input_point(tmp_path):
    # det g <= 0 where rho < 0.7: the refusal names the first such input row,
    # as the pointwise evaluation does
    path = tmp_path / "half_singular.kv"
    path.write_text("chart = hopf\ng11 = rho - 0.7\ng22 = sin(rho)^2\ng33 = cos(rho)^2\n")
    metric = ct.load_metric(path)
    pts = RNG.permutation(orbit_points())[:300]
    pts[:, 0] = np.where(np.arange(300) % 3 == 1, 0.5, pts[:, 0])
    pts[0, 0] = 1.0
    messages = []
    for m in (metric, pointwise(metric)):
        with pytest.raises(MetricParameterError, match="singular or not finite") as err:
            ct.christoffel(m, pts)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    named = re.search(r"at point \(([^)]*)\)", messages[0]).group(1)
    named = [float(x) for x in named.split(",")]
    first_bad = pts[np.argmax(pts[:, 0] < 0.7)]
    assert np.array_equal(named, first_bad)
