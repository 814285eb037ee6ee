"""Quadrature on the grid axes equals the flattened, pointwise grid.

``l2_metric_distance`` evaluates each metric on the open mesh of the
quadrature nodes, and ``_integrate`` passes the surface grid's axes in
blocks of whole s-rows.  The oracles here mesh and flatten the nodes,
evaluate every metric at every point, and sum once against the flattened
weights.
"""

import os
import re
import tracemalloc

import numpy as np
import pytest

from geomlab import chart_tensor as ct
from geomlab import jets, kernels
from geomlab import line_space as ls
from geomlab import quadrature
from geomlab import surface_geom as sg
from geomlab.errors import MetricParameterError

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "docs", "examples")
ROUND = ct.metric_by_name("round-s3")
FLAT = ct.metric_by_name("flat-r3")
DENSITIES = [sg._willmore_density, sg._area_density]


def flattened_nodes(chart, grid):
    """The quadrature nodes meshed and flattened (N, 3), and their weights."""
    rules = [quadrature.axis_rule(lo, hi, n, periodic)
             for (lo, hi), n, periodic in zip(ct._default_domain(chart), grid,
                                               chart.periodic)]
    mesh = np.meshgrid(*(r[0] for r in rules), indexing="ij")
    weights = np.einsum("i,j,k->ijk", *(r[1] for r in rules)).ravel()
    return np.stack([m.ravel() for m in mesh], axis=1), weights


def flattened_l2(g_a, g_b, background, grid):
    """The squared L2 distance over the meshed, flattened nodes, with every
    metric evaluated at every point and the inverse taken by linalg."""
    pts, weights = flattened_nodes(background.chart, grid)
    gb = background.matrix(pts)
    ginv = np.linalg.inv(gb)
    a = ginv @ (g_a.matrix(pts) - g_b.matrix(pts))
    norm_sq = np.einsum("nij,nji->n", a, a)
    return 2.0 * float(np.sum(norm_sq * np.sqrt(np.linalg.det(gb)) * weights))


def test_l2_distance_equals_the_pointwise_oracle(tmp_path):
    theta1 = tmp_path / "theta1.kv"
    theta1.write_text("chart = hopf\ng11 = 1\ng22 = sin(rho)^2\n"
                      "g33 = cos(rho)^2 + 0.1*sin(theta1)^2\n"
                      "g23 = 0.2*sin(rho)*cos(rho)*cos(theta1)\n")
    metrics = [ct.metric_by_name("hopf-eps-bumped", eps=0.3),
               ct.load_metric(os.path.join(EXAMPLES, "deformed_round.kv")),
               ct.load_metric(theta1)]
    assert [m.depends_on for m in metrics] == [(0,), (0,), (0, 1)]
    for metric in metrics:
        for args, grid in (((ROUND, metric, ROUND), (24, 8, 8)),
                           ((metric, ROUND, metric), (20, 6, 10))):
            got = ct.l2_metric_distance(*args, grid=grid)
            want = flattened_l2(*args, grid)
            assert want > 0
            assert abs(got - want) <= 1e-14 * want, (metric.name, got, want)
    assert ct.l2_metric_distance(ROUND, ROUND, ROUND, grid=(24, 8, 8)) == 0.0


def test_singular_metric_is_named_at_its_first_grid_point(tmp_path):
    # det g <= 0 where rho > 0.75 + cos(theta1)/10: first met, in C order of
    # the flattened grid, at a theta1 off the first node
    path = tmp_path / "half_singular.kv"
    path.write_text("chart = hopf\ng11 = 0.75 - rho + cos(theta1)/10\n"
                    "g22 = sin(rho)^2\ng33 = cos(rho)^2\n")
    metric = ct.load_metric(path)
    grid = (24, 8, 6)
    with pytest.raises(MetricParameterError, match="singular or not finite") as err:
        ct.l2_metric_distance(ROUND, ROUND, metric, grid=grid)
    pts, _ = flattened_nodes(metric.chart, grid)
    first_bad = pts[np.argmax(np.linalg.det(metric.matrix(pts)) <= 0)]
    assert first_bad[1] > 0.0
    named = re.search(r"at point \(([^)]*)\)", str(err.value)).group(1)
    assert [float(x) for x in named.split(",")] == first_bad.tolist()


def test_rho_only_metric_is_evaluated_on_the_rho_axis():
    bumped = ct.metric_by_name("hopf-eps-bumped", eps=0.3)
    args, entries = [], []

    def components(rho, th1, th2):
        args.append((np.shape(rho), np.shape(th1), np.shape(th2)))
        rows = bumped.components(rho, th1, th2)
        entries.extend(np.shape(e) for row in rows for e in row)
        return rows
    counted = ct.MetricField("counted", ct.HOPF_CHART, components, depends_on=(0,))
    grid = (24, 8, 6)
    got = ct.l2_metric_distance(ROUND, counted, ROUND, grid=grid)
    assert got == ct.l2_metric_distance(ROUND, bumped, ROUND, grid=grid) > 0
    assert args == [((24, 1, 1), (1, 8, 1), (1, 1, 6))]
    assert set(entries) == {(), (24, 1, 1)}


def unblocked_l2(g_a, g_b, background, grid):
    """The squared L2 distance with every metric evaluated on the whole open
    mesh at once, in one block."""
    chart = background.chart
    rules = [quadrature.axis_rule(lo, hi, n, periodic)
             for (lo, hi), n, periodic in zip(ct._default_domain(chart), grid,
                                               chart.periodic)]
    coords, weights = quadrature.tensor_nodes(rules)
    back, a, b = (ct._stack(m.components(*coords)) for m in (background, g_a, g_b))
    ginv, det = ct._sym3_inverse_det(back)
    density = kernels.tensor_norm_sq_batch(ginv, a - b) * np.sqrt(det)
    return 2.0 * float(np.sum(density * weights))


def test_l2_distance_in_rho_blocks_equals_one_block(tmp_path, monkeypatch):
    # 160 points per block: 2 rho rows of the 8 x 10 theta nodes a theta
    # metric reads, all 24 rho rows of a metric that reads rho alone
    path = tmp_path / "theta.kv"
    path.write_text("chart = hopf\ng11 = 1\ng22 = sin(rho)^2\n"
                    "g33 = cos(rho)^2 + 0.1*sin(theta1)^2*cos(theta2)^2\n")
    theta = ct.load_metric(path)
    bumped = ct.metric_by_name("hopf-eps-bumped", eps=0.3)
    rows = []

    def counted(metric):
        def components(rho, th1, th2):
            rows.append(np.shape(rho)[0])
            return metric.components(rho, th1, th2)
        return ct.MetricField(metric.name, ct.HOPF_CHART, components,
                              depends_on=metric.depends_on)

    monkeypatch.setattr(quadrature, "_GRID_CHUNK", 160)
    grid = (24, 8, 10)
    for metric, blocks in ((theta, [2] * 12), (bumped, [24])):
        rows.clear()
        got = ct.l2_metric_distance(ROUND, counted(metric), ROUND, grid=grid)
        assert got == unblocked_l2(ROUND, metric, ROUND, grid) > 0
        assert rows == blocks


def test_one_patched_grid_chunk_reaches_every_grid_pass(monkeypatch):
    # _GRID_CHUNK is read when called, so one patch cuts the surface grid
    # evaluation, the sampled normal congruence, its psi pass and the
    # metric distance alike: 160 points are 10 rows of 16 and 2 of 80
    monkeypatch.setattr(quadrature, "_GRID_CHUNK", 160)
    shapes = []

    def field(s, t):
        shapes.append(np.broadcast_shapes(s.shape, t.shape))
        return s + t
    sg._grid_eval(field, np.arange(20.0)[:, None], np.arange(16.0)[None, :])
    assert shapes == [(10, 16)] * 2
    shapes.clear()
    original = ls.CongruenceMap.eval

    def recording_eval(cmap, s, t, out=None):
        shapes.append(np.broadcast_shapes(np.shape(s), np.shape(t)))
        return original(cmap, s, t, out)
    monkeypatch.setattr(ls.CongruenceMap, "eval", recording_eval)
    section = ls.normal_congruence(sg.surface_by_name("ellipsoid"), grid=(20, 16))
    assert shapes == [(10, 16)] * 2
    assert [psi.shape for _, psi in ls._grid_psi(section)] == [(10, 16)] * 2
    rows = []

    def components(rho, th1, th2):
        rows.append(np.shape(rho)[0])
        return ROUND.components(rho, th1, th2)
    counted = ct.MetricField("counted", ct.HOPF_CHART, components)  # reads all three
    ct.l2_metric_distance(ROUND, counted, ROUND, grid=(24, 8, 10))
    assert rows == [2] * 12


def flattened_integrals(surface, metric, grid):
    """The integrals over the meshed, flattened quadrature grid, from one
    fundamental_forms call on all of its points."""
    ss, tt, ww = (np.ravel(a) for a in np.broadcast_arrays(*sg._quadrature_grid(surface, grid)))
    rep = sg.fundamental_forms(surface, metric, ss, tt)
    return [float(np.sum(density(rep) * ww)) for density in DENSITIES]


def test_surface_integrals_over_row_blocks_equal_the_flattened_grid(monkeypatch):
    # the axes are passed in blocks of whole s-rows: the ellipsoid's chart
    # map reads both parameters in one component, so it is cut into
    # _GRID_CHUNK blocks; the Clifford torus is an orbit, so its forms are
    # one call at the grid's first node although the grid exceeds 1 << 16
    # points
    cases = [(sg.surface_by_name("ellipsoid"), FLAT, (300, 240), [(34, 240)] * 8 + [(28, 240)]),
             (sg.surface_by_name("clifford"), ct.metric_by_name("hopf-eps-bumped", eps=0.3),
              (288, 256), [(1, 1)])]
    original = sg.fundamental_forms
    for surface, metric, grid, blocks in cases:
        want = flattened_integrals(surface, metric, grid)
        shapes = []

        def recording_forms(surface, metric, s, t, chart=None):
            shapes.append(np.broadcast_shapes(np.shape(s), np.shape(t)))
            return original(surface, metric, s, t, chart)
        monkeypatch.setattr(sg, "fundamental_forms", recording_forms)
        got = sg._integrate(surface, metric, grid, DENSITIES)
        monkeypatch.undo()
        assert shapes == blocks
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-14 * abs(w), (surface.name, g, w)


def test_one_block_integrals_equal_the_flattened_grid_bit_for_bit():
    ellipsoid = sg.surface_by_name("ellipsoid")
    assert sg._integrate(ellipsoid, FLAT, (96, 80), DENSITIES) == flattened_integrals(
        ellipsoid, FLAT, (96, 80))
    # the Clifford torus is one orbit: its forms are taken at the grid's
    # first node and broadcast over the weights, at any grid size
    torus = sg.surface_by_name("clifford")
    metrics = [ROUND] + [ct.metric_by_name("hopf-eps", eps=eps) for eps in (0.3, 0.6)] + [
        ct.metric_by_name("hopf-eps-bumped", eps=eps) for eps in (0.03, 0.3)]
    for metric in metrics:
        for grid in ((192, 192), (96, 80)):
            got = sg._integrate(torus, metric, grid, DENSITIES)
            assert got == flattened_integrals(torus, metric, grid), (metric.name, grid)


def test_an_integral_off_an_orbit_allocates_in_grid_chunk_blocks(monkeypatch):
    # a block costs about 78 planes of its points: the ellipsoid's area at
    # 256x256 peaks at 10.5 planes in _GRID_CHUNK blocks, 78 in one block
    ellipsoid = sg.surface_by_name("ellipsoid")
    sg.area(ellipsoid, FLAT)  # builds the product rule
    tracemalloc.start()
    try:
        sg.area(ellipsoid, FLAT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 256 * 256 * 8
    # an orbit integral over the same grid is one fundamental_forms call, of
    # the grid's first node
    shapes = []
    original = sg.fundamental_forms

    def recording_forms(surface, metric, s, t, chart=None):
        shapes.append(np.broadcast_shapes(np.shape(s), np.shape(t)))
        return original(surface, metric, s, t, chart)
    monkeypatch.setattr(sg, "fundamental_forms", recording_forms)
    sg.willmore_and_area(sg.surface_by_name("clifford"), ct.metric_by_name("hopf-eps", eps=0.3))
    assert shapes == [(1, 1)]


def test_an_orbit_integral_peaks_below_two_grid_planes():
    # the forms of an orbit are taken at one node, so the only grid-sized
    # array is each integrand's value broadcast against the weights; forms
    # over the whole grid held its (N, 3) points alone in 3 planes
    torus = sg.surface_by_name("clifford")
    metric = ct.metric_by_name("hopf-eps", eps=0.3)
    sg.willmore_and_area(torus, metric)  # builds the product rule
    tracemalloc.start()
    try:
        sg.willmore_and_area(torus, metric)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 256 * 256 * 8


def test_a_graph_of_one_parameter_off_an_orbit_allocates_in_grid_chunk_blocks(monkeypatch):
    # no component of the x^2 graph reads both parameters, but its slope 2x
    # changes along s, so its grid is no orbit: _GRID_CHUNK blocks peak at
    # 7.8 planes at 256x256 (55 in one block), with the area of one block;
    # the chart map is seeded once, on the axes, and each block is cut from
    # those jets
    graph = sg.surface_by_name("graph", expr="x^2")
    sg.area(graph, FLAT)  # builds the product rule
    tracemalloc.start()
    try:
        got = sg.area(graph, FLAT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 256 * 256 * 8
    ss, tt, ww = sg._quadrature_grid(graph, (256, 256))
    one_block = sg.fundamental_forms(graph, FLAT, ss, tt).area_density.reshape(ww.shape)
    assert got == float(np.sum(one_block * ww))
    seeds, shapes = [], []
    variables, forms = jets.variables, sg.fundamental_forms

    def recording_forms(surface, metric, s, t, chart=None):
        shapes.append(np.broadcast_shapes(np.shape(s), np.shape(t)))
        return forms(surface, metric, s, t, chart)
    monkeypatch.setattr(jets, "variables",
                        lambda values, order=2: seeds.append(len(values)) or variables(values, order))
    monkeypatch.setattr(sg, "fundamental_forms", recording_forms)
    assert sg.area(graph, FLAT) == got
    assert seeds == [2]
    assert shapes == [(31, 258)] * 8 + [(10, 258)]


def test_a_metric_passed_twice_is_evaluated_once_per_block():
    # the background is g_a too, as in the distance check
    calls = []

    def components(rho, th1, th2):
        calls.append(np.shape(rho))
        return ROUND.components(rho, th1, th2)
    counted = ct.MetricField("counted", ct.HOPF_CHART, components, depends_on=(0,))
    bumped = ct.metric_by_name("hopf-eps-bumped", eps=0.3)
    grid = (24, 8, 6)
    got = ct.l2_metric_distance(counted, bumped, counted, grid=grid)
    assert got == ct.l2_metric_distance(ROUND, bumped, ROUND, grid=grid) > 0
    assert calls == [(24, 1, 1)]


def test_product_rule_is_built_once_and_read_only(monkeypatch):
    builds = []
    tensor_nodes = quadrature.tensor_nodes
    monkeypatch.setattr(quadrature, "tensor_nodes",
                        lambda rules: builds.append(len(rules)) or tensor_nodes(rules))
    key = (((0.25, 1.5), (0.0, 2 * np.pi)), (11, 13), (False, True))
    coords, weights = quadrature.product_rule(*key)
    again = quadrature.product_rule(*key)
    assert builds == [2]
    assert again[1] is weights and all(a is b for a, b in zip(again[0], coords))
    fresh = tensor_nodes([quadrature.axis_rule(lo, hi, n, p)
                          for (lo, hi), n, p in zip(*key)])
    for got, want in zip((*coords, weights), (*fresh[0], fresh[1])):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            got[(0,) * got.ndim] = 1.0
    # a different grid or domain is a different rule
    for other in ((key[0], (11, 14)) + key[2:], (((0.25, 1.0), key[0][1]),) + key[1:]):
        quadrature.product_rule(*other)
    assert builds == [2] * 3


def test_surface_and_distance_grids_reuse_their_rules(monkeypatch):
    builds = []
    tensor_nodes = quadrature.tensor_nodes
    monkeypatch.setattr(quadrature, "tensor_nodes",
                        lambda rules: builds.append(len(rules)) or tensor_nodes(rules))
    torus = sg.surface_by_name("clifford")
    bumped = ct.metric_by_name("hopf-eps-bumped", eps=0.3)
    for _ in range(2):
        assert sg._quadrature_grid(torus, (46, 38))[2] is sg._quadrature_grid(torus, (46, 38))[2]
        ct.l2_metric_distance(ROUND, bumped, ROUND, grid=(26, 6, 4))
    assert builds == [2, 3]
