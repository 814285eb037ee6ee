"""Integrals do not depend on the chunk size of their evaluation loops.

Chunks of any size, including sizes that split a rho-orbit of a
T^2-invariant metric across blocks, must give the default-chunk value up
to summation order.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geomlab import chart_tensor as ct
from geomlab import surface_geom as sg

REL = 1e-13
BUMPED = ct.metric_by_name("hopf-eps-bumped", eps=0.3)
GROUND = ct.metric_by_name("round-s3")
SURFACE_GRID = (12, 10)  # 120 nodes, all on the torus's one rho-orbit
L2_GRID = (12, 4, 4)     # 12 rho nodes, each an orbit of 16 consecutive nodes
DENSITIES = [sg._willmore_density, sg._area_density]
CASES = [(sg.surface_by_name("clifford"), BUMPED),
         (sg.surface_by_name("ellipsoid"), ct.metric_by_name("flat-r3"))]


def close(got, ref):
    return abs(got - ref) <= REL * abs(ref)


@settings(max_examples=20, deadline=None)
@given(chunk=st.integers(1, SURFACE_GRID[0] * SURFACE_GRID[1]))
@example(chunk=1)
@example(chunk=7)
def test_surface_integrals_do_not_depend_on_chunk(chunk):
    for surface, metric in CASES:
        ref = sg._integrate(surface, metric, SURFACE_GRID, DENSITIES)
        got = sg._integrate(surface, metric, SURFACE_GRID, DENSITIES, chunk=chunk)
        assert all(close(g, r) for g, r in zip(got, ref))


@settings(max_examples=20, deadline=None)
@given(chunk=st.integers(1, L2_GRID[0] * L2_GRID[1] * L2_GRID[2]))
@example(chunk=1)
@example(chunk=17)
def test_l2_distance_does_not_depend_on_chunk(chunk):
    ref = ct.l2_metric_distance(GROUND, BUMPED, GROUND, grid=L2_GRID)
    assert ref > 0
    got = ct.l2_metric_distance(GROUND, BUMPED, GROUND, grid=L2_GRID, chunk=chunk)
    assert close(got, ref)
