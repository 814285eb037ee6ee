"""The Willmore energy of the Clifford torus falls along the Hopf deformation.

Under ``hopf-eps`` the torus is minimal with constant area density, so
W(eps) = 2 sqrt(1 - eps^2) pi^2, strictly decreasing on [0, 1).  The draws
stop at 1 - 1e-6: det I = (1 - eps^2)/4 loses digits to cancellation as eps
nears 1 (the closed form holds to 1e-8 only while 1 - eps^2 is well above
1e-8), and at 1 - eps near 1e-14 the metric is refused as numerically
singular.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geomlab import chart_tensor as ct
from geomlab import surface_geom as sg

TORUS = sg.surface_by_name("clifford")
EPS_MAX = 1.0 - 1e-6


def energy(eps):
    w = sg.willmore_energy(TORUS, ct.metric_by_name("hopf-eps", eps=eps), grid=(16, 16))
    assert w == pytest.approx(2.0 * np.sqrt(1.0 - eps * eps) * np.pi ** 2, rel=1e-8)
    return w


@settings(max_examples=30, deadline=None)
@given(a=st.floats(0.0, EPS_MAX), b=st.floats(0.0, EPS_MAX))
def test_willmore_energy_decreases_in_eps(a, b):
    eps1, eps2 = sorted((a, b))
    assume(eps2 - eps1 >= 1e-3)
    assert energy(eps1) > energy(eps2)
