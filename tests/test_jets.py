"""Jet arithmetic against central finite differences, plus the expression grammar."""

import numpy as np
import pytest

from geomlab import jets
from geomlab.exprgrammar import ExpressionError, compile_expression


def fd_grad(fn, x, h=1e-6):
    out = np.zeros(len(x))
    for k in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        out[k] = (fn(xp) - fn(xm)) / (2 * h)
    return out


def fd_hess(fn, x, h=1e-4):
    n = len(x)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            pts = []
            for si in (1, -1):
                for sj in (1, -1):
                    xx = x.copy()
                    xx[i] += si * h
                    xx[j] += sj * h
                    pts.append(si * sj * fn(xx))
            out[i, j] = sum(pts) / (4 * h * h)
    return out


def crowded(v):
    x, y, z = v
    return np.sin(x) * np.exp(0.3 * y) / (2.0 + np.cos(z)) + np.sqrt(
        1.0 + x * x) * np.log(2.0 + y) - np.tan(0.2 * z) ** 3


def crowded_jets(x, y, z):
    return jets.sin(x) * jets.exp(0.3 * y) / (2.0 + jets.cos(z)) + jets.sqrt(
        1.0 + x * x) * jets.log(2.0 + y) - jets.tan(0.2 * z) ** 3


def test_gradient_and_hessian_match_finite_differences():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.0, 1.0, size=(20, 3))
    xs = jets.variables([pts[:, 0], pts[:, 1], pts[:, 2]], order=2)
    val = crowded_jets(*xs)
    for k, p in enumerate(pts):
        assert val.f[k] == pytest.approx(crowded(p), rel=1e-12)
        grad = fd_grad(crowded, p)
        assert np.allclose(val.g[:, k], grad, rtol=1e-6, atol=1e-8)
        hess = fd_hess(crowded, p)
        assert np.allclose(val.h[:, :, k], hess, rtol=5e-4, atol=5e-6)


def test_first_order_jets_skip_hessians():
    x, y = jets.variables([0.4, 0.9], order=1)
    out = jets.sqrt(x * y) + x / y
    assert out.h is None
    assert out.f == pytest.approx(np.sqrt(0.36) + 0.4 / 0.9)


def test_mixed_order_rejected():
    (x,) = jets.variables([0.5], order=1)
    (y,) = jets.variables([0.5], order=2)
    with pytest.raises(TypeError):
        _ = x + y


def test_where_selects_coefficients():
    x, = jets.variables([np.array([-1.0, 2.0])], order=2)
    picked = jets.where(x.f > 0, x * x, -x)
    assert np.allclose(picked.f, [1.0, 4.0])
    assert np.allclose(picked.g[0], [-1.0, 4.0])
    assert np.allclose(picked.h[0, 0], [0.0, 2.0])


def test_derivatives_reads_out_the_jet_attributes():
    rng = np.random.default_rng(1)
    values = [rng.uniform(-1.0, 1.0, size=(4, 5)) for _ in range(3)]

    def fn(x, y, z):
        return [crowded_jets(x, y, z), 2.5, x * y]

    f, g, h = jets.derivatives(fn, values, order=2)
    assert f.shape == (4, 5, 3) and g.shape == (4, 5, 3, 3) and h.shape == (4, 5, 3, 3, 3)
    assert all(a.flags["C_CONTIGUOUS"] for a in (f, g, h))
    comps = fn(*jets.variables(values, order=2))
    for m in (0, 2):
        assert np.array_equal(f[..., m], comps[m].f)
        for i in range(3):
            assert np.array_equal(g[..., i, m], comps[m].g[i])
            for j in range(3):
                assert np.array_equal(h[..., i, j, m], comps[m].h[i, j])
    # a plain-number component has its value and zero derivatives
    assert np.all(f[..., 1] == 2.5)
    assert not np.any(g[..., 1]) and not np.any(h[..., 1])

    out = jets.derivatives(fn, values, order=1)
    assert len(out) == 2
    f1, g1 = out
    assert f1.shape == (4, 5, 3) and g1.shape == (4, 5, 3, 3)
    assert np.array_equal(f1, f) and np.array_equal(g1, g)


def test_expression_grammar_evaluates_and_differentiates():
    fn = compile_expression("sin(x)*y^2 + sqrt(1 + x^2)/y", ("x", "y"))
    x, y = jets.variables([0.3, 1.7], order=2)
    out = fn(x=x, y=y)
    expected = np.sin(0.3) * 1.7 ** 2 + np.sqrt(1.09) / 1.7
    assert out.f == pytest.approx(expected, rel=1e-14)
    ref = fd_grad(lambda v: np.sin(v[0]) * v[1] ** 2 + np.sqrt(1 + v[0] ** 2) / v[1],
                  np.array([0.3, 1.7]))
    assert np.allclose(out.g, ref, rtol=1e-7)


def test_expression_grammar_operator_precedence():
    fn = compile_expression("2 + 3*4^2 - -6/2", ())
    assert fn() == pytest.approx(2 + 48 + 3)


def test_expression_grammar_rejects_unknown_names():
    with pytest.raises(ExpressionError):
        compile_expression("sin(q)", ("x", "y"))


def test_expression_grammar_rejects_garbage():
    with pytest.raises(ExpressionError):
        compile_expression("1 +* 2", ())
