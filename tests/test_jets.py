"""Jet arithmetic against central finite differences, plus the expression grammar."""

import numpy as np
import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the sparse-against-dense property needs hypothesis
    st = None

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


def scatter(comp, n):
    """The gradient (n,)+S and Hessian (n,n)+S of jet ``comp`` over all ``n``
    seeds, zero off its support; the Hessian is None for a first-order jet."""
    g = np.zeros((n,) + comp.gs.shape[1:])
    g[list(comp.support)] = comp.gs
    if comp.hs is None:
        return g, None
    h = np.zeros((n, n) + comp.hs.shape[2:])
    h[np.ix_(comp.support, comp.support)] = comp.hs
    return g, h


def test_gradient_and_hessian_match_finite_differences():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.0, 1.0, size=(20, 3))
    f, g, h = jets.derivatives(lambda x, y, z: [crowded_jets(x, y, z)], list(pts.T))
    for k, p in enumerate(pts):
        assert f[k, 0] == pytest.approx(crowded(p), rel=1e-12)
        grad = fd_grad(crowded, p)
        assert np.allclose(g[k, :, 0], grad, rtol=1e-6, atol=1e-8)
        hess = fd_hess(crowded, p)
        assert np.allclose(h[k, :, :, 0], hess, rtol=5e-4, atol=5e-6)


def test_first_order_jets_skip_hessians():
    x, y = jets.variables([0.4, 0.9], order=1)
    out = jets.sqrt(x * y) + x / y
    assert out.hs is None
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
    assert picked.support == (0,)
    assert np.allclose(picked.gs[0], [-1.0, 4.0])
    assert np.allclose(picked.hs[0, 0], [0.0, 2.0])


def test_derivatives_reads_out_the_jet_attributes():
    rng = np.random.default_rng(1)
    values = [rng.uniform(-1.0, 1.0, size=(4, 5)) for _ in range(3)]

    def fn(x, y, z):
        return [crowded_jets(x, y, z), 2.5, x * y]

    f, g, h = jets.derivatives(fn, values, order=2)
    assert f.shape == (4, 5, 3) and g.shape == (4, 5, 3, 3) and h.shape == (4, 5, 3, 3, 3)
    # component-major buffers: every component's value and partial is one
    # contiguous block over the samples
    assert np.moveaxis(f, -1, 0).flags["C_CONTIGUOUS"]
    assert np.moveaxis(g, (-2, -1), (0, 1)).flags["C_CONTIGUOUS"]
    assert np.moveaxis(h, (-3, -2, -1), (0, 1, 2)).flags["C_CONTIGUOUS"]
    assert all(h[..., i, j, m].flags["C_CONTIGUOUS"]
               for i in range(3) for j in range(3) for m in range(3))
    comps = fn(*jets.variables(values, order=2))
    for m in (0, 2):
        assert np.array_equal(f[..., m], comps[m].f)
        grad, hess = scatter(comps[m], 3)
        for i in range(3):
            assert np.array_equal(g[..., i, m], grad[i])
            for j in range(3):
                assert np.array_equal(h[..., i, j, m], hess[i, j])
    # a plain-number component has its value and zero derivatives
    assert np.all(f[..., 1] == 2.5)
    assert not np.any(g[..., 1]) and not np.any(h[..., 1])

    out = jets.derivatives(fn, values, order=1)
    assert len(out) == 2
    f1, g1 = out
    assert f1.shape == (4, 5, 3) and g1.shape == (4, 5, 3, 3)
    assert np.array_equal(f1, f) and np.array_equal(g1, g)


@pytest.mark.parametrize("order", [1, 2])
def test_sincos_equals_sin_and_cos(order):
    rng = np.random.default_rng(4)
    x, y = jets.variables([rng.uniform(-4.0, 4.0, 50), rng.uniform(-4.0, 4.0, 50)],
                          order=order)
    arg = x * y + 0.5 * x
    for got, want in zip(jets.sincos(arg), (jets.sin(arg), jets.cos(arg))):
        assert got.support == want.support
        assert np.array_equal(got.f, want.f) and np.array_equal(got.gs, want.gs)
        assert (got.hs is None) == (order == 1)
        if order == 2:
            assert np.array_equal(got.hs, want.hs)
    plain = rng.uniform(-4.0, 4.0, 7)
    assert all(np.array_equal(a, b) for a, b in
               zip(jets.sincos(plain), (jets.sin(plain), jets.cos(plain))))


def test_expression_grammar_evaluates_and_differentiates():
    fn = compile_expression("sin(x)*y^2 + sqrt(1 + x^2)/y", ("x", "y"))
    x, y = jets.variables([0.3, 1.7], order=2)
    out = fn(x=x, y=y)
    expected = np.sin(0.3) * 1.7 ** 2 + np.sqrt(1.09) / 1.7
    assert out.f == pytest.approx(expected, rel=1e-14)
    ref = fd_grad(lambda v: np.sin(v[0]) * v[1] ** 2 + np.sqrt(1 + v[0] ** 2) / v[1],
                  np.array([0.3, 1.7]))
    assert out.support == (0, 1) and np.allclose(out.gs, ref, rtol=1e-7)


def test_expression_grammar_operator_precedence():
    fn = compile_expression("2 + 3*4^2 - -6/2", ())
    assert fn() == pytest.approx(2 + 48 + 3)


def test_expression_grammar_gives_non_finite_values_quietly():
    # constants are numpy floats: no ZeroDivisionError, no RuntimeWarning
    assert compile_expression("1/0", ())() == np.inf
    assert compile_expression("log(0)", ())() == -np.inf
    assert np.isnan(compile_expression("0/0", ())())
    rho = jets.variables([np.array([0.3, 0.5])], order=2)[0]
    out = compile_expression("log(rho - rho)", ("rho",))(rho=rho)
    assert np.all(out.f == -np.inf)


def test_expression_grammar_rejects_unknown_names():
    with pytest.raises(ExpressionError):
        compile_expression("sin(q)", ("x", "y"))


def test_expression_grammar_rejects_garbage():
    with pytest.raises(ExpressionError):
        compile_expression("1 +* 2", ())


@pytest.mark.parametrize("text, value", [
    ("2^3^2", 512.0), ("-2^2", -4.0), ("2^-1", 0.5), ("8/4/2", 1.0), ("2-3-4", -5.0),
    ("+-+x", -3.0), ("x ^ 2 ^ -1", np.sqrt(3.0)), ("1e400", np.inf), ("007", 7.0),
    ("sin\n(x) - sin(x)", 0.0), ("pi", np.pi)])
def test_expression_grammar_values(text, value):
    # ^ is right-associative and binds tighter than a unary sign, which its
    # exponent may carry; + - * / associate to the left
    got = compile_expression(text, ("x",))(x=3.0)
    assert got == value and isinstance(got, float)


@pytest.mark.parametrize("text", [
    "1_000", "0x10", "0o7", "0b1", "x #c", "x**2", "True", "sin(x, y)", "2(3)", "sin",
    "(sin)(x)", "", "x if x else x", "x//2", "1j",
    pytest.param("(" * 300 + "x" + ")" * 300, id="300-nested-parentheses"),
    pytest.param("-" * 3000 + "x", id="3000-signs")])
def test_expression_grammar_rejects_python_only_forms(text):
    with pytest.raises(ExpressionError):
        compile_expression(text, ("x", "y"))


def test_constant_operands_keep_the_support():
    values = [np.array([0.2, 0.7]), np.array([1.1, -0.4]), np.array([0.3, 0.9])]
    xs = jets.variables(values, order=2)
    for i, x in enumerate(xs):
        for out in (x * 2.0, 2.0 * x, x + 1.0, 1.0 - x, x / 4.0):
            assert out.support == (i,)
            assert out.gs.shape == (1, 2) and out.hs.shape == (1, 1, 2)
        # a shift allocates nothing: the derivatives are the operand's
        shifted = x + 1.0
        assert shifted.gs is x.gs and shifted.hs is x.hs
    assert (jets.sin(xs[0]) * xs[2]).support == (0, 2)
    assert jets.where(values[0] > 0.5, xs[1], 0.0).support == (1,)



def test_seeds_keep_their_own_shapes():
    # the axes of a product grid: each unary function runs over one axis,
    # and the read-out fills the grid they broadcast to
    s, t = np.linspace(0.1, 1.0, 5), np.linspace(-1.0, 2.0, 4)
    x, y, z = jets.variables([s[:, None], t[None, :], t[None, :] + 1.0], order=2)
    assert x.f.shape == x.gs.shape[1:] == x.hs.shape[2:] == (5, 1)
    assert y.f.shape == (1, 4) and jets.sin(y).f.shape == (1, 4)
    # seeds of equal shape share one unit gradient and one zero Hessian
    assert y.gs is z.gs and y.hs is z.hs and x.gs is not y.gs
    f, g, h = jets.derivatives(lambda u, v: [jets.sin(u) * v, v], [s[:, None], t[None, :]])
    assert f.shape == (5, 4, 2) and g.shape == (5, 4, 2, 2) and h.shape == (5, 4, 2, 2, 2)
    assert np.array_equal(f[..., 1], np.broadcast_to(t, (5, 4)))
    assert np.array_equal(g[..., 0, 0], np.cos(s)[:, None] * t)


@pytest.mark.parametrize("order", [1, 2])
def test_ndarray_on_the_left_defers_to_the_jet(order):
    values = [np.array([0.2, 0.7]), np.array([1.1, -0.4])]
    x, y = jets.variables(values, order=order)
    jet = jets.sin(x) * y
    arr = np.array([1.5, -2.0])
    for left, right in ((arr + jet, jet.__radd__(arr)), (arr - jet, jet.__rsub__(arr)),
                        (arr * jet, jet.__rmul__(arr)), (arr / jet, jet.__rtruediv__(arr))):
        assert isinstance(left, jets.Jet)
        assert left.support == right.support == (0, 1)
        assert np.array_equal(left.f, right.f)
        assert np.array_equal(left.gs, right.gs)
        if order == 2:
            assert np.array_equal(left.hs, right.hs)

# -- sparse against dense ----------------------------------------------------
#
# The oracle is the dense jet the module used before jets became sparse: every
# jet carries the gradient and Hessian over all n seed variables, and a
# constant operand is promoted to a jet with zero derivatives.  It runs the
# same expression trees the grammar compiles for the sparse side.

class DenseJet:
    def __init__(self, f, g, h=None):
        self.f, self.g, self.h = f, g, h

    def _lift(self, other):
        if isinstance(other, DenseJet):
            return other
        n = self.g.shape[0]
        f = np.asarray(other, dtype=float)
        shape = np.broadcast_shapes(np.shape(self.f), f.shape)
        h = None if self.h is None else np.zeros((n, n) + shape)
        return DenseJet(f, np.zeros((n,) + shape), h)

    def __add__(self, other):
        o = self._lift(other)
        h = None if self.h is None else self.h + o.h
        return DenseJet(self.f + o.f, self.g + o.g, h)

    __radd__ = __add__

    def __neg__(self):
        return DenseJet(-self.f, -self.g, None if self.h is None else -self.h)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        g = self.g * o.f + self.f * o.g
        h = None
        if self.h is not None:
            h = (self.h * o.f + self.f * o.h
                 + _dense_outer(self.g, o.g) + _dense_outer(o.g, self.g))
        return DenseJet(self.f * o.f, g, h)

    __rmul__ = __mul__

    def _reciprocal(self):
        inv = 1.0 / self.f
        inv2 = inv * inv
        h = None
        if self.h is not None:
            h = -self.h * inv2 + 2.0 * _dense_outer(self.g, self.g) * (inv2 * inv)
        return DenseJet(inv, -self.g * inv2, h)

    def __truediv__(self, other):
        return self * self._lift(other)._reciprocal()

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, p):
        d2 = None if self.h is None else p * (p - 1) * self.f ** (p - 2)
        return _dense_unary(self, self.f ** p, p * self.f ** (p - 1), d2)


def _dense_outer(a, b):
    return a[:, None] * b[None, :]


def _dense_unary(x, v, d1, d2):
    h = None if x.h is None else d1 * x.h + d2 * _dense_outer(x.g, x.g)
    return DenseJet(v, d1 * x.g, h)


def _dense_fn(name):
    def fn(x):
        if not isinstance(x, DenseJet):
            return getattr(np, name)(x)
        f = x.f
        second = x.h is not None
        if name == "sin":
            return _dense_unary(x, np.sin(f), np.cos(f), -np.sin(f))
        if name == "cos":
            return _dense_unary(x, np.cos(f), -np.sin(f), -np.cos(f))
        if name == "tan":
            t = np.tan(f)
            sec2 = 1.0 + t * t
            return _dense_unary(x, t, sec2, 2.0 * t * sec2 if second else None)
        if name == "exp":
            e = np.exp(f)
            return _dense_unary(x, e, e, e)
        if name == "log":
            return _dense_unary(x, np.log(f), 1.0 / f, -1.0 / (f * f) if second else None)
        r = np.sqrt(f)
        return _dense_unary(x, r, 0.5 / r, -0.25 / (r * f) if second else None)
    return fn


DENSE = {name: _dense_fn(name) for name in ("sin", "cos", "tan", "exp", "log", "sqrt")}


def dense_variables(values, order):
    vals = [np.asarray(v, dtype=float) for v in values]
    n = len(vals)
    shape = np.broadcast_shapes(*[v.shape for v in vals])
    out = []
    for i, v in enumerate(vals):
        g = np.zeros((n,) + shape)
        g[i] = 1.0
        h = np.zeros((n, n) + shape) if order == 2 else None
        out.append(DenseJet(np.broadcast_to(v, shape).copy(), g, h))
    return out


def dense_where(cond, a, b):
    if not isinstance(a, DenseJet) and not isinstance(b, DenseJet):
        return np.where(cond, a, b)
    ref = a if isinstance(a, DenseJet) else b
    a, b = ref._lift(a), ref._lift(b)
    h = None if a.h is None else np.where(cond[None, None], a.h, b.h)
    return DenseJet(np.where(cond, a.f, b.f), np.where(cond[None], a.g, b.g), h)


def dense_derivatives(fn, values, order):
    """The read-out of ``jets.derivatives``, over dense jets."""
    xs = dense_variables(values, order)
    shape, n = xs[0].f.shape, len(xs)
    comps = fn(*xs)
    f = np.empty(shape + (len(comps),))
    g = np.zeros(shape + (n, len(comps)))
    h = np.zeros(shape + (n, n, len(comps))) if order == 2 else None
    for k, comp in enumerate(comps):
        if not isinstance(comp, DenseJet):
            f[..., k] = comp
            continue
        f[..., k] = comp.f
        g[..., k] = np.moveaxis(comp.g, 0, -1)
        if h is not None:
            h[..., k] = np.moveaxis(comp.h, (0, 1), (-2, -1))
    return (f, g) if h is None else (f, g, h)


def render(node):
    """Expression-grammar text of a tree, parenthesised throughout."""
    op = node[0]
    if op in ("num", "var"):
        return node[1]
    if op == "neg":
        return f"(-{render(node[1])})"
    if op == "call":
        return f"{node[1]}({render(node[2])})"
    return f"({render(node[1])} {op} {render(node[2])})"


def dense_evaluate(node, env):
    """The grammar's evaluation rules, applied to dense jets."""
    op = node[0]
    if op == "num":
        return np.float64(node[1])
    if op == "var":
        return env[node[1]]
    if op == "neg":
        return -dense_evaluate(node[1], env)
    if op == "call":
        return DENSE[node[1]](dense_evaluate(node[2], env))
    a, b = dense_evaluate(node[1], env), dense_evaluate(node[2], env)
    if op == "^":
        return a ** b if isinstance(b, (int, float)) else DENSE["exp"](b * DENSE["log"](a))
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    return a / b


NAMES = ("x", "y", "z")


def test_supports_that_do_not_step_evenly():
    # with four variables a support such as (0, 1, 3) sits at uneven
    # positions of the union: the merge indexes it by position arrays
    rng = np.random.default_rng(3)
    values = [rng.uniform(0.5, 1.5, size=5) for _ in range(4)]

    def fn(lib):
        def comps(x, y, z, w):
            a = lib["sin"](x * y) * w
            b = lib["exp"](z) + x / w
            return [a * b, a + b, a - lib["cos"](y * z)]
        return comps

    got = jets.derivatives(fn({"sin": jets.sin, "cos": jets.cos, "exp": jets.exp}),
                           values, order=2)
    ref = dense_derivatives(fn(DENSE), values, 2)
    assert all(np.array_equal(a, b) for a, b in zip(got, ref))


def _disjoint_operands(case, order):
    """Two jets on disjoint supports and the number of seeds: a u-jet and a
    v-jet of a product grid, seeded on the axes (n, 1) and (1, m), or jets
    on (0, 1, 3) and (2,) of four seeds, whose merge indexes by arrays."""
    rng = np.random.default_rng(7)
    if case == "grid":
        u, v = jets.variables([rng.uniform(0.2, 1.4, (5, 1)), rng.uniform(0.2, 1.4, (1, 4))],
                              order=order)
        return 1.7 * jets.sin(u) + u * u, jets.exp(v) / (2.0 + jets.cos(v)), 2
    x = jets.variables([rng.uniform(0.5, 1.5, 6) for _ in range(4)], order=order)
    return jets.sin(x[0] * x[1]) * x[3] + x[1], jets.sqrt(1.0 + x[2] * x[2]), 4


@pytest.mark.parametrize("case", ["grid", "uneven"])
@pytest.mark.parametrize("order", [1, 2])
def test_disjoint_supports_equal_the_dense_formula(case, order):
    # the product and the sum write each block of the union once; the
    # oracle scatters both operands over every seed and applies the
    # equal-support formulas, whose extra terms are exact zeros
    a, b, n = _disjoint_operands(case, order)
    assert not set(a.support) & set(b.support)
    (ga, ha), (gb, hb) = scatter(a, n), scatter(b, n)
    dense = {"*": (a.f * b.f, ga * b.f + a.f * gb,
                   None if ha is None else (ha * b.f + a.f * hb
                                            + ga[:, None] * gb[None, :]
                                            + gb[:, None] * ga[None, :])),
             "+": (a.f + b.f, ga + gb, None if ha is None else ha + hb)}
    for op, got in (("*", a * b), ("*", b * a), ("+", a + b), ("+", b + a)):
        f, g, h = dense[op]
        assert got.support == tuple(sorted(a.support + b.support))
        assert np.array_equal(got.f, f)
        got_g, got_h = scatter(got, n)
        assert np.array_equal(got_g, g)
        assert (got_h is None) == (h is None)
        if h is not None:
            assert np.array_equal(got_h, h)


@pytest.mark.parametrize("order", [1, 2])
def test_read_out_writes_exact_zeros_off_each_support(order):
    # the buffers are not zero-filled: each partial a component lacks is
    # written as zero, including every partial of a plain-number component
    rng = np.random.default_rng(11)
    shape = (6, 5)
    for _ in range(3):  # leave non-zero garbage where the buffers may land
        np.full((3, 4) + shape, np.nan)
    xs = jets.variables([rng.uniform(0.2, 1.2, shape) for _ in range(3)], order=order)
    comps = [jets.sin(xs[1]), xs[0] * xs[2], 2.5, xs[2] + rng.uniform(size=shape)]
    out = jets.read_out(comps, xs)
    for k, comp in enumerate(comps):
        support = comp.support if isinstance(comp, jets.Jet) else ()
        for i in range(3):
            if i not in support:
                assert np.all(out[1][..., i, k] == 0.0)
            if order == 2:
                for j in range(3):
                    if i not in support or j not in support:
                        assert np.all(out[2][..., i, j, k] == 0.0)
    # the partials on each support are the jet's own
    for k, comp in enumerate(comps):
        if isinstance(comp, jets.Jet):
            g, h = scatter(comp, 3)
            assert np.array_equal(out[1][..., k], np.moveaxis(g, 0, -1))
            if order == 2:
                assert np.array_equal(out[2][..., k], np.moveaxis(h, (0, 1), (-2, -1)))


if st is not None:
    CONSTANTS = ["0.5", "2", "1.25", "3", "0"]

    @st.composite
    def trees(draw, names, depth=4):
        """A random expression tree; deeper trees mix more variables, so
        products of operands with overlapping but different supports occur."""
        kind = draw(st.sampled_from(["leaf", "binary", "binary", "call", "neg", "pow"]
                                    if depth else ["leaf"]))
        if kind == "leaf":
            if draw(st.integers(0, 3)) == 0:
                return ("num", draw(st.sampled_from(CONSTANTS)))
            return ("var", draw(st.sampled_from(names)))
        sub = trees(names, depth - 1)
        if kind == "binary":
            return (draw(st.sampled_from("+-*/")), draw(sub), draw(sub))
        if kind == "call":
            return ("call", draw(st.sampled_from(sorted(DENSE))), draw(sub))
        if kind == "neg":
            return ("neg", draw(sub))
        exponent = st.one_of(st.sampled_from(["2", "3", "0.5"]).map(lambda c: ("num", c)), sub)
        return ("^", draw(sub), draw(exponent))

    @st.composite
    def cases(draw):
        nvars = draw(st.integers(1, 3))
        exprs = [draw(trees(NAMES[:nvars])) for _ in range(3)]
        return nvars, exprs, draw(st.sampled_from([1, 2])), draw(st.integers(0, 2 ** 16))

    @settings(max_examples=100, deadline=None)
    @given(case=cases())
    def test_sparse_jets_equal_the_dense_oracle(case):
        nvars, exprs, order, seed = case
        names = NAMES[:nvars]
        rng = np.random.default_rng(seed)
        values = [rng.uniform(-1.5, 1.5, size=32) for _ in names]
        compiled = [compile_expression(render(e), names) for e in exprs]

        def sparse_fn(*xs):
            env = dict(zip(names, xs))
            a, b, c = (fn(**env) for fn in compiled)
            with np.errstate(all="ignore"):
                return [jets.where(xs[0].f > 0.2, a, b), c, a * b, b / c - a]

        def dense_fn(*xs):
            env = dict(zip(names, xs))
            with np.errstate(all="ignore"):
                a, b, c = (dense_evaluate(e, env) for e in exprs)
                return [dense_where(xs[0].f > 0.2, a, b), c, a * b, b / c - a]

        got = jets.derivatives(sparse_fn, values, order=order)
        ref = dense_derivatives(dense_fn, values, order)
        assert np.array_equal(got[0], ref[0], equal_nan=True)
        # off a non-finite value the dense jet turns an omitted 0 * inf
        # into NaN; everywhere else the two agree exactly
        for sparse, dense in zip(got[1:], ref[1:]):
            finite = np.isfinite(dense)
            assert np.array_equal(sparse[finite], dense[finite])

    @settings(max_examples=60, deadline=None)
    @given(case=cases())
    def test_derivatives_equal_the_jet_read_out(case):
        # the component-major buffers of ``derivatives``, seen through its
        # point-major views, hold each jet's coefficients scattered over
        # every seed
        nvars, exprs, order, seed = case
        names = NAMES[:nvars]
        rng = np.random.default_rng(seed)
        values = [rng.uniform(-1.5, 1.5, size=(4, 6)) for _ in names]
        compiled = [compile_expression(render(e), names) for e in exprs]

        def fn(*xs):
            env = dict(zip(names, xs))
            with np.errstate(all="ignore"):
                return [compiled[0](**env), compiled[1](**env) * compiled[2](**env)]

        out = jets.derivatives(fn, values, order=order)
        for k, comp in enumerate(fn(*jets.variables(values, order=order))):
            if isinstance(comp, jets.Jet):
                f, (g, h) = comp.f, scatter(comp, nvars)
            else:
                f, g, h = comp, 0.0, 0.0
            assert np.array_equal(out[0][..., k], np.broadcast_to(f, (4, 6)), equal_nan=True)
            grad = np.moveaxis(out[1][..., k], -1, 0)
            assert np.array_equal(grad, np.broadcast_to(g, grad.shape), equal_nan=True)
            if order == 2:
                hess = np.moveaxis(out[2][..., k], (-2, -1), (0, 1))
                assert np.array_equal(hess, np.broadcast_to(h, hess.shape), equal_nan=True)
