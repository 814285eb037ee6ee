"""Vectorised forward-mode Taylor arithmetic up to second order.

A ``Jet`` holds the value of a quantity together with its first (and
optionally second) partial derivatives with respect to ``n`` seed
variables.  Coefficients are numpy arrays, so a single jet evaluation
differentiates a closed-form expression at a whole batch of points.

All closed-form metric components, surface immersions and line-space
charts in this package are written as plain arithmetic over whatever
number type they receive; feeding them jets yields exact derivatives,
feeding them ndarrays yields plain values.  Finite differences appear
only in test oracles.

``derivatives`` is the one read-out from jets to arrays: every caller that
needs a map's values and partials as arrays goes through it.
"""

import numpy as np

__all__ = [
    "Jet", "variables", "derivatives", "where",
    "sin", "cos", "tan", "exp", "log", "sqrt",
]


def _outer(a, b):
    # (n,)+S x (n,)+S -> (n,n)+S
    return a[:, None] * b[None, :]


class Jet:
    """Truncated Taylor value: f + sum_i g_i dx_i (+ 1/2 sum_ij h_ij dx_i dx_j).

    ``f`` is the value (scalar or ndarray of shape S), ``g`` the gradient of
    shape (n,)+S, ``h`` the full Hessian of shape (n,n)+S or None for
    first-order jets.  Mixing orders in one expression is an error.
    """

    __slots__ = ("f", "g", "h")

    def __init__(self, f, g, h=None):
        self.f = f
        self.g = g
        self.h = h

    @property
    def nvars(self):
        return self.g.shape[0]

    def _lift(self, other):
        """Promote a constant (number / ndarray) to a jet of matching order."""
        if isinstance(other, Jet):
            if (self.h is None) != (other.h is None):
                raise TypeError("cannot mix first- and second-order jets")
            return other
        n = self.nvars
        f = np.asarray(other, dtype=float)
        shape = np.broadcast_shapes(np.shape(self.f), f.shape)
        g = np.zeros((n,) + shape)
        h = None if self.h is None else np.zeros((n, n) + shape)
        return Jet(f, g, h)

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        h = None if self.h is None else self.h + o.h
        return Jet(self.f + o.f, self.g + o.g, h)

    __radd__ = __add__

    def __neg__(self):
        h = None if self.h is None else -self.h
        return Jet(-self.f, -self.g, h)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        f = self.f * o.f
        g = self.g * o.f + self.f * o.g
        h = None
        if self.h is not None:
            h = (self.h * o.f + self.f * o.h
                 + _outer(self.g, o.g) + _outer(o.g, self.g))
        return Jet(f, g, h)

    __rmul__ = __mul__

    def _reciprocal(self):
        inv = 1.0 / self.f
        inv2 = inv * inv
        g = -self.g * inv2
        h = None
        if self.h is not None:
            h = -self.h * inv2 + 2.0 * _outer(self.g, self.g) * (inv2 * inv)
        return Jet(inv, g, h)

    def __truediv__(self, other):
        return self * self._lift(other)._reciprocal()

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, p):
        if isinstance(p, Jet):
            raise TypeError("jet exponents are not supported")
        d2 = None if self.h is None else p * (p - 1) * self.f ** (p - 2)
        return _unary(self, self.f ** p, p * self.f ** (p - 1), d2)

    def __repr__(self):
        order = 1 if self.h is None else 2
        return f"Jet(order={order}, nvars={self.nvars}, value={self.f!r})"


def _unary(x, v, d1, d2):
    """Chain rule for a scalar function applied to a jet."""
    g = d1 * x.g
    h = None
    if x.h is not None:
        h = d1 * x.h + d2 * _outer(x.g, x.g)
    return Jet(v, g, h)


def variables(values, order=2):
    """Seed a list of jet variables from per-variable value arrays."""
    vals = [np.asarray(v, dtype=float) for v in values]
    n = len(vals)
    shape = np.broadcast_shapes(*[v.shape for v in vals])
    out = []
    for i, v in enumerate(vals):
        g = np.zeros((n,) + shape)
        g[i] = 1.0
        h = np.zeros((n, n) + shape) if order == 2 else None
        out.append(Jet(np.broadcast_to(v, shape).copy(), g, h))
    return out


def derivatives(fn, values, order=2):
    """Values and partials of ``fn``'s components as arrays.

    ``fn`` is called with one jet variable per entry of ``values`` (seeded by
    ``variables``) and returns a sequence of M components.  Returns
    ``f[..., m]``, ``g[..., i, m]`` and, for order 2, ``h[..., i, j, m]``,
    where ``...`` is the broadcast shape of ``values`` and i, j index the
    variables; a component that is a plain number or array gets zero
    derivatives.  The arrays are C-contiguous and filled component by
    component.
    """
    xs = variables(values, order=order)
    comps = fn(*xs)
    shape = xs[0].f.shape
    n, m = len(xs), len(comps)
    f = np.empty(shape + (m,))
    g = np.empty(shape + (n, m))
    h = np.empty(shape + (n, n, m)) if order == 2 else None
    for k, comp in enumerate(comps):
        if isinstance(comp, Jet):
            f[..., k] = comp.f
            for i in range(n):
                g[..., i, k] = comp.g[i]
                if h is not None:
                    for j in range(n):
                        h[..., i, j, k] = comp.h[i, j]
        else:
            f[..., k] = comp
            g[..., k] = 0.0
            if h is not None:
                h[..., k] = 0.0
    return (f, g) if h is None else (f, g, h)


def where(cond, a, b):
    """Branch selection on jets; both branches must be evaluated already.

    Used for piecewise-smooth profiles whose pieces agree to all orders at
    the seams, so selecting coefficient-wise is exact.
    """
    if not isinstance(a, Jet) and not isinstance(b, Jet):
        return np.where(cond, a, b)
    ref = a if isinstance(a, Jet) else b
    a = ref._lift(a)
    b = ref._lift(b)
    f = np.where(cond, a.f, b.f)
    g = np.where(cond[None], a.g, b.g)
    h = None
    if a.h is not None:
        h = np.where(cond[None, None], a.h, b.h)
    return Jet(f, g, h)


def sin(x):
    if isinstance(x, Jet):
        s, c = np.sin(x.f), np.cos(x.f)
        return _unary(x, s, c, -s)
    return np.sin(x)


def cos(x):
    if isinstance(x, Jet):
        s, c = np.sin(x.f), np.cos(x.f)
        return _unary(x, c, -s, -c)
    return np.cos(x)


def tan(x):
    if isinstance(x, Jet):
        t = np.tan(x.f)
        sec2 = 1.0 + t * t
        return _unary(x, t, sec2, None if x.h is None else 2.0 * t * sec2)
    return np.tan(x)


def exp(x):
    if isinstance(x, Jet):
        e = np.exp(x.f)
        return _unary(x, e, e, e)
    return np.exp(x)


def log(x):
    if isinstance(x, Jet):
        d2 = None if x.h is None else -1.0 / (x.f * x.f)
        return _unary(x, np.log(x.f), 1.0 / x.f, d2)
    return np.log(x)


def sqrt(x):
    if isinstance(x, Jet):
        r = np.sqrt(x.f)
        d2 = None if x.h is None else -0.25 / (r * x.f)
        return _unary(x, r, 0.5 / r, d2)
    return np.sqrt(x)
