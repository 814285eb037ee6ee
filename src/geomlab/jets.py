"""Vectorised sparse forward-mode Taylor arithmetic up to second order.

A ``Jet`` holds the value of a quantity together with its first (and
optionally second) partial derivatives with respect to the seed variables
it depends on: its ``support``, a sorted tuple of variable indices out of
the ``n`` that ``variables`` seeded.  Derivatives with respect to any
other variable are zero and are not stored, so ``sin(u)`` carries one
gradient row and a 1x1 Hessian whatever ``n`` is.  Unary functions keep
the support; sums, products and ``where`` merge the supports of their jet
operands.  A plain number or ndarray operand is never promoted to a jet:
``x * c`` scales the coefficients and ``x + c`` shifts the value alone.
Coefficients are numpy arrays, so a single jet evaluation differentiates
a closed-form expression at a whole batch of points.

Every product and chain rule adds its terms in the order of the full
dense formula; a term that is an exact zero is left out, which changes at
most the sign of a zero in a result on finite inputs.  So a coefficient
left with one term is written, not added to a zero: a sum or product of
operands on disjoint supports (a u-jet and a v-jet of a product grid)
writes each block of its result once, into an unfilled buffer.

All closed-form metric components, surface immersions and line-space
charts in this package are written as plain arithmetic over whatever
number type they receive; feeding them jets yields exact derivatives,
feeding them ndarrays yields plain values.  Finite differences appear
only in test oracles.

``read_out`` is the one read-out from jets to arrays: every caller that
needs a map's values and partials as arrays goes through it.  It stores
them component-major, each component's value and each of its partials
one contiguous block over the samples, as a jet stores its own
coefficients; the arrays it returns are views indexed point-major.
"""

import numpy as np

__all__ = [
    "Jet", "variables", "derivatives", "read_out", "where",
    "sin", "cos", "sincos", "tan", "exp", "log", "sqrt",
]


def _outer(a, b):
    # (k,)+S x (l,)+S -> (k,l)+S
    return a[:, None] * b[None, :]


class Jet:
    """Truncated Taylor value: f + sum_i g_i dx_i (+ 1/2 sum_ij h_ij dx_i dx_j).

    ``f`` is the value (scalar or ndarray of shape S).  ``support`` is the
    sorted tuple of the k seed variables the value depends on; ``gs`` is
    the gradient over the support, shape (k,)+S, and ``hs`` the full
    Hessian over it, shape (k,k)+S, or None for first-order jets
    (``read_out`` scatters them over every seed).  Mixing orders in one
    expression is an error.
    """

    __slots__ = ("f", "support", "gs", "hs")
    # an ndarray on the left defers to the reflected operators below
    # instead of building an object array of per-element jets
    __array_ufunc__ = None

    def __init__(self, f, support, gs, hs):
        self.f = f
        self.support = support
        self.gs = gs
        self.hs = hs

    def _merge(self, other):
        """Supports of two jet operands of the same order, merged."""
        if (self.hs is None) != (other.hs is None):
            raise TypeError("cannot mix first- and second-order jets")
        return _merged(self.support, other.support)

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.f + other, self.support, self.gs, self.hs)
        m = self._merge(other)
        f = self.f + other.f
        if m is None:
            h = None if self.hs is None else self.hs + other.hs
            return Jet(f, self.support, self.gs + other.gs, h)
        g = m.scatter(1, self.gs, other.gs)
        h = None if self.hs is None else m.scatter(2, self.hs, other.hs)
        return Jet(f, m.support, g, h)

    __radd__ = __add__

    def __neg__(self):
        h = None if self.hs is None else -self.hs
        return Jet(-self.f, self.support, -self.gs, h)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            h = None if self.hs is None else self.hs * other
            return Jet(self.f * other, self.support, self.gs * other, h)
        m = self._merge(other)
        f = self.f * other.f
        if m is None:
            g = self.gs * other.f + self.f * other.gs
            h = None
            if self.hs is not None:
                h = (self.hs * other.f + self.f * other.hs
                     + _outer(self.gs, other.gs) + _outer(other.gs, self.gs))
            return Jet(f, self.support, g, h)
        if m.disjoint:
            return Jet(f, m.support, *self._disjoint_product(other, m))
        ga, gb = self.gs * other.f, self.f * other.gs
        g = m.zeros(1, ga, gb)
        g[m.a] = ga
        g[m.b] += gb
        h = None
        if self.hs is not None:
            terms = (self.hs * other.f, self.f * other.hs,
                     _outer(self.gs, other.gs), _outer(other.gs, self.gs))
            h = m.zeros(2, *terms)
            h[m.aa] = terms[0]
            for key, term in zip((m.bb, m.ab, m.ba), terms[1:]):
                h[key] += term
        return Jet(f, m.support, g, h)

    __rmul__ = __mul__

    def _disjoint_product(self, other, m):
        """Gradient and Hessian of ``self * other`` over the union ``m`` of
        disjoint supports.  Every coefficient has one term, multiplied
        straight into its block; the cross blocks are one outer product and
        its transpose, equal bit for bit as a product commutes."""
        fa, fb = np.shape(self.f), np.shape(other.f)
        g = m.empty(1, self.gs.shape[1:], fb, fa, other.gs.shape[1:])
        m.product(g, m.a, self.gs, other.f)
        m.product(g, m.b, self.f, other.gs)
        if self.hs is None:
            return g, None
        h = m.empty(2, self.hs.shape[2:], fb, fa, other.hs.shape[2:],
                    self.gs.shape[1:], other.gs.shape[1:])
        m.product(h, m.aa, self.hs, other.f)
        m.product(h, m.bb, self.f, other.hs)
        m.product(h, m.ab, self.gs[:, None], other.gs[None, :])
        h[m.ba] = h[m.ab].swapaxes(0, 1)
        return g, h

    def _reciprocal(self):
        inv = 1.0 / self.f
        inv2 = inv * inv
        g = -self.gs * inv2
        h = None
        if self.hs is not None:
            h = -self.hs * inv2 + 2.0 * _outer(self.gs, self.gs) * (inv2 * inv)
        return Jet(inv, self.support, g, h)

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self * (1.0 / np.asarray(other, dtype=float))
        return self * other._reciprocal()

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, p):
        if isinstance(p, Jet):
            raise TypeError("jet exponents are not supported")
        d2 = None if self.hs is None else p * (p - 1) * self.f ** (p - 2)
        return _unary(self, self.f ** p, p * self.f ** (p - 1), d2)

    def __repr__(self):
        order = 1 if self.hs is None else 2
        return f"Jet(order={order}, support={self.support}, value={self.f!r})"


class _Merge:
    """Union of two different supports A and B, and where each sits in it.

    ``a`` and ``b`` index the union's gradient rows, ``aa``, ``bb``, ``ab``
    and ``ba`` its Hessian blocks.  Positions that step evenly are slices,
    so for up to three variables every block is a view (``views``).  On
    ``disjoint`` supports the blocks of A and B tile the union's gradient,
    and with the two cross blocks its Hessian.
    """

    def __init__(self, a, b):
        self.support = tuple(sorted(set(a) | set(b)))
        self.disjoint = not set(a) & set(b)
        pa = self._positions(a)
        pb = self._positions(b)
        self.a, self.b = pa, pb
        self.aa, self.bb = self._block(pa, pa), self._block(pb, pb)
        self.ab, self.ba = self._block(pa, pb), self._block(pb, pa)
        self.views = isinstance(pa, slice) and isinstance(pb, slice)

    def _positions(self, sub):
        pos = [self.support.index(i) for i in sub]
        step = pos[1] - pos[0] if len(pos) > 1 else 1
        if all(q - p == step for p, q in zip(pos, pos[1:])):
            return slice(pos[0], pos[-1] + 1, step)
        return np.array(pos)

    @staticmethod
    def _block(rows, cols):
        if isinstance(rows, slice) or isinstance(cols, slice):
            return rows, cols
        return np.ix_(rows, cols)

    def zeros(self, rank, *terms):
        """Zero coefficients over the union for ``terms`` of this rank."""
        shape = np.broadcast_shapes(*[t.shape[rank:] for t in terms])
        return np.zeros((len(self.support),) * rank + shape)

    def empty(self, rank, *shapes):
        """Unfilled coefficients of this rank over the union, for the
        broadcast of the sample ``shapes``."""
        return np.empty((len(self.support),) * rank + np.broadcast_shapes(*shapes))

    def scatter(self, rank, a, b):
        """The sum of A's coefficients ``a`` and B's ``b`` of this rank over
        the union: zero-filled and added where the supports share a
        variable, else each block written once and the cross blocks zeroed."""
        ka, kb = (self.a, self.b) if rank == 1 else (self.aa, self.bb)
        if not self.disjoint:
            out = self.zeros(rank, a, b)
            out[ka] = a
            out[kb] += b
            return out
        out = self.empty(rank, a.shape[rank:], b.shape[rank:])
        out[ka], out[kb] = a, b
        if rank == 2:
            out[self.ab] = out[self.ba] = 0.0
        return out

    def product(self, out, key, a, b):
        """``out[key] = a * b``, multiplied straight into ``out`` when every
        block is a view; an index-array key reads a copy, so it is assigned."""
        if self.views:
            np.multiply(a, b, out=out[key])
        else:
            out[key] = a * b


_MERGES = {}


def _merged(a, b):
    """None for equal supports, else their cached ``_Merge``."""
    if a == b:
        return None
    m = _MERGES.get((a, b))
    if m is None:
        m = _MERGES[(a, b)] = _Merge(a, b)
    return m


def _unary(x, v, d1, d2):
    """Chain rule for a scalar function applied to a jet."""
    g = d1 * x.gs
    h = None
    if x.hs is not None:
        h = d1 * x.hs + d2 * _outer(x.gs, x.gs)
    return Jet(v, x.support, g, h)


def variables(values, order=2):
    """Seed a list of jet variables from per-variable value arrays.

    Variable i has support (i,), unit gradient and zero Hessian.  Each seed
    keeps its own shape: seeds that broadcast together, such as the axes
    ``s[:, None]`` and ``t[None, :]`` of a product grid, differentiate the
    whole grid while each unary function runs over its own axis alone.
    Seeds of equal shape share one unit gradient and one zero Hessian."""
    vals = [np.asarray(v, dtype=float) for v in values]
    units = {}
    for v in vals:
        if v.shape not in units:
            units[v.shape] = (np.ones((1,) + v.shape),
                              np.zeros((1, 1) + v.shape) if order == 2 else None)
    return [Jet(v, (i,), *units[v.shape]) for i, v in enumerate(vals)]


def derivatives(fn, values, order=2):
    """Values and partials of ``fn``'s components as arrays.

    ``fn`` is called with one jet variable per entry of ``values`` (seeded by
    ``variables``) and returns a sequence of M components.  Returns
    ``f[..., m]``, ``g[..., i, m]`` and, for order 2, ``h[..., i, j, m]``,
    where ``...`` is the broadcast shape of ``values`` and i, j index the
    variables; derivatives off a component's support, and every derivative
    of a component that is a plain number or array, are zero.  The seeds
    keep their own shapes (see ``variables``): axes ``s[:, None]`` and
    ``t[None, :]`` give the same arrays, bit for bit, as the grid they
    broadcast to, at a fraction of the cost.

    The arrays are views over component-major buffers, ``(m,) + S``,
    ``(i, m) + S`` and ``(i, j, m) + S`` for the sample shape S: each
    component's value and each of its partials is one contiguous block,
    written in one pass, and reading one out (``g[..., i, m]``) is a
    contiguous pass too.  Moving the sample axes of a view back to the
    end (``np.moveaxis(g, 0, -1)`` for 1-D samples) gives the buffer.
    """
    xs = variables(values, order=order)
    return read_out(fn(*xs), xs)


def read_out(comps, xs):
    """``derivatives``' arrays of the components ``comps`` of a map of the seeds ``xs``."""
    shape = np.broadcast_shapes(*[x.f.shape for x in xs])
    n, m = len(xs), len(comps)
    f = np.empty((m,) + shape)
    g = np.empty((n, m) + shape)
    h = np.empty((n, n, m) + shape) if xs[0].hs is not None else None
    # the buffers are not zero-filled: every partial off its component's
    # support is zeroed in one pass, every other written once below
    supports = tuple(comp.support if isinstance(comp, Jet) else () for comp in comps)
    off_g, off_h = _off_support(supports, n)
    g[off_g] = 0.0
    if h is not None:
        h[off_h] = 0.0
    for k, comp in enumerate(comps):
        if not isinstance(comp, Jet):
            f[k] = comp
            continue
        f[k] = comp.f
        for a, i in enumerate(comp.support):
            g[i, k] = comp.gs[a]
            if h is not None:
                for b, j in enumerate(comp.support):
                    h[i, j, k] = comp.hs[a, b]
    f, g = np.moveaxis(f, 0, -1), np.moveaxis(g, (0, 1), (-2, -1))
    return (f, g) if h is None else (f, g, np.moveaxis(h, (0, 1, 2), (-3, -2, -1)))


_OFF_SUPPORT = {}


def _off_support(supports, n):
    """Index arrays of ``read_out``'s gradient blocks (i, k) and Hessian
    blocks (i, j, k) off the support of component k, cached per supports."""
    off = _OFF_SUPPORT.get((supports, n))
    if off is None:
        off = _OFF_SUPPORT[(supports, n)] = tuple(
            tuple(np.array([(*ij, k) for k, support in enumerate(supports)
                            for ij in np.ndindex((n,) * rank) if not set(ij) <= set(support)],
                           dtype=np.intp).reshape(-1, rank + 1).T)
            for rank in (1, 2))
    return off


def _embed(x, m, key, block):
    """Coefficients of jet ``x`` over the merged support ``m``, zero off its own."""
    g = np.zeros((len(m.support),) + x.gs.shape[1:])
    g[key] = x.gs
    h = None
    if x.hs is not None:
        h = np.zeros((len(m.support),) * 2 + x.hs.shape[2:])
        h[block] = x.hs
    return g, h


def where(cond, a, b):
    """Branch selection on jets; both branches must be evaluated already.

    Used for piecewise-smooth profiles whose pieces agree to all orders at
    the seams, so selecting coefficient-wise is exact.  A plain-number
    branch has zero derivatives.
    """
    if not isinstance(a, Jet) and not isinstance(b, Jet):
        return np.where(cond, a, b)
    ref = a if isinstance(a, Jet) else b
    fa = a.f if isinstance(a, Jet) else a
    fb = b.f if isinstance(b, Jet) else b
    f = np.where(cond, fa, fb)
    support = ref.support
    if not isinstance(a, Jet):
        ga, ha, gb, hb = 0.0, 0.0, b.gs, b.hs
    elif not isinstance(b, Jet):
        ga, ha, gb, hb = a.gs, a.hs, 0.0, 0.0
    else:
        m = a._merge(b)
        ga, ha, gb, hb = a.gs, a.hs, b.gs, b.hs
        if m is not None:
            support = m.support
            ga, ha = _embed(a, m, m.a, m.aa)
            gb, hb = _embed(b, m, m.b, m.bb)
    g = np.where(cond[None], ga, gb)
    h = None
    if ref.hs is not None:
        h = np.where(cond[None, None], ha, hb)
    return Jet(f, support, g, h)


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


def sincos(x):
    """``(sin(x), cos(x))`` from one ``np.sin`` and one ``np.cos`` pass;
    each equals the separate call bit for bit."""
    if isinstance(x, Jet):
        s, c = np.sin(x.f), np.cos(x.f)
        return _unary(x, s, c, -s), _unary(x, c, -s, -c)
    return np.sin(x), np.cos(x)


def tan(x):
    if isinstance(x, Jet):
        t = np.tan(x.f)
        sec2 = 1.0 + t * t
        return _unary(x, t, sec2, None if x.hs is None else 2.0 * t * sec2)
    return np.tan(x)


def exp(x):
    if isinstance(x, Jet):
        e = np.exp(x.f)
        return _unary(x, e, e, e)
    return np.exp(x)


def log(x):
    if isinstance(x, Jet):
        d2 = None if x.hs is None else -1.0 / (x.f * x.f)
        return _unary(x, np.log(x.f), 1.0 / x.f, d2)
    return np.log(x)


def sqrt(x):
    if isinstance(x, Jet):
        r = np.sqrt(x.f)
        d2 = None if x.hs is None else -0.25 / (r * x.f)
        return _unary(x, r, 0.5 / r, d2)
    return np.sqrt(x)
