"""Hot numeric kernels, vectorised with numpy.

Every kernel is a pure function of its array arguments.
"""

import numpy as np


# -- component-wise 3-vectors ----------------------------------------------
# A vector is a sequence of its three components, each a number or an
# array over a batch of points: one contiguous array per component when
# the batch is stored component-major.

def dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross3(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


# -- shape operator ------------------------------------------------------
# Inputs: the first and second fundamental forms as the planes of their
# entries (I00, I01, I11) and (II00, II01, II11), arrays over a batch of
# points that broadcast together, each one contiguous block when the batch
# is stored component-major.
# Outputs: trace of the shape operator S = I^-1 II, its eigenvalues
# k1 >= k2, the squared eigenvalue gap (k1-k2)^2, which is smooth through
# zero, and the entries (s00, s01, s10, s11) of S.

def shape_operator_batch(a, b, c, p, q, r):
    det_i = a * c - b * b
    s00, s01 = (c * p - b * q) / det_i, (c * q - b * r) / det_i
    s10, s11 = (a * q - b * p) / det_i, (a * r - b * q) / det_i
    tr = s00 + s11
    # (k1-k2)^2 = tr^2 - 4 det S, written so it does not cancel at umbilics
    diff = s00 - s11
    gap_sq = np.maximum(diff * diff + 4.0 * s01 * s10, 0.0)
    half_gap = 0.5 * np.sqrt(gap_sq)
    k1 = 0.5 * tr + half_gap
    k2 = 0.5 * tr - half_gap
    return tr, k1, k2, gap_sq, (s00, s01, s10, s11)


# -- pointwise squared tensor norm ---------------------------------------
# |dg|^2 = ginv^{ik} ginv^{jl} dg_ij dg_kl = trace(A A) with A = ginv dg,
# batched over the leading axes, which broadcast.

def tensor_norm_sq_batch(ginv, dg):
    a = ginv @ dg
    return np.einsum("...ij,...ji->...", a, a)


# -- winding accumulation --------------------------------------------------
# Sequential continuation of angles along a closed loop.  `period` is pi
# for line fields (projective angles) and 2*pi for complex arguments.
# Returns the total accumulated rotation, including the closing step back
# to the first sample.

def winding_total(angles, period):
    closed = np.concatenate([angles, angles[:1]])
    steps = np.diff(closed)
    half = 0.5 * period
    steps = (steps + half) % period - half
    return float(np.sum(steps))


# -- symmetric 2x2 eigenvalues --------------------------------------------

def sym_eig2_batch(mats):
    a, b, c = mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 1]
    mean = 0.5 * (a + c)
    rad = np.sqrt(np.maximum(0.25 * (a - c) ** 2 + b * b, 0.0))
    lo = mean - rad
    hi = mean + rad
    return lo, hi
