"""Each numpy kernel against an independent twin: the same quantity
computed by general linear algebra (eigvals, eigvalsh, explicit traces)."""

import numpy as np

from geomlab import kernels


def _random_forms(rng, n):
    a = rng.normal(size=(n, 2, 2))
    first = np.einsum("nij,nkj->nik", a, a) + 0.5 * np.eye(2)
    second = rng.normal(size=(n, 2, 2))
    second = 0.5 * (second + second.transpose(0, 2, 1))
    return first, second


def _planes(first, second):
    """The kernel's six entry planes (I00, I01, I11, II00, II01, II11)."""
    return tuple(form[..., i, j] for form in (first, second) for i, j in ((0, 0), (0, 1), (1, 1)))


def test_shape_operator_twins_agree():
    rng = np.random.default_rng(1)
    first, second = _random_forms(rng, 500)
    tr, k1, k2, gap_sq, _ = kernels.shape_operator_batch(*_planes(first, second))
    shape_op = np.linalg.inv(first) @ second
    # I^-1 II is self-adjoint for the metric I, so its eigenvalues are real
    ev = np.sort(np.linalg.eigvals(shape_op).real, axis=1)
    assert np.allclose(k1, ev[:, 1], rtol=1e-10, atol=1e-10)
    assert np.allclose(k2, ev[:, 0], rtol=1e-10, atol=1e-10)
    assert np.allclose(tr, np.trace(shape_op, axis1=1, axis2=2), rtol=1e-12, atol=1e-12)
    assert np.allclose(gap_sq, (ev[:, 1] - ev[:, 0]) ** 2, rtol=1e-8, atol=1e-10)


def test_shape_operator_entries_over_leading_axes():
    rng = np.random.default_rng(3)
    first, second = _random_forms(rng, 60)
    first, second = first.reshape(3, 20, 2, 2), second.reshape(3, 20, 2, 2)
    *_, (s00, s01, s10, s11) = kernels.shape_operator_batch(*_planes(first, second))
    ref = np.linalg.inv(first) @ second
    assert np.allclose(np.stack([s00, s01, s10, s11], axis=-1),
                       ref.reshape(3, 20, 4), rtol=1e-12, atol=1e-12)


def test_tensor_norm_twins_agree():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(100, 3, 3))
    ginv = np.einsum("nij,nkj->nik", a, a) + np.eye(3)
    dg = rng.normal(size=(100, 3, 3))
    dg = 0.5 * (dg + dg.transpose(0, 2, 1))
    ref = [np.trace(gi @ d @ gi @ d) for gi, d in zip(ginv, dg)]
    assert np.allclose(kernels.tensor_norm_sq_batch(ginv, dg), ref, rtol=1e-12)


def test_winding_counts_full_turns():
    phi = np.linspace(0.0, 2 * np.pi, 400, endpoint=False)
    total = kernels.winding_total(np.mod(3.0 * phi, 2 * np.pi), 2 * np.pi)
    assert round(total / (2 * np.pi)) == 3


def test_sym_eig2_twins_agree():
    rng = np.random.default_rng(4)
    mats = rng.normal(size=(300, 2, 2))
    mats = 0.5 * (mats + mats.transpose(0, 2, 1))
    lo, hi = kernels.sym_eig2_batch(mats)
    ref = np.linalg.eigvalsh(mats)
    assert np.allclose(lo, ref[:, 0]) and np.allclose(hi, ref[:, 1])
