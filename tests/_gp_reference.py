"""Frozen two-pass reference of the exact GP's marginal-likelihood evaluation.

A verbatim copy of the evaluation the one-pass fast path replaced: the
covariance comes from ``kernel(x, x)`` plus a dense noise matrix, the
factorisation and solves go through the ``scipy.linalg`` wrappers with an
``np.eye`` per jitter try, and the gradient recomputes the pairwise
distances and the kernel's transcendentals from scratch before contracting.

It is the oracle for the bit-identity property in ``tests/test_gp.py``:
the fast path must return exactly (``==``) the same value and gradient, so
every fitted hyperparameter, trajectory and fingerprint stays put.  Keep it
frozen; it must not import anything from the code under test beyond the
model's plain attributes.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg

JITTERS = (1e-10, 1e-8, 1e-6, 1e-4, 1e-2)


class ReferenceFitError(RuntimeError):
    """No jitter level made the covariance positive definite."""


def pairwise_sq_dists(x1, x2, lengthscales):
    a = x1 / lengthscales
    b = x2 / lengthscales
    aa = np.sum(a * a, axis=1)[:, None]
    bb = np.sum(b * b, axis=1)[None, :]
    sq = aa + bb - 2.0 * (a @ b.T)
    return np.maximum(sq, 0.0)


def kernel_name(kernel):
    name = type(kernel).__name__
    if name == "RBF":
        return "rbf"
    if name == "Matern52":
        return "matern52"
    raise TypeError(f"no reference for kernel {name}")


def kernel_matrix(kernel, x):
    """``kernel(x, x)`` as the replaced code computed it."""
    sq = pairwise_sq_dists(x, x, kernel.lengthscales)
    if kernel_name(kernel) == "rbf":
        return kernel.variance * np.exp(-0.5 * sq)
    r = np.multiply(sq, 5.0)
    np.sqrt(r, out=r)
    decay = np.negative(r)
    np.exp(decay, out=decay)
    poly = np.multiply(r, r)
    np.divide(poly, 3.0, out=poly)
    r += 1.0
    r += poly
    np.multiply(r, kernel.variance, out=r)
    np.multiply(r, decay, out=r)
    return r


def chol_with_jitter(matrix):
    for jitter in JITTERS:
        try:
            chol = linalg.cholesky(
                matrix + jitter * np.eye(matrix.shape[0]), lower=True
            )
            return chol, jitter
        except linalg.LinAlgError:
            continue
    raise ReferenceFitError("covariance matrix not positive definite")


def _ard_grad_dot(kernel, x, m, k_matrix, weight):
    a = np.atleast_2d(np.asarray(x, dtype=float)) / kernel.lengthscales
    w = m * weight
    out = np.empty(kernel.num_params())
    out[0] = float(np.sum(m * k_matrix))
    row = w.sum(axis=1)
    col = w.sum(axis=0)
    sq = a * a
    out[1:] = row @ sq + col @ sq - 2.0 * np.einsum("id,id->d", a, w @ a)
    return out


def grad_log_params_dot(kernel, x, m):
    """``sum_ij m_ij * dK_ij/d(log theta_p)``, recomputed from scratch."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    sq = pairwise_sq_dists(x, x, kernel.lengthscales)
    if kernel_name(kernel) == "rbf":
        k = kernel.variance * np.exp(-0.5 * sq)
        return _ard_grad_dot(kernel, x, m, k, k)
    r = np.sqrt(5.0 * sq)
    decay = np.exp(-r)
    k = kernel.variance * (1.0 + r + r * r / 3.0) * decay
    weight = (5.0 / 3.0) * kernel.variance * (1.0 + r) * decay
    return _ard_grad_dot(kernel, x, m, k, weight)


def _noise_diag(gp, n):
    if gp._noise_scale is None:
        return gp.noise_variance * np.eye(n)
    return np.diag(gp.noise_variance * gp._noise_scale)


def neg_log_marginal(gp, log_params, jac=False):
    """``GaussianProcess._neg_log_marginal`` as the replaced code ran it."""
    gp._apply_log_params(log_params)
    n = gp._x.shape[0]
    cov = kernel_matrix(gp.kernel, gp._x) + _noise_diag(gp, n)
    try:
        chol, _ = chol_with_jitter(cov)
    except ReferenceFitError:
        return (1e12, np.zeros_like(log_params)) if jac else 1e12
    alpha = linalg.cho_solve((chol, True), gp._z)
    lml = (
        -0.5 * float(gp._z @ alpha)
        - float(np.sum(np.log(np.diag(chol))))
        - 0.5 * n * np.log(2.0 * np.pi)
    )
    if not np.isfinite(lml):
        return (1e12, np.zeros_like(log_params)) if jac else 1e12
    if not jac:
        return -lml
    k_inv = linalg.cho_solve((chol, True), np.eye(n))
    a_mat = np.outer(alpha, alpha) - k_inv
    grad = np.empty_like(log_params)
    num_kernel = gp.kernel.num_params()
    grad[:num_kernel] = 0.5 * grad_log_params_dot(gp.kernel, gp._x, a_mat)
    if gp.fit_noise:
        if gp._noise_scale is None:
            grad[num_kernel] = (
                0.5 * gp.noise_variance * (float(alpha @ alpha) - np.trace(k_inv))
            )
        else:
            scale = gp._noise_scale
            grad[num_kernel] = (
                0.5
                * gp.noise_variance
                * (float(alpha @ (scale * alpha)) - float(np.diag(k_inv) @ scale))
            )
    return -lml, -grad
