"""Lorentz (hyperboloid) model primitives.

Points live on the upper sheet of the two-sheeted hyperboloid in Minkowski
space with signature (+,...,+,-): the TIME coordinate is the LAST component,
so a point is laid out as [x_space, x_time]. All math runs in double
precision and is differentiable through the autograd engine; every function
accepts either Tensors or plain arrays (constants) and supports arbitrary
leading batch axes.
"""

from __future__ import annotations

import math

import numpy as np

from . import autograd as ag
from .autograd import Tensor, as_tensor

ORIGIN_EPS = 1e-12


class DegenerateInputError(ValueError):
    """Raised when a cone operation is evaluated at a point with no axis."""


def lorentz_inner(x, y) -> Tensor:
    """Minkowski bilinear form -x_t*y_t + <x_s, y_s>, time coordinate last."""
    x, y = as_tensor(x), as_tensor(y)
    if x.shape[-1] != y.shape[-1]:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if x.shape[-1] < 2:
        raise ValueError("Lorentz vectors need at least 2 components")
    space = (x[..., :-1] * y[..., :-1]).sum(axis=-1)
    return space - x[..., -1] * y[..., -1]


def pairwise_lorentz_inner(x, y) -> Tensor:
    """All-pairs Minkowski inner products: (A, n+1) x (B, n+1) -> (A, B)."""
    x, y = as_tensor(x), as_tensor(y)
    space = x[..., :-1] @ ag.transpose(y[..., :-1], (1, 0))
    time = ag.reshape(x[..., -1], (-1, 1)) * ag.reshape(y[..., -1], (1, -1))
    return space - time


def time_from_space(x_space, kappa) -> Tensor:
    """Recover the (positive) time coordinate from the manifold constraint."""
    x_space, kappa = as_tensor(x_space), as_tensor(kappa)
    return ag.sqrt(1.0 / kappa + (x_space * x_space).sum(axis=-1))


def exp_map_origin(v_euc, kappa) -> Tensor:
    """Lift a Euclidean vector onto the hyperboloid through the origin.

    x_space = sinh(sqrt(k)|v|) / (sqrt(k)|v|) * v, with the time coordinate
    recovered from the constraint so membership holds by construction. The
    |v| = 0 limit is the origin (handled analytically inside sinhc).
    """
    v_euc, kappa = as_tensor(v_euc), as_tensor(kappa)
    sk = ag.sqrt(kappa)
    norm = ag.l2_norm(v_euc, axis=-1, keepdims=True)
    x_space = ag.sinhc(sk * norm) * v_euc
    x_time = time_from_space(x_space, kappa)
    return ag.concat([x_space, ag.reshape(x_time, x_time.shape + (1,))], axis=-1)


def geodesic_distance(x, y, kappa) -> Tensor:
    """Geodesic length sqrt(1/k) * acosh(-k <x,y>_L); acosh argument clamped
    to >= 1 so round-off between near-identical points cannot escape the
    domain."""
    kappa = as_tensor(kappa)
    arg = -kappa * lorentz_inner(x, y)
    return ag.sqrt(1.0 / kappa) * ag.acosh(arg)


def pairwise_geodesic_distance(x, y, kappa) -> Tensor:
    kappa = as_tensor(kappa)
    arg = -kappa * pairwise_lorentz_inner(x, y)
    return ag.sqrt(1.0 / kappa) * ag.acosh(arg)


def lorentz_radius(x, kappa) -> Tensor:
    """Geodesic distance from the origin: sqrt(1/k) acosh(sqrt(k) x_time)."""
    x, kappa = as_tensor(x), as_tensor(kappa)
    return ag.sqrt(1.0 / kappa) * ag.acosh(ag.sqrt(kappa) * x[..., -1])


def half_aperture(x, kappa, cone_k: float) -> Tensor:
    """Cone half-opening arcsin(min(1, 2K / (sqrt(k) |x_space|))), K = `cone_k`.

    Saturates at pi/2 for points close to the origin; monotonically
    non-increasing in the spatial norm, so general concepts near the origin
    get wider cones.
    """
    x, kappa = as_tensor(x), as_tensor(kappa)
    snorm = ag.l2_norm(x[..., :-1], axis=-1)
    arg = (2.0 * cone_k) / (ag.sqrt(kappa) * snorm + 1e-30)
    return ag.arcsin(ag.clamp(arg, hi=1.0))


def exterior_angle(x, y, kappa) -> Tensor:
    """Angle at parent `x` between the geodesic toward `y` and the outward
    cone axis (direction away from the origin).

    Closed form: arccos((y_t + x_t * k<x,y>_L) / (|x_space| sqrt((k<x,y>_L)^2 - 1))),
    argument clamped to [-1, 1]. Coincident points return 0 by convention.
    Raises DegenerateInputError for a parent at the origin (no axis).
    """
    x, y, kappa = as_tensor(x), as_tensor(y), as_tensor(kappa)
    snorm_val = np.linalg.norm(x.data[..., :-1], axis=-1)
    if np.any(snorm_val < ORIGIN_EPS):
        raise DegenerateInputError("exterior angle undefined for a parent at the origin")
    kxy = kappa * lorentz_inner(x, y)
    numer = y[..., -1] + x[..., -1] * kxy
    snorm = ag.l2_norm(x[..., :-1], axis=-1)
    # (k<x,y>)^2 - 1 -> 0 when x == y; the floor makes that case return
    # arccos of a huge-denominator ratio ~ arccos(clamped) = 0 gradient-free.
    denom = snorm * ag.sqrt(ag.clamp(kxy * kxy - 1.0, lo=1e-14))
    ratio = ag.clamp(numer / denom, lo=-1.0, hi=1.0)
    angle = ag.arccos(ratio)
    # x == y convention: zero angle (a point trivially entails itself).
    coincident = np.abs(-kxy.data - 1.0) < 1e-12
    if np.any(coincident):
        angle = angle * (~coincident).astype(np.float64)
    return angle


class ManifoldParams:
    """Learnable curvature and pre-lift projection scalars, registered in
    `store` as `manifold.*` (no weight decay) and kept in log-space so
    positivity holds by construction.

    alpha_img and alpha_txt start at 1/sqrt(n); curvature starts at 1.
    """

    def __init__(self, embed_dim: int, store, init_kappa: float = 1.0):
        if embed_dim < 2:
            raise ValueError("embed_dim must be >= 2")
        self.embed_dim = embed_dim
        log_alpha0 = -0.5 * math.log(embed_dim)
        self.log_kappa = store.add("manifold.log_kappa", math.log(init_kappa), no_decay=True)
        self.log_alpha_img = store.add("manifold.log_alpha_img", log_alpha0, no_decay=True)
        self.log_alpha_txt = store.add("manifold.log_alpha_txt", log_alpha0, no_decay=True)

    @property
    def kappa(self) -> Tensor:
        return ag.exp(self.log_kappa)

    def alpha(self, which: str) -> Tensor:
        if which == "image":
            return ag.exp(self.log_alpha_img)
        if which == "text":
            return ag.exp(self.log_alpha_txt)
        raise ValueError(f"unknown modality {which!r} (expected 'image' or 'text')")


def lift(v_euc, which: str, params: ManifoldParams) -> Tensor:
    """Scale a Euclidean embedding by the modality's projection scalar and
    map it onto the hyperboloid through the origin."""
    v_euc = as_tensor(v_euc)
    if v_euc.shape[-1] != params.embed_dim:
        raise ValueError(f"expected dim {params.embed_dim}, got {v_euc.shape[-1]}")
    return exp_map_origin(params.alpha(which) * v_euc, params.kappa)
