"""Reference values and oracles the tests share: the paper's full-size
backbones, the trainable tensors of a parameter store, the finite-difference
gradient checker, the exponential map at an arbitrary base point (with the
`cosh` op it needs), and a wrapped model that keeps the frozen encoder's heads.
The package lifts only through the origin and computes gradients only by
backward, so these live here, beside the tests that check against them."""

from dataclasses import dataclass, field

import numpy as np

from hyperlift import autograd as ag
from hyperlift.autograd import Tensor, as_tensor, no_grad
from hyperlift.encoders import EncoderConfig
from hyperlift.manifold import lorentz_inner
from hyperlift.peft import assemble_adapted_model

# Symbolic architectures for the full-size parameter-budget checks.
CLIP_B_TEXT = EncoderConfig(n_layers=12, d_model=512, n_heads=8, proj_dim=512, vocab_size=49408, max_len=77)
CLIP_B_VISION = EncoderConfig(n_layers=12, d_model=768, n_heads=12, proj_dim=512,
                              patch_grid=(14, 14), image_size=224)
CLIP_S_TEXT = EncoderConfig(n_layers=12, d_model=512, n_heads=8, proj_dim=512, vocab_size=49408, max_len=77)
CLIP_S_VISION = EncoderConfig(n_layers=12, d_model=384, n_heads=6, proj_dim=512,
                              patch_grid=(14, 14), image_size=224)

# Tolerance of the manifold-membership and tangency checks.
MANIFOLD_ATOL = 1e-6


def trainable_params(store) -> dict:
    """{name: tensor} of the trainable parameters, in store order.
    `check_gradients` picks its probes by position, so the order is part of
    what a seeded check computes; `store.trainable` is an unordered set."""
    return {n: t for n, t in store.items() if t.requires_grad}


def n_trainable(store) -> int:
    """The number of trainable scalars in `store`."""
    return sum(t.data.size for t in trainable_params(store).values())


def assemble_keeping_heads(encoder, peft, seed=0):
    """`assemble_adapted_model`, with the encoder's projection heads and final
    LayerNorms put back afterwards, so a freshly wrapped model reproduces the
    frozen encoder's outputs exactly."""
    store = encoder.store
    saved = {name: store[name].data for name in encoder.head_and_final_ln_names()}
    model = assemble_adapted_model(encoder, peft, seed=seed)
    for name, data in saved.items():
        store[name].data = data
    return model


# -- the gradient checker ------------------------------------------------------


@dataclass
class GradCheckReport:
    max_rel_err: float
    n_probes: int
    worst: tuple = field(default=())

    @property
    def passed(self):
        return self.max_rel_err < 1e-4


def _shifted(data: np.ndarray, idx, step: float) -> np.ndarray:
    """A copy of `data` with `step` added at `idx`. Parameters are perturbed
    by swapping in such copies: `Tensor.data` is never written in place."""
    out = data.copy()
    out[idx] += step
    return out


def check_gradients(f, params, n_probes=50, h=1e-5, seed=0) -> GradCheckReport:
    """Compare analytic gradients of scalar `f()` against central differences.

    `params` maps names to trainable Tensors that `f` reads. Probes are random
    coordinates; relative error uses max(|analytic|, |numeric|) as denominator
    and counts near-zero pairs as exact agreement.

    `h` may be a single step size or a sequence. With a sequence, each probe
    is scored at its best-agreeing step: the optimal central-difference step
    depends on local curvature (favoring small steps) versus round-off noise
    relative to the gradient's magnitude (favoring large steps), while a
    genuinely wrong analytic gradient disagrees at every step size.
    """
    named = list(params.items())
    for _, t in named:
        t.grad = None
    out = f()
    out.backward()
    analytic = {n: (t.grad if t.grad is not None else np.zeros_like(t.data)) for n, t in named}

    steps = (h,) if np.isscalar(h) else tuple(h)
    rng = np.random.default_rng(seed)
    sizes = np.array([t.data.size for _, t in named])
    total = int(sizes.sum())
    probes = rng.choice(total, size=min(n_probes, total), replace=False)
    offsets = np.cumsum(sizes)

    max_rel, worst = 0.0, ()
    for flat_idx in probes:
        k = int(np.searchsorted(offsets, flat_idx, side="right"))
        name, t = named[k]
        local = int(flat_idx - (offsets[k - 1] if k else 0))
        idx = np.unravel_index(local, t.data.shape)
        orig = t.data
        a = float(analytic[name][idx])
        rel_here = None
        for step in steps:
            try:
                with no_grad():
                    t.data = _shifted(orig, idx, step)
                    f_plus = f().item()
                    t.data = _shifted(orig, idx, -step)
                    f_minus = f().item()
            finally:
                t.data = orig
            numeric = (f_plus - f_minus) / (2 * step)
            denom = max(abs(a), abs(numeric))
            rel = 0.0 if denom < 1e-8 else abs(a - numeric) / denom
            if rel_here is None or rel < rel_here[0]:
                rel_here = (rel, numeric)
        if rel_here[0] > max_rel:
            max_rel, worst = rel_here[0], (name, idx, a, rel_here[1])
    return GradCheckReport(max_rel_err=max_rel, n_probes=len(probes), worst=worst)


# -- the exponential map at an arbitrary base point ----------------------------


def cosh(a) -> Tensor:
    return ag._pointwise(a, np.cosh, lambda x, y: np.sinh(x), "cosh")


def exp_map_general(p, v, kappa) -> Tensor:
    """Exponential map at an arbitrary base point.

    cosh(sqrt(k)|v|_L) p + sinh(sqrt(k)|v|_L)/(sqrt(k)|v|_L) v, where |v|_L is
    the Lorentzian norm. `v` must be tangent at `p`.
    """
    p, v, kappa = as_tensor(p), as_tensor(v), as_tensor(kappa)
    tangency = np.abs(lorentz_inner(v, p).data)
    if np.any(tangency > MANIFOLD_ATOL):
        raise ValueError(f"vector is not tangent at base point (|<v,p>_L| up to {tangency.max():.3g})")
    sk = ag.sqrt(kappa)
    vnorm = ag.sqrt(ag.clamp(lorentz_inner(v, v), lo=0.0) + 1e-30)
    u = sk * ag.reshape(vnorm, vnorm.shape + (1,))
    return cosh(u) * p + ag.sinhc(u) * v
