"""Minimal reverse-mode automatic differentiation over numpy float64 tensors.

The op set is exactly what the encoders, manifold geometry, and losses call,
in the operand forms they call it with. Each op is a forward computation plus
one gradient function per operand, handed to `_make`; `_make` is the one place
that decides which gradients get computed, and it skips every operand that is
neither trainable nor inside the graph (the frozen backbone, constants).
Everything runs in double precision; graphs are built eagerly and freed after
backward. Non-smooth points (clamp boundaries, hinge kinks) use subgradient 0.
"""

from __future__ import annotations

import contextlib
import ctypes
import math

import numpy as np
from scipy.special import erf


def _keep_freed_memory() -> None:
    """Make glibc keep freed array memory in the process for reuse.

    An `evaluate` call of 256 items makes 8 MB temporaries. By default glibc
    serves such blocks with mmap and unmaps them when freed, and trims the
    heap top, so the next call faults the same pages in again (about 18,000
    minor faults per call, a fifth of its time). Both limits must move: 32 MiB
    is glibc's documented mmap threshold maximum on 64-bit, so every engine
    temporary, at any batch size in use, comes from the heap; a 1 GiB trim
    threshold is far above any heap this engine grows, so the heap is never
    handed back while the process runs. This changes process-wide
    allocator state: RSS stays at its high-water mark until exit. Where libc
    has no `mallopt` (macOS, Windows) nothing happens; musl ignores it."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 1 << 30)   # M_TRIM_THRESHOLD


_keep_freed_memory()

_GRAD_ENABLED = True

# Derivative of acosh stays finite by evaluating it no closer to 1 than this.
ACOSH_GRAD_FLOOR = 1.0 + 1e-7
ARCSIN_GRAD_CEIL = 1.0 - 1e-7


@contextlib.contextmanager
def no_grad():
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A node in the computation graph: a float64 array plus backward wiring."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, op="leaf", parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = op
        self._parents = parents
        self._backward = backward

    # -- plumbing ---------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op!r}, requires_grad={self.requires_grad})"

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar root")
        topo, seen = [], set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen and p._grad_relevant():
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def _grad_relevant(self) -> bool:
        return self.requires_grad or self._parents

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(as_tensor(other), self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis, keepdims)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, op, *edges) -> Tensor:
    """The node holding `data`, the result of `op`. One `(operand, grad_fn)`
    edge per operand, in operand order: `grad_fn(g)` maps the gradient of the
    result to the gradient of that operand, shaped like the operand.

    This is the one place that decides which gradients get computed. With
    grad disabled, or no operand trainable or inside the graph, the node is a
    constant. Otherwise its backward calls an edge's `grad_fn` only for an
    operand that is trainable or inside the graph, so frozen weights and
    constants cost no gradient work in any op.
    """
    if not (_GRAD_ENABLED and any(t._grad_relevant() for t, _ in edges)):
        return Tensor(data, op=op)

    def backward(g):
        for t, grad_fn in edges:
            if t._grad_relevant():
                _accum(t, grad_fn(g))

    return Tensor(data, op=op, parents=tuple(t for t, _ in edges), backward=backward)


def _accum(t: Tensor, g):
    g = np.asarray(g, dtype=np.float64)
    if t.grad is None:
        # Held by reference and never mutated in place (accumulation below
        # allocates), so sharing one upstream array between parents is safe.
        t.grad = g
    else:
        t.grad = t.grad + g


# -- arithmetic -------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data + b.data, "add",
                 (a, lambda g: _unbroadcast(g, a.data.shape)),
                 (b, lambda g: _unbroadcast(g, b.data.shape)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data * b.data, "mul",
                 (a, lambda g: _unbroadcast(g * b.data, a.data.shape)),
                 (b, lambda g: _unbroadcast(g * a.data, b.data.shape)))


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data / b.data, "div",
                 (a, lambda g: _unbroadcast(g / b.data, a.data.shape)),
                 (b, lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)))


def _gemm(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """`a @ w` for numpy arrays, always through the GEMM of a stack of rows:
    a lone (1, n) row runs as two equal rows and one is kept. numpy would
    multiply a single row by a matrix-vector product, which rounds
    differently, so a row's result would depend on its batch."""
    if a.ndim == 2 and a.shape[0] == 1:
        return (np.concatenate([a, a]) @ w)[:1]
    return a @ w


def _weight_grad(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of the matrix in `a @ w`: it sums over every row of the
    stack, so one flat GEMM."""
    return a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def matmul(a, b) -> Tensor:
    """`a @ b` in the two forms the encoders use: a stack of rows (..., n)
    against a matrix (n, m), or two stacks with equal batch shapes. 1-d
    operands and broadcast batch axes raise ValueError."""
    a, b = as_tensor(a), as_tensor(b)
    if (a.ndim < 2 or b.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]
            or (b.ndim > 2 and a.data.shape[:-2] != b.data.shape[:-2])):
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    if b.ndim == 2:
        def grad_b(g):
            return _weight_grad(a.data, g)
    else:
        def grad_b(g):
            return np.swapaxes(a.data, -1, -2) @ g
    return _make(_gemm(a.data, b.data), "matmul",
                 (a, lambda g: g @ np.swapaxes(b.data, -1, -2)), (b, grad_b))


def linear(x, w, b) -> Tensor:
    """The affine map `x @ w + b` of a stack of rows (..., n), a matrix
    (n, m) and a bias (m,), as one node. The product is computed as `matmul`
    computes it and the bias is added into it in place, so the graph keeps
    no pre-bias array; the bits are those of `matmul` then `add`."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if (x.ndim < 2 or w.ndim != 2 or x.data.shape[-1] != w.data.shape[0]
            or b.data.shape != w.data.shape[1:]):
        raise ValueError(f"linear shape mismatch: {x.shape} @ {w.shape} + {b.shape}")
    out = _gemm(x.data, w.data)
    out += b.data
    return _make(out, "linear",
                 (x, lambda g: g @ w.data.T),
                 (w, lambda g: _weight_grad(x.data, g)),
                 (b, lambda g: _unbroadcast(g, b.data.shape)))


# -- shape ops ---------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return _make(a.data.reshape(shape), "reshape", (a, lambda g: g.reshape(a.data.shape)))


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    return _make(a.data.transpose(axes), "transpose",
                 (a, lambda g: g.transpose(np.argsort(axes))))


def getitem(a, key) -> Tensor:
    a = as_tensor(a)

    def grad(g):
        full = np.zeros_like(a.data)
        np.add.at(full, key, g)
        return full

    return _make(a.data[key], "getitem", (a, grad))


def concat(tensors, axis=-1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    lead = (slice(None),) * (axis % out_data.ndim)
    edges, start = [], 0
    for t in tensors:
        stop = start + t.data.shape[axis]
        edges.append((t, lambda g, piece=lead + (slice(start, stop),): g[piece]))
        start = stop
    return _make(out_data, "concat", *edges)


def stack(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    return _make(np.stack([t.data for t in tensors], axis=axis), "stack",
                 *((t, lambda g, i=i: np.take(g, i, axis=axis)) for i, t in enumerate(tensors)))


# -- reductions --------------------------------------------------------------


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)

    def grad(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.data.shape).copy()

    return _make(a.data.sum(axis=axis, keepdims=keepdims), "sum", (a, grad))


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    n = a.data.size if axis is None else np.prod([a.data.shape[ax] for ax in np.atleast_1d(axis)])
    return tsum(a, axis, keepdims) * (1.0 / float(n))


# -- pointwise ---------------------------------------------------------------


def _pointwise(a, fn, dfn, op):
    a = as_tensor(a)
    out_data = fn(a.data)
    return _make(out_data, op, (a, lambda g: g * dfn(a.data, out_data)))


def exp(a) -> Tensor:
    return _pointwise(a, np.exp, lambda x, y: y, "exp")


def sqrt(a) -> Tensor:
    return _pointwise(a, np.sqrt, lambda x, y: 0.5 / y, "sqrt")


def acosh(a) -> Tensor:
    """acosh with the argument clamped to >= 1; derivative floored away from 1.

    Round-off can push arguments slightly below 1 for near-coincident points;
    the value clamp absorbs that and the gradient clamp keeps it finite.
    """
    a = as_tensor(a)
    arg = np.maximum(a.data, 1.0)
    # Snap arguments within round-off of 1 so d(x, x) is exactly zero.
    arg = np.where(arg - 1.0 < 1e-12, 1.0, arg)

    def grad(g):
        x = np.maximum(a.data, ACOSH_GRAD_FLOOR)
        return g / np.sqrt(x * x - 1.0)

    return _make(np.arccosh(arg), "acosh", (a, grad))


def _arcsin_grad_denominator(x):
    """sqrt(1 - x^2), the reciprocal of arcsin's derivative, with x kept off +-1."""
    x = np.clip(x, -ARCSIN_GRAD_CEIL, ARCSIN_GRAD_CEIL)
    return np.sqrt(1.0 - x * x)


def arcsin(a) -> Tensor:
    a = as_tensor(a)
    return _make(np.arcsin(np.clip(a.data, -1.0, 1.0)), "arcsin",
                 (a, lambda g: g / _arcsin_grad_denominator(a.data)))


def arccos(a) -> Tensor:
    a = as_tensor(a)
    return _make(np.arccos(np.clip(a.data, -1.0, 1.0)), "arccos",
                 (a, lambda g: -g / _arcsin_grad_denominator(a.data)))


_SINHC_TAYLOR_CUTOFF = 1e-4


def sinhc(a) -> Tensor:
    """sinh(t)/t with the removable singularity handled by Taylor expansion."""
    a = as_tensor(a)
    x = a.data
    small = np.abs(x) < _SINHC_TAYLOR_CUTOFF
    safe = np.where(small, 1.0, x)

    def grad(g):
        return g * np.where(
            small,
            x / 3.0 + x**3 / 30.0,
            (np.cosh(safe) * safe - np.sinh(safe)) / (safe * safe),
        )

    return _make(np.where(small, 1.0 + x * x / 6.0 + x**4 / 120.0, np.sinh(safe) / safe),
                 "sinhc", (a, grad))


def clamp(a, lo=None, hi=None) -> Tensor:
    """Clip to [lo, hi]; subgradient 0 at and beyond the boundaries."""
    a = as_tensor(a)

    def grad(g):
        inside = np.ones_like(a.data, dtype=bool)
        if lo is not None:
            inside &= a.data > lo
        if hi is not None:
            inside &= a.data < hi
        return g * inside

    return _make(np.clip(a.data, lo, hi), "clamp", (a, grad))


def relu(a) -> Tensor:
    return clamp(a, lo=0.0)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(a) -> Tensor:
    """x * Phi(x) with the exact (erf) normal CDF. Temporaries are built in
    place (ufunc `out=`) with the operations of the closed forms in their
    order, so the bits are those of the plain expressions."""
    a = as_tensor(a)
    x = a.data
    # 0.5 * (1 + erf(x / sqrt(2)))
    cdf = np.multiply(x, _INV_SQRT2, out=np.empty_like(x))
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5

    def grad(g):
        # g * (cdf + x / sqrt(2 pi) * exp(-0.5 * x * x))
        d = np.multiply(x, -0.5, out=np.empty_like(x))
        d *= x
        np.exp(d, out=d)
        u = np.multiply(x, _INV_SQRT2PI, out=np.empty_like(x))
        u *= d
        u += cdf
        u *= g
        return u

    return _make(x * cdf, "gelu", (a, grad))


def softmax(a, axis=-1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    return _make(y, "softmax", (a, lambda g: y * (g - (g * y).sum(axis=axis, keepdims=True))))


def log_softmax(a, axis=-1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    out_data = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return _make(out_data, "log_softmax",
                 (a, lambda g: g - np.exp(out_data) * g.sum(axis=axis, keepdims=True)))


def layer_normalize(x, gain, bias) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    Fused op: one node instead of the eight a composite would create.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    inv_std = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + 1e-5)
    xhat = centered * inv_std

    lead = tuple(range(x.ndim - 1))

    def grad_x(g):
        dxhat = g * gain.data
        return inv_std * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )

    return _make(xhat * gain.data + bias.data, "layer_norm",
                 (x, grad_x),
                 (gain, lambda g: (g * xhat).sum(axis=lead)),
                 (bias, lambda g: g.sum(axis=lead)))


def embedding_lookup(table, indices) -> Tensor:
    """Row gather from a (vocab, dim) table by an integer index array."""
    table = as_tensor(table)
    indices = np.asarray(indices)
    if indices.min() < 0 or indices.max() >= table.data.shape[0]:
        raise ValueError("embedding index out of range")

    def grad(g):
        flat_idx = indices.reshape(-1)
        flat_g = g.reshape(-1, table.data.shape[1])
        vocab = table.data.shape[0]
        if flat_idx.size * vocab <= 1 << 22:
            # One-hot GEMM scatter: much faster than np.add.at at toy vocab.
            onehot = np.zeros((flat_idx.size, vocab))
            onehot[np.arange(flat_idx.size), flat_idx] = 1.0
            return onehot.T @ flat_g
        full = np.zeros_like(table.data)
        np.add.at(full, flat_idx, flat_g)
        return full

    return _make(table.data[indices], "embedding", (table, grad))


def l2_norm(a, axis=-1, keepdims=False) -> Tensor:
    a = as_tensor(a)
    return sqrt(tsum(a * a, axis=axis, keepdims=keepdims) + 1e-30)


# -- parameters --------------------------------------------------------------


class ParamStore:
    """Named parameter tensors with trainable / weight-decay bookkeeping.

    A parameter is trainable exactly when its tensor has `requires_grad`;
    `add` registers it trainable and `set_trainable` changes that. Frozen
    parameters never receive gradients and are never touched by the
    optimizer.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self.no_decay: set[str] = set()

    def add(self, name, data, no_decay=False):
        if name in self._params:
            raise KeyError(f"duplicate parameter {name!r}")
        t = Tensor(np.array(data, dtype=np.float64), requires_grad=True)
        self._params[name] = t
        if no_decay:
            self.no_decay.add(name)
        return t

    def __getitem__(self, name) -> Tensor:
        return self._params[name]

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    @property
    def trainable(self) -> set[str]:
        return {n for n, t in self._params.items() if t.requires_grad}

    def set_trainable(self, name, flag: bool):
        self._params[name].requires_grad = flag

    def freeze_all(self):
        for name in self._params:
            self.set_trainable(name, False)

    def zero_grads(self):
        for t in self._params.values():
            t.grad = None
