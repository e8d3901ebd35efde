"""Dense float64 tensors with tape-based reverse-mode autodiff.

The op vocabulary is what the policy stack and its training loss use:
add, sub, mul, tanh, matmul, transpose, softmax_rows,
scaled_dot_attention, concat_rows, max_over_rows, sum_all,
bce_with_logits, mlp2, and lstm_layer, one LSTM layer over a
trajectory's rows; a constant operand is a plain Tensor. matmul,
transpose, softmax_rows, scaled_dot_attention, concat_rows and
max_over_rows also take a leading batch axis (a trajectory's time
steps), so one recorded op covers every step of a stateless stage;
lstm_layer records the recurrence as one op per layer in the same way
and hands back its carried state as plain arrays, outside the graph.
Each op checks its operands' shapes once, and its callers do not check
them again: matmul the ranks and the inner and batch extents,
concat_rows the parts' widths, and each binary elementwise op numpy's
broadcast inside the op, whose failure becomes a DimensionError naming
the op and both shapes.
Arrays are float64 in memory; a built graph belongs to one execution
context and `backward` visits each node exactly once, so gradients are
bitwise reproducible for a fixed graph.

Which tensors train is set once, by the trainable flag each gets from
ParamSet.add (policy.init_model states the policy's flags), and read one
way, through ParamSet.trainable_items: the optimizer, zero_grads and
grad_check all walk that list.

The ParamSet owns the layout of that list. ParamSet.flat_layout lays the
trainable entries out once, in name order, as views into one contiguous
data vector and one gradient vector (FlatLayout). It is built when the
optimizer is built (training.Adam), or by the first zero_grads, so a
model that only runs no-grad rollouts keeps its own arrays. After that,
zero_grads is one fill of the gradient vector and the only place
gradients are zeroed; backward only adds into the views of the leaves
it reaches. Write a laid-out tensor's .data and .grad in place: rebinding
either detaches it from the vectors, and the next zero_grads or
optimizer step raises ContractError rather than update a copy.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import (
    ContractError,
    DeterminismError,
    DimensionError,
    NumericInputError,
)

Array = np.ndarray

# Graph recording can be suspended for pure inference (rollouts, finite
# differences); the flag is a stack so contexts nest.
_GRAD_ENABLED = [True]


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Suspend graph recording inside the block."""
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


class Tensor:
    """Row-major float64 array plus an optional autodiff tape node."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[Array], tuple[Array | None, ...]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def is_leaf(self) -> bool:
        return not self._parents

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])


def _result(data: Array, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """Build an op result, linking it into the tape only when needed."""
    if _GRAD_ENABLED[-1] and any(p.requires_grad for p in parents):
        out = Tensor(data, requires_grad=True)
        out._parents = parents
        out._vjp = vjp
        return out
    return Tensor(data)


def _reduce_to(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum a broadcast gradient back down to the original shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _broadcast_op(op, a: Tensor, b: Tensor, opname: str) -> Array:
    """op(a.data, b.data), with numpy's broadcast check as the one shape
    check: its ValueError becomes a DimensionError naming both shapes."""
    try:
        return op(a.data, b.data)
    except ValueError:
        raise DimensionError(
            f"{opname}: shapes {a.shape} and {b.shape} do not broadcast"
        ) from None


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------

# A constant operand (requires_grad False: a scale, a target, frozen tokens)
# gets None from the VJP, as in matmul; backward would discard its gradient.


def add(a: Tensor, b: Tensor) -> Tensor:
    out = _broadcast_op(np.add, a, b, "add")

    def vjp(g: Array):
        return (_reduce_to(g, a.shape) if a.requires_grad else None,
                _reduce_to(g, b.shape) if b.requires_grad else None)

    return _result(out, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = _broadcast_op(np.subtract, a, b, "sub")

    def vjp(g: Array):
        return (_reduce_to(g, a.shape) if a.requires_grad else None,
                _reduce_to(-g, b.shape) if b.requires_grad else None)

    return _result(out, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = _broadcast_op(np.multiply, a, b, "mul")
    ad, bd = a.data, b.data

    def vjp(g: Array):
        return (_reduce_to(g * bd, a.shape) if a.requires_grad else None,
                _reduce_to(g * ad, b.shape) if b.requires_grad else None)

    return _result(out, (a, b), vjp)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def vjp(g: Array):
        return (g * (1.0 - y * y),)

    return _result(y, (a,), vjp)


def _sigmoid(x: Array) -> Array:
    # Stable in both tails: exp only ever sees -|x|.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b on 2-D operands; either or both may carry a leading batch axis.

    A 2-D operand is shared by every batch entry, so its gradient is
    summed over that axis. Each batch entry's product is the same BLAS
    call as the 2-D op on that entry, hence bitwise equal to it.
    """
    if a.data.ndim not in (2, 3) or b.data.ndim not in (2, 3):
        raise DimensionError(
            f"matmul expects 2-D operands (or batches of them), got {a.shape} and {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.shape} x {b.shape}"
        )
    if a.data.ndim == b.data.ndim == 3 and a.shape[0] != b.shape[0]:
        raise DimensionError(f"matmul batch sizes disagree: {a.shape} x {b.shape}")
    out = a.data @ b.data
    ad, bd = a.data, b.data

    def vjp(g: Array):
        # Constant operands (frozen tokens, instruction embeddings) get no
        # gradient, which skips the largest products of the backward pass.
        ga = gb = None
        if a.requires_grad:
            ga = _reduce_to(g @ bd.swapaxes(-1, -2), a.shape)
        if b.requires_grad:
            if ad.ndim > bd.ndim:  # a shared weight: one GEMM over all batch rows
                gb = ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = _reduce_to(ad.swapaxes(-1, -2) @ g, b.shape)
        return ga, gb

    return _result(out, (a, b), vjp)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes (the matrix transpose of every batch entry)."""
    def vjp(g: Array):
        return (g.swapaxes(-1, -2),)

    return _result(a.data.swapaxes(-1, -2), (a,), vjp)


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax over the last axis with per-row max subtraction."""
    if not np.isfinite(a.data).all():
        raise NumericInputError("softmax_rows: input contains non-finite values")
    x = np.atleast_2d(a.data)
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    p = p.reshape(a.shape)

    def vjp(g: Array):
        gp = g * p
        return (gp - p * gp.sum(axis=-1, keepdims=True),)

    return _result(p, (a,), vjp)


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """softmax(q kᵀ / sqrt(d)) v, single head.

    Operands are 2-D or carry a leading batch axis; a 2-D operand is
    shared by every batch entry (e.g. learned latent queries). The two
    matmuls check the feature widths and the key/value counts.
    """
    if q.data.ndim not in (2, 3) or k.data.ndim not in (2, 3) or v.data.ndim not in (2, 3):
        raise DimensionError("attention expects 2-D q, k, v (or batches of them)")
    scale = 1.0 / np.sqrt(q.shape[-1])
    scores = mul(matmul(q, transpose(k)), Tensor(scale))
    return matmul(softmax_rows(scores), v)


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------


def concat_rows(parts: list[Tensor]) -> Tensor:
    """Stack parts along the row axis (the second to last); any leading
    batch axis must agree."""
    if not parts:
        raise ContractError("concat_rows: empty part list")
    lead, width = parts[0].shape[:-2], parts[0].shape[-1]
    for p in parts:
        if p.data.ndim not in (2, 3) or p.shape[:-2] != lead or p.shape[-1] != width:
            want = ", ".join([*map(str, lead), "*", str(width)])
            raise DimensionError(
                f"concat_rows: incompatible part shape {p.shape}, want ({want})"
            )
    out = np.concatenate([p.data for p in parts], axis=-2)

    def vjp(g: Array):
        splits = np.cumsum([p.shape[-2] for p in parts])[:-1]
        return tuple(np.ascontiguousarray(piece)
                     for piece in np.split(g, splits, axis=-2))

    return _result(out, tuple(parts), vjp)


def max_over_rows(a: Tensor) -> Tensor:
    """Column-wise max over rows, dropping the row axis: (M, d) -> (d,),
    (T, M, d) -> (T, d); gradient routes to the first argmax."""
    if a.data.ndim not in (2, 3):
        raise DimensionError(f"max_over_rows expects 2-D input (or a batch), got {a.shape}")
    ad = a.data
    out = ad.max(axis=-2)

    def vjp(g: Array):
        full = np.zeros(ad.shape)
        idx = np.expand_dims(np.argmax(ad, axis=-2), -2)
        np.put_along_axis(full, idx, np.expand_dims(g, -2), axis=-2)
        return (full,)

    return _result(out, (a,), vjp)


# ---------------------------------------------------------------------------
# reductions and losses
# ---------------------------------------------------------------------------


def sum_all(a: Tensor) -> Tensor:
    shape = a.shape

    def vjp(g: Array):
        return (np.full(shape, float(g)),)

    return _result(np.asarray(a.data.sum()), (a,), vjp)


def bce_with_logits(logits: Tensor, labels: Tensor) -> Tensor:
    """Elementwise binary cross-entropy in logit form, summed.

    Uses max(z,0) - z*y + log1p(exp(-|z|)), stable for large |z|.
    """
    zy = _broadcast_op(np.multiply, logits, labels, "bce_with_logits")
    z, y = logits.data, labels.data
    per = np.maximum(z, 0.0) - zy + np.log1p(np.exp(-np.abs(z)))
    out = np.asarray(per.sum())
    lshape, tshape = logits.shape, labels.shape

    def vjp(g: Array):
        dz = float(g) * (_sigmoid(z) - y)
        return (_reduce_to(dz, lshape),
                _reduce_to(float(g) * (-z), tshape) if labels.requires_grad else None)

    return _result(out, (logits, labels), vjp)


def lstm_layer(x: Tensor, h0: Array, c0: Array, wx: Tensor, wh: Tensor,
               b: Tensor) -> tuple[Tensor, tuple[Array, Array]]:
    """One LSTM layer run over the T rows of x, recorded as one tape node.

    x: (T, d_in); wx: (d_in, 4r); wh: (r, 4r); b: (4r,), gates in the
    order input, forget, cell, output. The carried state h0, c0 is data,
    not graph: two (1, r) arrays that receive no gradient, since every
    trajectory starts from zeros and rollouts record nothing. Step t
    computes z = (x[t] wx + h wh) + b, then c = f*c + i*g and
    h = o*tanh(c), in that order, so a one-row call is bitwise the
    one-step formula. Returns (h, (h_T, c_T)): the (T, r) hidden states,
    whose node has the parents x, wx, wh, b, and the state after row T as
    arrays. The input projection is one GEMM over all T rows; only h @ wh
    loops. The VJP runs BPTT and forms each weight gradient with one GEMM
    over all T steps.
    """
    if not (isinstance(h0, np.ndarray) and isinstance(c0, np.ndarray)):
        raise DimensionError(f"lstm_layer expects h0 and c0 as (1, r) arrays; got "
                             f"{type(h0).__name__}, {type(c0).__name__}")
    n_steps, r = x.shape[0], h0.shape[-1]
    if x.data.ndim != 2 or n_steps < 1 or h0.shape != (1, r) or c0.shape != (1, r):
        raise DimensionError(
            f"lstm_layer expects x (T, d_in), h0 and c0 (1, r); got {x.shape}, "
            f"{h0.shape}, {c0.shape}"
        )
    if wx.shape != (x.shape[1], 4 * r) or wh.shape != (r, 4 * r) or b.shape != (4 * r,):
        raise DimensionError(
            f"lstm_layer weights {wx.shape}, {wh.shape}, {b.shape} do not fit "
            f"input width {x.shape[1]} and state width {r}"
        )
    xd, whd, bd = x.data, wh.data, b.data
    xw = xd @ wx.data
    gates = np.empty((n_steps, 4 * r))  # activated i, f, g, o per step
    hs = np.empty((n_steps, r))
    cs = np.empty((n_steps, r))
    h, c = h0, c0
    for t in range(n_steps):
        z = (xw[t:t + 1] + h @ whd) + bd
        act = gates[t:t + 1]
        act[:] = _sigmoid(z)
        act[:, 2 * r:3 * r] = np.tanh(z[:, 2 * r:3 * r])
        c = act[:, r:2 * r] * c + act[:, :r] * act[:, 2 * r:3 * r]
        h = act[:, 3 * r:] * np.tanh(c)
        hs[t:t + 1] = h
        cs[t:t + 1] = c

    def vjp(g: Array):
        i, f, gc, o = (gates[:, k * r:(k + 1) * r] for k in range(4))
        c_prev = np.concatenate([c0, cs[:-1]])
        tc = np.tanh(cs)
        # Every factor that does not depend on the incoming state gradient.
        d_o = tc * o * (1.0 - o)
        dc_from_h = o * (1.0 - tc * tc)
        d_ifg = np.concatenate([gc * i * (1.0 - i), c_prev * f * (1.0 - f),
                                i * (1.0 - gc * gc)], axis=1).reshape(n_steps, 3, r)
        dz = np.empty((n_steps, 4 * r))
        dz3 = dz.reshape(n_steps, 4, r)
        wh_t = whd.T.copy()
        dh_next = np.zeros(r)
        dc_next = np.zeros(r)
        for t in range(n_steps - 1, -1, -1):
            dh = g[t] + dh_next
            dc = dc_next + dh * dc_from_h[t]
            dz3[t, :3] = dc * d_ifg[t]
            dz3[t, 3] = dh * d_o[t]
            if t:  # the state before row 0 takes no gradient
                dc_next = dc * f[t]
                dh_next = dz[t] @ wh_t
        gx = dz @ wx.data.T if x.requires_grad else None
        gwx = xd.T @ dz if wx.requires_grad else None
        gwh = np.concatenate([h0, hs[:-1]]).T @ dz if wh.requires_grad else None
        gb = dz.sum(axis=0) if b.requires_grad else None
        return gx, gwx, gwh, gb

    return _result(hs, (x, wx, wh, b), vjp), (h, c)


def mlp2(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """tanh(x @ w1 + b1) @ w2 + b2, each bias broadcast over rows; x may
    carry a batch axis."""
    return add(matmul(tanh(add(matmul(x, w1), b1)), w2), b2)


# ---------------------------------------------------------------------------
# parameter registry
# ---------------------------------------------------------------------------


class ParamSet:
    """Named tensors with per-entry trainable flags.

    Names are dotted paths; iteration is always lexicographic, so any
    walk over a ParamSet is deterministic.
    """

    def __init__(self):
        self._entries: dict[str, Tensor] = {}
        self._layout: FlatLayout | None = None

    def add(self, name: str, data, trainable: bool) -> Tensor:
        if name in self._entries:
            raise ContractError(f"duplicate parameter name: {name}")
        if trainable and self._layout is not None:
            raise ContractError(f"cannot add trainable {name!r}: the trainable "
                                f"entries are already laid out")
        t = Tensor(np.array(data, dtype=np.float64), requires_grad=trainable, name=name)
        self._entries[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def names(self) -> list[str]:
        return sorted(self._entries)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        for name in sorted(self._entries):
            yield name, self._entries[name]

    def trainable_items(self) -> Iterator[tuple[str, Tensor]]:
        for name, t in self.items():
            if t.requires_grad:
                yield name, t

    def flat_layout(self) -> FlatLayout:
        """The trainable entries laid out as views into two flat vectors;
        built on the first call, the same object after it."""
        if self._layout is None:
            self._layout = FlatLayout([t for _, t in self.trainable_items()])
        return self._layout

    def zero_grads(self) -> None:
        """Zero every trainable gradient: one fill of the flat gradient
        vector, laid out here if nothing has laid it out yet."""
        layout = self.flat_layout()
        layout.check_bound()
        layout.grad.fill(0.0)

    def checksum(self, prefix: str = "") -> float:
        """Order-stable fingerprint of raw parameter bytes under a prefix."""
        import zlib

        crc = 0
        for name, t in self.items():
            if name.startswith(prefix):
                crc = zlib.crc32(name.encode(), crc)
                crc = zlib.crc32(np.ascontiguousarray(t.data).tobytes(), crc)
        return float(crc)


class FlatLayout:
    """Trainable tensors as views into one contiguous float64 data vector
    and one gradient vector, in the order they are given (name order).

    Building it copies each tensor's values into `data`, then rebinds the
    tensor's .data and .grad to its slice of `data` and `grad` (the
    gradients start at zero). Whole-vector ops on `data` and `grad` then
    act on every tensor at once.
    """

    def __init__(self, tensors: list[Tensor]):
        self.tensors = tensors
        size = sum(t.size for t in self.tensors)
        self.data = np.empty(size)
        self.grad = np.zeros(size)
        start = 0
        for t in self.tensors:
            stop = start + t.size
            self.data[start:stop] = t.data.reshape(-1)
            t.data = self.data[start:stop].reshape(t.shape)
            t.grad = self.grad[start:stop].reshape(t.shape)
            start = stop
        self._views = [(t.data, t.grad) for t in self.tensors]

    def check_bound(self) -> None:
        """ContractError if a tensor's .data or .grad no longer is its view."""
        for t, (data, grad) in zip(self.tensors, self._views):
            if t.data is not data or t.grad is not grad:
                raise ContractError(
                    f"{t.name}: .data or .grad was rebound after the trainable layout "
                    f"was built; write into it in place")


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------


def _topo_from(root: Tensor) -> list[Tensor]:
    """Parents-before-children ordering of the sub-DAG that reaches root."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p._parents or p.requires_grad:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Add d(loss)/d(leaf) into the gradient of every trainable leaf the
    loss reaches; ParamSet.zero_grads gives those gradients their zeros.

    Raises ContractError for a non-scalar loss, and for a reached
    trainable leaf whose gradient was never zeroed.
    """
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    order = _topo_from(loss)
    grads: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        # Every node but the loss is a parent that requires a gradient, and
        # every VJP returns one for each such parent, so g is always there.
        g = grads.pop(id(node))
        if node.is_leaf:
            if node.requires_grad:
                if node.grad is None:
                    raise ContractError(f"backward: trainable leaf {node.name!r} has no "
                                        f"gradient; call ParamSet.zero_grads first")
                node.grad += g.reshape(node.data.shape)
            continue
        contribs = node._vjp(g)
        for parent, contrib in zip(node._parents, contribs):
            if contrib is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + contrib
            else:
                grads[key] = contrib


# ---------------------------------------------------------------------------
# finite-difference checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckResult:
    max_rel_error: float
    worst_param: str | None
    n_checked: int  # 0 when params has no trainable entry


def grad_check(f, params: ParamSet, eps: float = 1e-5) -> GradCheckResult:
    """Compare analytic gradients of f against central finite differences
    over every trainable entry of params.

    Error metric per entry: |analytic - numeric| / max(1, |analytic|); an
    entry whose analytic or numeric derivative is not finite counts as an
    infinite error. f must be a deterministic function of the ParamSet;
    two baseline evaluations are compared bitwise to enforce that. eps
    must be positive and finite (ContractError).
    """
    if not (eps > 0 and math.isfinite(eps)):
        raise ContractError(f"grad_check: eps must be positive and finite, got {eps!r}")
    with no_grad():
        b1 = f(params).item()
        b2 = f(params).item()
    if b1 != b2:
        raise DeterminismError(
            f"grad_check: two baseline evaluations differ ({b1!r} vs {b2!r})"
        )

    params.zero_grads()
    backward(f(params))

    worst = 0.0
    worst_name = None
    checked = 0
    for name, t in params.trainable_items():
        flat = t.data.reshape(-1)
        ana = t.grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            with no_grad():
                fp = f(params).item()
            flat[i] = orig - eps
            with no_grad():
                fm = f(params).item()
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * eps)
            rel = abs(ana[i] - numeric) / max(1.0, abs(ana[i]))
            if not math.isfinite(rel):  # a NaN would never beat worst
                rel = math.inf
            checked += 1
            if rel > worst:
                worst = rel
                worst_name = name
    return GradCheckResult(worst, worst_name, checked)
