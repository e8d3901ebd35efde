"""Instruction side and the gated cross-attention fusion stack.

Instructions are lowercased, whitespace-tokenized against a closed
vocabulary (index 0 is the unknown-word id), and embedded through a
frozen table. Each fusion layer runs a gated cross-attention sublayer
(language tokens query the fused visual/depth tokens; the residual
branch is scaled by tanh of a learnable scalar gate) followed by a
frozen self-attention sublayer. Both sublayers are residual and use a
two-layer tanh MLP of hidden width 4d; there is no masking and no
normalization.

Every gate starts at GATE_INIT = 0.5, not at Flamingo's 0. A zero gate
would start the stack as the pure frozen language path, but every
cross-attention weight's gradient is scaled by tanh(gate), so at this
scale those weights would never receive usable gradients. A gate set to
zero still makes a layer the exact language path.
"""

from __future__ import annotations

import numpy as np

from . import numerics as nm
from .errors import ContractError, DimensionError, EmptyInstructionError
from .numerics import Tensor

Array = np.ndarray

UNK_TOKEN = "<unk>"
UNK_ID = 0
GATE_INIT = 0.5  # initial cross-attention gate pre-activation; see above


def build_vocab(words) -> list[str]:
    """Closed vocabulary: the unknown token plus sorted unique words."""
    normal = sorted({w.lower() for w in words})
    return [UNK_TOKEN] + normal


def tokenize(text: str, index: dict[str, int]) -> list[int]:
    """Lowercase, whitespace split, map through the vocabulary's word ->
    id index (UNK id 0)."""
    if not text or not text.strip():
        raise EmptyInstructionError("instruction text is empty")
    return [index.get(w, UNK_ID) for w in text.lower().split()]


def init_embedding_array(vocab_size: int, d: int, rng: np.random.Generator) -> Array:
    return rng.normal(0.0, 0.5, size=(vocab_size, d))


def embed_ids(table: Array, ids) -> Array:
    """Rows of the frozen table; shape (M, d). ids come from tokenize,
    which refuses empty text, so there is at least one."""
    ids = list(ids)
    for i in ids:
        if not 0 <= i < table.shape[0]:
            raise ContractError(f"token id {i} outside table of {table.shape[0]} rows")
    return table[np.asarray(ids, dtype=np.intp)].copy()


def init_decoder_layer_arrays(d: int, rng: np.random.Generator) -> dict[str, Array]:
    """One fusion layer; 'cross.*' entries train, 'self.*' stay frozen.
    The gate starts at GATE_INIT."""
    def attn():
        return {
            "wq": rng.normal(0.0, d ** -0.5, size=(d, d)),
            "wk": rng.normal(0.0, d ** -0.5, size=(d, d)),
            "wv": rng.normal(0.0, d ** -0.5, size=(d, d)),
            "mlp_w1": rng.normal(0.0, d ** -0.5, size=(d, 4 * d)),
            "mlp_b1": np.zeros(4 * d),
            "mlp_w2": rng.normal(0.0, (4 * d) ** -0.5, size=(4 * d, d)),
            "mlp_b2": np.zeros(d),
        }

    arrays = {f"cross.{k}": v for k, v in attn().items()}
    arrays["cross.alpha"] = np.asarray(GATE_INIT)
    arrays.update({f"self.{k}": v for k, v in attn().items()})
    return arrays


def _check_dims(xl: Tensor, xvde: Tensor, layer: dict[str, Tensor]):
    d = layer["cross.wq"].shape[0]
    if xl.shape[-1] != d:
        raise DimensionError(f"language tokens width {xl.shape} vs layer dim {d}")
    if xvde.shape[-1] != d:
        raise DimensionError(f"visual tokens width {xvde.shape} vs layer dim {d}")


def gated_cross_attention(xl: Tensor, xvde: Tensor, layer: dict[str, Tensor]) -> Tensor:
    """tanh(alpha) * MLP(attn(xl Wq, xvde Wk, xvde Wv)) + xl."""
    _check_dims(xl, xvde, layer)
    att = nm.scaled_dot_attention(
        nm.matmul(xl, layer["cross.wq"]),
        nm.matmul(xvde, layer["cross.wk"]),
        nm.matmul(xvde, layer["cross.wv"]),
    )
    branch = nm.mlp2(att, layer["cross.mlp_w1"], layer["cross.mlp_b1"],
                     layer["cross.mlp_w2"], layer["cross.mlp_b2"])
    gate = nm.tanh(layer["cross.alpha"])
    return nm.add(nm.mul(gate, branch), xl)


def self_attention_block(xh: Tensor, layer: dict[str, Tensor]) -> Tensor:
    """MLP(attn(xh Wq, xh Wk, xh Wv)) + xh with frozen weights."""
    att = nm.scaled_dot_attention(
        nm.matmul(xh, layer["self.wq"]),
        nm.matmul(xh, layer["self.wk"]),
        nm.matmul(xh, layer["self.wv"]),
    )
    branch = nm.mlp2(att, layer["self.mlp_w1"], layer["self.mlp_b1"],
                     layer["self.mlp_w2"], layer["self.mlp_b2"])
    return nm.add(branch, xh)


def decode(x: Tensor, xvde: Tensor, layers: list[dict[str, Tensor]]) -> Tensor:
    """Apply every (cross, self) fusion layer in order.

    xvde may carry a leading time axis, (T, 2K, d); the (M, d) language
    tokens are then shared by every step and the output is (T, M, d).
    """
    if not layers:
        raise ContractError("decoder stack needs at least one layer")
    for layer in layers:
        x = self_attention_block(gated_cross_attention(x, xvde, layer), layer)
    return x
