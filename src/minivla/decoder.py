"""The instruction side and the gated cross-attention fusion stack.

Instructions are lowercased, whitespace-tokenized against a closed
vocabulary (index 0 is the unknown-word id), and embedded through a
frozen table. Each fusion layer runs a gated cross-attention sublayer
(language tokens query the fused visual/depth tokens; the residual
branch is scaled by tanh of a learnable scalar gate) followed by a
frozen self-attention sublayer. Both sublayers are residual and share
one body, single-head attention then a two-layer tanh MLP of hidden
width 4d (_attention_mlp); there is no masking and no normalization,
and the body's matmuls are the one check of every token width.

Every gate starts at GATE_INIT = 0.5, not at Flamingo's 0. A zero gate
would start the stack as the pure frozen language path, but every
cross-attention weight's gradient is scaled by tanh(gate), so at this
scale those weights would never receive usable gradients. A gate set to
zero still makes a layer the exact language path.
"""

from __future__ import annotations

import numpy as np

from . import numerics as nm
from .errors import ContractError, EmptyInstructionError
from .numerics import Tensor

Array = np.ndarray

UNK_TOKEN = "<unk>"
UNK_ID = 0
GATE_INIT = 0.5  # initial cross-attention gate pre-activation; see above
DECODER_LAYERS = 2  # (cross, self) fusion layers in the stack


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


def _attention_mlp(x: Tensor, context: Tensor, layer: dict[str, Tensor],
                   prefix: str) -> Tensor:
    """MLP(attn(x Wq, context Wk, context Wv)) with the prefix's weights;
    the matmuls check every width against the layer's."""
    att = nm.scaled_dot_attention(
        nm.matmul(x, layer[prefix + "wq"]),
        nm.matmul(context, layer[prefix + "wk"]),
        nm.matmul(context, layer[prefix + "wv"]),
    )
    return nm.mlp2(att, layer[prefix + "mlp_w1"], layer[prefix + "mlp_b1"],
                   layer[prefix + "mlp_w2"], layer[prefix + "mlp_b2"])


def gated_cross_attention(xl: Tensor, xvde: Tensor, layer: dict[str, Tensor]) -> Tensor:
    """tanh(alpha) * MLP(attn(xl Wq, xvde Wk, xvde Wv)) + xl."""
    branch = _attention_mlp(xl, xvde, layer, "cross.")
    gate = nm.tanh(layer["cross.alpha"])
    return nm.add(nm.mul(gate, branch), xl)


def self_attention_block(xh: Tensor, layer: dict[str, Tensor]) -> Tensor:
    """MLP(attn(xh Wq, xh Wk, xh Wv)) + xh with frozen weights."""
    return nm.add(_attention_mlp(xh, xh, layer, "self."), xh)


def decode(x: Tensor, xvde: Tensor, layers: list[dict[str, Tensor]]) -> Tensor:
    """Apply every (cross, self) fusion layer in order.

    xvde may carry a leading time axis, (T, 2K, d); the (M, d) language
    tokens are then shared by every step and the output is (T, M, d).
    On a leading chain axis instead, x is (C, M, d) and xvde (C, 2K, d),
    one step of each chain, and the output is (C, M, d); each chain's
    products have the shapes of its own call.
    """
    if not layers:
        raise ContractError("decoder stack needs at least one layer")
    for layer in layers:
        x = self_attention_block(gated_cross_attention(x, xvde, layer), layer)
    return x
