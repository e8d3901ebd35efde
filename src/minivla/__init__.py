"""minivla: a desk-scale RGB-D vision-language manipulation policy.

The package is organized as a small numpy library:

- numerics: float64 tensors with tape-based reverse-mode autodiff
- depth: depth-map normalization/standardization and quantized sensitivity
- encoders: frozen patch encoders and the latent-query resampler
- decoder: instruction tokenizer and the gated cross-attention stack
- policy: max-pool + LSTM + MLP action heads over the fused embedding
- training: imitation loss, the Adam update, the training loop
- sim: the MiniManip tabletop gridworld, experts, and chain rollouts
- analysis: chain success aggregation and the two ablation harnesses
- persist: every file the package writes: checkpoints, datasets, JSON
  documents and logs
- cli: command-line entry points over all of the above
"""

from .numerics import ParamSet, Tensor, backward, grad_check, no_grad

__all__ = ["ParamSet", "Tensor", "backward", "grad_check", "no_grad"]

__version__ = "0.1.0"
