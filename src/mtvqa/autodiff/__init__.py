from .tensor import (
    Tensor,
    affine,
    concat,
    constant,
    conv1d,
    embedding,
    parameter,
    slot_affine,
    slot_product,
    softmax_cross_entropy_masked,
    tanh,
    zero_grads,
)
from .lstm import lstm_sequence
from .optim import Nadam, SgdMomentum
from .gradcheck import GradCheckReport, check_gradients
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "Tensor", "affine", "concat", "constant", "conv1d", "embedding",
    "parameter", "slot_affine", "slot_product",
    "softmax_cross_entropy_masked", "tanh", "zero_grads",
    "lstm_sequence", "Nadam", "SgdMomentum", "GradCheckReport",
    "check_gradients", "load_checkpoint", "save_checkpoint",
]
