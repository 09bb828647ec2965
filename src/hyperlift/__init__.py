"""Lift a frozen Euclidean dual encoder into Lorentz hyperbolic space via
parameter-efficient fine-tuning, train with compositional contrastive and
entailment-cone objectives, and evaluate zero-shot multiple-choice VQA by
hyperbolic distance matching."""

from .autograd import Tensor, check_gradients, no_grad
from .encoders import DualEncoder, EncoderConfig
from .manifold import (
    ConeParams,
    ManifoldParams,
    exp_map_general,
    exp_map_origin,
    exterior_angle,
    geodesic_distance,
    half_aperture,
    lift,
    lorentz_inner,
)
from .objectives import BatchEmbeddings, LossConfig, contrastive_hcc, entailment_hce, total_loss
from .peft import PeftConfig, assemble_adapted_model, count_trainable_params

__version__ = "0.1.0"
