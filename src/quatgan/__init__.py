"""quatgan: quaternion-valued neural network building blocks and a GAN
training harness, verifiable at desk scale.

The library is organized around a four-component tensor type (`QTensor`),
with real-valued parameters and noise as plain arrays at their true shape,
Hamilton-product layers whose four shared submatrices form one signed real
block matrix (`layers.hamilton_block`), a minimal reverse-mode autodiff tape
whose gradients are plain arrays of each parameter's stored shape,
proper-signal quaternion batch normalization, two quaternion
spectral-normalization schemes, and the QDCGAN / QSNGAN architectures, whose
parameter counts are compared with those of real-valued twins read off the
same models (`count_twin_parameters`).
"""

from .qtensor import QTensor
from .layers import fold_block, hamilton_block
from .autodiff import Tape, grad_check
from .optim import AdamState, adam_step
from .models import (
    ModelSpec,
    build_gan,
    count_parameters,
    count_twin_parameters,
)
from .train import TrainConfig

__version__ = "0.1.0"

__all__ = [
    "QTensor",
    "hamilton_block",
    "fold_block",
    "Tape",
    "grad_check",
    "AdamState",
    "adam_step",
    "ModelSpec",
    "build_gan",
    "count_parameters",
    "count_twin_parameters",
    "TrainConfig",
]
