"""Sampled metaplectic operators, distributions and quantization."""

from .grid import (
    Axis,
    Grid,
    GridFunction,
    herm_inner,
    lp_norm,
    lpq_norm,
    partial_dft,
    partial_idft,
    phase_align_distance,
)
from .gaussian import GaussianChirp, gaussian_integral
from .operators import (
    apply_metaplectic,
    chirp_apply,
    gaussian_apply,
    multiplier_apply,
    partial_ft,
    rescale_apply,
    tf_shift,
)
from .distributions import (
    distribution_norm,
    mp_norm,
    rihacek,
    rihacek_projection,
    stft,
    stft_projection,
    tensor_with_conj,
    wigner,
    wigner_metaplectic,
    wigner_projection,
)
from .quantize import opA_apply, opA_build

__all__ = [
    "Axis",
    "GaussianChirp",
    "Grid",
    "GridFunction",
    "apply_metaplectic",
    "chirp_apply",
    "distribution_norm",
    "gaussian_apply",
    "gaussian_integral",
    "herm_inner",
    "lp_norm",
    "lpq_norm",
    "mp_norm",
    "multiplier_apply",
    "opA_apply",
    "opA_build",
    "partial_dft",
    "partial_ft",
    "partial_idft",
    "phase_align_distance",
    "rescale_apply",
    "rihacek",
    "rihacek_projection",
    "stft",
    "stft_projection",
    "tensor_with_conj",
    "tf_shift",
    "wigner",
    "wigner_metaplectic",
    "wigner_projection",
]
