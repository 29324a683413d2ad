"""Tensor decompositions and cumulant-based blind source separation.

Dense and symmetric tensor algebra, the symmetric-tensor/homogeneous-
polynomial dictionary, sample cumulants, whitening, pair-sweep orthogonal
ICA, alternating least squares for trilinear decompositions, exact binary
Waring decompositions, rank-1 power iteration, and the reference rank
tables, all at desk scale on top of numpy.
"""

from .core import (
    DenseTensor,
    SymTensor,
    contract,
    frobenius_inner,
    kronecker,
    mode_n_rank,
    mode_n_unfold,
    outer_product,
    rank1_sym,
    sym_kronecker,
    symmetrize,
    tucker_transform,
    unvecs,
    vecs,
)
from .cumulants import cumulant_tensor, moment_tensor, offdiag_ratio
from .jacobi import (
    ContrastSpec,
    ICAResult,
    PairRotation,
    contrast_value,
    convexity_margin,
    ica,
    pair_rotation_optimal,
    stationarity_residual,
    sweep_cyclic,
    sweep_greedy,
)
from .parafac import ALSConfig, KruskalFactors, als, als_step, khatri_rao, reconstruct
from .poly import (
    HomogPoly,
    apolar_inner,
    evaluate,
    multiplicity,
    poly_multiply,
    poly_to_tensor,
    tensor_to_poly,
)
from .rank1 import (
    Rank1Approx,
    best_rank1,
    contract_to_vector,
    hosvd_init,
    omega_criteria,
    rayleigh_iterate,
    sigma_of,
    structured_solve,
)
from .simulate import ExperimentConfig, gen, score
from .sylvester import (
    BinaryQuantic,
    WaringDecomposition,
    cand_binary,
    generic_rank_binary,
    hankel_matrix,
    kernel_vectors,
    roots_of_q,
    solve_weights,
)
from .tables import (
    generic_rank,
    howell_bound,
    manifold_dim,
    orbit_representative,
    reznick_bound,
)
from .whiten import Whitener, detect_sources, standardize, standardize_with_noise

__version__ = "0.1.0"
