"""Tensor decompositions and cumulant-based blind source separation.

Dense and symmetric tensor algebra, the symmetric-tensor/homogeneous-
polynomial dictionary, sample cumulants, whitening, pair-sweep orthogonal
ICA, alternating least squares for trilinear decompositions, exact binary
Waring decompositions, rank-1 power iteration, and the reference rank
tables, all at desk scale on top of numpy.

The public names below are imported from their submodule on first use
(PEP 562), so ``import tensorbss.cli`` or ``from tensorbss import ica`` loads
only the modules that path needs.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("core", ("DenseTensor", "SymTensor", "mode_n_rank", "mode_n_unfold", "rank1_sym",
                  "symmetrize", "tucker_transform")),
        ("cumulants", ("cumulant_tensor",)),
        ("jacobi", ("ContrastSpec", "ICAResult", "contrast_value", "convexity_margin", "ica",
                    "stationarity_residual", "sweep_cyclic", "sweep_greedy")),
        ("parafac", ("ALSConfig", "KruskalFactors", "als", "als_step", "khatri_rao",
                     "reconstruct")),
        ("poly", ("HomogPoly", "apolar_inner", "evaluate", "multiplicity", "poly_to_tensor")),
        ("rank1", ("Rank1Approx", "best_rank1", "contract_to_vector", "hosvd_init",
                   "omega_criteria", "rayleigh_iterate", "sigma_of")),
        ("simulate", ("ExperimentConfig", "gen", "score")),
        ("sylvester", ("BinaryQuantic", "WaringDecomposition", "cand_binary",
                       "generic_rank_binary", "hankel_matrix", "kernel_vectors", "roots_of_q",
                       "solve_weights")),
        ("tables", ("generic_rank", "manifold_dim", "orbit_representative")),
        ("whiten", ("Whitener", "detect_sources", "standardize", "standardize_with_noise")),
    )
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:  # also how ``from tensorbss import cli`` falls through to the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
