"""Reference tables: generic symmetric ranks, solution-manifold dimensions,
and canonical orbit representatives.

The numeric tables are reference data, embedded verbatim with one value per
(order, dimension) cell; they are not recomputed.  Representatives are handed
out as symmetric tensors built from their polynomial labels.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import SymTensor
from .indexing import multiplicity
from .poly import HomogPoly, poly_to_tensor

# generic symmetric tensor rank, cells (d, n) for d in {3, 4}, n in 2..8
GENERIC_RANK = {
    (3, 2): 2, (3, 3): 4, (3, 4): 5, (3, 5): 8, (3, 6): 10, (3, 7): 12, (3, 8): 15,
    (4, 2): 3, (4, 3): 6, (4, 4): 10, (4, 5): 15, (4, 6): 22, (4, 7): 30, (4, 8): 42,
}

# dimension of the manifold of minimal decompositions at the generic rank
MANIFOLD_DIM = {
    (3, 2): 0, (3, 3): 2, (3, 4): 0, (3, 5): 5, (3, 6): 4, (3, 7): 0, (3, 8): 0,
    (4, 2): 1, (4, 3): 3, (4, 4): 5, (4, 5): 5, (4, 6): 6, (4, 7): 0, (4, 8): 6,
}


@dataclass(frozen=True)
class OrbitClass:
    """An equivalence class of cubics under invertible changes of coordinates."""

    label: str
    nvars: int
    rank: int
    generic: bool
    terms: tuple[tuple[float, tuple[int, ...]], ...]  # (coefficient, exponents)


# binary cubics: one orbit per rank value
BINARY_CUBIC_ORBITS = (
    OrbitClass("x^3", 2, 1, False, ((1.0, (3, 0)),)),
    OrbitClass("x^3+y^3", 2, 2, True, ((1.0, (3, 0)), (1.0, (0, 3)))),
    OrbitClass("x^2y", 2, 3, False, ((1.0, (2, 1)),)),
)

# ternary cubics; the generic class is represented at unit parameter values
TERNARY_CUBIC_ORBITS = (
    OrbitClass("x^3", 3, 1, False, ((1.0, (3, 0, 0)),)),
    OrbitClass("x^3+y^3", 3, 2, False, ((1.0, (3, 0, 0)), (1.0, (0, 3, 0)))),
    OrbitClass("x^2y", 3, 3, False, ((1.0, (2, 1, 0)),)),
    OrbitClass("x^3+3y^2z", 3, 4, False, ((1.0, (3, 0, 0)), (3.0, (0, 2, 1)))),
    OrbitClass(
        "x^3+y^3+6xyz", 3, 4, False,
        ((1.0, (3, 0, 0)), (1.0, (0, 3, 0)), (6.0, (1, 1, 1))),
    ),
    OrbitClass("x^3+6xyz", 3, 4, False, ((1.0, (3, 0, 0)), (6.0, (1, 1, 1)))),
    OrbitClass(
        "x^3+y^3+z^3+6xyz", 3, 4, True,
        ((1.0, (3, 0, 0)), (1.0, (0, 3, 0)), (1.0, (0, 0, 3)), (6.0, (1, 1, 1))),
    ),
    OrbitClass(
        "x^2y+xz^2", 3, 5, False,
        ((1.0, (2, 1, 0)), (1.0, (1, 0, 2))),
    ),
)

# some labels name both a binary and a ternary class; lookups default to the
# smallest variable count and disambiguate via an explicit nvars argument
ORBITS = {(o.label, o.nvars): o for o in BINARY_CUBIC_ORBITS + TERNARY_CUBIC_ORBITS}
# unicode superscripts accepted as alternate spellings of the same labels
_SUPERSCRIPTS = str.maketrans({"²": "^2", "³": "^3"})


def generic_rank(d: int, n: int) -> int:
    """Tabulated generic rank of symmetric order-``d`` tensors of dimension ``n``."""
    try:
        return GENERIC_RANK[(d, n)]
    except KeyError:
        raise KeyError(f"generic rank not tabulated for order {d}, dimension {n}") from None


def manifold_dim(d: int, n: int) -> int:
    """Tabulated dimension of the manifold of minimal decompositions."""
    try:
        return MANIFOLD_DIM[(d, n)]
    except KeyError:
        raise KeyError(f"manifold dimension not tabulated for order {d}, dimension {n}") from None


def orbit_class(label: str, nvars: int | None = None) -> OrbitClass:
    norm = label.translate(_SUPERSCRIPTS).replace(" ", "")
    candidates = sorted(n for (lbl, n) in ORBITS if lbl == norm)
    if not candidates:
        known = sorted({lbl for lbl, _ in ORBITS})
        raise KeyError(f"unknown orbit label {label!r}; known: {known}")
    if nvars is None:
        nvars = candidates[0]
    if (norm, nvars) not in ORBITS:
        raise KeyError(f"orbit {label!r} is not tabulated for {nvars} variables")
    return ORBITS[(norm, nvars)]


def orbit_polynomial(label: str, nvars: int | None = None) -> HomogPoly:
    o = orbit_class(label, nvars)
    coeffs: dict[tuple[int, ...], float] = {}
    for coef, j in o.terms:
        coeffs[j] = coeffs.get(j, 0.0) + coef / multiplicity(j)
    return HomogPoly(o.nvars, 3, coeffs)


def orbit_representative(label: str, nvars: int | None = None) -> SymTensor:
    """Symmetric tensor of the representative polynomial for ``label``."""
    return poly_to_tensor(orbit_polynomial(label, nvars))
