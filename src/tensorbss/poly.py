"""Homogeneous polynomials, their bijection with symmetric tensors, and the apolar product.

A degree-``d`` form in ``n`` variables is stored sparsely as a map from
multi-indices ``j`` (``|j| = d``) to basis coefficients ``gamma(j)``, with the
evaluation convention

    p(x) = sum_j gamma(j) * c(j) * x**j,

where ``c(j)`` is the multinomial multiplicity.  Under this convention the
coefficient ``gamma(j)`` equals the tensor entry shared by all positions with
axis counts ``j``, so packing and unpacking are plain relabelings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .core import SymTensor
from .indexing import multi_indices, multiplicity, packed_index, packed_length


@dataclass(frozen=True)
class HomogPoly:
    """Homogeneous polynomial of fixed degree in the weighted monomial basis."""

    nvars: int
    degree: int
    coeffs: Mapping[tuple[int, ...], float] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for j, g in self.coeffs.items():
            j = tuple(int(v) for v in j)
            if len(j) != self.nvars or any(v < 0 for v in j):
                raise ValueError(f"bad multi-index {j} for {self.nvars} variables")
            if sum(j) != self.degree:
                raise ValueError(f"multi-index {j} has weight {sum(j)}, expected {self.degree}")
            if g != 0.0:
                clean[j] = float(g)
        object.__setattr__(self, "coeffs", clean)

    def gamma(self, j) -> float:
        return self.coeffs.get(tuple(int(v) for v in j), 0.0)

    def __call__(self, x) -> float:
        return evaluate(self, x)


def evaluate(p: HomogPoly, x) -> float:
    """Value of ``p`` at the point ``x`` by direct monomial summation."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != p.nvars:
        raise ValueError(f"point has {x.size} coordinates, polynomial has {p.nvars} variables")
    total = 0.0
    for j, g in p.coeffs.items():
        total += g * multiplicity(j) * float(np.prod(x ** np.array(j)))
    return total


def poly_to_tensor(p: HomogPoly) -> SymTensor:
    """Symmetric tensor whose entries at axis counts ``j`` all equal ``gamma(j)``."""
    packed = np.zeros(packed_length(p.nvars, p.degree))
    axes = [np.repeat(np.arange(p.nvars), j) for j in p.coeffs]
    packed[packed_index(np.reshape(axes, (-1, p.degree)), p.nvars)] = list(p.coeffs.values())
    return SymTensor(p.nvars, p.degree, packed)


def apolar_inner(p: HomogPoly, q: HomogPoly) -> float:
    """Weighted coefficient product ``sum_j c(j) gamma(j,p) gamma(j,q)``.

    Reproducing property: pairing ``q`` with the d-th power of a linear form
    ``a`` returns ``q(a)``.  Equals the Frobenius product of the associated
    symmetric tensors.
    """
    if p.nvars != q.nvars or p.degree != q.degree:
        raise ValueError("apolar product needs matching variable count and degree")
    small, big = (p.coeffs, q.coeffs) if len(p.coeffs) <= len(q.coeffs) else (q.coeffs, p.coeffs)
    return float(sum(multiplicity(j) * g * big.get(j, 0.0) for j, g in small.items()))


def linear_form_power(a, d: int) -> HomogPoly:
    """The form ``(a . x)**d``; its gamma coefficients are the monomials ``a**j``."""
    a = np.asarray(a, dtype=float).reshape(-1)
    coeffs = {
        j: float(np.prod(a ** np.array(j)))
        for j in multi_indices(a.size, d)
    }
    return HomogPoly(a.size, d, coeffs)


def monomial(nvars: int, j) -> HomogPoly:
    """The bare monomial ``x**j`` (apolar norm squared is ``1/c(j)``)."""
    j = tuple(int(v) for v in j)
    return HomogPoly(nvars, sum(j), {j: 1.0 / multiplicity(j)})
