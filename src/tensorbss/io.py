"""File formats: JSON for tensors, polynomials, quantics, decompositions,
factor sets, and manifests; CSV for sample matrices.

Dense tensors serialize as ``{"dims": [...], "data": [...]}`` with row-major
data; symmetric tensors as ``{"sym": true, "dim": n, "order": d,
"packed": [...]}``.  Sample CSV files carry a header row of variable names
and one observation per line, written with ``repr`` so reload is exact.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .core import DenseTensor, SymTensor
from .parafac import KruskalFactors
from .poly import HomogPoly
from .sylvester import BinaryQuantic, WaringDecomposition


def tensor_to_obj(t) -> dict:
    if isinstance(t, SymTensor):
        return {
            "sym": True,
            "dim": t.dim,
            "order": t.order,
            "packed": t.packed.tolist(),
        }
    if not isinstance(t, DenseTensor):
        t = DenseTensor(np.asarray(t, dtype=float))
    return {"dims": list(t.dims), "data": t.data.tolist()}


def tensor_from_obj(obj: dict):
    if obj.get("sym"):
        return SymTensor(int(obj["dim"]), int(obj["order"]), np.asarray(obj["packed"]))
    return DenseTensor.from_flat(obj["dims"], obj["data"])


def poly_to_obj(p: HomogPoly) -> dict:
    terms = [
        {"j": list(j), "gamma": g} for j, g in sorted(p.coeffs.items(), reverse=True)
    ]
    return {"nvars": p.nvars, "degree": p.degree, "terms": terms}


def poly_from_obj(obj: dict) -> HomogPoly:
    coeffs = {tuple(t["j"]): float(t["gamma"]) for t in obj["terms"]}
    return HomogPoly(int(obj["nvars"]), int(obj["degree"]), coeffs)


def quantic_to_obj(p: BinaryQuantic) -> dict:
    return {"degree": p.degree, "gamma": p.gamma.tolist()}


def quantic_from_obj(obj: dict) -> BinaryQuantic:
    return BinaryQuantic(int(obj["degree"]), np.asarray(obj["gamma"], dtype=float))


def _complex_obj(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def decomposition_to_obj(dec: WaringDecomposition) -> dict:
    return {
        "degree": dec.degree,
        "rank": dec.rank,
        "field": dec.field,
        "residual": dec.residual,
        "terms": [
            {
                "weight": _complex_obj(w),
                "alpha": _complex_obj(a),
                "beta": _complex_obj(b),
            }
            for w, a, b in dec.terms
        ],
    }


def factors_to_obj(f: KruskalFactors) -> dict:
    return {
        "rank": f.rank,
        "weights": None if f.weights is None else f.weights.tolist(),
        "A": f.A.tolist(),
        "B": f.B.tolist(),
        "C": f.C.tolist(),
    }


def factors_from_obj(obj: dict) -> KruskalFactors:
    w = obj.get("weights")
    return KruskalFactors(
        np.asarray(obj["A"], dtype=float),
        np.asarray(obj["B"], dtype=float),
        np.asarray(obj["C"], dtype=float),
        None if w is None else np.asarray(w, dtype=float),
    )


def save_json(obj: Any, path, indent: int | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=indent)
        fh.write("\n")


def load_json(path) -> Any:
    with open(path) as fh:
        return json.load(fh)


def save_samples(path, samples: np.ndarray, names=None) -> None:
    samples = np.asarray(samples, dtype=float)
    if names is None:
        names = [f"y{k + 1}" for k in range(samples.shape[1])]
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in samples:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


class SamplesFormatError(ValueError):
    """A malformed samples CSV.

    It is empty or header-only, or has a ragged row or a cell that is not a finite number.
    """


def load_samples(path) -> tuple[np.ndarray, list[str]]:
    with open(path) as fh:
        header = fh.readline()
        if not header.strip():
            raise SamplesFormatError(f"{path}, line 1: no header row (empty file or blank line)")
        names = [h.strip() for h in header.split(",")]
        rows, blank = [], []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                blank.append(lineno)
                continue
            cells = line.split(",")
            if len(cells) != len(names):
                raise SamplesFormatError(
                    f"{path}, line {lineno}: expected {len(names)} values as in the header, "
                    f"found {len(cells)}"
                )
            try:
                rows.append([float(v) for v in cells])
            except ValueError:
                col = next(k for k, v in enumerate(cells) if not _is_number(v))
                raise SamplesFormatError(
                    f"{path}, line {lineno}, column {col + 1}: {cells[col].strip()!r} "
                    "is not a number"
                ) from None
    if not rows:
        raise SamplesFormatError(f"{path}: no samples after the header row")
    samples = np.asarray(rows, dtype=float)
    # min and max see every nan and infinity without a sample-sized temporary
    if not np.isfinite([samples.min(), samples.max()]).all():
        k, col = np.argwhere(~np.isfinite(samples))[0]
        lineno = k + 2
        for b in blank:  # each blank line before the row moves it one line down
            if b <= lineno:
                lineno += 1
        raise SamplesFormatError(
            f"{path}, line {lineno}, column {col + 1}: {float(samples[k, col])!r} "
            "is not a finite number"
        )
    return samples, names


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True
