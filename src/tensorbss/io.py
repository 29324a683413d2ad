"""File formats: JSON for tensors, quantics, decompositions, factor sets and
manifests; CSV for sample matrices.

Dense tensors serialize as ``{"dims": [...], "data": [...]}`` with row-major
data; symmetric tensors as ``{"sym": true, "dim": n, "order": d,
"packed": [...]}``.

Sample CSV files carry a header row of variable names and one observation per
line.  Each cell is written as its shortest ``repr``, so reload is exact.  A
cell is read as Python's ``float`` reads it; blank and whitespace-only lines
are skipped; every row has as many cells as the header has names, and every
value is finite.  ``np.loadtxt`` parses the body.  Where it refuses a file, or
returns what the contract rejects, a line scanner reads the file instead: it
accepts the few cells only ``float`` takes (such as ``1_0``) and names the
line and column of the first fault.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .core import DenseTensor, SymTensor
from .parafac import KruskalFactors
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


def save_json(obj: Any, path, indent: int | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=indent)
        fh.write("\n")


def load_json(path) -> Any:
    with open(path) as fh:
        return json.load(fh)


# Rows per write: bounds the strings held at once to a few MB for any file size.
_BLOCK_ROWS = 4096


def save_samples(path, samples: np.ndarray, names=None) -> None:
    samples = np.asarray(samples, dtype=float)
    if names is None:
        names = [f"y{k + 1}" for k in range(samples.shape[1])]
    row = ",".join(["%r"] * samples.shape[1]) + "\n"  # %r is repr: the shortest exact digits
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for start in range(0, len(samples), _BLOCK_ROWS):
            block = samples[start:start + _BLOCK_ROWS]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


class SamplesFormatError(ValueError):
    """A malformed samples CSV.

    It is empty or header-only, or has a ragged row or a cell that is not a finite number.
    """


def load_samples(path) -> tuple[np.ndarray, list[str]]:
    with open(path) as fh:
        header = fh.readline()
        names = [h.strip() for h in header.split(",")]
        body = fh.tell()
        while (line := fh.readline()) == "\n":
            pass
        # loadtxt warns on a body of empty lines; the scanner reports it
        if header.strip() and line:
            fh.seek(body)
            try:
                samples = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                pass
            else:
                if (
                    len(samples)
                    and samples.shape[1] == len(names)
                    and np.isfinite([samples.min(), samples.max()]).all()
                ):
                    return samples, names
    return _scan_samples(path)


def _scan_samples(path) -> tuple[np.ndarray, list[str]]:
    """Line-by-line reader with Python's ``float``: reads what ``loadtxt`` refuses
    and raises ``SamplesFormatError`` at the first fault of a malformed file."""
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
