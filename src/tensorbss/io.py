"""File formats: JSON for tensors, quantics, decompositions, factor sets and
manifests; CSV for sample matrices.

Every reader refuses bad input with ``InputError``, a ``ValueError`` whose
message names the file and the field or line at fault, and raises nothing else
but the ``OSError`` of a file it cannot open.

Dense tensors serialize as ``{"dims": [...], "data": [...]}`` with row-major
data; symmetric tensors as ``{"sym": true, "dim": n, "order": d,
"packed": [...]}``.  Sizes (``dim``, ``order``, each entry of ``dims``, and a
quantic's ``degree``) must be JSON integers: a float, even ``3.0``, a boolean
or a string is refused, not truncated.

Sample CSV files carry a header row of variable names and one observation per
line.  Each cell is written as its shortest ``repr``, so reload is exact.  A
cell is read as Python's ``float`` reads it; blank and whitespace-only lines
are skipped; every row has as many cells as the header has names, and every
value is finite.  ``np.loadtxt`` parses the body.  Where it refuses a file, or
returns what the contract rejects, a line scanner reads the file instead: it
accepts the few cells only ``float`` takes (such as ``1_0``) and names the
line and column of the first fault.  Files are read as UTF-8 text; bytes that
are not raise ``InputError`` naming their line.

``save_samples`` formats the rows in blocks of ``_BLOCK_ROWS``.  A file of at
least two blocks, written by a process that may run on two or more CPUs where
``os.fork`` exists, is formatted by two processes: a forked child formats the
second half of the rows into an anonymous temporary file while this process
formats the first half, and the child's half is then appended.  The bytes are
the same either way.

This module imports only ``core`` of the package; ``quantic_from_obj`` imports
``sylvester`` when it is called.
"""

from __future__ import annotations

import json
import os
import reprlib
import shutil
import tempfile
from typing import TYPE_CHECKING, Any

import numpy as np

from .core import DenseTensor, SymTensor

if TYPE_CHECKING:
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


class InputError(ValueError):
    """A flag, file, field or line that the program refuses; the message names it."""


def _parse(where, value, convert):
    """``convert(value)``, or ``InputError`` naming ``where`` if it refuses the value."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:  # what int() and numpy raise
        raise InputError(f"{where}: {exc}") from None


def _field(obj: dict, key: str, convert):
    """``convert(obj[key])``; ``InputError`` naming the field if it is missing or refused."""
    if key not in obj:
        raise InputError(f"no {key!r} field")
    return _parse(f"field {key!r}", obj[key], convert)


def _integer(value) -> int:
    """``value`` if it is a JSON integer; a boolean, a string or any float is refused."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {reprlib.repr(value)}")
    return value


def _finite(value) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("entries must be finite numbers")
    return arr


def _finite_matrix(value) -> np.ndarray:
    arr = _finite(value)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"expected a nonempty matrix, got an array of shape {arr.shape}")
    return arr


def tensor_from_obj(obj: dict):
    """The tensor of a parsed JSON object (``ValueError`` naming a bad field)."""
    if obj.get("sym"):
        return SymTensor(
            _field(obj, "dim", _integer), _field(obj, "order", _integer),
            _field(obj, "packed", _finite),
        )
    dims = _field(obj, "dims", lambda v: [_integer(n) for n in v])
    return DenseTensor.from_flat(dims, _field(obj, "data", _finite))


def quantic_from_obj(obj: dict) -> BinaryQuantic:
    """The quantic of a parsed JSON object (``ValueError`` naming a bad field)."""
    from .sylvester import BinaryQuantic

    return BinaryQuantic(_field(obj, "degree", _integer), _field(obj, "gamma", _finite))


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
    """The JSON document in ``path``; ``InputError`` naming the file if it does not parse."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # also bytes that are not UTF-8 text
            raise InputError(f"{path}: not valid JSON ({exc})") from None


def load_obj(path, from_obj):
    """``from_obj`` of the JSON object in ``path``; ``InputError`` naming the file,
    and the field if one is at fault, when ``from_obj`` refuses it."""
    obj = load_json(path)
    if not isinstance(obj, dict):
        raise InputError(f"{path}: not a JSON object")
    return _parse(path, obj, from_obj)


def load_matrix(path, key: str | None = None) -> np.ndarray:
    """The finite nonempty matrix in field ``key`` of the JSON object in ``path``, or
    the whole JSON document if ``key`` is None (``InputError`` naming the file)."""
    if key is None:
        return _parse(path, load_json(path), _finite_matrix)
    return load_obj(path, lambda obj: _field(obj, key, _finite_matrix))


# Rows per write: bounds the strings held at once to a few MB for any file size.
_BLOCK_ROWS = 4096


def save_samples(path, samples: np.ndarray, names=None) -> None:
    samples = np.asarray(samples, dtype=float)
    if names is None:
        names = [f"y{k + 1}" for k in range(samples.shape[1])]
    row = ",".join(["%r"] * samples.shape[1]) + "\n"  # %r is repr: the shortest exact digits
    half = _split_row(len(samples))
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        if not half:
            _write_rows(fh, samples, row)
            return
        with tempfile.TemporaryFile("w+") as tail:
            pid = os.fork()
            # the child leaves by os._exit, so it never flushes this process's
            # buffers or runs its exit handlers
            if pid == 0:
                status = 1
                try:
                    _write_rows(tail, samples[half:], row)
                    tail.flush()
                    status = 0
                finally:
                    os._exit(status)
            try:
                _write_rows(fh, samples[:half], row)
            finally:
                _, status = os.waitpid(pid, 0)
            if status:
                raise OSError(
                    f"{path}: the process formatting rows {half} and on failed "
                    f"(exit status {os.waitstatus_to_exitcode(status)})"
                )
            tail.seek(0)
            shutil.copyfileobj(tail, fh)


def _split_row(nrows: int) -> int:
    """The block boundary nearest the middle where a forked child takes over, or 0
    to write every row in this process: a file under two blocks, no ``os.fork``,
    or a single CPU to run on."""
    if nrows < 2 * _BLOCK_ROWS or not hasattr(os, "fork"):
        return 0
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return round(nrows / (2 * _BLOCK_ROWS)) * _BLOCK_ROWS if cpus >= 2 else 0


def _write_rows(fh, samples: np.ndarray, row: str) -> None:
    for start in range(0, len(samples), _BLOCK_ROWS):
        block = samples[start:start + _BLOCK_ROWS]
        fh.write(row * len(block) % tuple(block.ravel().tolist()))


def load_samples(path) -> tuple[np.ndarray, list[str]]:
    # bytes that do not decode become lone surrogates: _check_text refuses
    # them in the header, and loadtxt in the body, which leaves them to the
    # scanner to report by line
    with open(path, errors="surrogateescape") as fh:
        header = fh.readline()
        _check_text(path, 1, header)
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
    and raises ``InputError`` at the first fault of a malformed file."""
    with open(path, errors="surrogateescape") as fh:
        header = fh.readline()
        if not header.strip():
            raise InputError(f"{path}, line 1: no header row (empty file or blank line)")
        names = [h.strip() for h in header.split(",")]
        rows, linenos = [], []
        for lineno, line in enumerate(fh, start=2):
            _check_text(path, lineno, line)
            if not line.strip():
                continue
            cells = line.split(",")
            if len(cells) != len(names):
                raise InputError(
                    f"{path}, line {lineno}: expected {len(names)} values as in the header, "
                    f"found {len(cells)}"
                )
            try:
                rows.append([float(v) for v in cells])
                linenos.append(lineno)
            except ValueError:
                col = next(k for k, v in enumerate(cells) if not _is_number(v))
                raise InputError(
                    f"{path}, line {lineno}, column {col + 1}: {cells[col].strip()!r} "
                    "is not a number"
                ) from None
    if not rows:
        raise InputError(f"{path}: no samples after the header row")
    samples = np.asarray(rows, dtype=float)
    # min and max see every nan and infinity without a sample-sized temporary
    if not np.isfinite([samples.min(), samples.max()]).all():
        k, col = np.argwhere(~np.isfinite(samples))[0]
        raise InputError(
            f"{path}, line {linenos[k]}, column {col + 1}: {float(samples[k, col])!r} "
            "is not a finite number"
        )
    return samples, names


def _check_text(path, lineno: int, line: str) -> None:
    """Raise ``InputError`` if ``line`` holds bytes that did not decode."""
    if not line.isascii():
        try:
            line.encode()
        except UnicodeEncodeError as exc:
            bad = line[exc.start : exc.end].encode(errors="surrogateescape")
            raise InputError(
                f"{path}, line {lineno}: bytes {bad!r} are not UTF-8 text"
            ) from None


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True
