"""Reading and writing density matrices as versioned JSON documents.

A state file is a JSON object with a ``version`` string, an optional
``dims`` object tagging the A|B split, and a ``matrix`` array of rows
whose entries are ``[re, im]`` pairs.  Row and column indices follow the
flat convention ``i*dB + j`` for basis state |i>|j>.  Numbers are
written as decimals with 17 significant digits, which round-trips IEEE
doubles exactly, so saving a loaded file reproduces it byte for byte.

Malformed documents raise :class:`StateFileParseError` (with line and
column when the JSON parser reports them); well-formed documents whose
matrix is not a density matrix within tolerance raise
:class:`StateInvariantError`.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import StateFileParseError, StateInvariantError
from .hermitian import HermitianMatrix, SpectralDecomposition, _clears, _eigh
from .states import TRACE_TOL, BipartiteDims, DensityMatrix

# Load-time acceptance bands, looser than the DensityMatrix constructor
# tolerances; loads inside the band but outside the constructor band are
# repaired (renormalized or eigenvalue-clipped) rather than rejected.
FILE_TRACE_TOL = 1e-8
FILE_PSD_TOL = 1e-8
FILE_HERM_TOL = 1e-8

_VERSION = "1"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def dumps_state(state: DensityMatrix) -> str:
    """Serialize a density matrix to the canonical text form."""
    mat = state.mat
    lines = ["{", f'  "version": "{_VERSION}",']
    if state.dims is not None:
        lines.append(f'  "dims": {{"dA": {state.dims.da}, "dB": {state.dims.db}}},')
    lines.append('  "matrix": [')
    d = mat.shape[0]
    for i in range(d):
        cells = ", ".join(
            f"[{_fmt(float(mat[i, j].real))}, {_fmt(float(mat[i, j].imag))}]"
            for j in range(d)
        )
        comma = "," if i < d - 1 else ""
        lines.append(f"    [{cells}]{comma}")
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def save_state(state: DensityMatrix, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_state(state))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise StateFileParseError(message)


def _number(value, where: str) -> float:
    # bool is an int subclass; a bare true/false is not a number here
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{where} must be a number",
    )
    out = float(value)
    _require(math.isfinite(out), f"{where} must be finite")
    return out


def loads_state(text: str) -> DensityMatrix:
    """Parse the canonical text form back into a density matrix."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFileParseError(
            f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno
        ) from exc

    _require(isinstance(doc, dict), "top level must be an object")
    unknown = set(doc) - {"version", "dims", "matrix"}
    _require(not unknown, f"unknown keys: {sorted(unknown)}")
    _require("version" in doc, "missing key: version")
    _require(doc["version"] == _VERSION, f"unsupported version {doc['version']!r}")
    _require("matrix" in doc, "missing key: matrix")

    dims = None
    if "dims" in doc:
        block = doc["dims"]
        _require(isinstance(block, dict), "dims must be an object")
        _require(set(block) == {"dA", "dB"}, "dims must hold exactly dA and dB")
        for key in ("dA", "dB"):
            v = block[key]
            _require(
                isinstance(v, int) and not isinstance(v, bool) and v >= 1,
                f"dims.{key} must be a positive integer",
            )
        dims = BipartiteDims(block["dA"], block["dB"])

    rows = doc["matrix"]
    _require(isinstance(rows, list) and len(rows) >= 1, "matrix must be a nonempty array")
    d = len(rows)
    mat = np.zeros((d, d), dtype=np.complex128)
    for i, row in enumerate(rows):
        _require(
            isinstance(row, list) and len(row) == d,
            f"matrix row {i} must be an array of {d} entries",
        )
        for j, cell in enumerate(row):
            _require(
                isinstance(cell, list) and len(cell) == 2,
                f"matrix entry ({i},{j}) must be a [re, im] pair",
            )
            re = _number(cell[0], f"matrix entry ({i},{j}) real part")
            im = _number(cell[1], f"matrix entry ({i},{j}) imaginary part")
            mat[i, j] = complex(re, im)
    if dims is not None:
        _require(
            dims.total == d,
            f"dims {dims.da}x{dims.db} do not match matrix dimension {d}",
        )

    herm_gap = float(np.max(np.abs(mat - mat.conj().T)))
    if herm_gap > FILE_HERM_TOL:
        raise StateInvariantError(
            f"matrix is not Hermitian: max |M - M'| = {herm_gap:.3e}"
        )
    matrix = HermitianMatrix(mat)
    tr = matrix.trace()
    if abs(tr - 1.0) > FILE_TRACE_TOL:
        raise StateInvariantError(f"trace {tr!r} differs from 1 by more than {FILE_TRACE_TOL:g}")
    # repair only when the strict constructor bands would reject; exact
    # inputs pass through untouched, keeping round-trips byte-identical.
    # One decomposition checks the PSD band and is the state's spectrum,
    # unless clipping rebuilds the matrix for the constructor to decompose
    if abs(tr - 1.0) > TRACE_TOL:
        matrix = HermitianMatrix(matrix.mat / tr)
    w, u = _eigh(matrix.mat)
    if not _clears(float(w[0]), FILE_PSD_TOL):
        raise StateInvariantError(f"matrix has eigenvalue {float(w[0]):.3e} below -{FILE_PSD_TOL:g}")
    if _clears(float(w[0])):
        return DensityMatrix._from_spectrum(matrix, dims, SpectralDecomposition(w, u))
    w = np.clip(w, 0.0, None)
    return DensityMatrix((u * (w / float(np.sum(w)))) @ u.conj().T, dims)


def load_state(path) -> DensityMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise StateFileParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    return loads_state(text)
