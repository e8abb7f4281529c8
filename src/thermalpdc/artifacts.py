"""Output writers shared by the command-line scenarios and the demos."""

from __future__ import annotations

import csv
import hashlib

import numpy as np


def write_csv(path, columns) -> None:
    """Columnar CSV: a header of the column names, then one row per index.

    `columns` maps each name to a sequence; all must have the same length.
    Bool columns are written true/false and integer columns as str; any
    other column is read as float and written as repr(float), with NaN (or
    None) as an empty field.  Lines end in CRLF, the csv module's default.
    """
    fields = [_fields(np.asarray(values)) for values in columns.values()]
    if len({len(f) for f in fields}) > 1:
        raise ValueError("CSV columns must have equal lengths")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(zip(*fields))


def _fields(values: np.ndarray) -> list[str]:
    if values.dtype == bool:
        return ["true" if v else "false" for v in values.tolist()]
    if values.dtype.kind in "iu":
        return [str(v) for v in values.tolist()]
    return ["" if v != v else repr(v) for v in values.astype(float).tolist()]


def write_pgm(path, values: np.ndarray) -> None:
    """8-bit binary portable graymap of a 2-D map, max-scaled, row-major."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 2:
        raise ValueError("PGM output needs a 2-D array")
    peak = v.max()
    scaled = np.zeros_like(v) if peak <= 0 else v / peak
    pixels = np.round(255.0 * scaled).astype(np.uint8)
    header = f"P5\n{v.shape[1]} {v.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(pixels.tobytes())


def sha256_of(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
