"""Output writers shared by the command-line scenarios and the demos."""

from __future__ import annotations

import csv
import hashlib

import numpy as np


def write_csv(path, columns) -> str:
    """Columnar CSV: a header of the column names, then one row per index.

    `columns` maps each name to a sequence; all must have the same length.
    Bool columns are written true/false and integer columns as str; any
    other column is read as float and written as repr(float), with NaN (or
    None) as an empty field.  Lines end in CRLF, the csv module's default.
    Returns the SHA-256 of the bytes written.
    """
    fields = [_fields(np.asarray(values)) for values in columns.values()]
    if len({len(f) for f in fields}) > 1:
        raise ValueError("CSV columns must have equal lengths")
    return write_bytes(path, _csv_chunks(list(columns), zip(*fields)))


def _csv_chunks(header, rows, size: int = 256):
    """The encoded CSV text of the header and then the rows, `size` rows at a time."""
    import itertools

    lines = _Lines()
    writer = csv.writer(lines)
    writer.writerow(header)
    while lines:
        yield "".join(lines).encode()
        lines.clear()
        writer.writerows(itertools.islice(rows, size))


class _Lines(list):
    """A list that csv.writer can write its lines to."""

    write = list.append


def _fields(values: np.ndarray) -> list[str]:
    if values.dtype == bool:
        return ["true" if v else "false" for v in values.tolist()]
    if values.dtype.kind in "iu":
        return [str(v) for v in values.tolist()]
    return ["" if v != v else repr(v) for v in values.astype(float).tolist()]


def write_pgm(path, values: np.ndarray) -> str:
    """8-bit binary portable graymap of a 2-D map, max-scaled, row-major.

    Returns the SHA-256 of the bytes written.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 2:
        raise ValueError("PGM output needs a 2-D array")
    peak = v.max()
    s = v / peak if peak > 0 else np.zeros_like(v)
    s *= 255.0
    np.round(s, out=s)
    header = f"P5\n{v.shape[1]} {v.shape[0]}\n255\n".encode("ascii")
    # row-major whatever the input's memory order: hashlib and write need C-contiguous bytes
    return write_bytes(path, (header, s.astype(np.uint8, order="C")))


def write_bytes(path, chunks) -> str:
    """Write the iterable of byte chunks to path in order; returns the SHA-256 of the file."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in chunks:
            digest.update(chunk)
            fh.write(chunk)
    return digest.hexdigest()


def sha256_of(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
