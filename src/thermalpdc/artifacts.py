"""Output writers shared by the command-line scenarios and the demos.

Each writer streams its file through `write_bytes` in pieces of bounded
size, hashing as it writes: CSV rows go out 256 at a time, and a ghost
map's PGM rows about 32k pixels at a time.  `write_pgm` takes a
ghost.G2Map, never a whole array, and scales only the columns of its
support (where the object transmits), as G2Map.row_blocks builds them;
the other pixels are written as the 0 they always are.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np


def write_csv(path, columns) -> str:
    """Columnar CSV: a header of the column names, then one row per index.

    `columns` maps each name to a sequence; all must have the same length.
    Bool columns are written true/false and integer columns as str; any
    other column is read as float and written as repr(float), with NaN (or
    None) as an empty field.  No field is quoted, so a column name holding
    a comma, double quote, CR or LF raises ValueError.  Lines end in CRLF,
    and the bytes are those the csv module writes.  Returns the SHA-256 of
    the bytes written.
    """
    header = list(columns)
    for name in header:
        if any(c in name for c in ',"\r\n'):
            raise ValueError(f"CSV column name {name!r} would need quoting")
    fields = [_fields(np.asarray(values)) for values in columns.values()]
    if len({len(f) for f in fields}) > 1:
        raise ValueError("CSV columns must have equal lengths")
    return write_bytes(path, _csv_chunks(header, zip(*fields)))


def _csv_chunks(header, rows, size: int = 256):
    """The encoded CSV text of the header and then the rows, `size` lines at a time."""
    lines = map(",".join, itertools.chain([header], rows))
    if len(header) == 1:
        # csv quotes a row of one empty field, which would otherwise be a blank line
        lines = (line or '""' for line in lines)
    while chunk := list(itertools.islice(lines, size)):
        yield ("\r\n".join(chunk) + "\r\n").encode()


def _fields(values: np.ndarray) -> list[str]:
    if values.dtype == bool:
        return ["true" if v else "false" for v in values.tolist()]
    if values.dtype.kind in "iu":
        return [str(v) for v in values.tolist()]
    # repr each distinct magnitude once and gather; repr(-x) is "-" + repr(x)
    # for every float but NaN, so -0.0 and 0.0 stay apart
    v = values.astype(float).ravel()
    distinct, inverse = np.unique(np.abs(v).view(np.int64), return_inverse=True)
    text = np.array(["" if x != x else repr(x) for x in distinct.view(float).tolist()], dtype=object)
    fields = text[inverse.ravel()]
    negative = np.signbit(v) & ~np.isnan(v)
    fields[negative] = "-" + fields[negative]
    return fields.tolist()


def write_pgm(path, g2) -> str:
    """8-bit binary portable graymap of a ghost.G2Map, max-scaled, row-major.

    The map is built a block of rows at a time (G2Map.row_blocks), over its
    support only, and each block is scaled in place, so the whole map is
    never held.  Returns the SHA-256 of the bytes written.
    """
    header = f"P5\n{g2.rows.shape[1]} {g2.rows.shape[0]}\n255\n".encode("ascii")
    return write_bytes(path, itertools.chain([header], _pgm_blocks(g2)))


def _pgm_blocks(g2):
    """round(block / peak * 255) as uint8 (0 where peak > 0 fails) for each
    block of G2Map.row_blocks, scaled in place and put in its support
    columns of one reused row block of zeros; every other pixel stays 0,
    as round(0 / peak * 255) is.

    Every block is a view of that one buffer: consume it before the next.
    """
    pixels = None
    for _, block in g2.row_blocks():
        if pixels is None:  # the first block is the largest
            pixels = np.zeros((len(block), g2.rows.shape[1]), dtype=np.uint8)
        out = pixels[:len(block)]
        if g2.peak > 0:
            np.divide(block, g2.peak, out=block)
            block *= 255.0
            np.round(block, out=block)
            out[:, g2.support] = block  # assignment casts unsafely, as np.copyto(..., casting="unsafe")
        yield out


def write_bytes(path, chunks) -> str:
    """Write the iterable of byte chunks to path in order; returns the SHA-256 of the file."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in chunks:
            digest.update(chunk)
            fh.write(chunk)
    return digest.hexdigest()

