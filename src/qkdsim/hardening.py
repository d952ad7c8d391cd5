"""Countermeasures for the amplification-matrix tampering attacks.

Two hardened variants of the protocol are modeled. In matrix_in_log mode
the full amplification matrix is embedded in the authenticated protocol-log
extract, so any in-flight modification of the matrix shows up as a digest
mismatch. In derived_matrix mode the matrix never crosses the channel at
all: both parties expand it locally from previously authenticated shared
secret material, which removes the tampering surface entirely.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from enum import Enum
from typing import TYPE_CHECKING

from .gf2 import BitMatrix

if TYPE_CHECKING:  # pragma: no cover
    from .pipeline import ProtocolLogExtract


class HardeningKind(str, Enum):
    BASELINE = "baseline"
    MATRIX_IN_LOG = "matrix_in_log"
    DERIVED_MATRIX = "derived_matrix"


def embed_matrix_in_log(log: "ProtocolLogExtract", matrix: BitMatrix) -> "ProtocolLogExtract":
    """Return a copy of the log extract with the matrix embedded (matrix_in_log mode)."""
    return dataclasses.replace(log, matrix_included=matrix)


def derive_matrix(shared_secret: bytes, rows: int, cols: int) -> BitMatrix:
    """Expand an amplification matrix from shared secret material.

    The expansion is a keyed pseudo-random stream (SHAKE-256 over a domain
    tag, the secret and the dimensions), so equal inputs give bit-identical
    matrices on both sides and nothing about the matrix travels on the wire.
    """
    if not shared_secret:
        raise ValueError("empty shared secret")
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be nonnegative")
    h = hashlib.shake_256()
    h.update(b"qkdsim.derive-matrix|")
    h.update(struct.pack(">III", len(shared_secret), rows, cols))
    h.update(shared_secret)
    return BitMatrix.from_packed_rows(h.digest(rows * ((cols + 7) // 8)), rows, cols)
