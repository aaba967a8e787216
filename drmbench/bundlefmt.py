"""A small reader and writer for the DRMB bundle format, independent of ``drm``.

The benchmark writes its inputs and reads the program's outputs with this
module instead of ``drm.bundle``, so a change to the program's own I/O code
can neither alter the inputs nor hide a defect in the outputs. The layout
is the one ``drm.bundle`` documents: magic ``DRMB``, u32 version 1, u64
header length, a canonical JSON header, then the 8-byte aligned data region.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

MAGIC = b"DRMB"
VERSION = 1
_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
_NAMES = {np.dtype("<f4"): "f32", np.dtype("<f8"): "f64"}


def write(path, tensors: dict[str, np.ndarray], metadata: dict[str, str] | None = None) -> None:
    """Write ``tensors`` (insertion order) as one bundle file."""
    records, payloads, offset = [], [], 0
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))
        data = arr.tobytes()
        records.append({"name": name, "dtype": _NAMES[arr.dtype], "shape": list(arr.shape),
                        "offset": offset, "nbytes": len(data)})
        payloads.append(data)
        offset = (offset + len(data) + 7) // 8 * 8
    header = json.dumps({"tensors": records, "metadata": dict(sorted((metadata or {}).items()))},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<IQ", VERSION, len(header)) + header)
        written = 0
        for rec, data in zip(records, payloads):
            fh.write(b"\0" * (rec["offset"] - written))
            fh.write(data)
            written = rec["offset"] + len(data)
        # On disk before any sample starts, so no write-back of the inputs
        # competes with the timed command.
        fh.flush()
        os.fsync(fh.fileno())


def read(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Return (tensors in file order, metadata); tensors are read-only memmaps.

    Raises ValueError on anything that is not a well-formed bundle.
    """
    with open(path, "rb") as fh:
        fixed = fh.read(16)
        if len(fixed) < 16 or fixed[:4] != MAGIC:
            raise ValueError(f"{path}: not a bundle file")
        version, header_len = struct.unpack("<IQ", fixed[4:])
        if version != VERSION:
            raise ValueError(f"{path}: format version {version}")
        header = json.loads(fh.read(header_len).decode("utf-8"))
    base = 16 + header_len
    tensors = {}
    for rec in header["tensors"]:
        if rec["name"] in tensors:
            raise ValueError(f"{path}: duplicate tensor {rec['name']!r}")
        tensors[rec["name"]] = np.memmap(path, dtype=_DTYPES[rec["dtype"]], mode="r",
                                         offset=base + rec["offset"], shape=tuple(rec["shape"]))
    return tensors, header.get("metadata", {})
