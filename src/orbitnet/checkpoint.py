"""Versioned binary container for named float64 tensors.

Layout (all integers little-endian):

    offset  size  field
    0       8     magic b"ORBITCK1"
    8       4     format version (uint32, currently 1)
    12      4     tensor count (uint32)
    then per tensor:
            2     name length L (uint16)
            L     name, UTF-8
            1     ndim (uint8)
            4*nd  extents (uint32 each)
            8*n   payload, float64 little-endian, C order

Tensors restore in file order; names must be unique. A checkpoint is
written to a temporary file beside its target and moved over it with
`os.replace`, so a failed write leaves the previous file as it was.
"""

import math
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"ORBITCK1"
VERSION = 1


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, arrays):
    """Write a dict of name -> array (converted to float64), atomically."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<II", VERSION, len(arrays)))
            for name, arr in arrays.items():
                arr = np.asarray(arr, dtype="<f8")
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<H", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<B", arr.ndim))
                for extent in arr.shape:
                    fh.write(struct.pack("<I", extent))
                fh.write(arr.tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path):
    """Read a checkpoint back into a dict of name -> float64 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")

    def unpack(fmt, offset):
        if offset + struct.calcsize(fmt) > len(data):
            raise CheckpointError(f"{path}: truncated: file ends at byte "
                                  f"{len(data)}, inside the field at {offset}")
        return struct.unpack_from(fmt, data, offset)

    version, count = unpack("<II", 8)
    if version != VERSION:
        raise CheckpointError(
            f"{path}: format version {version}, this build reads {VERSION}")
    arrays = {}
    offset = 16
    for _ in range(count):
        (name_len,) = unpack("<H", offset)
        offset += 2
        try:
            name = unpack(f"<{name_len}s", offset)[0].decode("utf-8")
        except UnicodeDecodeError as err:
            raise CheckpointError(f"{path}: tensor name at byte {offset} is "
                                  f"not UTF-8: {err.reason}") from None
        if name in arrays:
            raise CheckpointError(f"{path}: tensor name {name!r} appears "
                                  f"twice")
        offset += name_len
        (ndim,) = unpack("<B", offset)
        offset += 1
        shape = unpack(f"<{ndim}I", offset)
        offset += 4 * ndim
        size = math.prod(shape)
        end = offset + 8 * size
        if end > len(data):
            raise CheckpointError(
                f"{path}: tensor {name!r} payload runs past end of file")
        arrays[name] = np.frombuffer(
            data, dtype="<f8", count=size, offset=offset).reshape(shape).copy()
        offset = end
    if offset != len(data):
        raise CheckpointError(f"{path}: {len(data) - offset} trailing bytes")
    return arrays
