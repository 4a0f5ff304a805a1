"""The framed binary container that checkpoints and datasets share.

Layout: 4-byte magic, u32 version, u64 header length, a JSON object
header (sorted keys, no spaces, with ``version`` and ``crc32`` fields),
then the payload: arrays written back to back as contiguous
little-endian blocks. ``crc32`` is the ``zlib.crc32`` of the payload.
Each file kind supplies its magic, its version, its header schema and
the blocks its header implies; everything else about the framing lives
here, so the two kinds cannot drift apart.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

_PREFIX = struct.Struct("<4sIQ")    # magic, version, header length


@contextlib.contextmanager
def atomic_write(path: str):
    """A binary file object whose bytes replace ``path`` only if the block completes.

    Writes go to a temporary file in the same directory, which ``os.replace``
    then moves over ``path``. If the block raises, the temporary file is
    removed and ``path`` keeps its old bytes.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def check_fields(obj: dict, fields: dict, error: type[Exception], where: str) -> None:
    """Raise ``error`` unless each key of ``fields`` maps to a value of its type."""
    for key, kind in fields.items():
        if not isinstance(obj.get(key), kind):
            raise error(f"{where} field {key!r} is missing or has the wrong type")


def write_container(path: str, magic: bytes, version: int, header: dict,
                    blocks: list[np.ndarray]) -> None:
    """Write ``header`` (plus its version and payload CRC) and ``blocks`` atomically to ``path``."""
    payload = [np.ascontiguousarray(block, dtype=block.dtype.newbyteorder("<")).data
               for block in blocks]
    crc = 0
    for data in payload:
        crc = zlib.crc32(data, crc)
    blob = json.dumps({**header, "version": version, "crc32": crc}, sort_keys=True,
                      separators=(",", ":")).encode()
    with atomic_write(path) as f:
        f.write(_PREFIX.pack(magic, version, len(blob)))
        f.write(blob)
        for data in payload:
            f.write(data)


@dataclass
class Container:
    """A framed file read whole: its checked header, and the payload after it."""

    path: str
    header: dict
    raw: bytes
    offset: int
    error: type[Exception]
    length_error: type[Exception]

    def blocks(self, *blocks: tuple[str, int]) -> list[np.ndarray]:
        """Read-only views of the payload as (dtype, count) blocks, which must fill it
        exactly and match the header's CRC."""
        sizes = [np.dtype(dtype).itemsize * count for dtype, count in blocks]
        if sum(sizes) != len(self.raw) - self.offset:
            raise self.length_error(f"{self.path}: the header implies a {sum(sizes)}-byte "
                                    f"payload, found {len(self.raw) - self.offset} bytes")
        crc = zlib.crc32(memoryview(self.raw)[self.offset:])
        if crc != self.header["crc32"]:
            raise self.error(f"{self.path}: payload CRC-32 {crc} does not match the "
                             f"header's {self.header['crc32']}")
        views, offset = [], self.offset
        for (dtype, count), size in zip(blocks, sizes):
            views.append(np.frombuffer(self.raw, dtype=dtype, count=count, offset=offset))
            offset += size
        return views


def read_container(path: str, magic: bytes, version: int, fields: dict,
                   error: type[Exception], length_error: type[Exception] | None = None
                   ) -> Container:
    """Read and check a container's framing and header; each of ``fields`` must map to its type.

    A fault in the framing or the header raises ``error``; a file too short
    for its header, or a payload of the wrong length, raises ``length_error``
    (``error`` when omitted). :meth:`Container.blocks` checks the payload's
    CRC and raises ``error`` on a mismatch. An unreadable file raises ``OSError``.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _PREFIX.size or raw[:4] != magic:
        raise error(f"{path}: bad magic at offset 0, expected {magic!r}")
    _, got_version, blob_len = _PREFIX.unpack_from(raw)
    if got_version != version:
        raise error(f"{path}: unsupported version {got_version}, expected {version}")
    offset = _PREFIX.size + blob_len
    if len(raw) < offset:
        raise (length_error or error)(f"{path}: truncated header, need {offset} bytes, "
                                      f"have {len(raw)}")
    try:
        header = json.loads(raw[_PREFIX.size:offset])
    except ValueError as e:     # JSONDecodeError, or bytes that are not UTF-8
        raise error(f"{path}: header is not valid JSON: {e}") from e
    if not isinstance(header, dict):
        raise error(f"{path}: header is not a JSON object")
    check_fields(header, {**fields, "crc32": int}, error, f"{path}: header")
    return Container(path, header, raw, offset, error, length_error or error)
