"""The container layout, written down once for the tests that read or rewrite files.

A checkpoint or dataset file is a fixed prefix (4-byte magic, u32 version,
u64 header length, u32 CRC-32 of every byte after the prefix), then the
JSON header, then the payload. :func:`rewrite` edits any of these and
refreshes the CRC, so a test's edit meets the loader's own checks.
"""

import struct
import zlib

PREFIX = struct.Struct("<4sIQI")


def split(raw: bytes) -> tuple[bytes, int, bytes, bytes]:
    """A container's magic, version, header bytes and payload bytes."""
    magic, version, n, _ = PREFIX.unpack_from(raw)
    return magic, version, raw[PREFIX.size:PREFIX.size + n], raw[PREFIX.size + n:]


def payload_offset(raw: bytes) -> int:
    """The offset of the first payload byte: the prefix and header come before it."""
    return PREFIX.size + PREFIX.unpack_from(raw)[2]


def rewrite(path, header=None, payload=None, version=None) -> None:
    """Rewrite the container at ``path`` with ``header(bytes)``, ``payload(bytes)``
    or ``version`` in place of its own, under a refreshed CRC."""
    magic, old_version, old_header, old_payload = split(path.read_bytes())
    version = old_version if version is None else version
    header = header(old_header) if header else old_header
    payload = payload(old_payload) if payload else old_payload
    crc = zlib.crc32(payload, zlib.crc32(header))
    path.write_bytes(PREFIX.pack(magic, version, len(header), crc) + header + payload)
