"""Single-file binary container for trained models.

Layout (all integers little-endian):

    offset  size         field
    0       4            magic  b"SIGC"
    4       u32          container format version (currently 1)
    8       u32          metadata byte length L
    12      L            metadata, UTF-8 text of "key=value" lines
    .       u32          array count
    per array:
            u16          name byte length
            .            name, UTF-8
            u8           number of dimensions
            .            u64 per dimension (row-major shape)
            .            float64 little-endian values, row-major
    end     32           SHA-256 digest of every preceding byte

Metadata keys and array names are written in sorted order, so a given
(metadata, arrays) pair always produces identical bytes.  ``read_model``
reads a model file of either kind against its schema.
"""

from __future__ import annotations

import hashlib
import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"SIGC"
CONTAINER_VERSION = 1
# fixed size limit, above any model file that loads (the largest descriptor
# model the size limits admit is about 155 MiB, the default one under 1 MiB);
# a larger file is never read, and reading takes about twice a file's size
MAX_CONTAINER_BYTES = 192 * 2**20


class ContainerError(ValueError):
    """The file is not a valid model container, or does not fit its model schema."""


def format_value(v) -> str:
    """Text form of a config or metadata value; ``parse_value`` inverts it."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def parse_value(text: str, kind):
    """Read ``text`` as a value of the declared type ``kind``."""
    if kind is bool:
        if text not in ("true", "false"):
            raise ValueError(f"expected true or false, got {text!r}")
        return text == "true"
    return kind(text)


def bounded(read, valid):
    """Field reader: ``read(text)``, refused unless the value is ``valid``."""
    def reader(text):
        if not valid(value := read(text)):  # NaN fails every comparison
            raise ValueError(f"{text!r} is out of range")
        return value
    return reader


def write_container(path, metadata: dict, arrays: dict) -> None:
    chunks = [MAGIC, struct.pack("<I", CONTAINER_VERSION)]
    meta = {key: format_value(value) for key, value in metadata.items()}
    for key, value in meta.items():
        if "=" in key or "\n" in key + value:
            raise ValueError(f"cannot store metadata {key!r}={value!r}: a key may "
                             "hold no '=' or newline, a value no newline")
    meta_bytes = "".join(f"{k}={meta[k]}\n" for k in sorted(meta)).encode("utf-8")
    chunks.append(struct.pack("<I", len(meta_bytes)))
    chunks.append(meta_bytes)
    chunks.append(struct.pack("<I", len(arrays)))
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        name_bytes = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        chunks.append(arr.tobytes())
    payload = b"".join(chunks)
    digest = hashlib.sha256(payload).digest()
    Path(path).write_bytes(payload + digest)


class _Reader:
    def __init__(self, data: memoryview, path):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise ContainerError(f"{self.path}: truncated container")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n: int, what: str) -> str:
        try:
            return str(self.take(n), "utf-8")
        except UnicodeDecodeError:
            raise ContainerError(f"{self.path}: {what} is not UTF-8 text") from None


def read_container(path):
    """Read and verify a container, returning (metadata, arrays)."""
    path = Path(path)
    if (size := path.stat().st_size) > MAX_CONTAINER_BYTES:
        raise ContainerError(f"{path}: file is {size} bytes, over the limit "
                             f"of {MAX_CONTAINER_BYTES} bytes")
    data = path.read_bytes()
    if len(data) < len(MAGIC) + 4 + 32:
        raise ContainerError(f"{path}: truncated container")
    payload, digest = memoryview(data)[:-32], data[-32:]
    if hashlib.sha256(payload).digest() != digest:
        raise ContainerError(f"{path}: payload checksum mismatch "
                             "(truncated or corrupted file)")
    r = _Reader(payload, path)
    if r.take(len(MAGIC)) != MAGIC:
        raise ContainerError(f"{path}: not a model container (bad magic)")
    (fmt_version,) = r.unpack("<I")
    if fmt_version != CONTAINER_VERSION:
        raise ContainerError(f"{path}: container format version {fmt_version} "
                             f"is not the supported version {CONTAINER_VERSION}")
    (meta_len,) = r.unpack("<I")
    metadata = {}
    for line in filter(None, r.text(meta_len, "metadata").split("\n")):
        key, sep, value = line.partition("=")
        if not sep:
            raise ContainerError(f"{path}: metadata line {line!r} has no '='")
        if key in metadata:
            raise ContainerError(f"{path}: metadata key {key!r} is stored twice")
        metadata[key] = value
    (n_arrays,) = r.unpack("<I")
    arrays = {}
    for _ in range(n_arrays):
        (name_len,) = r.unpack("<H")
        name = r.text(name_len, "an array name")
        if name in arrays:
            raise ContainerError(f"{path}: array {name!r} is stored twice")
        (ndim,) = r.unpack("<B")
        shape = r.unpack(f"<{ndim}Q")
        count = math.prod(shape)  # a Python int: cannot wrap
        if 8 * count > len(payload) - r.pos:
            raise ContainerError(f"{path}: array {name!r} of shape {shape} needs "
                                 f"{8 * count} bytes, only {len(payload) - r.pos} remain")
        raw = r.take(8 * count)
        try:
            arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        except ValueError as exc:  # e.g. a zero-size shape with a huge dimension
            raise ContainerError(f"{path}: array {name!r} has unusable shape "
                                 f"{shape}: {exc}") from None
    if r.pos != len(payload):
        raise ContainerError(f"{path}: {len(payload) - r.pos} unexpected trailing bytes")
    return metadata, arrays


def _field(meta: dict, key: str, reader, path):
    if key not in meta:
        raise ContainerError(f"{path}: metadata key {key!r} is missing")
    try:
        return parse_value(meta[key], reader)
    except ValueError as exc:
        raise ContainerError(f"{path}: bad metadata value for {key}: {exc}") from None


def read_model(path, kind: str, version: int, fields: dict, shapes: dict):
    """(values, arrays) of a ``kind`` model file of ``version``, or ContainerError.

    ``fields`` maps each metadata key to its type or reader (a callable
    raising ValueError), ``shapes`` each array to its dimension names.
    A dimension named after a field takes that field's value; any other
    takes its size from the first array that uses it.  Every array must
    be finite.
    """
    meta, arrays = read_container(path)
    name = {"descriptor": "descriptor model", "usermodel": "user model"}[kind]
    if meta.get("kind") != kind:
        raise ContainerError(f"{path}: expected a {name}, found kind={meta.get('kind')!r}")
    if (found := _field(meta, "version", int, path)) != version:
        raise ContainerError(
            f"{path}: {name} version {found} does not match supported version {version}")
    values = {key: _field(meta, key, reader, path) for key, reader in fields.items()}
    sizes = dict(values)
    for key, dims in shapes.items():
        if key not in arrays:
            raise ContainerError(f"{path}: array {key!r} is missing")
        shape = arrays[key].shape
        if len(shape) != len(dims) or shape != tuple(
                sizes.setdefault(d, n) for d, n in zip(dims, shape)):
            expected = tuple(sizes.get(d, d) for d in dims)
            raise ContainerError(f"{path}: array {key!r} has shape {shape}, "
                                 f"expected {expected}")
        if not np.isfinite(arrays[key]).all():
            raise ContainerError(f"{path}: array {key!r} is not finite")
    return values, arrays
