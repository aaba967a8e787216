"""Tensor-bundle checkpoint format, delta extraction, and adapter materialization.

File layout (little-endian throughout)::

    bytes 0..3    magic  "DRMB"
    bytes 4..7    u32    format version (currently 1)
    bytes 8..15   u64    header length H in bytes
    bytes 16..    H bytes of UTF-8 JSON:
                  {"tensors": [{"name": str, "dtype": "f32"|"f64",
                                "shape": [int, ...], "offset": int,
                                "nbytes": int}, ...],
                   "metadata": {str: str}}
    then          raw row-major tensor data; offsets are relative to the
                  first byte after the header, 8-byte aligned, gaps zeroed.

Writing is bit-deterministic for identical bundle content: tensors are
serialized in insertion order and the header JSON is canonical (sorted
keys, no whitespace).
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagic,
    CorruptHeader,
    ExtraTensor,
    IoFailure,
    MissingTensor,
    NonFiniteValue,
    OffsetOutOfRange,
    ShapeMismatch,
    UnsupportedVersion,
)

MAGIC = b"DRMB"
VERSION = 1
ALIGN = 8

_DTYPE_FROM_NAME = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
_NAME_FROM_KIND = {("f", 4): "f32", ("f", 8): "f64"}


def canonical_json(obj) -> str:
    """Serialize to the compact, key-sorted JSON dialect used by bundle headers."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def dtype_name(dtype) -> str:
    """Return "f32"/"f64" for a supported numpy dtype."""
    dt = np.dtype(dtype)
    key = (dt.kind, dt.itemsize)
    if key not in _NAME_FROM_KIND:
        raise ValueError(f"unsupported dtype {dt}; only f32 and f64 tensors are allowed")
    return _NAME_FROM_KIND[key]


def _require_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue(f"tensor {name!r} contains NaN or infinity")


class TensorBundle:
    """Ordered, validated collection of named float tensors plus string metadata.

    Tensors are rank-1 or rank-2 numpy arrays of float32/float64 with all
    entries finite. Iteration order is insertion order and is preserved by
    the file format.
    """

    def __init__(self, tensors=None, metadata=None):
        self._entries: dict[str, np.ndarray] = {}
        self.metadata: dict[str, str] = {}
        if metadata:
            for key, value in metadata.items():
                if not isinstance(key, str) or not isinstance(value, str):
                    raise ValueError("metadata keys and values must be strings")
                self.metadata[key] = value
        if tensors:
            items = tensors.items() if hasattr(tensors, "items") else tensors
            for name, array in items:
                self.add(name, array)

    def add(self, name: str, array) -> None:
        """Insert a tensor, enforcing the bundle invariants."""
        if not isinstance(name, str) or not name:
            raise ValueError("tensor name must be a non-empty string")
        if name in self._entries:
            raise ValueError(f"duplicate tensor name {name!r}")
        arr = np.ascontiguousarray(array)
        dtype_name(arr.dtype)  # rejects non-float32/64
        if arr.ndim not in (1, 2):
            raise ValueError(f"tensor {name!r} has rank {arr.ndim}; only rank 1 or 2 is supported")
        if any(extent <= 0 for extent in arr.shape):
            raise ValueError(f"tensor {name!r} has a non-positive extent in shape {arr.shape}")
        _require_finite(name, arr)
        self._entries[name] = arr

    def names(self) -> list[str]:
        return list(self._entries)

    def shape(self, name: str) -> tuple[int, ...]:
        return self._entries[name].shape

    def read(self, name: str) -> np.ndarray:
        """The tensor itself; :meth:`BundleFile.read` reads it from disk
        instead, so merging code takes either kind of bundle."""
        return self._entries[name]

    def items(self):
        return self._entries.items()

    def __getitem__(self, name: str) -> np.ndarray:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorBundle):
            return NotImplemented
        if self.metadata != other.metadata or self.names() != other.names():
            return False
        return all(
            a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
            for (_, a), (_, b) in zip(self.items(), other.items())
        )

    def __repr__(self) -> str:
        return f"TensorBundle({len(self)} tensors, {len(self.metadata)} metadata keys)"


def _align_up(n: int) -> int:
    return (n + ALIGN - 1) // ALIGN * ALIGN


def write_bundle(bundle: TensorBundle, path) -> None:
    """Write a bundle; byte-deterministic for identical bundle content.

    Each tensor's buffer goes straight to the file, so writing allocates no
    copy of the data on a little-endian host. The write is atomic with
    respect to this process: ``path`` holds either its previous content or
    the complete new bundle, never a partial one.
    """
    records = []
    arrays = []
    offset = 0
    for name, arr in bundle.items():
        data = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))
        records.append(
            {
                "name": name,
                "dtype": dtype_name(arr.dtype),
                "shape": [int(s) for s in arr.shape],
                "offset": offset,
                "nbytes": data.nbytes,
            }
        )
        arrays.append(data)
        offset = _align_up(offset + data.nbytes)
    header = {"tensors": records, "metadata": dict(sorted(bundle.metadata.items()))}
    header_bytes = canonical_json(header).encode("utf-8")

    with atomic_output(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        written = 0
        for rec, data in zip(records, arrays):
            fh.write(bytes(rec["offset"] - written))  # zero padding
            fh.write(data)
            written = rec["offset"] + data.nbytes


@contextlib.contextmanager
def atomic_output(path):
    """A new binary file that takes the place of ``path`` only when complete.

    Writes go to a sibling temporary file, renamed over ``path`` when the
    block exits cleanly. A failure at any point, interrupts included, removes
    the temporary file and leaves a previous file at ``path`` untouched; an
    ``OSError`` is raised as :class:`IoFailure`.
    """
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        if isinstance(exc, OSError):
            raise IoFailure(f"cannot write {path}: {exc}") from exc
        raise


def _read_at(fd: int, buf, offset: int) -> int:
    """Fill ``buf`` from file offset ``offset`` and return the bytes read,
    fewer only at end of file. Positioned reads keep no seek state, so
    threads may share ``fd``."""
    done = 0
    with memoryview(buf) as view:
        while done < len(view):
            got = os.preadv(fd, [view[done:]], offset + done)
            if got == 0:
                break
            done += got
    return done


class BundleFile:
    """An input bundle opened by its validated header (see
    :func:`open_bundle`); each tensor is read from disk only when asked for.

    :meth:`read` uses positioned reads on one shared file descriptor, so pool
    threads may read concurrently. Close the bundle, or use it as a context
    manager, once every read is done.
    """

    def __init__(self, path, fd: int, records: dict, metadata: dict[str, str]):
        self.path = path
        self.metadata = metadata
        self._fd = fd
        self._records = records  # name -> (dtype, shape, file offset, nbytes)

    def names(self) -> list[str]:
        return list(self._records)

    def shape(self, name: str) -> tuple[int, ...]:
        return self._records[name][1]

    def read(self, name: str) -> np.ndarray:
        """Read one tensor into a fresh array of its own and check that every
        entry is finite."""
        dtype, shape, start, nbytes = self._records[name]
        arr = np.empty(shape, dtype=dtype)
        try:
            got = _read_at(self._fd, arr.reshape(-1).view(np.uint8), start)
        except OSError as exc:
            raise IoFailure(f"cannot read bundle from {self.path}: {exc}") from exc
        if got != nbytes:
            raise IoFailure(f"{self.path}: tensor {name!r} ends past the end of the file")
        try:
            _require_finite(name, arr)
        except NonFiniteValue as exc:
            raise NonFiniteValue(f"{self.path}: {exc}") from None
        return arr.astype(dtype.newbyteorder("="), copy=False)

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def __enter__(self) -> "BundleFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_bundle(path) -> BundleFile:
    """Open a bundle file written by :func:`write_bundle` and validate its
    header: magic, version, header length, JSON, and each tensor's name,
    dtype, shape, byte count, alignment and range, with no two spans
    overlapping. No tensor data is read; :meth:`BundleFile.read` reads it.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError as exc:
        raise IoFailure(f"cannot read bundle from {path}: {exc}") from exc
    try:
        records, metadata = _read_header(path, fd)
    except BaseException:
        os.close(fd)
        raise
    return BundleFile(path, fd, records, metadata)


def _read_header(path, fd: int) -> tuple[dict, dict[str, str]]:
    try:
        fixed = bytearray(16)
        got = _read_at(fd, fixed, 0)
        if got < 4 or fixed[:4] != MAGIC:
            raise BadMagic(f"{path}: not a bundle file (bad magic)")
        if got < 16:
            raise CorruptHeader(f"{path}: truncated fixed header")
        (version,) = struct.unpack_from("<I", fixed, 4)
        if version != VERSION:
            raise UnsupportedVersion(f"{path}: format version {version} (expected {VERSION})")
        (header_len,) = struct.unpack_from("<Q", fixed, 8)
        size = os.fstat(fd).st_size
        if 16 + header_len > size:
            raise CorruptHeader(f"{path}: header length {header_len} exceeds file size")
        header_bytes = bytearray(header_len)
        _read_at(fd, header_bytes, 16)
    except OSError as exc:
        raise IoFailure(f"cannot read bundle from {path}: {exc}") from exc

    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptHeader(f"{path}: header is not valid JSON ({exc})") from exc

    if not isinstance(header, dict) or not isinstance(header.get("tensors"), list):
        raise CorruptHeader(f"{path}: header must be an object with a 'tensors' list")
    metadata = header.get("metadata", {})
    if not isinstance(metadata, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()
    ):
        raise CorruptHeader(f"{path}: metadata must map strings to strings")

    data_start = 16 + header_len
    region_len = size - data_start
    records = {}
    spans = []
    for rec in header["tensors"]:
        if not isinstance(rec, dict):
            raise CorruptHeader(f"{path}: tensor record is not an object")
        name = rec.get("name")
        if not isinstance(name, str) or not name:
            raise CorruptHeader(f"{path}: tensor record with missing or empty name")
        if name in records:
            raise CorruptHeader(f"{path}: duplicate tensor name {name!r}")
        if rec.get("dtype") not in _DTYPE_FROM_NAME:
            raise CorruptHeader(f"{path}: tensor {name!r} has unknown dtype {rec.get('dtype')!r}")
        dtype = _DTYPE_FROM_NAME[rec["dtype"]]
        shape = rec.get("shape")
        # type() rather than isinstance(): JSON true/false load as bool, an int.
        if (
            not isinstance(shape, list)
            or not shape
            or len(shape) > 2
            or not all(type(s) is int and s > 0 for s in shape)
        ):
            raise CorruptHeader(f"{path}: tensor {name!r} has invalid shape {shape!r}")
        offset, nbytes = rec.get("offset"), rec.get("nbytes")
        if type(offset) is not int or type(nbytes) is not int or offset % ALIGN != 0:
            raise CorruptHeader(f"{path}: tensor {name!r} has invalid offset/nbytes")
        expected = int(np.prod(shape)) * dtype.itemsize
        if nbytes != expected:
            raise CorruptHeader(
                f"{path}: tensor {name!r} declares {nbytes} bytes, shape implies {expected}"
            )
        if offset < 0 or offset + nbytes > region_len:
            raise OffsetOutOfRange(
                f"{path}: tensor {name!r} spans [{offset}, {offset + nbytes}) "
                f"outside the {region_len}-byte data region"
            )
        records[name] = (dtype, tuple(shape), data_start + offset, nbytes)
        spans.append((offset, offset + nbytes, name))

    spans.sort()
    for (_, end, first), (start, _, second) in zip(spans, spans[1:]):
        if start < end:
            raise CorruptHeader(f"{path}: tensors {first!r} and {second!r} overlap")
    return records, metadata


def read_bundle(path) -> TensorBundle:
    """Read and validate a whole bundle file: :func:`open_bundle`, then
    :meth:`BundleFile.read` of every tensor.

    Each tensor gets a fresh, aligned array of its own, so a bundle holds
    its file size in memory and no two tensors share memory.
    """
    with open_bundle(path) as source:
        bundle = TensorBundle(metadata=source.metadata)
        for name in source.names():
            # read() has made every check that add() would repeat.
            bundle._entries[name] = source.read(name)
    return bundle


@dataclass
class DeltaSet:
    """One layer's N task weight deltas, held as one N x m x n float64 stack.

    ``deltas`` may be given as a list of m x n matrices, which is stacked
    once, or as an N x m x n float64 array, which is taken as it is: a
    task-major array, or a view of a buffer in another axis order (see
    :func:`layer_delta_set`). All merging arithmetic happens in float64,
    whatever the stored checkpoint dtype.

    A merge never changes a caller's stack. The one exception is a stack
    marked ``_owned`` by the code that built it for a single merge
    (:func:`drm.engine.merge_bundle_with_stats`), which the merge consumes:
    TIES and DARE-TIES overwrite it in place, and drm-h/drm-v drop it
    (``deltas`` becomes None) once the SVD input exists.
    """

    layer_name: str
    base_shape: tuple[int, int]
    deltas: np.ndarray
    task_names: list[str]

    # A class attribute, not a field: the constructor stays as it is.
    _owned = False

    def __post_init__(self):
        if len(self.deltas) < 1:
            raise ValueError("a DeltaSet needs at least one task delta")
        if len(self.task_names) != len(self.deltas):
            raise ValueError("task_names and deltas must have equal length")
        if len(set(self.task_names)) != len(self.task_names):
            raise ValueError("task names must be unique")
        self.base_shape = (int(self.base_shape[0]), int(self.base_shape[1]))
        # Checked before stacking: a ragged list fails inside numpy, naming no layer.
        for delta in self.deltas:
            if np.shape(delta) != self.base_shape:
                raise ShapeMismatch(
                    f"layer {self.layer_name!r}: a delta has shape {np.shape(delta)}, "
                    f"expected {self.base_shape}"
                )
        self.deltas = np.asarray(self.deltas, dtype=np.float64)

    @property
    def n_tasks(self) -> int:
        return self.deltas.shape[0]

    def side_by_side(self) -> np.ndarray:
        """The m x N*n matrix ``[delta_0 ... delta_{N-1}]`` that the joint
        SVD factors. It is a view where the stack's buffer allows one: a
        C-ordered view of an m x N x n buffer (``layer_delta_set`` order
        ``"itj"``), an F-ordered one of an N x n x m buffer (``"tji"``, or
        the :meth:`transposed` view of a task-major stack); otherwise, as
        for a task-major stack, a C-ordered copy."""
        m, n = self.base_shape
        return self.deltas.transpose(1, 0, 2).reshape(m, self.n_tasks * n)

    def transposed(self) -> "DeltaSet":
        """Same layer with every delta transposed (rows and columns swapped);
        the stack is a view of this one's."""
        m, n = self.base_shape
        return DeltaSet(
            self.layer_name, (n, m), self.deltas.transpose(0, 2, 1), list(self.task_names)
        )


def check_aligned(
    base: TensorBundle | BundleFile,
    tasks: list[TensorBundle | BundleFile],
    task_names: list[str] | None = None,
) -> list[str]:
    """Check that every task bundle carries exactly the base bundle's tensor
    names and shapes, without reading any tensor data; return the task
    names (``task0``, ... by default)."""
    if not tasks:
        raise ValueError("need at least one task bundle")
    if task_names is None:
        task_names = [f"task{i}" for i in range(len(tasks))]
    if len(task_names) != len(tasks):
        raise ValueError("task_names and tasks must have equal length")

    base_names = set(base.names())
    for tname, task in zip(task_names, tasks):
        for missing in base_names - set(task.names()):
            raise MissingTensor(f"task {tname!r} is missing tensor {missing!r}")
        for extra in set(task.names()) - base_names:
            raise ExtraTensor(f"task {tname!r} has unexpected tensor {extra!r}")
        for name in base.names():
            if task.shape(name) != base.shape(name):
                raise ShapeMismatch(
                    f"tensor {name!r}: task {tname!r} shape {task.shape(name)} "
                    f"!= base shape {base.shape(name)}"
                )
    return list(task_names)


# Rows of a task delta are subtracted into a float64 tile of about this many
# bytes before a transposing buffer takes them, so that the tile stays in
# cache while it is written out column by column.
_TILE_BYTES = 1 << 19


def layer_delta_set(
    name: str,
    base: np.ndarray,
    tasks: list[TensorBundle | BundleFile],
    task_names: list[str],
    order: str = "tij",
) -> DeltaSet:
    """One rank-2 tensor's task - base deltas as one float64 stack, given the
    base bundle's tensor ``name``, for bundles that passed
    :func:`check_aligned`. Each task tensor is read here and dropped once
    its slice of the stack is filled, so a caller going layer by layer
    holds one layer's float64 data at a time.

    ``order`` lays out the buffer the stack is a view of: its axes in
    memory order, named t (task), i (row) and j (column) of the N x m x n
    stack. ``"tij"`` is task-major; ``"itj"`` makes
    :meth:`DeltaSet.side_by_side` a C-ordered view, and ``"jti"`` makes it
    one for the :meth:`DeltaSet.transposed` set. Where a delta's rows are
    not contiguous in the buffer (an order not ending in j), each delta is
    written through a cache-sized row tile. The values never depend on
    ``order``.
    """
    if sorted(order) != ["i", "j", "t"]:
        raise ValueError(f"order must be a permutation of 'tij', got {order!r}")
    extent = dict(zip("tij", (len(tasks), *base.shape)))
    buffer = np.empty([extent[axis] for axis in order])
    stack = buffer.transpose([order.index(axis) for axis in "tij"])
    for task, out in zip(tasks, stack):
        _subtract_into(task.read(name), base, out)
    return DeltaSet(name, base.shape, stack, list(task_names))


def _subtract_into(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """``out[...] = a - b`` in float64 for m x n matrices, through a
    cache-sized row tile where ``out``'s rows are not contiguous."""
    if out.strides[1] == out.itemsize:
        np.subtract(a, b, out=out, dtype=np.float64)
        return
    rows = max(1, _TILE_BYTES // (out.itemsize * out.shape[1]))
    tile = np.empty((rows, out.shape[1]))
    for start in range(0, out.shape[0], rows):
        stop = min(start + rows, out.shape[0])
        part = tile[: stop - start]
        np.subtract(a[start:stop], b[start:stop], out=part, dtype=np.float64)
        out[start:stop] = part


def extract_deltas(
    base: TensorBundle | BundleFile,
    tasks: list[TensorBundle | BundleFile],
    task_names: list[str] | None = None,
) -> Iterator[DeltaSet]:
    """One :class:`DeltaSet` of task - base deltas per rank-2 tensor of
    aligned bundles, in base-bundle order, each built only when the
    iterator reaches it, so a caller that drops each layer before taking
    the next holds one layer's float64 data at a time. Names and shapes are
    checked here, at the call (see :func:`check_aligned`); a bad tensor
    value surfaces when its layer is read. Rank-1 tensors are not read;
    :func:`drm.engine.merge_bundle` averages them itself.
    """
    task_names = check_aligned(base, tasks, task_names)
    return (
        layer_delta_set(name, base.read(name), tasks, task_names)
        for name in base.names()
        if len(base.shape(name)) == 2
    )


def materialize_low_rank(down: np.ndarray, up: np.ndarray, scale: float) -> np.ndarray:
    """Densify an adapter pair: ``scale * up @ down`` with shape (m, n).

    ``down`` is r x n, ``up`` is m x r; the result is the dense delta the
    adapter contributes, ready for :class:`DeltaSet` construction.
    """
    down = np.asarray(down, dtype=np.float64)
    up = np.asarray(up, dtype=np.float64)
    if down.ndim != 2 or up.ndim != 2 or up.shape[1] != down.shape[0]:
        raise ShapeMismatch(
            f"inner dimensions disagree: up is {up.shape}, down is {down.shape}"
        )
    return float(scale) * (up @ down)
