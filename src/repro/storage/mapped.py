"""Memory-mapped CSR directory format.

One mapped graph is a directory::

    <name>.csrdir/
        manifest.json      {"format": 1, "name", "n", "m_directed"}
        xadj.bin           int64[n + 1]
        adjncy.bin         int64[2m]
        ewgts.bin          float64[2m]
        vwgts.bin          float64[n]

:func:`open_mapped` returns an ordinary :class:`~repro.csr.graph.CSRGraph`
whose arrays are read-only ``np.memmap`` views — zero-copy, because
:func:`repro.types.vi_array` passes a contiguous correctly-typed memmap
through untouched (the view's ``.base`` chain keeps the mapping alive).
The open handles are additionally stashed on the instance (mirroring the
``_shm`` pattern of :meth:`CSRGraph.from_shared`) so
:func:`advise_dontneed` can drop resident pages mid-stream.

:class:`MappedWriter` builds a mapped graph incrementally, row block by
row block, maintaining the running row pointer — the tier generator
appends one base-scale shard at a time and never holds the full edge
list.
"""

from __future__ import annotations

import json
import mmap
from pathlib import Path

import numpy as np

from ..csr.graph import CSRGraph
from ..types import VI, WT

__all__ = [
    "MAPPED_EXT",
    "MANIFEST_NAME",
    "MappedWriter",
    "advise_dontneed",
    "is_mapped",
    "mapped_nbytes",
    "open_mapped",
    "write_mapped",
]

MAPPED_EXT = ".csrdir"
MANIFEST_NAME = "manifest.json"
MAPPED_FORMAT = 1

#: (field, dtype, basename) in manifest order
_FIELDS = (
    ("xadj", VI, "xadj.bin"),
    ("adjncy", VI, "adjncy.bin"),
    ("ewgts", WT, "ewgts.bin"),
    ("vwgts", WT, "vwgts.bin"),
)

#: bytes written per flush while streaming an array out
_WRITE_CHUNK = 1 << 22


class MappedFormatError(ValueError):
    """A ``.csrdir`` directory is structurally unsound."""


def _expected_counts(n: int, m_directed: int) -> dict[str, int]:
    return {"xadj": n + 1, "adjncy": m_directed, "ewgts": m_directed, "vwgts": n}


def write_mapped(g: CSRGraph, path) -> Path:
    """Serialise ``g`` into a mapped directory at ``path`` (created)."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    for field, dtype, basename in _FIELDS:
        arr = np.ascontiguousarray(getattr(g, field), dtype=dtype)
        with open(path / basename, "wb") as f:
            # stream in bounded chunks: g may itself be mapped and larger
            # than the resident budget
            step = max(1, _WRITE_CHUNK // arr.itemsize)
            for i in range(0, len(arr), step):
                f.write(np.asarray(arr[i : i + step]).tobytes())
    _write_manifest(path, g.name, g.n, g.m_directed)
    return path


def _write_manifest(path: Path, name: str, n: int, m_directed: int) -> None:
    manifest = {
        "format": MAPPED_FORMAT,
        "name": name,
        "n": int(n),
        "m_directed": int(m_directed),
    }
    # deterministic bytes: tier artifacts are compared bit-for-bit
    (path / MANIFEST_NAME).write_text(json.dumps(manifest, sort_keys=True))


def open_mapped(path, name: str | None = None) -> CSRGraph:
    """Open a mapped directory as a read-only, zero-copy :class:`CSRGraph`."""
    path = Path(path)
    try:
        manifest = json.loads((path / MANIFEST_NAME).read_text())
    except (OSError, ValueError) as e:
        raise MappedFormatError(f"unreadable manifest in {path}: {e}") from e
    if manifest.get("format") != MAPPED_FORMAT:
        raise MappedFormatError(
            f"unsupported mapped format {manifest.get('format')!r} in {path}"
        )
    counts = _expected_counts(int(manifest["n"]), int(manifest["m_directed"]))
    arrays: dict[str, np.ndarray] = {}
    for field, dtype, basename in _FIELDS:
        f = path / basename
        count = counts[field]
        if not f.is_file():
            raise MappedFormatError(f"missing array file {f}")
        if f.stat().st_size != count * np.dtype(dtype).itemsize:
            raise MappedFormatError(
                f"{f} has {f.stat().st_size} bytes, expected "
                f"{count * np.dtype(dtype).itemsize}"
            )
        if count == 0:  # np.memmap refuses zero-length files
            arrays[field] = np.zeros(0, dtype=dtype)
        else:
            arrays[field] = np.memmap(f, dtype=dtype, mode="r", shape=(count,))
    g = CSRGraph(
        arrays["xadj"],
        arrays["adjncy"],
        arrays["ewgts"],
        arrays["vwgts"],
        name if name is not None else manifest.get("name", ""),
    )
    object.__setattr__(g, "_mapped", {"path": str(path), "arrays": arrays})
    return g


def is_mapped(g) -> bool:
    """True when ``g`` was opened by :func:`open_mapped`."""
    return getattr(g, "_mapped", None) is not None


def mapped_nbytes(g) -> int:
    """Total on-disk bytes behind a mapped graph's arrays."""
    info = getattr(g, "_mapped", None)
    if info is None:
        return 0
    return sum(a.nbytes for a in info["arrays"].values())


def advise_dontneed(g) -> None:
    """Drop resident pages of a mapped graph's arrays (keeps RSS bounded).

    ``ru_maxrss`` is a high-water mark that counts resident *mapped file*
    pages, so the row-window plan calls this between budget windows;
    clean pages refault cheaply from the page cache.  No-op for
    non-mapped graphs and on platforms without ``mmap.madvise``.
    """
    info = getattr(g, "_mapped", None)
    if info is None or not hasattr(mmap.mmap, "madvise"):
        return
    for arr in info["arrays"].values():
        mm = getattr(arr, "_mmap", None)
        if mm is not None:
            try:
                mm.madvise(mmap.MADV_DONTNEED)
            except OSError:  # pragma: no cover - advisory only
                pass


class MappedWriter:
    """Incremental writer for the mapped directory format.

    Rows are appended in vertex order via :meth:`append_rows`; the writer
    maintains the running row pointer so callers only supply per-row
    neighbour counts plus the concatenated adjacency/weight entries.
    ``close()`` finalises the manifest; on an exception the caller
    discards the partial directory (the cache builds into a temp dir and
    renames only on success).
    """

    def __init__(self, path, name: str = ""):
        self.path = Path(path)
        self.name = name
        self.path.mkdir(parents=True, exist_ok=True)
        self._files = {
            field: open(self.path / basename, "wb")
            for field, _dtype, basename in _FIELDS
        }
        self._edges = 0
        self._rows = 0
        self._closed = False
        # xadj[0] == 0 goes out immediately; every append extends it
        self._files["xadj"].write(np.zeros(1, dtype=VI).tobytes())

    def append_rows(
        self,
        counts: np.ndarray,
        adjncy: np.ndarray,
        ewgts: np.ndarray,
        vwgts: np.ndarray,
    ) -> None:
        """Append ``len(counts)`` complete rows.

        ``adjncy``/``ewgts`` hold the concatenated entries of those rows
        (``counts.sum()`` of them), ``vwgts`` one weight per row.
        """
        counts = np.asarray(counts, dtype=VI)
        if counts.sum() != len(adjncy) or len(adjncy) != len(ewgts):
            raise ValueError("row counts disagree with entry array lengths")
        if len(counts) != len(vwgts):
            raise ValueError("one vertex weight per appended row required")
        xadj_chunk = self._edges + np.cumsum(counts, dtype=VI)
        self._files["xadj"].write(xadj_chunk.tobytes())
        self._files["adjncy"].write(np.ascontiguousarray(adjncy, dtype=VI).tobytes())
        self._files["ewgts"].write(np.ascontiguousarray(ewgts, dtype=WT).tobytes())
        self._files["vwgts"].write(np.ascontiguousarray(vwgts, dtype=WT).tobytes())
        self._rows += len(counts)
        if len(counts):
            self._edges = int(xadj_chunk[-1])

    def close(self) -> Path:
        if self._closed:
            return self.path
        for f in self._files.values():
            f.close()
        _write_manifest(self.path, self.name, self._rows, self._edges)
        self._closed = True
        return self.path

    def abort(self) -> None:
        """Close file handles without finalising (partial dir stays invalid)."""
        if not self._closed:
            for f in self._files.values():
                f.close()
            self._closed = True

    def __enter__(self) -> "MappedWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()
