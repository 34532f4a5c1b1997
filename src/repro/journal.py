"""Append-only JSONL journals: the one append/scan/truncate primitive.

The session journal, the serving daemon's request log and its state
journal are :class:`Journal` subclasses.  Each record is one line of
canonical JSON carrying ``seq``, flushed (and fsynced when durable)
before the writer proceeds, so a SIGKILL loses at most the line being
written; :meth:`Journal.open` cuts a torn tail back to the valid
prefix, and a write failure (disk full) disarms the journal instead of
taking its writer down.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from pathlib import Path

from . import faultinject
from .cache.atomic import fsync_dir

__all__ = ["Journal", "canonical", "digest"]


def canonical(obj) -> str:
    """Canonical JSON: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    """16-hex sha256 of ``canonical(obj)``."""
    return hashlib.sha256(canonical(obj).encode()).hexdigest()[:16]


class Journal:
    """Append-only JSONL journal of one directory.

    Subclasses name the file (``name``), the fault-injection site fired
    before each append (``site``) and the ``RuntimeWarning`` text raised
    when a write fails (``failure``, formatted with the error); they may
    override the :meth:`_seal` / :meth:`_verify` pair to stamp and check
    a per-record integrity field.
    """

    name: str
    site: str
    failure: str
    durable = True

    def __init__(self, directory):
        self.dir = Path(directory)
        self.path = self.dir / self.name
        self._fh = None
        self.seq = 0
        self.disabled = False
        self.write_failures = 0

    @staticmethod
    def _seal(record: dict) -> dict:
        return record

    @staticmethod
    def _verify(record: dict) -> bool:
        return True

    @classmethod
    def scan(cls, path) -> tuple[list[dict], int]:
        """Parse a journal; returns ``(records, valid_byte_length)``.

        Stops at the first torn line (no trailing newline), unparsable
        line, non-object line or record failing :meth:`_verify` —
        everything before it was written before the next record was, so
        the valid prefix is the exact state at the moment of a crash.
        """
        try:
            blob = Path(path).read_bytes()
        except OSError:
            return [], 0
        records: list[dict] = []
        valid = 0
        for raw in blob.splitlines(keepends=True):
            if not raw.endswith(b"\n"):
                break  # torn tail from a killed writer
            try:
                rec = json.loads(raw)
            except ValueError:
                break
            if not isinstance(rec, dict) or not cls._verify(rec):
                break
            records.append(rec)
            valid += len(raw)
        return records, valid

    def open(self, *, truncate_to: int | None = None, seq: int = 0) -> None:
        """Open for appending from byte ``truncate_to`` at sequence ``seq``.

        Without ``truncate_to`` an existing file is scanned, cut back to
        its valid prefix, and the sequence continues after its last
        valid record.
        """
        if truncate_to is None:
            records, truncate_to = self.scan(self.path)
            if records:
                seq = records[-1].get("seq", len(records) - 1) + 1
        self.dir.mkdir(parents=True, exist_ok=True)
        fh = open(self.path, "ab")
        fh.truncate(truncate_to)
        self._fh = fh
        self.seq = seq
        fsync_dir(self.dir)

    def append(self, record: dict) -> bool:
        """Append one record; False when journaling is degraded."""
        if self.disabled or self._fh is None:
            return False
        record = {"seq": self.seq, **record}
        try:
            faultinject.fire(self.site, type=record.get("type", ""), seq=self.seq)
            self._fh.write((canonical(self._seal(record)) + "\n").encode())
            self._fh.flush()
            if self.durable:
                os.fsync(self._fh.fileno())
        except OSError as e:
            self.disabled = True
            self.write_failures += 1
            warnings.warn(self.failure.format(e), RuntimeWarning, stacklevel=2)
            return False
        self.seq += 1
        return True

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:  # pragma: no cover
                pass
            self._fh = None
