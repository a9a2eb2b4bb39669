"""Durable files: atomic JSON writes, checksums, verify-or-quarantine, and
append-only JSONL logs.

Every JSON document the program keeps on disk — cache entries, campaign
checkpoints, the service's state snapshot, job results and specs, and
heartbeats — is written by :func:`write_json_atomic`, so a reader sees
either the previous complete document or the new one, never a torn file.
Documents that carry an integrity digest use :func:`canonical_sha256`,
and the loaders that verify one go through :func:`load_verified`: a file
that fails to parse or verify is moved into a ``quarantine/`` directory
next to it (the evidence is kept), reported, and treated as absent.
Writes are not fsynced.

Append-only JSONL logs — the campaign trial log, its ``<log>.resilience``
sidecar and the service journal — are written by one writer,
:class:`AppendLog`, and read by one reader, :func:`read_log`.  Each record
is one canonical line (:func:`canonical_json`), flushed before the append
returns.  Opening a log heals it first (:func:`truncate_torn_tail`): a last
line with no newline, torn by a mid-write crash, is dropped, so the next
record never glues onto it.  The reader leaves that same torn line out of
its records and its end offset, and counts garbled lines rather than
failing on them.  A span trace takes :func:`append_bytes` instead.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "AppendLog",
    "append_bytes",
    "canonical_json",
    "canonical_sha256",
    "load_verified",
    "quarantine_file",
    "read_log",
    "truncate_torn_tail",
    "write_json_atomic",
]


def canonical_json(document: Any) -> str:
    """The canonical JSON encoding: sorted keys, no spaces, one line."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def canonical_sha256(document: Any) -> str:
    """sha256 of :func:`canonical_json`.

    Computed over parsed data, not file bytes, so the digest stored at write
    time equals the one recomputed from the parsed file iff the payload is
    undamaged.
    """
    return hashlib.sha256(canonical_json(document).encode()).hexdigest()


def write_json_atomic(path, document: Any) -> None:
    """Write ``document`` as JSON to ``path`` atomically.

    The JSON goes to a temp file in the same directory, which then replaces
    ``path`` (``os.replace``); on any failure the temp file is removed and
    the error propagates.  The temp name starts with a dot, so directory
    scans that skip dot-files never see it.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=f".{os.path.basename(path)}.", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def truncate_torn_tail(path) -> None:
    """Drop a partial (newline-less) final line left by a mid-append crash.

    Readers already discard the torn line, but reopening in append mode
    would glue the *next* record onto it, so the reader would discard that
    record too.  Truncating back to the last newline before the first new
    append keeps every complete record readable.  A missing file is left
    alone.
    """
    try:
        with open(path, "rb+") as fh:
            fh.seek(0, os.SEEK_END)
            end = fh.tell()
            if end == 0:
                return
            fh.seek(end - 1)
            if fh.read(1) == b"\n":
                return
            last_newline = -1
            pos = end
            chunk = 1 << 16
            while pos > 0 and last_newline < 0:
                start = max(0, pos - chunk)
                fh.seek(start)
                data = fh.read(pos - start)
                idx = data.rfind(b"\n")
                if idx >= 0:
                    last_newline = start + idx
                pos = start
            fh.truncate(last_newline + 1)
    except FileNotFoundError:
        return


class AppendLog:
    """Append-only JSONL writer: one canonical line per record.

    Opening creates the file (and its directory) or heals its torn last
    line (:func:`truncate_torn_tail`).  Each :meth:`append` is flushed
    before it returns, so a SIGKILL can tear at most the line being
    written.  ``offset`` is the end-of-log byte position: checkpoints and
    state snapshots store it to know where their coverage ends.
    """

    def __init__(self, path) -> None:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        truncate_torn_tail(path)
        self._fh = open(path, "ab")

    @property
    def offset(self) -> int:
        return self._fh.tell()

    def append(self, record: Dict) -> None:
        self._fh.write(canonical_json(record).encode() + b"\n")
        self._fh.flush()

    def rollback(self, offset: int) -> None:
        """Drop every byte past ``offset``; a log no longer than that (rotated
        or deleted since ``offset`` was taken) is left as it is."""
        if offset < self.offset:
            self._fh.truncate(offset)
            self._fh.seek(offset)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "AppendLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def append_bytes(path, data: bytes, fresh: bool = False) -> None:
    """Append ``data`` to ``path`` in one ``write`` to an ``O_APPEND``
    descriptor, so appends from several processes never split each other;
    ``fresh`` empties the file (creating it and its directory) first."""
    if fresh:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    flags = os.O_WRONLY | os.O_CREAT | os.O_APPEND
    fd = os.open(path, flags | (os.O_TRUNC if fresh else 0), 0o644)
    try:
        os.write(fd, data)
    finally:
        os.close(fd)


def read_log(path, offset: int = 0) -> Tuple[List[Dict], int, int]:
    """``(records, skipped, end)`` of the JSONL log at ``path`` from byte
    ``offset`` on.

    ``records`` are the lines that parse to JSON objects; ``skipped``
    counts the other non-blank lines (garbled or stray text), which never
    stop the read.  A last line with no newline is torn — its append never
    completed — so it is neither a record nor skipped, and ``end``, the
    offset just past the last complete line, does not cover it: the next
    :class:`AppendLog` drops it.  A missing file raises
    ``FileNotFoundError``.
    """
    records: List[Dict] = []
    skipped = 0
    end = offset
    with open(path, "rb") as fh:
        fh.seek(offset)
        for line in fh:
            if not line.endswith(b"\n"):
                break
            end += len(line)
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                skipped += 1
                continue
            if isinstance(record, dict):
                records.append(record)
            else:
                skipped += 1
    return records, skipped, end


def quarantine_file(path) -> Optional[str]:
    """Move a corrupt file into ``quarantine/`` next to it.

    Returns the destination path, or None when the move failed (the caller
    must still treat the file as unusable).  Existing quarantined files
    with the same name are suffixed ``.1``, ``.2``, ... rather than
    overwritten, so repeated corruption keeps all the evidence.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    qdir = os.path.join(directory, "quarantine")
    name = os.path.basename(path)
    try:
        os.makedirs(qdir, exist_ok=True)
        dest = os.path.join(qdir, name)
        suffix = 0
        while os.path.exists(dest):
            suffix += 1
            dest = os.path.join(qdir, f"{name}.{suffix}")
        os.replace(path, dest)
        return dest
    except OSError:
        return None


def load_verified(path, decode: Callable[[Any], Any], logger, kind: str,
                  note: str, **fields) -> Any:
    """``decode(document)`` of the JSON file at ``path``, or None.

    None when the file is absent.  When reading, parsing or ``decode``
    fails (``OSError``, ``ValueError``, ``KeyError``, ``TypeError`` — a
    checksum mismatch is a ``ValueError``), the file is quarantined,
    ``logger.emit(kind, note=note, path=..., quarantined_to=...,
    reason=..., **fields)`` reports it, and the result is None.
    """
    path = os.fspath(path)
    try:
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh)
        return decode(document)
    except FileNotFoundError:
        return None
    except (OSError, ValueError, KeyError, TypeError) as err:
        dest = quarantine_file(path)
        logger.emit(
            kind, note=note, path=path, quarantined_to=dest, reason=str(err),
            **fields,
        )
        return None
