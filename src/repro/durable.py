"""Durable JSON state files: atomic writes, checksums, verify-or-quarantine.

Every JSON document the program keeps on disk — cache entries, campaign
checkpoints, the service's state snapshot, job results and specs,
heartbeats and span traces — is written by :func:`write_json_atomic`, so a
reader sees either the previous complete document or the new one, never a
torn file.  Documents that carry an integrity digest use
:func:`canonical_sha256`, and the loaders that verify one go through
:func:`load_verified`: a file that fails to parse or verify is moved into a
``quarantine/`` directory next to it (the evidence is kept), reported, and
treated as absent.  Writes are not fsynced.

Append-only JSONL files (the service journal, plain obs logs and their
``<log>.resilience`` sidecars) are healed by :func:`truncate_torn_tail`
before each append, so a line torn by a mid-write crash never swallows the
next record.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Callable, Optional

__all__ = [
    "canonical_sha256",
    "load_verified",
    "quarantine_file",
    "truncate_torn_tail",
    "write_json_atomic",
]


def canonical_sha256(document: Any) -> str:
    """sha256 of the canonical JSON encoding (sorted keys, no spaces).

    Computed over parsed data, not file bytes, so the digest stored at write
    time equals the one recomputed from the parsed file iff the payload is
    undamaged.
    """
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


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
