"""Durable on-disk job queue storage: append-only journal + state snapshots.

The service's single source of truth is an **append-only JSONL journal**
(``journal.jsonl``): every queue transition — submit, shed, dedup, start,
done, fail, interrupt, quarantine, drain — is appended as one canonical
JSON line *before* the in-memory state is updated, and the in-memory state
is only ever mutated by replaying that same record through
:meth:`~repro.serve.queue.QueueState.apply`.  A SIGKILL at any instant
therefore loses at most work, never bookkeeping: the restarted service
rebuilds the exact queue by replaying the journal, re-queues the jobs that
were mid-flight (their campaign-level checkpoints make the re-run
byte-identical — ``docs/RESILIENCE.md``), and continues.

Because replaying a long journal from byte 0 gets slower as the service
lives on, the service periodically writes an **atomic state snapshot**
(``state.json``, written and verified through :mod:`repro.durable`,
sha256-checksummed exactly like the campaign checkpoints).  The snapshot
records the journal byte offset it covers; recovery loads the snapshot,
verifies its checksum, and replays only the journal tail after that
offset.  A snapshot that does not verify is quarantined (``quarantine/``
— evidence preserved, same policy as corrupt caches and checkpoints) and
recovery falls back to a full journal replay, which is always sufficient.

The journal is :mod:`repro.durable`'s append-only log, the one the
campaign trial logs share (:class:`~repro.durable.AppendLog`,
:func:`~repro.durable.read_log`).  Torn tails are expected, not errors: a
SIGKILL mid-append leaves a partial last line, which replay ignores (the
transition it described never happened, by definition — the reducer had
not run yet) and which the restarted service's writer truncates away
before its first append, so a post-crash record is never glued onto the
torn bytes and a later full-journal replay sees every record that was ever
applied.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from .. import durable
from ..faultinjection.resilience import ResilienceLogger
from .queue import QueueState

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "load_state_snapshot",
    "read_journal",
    "replay_queue",
    "save_state_snapshot",
]

#: bump on any change to journal record or snapshot layout
JOURNAL_SCHEMA_VERSION = 1


def read_journal(path, offset: int = 0) -> Tuple[List[Dict], int]:
    """Records from ``offset`` to the end, plus the clean end offset.

    The clean end leaves out a torn final line, so a subsequent snapshot
    never claims to cover bytes it did not parse; garbled lines are
    skipped rather than failing recovery over one bad byte.  A journal not
    written yet has no records.
    """
    try:
        records, _, end = durable.read_log(path, offset)
    except FileNotFoundError:
        return [], offset
    return records, end


def replay_queue(state_path, journal_path) -> QueueState:
    """The queue as the journal left it: the state snapshot, if one
    verifies, plus the journal tail after the offset it covers."""
    state = QueueState()
    offset = 0
    loaded = load_state_snapshot(state_path)
    if loaded is not None:
        state_doc, offset = loaded
        state = QueueState.from_doc(state_doc)
    for record in read_journal(journal_path, offset)[0]:
        state.apply(record)
    return state


# ---------------------------------------------------------------------------
# state snapshots
# ---------------------------------------------------------------------------


def save_state_snapshot(path, state_doc: Dict, journal_offset: int) -> None:
    """Atomically persist the queue state + the journal offset it covers."""
    payload = {
        "v": JOURNAL_SCHEMA_VERSION,
        "journal_offset": journal_offset,
        "state": state_doc,
    }
    payload["sha256"] = durable.canonical_sha256(payload)
    durable.write_json_atomic(path, payload)


def _verified_snapshot(payload: Dict) -> Tuple[Dict, int]:
    """``(state_doc, journal_offset)`` with checksum and schema verified."""
    stored = payload.pop("sha256")
    if durable.canonical_sha256(payload) != stored:
        raise ValueError("state snapshot checksum mismatch")
    if payload.get("v") != JOURNAL_SCHEMA_VERSION:
        raise ValueError("unknown state snapshot schema")
    return payload["state"], int(payload["journal_offset"])


def load_state_snapshot(
    path, logger: Optional[ResilienceLogger] = None
) -> Optional[Tuple[Dict, int]]:
    """Load + verify a snapshot → ``(state_doc, journal_offset)`` or None.

    None means "replay the whole journal": the file is absent, or it failed
    verification and was quarantined.  Recovery is never blocked on a bad
    snapshot — the journal is the source of truth.
    """
    path = os.fspath(path)
    return durable.load_verified(
        path, _verified_snapshot, logger or ResilienceLogger(),
        "service_state_corrupt",
        note=f"corrupt service state snapshot quarantined: {path}",
    )
