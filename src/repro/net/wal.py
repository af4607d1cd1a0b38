"""Per-node append-only JSONL write-ahead log with crash-recovery replay.

Discipline (the whole point, so it is spelled out):

* **log-then-send** — a node appends a ``send`` record *before* the act
  frame reaches the socket, and a ``recv`` record before the party's
  driver acts on a delivery.  A SIGKILL between the append and the
  side effect therefore loses at most the side effect, never the record
  of intent — replay regenerates the side effect.
* **dedup by envelope key** — ``recv`` keys replayed into the driver are
  remembered, so a redelivered copy after restart is suppressed exactly
  like a duplicate envelope in the simulator.
* **truncated tails are expected** — a record is complete only with its
  newline, and a crash can cut the final line anywhere.  :func:`replay`
  drops the bytes after the last newline; a reopened log cuts them before
  its first append, so the next record never glues onto a torn one.  An
  undecodable complete line is corruption and raises.

Records are canonical JSON objects (sorted keys) with a ``"rec"``
discriminator.  The vocabulary (``endow``, ``send``, ``recv``, ``ack``,
``abandon``, ``armed``, ``deadline``) is the party driver's log
(:mod:`repro.sim.driver`); :func:`repro.net.node.record_to_json` writes
each record as JSON.
"""

from __future__ import annotations

import json
import os
from typing import Any

from repro.errors import NetRuntimeError
from repro.net.wire import encode_json


class WriteAheadLog:
    """An append-only JSONL file, flushed to the OS after every record.

    The crash model is a SIGKILL of the *process* (the host and OS
    survive), so ``flush()`` — not ``fsync`` — is the durability boundary
    that matters: once the bytes reach the kernel they outlive the node.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._fh = open(path, "ab")
        end = self._fh.tell()
        if end:
            # Cut a torn tail: the bytes after the last newline.
            with open(path, "rb") as fh:
                complete = fh.read().rfind(b"\n") + 1
            if complete < end:
                self._fh.truncate(complete)

    def append(self, record: dict[str, Any]) -> None:
        if "rec" not in record:
            raise NetRuntimeError(f"WAL record lacks a 'rec' discriminator: {record!r}")
        self._fh.write(encode_json(record) + b"\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def replay(path: str) -> list[dict[str, Any]]:
    """Parse the records of the WAL at *path*, tolerating a truncated tail.

    Returns ``[]`` for a missing or empty file.  The bytes after the last
    newline are a torn tail, a crash artifact, and are dropped even if they
    parse.  Raises :class:`NetRuntimeError` on a complete line that is not
    a record.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        return []
    lines = raw.split(b"\n")
    lines.pop()  # the torn tail; empty when the last record was fully written
    records: list[dict[str, Any]] = []
    offset = 0  # byte offset of the current record within the file
    for index, line in enumerate(lines):
        try:
            record = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise NetRuntimeError(
                f"corrupt WAL record at {path}:{index + 1} "
                f"(record {index} of {len(lines)}, byte offset {offset}): "
                f"{line[:80]!r}"
            ) from exc
        if not isinstance(record, dict) or "rec" not in record:
            raise NetRuntimeError(
                f"WAL line {index + 1} of {path} "
                f"(record {index} of {len(lines)}, byte offset {offset}) "
                "is not a record"
            )
        records.append(record)
        offset += len(line) + 1  # the newline the writer appended
    return records
