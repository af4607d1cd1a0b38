"""Length-prefixed JSON wire codec for the socket runtime.

Every message on a socket is one *frame*: a 4-byte big-endian length
followed by that many bytes of UTF-8 JSON encoding a single object with a
``"type"`` discriminator.  The payloads mirror the simulator's in-memory
values — a framed ``act`` carries exactly the information of a
:class:`repro.sim.network.Envelope` (a stringly envelope key, the
:class:`~repro.core.actions.Action`, and the attempt ordinal) so that the
fault proxy can enact a :class:`~repro.sim.faults.FaultPlan` on real
sockets with the simulator's semantics.

Frame vocabulary (node ⇄ proxy):

========== ========= ====================================================
type       direction payload
========== ========= ====================================================
hello      node → px ``party``, ``pid``, ``resumed``
welcome    px → node ``epoch`` (wall seconds), ``time_scale``
act        both      ``key``, ``action``, ``attempt`` (offer / delivery)
got        node → px ``key`` — the node durably processed this delivery
ack        px → node ``key`` — delivered; stop retransmitting
abandon    node → px ``key`` — retries exhausted; custody returned
report     node → px after every handled frame: ``handled`` (proxy frames
                     handled on this connection), phase, armed, pending, …
shutdown   px → node the run is over; close cleanly
========== ========= ====================================================

Encoding is canonical (sorted keys, compact separators) so identical
values produce identical bytes — the WAL golden tests rely on it.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any

from repro.core.actions import Action, ActionKind
from repro.core.items import Document, Item, Money
from repro.core.parties import Party, Role
from repro.errors import ModelError, ReproError


class WireError(ReproError):
    """A malformed frame or an unserializable value."""


#: Upper bound on a single frame; an exchange action is a few hundred bytes,
#: so anything near this is corruption, not data.
MAX_FRAME_BYTES = 1 << 20

_LENGTH = struct.Struct(">I")


# ------------------------------------------------------------- value codecs


def party_to_json(party: Party) -> dict[str, Any]:
    return {"name": party.name, "role": party.role.value}


def party_from_json(data: dict[str, Any]) -> Party:
    try:
        return Party(data["name"], Role(data["role"]))
    except (KeyError, ValueError, TypeError, ModelError) as exc:
        raise WireError(f"bad party payload {data!r}") from exc


def item_to_json(item: Item | None) -> dict[str, Any] | None:
    if item is None:
        return None
    if isinstance(item, Money):
        return {"kind": "money", "label": item.label, "cents": item.cents}
    return {"kind": "document", "label": item.label}


def item_from_json(data: dict[str, Any] | None) -> Item | None:
    if data is None:
        return None
    try:
        if data["kind"] == "money":
            return Money(data["label"], data["cents"])
        if data["kind"] == "document":
            return Document(data["label"])
    except (KeyError, TypeError, ModelError) as exc:
        raise WireError(f"bad item payload {data!r}") from exc
    raise WireError(f"unknown item kind in {data!r}")


def action_to_json(action: Action) -> dict[str, Any]:
    return {
        "kind": action.kind.value,
        "sender": party_to_json(action.sender),
        "recipient": party_to_json(action.recipient),
        "item": item_to_json(action.item),
        "inverted": action.inverted,
        "deadline": action.deadline,
    }


def action_from_json(data: dict[str, Any]) -> Action:
    try:
        return Action(
            kind=ActionKind(data["kind"]),
            sender=party_from_json(data["sender"]),
            recipient=party_from_json(data["recipient"]),
            item=item_from_json(data.get("item")),
            inverted=bool(data.get("inverted", False)),
            deadline=data.get("deadline"),
        )
    except WireError:
        raise
    except (KeyError, ValueError, TypeError, ModelError) as exc:
        raise WireError(f"bad action payload {data!r}") from exc


# ------------------------------------------------------------- frame codecs


def encode_json(obj: dict[str, Any]) -> bytes:
    """Canonical JSON bytes (sorted keys, compact) for *obj*."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def encode_frame(obj: dict[str, Any]) -> bytes:
    payload = encode_json(obj)
    if len(payload) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LENGTH.pack(len(payload)) + payload


def decode_frame(payload: bytes) -> dict[str, Any]:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError("undecodable frame payload") from exc
    if not isinstance(obj, dict) or "type" not in obj:
        raise WireError(f"frame payload is not a typed object: {obj!r}")
    return obj


async def read_frame(reader: asyncio.StreamReader) -> dict[str, Any] | None:
    """Read one frame; ``None`` on a clean EOF at a frame boundary."""
    try:
        header = await reader.readexactly(_LENGTH.size)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"incoming frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    try:
        payload = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None  # connection died mid-frame; treat as EOF
    return decode_frame(payload)


def write_frame(writer: asyncio.StreamWriter, obj: dict[str, Any]) -> None:
    """Queue one frame on *writer* (flushing is the event loop's job)."""
    writer.write(encode_frame(obj))
