"""Codec round-trips and golden frame bytes for the wire format."""

from __future__ import annotations

import struct

import pytest

from repro.core.actions import notify, transfer
from repro.core.items import document, money
from repro.core.parties import consumer, producer, trusted
from repro.errors import ModelError
from repro.net.wire import (
    MAX_FRAME_BYTES,
    WireError,
    action_from_json,
    action_to_json,
    decode_frame,
    encode_frame,
    encode_json,
    item_from_json,
    item_to_json,
    party_from_json,
    party_to_json,
)

CUSTOMER = consumer("Customer")
PRODUCER = producer("Producer")
TRUSTED = trusted("Trusted")


def test_party_round_trip():
    for party in (CUSTOMER, PRODUCER, TRUSTED):
        assert party_from_json(party_to_json(party)) == party


def test_item_round_trip():
    for item in (money(10), money(2.5, "fee"), document("d"), None):
        assert item_from_json(item_to_json(item)) == item


@pytest.mark.parametrize(
    "action",
    [
        transfer(CUSTOMER, TRUSTED, money(10)),
        transfer(PRODUCER, TRUSTED, document("d")),
        transfer(CUSTOMER, TRUSTED, money(10)).inverse(),
        notify(TRUSTED, PRODUCER),
        notify(TRUSTED, PRODUCER)._replace(deadline=42.5),
    ],
)
def test_action_round_trip(action):
    rebuilt = action_from_json(action_to_json(action))
    assert rebuilt == action
    assert rebuilt.inverted == action.inverted
    assert rebuilt.deadline == action.deadline


def test_frame_round_trip():
    obj = {"type": "ack", "key": "Customer:1"}
    frame = encode_frame(obj)
    length = struct.unpack(">I", frame[:4])[0]
    assert length == len(frame) - 4
    assert decode_frame(frame[4:]) == obj


def test_golden_frame_bytes():
    # Canonical encoding (sorted keys, compact separators) means identical
    # values must produce identical bytes forever — a wire format change
    # that breaks this breaks WAL replay of old logs.
    frame = encode_frame({"type": "ack", "key": "A:1"})
    payload = b'{"key":"A:1","type":"ack"}'
    assert frame == struct.pack(">I", len(payload)) + payload


def test_canonical_json_is_key_order_independent():
    assert encode_json({"b": 1, "a": 2}) == encode_json({"a": 2, "b": 1})


def test_decode_rejects_garbage():
    with pytest.raises(WireError):
        decode_frame(b"\xff\xfe not json")
    with pytest.raises(WireError):
        decode_frame(b'"a bare string"')
    with pytest.raises(WireError):
        decode_frame(b'{"no_discriminator":1}')


def test_oversized_frame_rejected():
    with pytest.raises(WireError):
        encode_frame({"type": "act", "blob": "x" * (MAX_FRAME_BYTES + 1)})


def test_bad_payloads_raise_wire_error():
    with pytest.raises(WireError):
        party_from_json({"name": "X", "role": "no-such-role"})
    with pytest.raises(WireError):
        item_from_json({"kind": "gold-bar", "label": "g"})
    with pytest.raises(WireError):
        action_from_json({"kind": "pay"})


@pytest.mark.parametrize(
    ("decode", "payload"),
    [
        (party_from_json, {"name": "1bad", "role": "consumer"}),
        (item_from_json, {"kind": "money", "label": "$1.00", "cents": -5}),
        (
            action_from_json,
            {
                "kind": "notify",
                "sender": party_to_json(CUSTOMER),
                "recipient": party_to_json(PRODUCER),
                "item": None,
                "inverted": False,
                "deadline": None,
            },
        ),
    ],
    ids=["party name starts with a digit", "negative money", "notify sent by a principal"],
)
def test_a_well_formed_payload_with_an_invalid_value_raises_wire_error(decode, payload):
    with pytest.raises(WireError) as raised:
        decode(payload)
    assert isinstance(raised.value.__cause__, ModelError)
