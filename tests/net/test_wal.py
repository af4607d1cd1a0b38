"""Write-ahead log round-trips, torn tails, and corruption detection."""

from __future__ import annotations

import pytest

from repro.core.actions import pay
from repro.core.items import money
from repro.core.parties import consumer, trusted
from repro.errors import NetRuntimeError
from repro.net.node import ExchangeNode, NodeConfig, record_from_json, record_to_json
from repro.net.wal import WriteAheadLog, replay
from repro.net.wire import action_to_json, encode_json
from repro.spec.formatter import format_problem
from repro.workloads import example1

RECORDS = [
    {"rec": "endow", "balance": 1000, "docs": ["d"]},
    {"rec": "send", "key": "Customer:1", "action": {"kind": "pay"}},
    {"rec": "ack", "key": "Customer:1"},
]


def test_round_trip(tmp_path):
    path = str(tmp_path / "node.wal")
    wal = WriteAheadLog(path)
    for record in RECORDS:
        wal.append(record)
    wal.close()
    assert replay(path) == RECORDS


def test_missing_and_empty_files_replay_empty(tmp_path):
    assert replay(str(tmp_path / "never-written.wal")) == []
    empty = tmp_path / "empty.wal"
    empty.write_bytes(b"")
    assert replay(str(empty)) == []


def test_append_requires_discriminator(tmp_path):
    wal = WriteAheadLog(str(tmp_path / "node.wal"))
    with pytest.raises(NetRuntimeError):
        wal.append({"key": "no-rec-field"})
    wal.close()


def test_reopen_appends(tmp_path):
    path = str(tmp_path / "node.wal")
    first = WriteAheadLog(path)
    first.append(RECORDS[0])
    first.close()
    second = WriteAheadLog(path)  # a restarted node reopens its own log
    second.append(RECORDS[1])
    second.close()
    assert replay(path) == RECORDS[:2]


def test_truncated_tail_is_dropped(tmp_path):
    # A SIGKILL mid-append can cut the final line anywhere; every prefix of
    # the torn record must replay to exactly the fully-written records.
    path = tmp_path / "torn.wal"
    intact = b"".join(encode_json(r) + b"\n" for r in RECORDS[:2])
    torn = encode_json(RECORDS[2]) + b"\n"
    for cut in range(len(torn) - 1):
        path.write_bytes(intact + torn[:cut])
        assert replay(str(path)) == RECORDS[:2], f"cut at byte {cut}"
    path.write_bytes(intact + torn)
    assert replay(str(path)) == RECORDS  # fully written after all


def test_a_torn_log_reopened_and_appended_replays(tmp_path):
    # A restarted node reopens its log and appends to it, and may crash
    # again: the records it appends must not glue onto the torn one.  That
    # includes the cut that leaves the JSON whole but drops its newline.
    path = tmp_path / "torn.wal"
    intact = b"".join(encode_json(r) + b"\n" for r in RECORDS[:2])
    torn = encode_json(RECORDS[2]) + b"\n"
    appended = [{"rec": "ack", "key": "Customer:2"}, {"rec": "deadline"}]
    for cut in range(len(torn)):
        path.write_bytes(intact + torn[:cut])
        assert replay(str(path)) == RECORDS[:2], f"cut at byte {cut}"
        wal = WriteAheadLog(str(path))
        for record in appended:
            wal.append(record)
        wal.close()
        assert replay(str(path)) == RECORDS[:2] + appended, f"cut at byte {cut}"


def test_corrupt_middle_raises(tmp_path):
    path = tmp_path / "corrupt.wal"
    lines = [encode_json(RECORDS[0]), b'{"rec": truncated-garbage', encode_json(RECORDS[2])]
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(NetRuntimeError, match="corrupt WAL record"):
        replay(str(path))


def test_corrupt_middle_error_pinpoints_the_record(tmp_path):
    # The message names the byte offset and record index, so `dd`/`head -c`
    # can slice the damage out of a real log without guesswork.
    path = tmp_path / "corrupt.wal"
    first = encode_json(RECORDS[0])
    lines = [first, b'{"rec": truncated-garbage', encode_json(RECORDS[2])]
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(NetRuntimeError) as excinfo:
        replay(str(path))
    message = str(excinfo.value)
    assert "record 1 of 3" in message
    assert f"byte offset {len(first) + 1}" in message


def test_non_record_error_pinpoints_the_record(tmp_path):
    path = tmp_path / "alien.wal"
    path.write_bytes(encode_json({"no": "rec"}) + b"\n" + encode_json(RECORDS[0]) + b"\n")
    with pytest.raises(NetRuntimeError) as excinfo:
        replay(str(path))
    message = str(excinfo.value)
    assert "record 0 of 2" in message
    assert "byte offset 0" in message


def test_non_record_line_raises(tmp_path):
    path = tmp_path / "alien.wal"
    path.write_bytes(encode_json({"no": "rec"}) + b"\n" + encode_json(RECORDS[0]) + b"\n")
    with pytest.raises(NetRuntimeError, match="not a record"):
        replay(str(path))


def test_golden_bytes_are_canonical(tmp_path):
    # The on-disk encoding is the canonical wire encoding: sorted keys,
    # compact separators, one record per line.  Old logs must stay readable.
    path = str(tmp_path / "golden.wal")
    wal = WriteAheadLog(path)
    wal.append({"rec": "ack", "key": "A:1"})
    wal.close()
    with open(path, "rb") as fh:
        assert fh.read() == b'{"key":"A:1","rec":"ack"}\n'


def test_driver_records_keep_their_json_shape(tmp_path):
    # The party driver's log vocabulary, as the node writes it: the same
    # JSON objects the node wrote before the driver existed, so old logs
    # still replay.
    action = pay(consumer("Customer"), trusted("Trusted"), money(10))
    records = [
        ("endow", 1000, ("a", "b")),
        ("send", "Customer:1", action),
        ("recv", "Trusted:1", action),
        ("ack", "Customer:1"),
        ("abandon", "Customer:2"),
        ("armed", 62.5),
        ("deadline",),
    ]
    path = str(tmp_path / "node.wal")
    wal = WriteAheadLog(path)
    for record in records:
        wal.append(record_to_json(record))
    wal.close()
    assert replay(path) == [
        {"rec": "endow", "balance": 1000, "docs": ["a", "b"]},
        {"rec": "send", "key": "Customer:1", "action": action_to_json(action)},
        {"rec": "recv", "key": "Trusted:1", "action": action_to_json(action)},
        {"rec": "ack", "key": "Customer:1"},
        {"rec": "abandon", "key": "Customer:2"},
        {"rec": "armed", "expiry": 62.5},
        {"rec": "deadline"},
    ]
    assert [record_from_json(raw) for raw in replay(path)] == records


@pytest.mark.parametrize("kind", ["sene", "rcev"])
def test_unknown_record_kind_is_refused(kind):
    # One bit away from ``send`` or swapped letters: replay must not skip it.
    raw = {"rec": kind, "key": "Customer:1", "action": {"kind": "pay"}}
    with pytest.raises(NetRuntimeError, match=f"unknown WAL record kind '{kind}'"):
        record_from_json(raw)


@pytest.mark.parametrize(
    "raw, cause",
    [
        ({"rec": "send", "key": "Customer:1"}, KeyError),
        ({"rec": "armed", "expiry": "soon"}, ValueError),
        ({"rec": "endow", "balance": 1000, "docs": 7}, TypeError),
    ],
)
def test_malformed_record_names_it_and_chains_the_cause(raw, cause):
    with pytest.raises(NetRuntimeError, match="malformed WAL record") as excinfo:
        record_from_json(raw)
    assert repr(raw) in str(excinfo.value)
    assert isinstance(excinfo.value.__cause__, cause)


def test_node_refuses_a_log_with_an_unknown_record(tmp_path):
    spec = tmp_path / "problem.spec"
    spec.write_text(format_problem(example1()), encoding="utf-8")
    path = tmp_path / "Consumer.wal"
    path.write_bytes(
        encode_json(RECORDS[0]) + b"\n" + encode_json({"rec": "rcev", "key": "T:1"}) + b"\n"
    )
    config = NodeConfig(str(spec), "Consumer", "127.0.0.1", 0, str(path), deadline=100.0)
    with pytest.raises(NetRuntimeError, match="unknown WAL record kind 'rcev'"):
        ExchangeNode(config)
