"""The socket runtime: the exchange protocol as real networked processes.

Layers (each usable alone):

* :mod:`repro.net.wire` — length-prefixed JSON frame codec mirroring the
  simulator's envelopes;
* :mod:`repro.net.wal` — per-node append-only JSONL write-ahead log with
  truncated-tail-tolerant replay;
* :mod:`repro.net.node` — one party as a process: the party's driver
  (:mod:`repro.sim.driver`) interpreted over a WAL, a TCP connection and
  loop timers;
* :mod:`repro.net.proxy` — the fault proxy enacting a seeded
  :class:`~repro.sim.faults.FaultPlan` on real sockets;
* :mod:`repro.net.supervisor` — spawn/kill/restart orchestration,
  quiescence detection and result assembly.

Entry points: ``repro serve`` / ``repro client`` (see :mod:`repro.cli`) or
:func:`repro.net.supervisor.run_networked_exchange`.
"""

from repro.net.node import ExchangeNode, NodeConfig, run_node
from repro.net.proxy import NetFaultProxy
from repro.net.supervisor import (
    NetRunConfig,
    NetRunResult,
    run_networked_exchange,
)
from repro.net.wal import WriteAheadLog, replay
from repro.net.wire import (
    WireError,
    action_from_json,
    action_to_json,
    decode_frame,
    encode_frame,
    item_from_json,
    item_to_json,
    party_from_json,
    party_to_json,
)

__all__ = [
    "ExchangeNode",
    "NetFaultProxy",
    "NetRunConfig",
    "NetRunResult",
    "NodeConfig",
    "WireError",
    "WriteAheadLog",
    "action_from_json",
    "action_to_json",
    "decode_frame",
    "encode_frame",
    "item_from_json",
    "item_to_json",
    "party_from_json",
    "party_to_json",
    "replay",
    "run_networked_exchange",
    "run_node",
]
