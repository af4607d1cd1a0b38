"""Deterministic fault injection for both runtimes.

The paper's failure model is "parties renege, wires do not": misbehaviour
lives in the agents, the transport is perfect.  This module supplies the
other half — a seeded, replayable description of *transport* and *process*
faults that the simulator's :class:`~repro.sim.runtime.Simulation` and the
socket runtime's :class:`~repro.net.proxy.NetFaultProxy` both enact:

* :class:`LinkFault` — per-link message faults: drop and duplication
  probabilities, bounded delay jitter, and partition windows during which
  nothing crosses the link.  ``"*"`` wildcards match any endpoint.
* :class:`PartyFault` — process faults: a party crashes at ``crash_at`` and
  either restarts at ``restart_at`` (its mailbox is replayed and its timers
  resume) or never does (``restart_at=None`` — permanent silence).  A crash
  stops the *process*, not the *host*: assets delivered to a crashed party
  still land on its ledger account; only its logic is suspended.
* :class:`FaultPlan` — the picklable bundle of both, plus a ``heal_at``
  horizon after which the links behave perfectly again.  A plan is a pure
  value, and :meth:`FaultPlan.fate` is the one place a delivery attempt's
  fate is decided: the partition window, then drop, delay and duplicate
  rolls from :func:`fault_rolls`, a hash of ``(seed, envelope key,
  attempt)``.  An envelope's fate therefore depends on the envelope alone,
  not on event order, so both runtimes give the same envelope the same
  fate on every attempt.

:func:`random_fault_plan` grows a plan from a seed and a
:class:`FaultConfig`, which is how the chaos study
(:mod:`repro.analysis.chaos_study`) crosses fault schedules with random
problems.  :class:`RetryPolicy` parameterizes the party drivers'
send-timeout / capped-exponential-backoff schedule
(:mod:`repro.sim.driver`).
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from repro.errors import FaultInjectionError
from repro.records import new_record


def _check_probability(value: float, label: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise FaultInjectionError(f"{label} must be a probability in [0, 1], got {value}")


_LANES = struct.Struct(">3Q")
_UNIT = 2.0**-53


def fault_rolls(seed: int, key: str, attempt: int) -> tuple[float, float, float]:
    """The drop, delay and duplicate rolls of one delivery attempt.

    One ``sha256(seed:key:attempt)`` digest cut into three 8-byte lanes,
    each scaled to a uniform float in [0, 1): a pure function of the
    envelope's key and the attempt ordinal.
    """
    digest = hashlib.sha256(f"{seed}:{key}:{attempt}".encode("utf-8")).digest()
    drop, delay, duplicate = _LANES.unpack_from(digest)
    return (drop >> 11) * _UNIT, (delay >> 11) * _UNIT, (duplicate >> 11) * _UNIT


class Fate(NamedTuple):
    """What the wire does to one delivery attempt.

    :meth:`FaultPlan.fate` builds each rolled fate with
    :data:`repro.records.new_record`, which runs no Python frame.
    """

    dropped: bool
    jitter: float  # delay beyond the link latency
    duplicated: bool


#: The fate of an attempt on a perfect link, and of one that is lost.
CLEAN = Fate(False, 0.0, False)
LOST = Fate(True, 0.0, False)


@dataclass(frozen=True)
class LinkFault:
    """Message faults on one (possibly wildcarded) directed link."""

    sender: str = "*"
    recipient: str = "*"
    drop: float = 0.0
    duplicate: float = 0.0
    max_delay: float = 0.0
    partitions: tuple[tuple[float, float], ...] = ()

    def matches(self, sender: str, recipient: str) -> bool:
        return self.sender in ("*", sender) and self.recipient in ("*", recipient)

    def partitioned(self, now: float) -> bool:
        return any(start <= now < end for start, end in self.partitions)

    def validate(self, heal_at: float | None) -> None:
        _check_probability(self.drop, "drop")
        _check_probability(self.duplicate, "duplicate")
        if self.max_delay < 0:
            raise FaultInjectionError(f"max_delay must be non-negative, got {self.max_delay}")
        for start, end in self.partitions:
            if not 0 <= start < end:
                raise FaultInjectionError(
                    f"partition window ({start}, {end}) must satisfy 0 <= start < end"
                )
            if heal_at is not None and end > heal_at:
                raise FaultInjectionError(
                    f"partition window ({start}, {end}) extends past heal_at={heal_at}"
                )


@dataclass(frozen=True)
class PartyFault:
    """One crash (and optional restart) of a party's process."""

    party: str
    crash_at: float
    restart_at: float | None = None  # None = permanently silent

    @property
    def permanent(self) -> bool:
        return self.restart_at is None

    def crashed(self, now: float) -> bool:
        if now < self.crash_at:
            return False
        return self.restart_at is None or now < self.restart_at

    def validate(self) -> None:
        if self.crash_at < 0:
            raise FaultInjectionError(f"crash_at must be non-negative, got {self.crash_at}")
        if self.restart_at is not None and self.restart_at <= self.crash_at:
            raise FaultInjectionError(
                f"restart_at={self.restart_at} must come after crash_at={self.crash_at}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A replayable schedule of transport and process faults.

    Link faults apply only while ``now < heal_at`` (``heal_at=None`` means
    they never heal); party faults are wall-clock windows independent of the
    horizon.  Plans are plain frozen dataclasses: picklable across the
    analysis process pool and hashable into a :meth:`digest` that makes any
    chaos run replayable from its result row alone.
    """

    seed: int = 0
    links: tuple[LinkFault, ...] = ()
    parties: tuple[PartyFault, ...] = ()
    heal_at: float | None = None

    def validate(self) -> "FaultPlan":
        """Check structural sanity; returns self, raises on malformation."""
        if self.heal_at is not None and self.heal_at < 0:
            raise FaultInjectionError(f"heal_at must be non-negative, got {self.heal_at}")
        for link in self.links:
            link.validate(self.heal_at)
        seen: set[str] = set()
        for fault in self.parties:
            fault.validate()
            if fault.party in seen:
                raise FaultInjectionError(f"duplicate party fault for {fault.party!r}")
            seen.add(fault.party)
        return self

    # ------------------------------------------------------------------ query

    def active(self, now: float) -> bool:
        """Whether link faults still apply at *now*."""
        return self.heal_at is None or now < self.heal_at

    def link_for(self, sender: str, recipient: str) -> LinkFault | None:
        """The first link fault matching the directed pair, if any."""
        for link in self.links:
            if link.matches(sender, recipient):
                return link
        return None

    def fate(self, sender: str, recipient: str, key: str, attempt: int, now: float) -> Fate:
        """The fate of attempt *attempt* of envelope *key*, offered at *now*.

        First the partition window, then the drop, delay and duplicate
        rolls of :func:`fault_rolls`; past ``heal_at``, or on a link with no
        fault, the attempt is clean.
        """
        link = self.link_for(sender, recipient) if self.active(now) else None
        if link is None:
            return CLEAN
        if link.partitioned(now):
            return LOST
        drop, delay, duplicate = fault_rolls(self.seed, key, attempt)
        if drop < link.drop:
            return LOST
        return new_record(Fate, (False, delay * link.max_delay, duplicate < link.duplicate))

    def fault_of(self, name: str) -> PartyFault | None:
        for fault in self.parties:
            if fault.party == name:
                return fault
        return None

    def is_crashed(self, name: str, now: float) -> bool:
        fault = self.fault_of(name)
        return fault is not None and fault.crashed(now)

    def restart_time(self, name: str) -> float | None:
        """When the party's process resumes (None: no fault, or never)."""
        fault = self.fault_of(name)
        return None if fault is None else fault.restart_at

    def permanently_silent(self) -> frozenset[str]:
        """Names of parties whose process never comes back."""
        return frozenset(f.party for f in self.parties if f.permanent)

    def faulted_parties(self) -> frozenset[str]:
        """Names of every party with a process fault (crashed at all)."""
        return frozenset(f.party for f in self.parties)

    def check_targets(self, principals: Iterable[str], trusted: Iterable[str]) -> None:
        """A plan may only fault parties that exist, and may never silence a
        trusted component forever: trusted infrastructure can crash and
        restart, but a vanished escrow holder would take deposits with it."""
        infrastructure = frozenset(trusted)
        known = frozenset(principals) | infrastructure
        for fault in self.parties:
            if fault.party not in known:
                raise FaultInjectionError(
                    f"fault plan targets unknown party {fault.party!r}"
                )
            if fault.permanent and fault.party in infrastructure:
                raise FaultInjectionError(
                    f"trusted component {fault.party!r} cannot be permanently "
                    "silenced (it may crash and restart, never vanish)"
                )

    def worst_drop(self) -> float:
        """The highest drop probability across links (0 if fault-free)."""
        return max((link.drop for link in self.links), default=0.0)

    def digest(self) -> str:
        """A short stable fingerprint, identical across processes and runs."""
        canonical = repr(
            (
                self.seed,
                tuple(
                    (l.sender, l.recipient, l.drop, l.duplicate, l.max_delay, l.partitions)
                    for l in self.links
                ),
                tuple((p.party, p.crash_at, p.restart_at) for p in self.parties),
                self.heal_at,
            )
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def check_adversaries(names: Iterable[str], principals: Iterable[str]) -> None:
    """Every adversary must name a principal of the problem: trusted
    components follow §2.5 by definition, so none of them can deviate."""
    known = frozenset(principals)
    for name in names:
        if name not in known:
            raise FaultInjectionError(
                f"adversary {name!r} is not a principal of the problem "
                "(trusted components follow §2.5 and never deviate)"
            )


@dataclass(frozen=True)
class RetryPolicy:
    """Send-timeout schedule: capped exponential backoff with a retry cap.

    Retransmission 1 comes ``timeout_for(1)`` after the send, and
    retransmission *k* + 1 comes ``timeout_for(k)`` after retransmission
    *k*.  When ``timeout_for(max_retries)`` passes after the last
    retransmission with no acknowledgement, the sender abandons the message
    and the wire returns custody of the asset (a bounced letter).  The
    defaults send at sim times 0, 4, 8, 16, 32, 48 … 160 and abandon at
    176; with ``max_retries=32`` the last attempt goes at 480 and the
    abandon comes at 496.
    """

    base_timeout: float = 4.0
    backoff: float = 2.0
    max_timeout: float = 16.0
    max_retries: int = 12

    def timeout_for(self, attempt: int) -> float:
        """``base_timeout * backoff ** (attempt - 1)``, capped at ``max_timeout``.

        The wait before retransmission 1 and the wait after retransmission
        *attempt* (1-based): see the class docstring for the schedule.
        """
        return min(self.base_timeout * self.backoff ** (attempt - 1), self.max_timeout)


@dataclass(frozen=True)
class FaultConfig:
    """Knobs for :func:`random_fault_plan`.

    Defaults describe a hostile-but-healing world: every link loses ~15% of
    messages, duplicates ~10%, jitters delivery by up to ``max_delay``, and
    one party may crash (possibly forever, if it is a principal) — with all
    *link* faults healed by ``heal_at`` so that retries can eventually push
    every message through.  The rest of a plan is fixed: with probability
    0.3 one global partition window opens in the first 60% of the healing
    horizon and lasts 1 to 6 units (cut at ``heal_at``); a crash comes at a
    uniform time from 0 to 15, and a restart 1 to 10 units after it.  The
    two party-fault probabilities are checked on construction; the link
    values are checked when the plan is validated.
    """

    drop: float = 0.15
    duplicate: float = 0.10
    max_delay: float = 3.0
    crash_probability: float = 0.35
    permanent_silence_probability: float = 0.4
    heal_at: float = 30.0

    def __post_init__(self) -> None:
        _check_probability(self.crash_probability, "crash_probability")
        _check_probability(self.permanent_silence_probability, "permanent_silence_probability")


def random_fault_plan(
    principals: "list[str] | tuple[str, ...]",
    trusted: "list[str] | tuple[str, ...]" = (),
    seed: int = 0,
    config: FaultConfig = FaultConfig(),
) -> FaultPlan:
    """Grow a validated :class:`FaultPlan` from a seed.

    Link faults are global (wildcard); the optional crash fault picks any
    party, but permanent silence is only ever assigned to a *principal* —
    a trusted component that vanishes forever would take deposits with it,
    which the model forbids (trusted components are reliable infrastructure,
    though they may crash and restart).
    """
    rng = random.Random(seed)
    partitions: tuple[tuple[float, float], ...] = ()
    if rng.random() < 0.3:
        start = rng.uniform(0.0, config.heal_at * 0.6)
        length = rng.uniform(1.0, 6.0)
        partitions = ((start, min(start + length, config.heal_at)),)
    link = LinkFault(
        drop=config.drop,
        duplicate=config.duplicate,
        max_delay=config.max_delay,
        partitions=partitions,
    )

    party_faults: tuple[PartyFault, ...] = ()
    candidates = list(principals) + list(trusted)
    if candidates and rng.random() < config.crash_probability:
        victim = rng.choice(candidates)
        crash_at = rng.uniform(0.0, 15.0)
        permanent = (
            victim in principals
            and rng.random() < config.permanent_silence_probability
        )
        restart_at = None if permanent else crash_at + rng.uniform(1.0, 10.0)
        party_faults = (PartyFault(victim, crash_at, restart_at),)

    return FaultPlan(
        seed=seed, links=(link,), parties=party_faults, heal_at=config.heal_at
    ).validate()
