"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single base class.  Subsystems refine it:

* :class:`ModelError` — malformed formal objects (parties, actions, states).
* :class:`GraphError` — structural problems in interaction or sequencing
  graphs (non-bipartite edges, unknown nodes, duplicate commitments).
* :class:`ReductionError` — illegal reduction steps (removing a blocked edge).
* :class:`InfeasibleExchangeError` — an operation that requires a feasible
  exchange (e.g. execution-sequence recovery) was invoked on an infeasible
  one.
* :class:`IndemnityError` — invalid indemnity offers (wrong conjunction type,
  insufficient amount, no shared trusted intermediary).
* :class:`SpecError` — problems in the exchange-specification language, with
  source positions attached (:class:`SpecSyntaxError`,
  :class:`SpecSemanticError`).
* :class:`SimulationError` — runtime faults in the discrete-event simulator
  that indicate misuse of the API rather than modeled misbehaviour.
* :class:`FaultInjectionError` — a fault-injection plan is malformed
  (probabilities out of range, restart before crash, partition outside the
  healing horizon) or targets a party it must not (permanently silencing a
  trusted component), or an adversary names no principal of the problem.
* :class:`ProtocolError` — a protocol role received a message it cannot
  handle, or was asked to perform a transfer it cannot honour.
* :class:`StaticCheckError` — the ``repro lint`` engine was misused (a path
  does not exist, an unknown rule code was selected); CLI usage errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ModelError(ReproError):
    """A formal object (party, item, action, state) is malformed."""


class GraphError(ReproError):
    """An interaction or sequencing graph is structurally invalid."""


class ReductionError(ReproError):
    """An illegal reduction step was attempted on a sequencing graph."""


class InfeasibleExchangeError(ReproError):
    """The requested operation is only defined for feasible exchanges."""


class IndemnityError(ReproError):
    """An indemnity offer is invalid or cannot be applied."""


class SpecError(ReproError):
    """Base class for errors in the exchange-specification language."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            location = f"line {line}"
            if column is not None:
                location += f", column {column}"
            message = f"{location}: {message}"
        super().__init__(message)


class SpecSyntaxError(SpecError):
    """The specification text violates the grammar."""


class SpecSemanticError(SpecError):
    """The specification parses but is inconsistent (unknown names, etc.)."""


class SimulationError(ReproError):
    """The simulator was driven into an invalid configuration."""


class FaultInjectionError(SimulationError):
    """A fault plan is malformed or targets a forbidden party, or an
    adversary does."""


class ProtocolError(ReproError):
    """A protocol role cannot proceed (unexpected message, missing asset)."""


class StaticCheckError(ReproError):
    """The static-analysis engine was misused (bad path, unknown rule)."""


class NetRuntimeError(ReproError):
    """The socket runtime failed (bad frame, WAL corruption, lost node)."""
