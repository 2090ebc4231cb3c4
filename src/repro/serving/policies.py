"""Dispatch policies: which queued request gets the NPU next.

The simulator keeps one FIFO queue per tenant (a list in the scenario's
tenant order) and asks the policy for the index of the queue whose
*head* runs next — so ordering within a tenant is always
FIFO (natural batching: consecutive same-tenant requests never pay a
protection-domain flush) and the policy decides only the inter-tenant
schedule:

``fifo``
    Global arrival order.  Under temporal sharing a request runs to
    completion before the next starts (fewest flushes, worst
    responsiveness).
``rr`` (default)
    Round-robin over tenants at every scheduling boundary — the flush
    baseline of §IV-B: fair, but fine granularities pay a scrub +
    context switch on almost every quantum.
``priority``
    Lowest ``TenantSpec.priority`` first, preemptively *at quantum
    boundaries*: an urgent arrival waits out at most the quantum in
    flight, exactly the ``preemptive_corun`` wait model — the SLA
    dilemma knob.
``spatial``
    Pairing-aware admission for the spatial mechanisms: when one slot is
    busy, admit the queued head whose co-run with the running model has
    the best total normalized rate (the ``spatial_pair`` total-best
    criterion applied online).  Falls back to ``fifo`` order when no
    partner is running (or under temporal mechanisms).
"""

from __future__ import annotations

from typing import Callable, Deque, Optional, Sequence

from repro.errors import ConfigError
from repro.serving.workload import Request

POLICIES = ("fifo", "rr", "priority", "spatial")


class Policy:
    """Deterministic head-of-queue selector (ties broken by arrival, rid)."""

    def __init__(
        self,
        name: str,
        pair_norm: Optional[Callable[[str, str], float]] = None,
    ):
        if name not in POLICIES:
            raise ConfigError(
                f"unknown policy {name!r}; choose from {', '.join(POLICIES)}"
            )
        self.name = name
        #: ``pair_norm(running_model, candidate_model)`` — total normalized
        #: co-run time of the pairing (lower = better); wired up by the
        #: spatial simulator, None under temporal mechanisms.
        self.pair_norm = pair_norm
        self._rr_last = -1

    def pick(
        self,
        queues: Sequence[Deque[Request]],
        partner_model: Optional[str] = None,
    ) -> int:
        """Index of the queue whose head gets the NPU next.

        *queues* holds one FIFO per tenant, in the scenario's tenant
        order; only non-empty queues are candidates."""
        if self.name == "rr":
            n = len(queues)
            idx = self._rr_last
            for _ in range(n):
                idx = (idx + 1) % n
                if queues[idx]:
                    self._rr_last = idx
                    return idx
            raise ConfigError("no candidates to dispatch")
        if self.name == "priority":
            key = _priority_key
        elif (self.name == "spatial" and partner_model is not None
              and self.pair_norm is not None):
            pair_norm = self.pair_norm

            def key(r: Request):
                return (pair_norm(partner_model, r.model), r.arrival, r.rid)
        else:
            key = _arrival_key
        candidates = [i for i, queue in enumerate(queues) if queue]
        if not candidates:
            raise ConfigError("no candidates to dispatch")
        return min(candidates, key=lambda i: key(queues[i][0]))


def _arrival_key(r: Request):
    return (r.arrival, r.rid)


def _priority_key(r: Request):
    return (r.priority, r.arrival, r.rid)
