"""Differential tests: the serving loops against per-quantum oracles.

``ServeSimulator`` steps an uncontended request's quanta in one inner
loop and dispatches by queue index.  The oracles below are the loops
they replaced — one scheduling pass per quantum, a heads list and a
``by_tenant`` dict per round-robin pick — kept here verbatim so
Hypothesis can check that every completion, counter, window and ledger
byte is *exactly* equal (not approximately: the float sequence must be
the same).
"""

from __future__ import annotations

import types
from collections import deque
from typing import Deque, Dict, List, Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.driver.scheduler import MultiTaskScheduler
from repro.errors import ConfigError
from repro.npu.config import NPUConfig
from repro.serving.queueing import (
    _EPS,
    MECHANISMS,
    ServeSimulator,
    _Slot,
    _TemporalState,
)
from repro.serving.policies import POLICIES
from repro.serving.workload import SCENARIOS, Request


class ReferencePolicy:
    """The heads-list dispatch rule (round-robin via a by_tenant dict)."""

    def __init__(self, name, tenant_order, pair_norm=None):
        self.name = name
        self.tenant_order = tuple(tenant_order)
        self.pair_norm = pair_norm
        self._rr_last = -1

    def pick(self, candidates, partner_model=None):
        if not candidates:
            raise ConfigError("no candidates to dispatch")
        if self.name == "fifo":
            return min(candidates, key=lambda r: (r.arrival, r.rid))
        if self.name == "priority":
            return min(candidates, key=lambda r: (r.priority, r.arrival, r.rid))
        if self.name == "rr":
            by_tenant = {r.tenant: r for r in candidates}
            n = len(self.tenant_order)
            for step in range(1, n + 1):
                idx = (self._rr_last + step) % n
                tenant = self.tenant_order[idx]
                if tenant in by_tenant:
                    self._rr_last = idx
                    return by_tenant[tenant]
            raise ConfigError("round-robin found no candidate tenant")
        if partner_model is not None and self.pair_norm is not None:
            return min(
                candidates,
                key=lambda r: (
                    self.pair_norm(partner_model, r.model), r.arrival, r.rid
                ),
            )
        return min(candidates, key=lambda r: (r.arrival, r.rid))


def _reference_admit(self, req, queues: Dict[str, Deque[Request]]):
    queues[req.tenant].append(req)
    self._m_arrivals.inc()
    if self.windows is not None:
        self.windows.on_arrival(req.arrival, req.tenant)
    flow = telemetry.flows.allocate()
    self._flow_ids[req.rid] = flow
    if req.world == "secure":
        telemetry.audit.record(
            "serve.admit", "allow", cycle=req.arrival, world=req.world,
            flow=flow, tenant=req.tenant, model=req.model, rid=req.rid,
        )
    return flow


def reference_run_temporal(self, requests: List[Request], outcome) -> None:
    """One scheduling pass (admit, pick, maybe flush) per quantum."""
    granularity = self.mechanism.split("-", 1)[1]
    quanta_cache: Dict[str, List[float]] = {
        key: self.scheduler.quanta(model, granularity, flushed=True)
        for key, model in self.models.items()
    }
    switch_cost = self.switch_cost
    world_cost = float(self.config.context_switch_cycles)
    arrivals: Deque[Request] = deque(requests)
    queues: Dict[str, Deque[Request]] = {
        name: deque() for name in self._tenant_order
    }
    states: Dict[int, _TemporalState] = {}
    t = 0.0
    prev_tenant: Optional[str] = None
    prev_world: Optional[str] = None
    while arrivals or any(queues.values()):
        while arrivals and arrivals[0].arrival <= t + _EPS:
            req = arrivals.popleft()
            flow = _reference_admit(self, req, queues)
            states[req.rid] = _TemporalState(quanta_cache[req.model], flow)
        if not any(queues.values()):
            t = max(t, arrivals[0].arrival)
            continue
        heads = [
            queues[name][0] for name in self._tenant_order if queues[name]
        ]
        req = self.policy.pick(heads)
        state = states[req.rid]
        if prev_tenant is not None and req.tenant != prev_tenant:
            if self.windows is not None:
                self.windows.on_flush(t)
            t += switch_cost
            state.flush += switch_cost
            outcome.flushes += 1
            outcome.flush_cycles += switch_cost
            self._m_flushes.inc()
            if req.world != prev_world:
                if self.windows is not None:
                    self.windows.on_world_switch(t)
                t += world_cost
                state.world += world_cost
                outcome.world_switches += 1
                outcome.world_cycles += world_cost
                self._m_world.inc()
                telemetry.audit.record(
                    "serve.world_switch", "event", cycle=t,
                    world=req.world, flow=state.flow, tenant=req.tenant,
                )
        quantum = state.quanta[state.qi]
        state.qi += 1
        state.service += quantum
        t += quantum
        prev_tenant, prev_world = req.tenant, req.world
        if state.qi == len(state.quanta):
            queues[req.tenant].popleft()
            self._record_completion(
                req, state.flow, t, state.service, state.flush,
                state.world, outcome,
            )
            del states[req.rid]
    outcome.makespan = t


def reference_run_spatial(self, requests: List[Request], outcome) -> None:
    """Two slots, ``any()`` scans and a per-event ``times`` dict."""
    oracle = self.oracle
    world_cost = float(self.config.context_switch_cycles)
    arrivals: Deque[Request] = deque(requests)
    queues: Dict[str, Deque[Request]] = {
        name: deque() for name in self._tenant_order
    }
    slots: List[Optional[_Slot]] = [None, None]
    slot_world: List[Optional[str]] = [None, None]
    t = 0.0
    while arrivals or any(queues.values()) or any(
        s is not None for s in slots
    ):
        while arrivals and arrivals[0].arrival <= t + _EPS:
            _reference_admit(self, arrivals.popleft(), queues)
        for i in (0, 1):
            if slots[i] is not None:
                continue
            heads = [
                queues[name][0] for name in self._tenant_order if queues[name]
            ]
            if not heads:
                break
            partner = slots[1 - i]
            req = self.policy.pick(
                heads, partner_model=partner.req.model if partner else None,
            )
            queues[req.tenant].popleft()
            setup = 0.0
            if slot_world[i] is not None and slot_world[i] != req.world:
                setup = world_cost
                if self.windows is not None:
                    self.windows.on_world_switch(t)
                outcome.world_switches += 1
                outcome.world_cycles += world_cost
                self._m_world.inc()
                telemetry.audit.record(
                    "serve.world_switch", "event", cycle=t,
                    world=req.world, flow=self._flow_ids.get(req.rid),
                    tenant=req.tenant, slot=i,
                )
            slot_world[i] = req.world
            slots[i] = _Slot(req, setup, self._flow_ids.get(req.rid))
        occupants = [i for i in (0, 1) if slots[i] is not None]
        if not occupants:
            if not arrivals:
                break
            t = max(t, arrivals[0].arrival)
            continue
        times: Dict[int, float] = {}
        if len(occupants) == 2:
            sa, sb = slots[occupants[0]], slots[occupants[1]]
            t_a, t_b = oracle.pair(sa.req.model, sb.req.model)
            times = {occupants[0]: t_a, occupants[1]: t_b}
        else:
            only = slots[occupants[0]]
            times = {occupants[0]: oracle.alone(only.req.model)}
        dt = None
        for i in occupants:
            slot = slots[i]
            remaining = slot.setup + slot.work * times[i]
            dt = remaining if dt is None else min(dt, remaining)
        if arrivals:
            dt = min(dt, max(0.0, arrivals[0].arrival - t))
        for i in occupants:
            slot = slots[i]
            step = dt
            if slot.setup > 0.0:
                burned = min(step, slot.setup)
                slot.setup -= burned
                step -= burned
            if step > 0.0:
                slot.work -= step / times[i]
        t += dt
        for i in occupants:
            slot = slots[i]
            if slot.setup <= _EPS and slot.work <= 1e-7:
                self._record_completion(
                    slot.req, slot.flow, t,
                    oracle.alone(slot.req.model), 0.0, slot.world_paid,
                    outcome,
                )
                slots[i] = None
    outcome.makespan = t


def as_reference(sim: ServeSimulator) -> ServeSimulator:
    """Route *sim*'s ``run`` through the oracle loops and policy."""
    sim.policy = ReferencePolicy(
        sim.policy.name, sim._tenant_order, pair_norm=sim.policy.pair_norm,
    )
    sim._run_temporal = types.MethodType(reference_run_temporal, sim)
    sim._run_spatial = types.MethodType(reference_run_spatial, sim)
    return sim


_SCHEDULER = MultiTaskScheduler(NPUConfig.paper_default())


def _serve(reference: bool, **kwargs):
    """Run one simulation; return everything the loops can influence."""
    with telemetry.scoped(trace=False, profile=False, flow=True) as scope:
        sim = ServeSimulator(scheduler=_SCHEDULER, **kwargs)
        if reference:
            as_reference(sim)
        outcome = sim.run()
        ledger = scope.audit.to_jsonl()
    return {
        "completed": [
            (c.request.rid, c.completion, c.latency, c.service, c.flush,
             c.world)
            for c in outcome.completed
        ],
        "counters": (
            outcome.flushes, outcome.world_switches, outcome.flush_cycles,
            outcome.world_cycles, outcome.wait_clamps, outcome.clamped_cycles,
            outcome.makespan,
        ),
        "windows": outcome.windows.to_dict() if outcome.windows else None,
        "ledger": ledger,
    }


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    scenario=st.sampled_from(sorted(SCENARIOS)),
    mechanism=st.sampled_from(MECHANISMS),
    policy=st.sampled_from(POLICIES),
    seed=st.integers(0, 2**16),
    # 1500-4000 rps saturates every mechanism at these horizons.
    rps=st.sampled_from([0.0, 40.0, 150.0, 300.0, 600.0, 1500.0, 4000.0]),
    duration_ms=st.sampled_from([15.0, 60.0, 150.0]),
    window_ms=st.sampled_from([None, 5.0, 20.0]),
)
def test_loops_match_per_quantum_oracle(
    scenario, mechanism, policy, seed, rps, duration_ms, window_ms
):
    kwargs = dict(
        scenario=SCENARIOS[scenario], mechanism=mechanism, policy=policy,
        seed=seed, rps=rps, duration_ms=duration_ms, window_ms=window_ms,
    )
    assert _serve(False, **kwargs) == _serve(True, **kwargs)


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_saturated_default_matches_oracle(mechanism):
    """A deterministic saturated cell per mechanism (long contended runs
    and long uncontended stretches in the same stream)."""
    kwargs = dict(
        scenario=SCENARIOS["default"], mechanism=mechanism, policy="rr",
        seed=3, rps=900.0, duration_ms=200.0, window_ms=10.0,
    )
    new, ref = _serve(False, **kwargs), _serve(True, **kwargs)
    assert new == ref
    assert new["completed"] and new["ledger"]
