"""Deterministic multi-tenant request-stream generation.

A :class:`Scenario` names a set of :class:`TenantSpec` — each a world
(secure/normal), a weighted model mix from the zoo, an arrival process
(Poisson or bursty) and an SLA budget.  :func:`generate` expands a
scenario into a sorted list of :class:`Request` using one
``random.Random`` **per tenant**, seeded from
``f"{seed}:{scenario}:{tenant}"``: string seeding is platform-stable, so
the same ``--seed`` reproduces the same stream bit-for-bit anywhere, and
adding a tenant never perturbs another tenant's arrivals.

Serving uses the reduced model shapes (56x56 CNNs, a 2-layer seq-64
BERT) so a several-hundred-millisecond horizon stays cheap to simulate;
the per-model service-time *ratios* that drive the mechanism comparison
are preserved.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.workloads import zoo
from repro.workloads.model import ModelGraph

#: Model shapes used by the serving simulator (kept small: a serving
#: horizon covers hundreds of requests).
CNN_INPUT_SIZE = 56
BERT_SEQ_LEN = 64
BERT_LAYERS = 2

WORLDS = ("secure", "normal")
ARRIVALS = ("poisson", "bursty")


def build_model(key: str) -> ModelGraph:
    """Build the serving-profile instance of zoo model *key*."""
    if key not in zoo.MODEL_BUILDERS:
        raise ConfigError(
            f"unknown model {key!r}; choose from {', '.join(zoo.MODEL_BUILDERS)}"
        )
    if key in ("bert", "gpt"):
        return zoo.MODEL_BUILDERS[key](BERT_SEQ_LEN, BERT_LAYERS)
    return zoo.MODEL_BUILDERS[key](CNN_INPUT_SIZE)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: identity, world, model mix, load share and SLA."""

    name: str
    world: str  # "secure" | "normal"
    models: Tuple[Tuple[str, float], ...]  # (zoo key, mix weight)
    share: float  # fraction of the scenario's total rps
    sla_ms: float
    priority: int = 0  # lower = more urgent (priority policy)
    arrival: str = "poisson"
    #: Bursty arrivals: rate is ``burst_factor`` x the mean for the first
    #: ``duty`` fraction of every ``burst_ms`` window, reduced in the
    #: remainder so the long-run mean rate is unchanged.
    burst_factor: float = 3.0
    burst_ms: float = 25.0
    duty: float = 0.25

    def __post_init__(self) -> None:
        if self.world not in WORLDS:
            raise ConfigError(f"tenant {self.name}: unknown world {self.world!r}")
        if self.arrival not in ARRIVALS:
            raise ConfigError(
                f"tenant {self.name}: unknown arrival {self.arrival!r}"
            )
        if not self.models or any(w <= 0 for _, w in self.models):
            raise ConfigError(f"tenant {self.name}: bad model mix")
        if not 0.0 < self.share <= 1.0:
            raise ConfigError(f"tenant {self.name}: share must be in (0, 1]")
        if self.sla_ms <= 0:
            raise ConfigError(f"tenant {self.name}: sla_ms must be positive")
        if self.arrival == "bursty":
            if not 0.0 < self.duty < 1.0:
                raise ConfigError(f"tenant {self.name}: duty must be in (0, 1)")
            if self.burst_factor * self.duty >= 1.0:
                raise ConfigError(
                    f"tenant {self.name}: burst_factor * duty must be < 1 "
                    f"(the quiet phase cannot have negative rate)"
                )


@dataclass(frozen=True)
class Scenario:
    """A named tenant population with default load parameters."""

    name: str
    description: str
    tenants: Tuple[TenantSpec, ...]
    rps: float  # default aggregate request rate
    duration_ms: float  # default admission-window length

    def __post_init__(self) -> None:
        total = sum(t.share for t in self.tenants)
        if abs(total - 1.0) > 1e-6:
            raise ConfigError(
                f"scenario {self.name}: tenant shares sum to {total}, not 1"
            )
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigError(f"scenario {self.name}: duplicate tenant names")

    def tenant(self, name: str) -> TenantSpec:
        for spec in self.tenants:
            if spec.name == name:
                return spec
        raise ConfigError(f"scenario {self.name}: no tenant {name!r}")

    def model_keys(self) -> List[str]:
        """Every zoo key any tenant can request (sorted, unique)."""
        return sorted({key for t in self.tenants for key, _ in t.models})


@dataclass(frozen=True)
class Request:
    """One admitted inference request."""

    rid: int
    tenant: str
    model: str  # zoo key
    world: str
    arrival: float  # cycles
    priority: int
    sla_cycles: float


#: The evaluated tenant populations.  ``default`` is the scenario the
#: acceptance ordering (snpu < partition < flush-tile per-tenant p99) and
#: the ``serve-sweep`` experiment run on.
SCENARIOS: Dict[str, Scenario] = {
    "default": Scenario(
        name="default",
        description=(
            "A latency-sensitive secure camera pipeline sharing the NPU "
            "with a normal-world NLP service and a batch CV tenant"
        ),
        tenants=(
            TenantSpec(
                name="cam", world="secure",
                models=(("yololite", 0.7), ("mobilenet", 0.3)),
                share=0.4, sla_ms=25.0, priority=0,
            ),
            TenantSpec(
                name="nlp", world="normal",
                models=(("bert", 0.6), ("gpt", 0.4)),
                share=0.3, sla_ms=45.0, priority=1,
            ),
            TenantSpec(
                name="batch", world="normal",
                models=(("resnet", 0.6), ("mobilenet", 0.4)),
                share=0.3, sla_ms=30.0, priority=2,
            ),
        ),
        rps=300.0,
        duration_ms=2000.0,
    ),
    "secure-heavy": Scenario(
        name="secure-heavy",
        description=(
            "Two secure-world tenants dominate the load; stresses "
            "world-switch overhead and the secure admission ledger"
        ),
        tenants=(
            TenantSpec(
                name="cam", world="secure",
                models=(("yololite", 0.6), ("mobilenet", 0.4)),
                share=0.45, sla_ms=8.0, priority=0,
            ),
            TenantSpec(
                name="auth", world="secure",
                models=(("resnet", 1.0),),
                share=0.35, sla_ms=25.0, priority=1,
            ),
            TenantSpec(
                name="ads", world="normal",
                models=(("mobilenet", 1.0),),
                share=0.2, sla_ms=20.0, priority=2,
            ),
        ),
        rps=220.0,
        duration_ms=400.0,
    ),
    "nlp-mix": Scenario(
        name="nlp-mix",
        description=(
            "An all-NLP population: a secure chat assistant over "
            "normal-world embedding and ranking services; the live "
            "observability scenario (repro watch / repro slo)"
        ),
        tenants=(
            TenantSpec(
                name="chat", world="secure",
                models=(("gpt", 0.6), ("bert", 0.4)),
                share=0.4, sla_ms=45.0, priority=0,
            ),
            TenantSpec(
                name="embed", world="normal",
                models=(("bert", 1.0),),
                share=0.35, sla_ms=60.0, priority=1,
            ),
            TenantSpec(
                name="rank", world="normal",
                models=(("mobilenet", 1.0),),
                share=0.25, sla_ms=30.0, priority=2,
            ),
        ),
        rps=200.0,
        duration_ms=400.0,
    ),
    "burst": Scenario(
        name="burst",
        description=(
            "The secure camera tenant arrives in bursts over a steady "
            "normal-world background; stresses queue drain behaviour"
        ),
        tenants=(
            TenantSpec(
                name="cam", world="secure",
                models=(("yololite", 1.0),),
                share=0.5, sla_ms=8.0, priority=0,
                arrival="bursty", burst_factor=3.0, burst_ms=25.0, duty=0.25,
            ),
            TenantSpec(
                name="bg", world="normal",
                models=(("mobilenet", 0.5), ("resnet", 0.5)),
                share=0.5, sla_ms=30.0, priority=1,
            ),
        ),
        rps=260.0,
        duration_ms=400.0,
    ),
}


def _pick_model(rng: random.Random, mix: Tuple[Tuple[str, float], ...]) -> str:
    total = sum(weight for _, weight in mix)
    draw = rng.random() * total
    acc = 0.0
    for key, weight in mix:
        acc += weight
        if draw < acc:
            return key
    return mix[-1][0]


def _tenant_arrivals(
    spec: TenantSpec, rate_per_cycle: float, horizon: float,
    cycles_per_ms: float, rng: random.Random,
) -> List[float]:
    """Arrival instants (cycles) of one tenant over the admission window."""
    out: List[float] = []
    t = 0.0
    if spec.arrival == "poisson":
        while True:
            t += rng.expovariate(rate_per_cycle)
            if t >= horizon:
                return out
            out.append(t)
    # Bursty: a rate-modulated Poisson process whose long-run mean equals
    # the tenant's share of the load.
    period = spec.burst_ms * cycles_per_ms
    rate_high = rate_per_cycle * spec.burst_factor
    rate_low = (
        rate_per_cycle * (1.0 - spec.duty * spec.burst_factor)
        / (1.0 - spec.duty)
    )
    while True:
        phase = (t % period) / period
        rate = rate_high if phase < spec.duty else rate_low
        t += rng.expovariate(rate)
        if t >= horizon:
            return out
        out.append(t)


def generate(
    scenario: Scenario,
    rps: Optional[float] = None,
    duration_ms: Optional[float] = None,
    seed: int = 0,
    freq_ghz: float = 1.0,
) -> List[Request]:
    """Expand *scenario* into a deterministic arrival-sorted request list.

    ``rps``/``duration_ms`` default (when ``None``) to the scenario's
    values.  ``rps=0`` is a valid empty stream; negative rates,
    non-positive durations and non-finite values of either are
    configuration errors.  Arrival instants and SLA budgets are in
    cycles at *freq_ghz*.
    """
    rps = scenario.rps if rps is None else rps
    duration_ms = scenario.duration_ms if duration_ms is None else duration_ms
    if not (math.isfinite(rps) and rps >= 0):
        raise ConfigError(f"rps must be finite and non-negative, got {rps}")
    if not (math.isfinite(duration_ms) and duration_ms > 0):
        raise ConfigError(
            f"duration_ms must be finite and positive, got {duration_ms}"
        )
    if rps == 0:
        return []
    cycles_per_ms = freq_ghz * 1e6
    horizon = duration_ms * cycles_per_ms
    raw: List[Tuple[float, str, str, str, int, float]] = []
    for spec in scenario.tenants:
        rng = random.Random(f"{seed}:{scenario.name}:{spec.name}")
        rate_per_cycle = rps * spec.share / (freq_ghz * 1e9)
        sla_cycles = spec.sla_ms * cycles_per_ms
        for arrival in _tenant_arrivals(
            spec, rate_per_cycle, horizon, cycles_per_ms, rng
        ):
            model = _pick_model(rng, spec.models)
            raw.append(
                (arrival, spec.name, model, spec.world, spec.priority,
                 sla_cycles)
            )
    raw.sort(key=lambda item: (item[0], item[1]))
    return [
        Request(
            rid=rid, tenant=tenant, model=model, world=world,
            arrival=arrival, priority=priority, sla_cycles=sla_cycles,
        )
        for rid, (arrival, tenant, model, world, priority, sla_cycles)
        in enumerate(raw)
    ]
