"""Event-driven straggler simulation of an n-server retrieval.

Sampled latencies drive protocol.Retrieval, the core whose decisions
net.retrieve also follows, in virtual time under the same two values:
how many servers to wait for (`wait_for`, None for all n) and how long
(`deadline_ms`, None for no cutoff). Every server connects and is sent
its QUERY at 0 and acknowledges at its latency. Latency is modeled per
whole server response: once a server has acknowledged, it answers each
FETCH at once, so all of its prefix columns are fetchable and none
drops mid-fetch. The simulated clock is integer microseconds and
acknowledgements are ordered by (time, server id), so runs are fully
deterministic under a fixed seed. Every repetition retrieves file 1
under the scheme's default encoding matrix: neither which file is
requested nor V changes the wait or the download plan.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

from . import protocol
from .errors import InsufficientResponders
from .params import SchemeParams

UNRESPONSIVE = math.inf


@dataclass(frozen=True)
class LatencyModel:
    """Per-server response latency distribution, in milliseconds.

    A model is built from its kind and value, as in
    LatencyModel("exponential", 10.0) or LatencyModel("unresponsive", p,
    fallback), and checks itself then: a deterministic delay or an
    exponential mean must be positive and finite, an unresponsive model
    needs a p in [0, 1] and a fallback model, and any other kind is
    refused (ValueError in every case).
    """

    kind: str  # "deterministic" | "exponential" | "unresponsive"
    value: float = 0.0  # delay for deterministic, mean for exponential, p for unresponsive
    fallback: Optional["LatencyModel"] = None

    def __post_init__(self):
        if self.kind == "unresponsive":
            if not (0 <= self.value <= 1 and isinstance(self.fallback, LatencyModel)):
                raise ValueError("an unresponsive model needs a p in [0, 1] and a fallback")
        elif self.kind not in ("deterministic", "exponential"):
            raise ValueError(f"unknown latency kind {self.kind!r}")
        elif not 0 < self.value < math.inf:  # NaN too
            raise ValueError(f"{self.kind} latency must be positive and finite")

    def sample_us(self, rng: random.Random) -> float:
        """Latency in integer microseconds (or inf if never responding)."""
        if self.kind == "deterministic":
            return int(round(self.value * 1000))
        if self.kind == "exponential":
            return max(1, int(round(rng.expovariate(1.0 / self.value) * 1000)))
        return UNRESPONSIVE if rng.random() < self.value else self.fallback.sample_us(rng)


@dataclass(frozen=True)
class SimConfig:
    params: SchemeParams
    latencies: tuple  # one LatencyModel per server
    wait_for: Optional[int] = None  # None: all n
    deadline_ms: Optional[float] = None  # None: no cutoff
    seed: int = 0
    repetitions: int = 1

    def __post_init__(self):
        if len(self.latencies) != self.params.n:
            raise ValueError("need one latency model per server")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be at least 1, got {self.repetitions}")
        self.responder_wait()  # refuses a bad policy before any run

    def responder_wait(self) -> protocol.ResponderWait:
        """A fresh wait under this policy, on the microsecond clock."""
        cutoff = math.inf if self.deadline_ms is None else self.deadline_ms * 1000
        return protocol.ResponderWait(self.params, self.wait_for, cutoff)


@dataclass
class SimMetrics:
    realized_mu: int
    wait_us: float
    symbols: int
    rate: Optional[Fraction]
    success: bool


def run_simulation(config: SimConfig) -> List[SimMetrics]:
    params = config.params
    V = protocol.default_encoding_matrix(params)
    rng = random.Random(config.seed)
    db = protocol.Database(params, [rng.randrange(params.q) for _ in range(params.x_length)])
    expected = db.file_content(1)
    results = []
    for _ in range(config.repetitions):
        acks = sorted(
            (model.sample_us(rng), sid) for sid, model in enumerate(config.latencies, 1)
        )
        core = protocol.Retrieval(config.responder_wait(),
                                  protocol.make_queries(params, V, 1, seed=rng.random()))
        try:
            plan, responses = _retrieve(core, db, acks)
        except InsufficientResponders:
            results.append(SimMetrics(len(core.wait.arrived), core.wait.ended, 0, None, False))
            continue
        decoded = protocol.decode_file(params, V, plan, responses)
        results.append(SimMetrics(
            realized_mu=plan.mu, wait_us=core.wait.ended, symbols=plan.total_symbols,
            rate=plan.rate, success=decoded == expected,
        ))
    return results


def _retrieve(core: protocol.Retrieval, db: protocol.Database, acks: list):
    """Drive `core` through one retrieval in virtual time: every server
    connects and is queried at 0 and acknowledges at its latency, `acks`
    holding (latency, server id) in order. A server answers each FETCH at
    once if it has acknowledged, or with its acknowledgement, projecting
    what it was sent since it last answered. (plan, responses), as
    protocol.Retrieval.tick returns them, or InsufficientResponders."""
    held = {}  # what each server was sent and has not answered
    for sid in range(1, core.params.n + 1):
        core.connected(sid, 0)
    for sid in list(core.links.arrived):
        core.query(sid, 0)
    at = 0
    while True:
        done = core.tick(at)
        if done:
            return done
        for sid, first, subqueries in core.outbox:
            held[sid] = (held.get(sid, []) if first else []) + subqueries
        core.outbox.clear()
        due = [sid for sid in core.asked if sid in core.wait.arrived]
        for sid in due:
            core.answered(sid, protocol.server_respond(db, held.pop(sid)), at)
        if due:
            continue
        # An unresponsive server never acknowledges, not even at a wake-up of inf.
        if acks and acks[0][0] <= core.wakeup and acks[0][0] != UNRESPONSIVE:
            at, sid = acks.pop(0)
            core.acked(sid, at)
        else:
            at = core.wakeup


def sweep(configs: Sequence[SimConfig]) -> List[dict]:
    """One summary record per config, keyed config_id, wait_for,
    deadline_ms, repetitions, mean_wait_ms, mean_symbols, rate and
    success_fraction; deterministic under fixed seeds."""
    records = []
    for idx, config in enumerate(configs):
        metrics = run_simulation(config)
        ok = [m for m in metrics if m.success]
        # A config with no decoded run has no wait or rate: None, not NaN,
        # which JSON lacks.
        mean_wait = round(sum(m.wait_us for m in ok) / len(ok) / 1000, 3) if ok else None
        mean_symbols = sum(m.symbols for m in ok) / len(ok) if ok else 0
        rates = {str(m.rate) for m in ok}
        records.append({
            "config_id": idx, "wait_for": config.wait_for,
            "deadline_ms": config.deadline_ms,
            "repetitions": config.repetitions, "mean_wait_ms": mean_wait,
            "mean_symbols": mean_symbols,
            "rate": rates.pop() if len(rates) == 1 else "mixed" if rates else None,
            "success_fraction": len(ok) / len(metrics) if metrics else 0.0,
        })
    return records
