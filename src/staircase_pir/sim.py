"""Event-driven straggler simulation of an n-server retrieval.

Sampled latencies drive protocol.ResponderWait, the responder policy of
net.retrieve, under the same two values: how many servers to wait for
(`wait_for`, None for all n) and how long (`deadline_ms`, None for no
cutoff). Latency is modeled per whole server response: once a
server answers, all of its prefix columns are fetchable, so none drops
mid-fetch. The simulated clock is integer microseconds and events are
ordered by (time, server id), so runs are fully deterministic under a
fixed seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

from . import protocol
from .errors import InsufficientResponders
from .field import Matrix
from .params import SchemeParams

UNRESPONSIVE = math.inf


@dataclass(frozen=True)
class LatencyModel:
    """Per-server response latency distribution, in milliseconds."""

    kind: str  # "deterministic" | "exponential" | "unresponsive"
    value: float = 0.0  # delay for deterministic, mean for exponential, p for unresponsive
    fallback: Optional["LatencyModel"] = None

    @classmethod
    def deterministic(cls, delay_ms: float) -> "LatencyModel":
        if not 0 < delay_ms < math.inf:  # NaN too
            raise ValueError("delay must be positive and finite")
        return cls("deterministic", delay_ms)

    @classmethod
    def exponential(cls, mean_ms: float) -> "LatencyModel":
        if not 0 < mean_ms < math.inf:  # NaN too
            raise ValueError("mean must be positive and finite")
        return cls("exponential", mean_ms)

    @classmethod
    def unresponsive(cls, p: float, fallback: "LatencyModel") -> "LatencyModel":
        if not 0 <= p <= 1:
            raise ValueError("p must be in [0, 1]")
        return cls("unresponsive", p, fallback)

    def sample_us(self, rng: random.Random) -> float:
        """Latency in integer microseconds (or inf if never responding)."""
        if self.kind == "deterministic":
            return int(round(self.value * 1000))
        if self.kind == "exponential":
            return max(1, int(round(rng.expovariate(1.0 / self.value) * 1000)))
        if self.kind == "unresponsive":
            if rng.random() < self.value:
                return UNRESPONSIVE
            return self.fallback.sample_us(rng)
        raise ValueError(f"unknown latency kind {self.kind}")


@dataclass(frozen=True)
class SimConfig:
    params: SchemeParams
    latencies: tuple  # one LatencyModel per server
    wait_for: Optional[int] = None  # None: all n
    deadline_ms: Optional[float] = None  # None: no cutoff
    seed: int = 0
    repetitions: int = 1
    file_index: int = 1

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
    capacity: Optional[Fraction]
    success: bool


def run_simulation(config: SimConfig, V: Optional[Matrix] = None) -> List[SimMetrics]:
    params = config.params
    if V is None:
        V = protocol.default_encoding_matrix(params)
    rng = random.Random(config.seed)
    db = protocol.Database(params, [rng.randrange(params.q) for _ in range(params.x_length)])
    expected = db.file_content(config.file_index)
    results = []
    for _ in range(config.repetitions):
        wait = config.responder_wait()
        arrivals = sorted(
            (model.sample_us(rng), sid) for sid, model in enumerate(config.latencies, 1)
        )
        for at, sid in arrivals:
            # An unresponsive server never settles, not even by a cutoff of inf.
            if at == UNRESPONSIVE or at > wait.deadline:
                break
            wait.settle(sid, at)
        try:
            responders = wait.responders()
        except InsufficientResponders:
            results.append(SimMetrics(len(wait.arrived), wait.ended, 0, None, None, False))
            continue
        plan = protocol.plan_download(params, responders)
        queries = protocol.make_queries(
            params, V, config.file_index, seed=rng.random(), columns=plan.prefix_cols)
        responses = {
            sid: protocol.server_respond(db, queries[sid - 1], range(plan.prefix_cols))
            for sid in responders
        }
        decoded = protocol.decode_file(params, V, plan, responses)
        results.append(SimMetrics(
            realized_mu=plan.mu, wait_us=wait.ended, symbols=plan.total_symbols,
            rate=plan.rate, capacity=protocol.capacity_asymptotic(params.t, plan.mu),
            success=decoded == expected,
        ))
    return results


def sweep(configs: Sequence[SimConfig], V: Optional[Matrix] = None) -> List[dict]:
    """One summary record per config, keyed config_id, wait_for,
    deadline_ms, repetitions, mean_wait_ms, mean_symbols, rate and
    success_fraction; deterministic under fixed seeds."""
    records = []
    for idx, config in enumerate(configs):
        metrics = run_simulation(config, V)
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
