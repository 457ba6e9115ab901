"""net.retrieve and sim.run_simulation drive one protocol.Retrieval core,
so on one schedule they make the same decisions; a disagreement is a
defect of one of the two drivers."""

import random

from test_net import delay_queries, shutdown, start_cluster

from staircase_pir import net, protocol
from staircase_pir.params import SchemeParams
from staircase_pir.sim import LatencyModel, SimConfig, run_simulation


def test_loopback_and_simulator_decode_alike_on_one_schedule(monkeypatch):
    # (3,2,1) waiting for 2: servers 2 and 3 answer their QUERY 60 and 120
    # ms late on loopback, as latencies of 1, 60 and 120 ms do in virtual
    # time. Both decode at mu = 2 from servers 1 and 2, once server 2 is in.
    params = SchemeParams(n=3, k=2, t=1, m=2, q=257)
    V = protocol.default_encoding_matrix(params)
    rng = random.Random(4)
    files = [[rng.randrange(params.q) for _ in range(params.file_symbols)]
             for _ in range(params.m)]
    plans = []
    decode = protocol.decode_file
    monkeypatch.setattr(protocol, "decode_file",
                        lambda *args: plans.append(args[2]) or decode(*args))
    servers, endpoints = start_cluster(params, V, files)
    delay_queries(monkeypatch, {servers[1]: 0.06, servers[2]: 0.12})
    try:
        decoded, metrics = net.retrieve(endpoints, params, V, 1, wait_for=2, deadline_s=5)
    finally:
        shutdown(servers)
    latencies = tuple(LatencyModel("deterministic", ms) for ms in (1, 60, 120))
    (simulated,) = run_simulation(SimConfig(params, latencies, wait_for=2))
    assert decoded == files[0] and simulated.success
    assert metrics.outcomes == {1: "ok", 2: "ok", 3: "late"}
    loopback, virtual = plans
    assert loopback == virtual and loopback.responders == (1, 2)
    assert (metrics.rate, metrics.symbols) == (simulated.rate, simulated.symbols)
    assert metrics.wait_s >= 0.06 and simulated.wait_us >= 60_000
