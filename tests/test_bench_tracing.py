"""The benchmark's tracer still fits the package.

`bench/tracing.py` replaces package functions by name and reads some of
their arguments and results by position (the sub-queries `encode_query`
encodes, the columns `encode_response` encodes, the columns
`decode_response` returns, the queries `make_queries` returns), and
derives every per-layer metric BENCHMARK.json declares from the spans. A
renamed function, a reshaped signature or a message flow without one of
those spans would otherwise show only when a traced benchmark run fails.
"""

import importlib.util
import json
import random
import sys
from pathlib import Path

from staircase_pir import net, wire
from staircase_pir.params import SchemeParams
from staircase_pir.protocol import Database, default_encoding_matrix

TRACING_PY = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
BENCHMARK_JSON = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


# The per-layer metrics the harness adds itself, outside retrieval_layers.
HARNESS_LAYERS = {"net.handshake_wait_ms", "ingest.ingest_dir_s", "trace.overhead_pct"}


def traced_retrieval(tracing, down, count=1):
    """(spans, decoded, file, metrics, params) of the last of `count`
    traced retrievals of file 2, one after another from a fresh cluster
    whose last `down` servers refuse."""
    params = SchemeParams(n=3, k=2, t=1, m=2, q=257, s=2)
    V = default_encoding_matrix(params)
    rng = random.Random(0)
    files = [
        [rng.randrange(params.q) for _ in range(params.file_symbols)]
        for _ in range(params.m)
    ]
    servers = [
        net.serve("127.0.0.1", 0, Database.from_files(params, files), params, V)
        for _ in range(params.n)
    ]
    endpoints = [srv.server_address for srv in servers]
    for srv in servers[params.n - down:]:
        srv.shutdown()
        srv.server_close()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for retrieval in range(1, count + 1):
            tracer.retrieval = retrieval
            # Through the module, as the benchmark calls it: the tracer wraps
            # module attributes, not names imported before it was installed.
            decoded, metrics = net.retrieve(endpoints, params, V, 2)
    finally:
        tracer.uninstall()
        for srv in servers[: params.n - down]:
            srv.shutdown()
            srv.server_close()
    spans = tracing.by_retrieval(tracer.spans)[count]
    return spans, decoded, files[1], metrics, params


def assert_layers_and_bytes(tracing, spans, metrics):
    """retrieval_layers yields every per-layer metric the benchmark
    declares but those the harness adds, and the traced frames are every
    byte the client's sockets moved."""
    declared = json.loads(BENCHMARK_JSON.read_text())["per_layer"]
    expected = {metric["name"] for metric in declared} - HARNESS_LAYERS
    assert expected <= set(tracing.retrieval_layers(spans))
    assert tracing.upload_download(spans) == (metrics.bytes_sent, metrics.bytes_received)


def test_traced_retrieval_decodes_and_counts_every_byte():
    tracing = load_tracing()
    spans, decoded, expected_file, metrics, params = traced_retrieval(tracing, down=0)
    assert decoded == expected_file

    # Every traced layer a retrieval with no failed server passes through.
    # "net.connect" wraps socket.create_connection, which net does not call:
    # it connects each socket itself, without blocking.
    expected = {
        name for _, _, name, _ in tracing.TARGETS
        if not name.startswith("ingest.") and not name.endswith("_error")
    } - {"net.connect"}
    assert expected <= {sp.name for sp in spans}
    assert not any(sp.attrs and "error" in sp.attrs for sp in spans)

    assert_layers_and_bytes(tracing, spans, metrics)
    layers = tracing.retrieval_layers(spans)
    assert layers["wire.frames.query"] == layers["wire.frames.ack"] == params.n
    assert layers["wire.frames.fetch"] == layers["wire.frames.response"] == params.n
    assert layers["protocol.query_symbols"] == (
        params.n * params.prefix_cols(params.n) * params.query_length
    )


def test_traced_retrieval_with_a_refused_server_counts_every_byte():
    tracing = load_tracing()
    spans, decoded, expected_file, metrics, params = traced_retrieval(tracing, down=1)
    assert decoded == expected_file
    assert metrics.outcomes == {1: "ok", 2: "ok", 3: "refused"}
    assert_layers_and_bytes(tracing, spans, metrics)
    layers = tracing.retrieval_layers(spans)
    # The two responders are each sent a QUERY, then a FETCH that tops
    # their prefix up from prefix_cols(3) to prefix_cols(2) columns.
    assert layers["wire.frames.query"] == layers["wire.frames.ack"] == 2
    assert layers["wire.frames.fetch"] == layers["wire.frames.response"] == 2


def test_a_traced_retrieval_over_reused_connections_counts_every_byte():
    # The second retrieval's QUERY goes without its head, and is still
    # encoded by wire.encode_query, where the tracer counts its bytes.
    tracing = load_tracing()
    spans, decoded, expected_file, metrics, params = traced_retrieval(tracing, 0, count=2)
    assert decoded == expected_file
    assert metrics.connects == 0
    assert tracing.upload_download(spans) == (metrics.bytes_sent, metrics.bytes_received)
    columns = [[0] * params.query_length] * params.prefix_cols(params.n)
    headless = len(wire.encode_query(params, bytes(32), 1, columns, False))
    queries = [sp.attrs["bytes"] for sp in spans if sp.name == "wire.encode_query"]
    assert queries == [headless] * params.n
