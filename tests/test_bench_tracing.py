"""The benchmark's tracer still fits the package.

`bench/tracing.py` replaces package functions by name and reads some of
their arguments and results by position (the sub-queries `encode_query`
encodes, the columns `encode_response` encodes, the columns
`decode_response` returns, the queries `make_queries` returns). A renamed
function or a reshaped signature would otherwise show only when a traced
benchmark run fails.
"""

import importlib.util
import random
import sys
from pathlib import Path

from staircase_pir import net
from staircase_pir.params import SchemeParams
from staircase_pir.protocol import Database, default_encoding_matrix

TRACING_PY = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_traced_retrieval_decodes_and_counts_every_byte():
    tracing = load_tracing()
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
    tracer = tracing.Tracer()
    try:
        tracer.retrieval = 1
        tracer.install()
        # Through the module, as the benchmark calls it: the tracer wraps
        # module attributes, not names imported before it was installed.
        decoded, metrics = net.retrieve(
            [srv.server_address for srv in servers], params, V, 2, seed=3
        )
    finally:
        tracer.uninstall()
        for srv in servers:
            srv.shutdown()
            srv.server_close()
    assert decoded == files[1]

    spans = tracing.by_retrieval(tracer.spans)[1]
    # Every traced layer a retrieval with no failed server passes through.
    # "net.connect" wraps socket.create_connection, which net does not call:
    # it connects each socket itself, without blocking.
    expected = {
        name for _, _, name, _ in tracing.TARGETS
        if not name.startswith("ingest.") and not name.endswith("_error")
    } - {"net.connect"}
    assert expected <= {sp.name for sp in spans}
    assert not any(sp.attrs and "error" in sp.attrs for sp in spans)

    assert tracing.upload_download(spans) == (metrics.bytes_sent, metrics.bytes_received)
    layers = tracing.retrieval_layers(spans)
    assert layers["wire.frames.query"] == layers["wire.frames.ack"] == params.n
    assert layers["wire.frames.fetch"] == layers["wire.frames.response"] == params.n
    assert layers["protocol.query_symbols"] == (
        params.n * params.prefix_cols(params.n) * params.query_length
    )
