import gc
import random
import socket
import socketserver
import struct
import sys
import threading
import time
import warnings
from contextlib import suppress
from fractions import Fraction

import pytest

from staircase_pir.errors import (
    HandshakeMismatch,
    InsufficientResponders,
    OutOfRange,
    StaircasePIRError,
)
from staircase_pir import wire
from staircase_pir.net import SHUTDOWN_POLL_S, retrieve, serve
from staircase_pir.params import SchemeParams
from staircase_pir.protocol import (
    Database,
    default_encoding_matrix,
    make_queries,
    matrix_fingerprint,
)


def start_cluster(params, V, files, count=None):
    db = Database.from_files(params, files)
    servers = [
        serve("127.0.0.1", 0, db, params, V)
        for _ in range(count or params.n)
    ]
    endpoints = [srv.server_address for srv in servers]
    return servers, endpoints


def shutdown(servers):
    # In parallel: each shutdown waits out its serve loop's poll.
    threads = [threading.Thread(target=srv.shutdown) for srv in servers]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=5)
        assert not th.is_alive()
    for srv in servers:
        srv.server_close()


class _DropOnFetch(socketserver.BaseRequestHandler):
    """Acknowledges a QUERY, then closes the connection when the FETCH comes."""

    def handle(self):
        # The client may hang up first, once it has given up on this server.
        with self.request.makefile("rb") as reader, suppress(StaircasePIRError, OSError):
            wire.read_frame(reader)
            self.request.sendall(wire.encode_response(1, [], 257))
            wire.read_frame(reader)


class _StallOnFetch(socketserver.BaseRequestHandler):
    """Acknowledges a QUERY, then leaves the FETCH unanswered until released."""

    def handle(self):
        with self.request.makefile("rb") as reader, suppress(StaircasePIRError, OSError):
            wire.read_frame(reader)
            self.request.sendall(wire.encode_response(1, [], 257))
            wire.read_frame(reader)
            self.server.release.wait(10)


def serve_stub(handler=_DropOnFetch):
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    server.release = threading.Event()
    threading.Thread(
        target=server.serve_forever, args=(SHUTDOWN_POLL_S,), daemon=True
    ).start()
    return server


@pytest.fixture
def cluster321():
    params = SchemeParams(n=3, k=2, t=1, m=2, q=257, s=2)
    V = default_encoding_matrix(params)
    rng = random.Random(0)
    files = [
        [rng.randrange(params.q) for _ in range(params.file_symbols)]
        for _ in range(params.m)
    ]
    servers, endpoints = start_cluster(params, V, files)
    yield params, V, files, servers, endpoints
    shutdown(servers)


def test_retrieve_all_servers(cluster321):
    params, V, files, _, endpoints = cluster321
    for i in (1, 2):
        decoded, metrics = retrieve(endpoints, params, V, i, seed=i)
        assert decoded == files[i - 1]
        assert metrics.realized_mu == 3
        assert metrics.rate == Fraction(2, 3)


def test_retrieve_survives_dead_server(cluster321):
    params, V, files, servers, endpoints = cluster321
    servers[2].shutdown()
    servers[2].server_close()
    decoded, metrics = retrieve(endpoints, params, V, 1, deadline_s=0.5, seed=3)
    assert decoded == files[0]
    assert metrics.realized_mu == 2
    assert metrics.rate == Fraction(1, 2)


def test_retrieve_returns_once_every_server_settled(cluster321):
    params, V, files, servers, endpoints = cluster321
    shutdown(servers[2:])
    start = time.monotonic()
    decoded, metrics = retrieve(endpoints, params, V, 1, deadline_s=5, seed=3)
    assert time.monotonic() - start < 1
    assert decoded == files[0]
    assert metrics.realized_mu == 2
    assert metrics.outcomes == {1: "ok", 2: "ok", 3: "refused"}


def test_retrieve_replans_when_a_responder_drops_mid_fetch(cluster321):
    params, V, files, _, endpoints = cluster321
    stub = serve_stub()
    try:
        decoded, metrics = retrieve(
            endpoints[:2] + [stub.server_address], params, V, 2, deadline_s=5, seed=6
        )
    finally:
        shutdown([stub])
    assert decoded == files[1]
    assert metrics.realized_mu == 2
    assert metrics.rate == Fraction(1, 2)
    assert metrics.outcomes == {1: "ok", 2: "ok", 3: "dropped-mid-fetch"}


def test_retrieve_drops_a_responder_that_stalls_on_fetch(cluster321):
    params, V, files, _, endpoints = cluster321
    stub = serve_stub(_StallOnFetch)
    try:
        start = time.monotonic()
        decoded, metrics = retrieve(
            endpoints[:2] + [stub.server_address], params, V, 1, deadline_s=0.3, seed=5
        )
        elapsed = time.monotonic() - start
    finally:
        stub.release.set()
        shutdown([stub])
    # The FETCH is bounded by the deadline, not by the 5 s connect timeout.
    assert elapsed < 1.5
    assert decoded == files[0]
    assert metrics.realized_mu == 2
    assert metrics.outcomes == {1: "ok", 2: "ok", 3: "dropped-mid-fetch"}


def test_server_shutdown_returns_within_its_poll():
    params = SchemeParams(n=3, k=2, t=1, m=2, q=257)
    db = Database(params, [0] * params.x_length)
    server = serve("127.0.0.1", 0, db, params, default_encoding_matrix(params))
    start = time.monotonic()
    server.shutdown()
    elapsed = time.monotonic() - start
    server.server_close()
    assert elapsed < 0.2


def test_retrieve_raises_when_drops_leave_fewer_than_k(cluster321):
    params, V, _, _, endpoints = cluster321
    stubs = [serve_stub() for _ in range(2)]
    try:
        with pytest.raises(InsufficientResponders):
            retrieve(
                endpoints[:1] + [stub.server_address for stub in stubs],
                params, V, 1, deadline_s=5, seed=7,
            )
    finally:
        shutdown(stubs)


def test_retrieve_replans_under_frequent_thread_switches():
    # The workers share their state under one condition; switching threads
    # every few microseconds would expose a lost update or a missed wake-up.
    params = SchemeParams(n=4, k=2, t=1, m=2, q=257, s=2)
    V = default_encoding_matrix(params)
    rng = random.Random(1)
    files = [[rng.randrange(params.q) for _ in range(params.file_symbols)]
             for _ in range(params.m)]
    servers, endpoints = start_cluster(params, V, files, count=3)
    stub = serve_stub()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        start = time.monotonic()
        for trial in range(20):
            i = trial % params.m + 1
            decoded, metrics = retrieve(
                endpoints + [stub.server_address], params, V, i, deadline_s=5, seed=trial
            )
            assert decoded == files[i - 1]
            assert metrics.outcomes == {1: "ok", 2: "ok", 3: "ok", 4: "dropped-mid-fetch"}
        assert time.monotonic() - start < 20
    finally:
        sys.setswitchinterval(interval)
        shutdown(servers + [stub])


def test_retrieve_wait_for_reports_the_rest_late(cluster321):
    params, V, files, _, endpoints = cluster321
    decoded, metrics = retrieve(
        endpoints, params, V, 1, strategy="wait_for", wait_for=2, seed=8
    )
    assert decoded == files[0]
    assert sorted(metrics.outcomes.values()) == ["late", "ok", "ok"]


def test_retrieve_wait_for_subset(cluster321):
    params, V, files, _, endpoints = cluster321
    decoded, metrics = retrieve(
        endpoints, params, V, 2, strategy="wait_for", wait_for=2, seed=4
    )
    assert decoded == files[1]
    assert metrics.realized_mu == 2
    assert metrics.symbols == params.s * 2 * params.prefix_cols(2)


def test_retrieve_insufficient_responders(cluster321):
    params, V, _, servers, endpoints = cluster321
    for srv in servers[1:]:
        srv.shutdown()
        srv.server_close()
    with pytest.raises(InsufficientResponders):
        retrieve(endpoints, params, V, 1, deadline_s=0.3, seed=0)


def test_handshake_rejects_mismatched_params(cluster321):
    params, _, _, _, endpoints = cluster321
    other = SchemeParams(n=3, k=2, t=1, m=2, q=257, s=1)
    W = default_encoding_matrix(other)
    with pytest.raises(HandshakeMismatch):
        retrieve(endpoints, other, W, 1, deadline_s=0.5, seed=0)


def test_refused_handshakes_close_their_sockets(cluster321):
    params, _, _, _, endpoints = cluster321
    other = SchemeParams(n=3, k=2, t=1, m=2, q=257, s=1)
    W = default_encoding_matrix(other)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(HandshakeMismatch):
            retrieve(endpoints, other, W, 1, deadline_s=0.5, seed=0)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def exchange(sock, frame):
    """Send one frame and read the one reply (the server sends nothing else)."""
    sock.sendall(frame)
    with sock.makefile("rb") as reader:
        return wire.read_frame(reader)


@pytest.mark.parametrize("field,value", [(0, 65536), (3, 0)])
def test_server_answers_hostile_query_header(cluster321, field, value):
    params, V, _, _, endpoints = cluster321
    header = [params.n, params.k, params.t, params.m, params.q, params.s]
    header[field] = value
    payload = (
        struct.pack("<6Q", *header)
        + matrix_fingerprint(params, V)
        + struct.pack("<2Q", 1, params.alpha)
    )
    with socket.create_connection(endpoints[0], timeout=2) as sock:
        start = time.monotonic()
        msg_type, reply = exchange(sock, wire.pack_frame(wire.MSG_QUERY, payload))
        assert time.monotonic() - start < 1
    assert msg_type == wire.MSG_ERROR
    assert wire.decode_error(reply)[0] == wire.ERR_HANDSHAKE


def test_new_query_replaces_the_session(cluster321):
    params, V, _, _, endpoints = cluster321
    fp = matrix_fingerprint(params, V)
    subqueries = make_queries(params, V, 1, seed=0)[0].subqueries
    query = wire.encode_query(params, fp, 1, subqueries)
    with socket.create_connection(endpoints[0], timeout=2) as sock:
        first, _ = wire.decode_response(exchange(sock, query)[1], 0, params.q)
        second, _ = wire.decode_response(exchange(sock, query)[1], 0, params.q)
        msg_type, reply = exchange(sock, wire.encode_fetch(first, [0]))
        assert msg_type == wire.MSG_ERROR
        assert wire.decode_error(reply)[0] == wire.ERR_BAD_SESSION
        msg_type, reply = exchange(sock, wire.encode_fetch(second, [0]))
        assert msg_type == wire.MSG_RESPONSE
        assert wire.decode_response(reply, params.s, params.q)[0] == second


def test_endpoint_count_checked(cluster321):
    params, V, _, _, endpoints = cluster321
    with pytest.raises(ValueError):
        retrieve(endpoints[:2], params, V, 1)


@pytest.mark.parametrize("deadline_s", [0, -1])
def test_deadline_must_be_positive(cluster321, deadline_s):
    params, V, _, _, endpoints = cluster321
    with pytest.raises(OutOfRange):
        retrieve(endpoints, params, V, 1, deadline_s=deadline_s)


@pytest.mark.parametrize("excess", [1, 2**40])
def test_server_refuses_oversized_frame(cluster321, excess):
    params, V, files, _, endpoints = cluster321
    length = wire.max_request_payload(params) + excess
    with socket.create_connection(endpoints[0], timeout=2) as sock:
        # A QUERY header announcing more than the largest legitimate frame,
        # and no payload: the server closes without waiting for one.
        sock.sendall(struct.pack("<4sBBQ", wire.MAGIC, wire.VERSION, wire.MSG_QUERY, length))
        assert sock.recv(1) == b""
    decoded, _ = retrieve(endpoints, params, V, 1, seed=0)
    assert decoded == files[0]


def test_server_refuses_repeated_fetch_columns():
    # The scheme of the bulk benchmark, where a FETCH of 580 columns still
    # fits under the frame cap.
    params = SchemeParams(n=4, k=2, t=1, m=64, q=257, s=1)
    V = default_encoding_matrix(params)
    files = [[i % params.q] * params.file_symbols for i in range(params.m)]
    servers, endpoints = start_cluster(params, V, files, count=1)
    fp = matrix_fingerprint(params, V)
    subqueries = make_queries(params, V, 1, seed=0)[0].subqueries
    try:
        with socket.create_connection(endpoints[0], timeout=2) as sock:
            ack = exchange(sock, wire.encode_query(params, fp, 1, subqueries))[1]
            session, _ = wire.decode_response(ack, 0, params.q)
            for columns in ([0] * 580, [0, 0]):
                msg_type, reply = exchange(sock, wire.encode_fetch(session, columns))
                assert msg_type == wire.MSG_ERROR
                assert wire.decode_error(reply)[0] == wire.ERR_MALFORMED
            columns = list(range(params.alpha))
            msg_type, reply = exchange(sock, wire.encode_fetch(session, columns))
            assert msg_type == wire.MSG_RESPONSE
            assert len(wire.decode_response(reply, params.s, params.q)[1]) == params.alpha
    finally:
        shutdown(servers)
