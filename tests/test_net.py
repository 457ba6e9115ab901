import gc
import itertools
import math
import random
import socket
import socketserver
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
from staircase_pir import net, protocol, wire
from staircase_pir.net import SHUTDOWN_POLL_S, retrieve, serve
from staircase_pir.params import SchemeParams
from staircase_pir.protocol import (
    Database,
    default_encoding_matrix,
    make_queries,
    matrix_fingerprint,
)


PARAMS321 = SchemeParams(n=3, k=2, t=1, m=2, q=257, s=2)
FP321 = matrix_fingerprint(PARAMS321, default_encoding_matrix(PARAMS321))


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


class _TrickleOnFetch(socketserver.BaseRequestHandler):
    """Acknowledges a QUERY of the cluster321 scheme, then sends the FETCH's
    RESPONSE one byte every 50 ms until released."""

    def handle(self):
        with self.request.makefile("rb") as reader, suppress(StaircasePIRError, OSError):
            _, held = wire.decode_query(wire.read_frame(reader)[1], PARAMS321, FP321)
            self.request.sendall(wire.encode_response(1, [], 257))
            payload = wire.read_frame(reader)[1]
            _, columns, _ = wire.decode_fetch(payload, PARAMS321, len(held))
            reply = wire.encode_response(1, [[0] * 2] * len(columns), 257)
            for i in range(len(reply)):
                if self.server.release.wait(0.05):
                    return
                self.request.sendall(reply[i : i + 1])


class _HugeReply(socketserver.BaseRequestHandler):
    """Answers a QUERY with a RESPONSE header announcing 2**40 bytes, then
    stalls until released."""

    def handle(self):
        with self.request.makefile("rb") as reader, suppress(StaircasePIRError, OSError):
            wire.read_frame(reader)
            self.request.sendall(wire.frame_header(wire.MSG_RESPONSE, 1 << 40))
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
    params = PARAMS321
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
    # The FETCH is bounded by the deadline.
    assert elapsed < 1.5
    assert decoded == files[0]
    assert metrics.realized_mu == 2
    assert metrics.outcomes == {1: "ok", 2: "ok", 3: "dropped-mid-fetch"}


def test_retrieve_bounds_a_trickled_fetch_by_the_deadline(cluster321):
    params, V, files, _, endpoints = cluster321
    stub = serve_stub(_TrickleOnFetch)
    try:
        start = time.monotonic()
        decoded, metrics = retrieve(
            endpoints[:2] + [stub.server_address], params, V, 2, deadline_s=0.3, seed=5
        )
        elapsed = time.monotonic() - start
    finally:
        stub.release.set()
        shutdown([stub])
    # Bytes keep arriving, but the FETCH round trip as a whole outlives the
    # deadline, so the stub is dropped.
    assert elapsed < 1
    assert decoded == files[1]
    assert metrics.outcomes == {1: "ok", 2: "ok", 3: "dropped-mid-fetch"}


def test_retrieve_refuses_a_reply_larger_than_any_response(cluster321):
    params, V, files, _, endpoints = cluster321
    stub = serve_stub(_HugeReply)
    try:
        start = time.monotonic()
        decoded, metrics = retrieve(
            endpoints[:2] + [stub.server_address], params, V, 1, deadline_s=3, seed=5
        )
        elapsed = time.monotonic() - start
    finally:
        stub.release.set()
        shutdown([stub])
    # The header is refused as it arrives, not waited on until the deadline.
    assert elapsed < 1
    assert decoded == files[0]
    assert metrics.outcomes == {1: "ok", 2: "ok", 3: "error"}


def test_idle_connections_do_not_pin_server_threads(cluster321):
    params, V, files, _, endpoints = cluster321
    half_header = wire.pack_frame(wire.MSG_QUERY, b"")[:7]
    before = threading.active_count()
    idle = []
    try:
        for n in range(20):
            idle.append(socket.create_connection(endpoints[0], timeout=2))
            if n % 2:
                idle[-1].sendall(half_header)
        # The server accepts connections in order, so it holds all 20 by
        # the time it answers this retrieval.
        decoded, _ = retrieve(endpoints, params, V, 1, seed=0)
        assert decoded == files[0]
        assert threading.active_count() <= before
    finally:
        for sock in idle:
            sock.close()


def test_query_encoded_only_for_servers_that_accept(cluster321, monkeypatch):
    params, V, files, servers, endpoints = cluster321
    shutdown(servers[2:])
    encoded = []
    encode_query = wire.encode_query

    def counting(*args):
        encoded.append(args[2])
        return encode_query(*args)

    monkeypatch.setattr(wire, "encode_query", counting)
    decoded, metrics = retrieve(endpoints, params, V, 1, seed=2)
    assert decoded == files[0]
    assert sorted(encoded) == [1, 2]
    assert metrics.outcomes[3] == "refused"


def test_retrieve_tries_each_address_of_a_host_name(cluster321, monkeypatch):
    params, V, files, _, endpoints = cluster321
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        dead = probe.getsockname()
    getaddrinfo = socket.getaddrinfo

    def dead_address_first(*args):
        # Each name resolves to a closed port before the server's own address.
        found = getaddrinfo(*args)
        return [(*found[0][:4], dead)] + found

    monkeypatch.setattr(socket, "getaddrinfo", dead_address_first)
    named = [("localhost", port) for _, port in endpoints]
    decoded, metrics = retrieve(named, params, V, 2, seed=1)
    assert decoded == files[1]
    assert metrics.outcomes == {1: "ok", 2: "ok", 3: "ok"}


def test_server_survives_a_fault_on_one_connection(cluster321, monkeypatch, capsys):
    params, V, files, _, endpoints = cluster321

    def faulty(*args):
        raise RuntimeError("projection fault")

    monkeypatch.setattr(protocol, "server_respond", faulty)
    with pytest.raises(InsufficientResponders):
        retrieve(endpoints, params, V, 1, seed=0)
    monkeypatch.undo()
    decoded, _ = retrieve(endpoints, params, V, 1, seed=0)
    assert decoded == files[0]
    assert "RuntimeError: projection fault" in capsys.readouterr().err


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
    # The client loop runs against four serving threads; switching threads
    # every few microseconds would expose a frame split at any byte or a
    # drop handled out of turn.
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
        endpoints, params, V, 1, wait_for=2, seed=8
    )
    assert decoded == files[0]
    assert sorted(metrics.outcomes.values()) == ["late", "ok", "ok"]


def test_retrieve_wait_for_subset(cluster321):
    params, V, files, _, endpoints = cluster321
    decoded, metrics = retrieve(
        endpoints, params, V, 2, wait_for=2, seed=4
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
        wire.pack_varints(header)
        + matrix_fingerprint(params, V)
        + wire.pack_varints([1, params.alpha])
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


@pytest.mark.parametrize("deadline_s", [0, -1, math.inf, 1e9])
def test_deadline_must_be_positive(cluster321, monkeypatch, deadline_s):
    # No more than MAX_DEADLINE_S either: a selector cannot wait that long.
    params, V, _, _, endpoints = cluster321
    resolved = []
    monkeypatch.setattr(socket, "getaddrinfo", lambda *args: resolved.append(args))
    with pytest.raises(OutOfRange):
        retrieve(endpoints, params, V, 1, deadline_s=deadline_s)
    assert resolved == []  # refused before any connect


@pytest.mark.parametrize("excess", [1, 2**40])
def test_server_refuses_oversized_frame(cluster321, excess):
    params, V, files, _, endpoints = cluster321
    length = wire.max_request_payload(params) + excess
    with socket.create_connection(endpoints[0], timeout=2) as sock:
        # A QUERY header announcing more than the largest legitimate frame,
        # and no payload: the server closes without waiting for one.
        sock.sendall(wire.frame_header(wire.MSG_QUERY, length))
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


@pytest.fixture
def spied_projections(monkeypatch):
    """The number of times any server has projected, as a one-item list."""
    calls = [0]
    project = Database.project

    def counting(self, qvec):
        calls[0] += 1
        return project(self, qvec)

    monkeypatch.setattr(Database, "project", counting)
    return calls


def open_session(sock, params, V, count):
    """Send a QUERY of the first `count` sub-queries of server 1's query for
    file 1; that query, with all alpha sub-queries, and the acknowledged
    session id."""
    query = make_queries(params, V, 1, seed=0)[0]
    frame = wire.encode_query(
        params, matrix_fingerprint(params, V), 1, query.subqueries[:count])
    session, _ = wire.decode_response(exchange(sock, frame)[1], 0, params.q)
    return query, session


@pytest.fixture
def server421():
    """One server of a (4,2,1) scheme, whose QUERY at mu = n holds 2 of its
    6 sub-queries."""
    params = SchemeParams(n=4, k=2, t=1, m=2, q=257, s=2)
    V = default_encoding_matrix(params)
    files = [[i] * params.file_symbols for i in range(params.m)]
    servers, endpoints = start_cluster(params, V, files, count=1)
    yield params, V, endpoints[0]
    shutdown(servers)


@pytest.mark.parametrize("columns,added", [
    ([0, 1, 2, 3], [2]),  # too few sub-queries for the columns it adds
    ([0, 1, 2], [2, 3]),  # too many
    ([2], []),  # a column past the held prefix, without its sub-query
    ([3], [3]),  # a sub-query for a column that skips column 2
], ids=["short", "long", "missing", "gap"])
def test_server_refuses_a_fetch_whose_sub_queries_do_not_match_its_columns(
        server421, spied_projections, columns, added):
    params, V, endpoint = server421
    with socket.create_connection(endpoint, timeout=2) as sock:
        query, session = open_session(sock, params, V, 2)
        subqueries = [query.subqueries[c] for c in added]
        frame = wire.encode_fetch(session, columns, subqueries, params)
        msg_type, reply = exchange(sock, frame)
    assert msg_type == wire.MSG_ERROR
    assert wire.decode_error(reply)[0] == wire.ERR_MALFORMED
    assert spied_projections == [0]


@pytest.mark.parametrize("count", [0, 7, 2**40])
def test_server_refuses_a_query_count_outside_1_to_alpha(
        server421, spied_projections, count):
    # No symbols follow the count: it is refused before any is read.
    params, V, endpoint = server421
    payload = (wire.pack_varints([params.n, params.k, params.t, params.m, params.q, params.s])
               + matrix_fingerprint(params, V) + wire.pack_varints([1, count]))
    with socket.create_connection(endpoint, timeout=2) as sock:
        msg_type, reply = exchange(sock, wire.pack_frame(wire.MSG_QUERY, payload))
        assert msg_type == wire.MSG_ERROR
        assert wire.decode_error(reply)[0] == wire.ERR_MALFORMED
        # The connection still serves a FETCH topping up a good QUERY.
        query, session = open_session(sock, params, V, 1)
        frame = wire.encode_fetch(session, [0, 1, 2], query.subqueries[1:3], params)
        msg_type, reply = exchange(sock, frame)
    assert msg_type == wire.MSG_RESPONSE
    assert len(wire.decode_response(reply, params.s, params.q)[1]) == 3
    assert spied_projections == [3]


def test_replan_tops_up_only_the_columns_the_survivors_lack(cluster321, monkeypatch):
    params, V, files, servers, endpoints = cluster321
    received = {id(srv): [] for srv in servers}
    dispatch = net.PIRServer._dispatch

    def recording(self, conn, msg_type, payload):
        received[id(self)].append((msg_type, payload))
        return dispatch(self, conn, msg_type, payload)

    monkeypatch.setattr(net.PIRServer, "_dispatch", recording)
    stub = serve_stub()
    try:
        decoded, metrics = retrieve(
            endpoints[:2] + [stub.server_address], params, V, 2, deadline_s=5, seed=6
        )
    finally:
        shutdown([stub])
    assert decoded == files[1]
    assert metrics.outcomes == {1: "ok", 2: "ok", 3: "dropped-mid-fetch"}
    first, full = params.prefix_cols(3), params.prefix_cols(2)
    fp = matrix_fingerprint(params, V)
    for sid, srv in enumerate(servers[:2], start=1):
        expected = make_queries(params, V, 2, seed=6)[sid - 1].subqueries
        (_, query), (_, fetch), (_, top_up) = received[id(srv)]
        assert wire.decode_query(query, params, fp)[1] == expected[:first]
        assert wire.decode_fetch(fetch, params, first)[1:] == (list(range(first)), [])
        assert wire.decode_fetch(top_up, params, first)[1:] == (
            list(range(first, full)), expected[first:full])


@pytest.mark.parametrize("wait_for", [1, 4])
def test_retrieve_refuses_wait_for_outside_k_to_n(cluster321, monkeypatch, wait_for):
    params, V, _, _, endpoints = cluster321
    resolved = []
    monkeypatch.setattr(socket, "getaddrinfo", lambda *args: resolved.append(args))
    with pytest.raises(OutOfRange):
        retrieve(endpoints, params, V, 1, wait_for=wait_for)
    assert resolved == []  # refused before any connect


def test_retrieve_reports_the_deadline_it_waited_out(cluster321):
    params, V, files, _, endpoints = cluster321
    # Accepts connections in its backlog but never answers them.
    with socket.create_server(("127.0.0.1", 0)) as silent:
        start = time.monotonic()
        decoded, metrics = retrieve(
            endpoints[:2] + [silent.getsockname()], params, V, 1, deadline_s=0.3, seed=2
        )
        elapsed = time.monotonic() - start
    assert decoded == files[0]
    assert metrics.outcomes == {1: "ok", 2: "ok", 3: "late"}
    assert 0.3 <= metrics.wait_s <= elapsed


@pytest.mark.parametrize("down", [0, 1])
def test_retrieval_bytes_are_the_frames_encoded(cluster321, monkeypatch, down):
    # What the client's sockets wrote and read is exactly the frames the
    # wire encoders built, so counting at the encoders misses no byte.
    params, V, files, servers, endpoints = cluster321
    shutdown(servers[params.n - down:])
    frames = {"query": 0, "fetch": 0, "response": 0, "error": 0}

    def counting(kind, encode):
        def wrapped(*args):
            frame = encode(*args)
            frames[kind] += len(frame)
            return frame
        return wrapped

    for kind in frames:
        name = f"encode_{kind}"
        monkeypatch.setattr(wire, name, counting(kind, getattr(wire, name)))
    decoded, metrics = retrieve(endpoints, params, V, 2, seed=3)
    assert decoded == files[1]
    assert metrics.realized_mu == params.n - down
    assert frames["query"] and frames["fetch"] and frames["response"]
    assert metrics.bytes_sent == frames["query"] + frames["fetch"]
    assert metrics.bytes_received == frames["response"] + frames["error"]


def test_session_ids_wrap_at_the_u32_limit(cluster321):
    params, V, files, servers, endpoints = cluster321
    for srv in servers:
        srv.session_counter = itertools.count(wire.SESSION_IDS - 2)
    fp = matrix_fingerprint(params, V)
    query = wire.encode_query(params, fp, 1, make_queries(params, V, 1, seed=0)[0].subqueries)
    with socket.create_connection(endpoints[0], timeout=2) as sock:
        sessions = [wire.decode_response(exchange(sock, query)[1], 0, params.q)[0]
                    for _ in range(3)]
        assert sessions == [wire.SESSION_IDS - 2, wire.SESSION_IDS - 1, 0]
        msg_type, reply = exchange(sock, wire.encode_fetch(0, [0]))
        assert msg_type == wire.MSG_RESPONSE
        assert wire.decode_response(reply, params.s, params.q)[0] == 0
    # The other servers hand out 2**32 - 2, 2**32 - 1 and 0 to these retrievals.
    for i in (1, 2, 1):
        decoded, _ = retrieve(endpoints, params, V, i, seed=i)
        assert decoded == files[i - 1]
