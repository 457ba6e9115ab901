import gc
import math
import os
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

from framing import read_frame
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
            read_frame(reader)
            self.request.sendall(wire.encode_response(257, []))
            read_frame(reader)


class _StallOnFetch(socketserver.BaseRequestHandler):
    """Acknowledges a QUERY, then leaves the FETCH unanswered until released."""

    def handle(self):
        with self.request.makefile("rb") as reader, suppress(StaircasePIRError, OSError):
            read_frame(reader)
            self.request.sendall(wire.encode_response(257, []))
            read_frame(reader)
            self.server.release.wait(10)


class _TrickleOnFetch(socketserver.BaseRequestHandler):
    """Acknowledges a QUERY of the cluster321 scheme, then sends the FETCH's
    RESPONSE one byte every 50 ms until released."""

    def handle(self):
        with self.request.makefile("rb") as reader, suppress(StaircasePIRError, OSError):
            _, held = wire.decode_query(read_frame(reader)[1], PARAMS321, FP321)
            self.request.sendall(wire.encode_response(257, []))
            held += wire.decode_fetch(read_frame(reader)[1], PARAMS321, len(held))
            reply = wire.encode_response(257, [[0] * 2] * len(held))
            for i in range(len(reply)):
                if self.server.release.wait(0.05):
                    return
                self.request.sendall(reply[i : i + 1])


class _HugeReply(socketserver.BaseRequestHandler):
    """Answers a QUERY with a RESPONSE header announcing 2**40 bytes, then
    stalls until released."""

    def handle(self):
        with self.request.makefile("rb") as reader, suppress(StaircasePIRError, OSError):
            read_frame(reader)
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
        return read_frame(reader)


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


def test_new_query_replaces_what_the_server_holds(cluster321):
    params, V, files, _, endpoints = cluster321
    db = Database.from_files(params, files)
    fp = matrix_fingerprint(params, V)
    first, second = (make_queries(params, V, i, seed=i)[0].subqueries for i in (1, 2))
    with socket.create_connection(endpoints[0], timeout=2) as sock:
        for subqueries in (first[:2], second[:1]):
            msg_type, ack = exchange(sock, wire.encode_query(params, fp, 1, subqueries))
            assert msg_type == wire.MSG_RESPONSE
            assert wire.decode_response(ack, 0, params.q) == (0, [])
        # Only the second QUERY's sub-query is held, and the count since a
        # QUERY starts again from it: the FETCH may add all alpha - 1 others.
        msg_type, reply = exchange(sock, wire.encode_fetch(params, second[1:]))
    assert msg_type == wire.MSG_RESPONSE
    assert wire.decode_response(reply, params.s, params.q)[1] == [
        db.project(sub) for sub in second]


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


def send_query(sock, params, V, count):
    """Send a QUERY of the first `count` sub-queries of server 1's query for
    file 1, and check its acknowledgement; that query, with all alpha
    sub-queries."""
    query = make_queries(params, V, 1, seed=0)[0]
    frame = wire.encode_query(
        params, matrix_fingerprint(params, V), 1, query.subqueries[:count])
    assert exchange(sock, frame) == (wire.MSG_RESPONSE, wire.pack_varints([0]))
    return query


def assert_refused(sock, frame):
    msg_type, reply = exchange(sock, frame)
    assert msg_type == wire.MSG_ERROR
    assert wire.decode_error(reply)[0] == wire.ERR_MALFORMED


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


def fetch_frame(params, count, subqueries):
    """A FETCH of `count` whose payload carries `subqueries`."""
    _, body = wire.split_frame(bytearray(wire.encode_fetch(params, subqueries)))
    return wire.pack_frame(wire.MSG_FETCH, wire.pack_varints([count]) + body[1:])


@pytest.mark.parametrize("count,carried", [(2, 1), (1, 2), (1, 0)],
                         ids=["short", "long", "missing"])
def test_server_refuses_a_fetch_whose_sub_queries_do_not_match_its_columns(
        server421, spied_projections, count, carried):
    # The columns a FETCH adds are the next `count`: it must carry a
    # sub-query for each, no fewer and no more.
    params, V, endpoint = server421
    with socket.create_connection(endpoint, timeout=2) as sock:
        query = send_query(sock, params, V, 2)
        assert_refused(sock, fetch_frame(params, count, query.subqueries[2 : 2 + carried]))
    assert spied_projections == [0]


def test_server_refuses_a_fetch_before_any_query(server421, spied_projections):
    params, V, endpoint = server421
    query = make_queries(params, V, 1, seed=0)[0]
    with socket.create_connection(endpoint, timeout=2) as sock:
        for added in ([], query.subqueries[:1]):
            assert_refused(sock, wire.encode_fetch(params, added))
    assert spied_projections == [0]


def test_server_refuses_a_fetch_past_alpha_before_any_projection(server421, spied_projections):
    params, V, endpoint = server421
    with socket.create_connection(endpoint, timeout=2) as sock:
        query = send_query(sock, params, V, 2)
        # 2 + 5 sub-queries since the QUERY, past alpha = 6; then a count
        # far past it, with no symbols, which is refused unread.
        assert_refused(sock, wire.encode_fetch(params, query.subqueries[1:]))
        assert_refused(sock, wire.pack_frame(wire.MSG_FETCH, wire.pack_varints([2**40])))
        assert spied_projections == [0]
        # The refusals left the 2 held: topped up to alpha, all 6 are answered.
        msg_type, reply = exchange(sock, wire.encode_fetch(params, query.subqueries[2:]))
        assert msg_type == wire.MSG_RESPONSE
        assert len(wire.decode_response(reply, params.s, params.q)[1]) == params.alpha
        # Nothing more fits under alpha.
        assert_refused(sock, wire.encode_fetch(params, query.subqueries[:1]))
    assert spied_projections == [params.alpha]


def test_server_refuses_a_fetch_with_nothing_to_answer(server421, spied_projections):
    params, V, endpoint = server421
    with socket.create_connection(endpoint, timeout=2) as sock:
        query = send_query(sock, params, V, 2)
        msg_type, reply = exchange(sock, wire.encode_fetch(params, []))
        assert msg_type == wire.MSG_RESPONSE
        assert wire.decode_response(reply, params.s, params.q)[0] == 2
        assert_refused(sock, wire.encode_fetch(params, []))
        assert spied_projections == [2]
        # A top-up is answered with only the columns it adds.
        msg_type, reply = exchange(sock, wire.encode_fetch(params, query.subqueries[2:3]))
        assert wire.decode_response(reply, params.s, params.q)[0] == 1
    assert spied_projections == [3]


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
        query = send_query(sock, params, V, 1)
        msg_type, reply = exchange(sock, wire.encode_fetch(params, query.subqueries[1:3]))
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
        assert wire.decode_fetch(fetch, params, first) == []
        assert wire.decode_fetch(top_up, params, first) == expected[first:full]


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


def test_a_hung_connect_holds_back_no_other_query(cluster321):
    params, V, files, _, endpoints = cluster321
    with socket.create_server(("127.0.0.1", 0), backlog=0) as full, \
            socket.create_connection(full.getsockname(), timeout=2):
        # The connection above fills its accept queue, so the retrieval's
        # connect never completes and no plan is made before the deadline.
        decoded, metrics = retrieve(
            endpoints[:2] + [full.getsockname()], params, V, 1, deadline_s=0.3, seed=2
        )
    assert decoded == files[0]
    assert metrics.outcomes == {1: "ok", 2: "ok", 3: "late"}
    assert 0.3 <= metrics.wait_s


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


def test_second_retrieval_reuses_every_connection(cluster321, monkeypatch):
    params, V, files, _, endpoints = cluster321
    accepts = []
    accept = net.PIRServer._accept

    def counting(self, sel):
        accepts.append(self)
        return accept(self, sel)

    monkeypatch.setattr(net.PIRServer, "_accept", counting)
    _, first = retrieve(endpoints, params, V, 1, seed=1)
    assert first.connects == params.n and len(accepts) == params.n
    del accepts[:]
    decoded, second = retrieve(endpoints, params, V, 2, seed=2)
    assert decoded == files[1]
    assert second.connects == 0 and accepts == []
    assert second.outcomes == {1: "ok", 2: "ok", 3: "ok"}


def test_a_stale_connection_is_replaced_by_a_fresh_connect(cluster321, monkeypatch):
    params, V, files, servers, endpoints = cluster321
    retrieve(endpoints, params, V, 1, seed=1)
    shutdown(servers[2:])
    encoded = []
    encode_query = wire.encode_query

    def counting(*args):
        encoded.append(args[2])
        return encode_query(*args)

    monkeypatch.setattr(wire, "encode_query", counting)
    # The server closed its idle connection, which the client sees before
    # sending a QUERY over it; the fresh connect is refused.
    decoded, metrics = retrieve(endpoints, params, V, 2, seed=2)
    assert decoded == files[1]
    assert sorted(encoded) == [1, 2]
    assert metrics.outcomes == {1: "ok", 2: "ok", 3: "refused"}
    assert metrics.connects == 1
    port = endpoints[2][1]
    restarted = serve("127.0.0.1", port, Database.from_files(params, files), params, V)
    try:
        decoded, metrics = retrieve(endpoints, params, V, 1, seed=3)
    finally:
        shutdown([restarted])
    assert decoded == files[0]
    assert metrics.outcomes == {1: "ok", 2: "ok", 3: "ok"}
    assert metrics.connects == 1


def test_a_reused_connection_that_fails_falls_back_to_a_fresh_one(cluster321, monkeypatch):
    params, V, files, servers, endpoints = cluster321
    retrieve(endpoints, params, V, 1, seed=1)
    dispatch = net.PIRServer._dispatch

    def breaks_reused(self, conn, msg_type, payload):
        # Server 1 drops a connection that already served a QUERY, as one
        # that closes idle connections would after the client's check.
        if self is servers[0] and msg_type == wire.MSG_QUERY and conn.pending is not None:
            raise OSError("connection dropped")
        return dispatch(self, conn, msg_type, payload)

    monkeypatch.setattr(net.PIRServer, "_dispatch", breaks_reused)
    decoded, metrics = retrieve(endpoints, params, V, 2, seed=2)
    assert decoded == files[1]
    assert metrics.outcomes == {1: "ok", 2: "ok", 3: "ok"}
    assert metrics.connects == 1


def idle_endpoints(endpoints):
    return {ep for ep in map(tuple, endpoints) if ep in net._idle}


def test_a_retrieval_that_raises_keeps_no_connection(cluster321):
    params, V, _, _, endpoints = cluster321
    retrieve(endpoints, params, V, 1, seed=1)
    assert idle_endpoints(endpoints) == set(endpoints)
    other = SchemeParams(n=3, k=2, t=1, m=2, q=257, s=1)
    with pytest.raises(HandshakeMismatch):
        retrieve(endpoints, other, default_encoding_matrix(other), 1, seed=0)
    assert idle_endpoints(endpoints) == set()
    # Server 1 answers in full, but the two stubs drop mid-fetch.
    retrieve(endpoints, params, V, 1, seed=1)
    stubs = [serve_stub() for _ in range(2)]
    try:
        with pytest.raises(InsufficientResponders):
            retrieve(endpoints[:1] + [stub.server_address for stub in stubs],
                     params, V, 1, deadline_s=5, seed=7)
    finally:
        shutdown(stubs)
    assert tuple(endpoints[0]) not in net._idle


def test_only_the_responders_decoded_from_are_kept(cluster321):
    params, V, files, _, endpoints = cluster321
    decoded, metrics = retrieve(endpoints, params, V, 1, wait_for=2, seed=8)
    assert decoded == files[0]
    ok = {tuple(endpoints[sid - 1]) for sid, out in metrics.outcomes.items() if out == "ok"}
    assert len(ok) == 2
    assert idle_endpoints(endpoints) == ok


def test_idle_connections_are_bounded_by_the_latest_retrieval():
    params = PARAMS321
    V = default_encoding_matrix(params)
    files = [[i] * params.file_symbols for i in range(params.m)]
    fds = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for i in range(5):
            servers, endpoints = start_cluster(params, V, files)
            try:
                decoded, _ = retrieve(endpoints, params, V, 1, seed=i)
            finally:
                shutdown(servers)
            assert decoded == files[0]
            assert len(net._idle) <= params.n
            with suppress(FileNotFoundError):
                fds.append(len(os.listdir("/proc/self/fd")))
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    if fds:
        assert fds[-1] <= fds[0]


def test_concurrent_retrievals_share_the_idle_connections(cluster321):
    params, V, files, _, endpoints = cluster321
    failures = []

    def loop(offset):
        for trial in range(5):
            i = (trial + offset) % params.m + 1
            try:
                decoded, _ = retrieve(endpoints, params, V, i, deadline_s=5)
                assert decoded == files[i - 1]
            except Exception as exc:  # reported below, from the test's thread
                failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=loop, args=(offset,)) for offset in (0, 1)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=20)
            assert not th.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert idle_endpoints(endpoints) == set(endpoints)
    assert len(net._idle) <= params.n


def test_each_side_writes_once_per_server(cluster321, monkeypatch):
    # A QUERY goes out with its FETCH, and the server answers both in one
    # reply: on reused connections that is one write each way per server.
    params, V, files, _, endpoints = cluster321
    retrieve(endpoints, params, V, 1, seed=1)
    writes, reads = {}, {}
    flush, recv = net._Conn.flush, net._Conn.recv

    def counting(calls, method):
        def wrapped(conn):
            key = ("client", conn.sid) if isinstance(conn, net._Peer) else ("server", id(conn))
            calls[key] = calls.get(key, 0) + 1
            return method(conn)
        return wrapped

    monkeypatch.setattr(net._Conn, "flush", counting(writes, flush))
    monkeypatch.setattr(net._Conn, "recv", counting(reads, recv))
    decoded, metrics = retrieve(endpoints, params, V, 2, seed=2)
    monkeypatch.undo()
    assert decoded == files[1]
    assert metrics.connects == 0
    assert {key: count for key, count in writes.items() if key[0] == "client"} == {
        ("client", sid): 1 for sid in range(1, params.n + 1)}
    served = [key for key in writes if key[0] == "server"]
    assert len(served) == params.n
    assert all(writes[key] == reads[key] == 1 for key in served)


def test_wait_for_pipelines_only_wait_for_fetches(cluster321, monkeypatch):
    # The plan is made for min(wait_for, connected) = 2 servers, so only two
    # FETCHes go out before any acknowledgement is read.
    params, V, files, _, endpoints = cluster321
    events = []
    encode_fetch, decode_response = wire.encode_fetch, wire.decode_response

    def fetching(*args):
        events.append("fetch")
        return encode_fetch(*args)

    def decoding(payload, s, q):
        events.append("response" if s else "ack")
        return decode_response(payload, s, q)

    monkeypatch.setattr(wire, "encode_fetch", fetching)
    monkeypatch.setattr(wire, "decode_response", decoding)
    for i in (1, 2):  # fresh connections, then reused ones
        del events[:]
        decoded, metrics = retrieve(endpoints, params, V, i, wait_for=2, seed=i)
        assert decoded == files[i - 1]
        assert metrics.realized_mu == 2
        assert "ack" in events
        assert events[: events.index("ack")].count("fetch") <= 2


def test_a_refused_handshake_with_a_fetch_behind_it_projects_nothing(
        cluster321, monkeypatch, spied_projections):
    # Server 3 is down, so the plan is for mu = 2 and each QUERY carries a
    # FETCH adding a column. Over connections reused from a retrieval that
    # succeeded, the QUERY is refused: the FETCH behind it tops up nothing.
    params, V, _, servers, endpoints = cluster321
    retrieve(endpoints, params, V, 1, seed=1)
    shutdown(servers[2:])
    projected = spied_projections[0]
    received = {id(srv): [] for srv in servers}
    dispatch = net.PIRServer._dispatch

    def recording(self, conn, msg_type, payload):
        try:
            return dispatch(self, conn, msg_type, payload)
        finally:  # once answered, or refused
            received[id(self)].append(msg_type)

    monkeypatch.setattr(net.PIRServer, "_dispatch", recording)
    other = SchemeParams(n=3, k=2, t=1, m=2, q=257, s=1)
    with pytest.raises(HandshakeMismatch):
        retrieve(endpoints, other, default_encoding_matrix(other), 1, seed=0)
    # The first refusal ends the retrieval, so the other server may still be answering.
    end = time.monotonic() + 5
    while any(len(received[id(srv)]) < 2 for srv in servers[:2]) and time.monotonic() < end:
        time.sleep(0.01)
    assert [received[id(srv)] for srv in servers[:2]] == [[wire.MSG_QUERY, wire.MSG_FETCH]] * 2
    assert spied_projections == [projected]


def test_server_batches_stay_under_two_largest_replies(server421, monkeypatch):
    # A peer pipelines 50 QUERY + FETCH pairs in one write and never reads;
    # the server answers them in batches that each stay under two replies.
    params, V, endpoint = server421
    largest = wire.max_reply_payload(params)
    bound = 2 * (len(wire.frame_header(wire.MSG_RESPONSE, largest)) + largest)
    owed, served = [], []
    flush = net._Conn.flush

    def recording(conn):
        if not isinstance(conn, net._Peer):
            owed.append(len(conn.out))
            served.append(conn)
        return flush(conn)

    monkeypatch.setattr(net._Conn, "flush", recording)
    query = make_queries(params, V, 1, seed=0)[0]
    pair = (wire.encode_query(params, matrix_fingerprint(params, V), 1, query.subqueries[:2])
            + wire.encode_fetch(params, query.subqueries[2:]))
    reply = (wire.encode_response(params.q, [])
             + wire.encode_response(params.q, [[0] * params.s] * params.alpha))
    with socket.create_connection(endpoint, timeout=2) as sock:
        sock.sendall(pair * 50)
        end = time.monotonic() + 5
        while not (served and served[-1].sent == 50 * len(reply)) and time.monotonic() < end:
            time.sleep(0.01)
        assert served and served[-1].sent == 50 * len(reply)
    assert 0 < max(owed) <= bound


def test_each_side_writes_once_per_responder_with_a_server_refused(cluster321, monkeypatch):
    # The selector pass that does not wait finds server 3's connect refused
    # before any QUERY goes out, so the plan, for mu = 2, is made first and
    # each responder's QUERY carries its FETCH.
    params, V, files, servers, endpoints = cluster321
    retrieve(endpoints, params, V, 1, seed=1)
    shutdown(servers[2:])
    retrieve(endpoints, params, V, 2, seed=2)  # drops server 3's stale idle socket
    writes, reads = {}, {}
    flush, recv = net._Conn.flush, net._Conn.recv

    def counting(calls, method):
        def wrapped(conn):
            key = ("client", conn.sid) if isinstance(conn, net._Peer) else ("server", id(conn))
            calls[key] = calls.get(key, 0) + 1
            return method(conn)
        return wrapped

    monkeypatch.setattr(net._Conn, "flush", counting(writes, flush))
    monkeypatch.setattr(net._Conn, "recv", counting(reads, recv))
    decoded, metrics = retrieve(endpoints, params, V, 1, seed=3)
    monkeypatch.undo()
    assert decoded == files[0]
    assert metrics.outcomes == {1: "ok", 2: "ok", 3: "refused"}
    assert {key: count for key, count in writes.items() if key[0] == "client"} == {
        ("client", 1): 1, ("client", 2): 1}
    served = [key for key in writes if key[0] == "server"]
    assert len(served) == 2
    assert all(writes[key] == reads[key] == 1 for key in served)


def test_a_refused_query_ends_the_retrieval_at_once(cluster321):
    # Server 2 runs other params, and server 3 never answers: the refusal
    # raises as it arrives, not once server 3's deadline has passed.
    params, V, _, _, endpoints = cluster321
    other = SchemeParams(n=3, k=2, t=1, m=2, q=257, s=1)
    mismatched = serve("127.0.0.1", 0, Database(other, [0] * other.x_length), other,
                       default_encoding_matrix(other))
    try:
        with socket.create_server(("127.0.0.1", 0)) as silent, \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            mixed = [endpoints[0], mismatched.server_address, silent.getsockname()]
            start = time.monotonic()
            with pytest.raises(HandshakeMismatch):
                retrieve(mixed, params, V, 1, deadline_s=3, seed=0)
            elapsed = time.monotonic() - start
            gc.collect()
    finally:
        shutdown([mismatched])
    assert elapsed < 1
    assert idle_endpoints(mixed) == set()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_retrieve_refuses_a_repeated_endpoint(cluster321, monkeypatch):
    # That server would receive two servers' sub-queries, whose masks it
    # could then cancel.
    params, V, _, _, endpoints = cluster321
    resolved = []
    monkeypatch.setattr(socket, "getaddrinfo", lambda *args: resolved.append(args))
    with pytest.raises(ValueError):
        retrieve(endpoints[:1] + endpoints[:-1], params, V, 1)
    assert resolved == []  # refused before any connect
