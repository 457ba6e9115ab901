"""What each server receives does not depend on the file retrieved.

verify_privacy_rank proves the query algebra private: the sub-queries any
t servers hold are independent of i. This check ties that algebra to the
bytes a server actually receives. Every frame each server is sent is
recorded for every file i, with all servers up and with one refused, on
three schemes: (4,2,1) over GF(257), Example 1's (3,2,1) over GF(5) with
its lower-triangular V and randomness-first rows, and a t = 2 scheme,
(5,3,2) over GF(257). On the first, it is also recorded for every pair of
files (i1, i2) retrieved one after the other over the same connections,
whose second QUERY goes without its head; with a responder that drops
after its acknowledgement, so the others are sent the re-plan's top-up
FETCH; and waiting for 2 servers, so the servers past the target are
sent a QUERY only. Per server:

- the frame types and sizes are the same for every i (or pair);
- every byte that is not a query symbol is the same for every i (or pair);
- the symbols received are exactly the rows of make_queries(params, V, i,
  seed=S) for the columns sent, the rows the rank proof covers.

net.retrieve takes no seed; each recorded retrieval draws its randomness
with seed S by patching staircase.generate_randomness, which
make_queries calls.
"""

import random
import socketserver
import threading
import time
from contextlib import suppress

import pytest
from framing import read_frame
from patches import seed_every_draw

from staircase_pir import net, wire
from staircase_pir.errors import StaircasePIRError
from staircase_pir.examples import example1
from staircase_pir.params import SchemeParams
from staircase_pir.protocol import (
    Database,
    default_encoding_matrix,
    make_queries,
    matrix_fingerprint,
)

PARAMS = SchemeParams(n=4, k=2, t=1, m=4, q=257, s=2)
T2 = SchemeParams(n=5, k=3, t=2, m=3, q=257, s=2)
SEED = 11


def schemes():
    """(params, V, down) for each scheme, with 0 and 1 servers refused."""
    for name, (params, V) in [("", (PARAMS, default_encoding_matrix(PARAMS))),
                              ("example1", example1(m=3)),
                              ("t2", (T2, default_encoding_matrix(T2)))]:
        for down in (0, 1):
            yield pytest.param(params, V, down, id=f"{name}-{down}" if name else str(down))


def random_files(params, seed):
    rng = random.Random(seed)
    return [[rng.randrange(params.q) for _ in range(params.file_symbols)]
            for _ in range(params.m)]


def record_retrieval(monkeypatch, params, V, files, i, down):
    """The frames each server received, as (type, payload) lists in
    server order, during one retrieval of file i from a fresh cluster whose
    last `down` servers refuse connections."""
    return record_retrievals(monkeypatch, params, V, files, [i], down)[0]


def record_retrievals(monkeypatch, params, V, files, indices, down):
    """record_retrieval's frames for each of the retrievals of the files
    `indices`, made one after another from one fresh cluster, so every
    retrieval but the first reuses the connections of the one before."""
    db = Database.from_files(params, files)
    servers = [net.serve("127.0.0.1", 0, db, params, V) for _ in range(params.n)]
    endpoints = [srv.server_address for srv in servers]
    received = {id(srv): [] for srv in servers}
    dispatch = net.PIRServer._dispatch

    def recording(self, conn, msg_type, payload):
        received[id(self)].append((msg_type, payload))
        return dispatch(self, conn, msg_type, payload)

    monkeypatch.setattr(net.PIRServer, "_dispatch", recording)
    seed_every_draw(monkeypatch, SEED)
    try:
        for srv in servers[params.n - down:]:
            srv.shutdown()
            srv.server_close()
        views = []
        for i in indices:
            seen = {key: len(frames) for key, frames in received.items()}
            decoded, metrics = net.retrieve(endpoints, params, V, i, deadline_s=5)
            assert decoded == files[i - 1]
            assert metrics.realized_mu == params.n - down
            views.append([received[id(srv)][seen[id(srv)]:] for srv in servers])
    finally:
        monkeypatch.undo()
        threads = [threading.Thread(target=srv.shutdown) for srv in servers[: params.n - down]]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=5)
            assert not th.is_alive()
        for srv in servers:
            srv.server_close()
    return views


def split_symbols(frames, params, fingerprint):
    """(the frames with their query symbols cut out, the sub-queries they
    carried in column order) of one server's frames."""
    per = params.query_length
    shapes, subqueries = [], []
    for msg_type, payload in frames:
        if msg_type == wire.MSG_QUERY:
            _, carried = wire.decode_query(payload, params, fingerprint)
        else:
            assert msg_type == wire.MSG_FETCH
            carried = wire.decode_fetch(payload, params, len(subqueries))
        subqueries += carried
        size = wire.symbols_size(len(carried) * per, params.q)
        shapes.append((msg_type, payload[: len(payload) - size]))
    return shapes, subqueries


@pytest.mark.parametrize("params, V, down", schemes())
def test_servers_receive_the_same_bytes_but_query_symbols_for_every_file(
        monkeypatch, params, V, down):
    fingerprint = matrix_fingerprint(params, V)
    files = random_files(params, down)
    views = {i: record_retrieval(monkeypatch, params, V, files, i, down)
             for i in range(1, params.m + 1)}
    for sid in range(1, params.n - down + 1):
        first = views[1][sid - 1]
        assert first[0][0] == wire.MSG_QUERY
        for i in range(1, params.m + 1):
            frames = views[i][sid - 1]
            assert [(t, len(p)) for t, p in frames] == [(t, len(p)) for t, p in first]
            shapes, subqueries = split_symbols(frames, params, fingerprint)
            assert shapes == split_symbols(first, params, fingerprint)[0]
            expected = make_queries(params, V, i, seed=SEED)[sid - 1].prefix(params.alpha)
            assert subqueries == expected[: len(subqueries)]
    for sid in range(params.n - down + 1, params.n + 1):
        assert all(views[i][sid - 1] == [] for i in views)


@pytest.mark.parametrize("down", [0, 1])
def test_a_reused_connection_receives_the_same_bytes_but_query_symbols_for_every_pair(
        monkeypatch, down):
    # File i1, then file i2 over the connections i1's retrieval kept: the
    # second retrieval's QUERY goes without its head, and what each server
    # receives depends on neither file.
    V = default_encoding_matrix(PARAMS)
    fingerprint = matrix_fingerprint(PARAMS, V)
    files = random_files(PARAMS, down)
    pairs = [(i1, i2) for i1 in range(1, PARAMS.m + 1) for i2 in range(1, PARAMS.m + 1)]
    views = {pair: record_retrievals(monkeypatch, PARAMS, V, files, pair, down)[1]
             for pair in pairs}
    for sid in range(1, PARAMS.n - down + 1):
        first = views[pairs[0]][sid - 1]
        assert wire.decode_query(first[0][1], PARAMS, fingerprint)[0] is None  # no head
        for (_, i2), view in views.items():
            frames = view[sid - 1]
            assert [(t, len(p)) for t, p in frames] == [(t, len(p)) for t, p in first]
            shapes, subqueries = split_symbols(frames, PARAMS, fingerprint)
            assert shapes == split_symbols(first, PARAMS, fingerprint)[0]
            expected = make_queries(PARAMS, V, i2, seed=SEED)[sid - 1].prefix(PARAMS.alpha)
            assert subqueries == expected[: len(subqueries)]
    for sid in range(PARAMS.n - down + 1, PARAMS.n + 1):
        assert all(view[sid - 1] == [] for view in views.values())


class _DropOnFetch(socketserver.BaseRequestHandler):
    """Records the frames it reads: acknowledges a QUERY, then closes the
    connection when the FETCH comes."""

    def handle(self):
        with self.request.makefile("rb") as reader, suppress(StaircasePIRError, OSError):
            self.server.frames.append(read_frame(reader))
            self.request.sendall(wire.encode_response(PARAMS.q, []))
            self.server.frames.append(read_frame(reader))


def record_each_file(monkeypatch, files, wait_for=None, late=(), dropper=False):
    """{i: (the frames each server of PARAMS received, in server order, and
    the outcomes)} of one retrieval of each file i from a fresh cluster.
    The servers whose ids are in `late` answer every QUERY 50 ms late;
    with `dropper`, the last server is a _DropOnFetch stub. The frames are
    read once every server has read one, so a QUERY to a server that the
    retrieval did not wait for is not lost to its shutdown."""
    V = default_encoding_matrix(PARAMS)
    db = Database.from_files(PARAMS, files)
    views = {}
    for i in range(1, PARAMS.m + 1):
        servers = [net.serve("127.0.0.1", 0, db, PARAMS, V) for _ in range(PARAMS.n - dropper)]
        received = {id(srv): [] for srv in servers}
        late_ids = {id(servers[sid - 1]) for sid in late}
        dispatch = net.PIRServer._dispatch

        def recording(self, conn, msg_type, payload):
            received[id(self)].append((msg_type, payload))
            if msg_type == wire.MSG_QUERY and id(self) in late_ids:
                time.sleep(0.05)
            return dispatch(self, conn, msg_type, payload)

        monkeypatch.setattr(net.PIRServer, "_dispatch", recording)
        seed_every_draw(monkeypatch, SEED)
        stubs = [socketserver.ThreadingTCPServer(("127.0.0.1", 0), _DropOnFetch)
                 for _ in range(dropper)]
        for stub in stubs:
            stub.daemon_threads, stub.frames = True, []
            threading.Thread(target=stub.serve_forever, args=(net.SHUTDOWN_POLL_S,),
                             daemon=True).start()
        try:
            decoded, metrics = net.retrieve(
                [srv.server_address for srv in servers + stubs], PARAMS, V, i,
                wait_for=wait_for, deadline_s=5)
            assert decoded == files[i - 1]
            end = time.monotonic() + 5
            while not all(received.values()) and time.monotonic() < end:
                time.sleep(0.005)
        finally:
            monkeypatch.undo()
            threads = [threading.Thread(target=srv.shutdown) for srv in servers + stubs]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=5)
                assert not th.is_alive()
            for srv in servers + stubs:
                srv.server_close()
        views[i] = ([received[id(srv)] for srv in servers] + [stub.frames for stub in stubs],
                    metrics.outcomes)
    return views


def assert_same_but_symbols(views, kinds):
    """Each server's frames have the types `kinds[sid - 1]` and the same
    sizes and non-symbol bytes for every file, and carry exactly the rows of
    make_queries for the columns sent."""
    V = default_encoding_matrix(PARAMS)
    fingerprint = matrix_fingerprint(PARAMS, V)
    for sid in range(1, PARAMS.n + 1):
        first = views[1][sid - 1]
        assert [t for t, _ in first] == kinds[sid - 1]
        for i, view in views.items():
            frames = view[sid - 1]
            assert [(t, len(p)) for t, p in frames] == [(t, len(p)) for t, p in first]
            shapes, subqueries = split_symbols(frames, PARAMS, fingerprint)
            assert shapes == split_symbols(first, PARAMS, fingerprint)[0]
            expected = make_queries(PARAMS, V, i, seed=SEED)[sid - 1].prefix(PARAMS.alpha)
            assert subqueries == expected[: len(subqueries)]


QUERY, FETCH = wire.MSG_QUERY, wire.MSG_FETCH


def test_a_top_up_after_a_drop_receives_the_same_bytes_but_query_symbols_for_every_file(
        monkeypatch):
    # Server 4 acknowledges, then drops on its FETCH: the plan for 3 asks
    # the other three for the columns a smaller mu reads too.
    runs = record_each_file(monkeypatch, random_files(PARAMS, 2), dropper=True)
    assert all(outcomes == {1: "ok", 2: "ok", 3: "ok", 4: "dropped-mid-fetch"}
               for _, outcomes in runs.values())
    assert_same_but_symbols({i: view for i, (view, _) in runs.items()},
                            [[QUERY, FETCH, FETCH]] * 3 + [[QUERY, FETCH]])


def test_servers_past_the_target_receive_a_query_only_for_every_file(monkeypatch):
    # Waiting for 2, with servers 3 and 4 answering late: only the plan's
    # two responders are sent a FETCH.
    runs = record_each_file(monkeypatch, random_files(PARAMS, 3), wait_for=2, late=(3, 4))
    assert all(outcomes == {1: "ok", 2: "ok", 3: "late", 4: "late"}
               for _, outcomes in runs.values())
    assert_same_but_symbols({i: view for i, (view, _) in runs.items()},
                            [[QUERY, FETCH]] * 2 + [[QUERY]] * 2)
