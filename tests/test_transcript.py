"""What each server receives does not depend on the file retrieved.

verify_privacy_rank proves the query algebra private: the sub-queries any
t servers hold are independent of i. This check ties that algebra to the
bytes a server actually receives. Every frame each server is sent is
recorded for every file i, with all servers up and with one refused, on
three schemes: (4,2,1) over GF(257), Example 1's (3,2,1) over GF(5) with
its lower-triangular V and randomness-first rows, and a t = 2 scheme,
(5,3,2) over GF(257). On the first, it is also recorded for every pair of
files (i1, i2) retrieved one after the other over the same connections,
whose second QUERY goes without its head. Per server:

- the frame types and sizes are the same for every i (or pair);
- every byte that is not a query symbol is the same for every i (or pair);
- the symbols received are exactly the rows of make_queries(params, V, i,
  seed=S) for the columns sent, the rows the rank proof covers.

net.retrieve takes no seed; each recorded retrieval draws its randomness
with seed S by patching staircase.generate_randomness, which
make_queries calls.
"""

import random
import threading

import pytest
from patches import seed_every_draw

from staircase_pir import net, wire
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
