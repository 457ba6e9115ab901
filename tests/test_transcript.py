"""What each server receives does not depend on the file retrieved.

verify_privacy_rank proves the query algebra private: the sub-queries any
t servers hold are independent of i. This check ties that algebra to the
bytes a server actually receives. Every frame each server is sent is
recorded for every file i, with all servers up and with one refused, and
per server:

- the frame types and sizes are the same for every i;
- every byte that is not a query symbol is the same for every i;
- the symbols received are exactly the rows of make_queries(params, V, i,
  seed=S) for the columns sent, the rows the rank proof covers.
"""

import random
import threading

import pytest

from staircase_pir import net, wire
from staircase_pir.params import SchemeParams
from staircase_pir.protocol import (
    Database,
    default_encoding_matrix,
    make_queries,
    matrix_fingerprint,
)

PARAMS = SchemeParams(n=4, k=2, t=1, m=4, q=257, s=2)
SEED = 11


def record_retrieval(monkeypatch, V, files, i, down):
    """The frames each server received, as (type, payload) lists in
    server order, during one retrieval of file i from a fresh cluster whose
    last `down` servers refuse connections."""
    db = Database.from_files(PARAMS, files)
    servers = [net.serve("127.0.0.1", 0, db, PARAMS, V) for _ in range(PARAMS.n)]
    endpoints = [srv.server_address for srv in servers]
    received = {id(srv): [] for srv in servers}
    dispatch = net.PIRServer._dispatch

    def recording(self, conn, msg_type, payload):
        received[id(self)].append((msg_type, payload))
        return dispatch(self, conn, msg_type, payload)

    monkeypatch.setattr(net.PIRServer, "_dispatch", recording)
    try:
        for srv in servers[PARAMS.n - down:]:
            srv.shutdown()
            srv.server_close()
        decoded, metrics = net.retrieve(endpoints, PARAMS, V, i, deadline_s=5, seed=SEED)
    finally:
        monkeypatch.undo()
        threads = [threading.Thread(target=srv.shutdown) for srv in servers[: PARAMS.n - down]]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=5)
            assert not th.is_alive()
        for srv in servers:
            srv.server_close()
    assert decoded == files[i - 1]
    assert metrics.realized_mu == PARAMS.n - down
    return [received[id(srv)] for srv in servers]


def split_symbols(frames, fingerprint):
    """(the frames with their query symbols cut out, the sub-queries they
    carried in column order) of one server's frames."""
    per = PARAMS.query_length
    shapes, subqueries = [], []
    for msg_type, payload in frames:
        if msg_type == wire.MSG_QUERY:
            _, carried = wire.decode_query(payload, PARAMS, fingerprint)
        else:
            assert msg_type == wire.MSG_FETCH
            _, _, carried = wire.decode_fetch(payload, PARAMS, len(subqueries))
        subqueries += carried
        size = wire.symbols_size(len(carried) * per, PARAMS.q)
        shapes.append((msg_type, payload[: len(payload) - size]))
    return shapes, subqueries


@pytest.mark.parametrize("down", [0, 1])
def test_servers_receive_the_same_bytes_but_query_symbols_for_every_file(monkeypatch, down):
    V = default_encoding_matrix(PARAMS)
    fingerprint = matrix_fingerprint(PARAMS, V)
    rng = random.Random(down)
    files = [[rng.randrange(PARAMS.q) for _ in range(PARAMS.file_symbols)]
             for _ in range(PARAMS.m)]
    views = {i: record_retrieval(monkeypatch, V, files, i, down)
             for i in range(1, PARAMS.m + 1)}
    for sid in range(1, PARAMS.n - down + 1):
        first = views[1][sid - 1]
        assert first[0][0] == wire.MSG_QUERY
        for i in range(1, PARAMS.m + 1):
            frames = views[i][sid - 1]
            assert [(t, len(p)) for t, p in frames] == [(t, len(p)) for t, p in first]
            shapes, subqueries = split_symbols(frames, fingerprint)
            assert shapes == split_symbols(first, fingerprint)[0]
            expected = make_queries(PARAMS, V, i, seed=SEED)[sid - 1].subqueries
            assert subqueries == expected[: len(subqueries)]
    for sid in range(PARAMS.n - down + 1, PARAMS.n + 1):
        assert all(views[i][sid - 1] == [] for i in views)
