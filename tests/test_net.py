import random
import socket
import struct
from fractions import Fraction

import pytest

from staircase_pir.errors import HandshakeMismatch, InsufficientResponders
from staircase_pir import wire
from staircase_pir.net import retrieve, serve
from staircase_pir.params import SchemeParams
from staircase_pir.protocol import Database, default_encoding_matrix


def start_cluster(params, V, files, count=None):
    db = Database.from_files(params, files)
    servers = [
        serve("127.0.0.1", 0, db, params, V)
        for _ in range(count or params.n)
    ]
    endpoints = [srv.server_address for srv in servers]
    return servers, endpoints


def shutdown(servers):
    for srv in servers:
        srv.shutdown()
        srv.server_close()


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


def test_endpoint_count_checked(cluster321):
    params, V, _, _, endpoints = cluster321
    with pytest.raises(ValueError):
        retrieve(endpoints[:2], params, V, 1)


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
