import io
import struct

import pytest

from staircase_pir import wire
from staircase_pir.errors import MalformedFrame
from staircase_pir.params import SchemeParams
from staircase_pir.protocol import default_encoding_matrix, make_queries, matrix_fingerprint


def roundtrip(frame):
    return wire.read_frame(io.BytesIO(frame))


def test_frame_roundtrip():
    frame = wire.pack_frame(wire.MSG_FETCH, b"hello")
    msg_type, payload = roundtrip(frame)
    assert msg_type == wire.MSG_FETCH
    assert payload == b"hello"


def test_frame_rejects_bad_magic_and_version():
    frame = bytearray(wire.pack_frame(wire.MSG_FETCH, b""))
    frame[0] = ord("X")
    with pytest.raises(MalformedFrame):
        roundtrip(bytes(frame))
    frame = bytearray(wire.pack_frame(wire.MSG_FETCH, b""))
    frame[4] = 99
    with pytest.raises(MalformedFrame):
        roundtrip(bytes(frame))


def test_frame_rejects_truncation():
    frame = wire.pack_frame(wire.MSG_FETCH, b"abcdef")
    with pytest.raises(MalformedFrame):
        roundtrip(frame[:-2])
    with pytest.raises(MalformedFrame):
        roundtrip(frame[:5])


def test_frame_rejects_version_1():
    frame = bytearray(wire.pack_frame(wire.MSG_FETCH, b""))
    frame[4] = 1
    with pytest.raises(MalformedFrame):
        roundtrip(bytes(frame))


def test_frame_length_capped_before_payload_is_read():
    frame = wire.pack_frame(wire.MSG_QUERY, b"x" * 100)
    reader = io.BytesIO(frame)
    with pytest.raises(MalformedFrame):
        wire.read_frame(reader, max_payload=99)
    assert reader.tell() == len(frame) - 100  # the header only
    assert wire.read_frame(io.BytesIO(frame), max_payload=100)[1] == b"x" * 100


@pytest.mark.parametrize("q,width", [(2, 1), (5, 1), (257, 2), (65537, 3), (2**31 - 1, 4)])
def test_symbol_bytes(q, width):
    assert wire.symbol_bytes(q) == width


def test_max_request_payload_is_the_query():
    params = SchemeParams(n=4, k=2, t=1, m=3, q=65537, s=5)
    V = default_encoding_matrix(params)
    query = make_queries(params, V, 2, seed=0)[0]
    frame = wire.encode_query(params, matrix_fingerprint(params, V), 1, query.subqueries)
    assert len(roundtrip(frame)[1]) == wire.max_request_payload(params)


def test_query_roundtrip():
    params = SchemeParams(n=4, k=2, t=1, m=2, q=257, s=2)
    V = default_encoding_matrix(params)
    fp = matrix_fingerprint(params, V)
    query = make_queries(params, V, 1, seed=0)[2]
    frame = wire.encode_query(params, fp, 3, query.subqueries)
    msg_type, payload = roundtrip(frame)
    assert msg_type == wire.MSG_QUERY
    got_params, got_fp, server_id, subqueries = wire.decode_query(payload)
    assert got_params == params
    assert got_fp == fp
    assert server_id == 3
    assert subqueries == query.subqueries


def test_query_rejects_out_of_field_symbols():
    params = SchemeParams(n=3, k=2, t=1, m=1, q=5)
    V = default_encoding_matrix(params)
    fp = matrix_fingerprint(params, V)
    query = make_queries(params, V, 1, seed=0)[0]
    bad = [list(sub) for sub in query.subqueries]
    bad[0][0] = 5  # == q
    frame = wire.encode_query(params, fp, 1, bad)
    with pytest.raises(MalformedFrame):
        wire.decode_query(roundtrip(frame)[1])


def test_query_rejects_trailing_bytes():
    params = SchemeParams(n=3, k=2, t=1, m=1, q=5)
    V = default_encoding_matrix(params)
    fp = matrix_fingerprint(params, V)
    query = make_queries(params, V, 1, seed=0)[0]
    frame = wire.encode_query(params, fp, 1, query.subqueries)
    with pytest.raises(MalformedFrame):
        wire.decode_query(roundtrip(frame)[1] + b"\x00")


def test_query_symbols_are_compact():
    # q=257 needs 2 bytes per symbol; a sub-query has one per slab, whatever s is.
    params = SchemeParams(n=4, k=2, t=1, m=2, q=257, s=9)
    V = default_encoding_matrix(params)
    query = make_queries(params, V, 1, seed=0)[0]
    frame = wire.encode_query(params, matrix_fingerprint(params, V), 1, query.subqueries)
    symbols = params.alpha * params.query_length
    assert len(roundtrip(frame)[1]) == 6 * 8 + 32 + 2 * 8 + 2 * symbols


def test_query_rejects_truncation():
    params = SchemeParams(n=3, k=2, t=1, m=2, q=257, s=4)
    V = default_encoding_matrix(params)
    fp = matrix_fingerprint(params, V)
    query = make_queries(params, V, 1, seed=0)[0]
    payload = roundtrip(wire.encode_query(params, fp, 1, query.subqueries))[1]
    for cut in (1, 2, 3, len(payload) - 100):
        with pytest.raises(MalformedFrame):
            wire.decode_query(payload[:-cut])


def test_fetch_roundtrip():
    frame = wire.encode_fetch(7, [0, 2, 5])
    msg_type, payload = roundtrip(frame)
    assert msg_type == wire.MSG_FETCH
    assert wire.decode_fetch(payload) == (7, [0, 2, 5])


def test_response_roundtrip():
    cols = [(1, 2), (3, 4), (250, 0)]
    frame = wire.encode_response(9, cols, 257)
    msg_type, payload = roundtrip(frame)
    assert msg_type == wire.MSG_RESPONSE
    assert wire.decode_response(payload, 2, 257) == (9, cols)


def test_response_is_compact_and_rejects_truncation():
    cols = [(1, 65536), (3, 4)]
    _, payload = roundtrip(wire.encode_response(9, cols, 65537))
    assert len(payload) == 2 * 8 + 4 * 3
    assert wire.decode_response(payload, 2, 65537) == (9, cols)
    for cut in (1, 3, 12):
        with pytest.raises(MalformedFrame):
            wire.decode_response(payload[:-cut], 2, 65537)
    with pytest.raises(MalformedFrame):
        wire.decode_response(payload + b"\x00", 2, 65537)


def test_response_column_count_checked_first():
    # A count far past the payload is refused before any column is read;
    # an acknowledgement (s=0) carries no columns at all.
    with pytest.raises(MalformedFrame):
        wire.decode_response(struct.pack("<2Q", 1, 2**60), 2, 5)
    with pytest.raises(MalformedFrame):
        wire.decode_response(struct.pack("<2Q", 1, 10**6), 0, 5)


def test_response_ack_has_no_columns():
    # The session-assignment ack is a RESPONSE with zero columns.
    _, payload = roundtrip(wire.encode_response(4, [], 257))
    assert wire.decode_response(payload, 0, 257) == (4, [])


def test_error_roundtrip():
    frame = wire.encode_error(wire.ERR_HANDSHAKE, "nope")
    msg_type, payload = roundtrip(frame)
    assert msg_type == wire.MSG_ERROR
    assert wire.decode_error(payload) == (wire.ERR_HANDSHAKE, "nope")


def test_fingerprint_distinguishes_matrices():
    params = SchemeParams(n=3, k=2, t=1, m=1, q=7)
    V = default_encoding_matrix(params)
    other = SchemeParams(n=3, k=2, t=1, m=1, q=11)
    W = default_encoding_matrix(other)
    a = matrix_fingerprint(params, V)
    b = matrix_fingerprint(other, W)
    assert len(a) == len(b) == 32
    assert a != b
