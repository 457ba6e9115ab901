import io
import random
import struct
from contextlib import suppress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staircase_pir import wire
from staircase_pir.errors import HandshakeMismatch, MalformedFrame, StaircasePIRError
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


def test_split_frame_waits_for_a_whole_frame():
    frame = wire.pack_frame(wire.MSG_FETCH, b"abcdef")
    for cut in (0, 5, 6, len(frame) - 1):  # partial header, then partial payload
        buf = bytearray(frame[:cut])
        assert wire.split_frame(buf) is None
        assert buf == frame[:cut]
    buf = bytearray(frame)
    assert wire.split_frame(buf) == (wire.MSG_FETCH, b"abcdef")
    assert buf == b""


def test_split_frame_takes_off_two_frames_from_one_buffer():
    first = wire.pack_frame(wire.MSG_QUERY, b"one")
    second = wire.pack_frame(wire.MSG_FETCH, b"")
    buf = bytearray(first + second + second[:3])
    assert wire.split_frame(buf) == (wire.MSG_QUERY, b"one")
    assert wire.split_frame(buf) == (wire.MSG_FETCH, b"")
    assert wire.split_frame(buf) is None
    assert buf == second[:3]


def test_split_frame_refuses_oversized_header_before_payload():
    frame = wire.pack_frame(wire.MSG_QUERY, b"x" * 100)
    with pytest.raises(MalformedFrame):
        wire.split_frame(bytearray(frame[:14]), max_payload=99)  # the header only
    assert wire.split_frame(bytearray(frame), max_payload=100) == (wire.MSG_QUERY, b"x" * 100)


def test_split_frame_checks_the_header_like_read_frame():
    for index, value in ((0, ord("X")), (4, 1), (4, 99)):
        frame = bytearray(wire.pack_frame(wire.MSG_FETCH, b"payload"))
        frame[index] = value
        with pytest.raises(MalformedFrame):
            wire.split_frame(bytearray(frame[:14]))


@pytest.mark.parametrize("q,width", [(2, 1), (5, 1), (257, 2), (65537, 3), (2**31 - 1, 4)])
def test_symbol_bytes(q, width):
    # A symbol spans `width` bytes: width-1 byte planes, then the bits of
    # its top byte as bit planes of one bit a symbol, rounded up to bytes.
    bits = (q - 1).bit_length()
    assert (bits + 7) // 8 == width
    for count in (0, 1, 7, 8, 9, 100):
        size = count * (width - 1) + (bits - 8 * (width - 1)) * ((count + 7) // 8)
        assert wire.symbols_size(count, q) == size
        assert len(wire.pack_symbols([q - 1] * count, q)) == size


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
    server_id, subqueries = wire.decode_query(payload, params, fp)
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
        wire.decode_query(roundtrip(frame)[1], params, fp)


def test_query_rejects_trailing_bytes():
    params = SchemeParams(n=3, k=2, t=1, m=1, q=5)
    V = default_encoding_matrix(params)
    fp = matrix_fingerprint(params, V)
    query = make_queries(params, V, 1, seed=0)[0]
    frame = wire.encode_query(params, fp, 1, query.subqueries)
    with pytest.raises(MalformedFrame):
        wire.decode_query(roundtrip(frame)[1] + b"\x00", params, fp)


def test_query_symbols_are_compact():
    # q=257 needs 9 bits per symbol, a byte plane and a bit plane; a
    # sub-query has one symbol per slab, whatever s is.
    params = SchemeParams(n=4, k=2, t=1, m=2, q=257, s=9)
    V = default_encoding_matrix(params)
    query = make_queries(params, V, 1, seed=0)[0]
    frame = wire.encode_query(params, matrix_fingerprint(params, V), 1, query.subqueries)
    symbols = params.alpha * params.query_length
    # Varints 4, 2, 1, 2, 257 (2 bytes), 9; fingerprint; varints 1, alpha.
    head = 7 + 32 + 2
    assert len(roundtrip(frame)[1]) == head + symbols + (symbols + 7) // 8


def test_query_rejects_truncation():
    params = SchemeParams(n=3, k=2, t=1, m=2, q=257, s=4)
    V = default_encoding_matrix(params)
    fp = matrix_fingerprint(params, V)
    query = make_queries(params, V, 1, seed=0)[0]
    payload = roundtrip(wire.encode_query(params, fp, 1, query.subqueries))[1]
    for cut in (1, 2, 3, len(payload) - 45):  # the last leaves 4 symbol bytes
        with pytest.raises(MalformedFrame):
            wire.decode_query(payload[:-cut], params, fp)


def query_payload(header, fingerprint, alpha, body=b""):
    return wire.pack_varints(header) + fingerprint + wire.pack_varints([1, alpha]) + body


@pytest.mark.parametrize(
    "field,value", [(0, 65536), (3, 0), (4, 100000000000031), (5, 2**64 - 1)]
)
def test_query_header_checked_before_use(field, value):
    # Hostile headers (an alpha with thousands of digits, m=0, a large
    # prime) are refused by comparison, without deriving anything from them.
    params = SchemeParams(n=3, k=2, t=1, m=2, q=257, s=4)
    fp = matrix_fingerprint(params, default_encoding_matrix(params))
    header = [params.n, params.k, params.t, params.m, params.q, params.s]
    header[field] = value
    with pytest.raises(HandshakeMismatch):
        wire.decode_query(query_payload(header, fp, params.alpha), params, fp)


def test_query_fingerprint_and_alpha_checked_before_symbols():
    params = SchemeParams(n=3, k=2, t=1, m=2, q=257)
    fp = matrix_fingerprint(params, default_encoding_matrix(params))
    header = [params.n, params.k, params.t, params.m, params.q, params.s]
    with pytest.raises(HandshakeMismatch):
        wire.decode_query(query_payload(header, bytes(32), params.alpha), params, fp)
    for count in (0, params.alpha + 1, 2**63):
        with pytest.raises(MalformedFrame, match="outside"):
            wire.decode_query(query_payload(header, fp, count), params, fp)
    with pytest.raises(MalformedFrame):
        wire.decode_query(query_payload(header, fp[:31], 0)[:-2], params, fp)


FUZZ_PARAMS = SchemeParams(n=3, k=2, t=1, m=2, q=257, s=2)
FUZZ_FP = matrix_fingerprint(FUZZ_PARAMS, default_encoding_matrix(FUZZ_PARAMS))
FUZZ_HEADER = (3, 2, 1, 2, 257, 2)
U64 = st.integers(0, 2**64 - 1)


def decodes_or_refuses(decode, *args):
    try:
        decode(*args)
    except StaircasePIRError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200), st.sampled_from([None, 0, 64]))
def test_fuzz_read_frame(data, cap):
    decodes_or_refuses(wire.read_frame, io.BytesIO(data), cap)


@settings(max_examples=300, deadline=None)
@given(U64, st.binary(max_size=120))
def test_fuzz_read_frame_lengths(length, tail):
    # A frame header announcing any length, followed by fewer bytes.
    frame = wire.frame_header(wire.MSG_QUERY, length)
    decodes_or_refuses(wire.read_frame, io.BytesIO(frame + tail))


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200), st.sampled_from([None, 0, 64]), st.integers(1, 40))
def test_fuzz_split_frame(data, cap, chunk):
    # Fed in chunks, the splitter takes off the frames read_frame reads,
    # and refuses exactly where read_frame does.
    reader = io.BytesIO(data)
    expected = []
    with suppress(StaircasePIRError):
        while reader.tell() < len(data):
            expected.append(wire.read_frame(reader, cap))
    buf, got = bytearray(), []
    with suppress(StaircasePIRError):
        for start in range(0, len(data), chunk):
            buf += data[start : start + chunk]
            while (frame := wire.split_frame(buf, cap)) is not None:
                got.append(frame)
    assert got == expected


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=300))
def test_fuzz_decoders_on_arbitrary_bytes(payload):
    decodes_or_refuses(wire.decode_query, payload, FUZZ_PARAMS, FUZZ_FP)
    for held in (0, 1, FUZZ_PARAMS.alpha):
        decodes_or_refuses(wire.decode_fetch, payload, FUZZ_PARAMS, held)
    decodes_or_refuses(wire.decode_response, payload, FUZZ_PARAMS.s, FUZZ_PARAMS.q)
    decodes_or_refuses(wire.decode_response, payload, 0, FUZZ_PARAMS.q)
    decodes_or_refuses(wire.decode_error, payload)


@settings(max_examples=300, deadline=None)
@given(
    st.just(FUZZ_HEADER) | st.tuples(*[st.just(v) | U64 for v in FUZZ_HEADER]),
    st.sampled_from([FUZZ_FP, bytes(32)]),
    st.just(FUZZ_PARAMS.alpha) | U64,
    st.binary(max_size=80),
)
def test_fuzz_query_headers(header, fingerprint, alpha, body):
    # The six header u64s, each the server's value or any other.
    payload = query_payload(header, fingerprint, alpha, body)
    decodes_or_refuses(wire.decode_query, payload, FUZZ_PARAMS, FUZZ_FP)


FETCH_PARAMS = SchemeParams(n=4, k=2, t=1, m=2, q=257, s=2)  # alpha = 6


def test_fetch_roundtrip():
    frame = wire.encode_fetch(7, [0, 2, 5])
    msg_type, payload = roundtrip(frame)
    assert msg_type == wire.MSG_FETCH
    assert wire.decode_fetch(payload, FETCH_PARAMS, 6) == (7, [0, 2, 5], [])


def test_fetch_carries_the_sub_queries_of_the_columns_it_adds():
    params = FETCH_PARAMS
    V = default_encoding_matrix(params)
    subqueries = make_queries(params, V, 2, seed=0)[1].subqueries
    # A session holding 2 columns is fetched 5: it adds columns 2, 3 and 4.
    frame = wire.encode_fetch(7, [4, 0, 2, 1, 3], subqueries[2:5], params)
    payload = roundtrip(frame)[1]
    per = params.query_length
    assert len(payload) == 4 + 6 + wire.symbols_size(3 * per, params.q)
    assert wire.decode_fetch(payload, params, 2) == (7, [4, 0, 2, 1, 3], subqueries[2:5])
    for held in (1, 3):  # the sub-queries are one too few, or one too many
        with pytest.raises(MalformedFrame):
            wire.decode_fetch(payload, params, held)


@pytest.mark.parametrize("columns,held", [
    ([0, 0], 6),  # a repeat
    ([1, 1], 1),  # a repeat of an added column
    ([3], 2),  # skips column 2
    ([6], 6),  # past alpha
], ids=["repeat", "repeat-added", "gap", "past-alpha"])
def test_fetch_columns_refused_before_any_symbol(columns, held):
    # No symbols follow the columns: they are refused by themselves.
    payload = roundtrip(wire.encode_fetch(1, columns))[1]
    with pytest.raises(MalformedFrame, match="FETCH columns"):
        wire.decode_fetch(payload, FETCH_PARAMS, held)


def test_response_roundtrip():
    cols = [(1, 2), (3, 4), (250, 0)]
    frame = wire.encode_response(9, cols, 257)
    msg_type, payload = roundtrip(frame)
    assert msg_type == wire.MSG_RESPONSE
    assert wire.decode_response(payload, 2, 257) == (9, cols)


def test_response_is_compact_and_rejects_truncation():
    cols = [(1, 65536), (3, 4)]
    _, payload = roundtrip(wire.encode_response(9, cols, 65537))
    # Session id, column count; 17-bit symbols: 2 byte planes and a bit plane.
    assert len(payload) == 4 + 1 + 2 * 4 + 1
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
        wire.decode_response(struct.pack("<I", 1) + wire.pack_varints([2**60]), 2, 5)
    with pytest.raises(MalformedFrame):
        wire.decode_response(struct.pack("<I", 1) + wire.pack_varints([10**6]), 0, 5)


def test_response_ack_has_no_columns():
    # The session-assignment ack is a RESPONSE with zero columns.
    _, payload = roundtrip(wire.encode_response(4, [], 257))
    assert wire.decode_response(payload, 0, 257) == (4, [])


def test_error_roundtrip():
    frame = wire.encode_error(wire.ERR_HANDSHAKE, "nope")
    msg_type, payload = roundtrip(frame)
    assert msg_type == wire.MSG_ERROR
    assert wire.decode_error(payload) == (wire.ERR_HANDSHAKE, "nope")


def test_error_message_is_cut_between_characters():
    message = "x" + "\u00e9" * wire.ERROR_TEXT_BYTES  # 1 byte, then 2 bytes each
    _, payload = roundtrip(wire.encode_error(wire.ERR_MALFORMED, message))
    code, text = wire.decode_error(payload)
    assert code == wire.ERR_MALFORMED
    assert text == message[: wire.ERROR_TEXT_BYTES // 2]  # 255 bytes, no half character


@pytest.mark.parametrize("q", [2, 5, 257, 65537])
def test_max_reply_payload_is_the_largest_reply(q):
    params = SchemeParams(n=4, k=2, t=1, m=3, q=q, s=512)
    columns = [[q - 1] * params.s] * params.alpha
    response = wire.encode_response(wire.SESSION_IDS - 1, columns, q)
    assert len(roundtrip(response)[1]) == wire.max_reply_payload(params)
    error = wire.encode_error(wire.ERR_MALFORMED, "x" * 10 * wire.ERROR_TEXT_BYTES)
    assert len(roundtrip(error)[1]) <= wire.max_reply_payload(params)


def test_fingerprint_distinguishes_matrices():
    params = SchemeParams(n=3, k=2, t=1, m=1, q=7)
    V = default_encoding_matrix(params)
    other = SchemeParams(n=3, k=2, t=1, m=1, q=11)
    W = default_encoding_matrix(other)
    a = matrix_fingerprint(params, V)
    b = matrix_fingerprint(other, W)
    assert len(a) == len(b) == 32
    assert a != b


# Moduli whose symbols are bit planes only (2, 3, 5), a byte plane and
# whole bytes (251, 65521), byte planes and bit planes (257, 65537,
# 2**31 - 1).
CODEC_QS = [2, 3, 5, 251, 257, 65521, 65537, 2**31 - 1]
COUNTS = st.sampled_from([0, 1, 7, 8, 9]) | st.integers(0, 300)


@st.composite
def symbol_blocks(draw, qs=CODEC_QS, counts=COUNTS):
    q = draw(st.sampled_from(qs))
    count = draw(counts)
    return q, draw(st.lists(st.integers(0, q - 1), min_size=count, max_size=count))


@settings(max_examples=300, deadline=None)
@given(symbol_blocks(), st.binary(max_size=3))
def test_symbols_roundtrip(block, prefix):
    q, values = block
    pack = wire.pack_symbols(values, q)
    assert len(pack) == wire.symbols_size(len(values), q)
    data = prefix + pack + b"tail"
    assert wire.unpack_symbols(data, len(values), q, len(prefix)) == (
        tuple(values), len(prefix) + len(pack))


@settings(max_examples=200, deadline=None)
@given(
    # Moduli with bit planes, and counts that leave padding in them.
    symbol_blocks(qs=[2, 3, 5, 257, 65537, 2**31 - 1],
                  counts=st.integers(1, 300).filter(lambda count: count % 8)),
    st.data(),
)
def test_symbols_refuse_a_set_bit_past_the_last_symbol(block, data):
    q, values = block
    count = len(values)
    bits = (q - 1).bit_length()
    plane = data.draw(st.integers(0, bits % 8 - 1))
    pad = data.draw(st.integers(count % 8, 7))  # a leading bit of its first byte
    block_bytes = bytearray(wire.pack_symbols(values, q))
    block_bytes[count * (bits // 8) + plane * ((count + 7) // 8)] |= 1 << pad
    with pytest.raises(MalformedFrame):
        wire.unpack_symbols(bytes(block_bytes), count, q)


@settings(max_examples=200, deadline=None)
@given(symbol_blocks(qs=[3, 5, 257, 65537, 2**31 - 1], counts=st.integers(1, 100)), st.data())
def test_symbols_refuse_a_value_of_q_or_more(block, data):
    # Every one of these moduli leaves values in [q, 2**bits) a symbol's
    # bits can hold.
    q, values = block
    top = (1 << (q - 1).bit_length()) - 1
    values[data.draw(st.integers(0, len(values) - 1))] = data.draw(st.integers(q, top))
    with pytest.raises(MalformedFrame):
        wire.unpack_symbols(wire.pack_symbols(values, q), len(values), q)


def test_symbols_refuse_a_value_past_their_bits():
    for q in (5, 251, 257, 65537):
        with pytest.raises(ValueError):
            wire.pack_symbols([0, 1 << (q - 1).bit_length()], q)


@settings(max_examples=200, deadline=None)
@given(
    symbol_blocks(counts=st.integers(0, 40)),
    st.integers(1, 4),
    st.integers(0, wire.SESSION_IDS - 1),
    st.data(),
)
def test_response_refuses_truncation_and_trailing_bytes(block, s, session, data):
    q, values = block
    columns = [tuple(values[c : c + s]) for c in range(0, len(values) - len(values) % s, s)]
    payload = roundtrip(wire.encode_response(session, columns, q))[1]
    assert wire.decode_response(payload, s, q) == (session, columns)
    cut = data.draw(st.integers(1, len(payload)))
    with pytest.raises(MalformedFrame):
        wire.decode_response(payload[:-cut], s, q)
    with pytest.raises(MalformedFrame):
        wire.decode_response(payload + data.draw(st.binary(min_size=1, max_size=4)), s, q)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, wire.SESSION_IDS - 1), st.integers(0, 6), st.integers(0, 6),
       st.randoms(use_true_random=False))
def test_fetch_roundtrip_any_columns(session, held, want, rng):
    # Any order of the columns of a prefix, of which those at or past the
    # held ones are added.
    params = FETCH_PARAMS
    columns = list(range(want))
    rng.shuffle(columns)
    added = [[rng.randrange(params.q) for _ in range(params.query_length)]
             for _ in range(held, want)]
    payload = roundtrip(wire.encode_fetch(session, columns, added, params))[1]
    assert wire.decode_fetch(payload, params, held) == (session, columns, added)


@pytest.mark.parametrize("varint", [
    b"\x80\x00",  # a zero continuation byte: not the shortest form
    b"\x85\x80\x00",
    b"\xff" * 9 + b"\x02",  # 2**64
    b"\xff" * 11,  # more bytes than any value below 2**64 needs
], ids=["zero-last-byte", "zero-third-byte", "2**64", "11-bytes"])
def test_overlong_varints_are_refused(varint):
    session = struct.pack("<I", 1)
    with pytest.raises(MalformedFrame):
        wire.decode_fetch(session + varint, FETCH_PARAMS, 6)
    with pytest.raises(MalformedFrame):
        wire.decode_response(session + varint, 2, 5)
    with pytest.raises(MalformedFrame):
        wire.decode_error(varint + b"message")
    header = wire.frame_header(wire.MSG_FETCH, 0)[:-1] + varint
    with pytest.raises(MalformedFrame):
        wire.split_frame(bytearray(header))
    with pytest.raises(MalformedFrame):
        roundtrip(header + bytes(16))


@pytest.mark.parametrize("varint", [b"", b"\x80", b"\xff\xff"], ids=["empty", "1-byte", "2-bytes"])
def test_truncated_varints_are_refused(varint):
    session = struct.pack("<I", 1)
    with pytest.raises(MalformedFrame):
        wire.decode_fetch(session + varint, FETCH_PARAMS, 6)
    with pytest.raises(MalformedFrame):
        wire.decode_fetch(session + wire.pack_varints([2]) + b"\x01" + varint, FETCH_PARAMS, 6)
    with pytest.raises(MalformedFrame):
        wire.decode_error(varint)
    # A frame header whose length has not all arrived waits for the rest.
    header = wire.frame_header(wire.MSG_FETCH, 0)[:-1] + varint
    assert wire.split_frame(bytearray(header)) is None
    with pytest.raises(MalformedFrame):
        roundtrip(header)


@pytest.mark.parametrize("payload", [b"", b"\x01\x02\x03"], ids=["empty", "3-bytes"])
def test_version_2_frames_are_refused(payload):
    frame = struct.pack("<4sBBQ", wire.MAGIC, 2, wire.MSG_RESPONSE, len(payload)) + payload
    with pytest.raises(MalformedFrame):
        roundtrip(frame)
    with pytest.raises(MalformedFrame):
        wire.split_frame(bytearray(frame))


@pytest.mark.parametrize("msg_type", [wire.MSG_QUERY, wire.MSG_FETCH, wire.MSG_RESPONSE])
def test_version_3_frames_are_refused(msg_type):
    # Version 3 framed like version 4: a varint length after the type.
    frame = struct.pack("<4sBB", wire.MAGIC, 3, msg_type) + wire.pack_varints([3]) + b"abc"
    with pytest.raises(MalformedFrame, match="version 3"):
        roundtrip(frame)
    with pytest.raises(MalformedFrame, match="version 3"):
        wire.split_frame(bytearray(frame))


@pytest.mark.parametrize("q", [2, 3, 5, 257, 65537, 2**31 - 1])
def test_max_request_payload_is_the_largest_query(q):
    params = SchemeParams(n=4, k=2, t=1, m=3, q=q, s=5)
    rng = random.Random(q)
    subqueries = [[rng.randrange(q) for _ in range(params.query_length)]
                  for _ in range(params.alpha)]
    sizes = [len(roundtrip(wire.encode_query(params, bytes(32), sid, subqueries))[1])
             for sid in range(1, params.n + 1)]
    assert max(sizes) == wire.max_request_payload(params)
    # A FETCH of every column, topping up a QUERY of one.
    fetch_all = wire.encode_fetch(
        wire.SESSION_IDS - 1, range(params.alpha), subqueries[1:], params)
    assert len(roundtrip(fetch_all)[1]) <= wire.max_request_payload(params)


def test_max_request_payload_covers_a_fetch_larger_than_any_query():
    # alpha = 60 columns of 120 one-bit symbols: the FETCH's 60 column
    # bytes outweigh the one sub-query and the header it lacks.
    params = SchemeParams(n=8, k=4, t=2, m=1, q=2)
    subqueries = [[1] * params.query_length] * (params.alpha - 1)
    fetch_all = wire.encode_fetch(
        wire.SESSION_IDS - 1, range(params.alpha), subqueries, params)
    assert len(roundtrip(fetch_all)[1]) == wire.max_request_payload(params)
    query = wire.encode_query(
        params, bytes(32), params.n, subqueries + [[0] * params.query_length])
    assert len(roundtrip(query)[1]) < wire.max_request_payload(params)


def test_frame_sizes_do_not_depend_on_the_session_id():
    for session in (0, 1, 200, wire.SESSION_IDS - 1):
        assert len(wire.encode_response(session, [], 257)) == 12
        assert len(wire.encode_response(session, [(1, 2)] * 2, 257)) == 7 + 4 + 1 + 4 + 1
        assert len(wire.encode_fetch(session, [0, 1])) == 7 + 4 + 1 + 2
