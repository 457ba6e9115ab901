"""Binary wire protocol: length-prefixed frames of compact fields.

Frame layout: magic "SPIR" (4 bytes), version (1 byte), message type
(1 byte), payload length (varint), payload. A varint is an unsigned
LEB128 integer below 2**64: 7 bits a byte, low bits first, the high bit
set on every byte but the last, in as few bytes as the value needs.

A block of `count` GF(q) symbols takes exactly b = bits(q-1) bits a
symbol. It is b // 8 byte planes of `count` bytes, byte j of every
symbol's little-endian form, then b % 8 bit planes of ceil(count/8)
bytes, bit i of every symbol's top byte. A bit plane is a big-endian
integer whose bit count-1-j is symbol j's, so its padding is its leading
bits, which must be 0. For q=257 that is 9 bits a symbol, a byte plane
and one bit plane; for q=5, 3 bit planes.

Message types:
  1 QUERY    its head: params n,k,t,m,q,s (varints), V fingerprint (32
             bytes) and server id (varint), or a 0 byte in its place on a
             connection that accepted it; then count (varint), then the
             sub-queries of columns 0..count-1, query_length = alpha'*m
             symbols each, as one block. A count outside [1, alpha] is
             refused unread.
  2 FETCH    count (varint), then the sub-queries of the next count
             columns, as one block.
  3 RESPONSE count (varint), then the s symbols of each of count columns,
             as one block. A zero-column RESPONSE acknowledges a QUERY.
  4 ERROR    code (varint), UTF-8 message of at most ERROR_TEXT_BYTES
             bytes.

The connection is the session. A connection has accepted a head while
its latest QUERY was accepted; a server refuses a QUERY with no head on
any other. A server holds the sub-queries it was sent
over a connection since its latest QUERY and has not answered yet. It
answers a FETCH with the projections of all of them, the QUERY's first,
and then holds none. Before any projection it refuses a FETCH on a
connection with no QUERY, one that takes the sub-queries since the QUERY
past alpha, and one that leaves nothing to answer.

A client sends a QUERY with the columns its download at the hoped-for
responder count reads. Its FETCH adds the columns a smaller responder
count reads, if fewer servers answer. A frame's size depends only on the
params, the server id and how many sub-queries and columns it carries,
and on whether its connection already accepted a head; never on the file.
On the bulk benchmark's (4,2,1) GF(257) scheme, 64 files of 384 bytes and
s=64, all four servers up:
  QUERY of 2 columns            8 + 905 bytes (768 symbols in 864 bytes)
  the same with no head         8 + 866
  FETCH adding none             7 + 1
  acknowledgement               7 + 1
  RESPONSE of 2 columns         8 + 145 (128 symbols in 144 bytes)
With two servers up, each FETCH adds 4 sub-queries, 8 + 1,729 bytes, and
each RESPONSE carries 6 columns, 8 + 433.

Version 1 sent one coefficient per database symbol and every symbol as a
u64; version 2 sent ceil(b/8) bytes a symbol and u64 integers; version 3
sent every sub-query in the QUERY and none in a FETCH; version 4 named a
u32 session id in every FETCH and RESPONSE and the columns in a FETCH;
version 5 sent the head in every QUERY. Version 6 frames are the only
ones read.
"""

from __future__ import annotations

import itertools
import struct
from functools import lru_cache
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import HandshakeMismatch, MalformedFrame
from .field import ints_from_bytes, ints_to_bytes
from .params import SchemeParams

MAGIC = b"SPIR"
VERSION = 6

MSG_QUERY = 1
MSG_FETCH = 2
MSG_RESPONSE = 3
MSG_ERROR = 4

ERR_HANDSHAKE = 1
ERR_MALFORMED = 4

# An ERROR's message is cut to this many bytes, so a reply has a largest
# size (max_reply_payload) that a client can refuse to buffer past.
ERROR_TEXT_BYTES = 256

_PREFIX = struct.Struct("<4sBB")  # magic, version, type; the varint length follows
_VARINT_MAX = 10  # bytes of the longest varint, one below 2**64
# A socket is read at most this many bytes at a time, so a header that
# announces a huge length costs memory only as its bytes arrive.
READ_CHUNK = 1 << 16


# The one-byte varints.
_ONE_BYTE = [bytes([value]) for value in range(0x80)]


def _varint_bytes(value: int) -> bytes:
    if 0 <= value < 0x80:
        return _ONE_BYTE[value]
    if not 0 <= value < 1 << 64:
        raise ValueError(f"varint {value} outside [0, 2**64)")
    out = bytearray()
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def pack_varints(values: Iterable[int]) -> bytes:
    """The varints of `values`, one after another."""
    return b"".join(map(_varint_bytes, values))


def _varint(data, off: int) -> Optional[Tuple[int, int]]:
    """(value, offset after it) of the varint at data[off:], None if the
    data ends first, or MalformedFrame if it is overlong."""
    if off < len(data) and data[off] < 0x80:
        return data[off], off + 1
    if off + 1 < len(data) and 0 < data[off + 1] < 0x80:
        return data[off] & 0x7F | data[off + 1] << 7, off + 2
    value = 0
    for i, byte in enumerate(data[off : off + _VARINT_MAX]):
        value |= (byte & 0x7F) << (7 * i)
        if byte < 0x80:
            if (i and not byte) or value >> 64:
                raise MalformedFrame("overlong varint")
            return value, off + i + 1
    if len(data) - off < _VARINT_MAX:
        return None
    raise MalformedFrame("overlong varint")


def _unpack_varint(data: bytes, off: int) -> Tuple[int, int]:
    found = _varint(data, off)
    if found is None:
        raise MalformedFrame("payload truncated")
    return found


def _unpack_varints(data: bytes, count: int, off: int = 0) -> Tuple[List[int], int]:
    values = []
    for _ in range(count):
        value, off = _unpack_varint(data, off)
        values.append(value)
    return values, off


def frame_header(msg_type: int, length: int) -> bytes:
    """The header of a frame whose payload is `length` bytes."""
    return _PREFIX.pack(MAGIC, VERSION, msg_type) + _varint_bytes(length)


def pack_frame(msg_type: int, payload: bytes) -> bytes:
    return frame_header(msg_type, len(payload)) + payload


def _check_header(header, max_payload: int) -> Optional[Tuple[int, int, int]]:
    """(message type, payload length, header size) of the frame header at
    the front of `header`; None until all of it is there; MalformedFrame
    as soon as enough of it is there to refuse it."""
    if len(header) < _PREFIX.size:
        return None
    magic, version, msg_type = _PREFIX.unpack_from(header)
    if magic != MAGIC:
        raise MalformedFrame(f"bad magic {magic!r}")
    if version != VERSION:
        raise MalformedFrame(f"unsupported version {version}")
    found = _varint(header, _PREFIX.size)
    if found is None:
        return None
    length, size = found
    if length > max_payload:
        raise MalformedFrame(f"payload of {length} bytes exceeds {max_payload}")
    return msg_type, length, size


def split_frame(buf: bytearray, max_payload: int) -> Optional[Tuple[int, bytes]]:
    """Take the first whole frame off the front of `buf`: (type, payload),
    or None, leaving `buf` as it was, until all of it has arrived.

    The cap is required: the header is checked as soon as its bytes are in
    `buf`, so a header announcing more than `max_payload` bytes is rejected
    before any of the payload arrives, and no peer can make its reader
    buffer more than that.
    """
    found = _check_header(buf, max_payload)
    if found is None:
        return None
    msg_type, length, start = found
    end = start + length
    if len(buf) < end:
        return None
    payload = bytes(buf[start:end])
    del buf[:end]
    return msg_type, payload


class _Layout(NamedTuple):
    """How the symbols of one GF(q) are cut into planes and checked."""

    planes: int  # byte planes: bits(q-1) // 8
    bit_planes: int  # bits(q-1) % 8, the bits of a symbol's top byte
    lane: int  # bytes of the packed ints the planes are cut from
    # (byte, the values it may take) for each byte of a lane that is not
    # a byte plane: the top byte, then bytes that must be 0.
    unused: tuple
    lead: int  # the byte of a symbol that holds bit bits(q-1) - 1
    lead_ok: bytes  # the lead bytes of the symbols below q
    # q-1's lead byte, if a symbol that has it may still be >= q; else b"".
    lead_max: bytes


@lru_cache(maxsize=None)
def _layout(q: int) -> _Layout:
    bits = (q - 1).bit_length()
    planes, bit_planes = divmod(bits, 8)
    lead = (bits - 1) // 8
    lane = next((size for size in (1, 2, 4, 8) if size > lead), lead + 1)
    unused = tuple((j, bytes(range(1 << bit_planes)) if j == planes else b"\0")
                   for j in range(planes, lane))
    top, rest = divmod(q - 1, 1 << 8 * lead)
    return _Layout(planes, bit_planes, lane, unused, lead, bytes(range(top + 1)),
                   bytes([top]) if rest + 1 < 1 << 8 * lead else b"")


# Bit i of a byte as an ASCII digit, and back.
_TO_DIGIT = [bytes(0x31 if v >> i & 1 else 0x30 for v in range(256)) for i in range(8)]
_FROM_DIGIT = [bytes.maketrans(b"01", bytes([0, 1 << i])) for i in range(8)]


def symbols_size(count: int, q: int) -> int:
    """Bytes of a block of `count` GF(q) symbols."""
    layout = _layout(q)
    return count * layout.planes + layout.bit_planes * ((count + 7) // 8)


def pack_symbols(values: Sequence[int], q: int) -> bytes:
    """A block of GF(q) symbols, bits(q-1) bits each (see the module
    docstring). A value that needs more bits is refused."""
    layout = _layout(q)
    return _pack_lanes(ints_to_bytes(values, layout.lane), len(values), layout)


def _pack_lanes(raw: bytes, count: int, layout: _Layout) -> bytes:
    """pack_symbols of `count` symbols already packed as little-endian ints
    of layout.lane bytes each."""
    planes, bit_planes, lane, unused = layout[:4]
    for j, allowed in unused:
        if raw[j::lane].translate(None, allowed):
            raise ValueError("a symbol needs more bits than q-1")
    out = [raw[j::lane] for j in range(planes)]
    if bit_planes and count:
        top, plane_bytes = raw[planes::lane], (count + 7) // 8
        out += [int(top.translate(_TO_DIGIT[i]), 2).to_bytes(plane_bytes, "big")
                for i in range(bit_planes)]
    return b"".join(out)


def unpack_symbols(data: bytes, count: int, q: int, off: int = 0) -> Tuple[tuple, int]:
    """(symbols, offset after them) of the block of `count` GF(q) symbols
    at data[off:]. MalformedFrame if the data ends first, if a bit plane
    has a bit set past the last symbol, or if a symbol is >= q."""
    planes, bit_planes, lane, _, lead, lead_ok, lead_max = _layout(q)
    plane_bytes = (count + 7) // 8
    end = off + count * planes + bit_planes * plane_bytes
    if end > len(data):
        raise MalformedFrame("payload truncated")
    if not count:
        return (), end
    raw = bytearray(count * lane)
    for j in range(planes):
        raw[j::lane] = data[off : off + count]
        off += count
    if bit_planes:
        top = 0
        for i in range(bit_planes):
            plane = int.from_bytes(data[off : off + plane_bytes], "big")
            off += plane_bytes
            if plane >> count:
                raise MalformedFrame("bit set past the last symbol")
            digits = format(plane, f"0{count}b").encode("ascii")
            top |= int.from_bytes(digits.translate(_FROM_DIGIT[i]), "big")
        raw[planes::lane] = top.to_bytes(count, "big")
    values = ints_from_bytes(raw, lane, count)
    # A symbol is below q if its lead byte is below q-1's; only those equal
    # to it need a look at the whole value.
    leads = raw[lead::lane]
    if leads.translate(None, lead_ok):
        raise MalformedFrame("symbol value >= q")
    if lead_max:
        pos = leads.find(lead_max)
        while pos >= 0:
            if values[pos] >= q:
                raise MalformedFrame("symbol value >= q")
            pos = leads.find(lead_max, pos + 1)
    return values, end


@lru_cache(maxsize=64)
def _query_prefix(params: SchemeParams, fingerprint: bytes) -> bytes:
    """The params and fingerprint that open a QUERY."""
    return pack_varints([params.n, params.k, params.t, params.m, params.q, params.s]) + fingerprint


def _pack_subqueries(subqueries, params: SchemeParams) -> bytes:
    """The block of the symbols of `subqueries`, each of query_length."""
    per = params.query_length
    if any(len(sub) != per for sub in subqueries):
        raise ValueError(f"sub-queries must have {per} symbols")
    layout = _layout(params.q)
    raw = b"".join(ints_to_bytes(sub, layout.lane) for sub in subqueries)
    return _pack_lanes(raw, len(subqueries) * per, layout)


def _unpack_subqueries(payload: bytes, count: int, params: SchemeParams,
                       off: int) -> List[List[int]]:
    """The `count` sub-queries that end a QUERY or FETCH payload at `off`."""
    per = params.query_length
    symbols, off = unpack_symbols(payload, count * per, params.q, off)
    if off != len(payload):
        raise MalformedFrame("trailing bytes after the sub-queries")
    return [list(symbols[a * per : (a + 1) * per]) for a in range(count)]


def max_request_payload(params: SchemeParams) -> int:
    """Largest payload a client sends to a server with these params: its
    QUERY of all alpha columns with the largest server id, n. A FETCH
    adds at most alpha - 1 sub-queries and carries no params, so it is
    smaller."""
    return (len(_query_prefix(params, bytes(32)) + pack_varints([params.n, params.alpha]))
            + symbols_size(params.alpha * params.query_length, params.q))


def max_reply_payload(params: SchemeParams) -> int:
    """Largest payload a server with these params sends a client: a
    RESPONSE of all alpha columns, or an ERROR, whichever is larger."""
    response = len(_varint_bytes(params.alpha)) + symbols_size(params.alpha * params.s, params.q)
    return max(response, _VARINT_MAX + ERROR_TEXT_BYTES)


def encode_query(
    params: SchemeParams, fingerprint: bytes, server_id: int, subqueries, head: bool = True
) -> bytes:
    """A QUERY carrying `subqueries`, those of columns 0, 1, ... in order;
    without `head`, for a connection that accepted it, a 0 byte in place
    of the params, fingerprint and server id."""
    if len(fingerprint) != 32:
        raise ValueError("fingerprint must be 32 bytes")
    if not 1 <= len(subqueries) <= params.alpha:
        raise ValueError(f"need 1 to {params.alpha} sub-queries")
    opening = _query_prefix(params, fingerprint) + _varint_bytes(server_id) if head else b"\0"
    return pack_frame(MSG_QUERY, opening + _varint_bytes(len(subqueries))
                      + _pack_subqueries(subqueries, params))


def decode_query(
    payload: bytes, params: SchemeParams, fingerprint: bytes
) -> Tuple[Optional[int], List[List[int]]]:
    """Decode a QUERY for a server holding `params` and the matrix with
    `fingerprint`; returns (server id, sub-queries), the id None for a
    QUERY with no head, which only a connection that accepted one may take.

    The untrusted header fields and fingerprint are compared with the
    server's own before anything is derived from them, and any difference
    raises HandshakeMismatch. A count outside [1, alpha] is refused before
    any symbol is read.
    """
    prefix = _query_prefix(params, fingerprint)
    if payload[:1] == b"\0":  # no head: a head opens with n >= 2
        server_id, off = None, 1
    elif payload.startswith(prefix):
        server_id, off = _unpack_varint(payload, len(prefix))
    else:  # find out what differs
        header, off = _unpack_varints(payload, 6)
        if header != [params.n, params.k, params.t, params.m, params.q, params.s]:
            raise HandshakeMismatch(f"scheme parameters mismatch: {header}")
        if off + 32 > len(payload):
            raise MalformedFrame("missing fingerprint")
        raise HandshakeMismatch("encoding matrix mismatch")
    count, off = _unpack_varint(payload, off)
    if not 1 <= count <= params.alpha:
        raise MalformedFrame(f"QUERY of {count} sub-queries, outside [1, {params.alpha}]")
    return server_id, _unpack_subqueries(payload, count, params, off)


def encode_fetch(params: SchemeParams, subqueries) -> bytes:
    """A FETCH adding `subqueries`, those of the next columns in order."""
    return pack_frame(MSG_FETCH, _varint_bytes(len(subqueries))
                      + (_pack_subqueries(subqueries, params) if subqueries else b""))


def decode_fetch(payload: bytes, params: SchemeParams, received: int) -> List[List[int]]:
    """The sub-queries a FETCH adds, on a connection sent `received` of
    them since its QUERY. A count that takes them past alpha is refused
    before any symbol is read."""
    count, off = _unpack_varint(payload, 0)
    if count > params.alpha - received:
        raise MalformedFrame(f"FETCH of {count} sub-queries after {received}"
                             f" takes them past alpha = {params.alpha}")
    return _unpack_subqueries(payload, count, params, off)


def encode_response(q: int, columns: Sequence[Sequence[int]]) -> bytes:
    """A RESPONSE carrying `columns`, s symbols each; none: an acknowledgement."""
    symbols = list(itertools.chain.from_iterable(columns))
    return pack_frame(MSG_RESPONSE, _varint_bytes(len(columns)) + pack_symbols(symbols, q))


def decode_response(payload: bytes, s: int, q: int) -> Tuple[int, List[tuple]]:
    """(column count, columns) of a RESPONSE of s-symbol columns; s=0 reads
    an acknowledgement, which carries none."""
    count, off = _unpack_varint(payload, 0)
    if count and not s:
        raise MalformedFrame("columns in an acknowledgement")
    flat, off = unpack_symbols(payload, count * s, q, off)
    if off != len(payload):
        raise MalformedFrame("trailing bytes in RESPONSE")
    return count, [flat[c * s : (c + 1) * s] for c in range(count)]


def encode_error(code: int, message: str) -> bytes:
    """An ERROR frame; the message is cut to ERROR_TEXT_BYTES of UTF-8,
    never inside a character."""
    text = message.encode("utf-8")[:ERROR_TEXT_BYTES].decode("utf-8", "ignore")
    return pack_frame(MSG_ERROR, _varint_bytes(code) + text.encode("utf-8"))


def decode_error(payload: bytes) -> Tuple[int, str]:
    code, off = _unpack_varint(payload, 0)
    return code, payload[off:].decode("utf-8", errors="replace")
