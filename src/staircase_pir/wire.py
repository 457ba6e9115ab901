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
  1 QUERY    params n,k,t,m,q,s (varints), V fingerprint (32 bytes),
             server id (varint), count (varint), then the sub-queries of
             columns 0..count-1, query_length = alpha'*m symbols each, as
             one block. A count outside [1, alpha] is refused unread.
  2 FETCH    session id (u32), column count (varint), column indices
             (varints), then one sub-query for each named column the
             session does not hold yet, in column order, as one block.
             Those columns must be the next ones after the held prefix,
             so a session always holds a prefix of its alpha sub-queries.
  3 RESPONSE session id (u32), column count (varint), then the s symbols
             of each column, as one block. A zero-column RESPONSE
             acknowledges a QUERY and carries the server-assigned session id.
  4 ERROR    code (varint), UTF-8 message of at most ERROR_TEXT_BYTES
             bytes.

A client sends a QUERY with the columns its download at the hoped-for
responder count reads, and tops the session up in a FETCH only if fewer
servers answer. A frame's size depends only on the params, the server id
and the columns it names and adds, never on how many sessions came
before: the session id has a fixed width, and a server's session counter
wraps at SESSION_IDS. On the bulk benchmark's (4,2,1) GF(257) scheme, 64
files of 384 bytes and s=64, all four servers up, a QUERY of 2 columns
is an 8-byte header and a 905-byte payload (768 symbols in 864 bytes), a
FETCH of those 2 columns 7 + 7 bytes, an acknowledgement 7 + 5 and a
RESPONSE of 2 columns 8 + 149 (128 symbols in 144 bytes). With two
servers up, each FETCH names all 6 columns and adds 4 sub-queries:
8 + 1,739 bytes.

Version 1 sent one coefficient per database symbol and every symbol as a
u64; version 2 sent ceil(b/8) bytes a symbol and u64 integers; version 3
sent every sub-query in the QUERY and none in a FETCH. Version 4 frames
are the only ones read.
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
VERSION = 4

MSG_QUERY = 1
MSG_FETCH = 2
MSG_RESPONSE = 3
MSG_ERROR = 4

ERR_HANDSHAKE = 1
ERR_BAD_SESSION = 2
ERR_MALFORMED = 4

# An ERROR's message is cut to this many bytes, so a reply has a largest
# size (max_reply_payload) that a client can refuse to buffer past.
ERROR_TEXT_BYTES = 256

# Session ids are u32s: a server hands out its counter modulo this.
SESSION_IDS = 1 << 32

_PREFIX = struct.Struct("<4sBB")  # magic, version, type; the varint length follows
_SESSION = struct.Struct("<I")
_VARINT_MAX = 10  # bytes of the longest varint, one below 2**64
# Payloads are read at most this many bytes at a time, so a header that
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


def _check_header(header, max_payload: Optional[int]) -> Optional[Tuple[int, int, int]]:
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
    if max_payload is not None and length > max_payload:
        raise MalformedFrame(f"payload of {length} bytes exceeds {max_payload}")
    return msg_type, length, size


def read_frame(readable, max_payload: Optional[int] = None) -> Tuple[int, bytes]:
    """Read one frame from a file-like object with .read(n).

    A header announcing more than `max_payload` bytes is rejected before
    any of the payload is read.
    """
    header = _read_exact(readable, _PREFIX.size)
    while (found := _check_header(header, max_payload)) is None:
        header += _read_exact(readable, 1)
    msg_type, length, _ = found
    return msg_type, _read_exact(readable, length)


def split_frame(buf: bytearray, max_payload: Optional[int] = None
                ) -> Optional[Tuple[int, bytes]]:
    """Take the first whole frame off the front of `buf`: (type, payload),
    or None, leaving `buf` as it was, until all of it has arrived.

    The header is checked as soon as its bytes are in `buf`, so a header
    announcing more than `max_payload` bytes is rejected before any of the
    payload arrives.
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


def _read_exact(readable, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = readable.read(min(remaining, READ_CHUNK))
        if not chunk:
            raise MalformedFrame("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


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
    QUERY of all alpha columns with the largest server id, n, or a FETCH
    of all alpha columns that adds alpha - 1 sub-queries to a QUERY of
    one, whichever is larger."""
    query = (len(_query_prefix(params, bytes(32)) + pack_varints([params.n, params.alpha]))
             + symbols_size(params.alpha * params.query_length, params.q))
    fetch = (_SESSION.size + len(pack_varints([params.alpha, *range(params.alpha)]))
             + symbols_size((params.alpha - 1) * params.query_length, params.q))
    return max(query, fetch)


def max_reply_payload(params: SchemeParams) -> int:
    """Largest payload a server with these params sends a client: a
    RESPONSE of all alpha columns, or an ERROR, whichever is larger."""
    response = (_SESSION.size + len(_varint_bytes(params.alpha))
                + symbols_size(params.alpha * params.s, params.q))
    return max(response, _VARINT_MAX + ERROR_TEXT_BYTES)


def encode_query(
    params: SchemeParams, fingerprint: bytes, server_id: int, subqueries
) -> bytes:
    """A QUERY carrying `subqueries`, those of columns 0, 1, ... in order."""
    if len(fingerprint) != 32:
        raise ValueError("fingerprint must be 32 bytes")
    if not 1 <= len(subqueries) <= params.alpha:
        raise ValueError(f"need 1 to {params.alpha} sub-queries")
    head = _query_prefix(params, fingerprint) + pack_varints([server_id, len(subqueries)])
    return pack_frame(MSG_QUERY, head + _pack_subqueries(subqueries, params))


def decode_query(
    payload: bytes, params: SchemeParams, fingerprint: bytes
) -> Tuple[int, List[List[int]]]:
    """Decode a QUERY for a server holding `params` and the matrix with
    `fingerprint`; returns (server id, sub-queries).

    The untrusted header fields and fingerprint are compared with the
    server's own before anything is derived from them, and any difference
    raises HandshakeMismatch. A count outside [1, alpha] is refused before
    any symbol is read.
    """
    prefix = _query_prefix(params, fingerprint)
    if not payload.startswith(prefix):  # find out what differs
        header, off = _unpack_varints(payload, 6)
        if header != [params.n, params.k, params.t, params.m, params.q, params.s]:
            raise HandshakeMismatch(f"scheme parameters mismatch: {header}")
        if off + 32 > len(payload):
            raise MalformedFrame("missing fingerprint")
        raise HandshakeMismatch("encoding matrix mismatch")
    (server_id, count), off = _unpack_varints(payload, 2, len(prefix))
    if not 1 <= count <= params.alpha:
        raise MalformedFrame(f"QUERY of {count} sub-queries, outside [1, {params.alpha}]")
    return server_id, _unpack_subqueries(payload, count, params, off)


def _unpack_session(payload: bytes) -> Tuple[int, int, int]:
    """(session id, column count, offset after them) of a FETCH or RESPONSE."""
    if len(payload) < _SESSION.size:
        raise MalformedFrame("payload truncated")
    (session_id,) = _SESSION.unpack_from(payload)
    return (session_id, *_unpack_varint(payload, _SESSION.size))


def encode_fetch(session_id: int, columns: Sequence[int], subqueries=(),
                 params: Optional[SchemeParams] = None) -> bytes:
    """A FETCH of `columns`, adding `subqueries`: those of the columns the
    session does not hold yet, in column order (`params` needed if any)."""
    head = _SESSION.pack(session_id) + pack_varints([len(columns), *columns])
    return pack_frame(MSG_FETCH, head + (_pack_subqueries(subqueries, params)
                                         if subqueries else b""))


def decode_fetch(payload: bytes, params: SchemeParams, held: int
                 ) -> Tuple[int, List[int], List[List[int]]]:
    """(session id, columns, added sub-queries) of a FETCH to a session
    that holds the sub-queries of columns 0..held-1.

    The columns must not repeat, and those at or past `held` must be
    exactly the next ones, below alpha; each adds the sub-query that the
    payload carries for it, so the count is implied by the columns.
    """
    session_id, count, off = _unpack_session(payload)
    if count > len(payload) - off:  # a column takes at least a byte
        raise MalformedFrame("payload truncated")
    columns, off = _unpack_varints(payload, count, off)
    added = sorted(c for c in columns if c >= held)
    if (len(set(columns)) != count or added != list(range(held, held + len(added)))
            or held + len(added) > params.alpha):
        raise MalformedFrame("FETCH columns repeat, skip a column or exceed alpha")
    return session_id, columns, _unpack_subqueries(payload, len(added), params, off)


def encode_response(session_id: int, columns: Sequence[Sequence[int]], q: int) -> bytes:
    symbols = list(itertools.chain.from_iterable(columns))
    return pack_frame(MSG_RESPONSE, _SESSION.pack(session_id)
                      + _varint_bytes(len(columns)) + pack_symbols(symbols, q))


def decode_response(payload: bytes, s: int, q: int) -> Tuple[int, List[tuple]]:
    session_id, count, off = _unpack_session(payload)
    if count and not s:
        raise MalformedFrame("columns in an acknowledgement")
    flat, off = unpack_symbols(payload, count * s, q, off)
    if off != len(payload):
        raise MalformedFrame("trailing bytes in RESPONSE")
    return session_id, [flat[c * s : (c + 1) * s] for c in range(count)]


def encode_error(code: int, message: str) -> bytes:
    """An ERROR frame; the message is cut to ERROR_TEXT_BYTES of UTF-8,
    never inside a character."""
    text = message.encode("utf-8")[:ERROR_TEXT_BYTES].decode("utf-8", "ignore")
    return pack_frame(MSG_ERROR, _varint_bytes(code) + text.encode("utf-8"))


def decode_error(payload: bytes) -> Tuple[int, str]:
    code, off = _unpack_varint(payload, 0)
    return code, payload[off:].decode("utf-8", errors="replace")
