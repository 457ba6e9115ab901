"""Binary wire protocol: length-prefixed frames of little-endian fields.

Frame layout: magic "SPIR" (4 bytes), version (1 byte), message type
(1 byte), payload length (u64), payload. Field symbols travel in
w = symbol_bytes(q) = ceil(bits(q-1)/8) bytes each (1 for q=5, 2 for
q=257); every other integer field is a u64.

Message types:
  1 QUERY    params (n,k,t,m,q,s as 6 u64), V fingerprint (32 bytes),
             server id (u64), alpha (u64), then alpha sub-queries of
             query_length = alpha'*m symbols (w bytes each).
  2 FETCH    session id (u64), column count (u64), column indices (u64).
  3 RESPONSE session id (u64), column count (u64), then s symbols per
             column (w bytes each). A zero-column RESPONSE acknowledges a
             QUERY and carries the server-assigned session id.
  4 ERROR    code (u64), UTF-8 message.

Version 1 sent one coefficient per database symbol and every symbol as a
u64; version 2 frames are the only ones read.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence, Tuple

from .errors import HandshakeMismatch, MalformedFrame
from .field import ints_from_bytes, ints_to_bytes
from .params import SchemeParams

MAGIC = b"SPIR"
VERSION = 2

MSG_QUERY = 1
MSG_FETCH = 2
MSG_RESPONSE = 3
MSG_ERROR = 4

ERR_HANDSHAKE = 1
ERR_BAD_SESSION = 2
ERR_MALFORMED = 4

_HEADER = struct.Struct("<4sBBQ")
# Payloads are read at most this many bytes at a time, so a header that
# announces a huge length costs memory only as its bytes arrive.
READ_CHUNK = 1 << 16


def pack_frame(msg_type: int, payload: bytes) -> bytes:
    return _HEADER.pack(MAGIC, VERSION, msg_type, len(payload)) + payload


def _check_header(header, max_payload: Optional[int]) -> Tuple[int, int]:
    """(message type, payload length) of the frame header at the front of
    `header`, or MalformedFrame."""
    magic, version, msg_type, length = _HEADER.unpack_from(header)
    if magic != MAGIC:
        raise MalformedFrame(f"bad magic {magic!r}")
    if version != VERSION:
        raise MalformedFrame(f"unsupported version {version}")
    if max_payload is not None and length > max_payload:
        raise MalformedFrame(f"payload of {length} bytes exceeds {max_payload}")
    return msg_type, length


def read_frame(readable, max_payload: Optional[int] = None) -> Tuple[int, bytes]:
    """Read one frame from a file-like object with .read(n).

    A header announcing more than `max_payload` bytes is rejected before
    any of the payload is read.
    """
    msg_type, length = _check_header(_read_exact(readable, _HEADER.size), max_payload)
    return msg_type, _read_exact(readable, length)


def split_frame(buf: bytearray, max_payload: Optional[int] = None
                ) -> Optional[Tuple[int, bytes]]:
    """Take the first whole frame off the front of `buf`: (type, payload),
    or None, leaving `buf` as it was, until all of it has arrived.

    The header is checked as soon as its bytes are in `buf`, so a header
    announcing more than `max_payload` bytes is rejected before any of the
    payload arrives.
    """
    if len(buf) < _HEADER.size:
        return None
    msg_type, length = _check_header(buf, max_payload)
    end = _HEADER.size + length
    if len(buf) < end:
        return None
    payload = bytes(buf[_HEADER.size : end])
    del buf[:end]
    return msg_type, payload


def symbol_bytes(q: int) -> int:
    """Bytes per field symbol on the wire: ceil(bits(q-1)/8)."""
    return ((q - 1).bit_length() + 7) // 8


def max_request_payload(params: SchemeParams) -> int:
    """Largest payload a client sends to a server with these params: its
    QUERY. A FETCH of every column (16 + 8*alpha bytes) is never larger,
    since query_length >= alpha."""
    head = 8 * 6 + 32 + 8 * 2
    return head + params.alpha * params.query_length * symbol_bytes(params.q)


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


def _pack_u64s(values: Sequence[int]) -> bytes:
    return ints_to_bytes(values, 8)


def _unpack_u64s(data: bytes, count: int, offset: int = 0) -> Tuple[tuple, int]:
    return _unpack_symbols(data, count, 8, offset)


def _unpack_symbols(data: bytes, count: int, width: int, offset: int = 0) -> Tuple[tuple, int]:
    end = offset + width * count
    if end > len(data):
        raise MalformedFrame("payload truncated")
    return ints_from_bytes(data, width, count, offset), end


def encode_query(
    params: SchemeParams, fingerprint: bytes, server_id: int, subqueries
) -> bytes:
    if len(fingerprint) != 32:
        raise ValueError("fingerprint must be 32 bytes")
    head = _pack_u64s([params.n, params.k, params.t, params.m, params.q, params.s])
    body = [head, fingerprint, _pack_u64s([server_id, params.alpha])]
    per = params.query_length
    width = symbol_bytes(params.q)
    for sub in subqueries:
        if len(sub) != per:
            raise ValueError(f"sub-query must have {per} symbols")
        body.append(ints_to_bytes(sub, width))
    return pack_frame(MSG_QUERY, b"".join(body))


def decode_query(
    payload: bytes, params: SchemeParams, fingerprint: bytes
) -> Tuple[int, List[List[int]]]:
    """Decode a QUERY for a server holding `params` and the matrix with
    `fingerprint`; returns (server id, sub-queries).

    The untrusted header fields, fingerprint and alpha are compared with
    the server's own before anything is derived from them, and any
    difference raises HandshakeMismatch.
    """
    header, off = _unpack_u64s(payload, 6)
    if header != (params.n, params.k, params.t, params.m, params.q, params.s):
        raise HandshakeMismatch(f"scheme parameters mismatch: {header}")
    if off + 32 > len(payload):
        raise MalformedFrame("missing fingerprint")
    if payload[off : off + 32] != fingerprint:
        raise HandshakeMismatch("encoding matrix mismatch")
    (server_id, alpha), off = _unpack_u64s(payload, 2, off + 32)
    if alpha != params.alpha:
        raise HandshakeMismatch(f"alpha mismatch: {alpha} vs {params.alpha}")
    q, per = params.q, params.query_length
    width = symbol_bytes(q)
    subqueries = []
    for _ in range(alpha):
        vals, off = _unpack_symbols(payload, per, width, off)
        if max(vals) >= q:
            raise MalformedFrame("symbol value >= q")
        subqueries.append(list(vals))
    if off != len(payload):
        raise MalformedFrame("trailing bytes in QUERY")
    return server_id, subqueries


def encode_fetch(session_id: int, columns: Sequence[int]) -> bytes:
    return pack_frame(
        MSG_FETCH, _pack_u64s([session_id, len(columns)] + list(columns))
    )


def decode_fetch(payload: bytes) -> Tuple[int, List[int]]:
    (session_id, count), off = _unpack_u64s(payload, 2)
    cols, off = _unpack_u64s(payload, count, off)
    if off != len(payload):
        raise MalformedFrame("trailing bytes in FETCH")
    return session_id, list(cols)


def encode_response(session_id: int, columns: Sequence[Sequence[int]], q: int) -> bytes:
    flat = [sym for col in columns for sym in col]
    body = _pack_u64s([session_id, len(columns)]) + ints_to_bytes(flat, symbol_bytes(q))
    return pack_frame(MSG_RESPONSE, body)


def decode_response(payload: bytes, s: int, q: int) -> Tuple[int, List[tuple]]:
    (session_id, count), off = _unpack_u64s(payload, 2)
    if count and not s:
        raise MalformedFrame("columns in an acknowledgement")
    flat, off = _unpack_symbols(payload, count * s, symbol_bytes(q), off)
    if off != len(payload):
        raise MalformedFrame("trailing bytes in RESPONSE")
    return session_id, [flat[c * s : (c + 1) * s] for c in range(count)]


def encode_error(code: int, message: str) -> bytes:
    return pack_frame(MSG_ERROR, _pack_u64s([code]) + message.encode("utf-8"))


def decode_error(payload: bytes) -> Tuple[int, str]:
    (code,), off = _unpack_u64s(payload, 1)
    return code, payload[off:].decode("utf-8", errors="replace")
