"""Span tracing of the staircase_pir layers, installed from outside the package.

A `Tracer` replaces the module-level functions that `net`, `protocol` and
`staircase` call through (`protocol.make_queries`, `staircase.encode_shares`,
`wire.encode_query`, ...) with wrappers that record one span per call: name,
start, end, parent span and retrieval id. Spans stay in memory until the run
writes them out. Byte and symbol counts are taken in the same wrappers, at the
`wire` boundary where each frame is encoded exactly once before it is sent.

Parents follow a per-thread stack. A span that starts on a thread with an empty
stack (handshake workers, server handler threads) is a child of the
`net.retrieve` span in flight, so one retrieval's spans form one tree.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from staircase_pir import ingest, net, protocol, staircase, wire

ROOT_SPAN = "net.retrieve"


def _query_frame(args, result):
    return {"bytes": len(result), "symbols": sum(len(sub) for sub in args[3])}


def _response_frame(args, result):
    columns = args[1]
    return {
        "bytes": len(result),
        "symbols": sum(len(col) for col in columns),
        "ack": not columns,
    }


def _frame_bytes(args, result):
    return {"bytes": len(result)}


def _query_symbols(args, result):
    return {"symbols": sum(len(sub) for query in result for sub in query.subqueries)}


def _random_symbols(args, result):
    return {"symbols": sum(len(vec) for vec in result)}


def _projected_symbols(args, result):
    return {"symbols": len(args[1])}


def _decoded_ack(args, result):
    return {"ack": not result[1]}


# (owner, attribute, span name, counts taken from (args, result)).
TARGETS = [
    (net, "retrieve", ROOT_SPAN, None),
    (net.socket, "create_connection", "net.connect", None),
    (protocol, "make_queries", "protocol.make_queries", _query_symbols),
    (staircase, "generate_randomness", "staircase.generate_randomness", _random_symbols),
    (staircase, "build_message_grid", "staircase.build_message_grid", None),
    (staircase, "encode_shares", "staircase.encode_shares", None),
    (staircase, "peel_decode", "staircase.peel_decode", None),
    (protocol, "server_respond", "protocol.server_respond", None),
    (protocol.Database, "project", "protocol.project", _projected_symbols),
    (protocol, "decode_file", "protocol.decode_file", None),
    (wire, "encode_query", "wire.encode_query", _query_frame),
    (wire, "decode_query", "wire.decode_query", None),
    (wire, "encode_fetch", "wire.encode_fetch", _frame_bytes),
    (wire, "decode_fetch", "wire.decode_fetch", None),
    (wire, "encode_response", "wire.encode_response", _response_frame),
    (wire, "decode_response", "wire.decode_response", _decoded_ack),
    (wire, "encode_error", "wire.encode_error", _frame_bytes),
    (wire, "decode_error", "wire.decode_error", None),
    (ingest, "ingest_dir", "ingest.ingest_dir", None),
    (ingest, "restore_file", "ingest.restore_file", None),
]


@dataclass
class Span:
    id: int
    parent: Optional[int]
    retrieval: Optional[int]
    name: str
    start: float
    end: float
    attrs: Optional[dict]

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """Installs timing wrappers on the package's layers and keeps the spans."""

    def __init__(self):
        self.spans: List[Span] = []
        self.retrieval: Optional[int] = None  # id of the retrieval in flight
        self._root: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []
        self._t0 = time.perf_counter()

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name, measure in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, measure))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name, measure):
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self._root
            span_id = next(self._ids)
            retrieval = self.retrieval
            stack.append(span_id)
            if name == ROOT_SPAN:
                self._root = span_id
            attrs = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                attrs = {"error": type(exc).__name__}
                raise
            else:
                end = time.perf_counter()
                if measure is not None:
                    attrs = measure(args, result)
                return result
            finally:
                stack.pop()
                if name == ROOT_SPAN:
                    self._root = None
                self.spans.append(
                    Span(span_id, parent, retrieval, name, start, end, attrs)
                )

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps({
                    "id": sp.id, "parent": sp.parent, "retrieval": sp.retrieval,
                    "name": sp.name, "start_s": sp.start - self._t0,
                    "end_s": sp.end - self._t0, "attrs": sp.attrs,
                }) + "\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_ms(span: Span, children: List[Span]) -> float:
    """The span's duration minus the part of it its children cover."""
    covered = _covered([(c.start, c.end) for c in children], span.start, span.end)
    return (span.end - span.start - covered) * 1e3


def _attr_sum(spans, key, pred=lambda sp: True) -> int:
    return sum(sp.attrs[key] for sp in spans if sp.attrs and key in sp.attrs and pred(sp))


def frame_bytes(spans: List[Span]) -> Dict[str, int]:
    """Bytes of the frames one retrieval encoded, by frame type."""
    by_name = _group(spans)
    responses = by_name.get("wire.encode_response", [])
    return {
        "query": _attr_sum(by_name.get("wire.encode_query", []), "bytes"),
        "fetch": _attr_sum(by_name.get("wire.encode_fetch", []), "bytes"),
        "ack": _attr_sum(responses, "bytes", lambda sp: sp.attrs.get("ack")),
        "response": _attr_sum(responses, "bytes", lambda sp: not sp.attrs.get("ack")),
        "error": _attr_sum(by_name.get("wire.encode_error", []), "bytes"),
    }


def upload_download(spans: List[Span]):
    """Client->server and server->client bytes of one retrieval."""
    b = frame_bytes(spans)
    return b["query"] + b["fetch"], b["ack"] + b["response"] + b["error"]


def _group(spans):
    out: Dict[str, List[Span]] = {}
    for sp in spans:
        out.setdefault(sp.name, []).append(sp)
    return out


def retrieval_layers(spans: List[Span]) -> Dict[str, float]:
    """Per-layer metrics of one traced retrieval, from its spans."""
    by_name = _group(spans)
    children: Dict[int, List[Span]] = {}
    for sp in spans:
        children.setdefault(sp.parent, []).append(sp)

    def total_ms(name):
        return sum(sp.ms for sp in by_name.get(name, []))

    def self_total_ms(name):
        return sum(self_ms(sp, children.get(sp.id, [])) for sp in by_name.get(name, []))

    out = {}
    for name in (
        "staircase.generate_randomness", "staircase.build_message_grid",
        "staircase.encode_shares", "staircase.peel_decode",
        "protocol.make_queries", "protocol.server_respond", "protocol.project",
        "protocol.decode_file", "wire.encode_query", "wire.decode_query",
        "wire.encode_fetch", "wire.decode_fetch", "wire.encode_response",
        "wire.decode_response", "ingest.restore_file",
    ):
        out[name + "_ms"] = total_ms(name)
    out["protocol.make_queries.self_ms"] = self_total_ms("protocol.make_queries")
    out["protocol.decode_file.self_ms"] = self_total_ms("protocol.decode_file")
    out["net.self_ms"] = self_total_ms(ROOT_SPAN)
    out["net.retrieve_ms"] = total_ms(ROOT_SPAN)

    out["staircase.random_symbols"] = _attr_sum(
        by_name.get("staircase.generate_randomness", []), "symbols")
    out["protocol.query_symbols"] = _attr_sum(
        by_name.get("protocol.make_queries", []), "symbols")
    projects = by_name.get("protocol.project", [])
    out["protocol.project_calls"] = len(projects)
    project_s = sum(sp.end - sp.start for sp in projects)
    out["protocol.project_symbols_per_s"] = (
        _attr_sum(projects, "symbols") / project_s if project_s else 0.0)

    fb = frame_bytes(spans)
    for kind in ("query", "ack", "fetch", "response"):
        out[f"wire.{kind}_frame_bytes"] = fb[kind]
    encoded_responses = by_name.get("wire.encode_response", [])
    acks = sum(1 for sp in encoded_responses if sp.attrs.get("ack"))
    out["wire.frames.query"] = len(by_name.get("wire.encode_query", []))
    out["wire.frames.ack"] = acks
    out["wire.frames.fetch"] = len(by_name.get("wire.encode_fetch", []))
    out["wire.frames.response"] = len(encoded_responses) - acks
    symbols = (_attr_sum(by_name.get("wire.encode_query", []), "symbols")
               + _attr_sum(encoded_responses, "symbols"))
    # Frame bytes, headers included, per symbol carried by QUERY and RESPONSE.
    out["wire.bytes_per_symbol"] = (fb["query"] + fb["response"]) / symbols if symbols else 0.0

    # Client side: acks end the handshakes, the first FETCH starts the download.
    decoded = by_name.get("wire.decode_response", [])
    ack_ends = [sp.end for sp in decoded if sp.attrs and sp.attrs.get("ack")]
    data_ends = [sp.end for sp in decoded if sp.attrs and sp.attrs.get("ack") is False]
    fetch_starts = [sp.start for sp in by_name.get("wire.encode_fetch", [])]
    if ack_ends and fetch_starts:
        out["net.idle_after_handshake_ms"] = (min(fetch_starts) - max(ack_ends)) * 1e3
    if fetch_starts and data_ends:
        out["net.fetch_ms"] = (max(data_ends) - min(fetch_starts)) * 1e3
    out["net.refused_endpoints"] = sum(
        1 for sp in by_name.get("net.connect", [])
        if sp.attrs and sp.attrs.get("error") == "ConnectionRefusedError")
    return out


def median_layers(per_retrieval: List[Dict[str, float]]) -> Dict[str, float]:
    """Median over retrievals of each per-layer value."""
    keys = sorted({k for row in per_retrieval for k in row})
    return {
        k: statistics.median(row[k] for row in per_retrieval if k in row)
        for k in keys
    }


def by_retrieval(spans: List[Span]) -> Dict[int, List[Span]]:
    out: Dict[int, List[Span]] = {}
    for sp in spans:
        if sp.retrieval is not None:
            out.setdefault(sp.retrieval, []).append(sp)
    return out
