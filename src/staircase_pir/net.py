"""Socket server and retrieval client over the binary wire protocol.

Each server holds the replicated database and answers QUERY/FETCH
frames; the client queries all n servers, waits for responders according
to its strategy, then fetches only the prefix columns the plan needs.
"""

from __future__ import annotations

import itertools
import socket
import socketserver
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import protocol, wire
from .errors import HandshakeMismatch, InsufficientResponders, StaircasePIRError
from .field import Matrix
from .params import SchemeParams


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):
        srv = self.server
        reader = self.request.makefile("rb")
        sessions: Dict[int, protocol.Query] = {}
        try:
            while True:
                try:
                    msg_type, payload = wire.read_frame(reader, srv.max_payload)
                except StaircasePIRError:
                    break
                try:
                    reply = self._dispatch(srv, sessions, msg_type, payload)
                except StaircasePIRError as exc:
                    reply = wire.encode_error(wire.ERR_MALFORMED, str(exc))
                self.request.sendall(reply)
        except (ConnectionError, OSError):
            pass
        finally:
            reader.close()

    def _dispatch(self, srv, sessions, msg_type, payload):
        if msg_type == wire.MSG_QUERY:
            params, fingerprint, server_id, subqueries = wire.decode_query(payload)
            if params != srv.params or fingerprint != srv.fingerprint:
                return wire.encode_error(
                    wire.ERR_HANDSHAKE, "scheme parameters or matrix mismatch"
                )
            session_id = next(srv.session_counter)
            sessions[session_id] = protocol.Query(
                server_id=server_id, subqueries=subqueries, fingerprint=fingerprint
            )
            return wire.encode_response(session_id, [], srv.params.q)
        if msg_type == wire.MSG_FETCH:
            session_id, columns = wire.decode_fetch(payload)
            query = sessions.get(session_id)
            if query is None:
                return wire.encode_error(wire.ERR_BAD_SESSION, "unknown session")
            slabs = protocol.server_respond(srv.database, query, columns)
            return wire.encode_response(
                session_id, [slabs[c] for c in columns], srv.params.q
            )
        return wire.encode_error(wire.ERR_MALFORMED, f"unexpected type {msg_type}")


class PIRServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, database: protocol.Database, params: SchemeParams,
                 V: Matrix):
        super().__init__(address, _Handler)
        self.database = database
        self.params = params
        self.V = V
        self.fingerprint = protocol.matrix_fingerprint(params, V)
        # Frames announcing more than this are refused unread.
        self.max_payload = wire.max_request_payload(params)
        self.session_counter = itertools.count(1)


def serve(
    host: str, port: int, database: protocol.Database, params: SchemeParams, V: Matrix
) -> PIRServer:
    """Start a server in a background thread; caller owns .shutdown()."""
    server = PIRServer((host, port), database, params, V)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    server._thread = thread
    return server


@dataclass
class RetrievalMetrics:
    realized_mu: int
    wait_s: float
    symbols: int
    rate: object


class _ServerConn:
    """One connection: send the query, then fetch columns on demand."""

    def __init__(self, endpoint: Tuple[str, int], timeout: float):
        self.sock = socket.create_connection(endpoint, timeout=timeout)
        self.reader = self.sock.makefile("rb")
        self.session_id: Optional[int] = None
        self.error: Optional[str] = None

    def handshake(self, params, fingerprint, server_id, subqueries):
        self.sock.sendall(wire.encode_query(params, fingerprint, server_id, subqueries))
        msg_type, payload = wire.read_frame(self.reader)
        if msg_type == wire.MSG_ERROR:
            code, message = wire.decode_error(payload)
            if code == wire.ERR_HANDSHAKE:
                raise HandshakeMismatch(message)
            raise StaircasePIRError(message)
        session_id, _ = wire.decode_response(payload, 0, params.q)
        self.session_id = session_id

    def fetch(self, columns: Sequence[int], params: SchemeParams) -> List[tuple]:
        self.sock.sendall(wire.encode_fetch(self.session_id, columns))
        msg_type, payload = wire.read_frame(self.reader)
        if msg_type == wire.MSG_ERROR:
            raise StaircasePIRError(wire.decode_error(payload)[1])
        _, slabs = wire.decode_response(payload, params.s, params.q)
        return slabs

    def close(self):
        try:
            self.reader.close()
            self.sock.close()
        except OSError:
            pass


def retrieve(
    endpoints: Sequence[Tuple[str, int]],
    params: SchemeParams,
    V: Matrix,
    i: int,
    strategy: str = "deadline",
    wait_for: Optional[int] = None,
    deadline_s: float = 1.0,
    seed=None,
    connect_timeout: float = 5.0,
) -> Tuple[List[int], RetrievalMetrics]:
    """Query all n endpoints and decode from the responders.

    strategy "deadline": responders are the servers that completed the
    query handshake within `deadline_s` seconds. strategy "wait_for":
    block until `wait_for` servers responded (falling back to whoever
    responded by the deadline if fewer ever do).
    """
    if len(endpoints) != params.n:
        raise ValueError(f"need {params.n} endpoints")
    queries = protocol.make_queries(params, V, i, seed=seed)
    fingerprint = protocol.matrix_fingerprint(params, V)

    conns: Dict[int, _ServerConn] = {}
    arrived: Dict[int, float] = {}
    lock = threading.Lock()
    start = time.monotonic()
    handshake_error: List[Exception] = []

    def worker(sid: int, endpoint):
        try:
            conn = _ServerConn(endpoint, connect_timeout)
            conn.handshake(
                params, fingerprint, sid, queries[sid - 1].subqueries
            )
        except HandshakeMismatch as exc:
            handshake_error.append(exc)
            return
        except (OSError, StaircasePIRError):
            return
        with lock:
            conns[sid] = conn
            arrived[sid] = time.monotonic() - start

    threads = [
        threading.Thread(target=worker, args=(sid, ep), daemon=True)
        for sid, ep in enumerate(endpoints, start=1)
    ]
    for th in threads:
        th.start()

    target = wait_for if strategy == "wait_for" else params.n
    deadline = start + deadline_s
    while time.monotonic() < deadline:
        with lock:
            count = len(arrived)
        if strategy == "wait_for" and count >= target:
            break
        if count == params.n:
            break
        time.sleep(0.005)
    if handshake_error:
        raise handshake_error[0]

    with lock:
        responders = sorted(arrived)
    if strategy == "wait_for" and wait_for is not None and len(responders) > wait_for:
        # Keep the earliest wait_for responders.
        responders = sorted(sorted(arrived, key=arrived.get)[:wait_for])
    if len(responders) < params.k:
        for conn in conns.values():
            conn.close()
        raise InsufficientResponders(
            f"only {len(responders)} servers responded, need {params.k}"
        )

    plan = protocol.plan_download(params, responders)
    responses = {}
    for sid in responders:
        slabs = conns[sid].fetch(list(range(plan.prefix_cols)), params)
        responses[sid] = dict(enumerate(slabs))
    decoded = protocol.decode_file(params, V, plan, responses)
    wait_s = max(arrived[sid] for sid in responders)
    for conn in conns.values():
        conn.close()
    return decoded, RetrievalMetrics(
        realized_mu=len(responders),
        wait_s=wait_s,
        symbols=plan.total_symbols,
        rate=protocol.rate_achieved(plan),
    )
