"""Socket server and retrieval client over the binary wire protocol.

Each server holds the replicated database and answers QUERY/FETCH
frames; the client queries all n servers, waits for responders according
to its strategy, then fetches from all of them at once only the prefix
columns the plan needs, planning again if a responder drops.
"""

from __future__ import annotations

import itertools
import socket
import socketserver
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import protocol, wire
from .errors import (
    HandshakeMismatch,
    InsufficientResponders,
    MalformedFrame,
    OutOfRange,
    StaircasePIRError,
)
from .field import Matrix
from .params import SchemeParams

# How often a server's serve loop checks for shutdown(): the longest that
# PIRServer.shutdown() blocks.
SHUTDOWN_POLL_S = 0.05


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):
        srv = self.server
        reader = self.request.makefile("rb")
        # One session per connection: (id, query) of its latest QUERY.
        self.session: Optional[Tuple[int, protocol.Query]] = None
        try:
            while True:
                try:
                    msg_type, payload = wire.read_frame(reader, srv.max_payload)
                except StaircasePIRError:
                    break
                try:
                    reply = self._dispatch(srv, msg_type, payload)
                except HandshakeMismatch as exc:
                    reply = wire.encode_error(wire.ERR_HANDSHAKE, str(exc))
                except StaircasePIRError as exc:
                    reply = wire.encode_error(wire.ERR_MALFORMED, str(exc))
                self.request.sendall(reply)
        except (ConnectionError, OSError):
            pass
        finally:
            reader.close()

    def _dispatch(self, srv, msg_type, payload):
        if msg_type == wire.MSG_QUERY:
            server_id, subqueries = wire.decode_query(payload, srv.params, srv.fingerprint)
            query = protocol.Query(server_id, subqueries)
            self.session = (next(srv.session_counter), query)
            return wire.encode_response(self.session[0], [], srv.params.q)
        if msg_type == wire.MSG_FETCH:
            session_id, columns = wire.decode_fetch(payload)
            if self.session is None or self.session[0] != session_id:
                return wire.encode_error(wire.ERR_BAD_SESSION, "unknown session")
            # Each column costs a projection: refuse repeats before any.
            if len(set(columns)) != len(columns) or len(columns) > srv.params.alpha:
                raise MalformedFrame("FETCH columns repeat or exceed alpha")
            slabs = protocol.server_respond(srv.database, self.session[1], columns)
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
    thread = threading.Thread(
        target=server.serve_forever, args=(SHUTDOWN_POLL_S,), daemon=True
    )
    thread.start()
    server._thread = thread
    return server


@dataclass
class RetrievalMetrics:
    """What one retrieval did.

    realized_mu, symbols and rate describe the download plan the file was
    decoded with; wait_s is when the last server chosen as a responder
    completed its handshake. outcomes maps every server id to "ok"
    (decoded from), "refused" (connection refused), "handshake-mismatch",
    "error" (any other connect or handshake failure), "late" (not settled
    by the deadline, or, under "wait_for", beaten by the first responders)
    or "dropped-mid-fetch" (a FETCH failed and the client re-planned
    without it).
    """

    realized_mu: int
    wait_s: float
    symbols: int
    rate: object
    outcomes: Dict[int, str] = field(default_factory=dict)


class _ServerConn:
    """One connection: send the query, then fetch columns on demand."""

    def __init__(self, endpoint: Tuple[str, int], timeout: float):
        self.sock = socket.create_connection(endpoint, timeout=timeout)
        self.reader = self.sock.makefile("rb")
        self.session_id: Optional[int] = None

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
        if len(slabs) != len(columns):
            raise MalformedFrame(f"{len(slabs)} columns for a FETCH of {len(columns)}")
        return slabs

    def close(self):
        try:
            self.reader.close()
            self.sock.close()
        except OSError:
            pass


class _Retrieval:
    """The state one retrieval's per-server workers share, guarded by `cond`.

    A worker connects and sends its query, then settles its server: a
    completed handshake goes into `conns`, a failure into `failures`, and
    either notifies `cond`. If its server is chosen as a responder, the
    worker goes on to fetch the columns between those it holds in
    `columns` and `want`, each time `want` grows; a failed FETCH removes
    the server from `columns`. Every worker returns once `finished` is set.
    Once its handshake completes, a connection's reads and writes time out
    after `deadline_s`, so a responder that stalls on a FETCH is dropped.
    """

    def __init__(self, params: SchemeParams, fingerprint: bytes, connect_timeout: float,
                 deadline_s: float):
        self.params = params
        self.fingerprint = fingerprint
        self.connect_timeout = connect_timeout
        self.deadline_s = deadline_s
        self.cond = threading.Condition()
        self.start = time.monotonic()
        self.conns: Dict[int, _ServerConn] = {}
        self.arrived: Dict[int, float] = {}  # seconds from start to handshake
        self.failures: Dict[int, str] = {}
        self.mismatch: Optional[HandshakeMismatch] = None
        self.columns: Dict[int, List[tuple]] = {}  # responder -> slabs held
        self.want = 0  # prefix columns every responder should hold
        self.outcomes: Dict[int, str] = {}  # filled in once responders are chosen
        self.finished = False

    def worker(self, sid: int, endpoint, subqueries) -> None:
        conn = self._handshake(sid, endpoint, subqueries)
        if conn is not None:
            self._fetch_loop(sid, conn)

    def _handshake(self, sid, endpoint, subqueries) -> Optional[_ServerConn]:
        try:
            conn = _ServerConn(endpoint, self.connect_timeout)
        except ConnectionRefusedError:
            return self._fail(sid, "refused")
        except OSError:
            return self._fail(sid, "error")
        try:
            conn.handshake(self.params, self.fingerprint, sid, subqueries)
            conn.sock.settimeout(self.deadline_s)
        except HandshakeMismatch as exc:
            conn.close()
            return self._fail(sid, "handshake-mismatch", exc)
        except (OSError, StaircasePIRError):
            conn.close()
            return self._fail(sid, "error")
        with self.cond:
            if self.finished:  # retrieve has returned and closed the others
                conn.close()
                return None
            self.conns[sid] = conn
            self.arrived[sid] = time.monotonic() - self.start
            self.cond.notify_all()
        return conn

    def _fail(self, sid, outcome, mismatch=None) -> None:
        with self.cond:
            self.failures[sid] = outcome
            if self.mismatch is None:
                self.mismatch = mismatch
            self.cond.notify_all()

    def _fetch_loop(self, sid: int, conn: _ServerConn) -> None:
        while True:
            with self.cond:
                self.cond.wait_for(lambda: self.finished or (
                    sid in self.columns and len(self.columns[sid]) < self.want))
                if self.finished:
                    return
                wanted = range(len(self.columns[sid]), self.want)
            slabs = None
            try:
                slabs = conn.fetch(wanted, self.params)
            except (OSError, StaircasePIRError):
                pass
            finally:
                # Also on an unexpected error, so `fetch` never waits for it.
                with self.cond:
                    if slabs is None:
                        self.columns.pop(sid, None)
                    else:
                        self.columns[sid].extend(slabs)
                    self.cond.notify_all()
            if slabs is None:
                return

    def choose_responders(self, target: int) -> List[int]:
        """Wait until every server has settled, `target` of them have
        completed the handshake, or the deadline has passed; the earliest
        `target` of those that completed it are the responders."""
        n = self.params.n
        with self.cond:
            self.cond.wait_for(
                lambda: len(self.conns) >= target
                or len(self.conns) + len(self.failures) == n,
                timeout=self.start + self.deadline_s - time.monotonic(),
            )
            if self.mismatch is not None:
                raise self.mismatch
            responders = sorted(sorted(self.arrived, key=self.arrived.get)[:target])
            if len(responders) < self.params.k:
                raise InsufficientResponders(
                    f"only {len(responders)} servers responded, need {self.params.k}"
                )
            self.columns = {sid: [] for sid in responders}
            self.outcomes = {
                sid: self.failures.get(sid, "late") for sid in range(1, n + 1)
            }
            return responders

    def fetch(self, responders: List[int]):
        """(plan, responses) once every responder still up holds its plan's
        prefix; a responder that drops is left out and the plan redone."""
        with self.cond:
            while True:
                if len(self.columns) < self.params.k:
                    raise InsufficientResponders(
                        f"{len(self.columns)} responders left after drops mid-fetch,"
                        f" need {self.params.k}"
                    )
                # Prefixes nest, so the survivors only fetch the extra columns.
                plan = protocol.plan_download(self.params, list(self.columns))
                self.want = plan.prefix_cols
                self.cond.notify_all()
                self.cond.wait_for(lambda: len(self.columns) < plan.mu or all(
                    len(held) >= plan.prefix_cols for held in self.columns.values()))
                if len(self.columns) == plan.mu:
                    break
            for sid in responders:
                self.outcomes[sid] = "ok" if sid in self.columns else "dropped-mid-fetch"
            return plan, {sid: dict(enumerate(held)) for sid, held in self.columns.items()}

    def finish(self) -> None:
        with self.cond:
            self.finished = True
            for conn in self.conns.values():
                conn.close()
            self.cond.notify_all()


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
    the first `wait_for` servers to complete it (falling back to whoever
    completed it by the deadline if fewer ever do). Either way the client
    stops waiting as soon as every server has completed the handshake or
    failed (connection refused or broken, handshake refused), so a down
    server costs nothing and only a silent one costs the deadline.

    Each server's thread then fetches the plan's prefix columns, all at
    once. A responder whose FETCH fails, or that sends nothing for
    `deadline_s` seconds during one, is dropped: the client plans again
    with the others and fetches from them only the extra columns, or
    raises InsufficientResponders if fewer than k are left.
    """
    if len(endpoints) != params.n:
        raise ValueError(f"need {params.n} endpoints")
    if deadline_s <= 0:
        # It also becomes the responders' socket timeout, where 0 means
        # non-blocking.
        raise OutOfRange(f"deadline_s must be positive, got {deadline_s}")
    queries = protocol.make_queries(params, V, i, seed=seed)
    run = _Retrieval(
        params, protocol.matrix_fingerprint(params, V), connect_timeout, deadline_s
    )
    for sid, endpoint in enumerate(endpoints, start=1):
        threading.Thread(
            target=run.worker, args=(sid, endpoint, queries[sid - 1].subqueries),
            daemon=True,
        ).start()
    target = wait_for if strategy == "wait_for" and wait_for else params.n
    try:
        responders = run.choose_responders(target)
        plan, responses = run.fetch(responders)
    finally:
        run.finish()
    decoded = protocol.decode_file(params, V, plan, responses)
    return decoded, RetrievalMetrics(
        realized_mu=plan.mu,
        wait_s=max(run.arrived[sid] for sid in responders),
        symbols=plan.total_symbols,
        rate=plan.rate,
        outcomes=run.outcomes,
    )
