"""Socket server and retrieval client over the binary wire protocol.

Both ends are event-driven over non-blocking sockets. A server is one
thread running one selector loop over its listening socket and all of
its connections; a retrieval is one selector loop, in the caller's
thread, over its n connections. Neither starts a thread per connection
or per retrieval, so an idle peer holds a buffer, not a thread.

Each server holds the replicated database and answers QUERY/FETCH
frames; the client queries all n servers, waits for the responders
protocol.ResponderWait chooses, then fetches from all of them at once
only the prefix columns the plan needs, planning again if one drops.

A download from mu responders reads the first prefix_cols(mu) columns of
each, a prefix that shrinks as mu grows. So a QUERY carries only the
sub-queries of the prefix for the target (wait_for, or n), and a FETCH
adds those of the columns a smaller mu, or a re-plan after a drop, reads
too. Which columns a server is sent depends on the target and on how
many servers answered, never on the file. On the bulk benchmark's
(4,2,1) GF(257) scheme with all four servers up, a retrieval sends each
server a 913-byte QUERY and an 8-byte FETCH (3,684 bytes up), and reads
back an 8-byte acknowledgement and a 153-byte RESPONSE (644 bytes down).

The connections of the responders a retrieval decoded from stay open, at
most n, for the next retrieval to the same endpoints. Each QUERY replaces
what its connection held, with fresh randomness: a server can link the
retrievals over one connection, as their source address lets it, but no
query depends on i.
"""

from __future__ import annotations

import atexit
import errno
import math
import selectors
import socket
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import protocol, wire
from .errors import (
    HandshakeMismatch,
    MalformedFrame,
    OutOfRange,
    StaircasePIRError,
)
from .field import Matrix
from .params import SchemeParams

# How often a server's serve loop checks for shutdown(): the longest that
# PIRServer.shutdown() blocks.
SHUTDOWN_POLL_S = 0.05

# The longest deadline retrieve() takes: one day. A selector wait must stay
# well below epoll's limit of 2**31 - 1 ms (about 2.1e6 s).
MAX_DEADLINE_S = 86400.0

_READ = selectors.EVENT_READ
_WRITE = selectors.EVENT_WRITE


class _Conn:
    """A non-blocking socket, the bytes read from it that do not yet make
    a whole frame, and the bytes still to write to it."""

    def __init__(self, sock: Optional[socket.socket] = None):
        self.sock = sock
        self.inbuf = bytearray()
        self.out = memoryview(b"")
        self.events = 0  # what the selector watches it for; 0: unregistered
        self.pending: Optional[list] = None  # a server's unanswered sub-queries; None: no QUERY
        self.since_query = 0  # sub-queries a server was sent since the latest QUERY
        self.sent = self.received = 0  # bytes, over every socket it has had

    def watch(self, sel: selectors.BaseSelector, events: int) -> None:
        if events == self.events:
            return
        if not self.events:
            sel.register(self.sock, events, self)
        elif not events:
            sel.unregister(self.sock)
        else:
            sel.modify(self.sock, events, self)
        self.events = events

    def recv(self) -> bool:
        """Read what has arrived; False once the peer has closed."""
        try:
            data = self.sock.recv(wire.READ_CHUNK)
        except BlockingIOError:  # woken with nothing to read after all
            return True
        self.inbuf += data
        self.received += len(data)
        return bool(data)

    def flush(self) -> bool:
        """Write what the socket takes now; True once nothing is left."""
        try:
            sent = self.sock.send(self.out)
            self.sent += sent
            self.out = self.out[sent:]
        except BlockingIOError:
            pass
        return not self.out

    def close(self, sel: selectors.BaseSelector) -> None:
        if self.sock is not None:
            self.watch(sel, 0)
            self.sock.close()
            self.sock = None


class PIRServer:
    """One server: a listening socket and the selector loop that serves it.

    The loop accepts connections, reads each into its own buffer, answers
    its whole frames one at a time and writes the replies back. A
    connection is read only while it has nothing left to send, so a peer
    that never reads holds at most one frame and one reply of memory.
    The connection is the session: a FETCH is answered with the
    projections of the sub-queries sent over it since its latest QUERY
    and not yet answered (see the wire module).
    """

    def __init__(self, address, database: protocol.Database, params: SchemeParams,
                 V: Matrix):
        self.database = database
        self.params = params
        self.fingerprint = protocol.matrix_fingerprint(params, V)
        # Frames announcing more than this are refused unread.
        self.max_payload = wire.max_request_payload(params)
        self.socket = socket.create_server(address)
        self.socket.setblocking(False)
        self.server_address = self.socket.getsockname()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None  # set by serve()

    def serve_forever(self) -> None:
        """Run the serve loop in this thread until shutdown(); connections
        still open when it stops are closed."""
        sel = selectors.DefaultSelector()
        sel.register(self.socket, _READ)
        try:
            while not self._stop.is_set():
                for key, _ in sel.select(SHUTDOWN_POLL_S):
                    if key.data is None:
                        self._accept(sel)
                    else:
                        self._serve(sel, key.data)
        finally:
            for key in list(sel.get_map().values()):
                if key.data is not None:
                    key.data.close(sel)
            sel.close()

    def shutdown(self) -> None:
        """Stop the serve loop and wait for serve()'s thread to end, at
        most SHUTDOWN_POLL_S."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()

    def server_close(self) -> None:
        self.socket.close()

    def _accept(self, sel) -> None:
        # One per wake-up: the selector reports the socket again while more wait.
        try:
            sock, _ = self.socket.accept()
        except OSError:  # the peer gave up before it was accepted
            return
        sock.setblocking(False)
        _Conn(sock).watch(sel, _READ)

    def _serve(self, sel, conn: _Conn) -> None:
        """Write what `conn` is owed, or read from it; then answer its whole
        frames until a reply cannot be written at once."""
        try:
            if conn.out:
                conn.flush()
            elif not conn.recv():
                conn.close(sel)
                return
            while not conn.out:
                frame = wire.split_frame(conn.inbuf, self.max_payload)
                if frame is None:
                    break
                conn.out = memoryview(self._reply(conn, *frame))
                conn.flush()
        except (OSError, MalformedFrame):  # a broken connection, or a bad header
            conn.close(sel)
            return
        except Exception:  # a fault here: report it and serve the other connections
            traceback.print_exc()
            conn.close(sel)
            return
        conn.watch(sel, _WRITE if conn.out else _READ)

    def _reply(self, conn: _Conn, msg_type: int, payload: bytes) -> bytes:
        try:
            return self._dispatch(conn, msg_type, payload)
        except HandshakeMismatch as exc:
            return wire.encode_error(wire.ERR_HANDSHAKE, str(exc))
        except StaircasePIRError as exc:
            return wire.encode_error(wire.ERR_MALFORMED, str(exc))

    def _dispatch(self, conn: _Conn, msg_type: int, payload: bytes) -> bytes:
        if msg_type == wire.MSG_QUERY:
            _, conn.pending = wire.decode_query(payload, self.params, self.fingerprint)
            conn.since_query = len(conn.pending)
            return wire.encode_response(self.params.q, [])
        if msg_type == wire.MSG_FETCH:
            # Each sub-query costs a projection: all are refused before any.
            if conn.pending is None:
                raise MalformedFrame("FETCH before any QUERY")
            held = conn.pending + wire.decode_fetch(payload, self.params, conn.since_query)
            if not held:
                raise MalformedFrame("FETCH with nothing to answer")
            conn.since_query += len(held) - len(conn.pending)
            conn.pending = []
            return wire.encode_response(self.params.q, protocol.server_respond(
                self.database, protocol.Query(held), range(len(held))))
        return wire.encode_error(wire.ERR_MALFORMED, f"unexpected type {msg_type}")


def serve(
    host: str, port: int, database: protocol.Database, params: SchemeParams, V: Matrix
) -> PIRServer:
    """Start a server in a background thread; caller owns .shutdown()."""
    server = PIRServer((host, port), database, params, V)
    server._thread = threading.Thread(target=server.serve_forever, daemon=True)
    server._thread.start()
    return server


@dataclass
class RetrievalMetrics:
    """What one retrieval did.

    realized_mu, symbols and rate describe the download plan the file was
    decoded with; wait_s is when, in seconds from the start, the client
    stopped waiting for handshakes (protocol.ResponderWait.ended), and
    outcomes labels every server id as protocol.ResponderWait defines.
    bytes_sent and bytes_received count what the client's sockets wrote
    and read, over all n servers; connects, the TCP connects it started,
    fallbacks from a stale reused connection included.
    """

    realized_mu: int
    wait_s: float
    symbols: int
    rate: object
    outcomes: Dict[int, str] = field(default_factory=dict)
    bytes_sent: int = 0
    bytes_received: int = 0
    connects: int = 0


# Idle connections kept for the next retrieval: (host, port) -> socket.
_idle: Dict[tuple, socket.socket] = {}
_idle_lock = threading.Lock()


def _take_idle(endpoint: tuple) -> Optional[socket.socket]:
    """The idle socket to `endpoint`, unless its peer closed or wrote to it."""
    with _idle_lock:
        sock = _idle.pop(endpoint, None)
    if sock is not None:
        try:
            sock.recv(1, socket.MSG_PEEK)  # EOF, stray data or an error: stale
        except BlockingIOError:
            return sock
        except OSError:
            pass
        sock.close()
    return None


def _keep_idle(endpoints: Sequence[tuple], kept: Dict[tuple, socket.socket]) -> None:
    """Keep `kept` idle, and no other socket but those to `endpoints`."""
    with _idle_lock:
        stale = [_idle.pop(ep) for ep in list(_idle) if ep not in endpoints or ep in kept]
        _idle.update(kept)
    for sock in stale:
        sock.close()


atexit.register(_keep_idle, (), {})  # closes them all, so none is left to the collector


class _Peer(_Conn):
    """The client's connection to one server."""

    def __init__(self, sid: int):
        super().__init__()
        self.sid = sid
        self.endpoint: tuple = ()
        self.addrs: Optional[list] = None  # addresses not yet tried; None: unresolved
        self.connecting = False
        self.reused = False  # its socket was idle, kept from a past retrieval
        self.asked = 0  # columns of the FETCH in flight
        self.expires = math.inf  # when the FETCH in flight fails


class _Retrieval:
    """One retrieval's connections and the selector loop that moves them on.

    Every server is connected to, or its idle connection taken, and then
    sent its query: the sub-queries it holds. A server settles in `wait`
    when its handshake completes or fails; one still unsettled when the
    wait ends is late. A reused connection that fails before any reply
    is replaced by a fresh connect, whose failure alone settles a server.
    Each responder then holds the prefix columns in `columns` and is sent
    a FETCH for the rest of the plan's prefix, `want`, with the
    sub-queries of those columns it has not been sent, whenever it holds
    fewer and has none in flight. A FETCH that fails, or whose round trip
    outlives the deadline, drops its server from `columns`. Only
    connections with a reply due are in the selector.
    """

    def __init__(self, queries, V: Matrix, wait: protocol.ResponderWait):
        self.params = params = wait.params
        self.fingerprint = protocol.matrix_fingerprint(params, V)
        self.max_reply = wire.max_reply_payload(params)
        self.queries = queries
        self.wait = wait
        self.sel = selectors.DefaultSelector()
        self.start = time.monotonic()
        self.peers = [_Peer(sid) for sid in range(1, params.n + 1)]
        self.mismatch: Optional[HandshakeMismatch] = None
        self.columns: Dict[int, List[tuple]] = {}  # responder -> slabs held
        self.want = 0  # prefix columns every responder should hold
        self.connects = 0

    def connect(self, endpoints: Sequence[Tuple[str, int]]) -> None:
        """Take each endpoint's idle connection, if it is still open, or
        start a non-blocking connect to it."""
        for peer, endpoint in zip(self.peers, endpoints):
            peer.endpoint = tuple(endpoint[:2])
            peer.sock = _take_idle(peer.endpoint)
            if peer.sock is None:
                self._connect(peer)
            else:  # connected: send its QUERY now
                peer.reused = peer.connecting = True
                self._step(peer, _WRITE)

    def _connect(self, peer: _Peer, error: int = 0) -> None:
        """Start a non-blocking connect to the endpoint's next address,
        resolved on the first call, as socket.create_connection does."""
        if peer.addrs is None:
            peer.reused = False
            try:
                peer.addrs = socket.getaddrinfo(*peer.endpoint, 0, socket.SOCK_STREAM)
            except OSError:
                return self._fail(peer, "error")
        while peer.addrs:
            family, kind, proto, _, addr = peer.addrs.pop(0)
            self.connects += 1
            try:
                peer.sock = socket.socket(family, kind, proto)
                peer.sock.setblocking(False)
                error = peer.sock.connect_ex(addr)
            except OSError as exc:
                error = exc.errno
            if error in (0, errno.EINPROGRESS, errno.EWOULDBLOCK):
                peer.connecting = True
                peer.watch(self.sel, _WRITE)
                return
            peer.close(self.sel)
        self._fail(peer, "refused" if error == errno.ECONNREFUSED else "error")

    def _fail(self, peer: _Peer, outcome: str) -> None:
        peer.close(self.sel)
        if peer.reused and not peer.received:  # stale: the server may be up
            return self._connect(peer)
        self.wait.settle(peer.sid, time.monotonic() - self.start, outcome)

    def _lose(self, peer: _Peer, exc: Exception) -> None:
        """A connection failed: before its handshake completed its server
        has failed; after, it is dropped as a responder."""
        if peer.sid in self.wait.arrived:  # its QUERY was acknowledged
            peer.close(self.sel)
            self.columns.pop(peer.sid, None)
        elif isinstance(exc, HandshakeMismatch):
            self._fail(peer, "handshake-mismatch")
            self.mismatch = self.mismatch or exc
        else:
            self._fail(peer, "error")

    def _step(self, peer: _Peer, mask: int) -> None:
        """Move one connection on after its socket became ready."""
        try:
            if mask & _WRITE:
                if peer.connecting:
                    error = peer.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
                    if error:
                        peer.close(self.sel)
                        return self._connect(peer, error)
                    peer.connecting = False
                    # Encoded only now, so a server that is down costs no upload.
                    peer.out = memoryview(wire.encode_query(
                        self.params, self.fingerprint, peer.sid,
                        self.queries[peer.sid - 1].subqueries))
                self._send(peer)
                return
            if not peer.recv():
                raise MalformedFrame("connection closed mid-frame")
            frame = wire.split_frame(peer.inbuf, self.max_reply)
            if frame is not None:
                self._on_frame(peer, *frame)
        except (OSError, StaircasePIRError) as exc:
            self._lose(peer, exc)

    def _send(self, peer: _Peer) -> None:
        peer.watch(self.sel, _READ if peer.flush() else _WRITE)

    def _on_frame(self, peer: _Peer, msg_type: int, payload: bytes) -> None:
        if msg_type == wire.MSG_ERROR:
            code, message = wire.decode_error(payload)
            if code == wire.ERR_HANDSHAKE:
                raise HandshakeMismatch(message)
            raise StaircasePIRError(message)
        peer.expires = math.inf
        if peer.sid not in self.wait.arrived:
            wire.decode_response(payload, 0, self.params.q)  # the acknowledgement
            self.wait.settle(peer.sid, time.monotonic() - self.start)
        else:
            _, slabs = wire.decode_response(payload, self.params.s, self.params.q)
            if len(slabs) != peer.asked:
                raise MalformedFrame(f"{len(slabs)} columns for a FETCH of {peer.asked}")
            self.columns[peer.sid].extend(slabs)
            peer.asked = 0
            self._request(peer)
        if not peer.asked:
            peer.watch(self.sel, 0)  # idle until it is fetched from

    def _request(self, peer: _Peer) -> None:
        """Send the responder a FETCH, unless it has one in flight, adding the
        sub-queries it was not sent; all the prefix columns it lacks come back."""
        held = len(self.columns[peer.sid])
        if peer.asked or held >= self.want:
            return
        query = self.queries[peer.sid - 1]
        sent = len(query.subqueries)  # every one expanded so far has been sent
        query.expand_to(self.want)
        peer.asked = self.want - held
        peer.expires = time.monotonic() + self.wait.deadline
        peer.out = memoryview(wire.encode_fetch(self.params, query.subqueries[sent:]))
        try:
            self._send(peer)
        except OSError as exc:
            self._lose(peer, exc)

    def _run_until(self, done: Callable[[], bool], until: float) -> None:
        """Handle socket events until done() holds or `until` has passed. A
        connection whose FETCH outlives its expiry fails as if its socket
        had timed out."""
        while not done():
            now = time.monotonic()
            if now >= until:
                return
            pending = [key.data for key in self.sel.get_map().values()]
            wake = min([until] + [peer.expires for peer in pending])
            for key, mask in self.sel.select(wake - now):
                self._step(key.data, mask)
            now = time.monotonic()
            for peer in pending:
                if peer.events and peer.expires <= now:
                    self._lose(peer, TimeoutError())

    def choose_responders(self) -> List[int]:
        """Handle handshakes until the wait is done or its deadline has
        passed; then keep only the responders' connections."""
        self._run_until(lambda: self.wait.done, self.start + self.wait.deadline)
        if self.mismatch is not None:
            raise self.mismatch
        responders = self.wait.responders()
        for peer in self.peers:
            if peer.sid not in responders:
                peer.close(self.sel)
        self.columns = {sid: [] for sid in responders}
        return responders

    def fetch(self):
        """(plan, responses) once every responder still up holds its plan's
        prefix; a responder that drops is left out and the plan redone."""
        while True:
            # Prefixes nest, so the survivors only fetch the extra columns.
            plan = protocol.plan_download(self.params, list(self.columns))
            self.want = plan.prefix_cols
            for sid in list(self.columns):
                self._request(self.peers[sid - 1])
            self._run_until(lambda: len(self.columns) < plan.mu or all(
                len(held) >= plan.prefix_cols for held in self.columns.values()),
                math.inf)
            if len(self.columns) == plan.mu:
                break
        return plan, self.columns

    def close(self, keep: bool = False) -> None:
        """Close every connection but, with `keep`, the quiet ones decoded from."""
        kept = {}
        for peer in self.peers:
            if keep and peer.sid in self.columns and not (
                    peer.asked or peer.inbuf or peer.out):  # idle, so unwatched
                kept[peer.endpoint], peer.sock = peer.sock, None
            peer.close(self.sel)
        self.sel.close()
        if kept:
            _keep_idle([peer.endpoint for peer in self.peers], kept)


def retrieve(
    endpoints: Sequence[Tuple[str, int]],
    params: SchemeParams,
    V: Matrix,
    i: int,
    wait_for: Optional[int] = None,
    deadline_s: float = 1.0,
    seed=None,
) -> Tuple[List[int], RetrievalMetrics]:
    """Query all n endpoints and decode from the responders.

    The policy is two values, as protocol.ResponderWait defines them: the
    client waits for the first `wait_for` servers (None: all n) to
    complete the query handshake, but no longer than `deadline_s`
    seconds, and decodes from those that did. It also stops waiting once
    every server has settled, so a server whose connection is refused or
    broken, or whose handshake is refused, costs nothing, and only a
    silent one costs the deadline; it is then "late". A `wait_for`
    outside [k, n], or a `deadline_s` outside (0, MAX_DEADLINE_S], raises
    OutOfRange before anything is sent.

    Each QUERY carries the sub-queries of the first
    prefix_cols(wait_for or n) columns; its acknowledgement is 8 bytes. The
    responders are then sent a FETCH, all at once, adding the sub-queries
    of the plan's prefix columns past those (8 bytes if none), and answer
    with all its prefix columns. A responder whose FETCH fails,
    or whose FETCH round trip as a whole takes longer than `deadline_s`
    (however its bytes trickle in), is dropped: the client plans again
    with the others and fetches from them only the extra columns, or
    raises InsufficientResponders if fewer than k are left. It all runs
    in the caller's thread.

    The connections of the responders it decodes from stay open for the
    next retrieval to the same endpoints; every other one is closed.
    """
    if len(endpoints) != params.n:
        raise ValueError(f"need {params.n} endpoints")
    wait = protocol.ResponderWait(params, wait_for, deadline_s)  # refuses deadline_s <= 0
    if deadline_s > MAX_DEADLINE_S:
        raise OutOfRange(f"deadline_s must be at most {MAX_DEADLINE_S}, got {deadline_s}")
    queries = protocol.make_queries(
        params, V, i, seed=seed, columns=params.prefix_cols(wait.target))
    run = _Retrieval(queries, V, wait)
    decoded = None
    try:
        run.connect(endpoints)
        responders = run.choose_responders()
        plan, responses = run.fetch()
        decoded = protocol.decode_file(params, V, plan, responses)
    finally:
        run.close(keep=decoded is not None)
    return decoded, RetrievalMetrics(
        realized_mu=plan.mu,
        wait_s=wait.ended,
        symbols=plan.total_symbols,
        rate=plan.rate,
        outcomes=wait.outcomes(responders, responses),
        bytes_sent=sum(peer.sent for peer in run.peers),
        bytes_received=sum(peer.received for peer in run.peers),
        connects=run.connects,
    )
