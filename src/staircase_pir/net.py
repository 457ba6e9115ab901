"""Socket server and retrieval client over the binary wire protocol.

Both ends are event-driven over non-blocking sockets. A server is one
thread running one selector loop over its listening socket and all of
its connections; a retrieval is one selector loop, in the caller's
thread, over its n connections. Neither starts a thread per connection
or per retrieval, so an idle peer holds a buffer, not a thread.

Each server holds the replicated database and answers QUERY/FETCH
frames. A retrieval applies one rule: decode from the mu servers that
respond, reading the first prefix_cols(mu) columns of each, and apply it
again when one drops. Every plan it makes is a protocol.DownloadPlan.

- The client takes each server's idle connection, or starts a connect
  to it, and makes one selector pass that does not wait: the connects
  that have completed or failed by then (on loopback, every one) are
  known before any QUERY goes out. Each server is sent its QUERY once
  its connection is up, never held back for another server. A reused
  connection that fails before its first reply is replaced by one fresh
  connect, whose failure alone settles the server.
- The first plan is for mu = min(target, servers connected), target
  being wait_for or n, made once target servers are connected or every
  connect has completed or failed. The first mu to connect are sent the
  plan's FETCH in the same write as their QUERY, or at once if their
  QUERY went out before it. A server answers the frames it has read together, so
  the acknowledgement and the RESPONSE come back in one write: with
  every connection reused and every server up, a retrieval is one write
  each way per server.
- The client waits for acknowledgements as protocol.ResponderWait
  decides: a server settles when its acknowledgement arrives or its
  connection fails. A server that refuses its QUERY ends the retrieval
  at once.
- When the wait ends, the plan is made again for the responders the
  wait chose, and each is sent a FETCH for the prefix columns it lacks,
  if any. A responder whose FETCH fails, or whose round trip outlives
  the deadline, is dropped, and the plan is made again for the others.
  The round trip counts from the server's acknowledgement, or from the
  FETCH if that was sent after it.

A QUERY carries only the sub-queries of the prefix for the target, and
a FETCH adds those of the columns a smaller mu, or a plan made again
after a drop, reads too. Which columns a server is sent depends on the
target and on how many servers connected and answered, never on the
file. On the bulk benchmark's (4,2,1) GF(257) scheme with all four
servers up, a retrieval sends each server a 913-byte QUERY and an 8-byte
FETCH in one write (3,684 bytes up), and reads back an 8-byte
acknowledgement and a 153-byte RESPONSE in one write (644 bytes down).

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
from typing import Dict, List, Optional, Sequence, Tuple

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

    The loop accepts connections and reads each into its own buffer. It
    answers the whole frames read so far in batches, each written in one
    send, so a QUERY and the FETCH behind it get their acknowledgement and
    RESPONSE in one write. A batch takes replies while it is under one
    largest reply (a RESPONSE of max_reply_payload bytes with its header),
    so it stays under two. A connection is read only while it has nothing
    left to send, so a peer that never reads holds at most the frames of
    one read (wire.READ_CHUNK bytes, or one larger frame) and a batch of
    replies.
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
        # A batch of replies written in one send takes replies while it is
        # shorter than the largest reply frame.
        largest = wire.max_reply_payload(params)
        self.largest_reply = len(wire.frame_header(wire.MSG_RESPONSE, largest)) + largest
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
        frames, each batch of replies in one write, until a batch cannot be
        written at once. A batch takes replies while it is under one largest
        reply, so it never reaches two."""
        try:
            if conn.out:
                conn.flush()
            elif not conn.recv():
                conn.close(sel)
                return
            while not conn.out:
                owed = b""
                while len(owed) < self.largest_reply:
                    frame = wire.split_frame(conn.inbuf, self.max_payload)
                    if frame is None:
                        break
                    owed += self._reply(conn, *frame)
                if not owed:
                    break
                conn.out = memoryview(owed)
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
            conn.pending = None  # a refused QUERY leaves a FETCH behind it nothing to top up
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
        self.connecting = False  # its socket has not been sent a QUERY yet
        self.reused = False  # its socket was idle, kept from a past retrieval
        self.slabs: List[tuple] = []  # the columns it answered, in order
        self.asked = 0  # columns of the FETCH in flight
        self.expires = math.inf  # when the FETCH in flight fails


class _Retrieval:
    """One retrieval's connections, download plan and selector loop.

    run() takes the retrieval through the module's flow and returns
    (plan, responses), responses mapping each of the plan's responders to
    the columns it answered, at least plan.prefix_cols of them. It raises
    HandshakeMismatch as soon as a server refuses its QUERY, and
    InsufficientResponders if fewer than k servers acknowledged theirs by
    the end of the wait, or fewer than k responders are left after drops.
    `responders` holds the servers the wait chose once it has ended.
    """

    def __init__(self, queries, V: Matrix, wait: protocol.ResponderWait):
        self.params = params = wait.params
        self.fingerprint = protocol.matrix_fingerprint(params, V)
        self.max_reply = wire.max_reply_payload(params)
        self.queries = queries
        self.first = params.prefix_cols(wait.target)  # the columns a QUERY carries
        self.wait = wait
        self.sel = selectors.DefaultSelector()
        self.start = time.monotonic()
        self.peers = [_Peer(sid) for sid in range(1, params.n + 1)]
        self.up: List[_Peer] = []  # connected, in the order their connects completed
        self.plan: Optional[protocol.DownloadPlan] = None  # the servers fetched from
        self.responders: Optional[List[int]] = None  # None: still waiting
        self.connects = 0

    def run(self, endpoints: Sequence[Tuple[str, int]]):
        """(plan, responses), as the class docstring says."""
        for peer, endpoint in zip(self.peers, endpoints):
            peer.endpoint = tuple(endpoint[:2])
            peer.sock = _take_idle(peer.endpoint)
            if peer.sock is None:
                self._connect(peer)
            else:
                peer.reused = peer.connecting = True
                self.up.append(peer)
        # A pass that does not wait: the connects that have completed or
        # failed by now (on loopback, every one) count toward the first plan.
        for key, _ in self.sel.select(0):
            self._connected(key.data)
        for peer in list(self.up):
            self._query(peer)
        until = self.start + self.wait.deadline  # the wait's end; then only FETCH expiries
        while self.responders is None or any(
                len(self.peers[sid - 1].slabs) < self.plan.prefix_cols
                for sid in self.plan.responders):
            now = time.monotonic()
            if self.responders is None and (self.wait.done or now >= until):
                self.responders = self.wait.responders()
                for peer in self.peers:
                    if peer.sid not in self.responders:
                        peer.close(self.sel)
                self._replan(self.responders)
                until = math.inf
                continue
            pending = [key.data for key in self.sel.get_map().values()]  # a reply due
            for key, mask in self.sel.select(min([until] + [p.expires for p in pending]) - now):
                self._step(key.data, mask)
            now = time.monotonic()
            for peer in pending:  # a FETCH that outlives its expiry fails as if timed out
                if peer.events and peer.expires <= now:
                    self._fail(peer, TimeoutError())
        return self.plan, {sid: self.peers[sid - 1].slabs for sid in self.plan.responders}

    def _connect(self, peer: _Peer, error: int = 0) -> None:
        """Start a non-blocking connect to the endpoint's next address,
        resolved on the first call, as socket.create_connection does."""
        if peer.addrs is None:
            peer.reused = False
            try:
                peer.addrs = socket.getaddrinfo(*peer.endpoint, 0, socket.SOCK_STREAM)
            except OSError as exc:
                return self._fail(peer, exc)
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
        self._fail(peer, OSError(error, "connect failed"))  # ConnectionRefusedError if refused

    def _connected(self, peer: _Peer) -> bool:
        """Whether the peer's connect completed; if it failed, the next
        address is tried."""
        error = peer.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
        if error:
            peer.close(self.sel)
            self._connect(peer, error)
            return False
        if peer not in self.up:
            self.up.append(peer)
        return True

    def _fail(self, peer: _Peer, exc: Exception) -> None:
        """A connection failed. After its server's acknowledgement, the server
        is dropped, and once the wait is over the plan is made again without
        it. Before, a refused QUERY ends the retrieval, a reused socket that
        failed before any reply is replaced by a fresh connect, and anything
        else settles the server as failed."""
        peer.close(self.sel)
        if peer.sid in self.wait.arrived:
            if self.responders is not None:
                self._replan(self.plan.responders)
        elif isinstance(exc, HandshakeMismatch):
            raise exc
        elif peer.reused and not peer.received:  # stale: the server may be up
            peer.asked = 0  # what the stale socket was sent goes out again
            self._connect(peer)
        else:
            outcome = "refused" if isinstance(exc, ConnectionRefusedError) else "error"
            self.wait.settle(peer.sid, time.monotonic() - self.start, outcome)
            self._plan()

    def _plan(self) -> None:
        """Make the first plan, unless there is one, once `target`
        connections are up or every connect has completed or failed: for
        the first mu = min(target, up) to connect, if at least k."""
        up = [peer for peer in self.up if peer.sock is not None]
        if self.plan is None and len(up) >= self.params.k and (
                len(up) >= self.wait.target or all(
                    peer in self.up or peer.sid in self.wait.failures for peer in self.peers)):
            self._replan([peer.sid for peer in up[: self.wait.target]])

    def _replan(self, sids) -> None:
        """Plan the download from the servers `sids` still connected, and
        send each the FETCH it now lacks, or leave it to go with the QUERY."""
        peers = [peer for peer in self.peers if peer.sid in sids and peer.sock is not None]
        self.plan = protocol.plan_download(self.params, [peer.sid for peer in peers])
        for peer in peers:
            if peer.sock is not None and not peer.connecting:  # a drop may have closed it
                self._request(peer)

    def _query(self, peer: _Peer) -> None:
        """Send the peer its QUERY, with the plan's FETCH if it is fetched
        from; the first plan is made first if its connection allows it."""
        self._plan()
        peer.connecting = False
        # Encoded only now, so a server that is down costs no upload.
        peer.out = memoryview(wire.encode_query(
            self.params, self.fingerprint, peer.sid,
            self.queries[peer.sid - 1].subqueries[: self.first]))
        self._request(peer)

    def _step(self, peer: _Peer, mask: int) -> None:
        """Move one connection on after its socket became ready."""
        try:
            if mask & _WRITE:
                if not peer.connecting:
                    self._request(peer)
                elif self._connected(peer):
                    self._query(peer)
                return
            if not peer.recv():
                raise MalformedFrame("connection closed mid-frame")
            # An acknowledgement and a RESPONSE may arrive together.
            while peer.sock is not None:
                frame = wire.split_frame(peer.inbuf, self.max_reply)
                if frame is None:
                    break
                self._on_frame(peer, *frame)
        except (OSError, StaircasePIRError) as exc:
            self._fail(peer, exc)

    def _on_frame(self, peer: _Peer, msg_type: int, payload: bytes) -> None:
        if msg_type == wire.MSG_ERROR:
            code, message = wire.decode_error(payload)
            if code == wire.ERR_HANDSHAKE:
                raise HandshakeMismatch(message)
            raise StaircasePIRError(message)
        if peer.sid not in self.wait.arrived:
            wire.decode_response(payload, 0, self.params.q)  # the acknowledgement
            now = time.monotonic()
            self.wait.settle(peer.sid, now - self.start)
            if peer.asked:  # its FETCH went with the QUERY: the round trip starts now
                peer.expires = now + self.wait.deadline
        else:
            _, slabs = wire.decode_response(payload, self.params.s, self.params.q)
            if len(slabs) != peer.asked:
                raise MalformedFrame(f"{len(slabs)} columns for a FETCH of {peer.asked}")
            peer.slabs.extend(slabs)
            peer.asked, peer.expires = 0, math.inf
            self._request(peer)
        if not peer.asked:
            peer.watch(self.sel, 0)  # idle until it is fetched from

    def _request(self, peer: _Peer) -> None:
        """Queue the peer a FETCH if the plan fetches from it, it has none in
        flight and it holds fewer than the plan's prefix columns, behind its
        QUERY if that is not written yet; then write what it is owed. The
        FETCH adds the sub-queries the peer was not sent; all the columns it
        lacks come back."""
        held, plan = len(peer.slabs), self.plan
        if plan and peer.sid in plan.responders and not peer.asked and held < plan.prefix_cols:
            query = self.queries[peer.sid - 1]
            query.expand_to(plan.prefix_cols)
            peer.asked = plan.prefix_cols - held
            if peer.sid in self.wait.arrived:  # else from its acknowledgement
                peer.expires = time.monotonic() + self.wait.deadline
            peer.out = memoryview(bytes(peer.out) + wire.encode_fetch(
                self.params, query.subqueries[max(held, self.first) : plan.prefix_cols]))
        if peer.out:
            try:
                peer.watch(self.sel, _READ if peer.flush() else _WRITE)
            except OSError as exc:
                self._fail(peer, exc)

    def close(self, keep: bool = False) -> None:
        """Close every connection but, with `keep`, the quiet ones decoded from."""
        kept = {}
        for peer in self.peers:
            if keep and peer.sid in self.plan.responders and not (
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
    """File i, from the servers at `endpoints`, one per server id, and what
    the retrieval did; the module docstring describes the flow.

    The policy is two values, as protocol.ResponderWait defines them: the
    client waits for the first `wait_for` servers (None: all n) to
    acknowledge their QUERY, but no longer than `deadline_s` seconds, and
    decodes from those that did. It also stops waiting once every server
    has settled, so a server whose connection is refused or broken costs
    nothing, and only a silent one costs the deadline; it is then "late".
    A responder whose FETCH fails, or whose FETCH round trip as a whole
    takes longer than `deadline_s` (however its bytes trickle in), is
    dropped, and the others are fetched from.

    Before anything is sent, it raises ValueError unless there are n
    endpoints, all different, and OutOfRange for a `wait_for` outside
    [k, n] or a `deadline_s` outside (0, MAX_DEADLINE_S]. Endpoints are
    compared as given: two spellings of one host, such as "localhost" and
    "127.0.0.1", are not caught. It raises HandshakeMismatch as soon as a
    server refuses its QUERY, and InsufficientResponders if fewer than k
    servers acknowledged by the end of the wait, or fewer than k
    responders are left after drops.

    The connections of the responders it decodes from stay open for the
    next retrieval to the same endpoints; every other one is closed.
    """
    if len(endpoints) != params.n:
        raise ValueError(f"need {params.n} endpoints")
    if len({tuple(endpoint[:2]) for endpoint in endpoints}) < params.n:
        # One server would hold two servers' sub-queries, which t=1 does not cover.
        raise ValueError("each endpoint must be given once")
    wait = protocol.ResponderWait(params, wait_for, deadline_s)  # refuses deadline_s <= 0
    if deadline_s > MAX_DEADLINE_S:
        raise OutOfRange(f"deadline_s must be at most {MAX_DEADLINE_S}, got {deadline_s}")
    queries = protocol.make_queries(
        params, V, i, seed=seed, columns=params.prefix_cols(wait.target))
    run = _Retrieval(queries, V, wait)
    decoded = None
    try:
        plan, responses = run.run(endpoints)
        decoded = protocol.decode_file(params, V, plan, responses)
    finally:
        run.close(keep=decoded is not None)
    return decoded, RetrievalMetrics(
        realized_mu=plan.mu,
        wait_s=wait.ended,
        symbols=plan.total_symbols,
        rate=plan.rate,
        outcomes=wait.outcomes(run.responders, responses),
        bytes_sent=sum(peer.sent for peer in run.peers),
        bytes_received=sum(peer.received for peer in run.peers),
        connects=run.connects,
    )
