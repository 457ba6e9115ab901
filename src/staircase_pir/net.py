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
- One rule, protocol.ResponderWait's, chooses both the first plan and
  the responders. Connections settle a wait of their own, with the same
  target (wait_for or n) and no deadline: a server arrives when its idle
  connection is taken or its connect completes, and fails as it fails
  the acknowledgement wait. Once that wait is done with at least k
  arrived, the first plan is for its responders, the first mu =
  min(target, servers connected) to connect. They are sent the plan's
  FETCH in the same write as their QUERY, or at once if their QUERY went
  out before it. A server answers the frames it has read together, so
  the acknowledgement and the RESPONSE come back in one write: with
  every connection reused and every server up, a retrieval is one write
  each way per server.
- The client waits for acknowledgements as protocol.ResponderWait
  decides: a server settles when its acknowledgement arrives or its
  connection fails, and the wait chooses the responders once it has
  `ended`. A server that refuses its QUERY ends the retrieval at once.
- Once the wait has chosen, the plan is for the responders it chose,
  and each is sent a FETCH for the prefix columns it lacks, if any. A
  server whose connection fails after its acknowledgement, whether the
  wait has ended or not, or whose FETCH round trip outlives the
  deadline, is dropped and no longer counts toward the servers waited
  for. A chosen one's drop reopens the wait, which chooses again at once
  if it can, and the plan follows. The round trip counts from the
  server's acknowledgement, or from the FETCH if that was sent after it.
  A server not chosen stays connected until the retrieval ends, so it
  can still arrive.

A QUERY carries only the sub-queries of the prefix for the target, and
a FETCH adds those of the columns a smaller mu, or a plan made again
after a drop, reads too. Which columns a server is sent depends on the
target and on how many servers connected and answered, never on the
file. On the bulk benchmark's (4,2,1) GF(257) scheme with all four
servers up, a retrieval sends each server a 913-byte QUERY and an 8-byte
FETCH in one write (3,684 bytes up), and reads back an 8-byte
acknowledgement and a 153-byte RESPONSE in one write (644 bytes down).
Over the connections it kept, the next retrieval's QUERY goes without its
head, 874 bytes (3,528 bytes up).

The connections of the responders a retrieval decoded from stay open, at
most n, for the next retrieval to the same endpoints, each with the head
(params and matrix fingerprint) its server accepted. A QUERY over a kept
connection with the same head carries a 0 byte in its place; every other
QUERY, a fresh connection's included, carries its head, which the server
checks. Each QUERY replaces what its connection held, with fresh
randomness: a server can link the retrievals over one connection, as
their source address lets it, but no query depends on i.
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
        # A server's unanswered sub-queries; None: no QUERY accepted, or the latest refused.
        self.pending: Optional[list] = None
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

    It raises ValueError unless `database` holds data of `params`: the
    same n, k, t, m, q and s. The row order may differ, since a server
    never reads it.
    """

    def __init__(self, address, database: protocol.Database, params: SchemeParams,
                 V: Matrix):
        if any(getattr(database.params, name) != getattr(params, name) for name in "nktmqs"):
            raise ValueError(f"database of {database.params} served as {params}")
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
            # A refused QUERY leaves a FETCH behind it nothing to top up, and
            # its connection no head accepted: pending is None until one is.
            accepted, conn.pending = conn.pending is not None, None
            server_id, pending = wire.decode_query(payload, self.params, self.fingerprint)
            if server_id is None and not accepted:
                raise MalformedFrame("QUERY with no head on a connection that accepted none")
            conn.pending, conn.since_query = pending, len(pending)
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
            return wire.encode_response(
                self.params.q, protocol.server_respond(self.database, held))
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


# Idle connections kept for the next retrieval: (host, port) -> (socket,
# the (params, fingerprint) of the QUERY head its server accepted).
_idle: Dict[tuple, Tuple[socket.socket, tuple]] = {}
_idle_lock = threading.Lock()


def _take_idle(endpoint: tuple) -> tuple:
    """(the idle socket to `endpoint`, the head its server accepted), unless
    its peer closed or wrote to it; else (None, None)."""
    with _idle_lock:
        sock, head = _idle.pop(endpoint, (None, None))
    if sock is not None:
        try:
            sock.recv(1, socket.MSG_PEEK)  # EOF, stray data or an error: stale
        except BlockingIOError:
            return sock, head
        except OSError:
            pass
        sock.close()
    return None, None


def _keep_idle(endpoints: Sequence[tuple], kept: Dict[tuple, tuple]) -> None:
    """Keep `kept` idle, and no other socket but those to `endpoints`."""
    with _idle_lock:
        stale = [_idle.pop(ep) for ep in list(_idle) if ep not in endpoints or ep in kept]
        _idle.update(kept)
    for sock, _ in stale:
        sock.close()


atexit.register(_keep_idle, (), {})  # closes them all, so none is left to the collector


class _Peer(_Conn):
    """The client's connection to one server."""

    def __init__(self, sid: int):
        super().__init__()
        self.sid = sid
        self.endpoint: tuple = ()
        self.addrs: Optional[list] = None  # addresses not yet tried; None: its socket was idle
        self.head: Optional[tuple] = None  # the QUERY head its idle socket's server accepted
        self.connecting = False  # its socket has not been sent a QUERY yet
        self.slabs: List[tuple] = []  # the columns it answered, in order
        self.asked = 0  # columns of the FETCH in flight
        self.expires = math.inf  # when the FETCH in flight fails


class _Retrieval:
    """One retrieval's connections, download plan and selector loop.

    run() takes the retrieval through the module's flow and returns
    (plan, responses), responses mapping each of the plan's responders to
    the columns it answered, at least plan.prefix_cols of them. Two
    protocol.ResponderWait instances make every decision: `links`, settled
    by connections, chooses the first plan, and `wait`, settled by
    acknowledgements, chooses the responders and ends the wait. _replan()
    is the only code that makes a plan, and _request() the only code that
    queues a frame. A server not chosen stays connected until close(), so
    every server is either settled or still able to arrive. run() raises
    HandshakeMismatch as soon as a server refuses its QUERY, whenever
    that is before it returns, and InsufficientResponders if fewer than k
    servers acknowledged theirs and did not drop by the end of the wait.
    """

    def __init__(self, i: int, V: Matrix, wait: protocol.ResponderWait):
        self.params = params = wait.params
        self.fingerprint = protocol.matrix_fingerprint(params, V)
        self.max_reply = wire.max_reply_payload(params)
        self.first = params.prefix_cols(wait.target)  # the columns a QUERY carries
        self.queries = protocol.make_queries(params, V, i, columns=self.first)
        self.wait = wait
        # Connections settle a wait of their own, with no deadline: its
        # responders, once it is done, are the first plan's.
        self.links = protocol.ResponderWait(params, wait.target, math.inf)
        self.sel = selectors.DefaultSelector()
        self.start = time.monotonic()
        self.peers = [_Peer(sid) for sid in range(1, params.n + 1)]
        self.plan: Optional[protocol.DownloadPlan] = None  # the servers fetched from
        self.connects = 0

    def run(self, endpoints: Sequence[Tuple[str, int]]):
        """(plan, responses), as the class docstring says."""
        for peer, endpoint in zip(self.peers, endpoints):
            peer.endpoint = tuple(endpoint[:2])
            peer.sock, peer.head = _take_idle(peer.endpoint)
            if peer.sock is None:
                self._connect(peer)
            else:
                peer.connecting = True
                self.links.settle(peer.sid, 0.0)
        # A pass that does not wait: the connects that have completed or
        # failed by now (on loopback, every one) count toward the first plan.
        for key, _ in self.sel.select(0):
            self._connected(key.data)
        for sid in list(self.links.arrived):
            self._request(self.peers[sid - 1])
        while True:
            now = time.monotonic()
            if self.wait.chosen is None and now - self.start >= self.wait.ended:
                self.wait.responders()
            self._replan()
            until = self.start + self.wait.ended
            if self.wait.chosen is not None:
                if all(len(self.peers[sid - 1].slabs) >= self.plan.prefix_cols
                       for sid in self.plan.responders):
                    return self.plan, {sid: self.peers[sid - 1].slabs
                                       for sid in self.plan.responders}
                until = math.inf  # only FETCH expiries
            pending = [key.data for key in self.sel.get_map().values()]  # a reply due
            for key, mask in self.sel.select(min([until] + [p.expires for p in pending]) - now):
                self._step(key.data, mask)
            now = time.monotonic()
            for peer in pending:  # a FETCH that outlives its expiry fails as if timed out
                if peer.events and peer.expires <= now:
                    self._fail(peer, TimeoutError())

    def _connect(self, peer: _Peer, error: int = 0) -> None:
        """Start a non-blocking connect to the endpoint's next address,
        resolved on the first call, as socket.create_connection does."""
        if peer.addrs is None:
            peer.addrs = []  # resolved, or failed to: a failure now settles the server
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
        if peer.sid not in self.links.arrived:  # a stale socket's replacement keeps its place
            self.links.settle(peer.sid, time.monotonic() - self.start)
        return True

    def _fail(self, peer: _Peer, exc: Exception) -> None:
        """A connection failed. A reused socket that failed before any reply
        is replaced by a fresh connect, and a QUERY refused before any
        acknowledgement ends the retrieval. Anything else settles the server
        as failed, dropped if it had acknowledged; run() plans again."""
        peer.close(self.sel)
        arrived = peer.sid in self.wait.arrived
        if peer.addrs is None and not peer.received:  # a stale idle socket: the server may be up
            peer.asked = 0  # what the stale socket was sent goes out again
            return self._connect(peer)
        if isinstance(exc, HandshakeMismatch) and not arrived:
            raise exc
        outcome = ("dropped-mid-fetch" if arrived
                   else "refused" if isinstance(exc, ConnectionRefusedError) else "error")
        for wait in (self.wait, self.links):
            wait.settle(peer.sid, time.monotonic() - self.start, outcome)

    def _replan(self) -> None:
        """Make the plan, the only code that does, and send each of its
        responders whose QUERY has gone out the FETCH it now lacks. Until
        the wait has chosen, the first plan is made once, for the
        responders of `links` once it is done with at least k arrived.
        Once the wait has chosen, the plan is for the responders chosen."""
        sids, links = self.wait.chosen, self.links
        if sids is None and not self.plan and links.done and len(links.arrived) >= links.params.k:
            sids = links.responders()
        if sids is None or self.plan is not None and list(self.plan.responders) == sids:
            return
        self.plan = protocol.plan_download(self.params, sids)
        for sid in self.plan.responders:
            if not self.peers[sid - 1].connecting:
                self._request(self.peers[sid - 1])

    def _step(self, peer: _Peer, mask: int) -> None:
        """Move one connection on after its socket became ready."""
        try:
            if mask & _WRITE:
                if not peer.connecting or self._connected(peer):
                    self._request(peer)
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
        """Queue the peer its frames, the only code that does, and write what
        it is owed. A peer just connected is sent its QUERY, once the first
        plan is made if its connection allows it. Then a FETCH is queued
        behind it if the plan fetches from the peer, it has none in flight
        and it holds fewer than the plan's prefix columns. The FETCH adds
        the sub-queries the peer was not sent; all the columns it lacks come
        back."""
        if peer.connecting:
            self._replan()
            peer.connecting = False
            # Encoded only now, so a server that is down costs no upload. An
            # idle socket whose server accepted this head is not sent it again.
            head = peer.addrs is not None or peer.head != (self.params, self.fingerprint)
            peer.out = memoryview(wire.encode_query(
                self.params, self.fingerprint, peer.sid,
                self.queries[peer.sid - 1].prefix(self.first), head))
        held, plan = len(peer.slabs), self.plan
        if plan and peer.sid in plan.responders and not peer.asked and held < plan.prefix_cols:
            peer.asked = plan.prefix_cols - held
            if peer.sid in self.wait.arrived:  # else from its acknowledgement
                peer.expires = time.monotonic() + self.wait.deadline
            subqueries = self.queries[peer.sid - 1].prefix(plan.prefix_cols)
            peer.out = memoryview(bytes(peer.out) + wire.encode_fetch(
                self.params, subqueries[max(held, self.first) :]))
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
                kept[peer.endpoint] = peer.sock, (self.params, self.fingerprint)
                peer.sock = None
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
) -> Tuple[List[int], RetrievalMetrics]:
    """File i, from the servers at `endpoints`, one per server id, and what
    the retrieval did; the module docstring describes the flow. Its query
    randomness is drawn from the OS CSPRNG and cannot be seeded.

    The policy is two values, as protocol.ResponderWait defines them: the
    client waits for the first `wait_for` servers (None: all n) to
    acknowledge their QUERY, but no longer than `deadline_s` seconds, and
    decodes from those that did. It also stops waiting once every server
    has settled, so a server whose connection is refused or broken costs
    nothing, and only a silent one costs the deadline; it is then "late".
    A server whose connection fails after it acknowledged, or whose FETCH
    round trip as a whole takes longer than `deadline_s` (however its
    bytes trickle in), is dropped and no longer counts toward `wait_for`.
    If it was a responder, the client chooses again by the same rule,
    from the servers still connected: a server not chosen stays
    connected until the retrieval ends.

    Before anything is sent, it raises ValueError unless there are n
    endpoints, all different, and OutOfRange for a `wait_for` outside
    [k, n] or a `deadline_s` outside (0, MAX_DEADLINE_S]. Endpoints are
    compared as given: two spellings of one host, such as "localhost" and
    "127.0.0.1", are not caught. It raises HandshakeMismatch as soon as a
    server refuses its QUERY, whenever that arrives before the retrieval
    ends, and InsufficientResponders if fewer than k servers acknowledged
    and did not drop by the end of the wait.

    The connections of the responders it decodes from stay open for the
    next retrieval to the same endpoints; every other one is closed when
    it ends.
    """
    if len(endpoints) != params.n:
        raise ValueError(f"need {params.n} endpoints")
    if len({tuple(endpoint[:2]) for endpoint in endpoints}) < params.n:
        # One server would hold two servers' sub-queries, which t=1 does not cover.
        raise ValueError("each endpoint must be given once")
    wait = protocol.ResponderWait(params, wait_for, deadline_s)  # refuses deadline_s <= 0
    if deadline_s > MAX_DEADLINE_S:
        raise OutOfRange(f"deadline_s must be at most {MAX_DEADLINE_S}, got {deadline_s}")
    run = _Retrieval(i, V, wait)
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
        outcomes=wait.outcomes(responses),
        bytes_sent=sum(peer.sent for peer in run.peers),
        bytes_received=sum(peer.received for peer in run.peers),
        connects=run.connects,
    )
