"""Single-threaded binary-wire load generator (at most two connections).

Every request frame is encoded before a clock starts; during a timed
phase the generator only copies prepared bytes into sockets and splits
the reply stream at frame boundaries (12-byte header, length prefix).
Reply payloads are kept as raw bytes and decoded only after the clock
stops.

Two disciplines:

* :func:`closed_loop` — each connection keeps a fixed window of
  requests in flight and sends the next one as soon as a reply lands:
  saturation throughput.
* :func:`open_loop` — requests are due on a fixed schedule at a stated
  rate, alternating connections, whatever the server does.  Latency is
  timed from each request's *due* time, so a stall also charges the
  requests queued behind it.  The generator records how late it handed
  each request to the kernel (lag) and how many due requests it had
  not yet written (backlog), so a run where the generator itself fell
  behind can be refused instead of reported as slow.
"""

from __future__ import annotations

import gc
import selectors
import socket
import struct
import time
from dataclasses import dataclass, field

HEADER = struct.Struct("<4sBBHI")
HEADER_BYTES = HEADER.size


@dataclass
class Conn:
    sock: socket.socket
    outbuf: bytearray = field(default_factory=bytearray)
    inbuf: bytearray = field(default_factory=bytearray)
    #: request ids written, oldest first, awaiting their replies
    waiting: list = field(default_factory=list)
    head: int = 0

    @property
    def in_flight(self) -> int:
        return len(self.waiting) - self.head


@dataclass
class Phase:
    """What one timed phase observed (raw replies decoded later)."""

    #: (request id, pool index, opcode, payload) in reply order
    replies: list = field(default_factory=list)
    sent: int = 0
    #: replies that landed before the phase's deadline (closed loop)
    completed: int = 0
    latencies_us: list = field(default_factory=list)
    lag_us: list = field(default_factory=list)
    backlog_max: int = 0
    lost: int = 0
    #: perf_counter() when the open loop started and when its last
    #: reply was in (same monotonic clock as the server's spans)
    window_s: tuple = (0.0, 0.0)


def open_binary(
    path: str, hello: bytes, *, timeout: float = 30.0
) -> tuple[socket.socket, int, bytes]:
    """Connect to ``unix:path`` and run the HELLO exchange; returns the
    socket and the reply frame's opcode and payload."""
    deadline = time.monotonic() + timeout
    while True:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(path)
            break
        except (FileNotFoundError, ConnectionRefusedError):
            sock.close()
            if time.monotonic() > deadline:
                raise
            time.sleep(0.005)
    sock.sendall(hello)
    opcode, payload = read_frame(sock)
    return sock, opcode, payload


def read_exact(sock: socket.socket, n: int) -> bytes:
    chunks = bytearray()
    while len(chunks) < n:
        chunk = sock.recv(n - len(chunks))
        if not chunk:
            raise ConnectionError("server closed the connection")
        chunks += chunk
    return bytes(chunks)


def read_frame(sock: socket.socket) -> tuple[int, bytes]:
    _, _, opcode, _, length = HEADER.unpack(read_exact(sock, HEADER_BYTES))
    return opcode, read_exact(sock, length) if length else b""


def roundtrip(sock: socket.socket, frame: bytes) -> tuple[int, bytes]:
    """One request, one reply, blocking (warm-up only, never timed)."""
    sock.sendall(frame)
    return read_frame(sock)


def _pump(conn: Conn, now_fn, on_reply) -> None:
    """Move what the socket has into ``inbuf`` and peel whole frames."""
    try:
        chunk = conn.sock.recv(1 << 18)
    except BlockingIOError:
        return
    if not chunk:
        raise ConnectionError("server closed the connection mid-run")
    buf = conn.inbuf
    buf += chunk
    now = now_fn()
    offset = 0
    while len(buf) - offset >= HEADER_BYTES:
        length = int.from_bytes(buf[offset + 8 : offset + 12], "little")
        end = offset + HEADER_BYTES + length
        if len(buf) < end:
            break
        opcode = buf[offset + 5]
        payload = bytes(buf[offset + HEADER_BYTES : end])
        rid = conn.waiting[conn.head]
        conn.head += 1
        on_reply(rid, opcode, payload, now)
        offset = end
    if offset:
        del buf[:offset]


def _flush(conn: Conn) -> None:
    if conn.outbuf:
        try:
            sent = conn.sock.send(conn.outbuf)
        except BlockingIOError:
            return
        del conn.outbuf[:sent]


def _setup(socks) -> tuple[list[Conn], selectors.BaseSelector]:
    conns = [Conn(s) for s in socks]
    # select(2) takes microsecond timeouts; epoll rounds up to whole
    # milliseconds, which would make the open loop send late
    sel = selectors.SelectSelector()
    for conn in conns:
        conn.sock.setblocking(False)
        sel.register(conn.sock, selectors.EVENT_READ, conn)
    return conns, sel


def _drain(conns, sel, now_fn, on_reply, timeout_s: float) -> int:
    """Collect outstanding replies after the clock; returns how many
    never arrived."""
    deadline = time.monotonic() + timeout_s
    while any(c.in_flight or c.outbuf for c in conns):
        if time.monotonic() > deadline:
            break
        for conn in conns:
            _flush(conn)
        for key, _ in sel.select(0.05):
            _pump(key.data, now_fn, on_reply)
    lost = sum(c.in_flight for c in conns)
    sel.close()
    for conn in conns:
        conn.sock.setblocking(True)
    return lost


def closed_loop(socks, frames: list[bytes], *, window: int, seconds: float,
                start_index: int = 0) -> Phase:
    """Saturation run: ``window`` requests in flight per connection."""
    conns, sel = _setup(socks)
    phase = Phase()
    clock = time.perf_counter
    next_index = start_index
    deadline = 0.0

    def send(conn: Conn) -> None:
        nonlocal next_index
        rid = next_index
        next_index += 1
        conn.outbuf += frames[rid % len(frames)]
        conn.waiting.append(rid)
        phase.sent += 1

    def on_reply(rid, opcode, payload, now):
        phase.replies.append((rid, rid % len(frames), opcode, payload))
        if now <= deadline:
            phase.completed += 1

    _quiesce()
    deadline = clock() + seconds
    for conn in conns:
        for _ in range(window):
            send(conn)
        _flush(conn)
    while True:
        now = clock()
        if now >= deadline:
            break
        for key, _ in sel.select(min(0.05, deadline - now)):
            conn = key.data
            before = conn.head
            _pump(conn, clock, on_reply)
            if clock() < deadline:
                for _ in range(conn.head - before):
                    send(conn)
            _flush(conn)
    gc.enable()
    phase.lost = _drain(conns, sel, clock, on_reply, 30.0)
    return phase


def _quiesce() -> None:
    """No collector pauses inside a timed phase: collect now, then
    disable until the phase's clock stops."""
    gc.collect()
    gc.disable()


def open_loop(socks, frames: list[bytes], *, rate_rps: float, seconds: float,
              start_index: int = 0) -> Phase:
    """Fixed-schedule run at ``rate_rps`` requests per second."""
    conns, sel = _setup(socks)
    phase = Phase()
    clock = time.perf_counter
    n_total = max(1, int(rate_rps * seconds))
    interval = 1.0 / rate_rps
    due: dict[int, float] = {}

    def on_reply(rid, opcode, payload, now):
        phase.replies.append((rid, rid % len(frames), opcode, payload))
        phase.latencies_us.append((now - due.pop(rid)) * 1e6)

    _quiesce()
    t0 = clock()
    i = 0
    #: due times of requests whose bytes are not all in the kernel yet
    unsent: list[float] = []
    while i < n_total or unsent:
        now = clock()
        # every request now due goes into its connection's buffer; more
        # than one at once means the generator woke late
        while i < n_total and t0 + i * interval <= now:
            rid = start_index + i
            due_t = t0 + i * interval
            conn = conns[i % len(conns)]
            conn.outbuf += frames[rid % len(frames)]
            conn.waiting.append(rid)
            due[rid] = due_t
            unsent.append(due_t)
            i += 1
        phase.backlog_max = max(phase.backlog_max, len(unsent))
        for conn in conns:
            _flush(conn)
        if unsent and not any(c.outbuf for c in conns):
            after = clock()
            phase.lag_us.extend((after - t) * 1e6 for t in unsent)
            unsent.clear()
        next_due = t0 + i * interval if i < n_total else clock() + 0.001
        wait = 0.0 if unsent else max(0.0, next_due - clock())
        for key, _ in sel.select(wait):
            _pump(key.data, clock, on_reply)
    gc.enable()
    phase.sent = n_total
    phase.lost = _drain(conns, sel, clock, on_reply, 30.0)
    phase.window_s = (t0, clock())
    return phase
