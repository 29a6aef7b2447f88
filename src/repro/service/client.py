"""Client library for the optimizer query service socket transport.

One client core, :class:`AsyncServerClient`, speaks both protocols of
the socket server (:mod:`repro.service.async_server`): the JSON-lines
protocol of the stdio loop (:mod:`repro.service.server`) and, with
``wire="binary"``, the length-prefixed binary protocol of
:mod:`repro.service.wire`.  It owns all of the framing, pipelining
and HELLO/auth logic.  :meth:`~AsyncServerClient.query_many`
pipelines: every request is written before the first response is
read, so a server that micro-batches across in-flight requests sees
them all at once.  ``timeout`` bounds the connect and every read and
write after it, so a stalled server raises :exc:`TimeoutError`.

:class:`ServerClient` is the blocking facade for scripts and the
``repro query --connect`` CLI: it owns a private event loop and runs
the matching :class:`AsyncServerClient` coroutine on it for each call.
It does no I/O of its own, and must not be called from inside a
running event loop (drive it from a thread instead).

Prefer the :func:`repro.service.connect` / :func:`repro.service.aconnect`
factories over constructing these directly — they return the same
objects for a single server and a cluster-routing client for a
``cluster:`` target, behind one :class:`~repro.service.api.OptimizerClient`
protocol.

On the binary wire the client opens with a ``HELLO`` (carrying the
optional ``auth_token``) and keeps the server's ``HELLO_OK`` preset
catalog, then :meth:`~AsyncServerClient.query_many` packs queries into
``(preset_id, d, m)`` record frames and decodes the answer arrays back
into the same response documents the JSON wire produces — callers
cannot tell the transports apart by result shape.  Ops (``stats``,
``shutdown``) stay JSON-connection affairs; a binary
:meth:`~AsyncServerClient.presets` answers from the negotiated catalog.
With ``auth_token`` on the JSON wire, the client authenticates with
``{"op": "auth", "token": ...}`` before anything else.

Addresses are written ``HOST:PORT`` (TCP; a bare ``:PORT`` binds
loopback) or ``unix:PATH`` / any spec containing ``/`` (Unix domain
socket), parsed by :func:`parse_address`:

>>> parse_address("127.0.0.1:7831")
Address(kind='tcp', host='127.0.0.1', port=7831, path='')
>>> str(parse_address("unix:/tmp/repro.sock"))
'unix:/tmp/repro.sock'

Responses are the protocol's JSON documents as plain dicts;
:meth:`~AsyncServerClient.query` raises :class:`ServiceError` when the
server answers ``{"ok": false}`` so callers cannot mistake an in-band
error for a result.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Awaitable, Generic, Iterable, Self, Sequence, TypeVar

from repro.service import wire as wire_proto

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.api import AsyncOptimizerClient

__all__ = [
    "Address",
    "AsyncServerClient",
    "ServerClient",
    "ServiceError",
    "parse_address",
]

#: wire protocol selectors accepted by the clients
_WIRES = ("json", "binary")


class ServiceError(RuntimeError):
    """The server answered a request with ``{"ok": false}``."""

    def __init__(self, response: dict) -> None:
        super().__init__(response.get("error", "unknown service error"))
        #: the full error document the server sent back
        self.response = response


@dataclass(frozen=True)
class Address:
    """One serving endpoint: TCP ``host:port`` or a Unix socket path."""

    kind: str  # "tcp" | "unix"
    host: str = ""
    port: int = 0
    path: str = ""

    def __str__(self) -> str:
        if self.kind == "unix":
            return f"unix:{self.path}"
        return f"{self.host}:{self.port}"


def parse_address(spec: str | Address) -> Address:
    """Parse ``HOST:PORT``, ``:PORT``, ``unix:PATH``, or a filesystem
    path into an :class:`Address` (an :class:`Address` passes through).
    """
    if isinstance(spec, Address):
        return spec
    if not isinstance(spec, str) or not spec:
        raise ValueError("address must be 'HOST:PORT' or 'unix:PATH'")
    if spec.startswith("unix:"):
        path = spec[len("unix:"):]
        if not path:
            raise ValueError("unix socket address has an empty path")
        return Address("unix", path=path)
    if "/" in spec:
        # a bare filesystem path is unambiguous — treat it as a socket
        return Address("unix", path=spec)
    host, sep, port_text = spec.rpartition(":")
    if not sep:
        raise ValueError(
            f"address {spec!r} is not 'HOST:PORT' or 'unix:PATH'"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"address {spec!r} has a non-integer port") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"port {port} is out of range 0..65535")
    return Address("tcp", host=host or "127.0.0.1", port=port)


def _query_request(item: object, default_preset: str | None) -> dict:
    """One protocol request document from a client-side query spec."""
    if isinstance(item, dict):
        doc = dict(item)
    elif isinstance(item, Sequence) and len(item) == 3:
        doc = {"preset": item[0], "d": item[1], "m": item[2]}
    elif isinstance(item, Sequence) and len(item) == 2:
        doc = {"d": item[0], "m": item[1]}
    else:
        raise ValueError(
            f"query must be a dict, (d, m), or (preset, d, m); got {item!r}"
        )
    if default_preset is not None:
        doc.setdefault("preset", default_preset)
    return doc


class _BinarySession:
    """The binary wire's negotiated state: the preset catalog, and the
    codec between query specs, record frames and response documents."""

    def __init__(self, hello_ok: dict) -> None:
        self.catalog: list[str] = [str(name) for name in hello_ok["presets"]]
        self.preset_ids = {name: i for i, name in enumerate(self.catalog)}
        default = hello_ok.get("default_preset")
        self.default_preset: str | None = default if isinstance(default, str) else None

    def spec(self, item: object, preset: str | None) -> dict:
        """One query spec: the JSON request document plus its packed
        preset index, validated client-side against the catalog."""
        doc = _query_request(item, preset)
        unknown = set(doc) - {"preset", "d", "m", "id"}
        if unknown:
            raise ValueError(f"unknown query fields {sorted(unknown)}")
        name = doc.get("preset", self.default_preset)
        if name is None:
            raise ValueError(
                "query has no machine preset and the server has no default"
            )
        preset_id = self.preset_ids.get(name)
        if preset_id is None:
            raise ValueError(
                f"unknown machine preset {name!r} (server has {self.catalog})"
            )
        try:
            d, m = doc["d"], doc["m"]
        except KeyError as missing:
            raise ValueError(
                f"query is missing required field {missing}"
            ) from None
        return {"preset": name, "pid": preset_id, "d": d, "m": m, "id": doc.get("id")}

    @staticmethod
    def query_frame(specs: list[dict]) -> bytes:
        records = wire_proto.make_query_records(
            [(spec["pid"], spec["d"], spec["m"]) for spec in specs]
        )
        return wire_proto.pack_frame(
            wire_proto.OP_QUERY, wire_proto.encode_query_records(records)
        )

    @staticmethod
    def frame_docs(opcode: int, payload: bytes, specs: list[dict]) -> list[dict]:
        """The response documents for one answer frame — the same
        shape the JSON wire produces, so transports are swappable."""
        if opcode == wire_proto.OP_RESULT:
            times, sources, partitions = wire_proto.decode_result_payload(payload)
            if len(sources) != len(specs):
                raise ServiceError({
                    "ok": False,
                    "error": f"result frame carries {len(sources)} answers "
                             f"for {len(specs)} queries",
                })
            docs = []
            for spec, time_us, source, partition in zip(
                specs, times.tolist(), sources, partitions
            ):
                doc: dict[str, Any] = {
                    "ok": True,
                    "preset": spec["preset"],
                    "d": spec["d"],
                    "m": spec["m"],
                    "partition": list(partition),
                    "time_us": time_us,
                    "source": source,
                }
                if spec["id"] is not None:
                    doc["id"] = spec["id"]
                docs.append(doc)
            return docs
        message = payload.decode("utf-8", "replace")
        base: dict[str, Any] = {"ok": False, "error": message}
        if opcode == wire_proto.OP_RETRY_LATER:
            base["retry"] = True
        elif opcode != wire_proto.OP_ERROR:
            base["error"] = f"unexpected frame opcode {opcode}: {message!r}"
        docs = []
        for spec in specs:
            doc = dict(base)
            if spec["id"] is not None:
                doc["id"] = spec["id"]
            docs.append(doc)
        return docs


def _frame_chunk(n_specs: int, frame_queries: int | None) -> int:
    if frame_queries is None:
        return max(n_specs, 1)
    if frame_queries < 1:
        raise ValueError(f"frame_queries must be >= 1, got {frame_queries}")
    return frame_queries


def _hello_session(opcode: int, payload: bytes) -> _BinarySession:
    """Interpret the server's answer to a HELLO frame."""
    if opcode == wire_proto.OP_ERROR:
        raise ServiceError({"ok": False, "error": payload.decode("utf-8", "replace")})
    if opcode != wire_proto.OP_HELLO_OK:
        raise ServiceError({
            "ok": False,
            "error": f"expected HELLO_OK from the server, got opcode {opcode}",
        })
    return _BinarySession(wire_proto.parse_hello_ok(payload))


class AsyncServerClient:
    """Client for one server connection, on asyncio streams.

    ``wire="binary"`` negotiates the binary protocol at connect (and
    carries ``auth_token`` in the HELLO); on the default JSON wire an
    ``auth_token`` is presented via ``{"op": "auth"}`` first.  Usable
    as an async context manager; the connection closes on exit.

    >>> # client = await AsyncServerClient.connect("127.0.0.1:7831")
    >>> # await client.query(7, 40)  ->  {"ok": True, "partition": [4, 3], ...}
    """

    def __init__(
        self,
        address: Address,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.address = address
        self.wire = "json"
        self._reader = reader
        self._writer = writer
        self._session: _BinarySession | None = None
        self._timeout: float | None = None

    @classmethod
    async def connect(
        cls,
        address: str | Address,
        *,
        timeout: float | None = 30.0,
        wire: str = "json",
        auth_token: str | None = None,
    ) -> "AsyncServerClient":
        if wire not in _WIRES:
            raise ValueError(f"wire must be one of {_WIRES}, got {wire!r}")
        addr = parse_address(address)
        if addr.kind == "unix":
            open_coro = asyncio.open_unix_connection(addr.path)
        else:
            open_coro = asyncio.open_connection(addr.host, addr.port)
        reader, writer = await asyncio.wait_for(open_coro, timeout)
        client = cls(addr, reader, writer)
        client.wire = wire
        client._timeout = timeout
        try:
            if wire == "binary":
                await client._send(wire_proto.pack_frame(
                    wire_proto.OP_HELLO, wire_proto.hello_payload(auth_token)
                ))
                client._session = _hello_session(*await client._read_frame())
            elif auth_token is not None:
                await client._op({"op": "auth", "token": auth_token})
        except BaseException:
            await client.aclose()
            raise
        return client

    # ------------------------------------------------------------------
    # transport: every write and read is bounded by ``timeout``
    # ------------------------------------------------------------------
    async def _send(self, payload: bytes) -> None:
        self._writer.write(payload)
        async with asyncio.timeout(self._timeout):
            await self._writer.drain()

    async def _write_lines(self, docs: Iterable[dict]) -> None:
        await self._send(b"".join(json.dumps(doc).encode() + b"\n" for doc in docs))

    async def _read_response(self) -> dict:
        async with asyncio.timeout(self._timeout):
            line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    async def _read_frame(self) -> tuple[int, bytes]:
        try:
            async with asyncio.timeout(self._timeout):
                _, opcode, payload = await wire_proto.read_frame(self._reader)
        except asyncio.IncompleteReadError:
            raise ConnectionError("server closed the connection mid-frame") from None
        return opcode, payload

    async def request(self, obj: dict) -> dict:
        """One request, one response — no interpretation of either."""
        if self.wire == "binary":
            raise ValueError(
                "the binary wire carries query frames only; connect with "
                "wire='json' for ops"
            )
        await self._write_lines([obj])
        return await self._read_response()

    async def _op(self, obj: dict) -> dict:
        """One request whose error answer raises :class:`ServiceError`."""
        response = await self.request(obj)
        if not response.get("ok", False):
            raise ServiceError(response)
        return response

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    async def query(self, d: int, m: float, *, preset: str | None = None) -> dict:
        """One lookup; raises :class:`ServiceError` on an error answer."""
        doc: dict[str, Any] = {"d": d, "m": m}
        if preset is not None:
            doc["preset"] = preset
        if self.wire != "binary":
            return await self._op(doc)
        response = (await self.query_many([doc]))[0]
        if not response.get("ok", False):
            raise ServiceError(response)
        return response

    async def query_many(
        self,
        queries: Iterable,
        *,
        preset: str | None = None,
        frame_queries: int | None = None,
    ) -> list[dict]:
        """Pipelined lookups: one write carries every request, then the
        responses stream back in request order (the protocol guarantees
        it).  Returns the raw response documents; callers inspect
        ``ok``.

        On the binary wire the queries pack into ``OP_QUERY`` record
        frames — one frame by default, or ``frame_queries`` per frame
        to bound per-frame latency; the response documents match the
        JSON wire's shape.
        """
        if self.wire != "binary":
            if frame_queries is not None:
                raise ValueError("frame_queries applies to the binary wire only")
            docs = [_query_request(q, preset) for q in queries]
            if not docs:
                return []
            await self._write_lines(docs)
            return [await self._read_response() for _ in docs]
        session = self._session
        assert session is not None
        specs = [session.spec(q, preset) for q in queries]
        if not specs:
            return []
        chunk = _frame_chunk(len(specs), frame_queries)
        groups = [specs[i : i + chunk] for i in range(0, len(specs), chunk)]
        await self._send(b"".join(session.query_frame(g) for g in groups))
        responses: list[dict] = []
        for group in groups:
            opcode, payload = await self._read_frame()
            responses.extend(session.frame_docs(opcode, payload, group))
        return responses

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------
    async def stats(self) -> dict:
        """The server's live counters (registry stats; socket servers
        add a ``server`` section with transport/batcher counters)."""
        return await self._op({"op": "stats"})

    async def presets(self) -> list[str]:
        if self._session is not None:
            # the HELLO_OK already carried the catalog
            return list(self._session.catalog)
        return list((await self._op({"op": "presets"}))["presets"])

    async def shutdown(self) -> dict:
        """Ask the server to drain and exit (socket transport only)."""
        return await self._op({"op": "shutdown"})

    async def aclose(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "AsyncServerClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()


_T = TypeVar("_T")
_C = TypeVar("_C", bound="AsyncOptimizerClient")


class _BlockingFacade(Generic[_C]):
    """A blocking client: every call runs the matching coroutine of an
    asyncio client on a private event loop, which :meth:`close` shuts
    down after the asyncio client's ``aclose()``."""

    _loop: asyncio.AbstractEventLoop
    _client: _C

    def _run(self, coro: Awaitable[_T]) -> _T:
        return self._loop.run_until_complete(coro)

    def query(self, d: int, m: float, *, preset: str | None = None) -> dict:
        """One lookup; raises :class:`ServiceError` on an error answer."""
        return self._run(self._client.query(d, m, preset=preset))

    def query_many(
        self,
        queries: Iterable,
        *,
        preset: str | None = None,
        frame_queries: int | None = None,
    ) -> list[dict]:
        """Pipelined lookups, answered in request order."""
        return self._run(self._client.query_many(
            queries, preset=preset, frame_queries=frame_queries
        ))

    def stats(self) -> dict:
        return self._run(self._client.stats())

    def presets(self) -> list[str]:
        return self._run(self._client.presets())

    def close(self) -> None:
        if self._loop.is_closed():
            return
        try:
            self._run(self._client.aclose())
        finally:
            self._loop.close()

    def __enter__(self) -> Self:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class ServerClient(_BlockingFacade[AsyncServerClient]):
    """Blocking client for one server connection: the
    :class:`AsyncServerClient` surface, run on a private event loop.
    Connects eagerly, so an unreachable address raises :exc:`OSError`
    from the constructor.  Usable as a context manager; the connection
    closes on exit."""

    def __init__(
        self,
        address: str | Address,
        *,
        timeout: float | None = 30.0,
        wire: str = "json",
        auth_token: str | None = None,
    ) -> None:
        self._loop = asyncio.new_event_loop()
        try:
            self._client = self._run(AsyncServerClient.connect(
                address, timeout=timeout, wire=wire, auth_token=auth_token
            ))
        except BaseException:
            self._loop.close()
            raise
        self.address = self._client.address
        self.wire = wire

    def request(self, obj: dict) -> dict:
        """One request, one response — no interpretation of either."""
        return self._run(self._client.request(obj))

    def shutdown(self) -> dict:
        """Ask the server to drain and exit (socket transport only)."""
        return self._run(self._client.shutdown())
