"""Tests for the client library and address parsing.

The client parity suite drives every case through the four client
shapes — blocking and asyncio, each on the JSON and the binary wire —
against one live server, and asserts that all four return the same
response documents.  The blocking client is a facade that runs the
asyncio client on a private event loop, so it is driven from executor
threads here, never from inside the test's own running loop.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from functools import partial

import pytest

from repro.service import (
    AsyncOptimizerServer,
    OptimizerRegistry,
    ServerConfig,
)
from repro.service.async_server import run_server
from repro.service.client import (
    Address,
    AsyncServerClient,
    ServerClient,
    ServiceError,
    parse_address,
)

#: every (client shape, wire) pair the parity suite compares
MODES = [
    pytest.param(mode, wire, id=f"{mode}-{wire}")
    for mode in ("blocking", "async")
    for wire in ("json", "binary")
]

#: the read timeout the stall tests give their clients, in seconds
STALL_TIMEOUT = 0.3


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("10.1.2.3:7831") == Address("tcp", host="10.1.2.3", port=7831)

    def test_bare_port_binds_loopback(self):
        assert parse_address(":7831") == Address("tcp", host="127.0.0.1", port=7831)

    def test_unix_prefix(self):
        addr = parse_address("unix:/tmp/x.sock")
        assert addr.kind == "unix" and addr.path == "/tmp/x.sock"
        assert str(addr) == "unix:/tmp/x.sock"

    def test_bare_path_is_unix(self):
        assert parse_address("/var/run/repro.sock").kind == "unix"

    def test_address_passthrough(self):
        addr = Address("tcp", host="h", port=1)
        assert parse_address(addr) is addr

    @pytest.mark.parametrize(
        "bad",
        ["", "localhost", "host:notaport", "host:70000", "unix:"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)

    def test_tcp_str_roundtrips(self):
        assert str(parse_address("127.0.0.1:7831")) == "127.0.0.1:7831"


@pytest.fixture(scope="module")
def live_server():
    """One socket server on a background thread, shared by every mode."""
    holder: dict = {}
    started = threading.Event()

    def runner():
        registry = OptimizerRegistry()

        def ready(server):
            holder["address"] = str(server.address)
            started.set()

        holder["stats"] = run_server(
            registry,
            "127.0.0.1:0",
            default_preset="ipsc860",
            install_signal_handlers=False,
            ready=ready,
        )

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert started.wait(10), "server never came up"
    yield holder["address"]
    if thread.is_alive():
        with contextlib.suppress(Exception):
            with ServerClient(holder["address"]) as client:
                client.shutdown()
        thread.join(10)
    assert not thread.is_alive()


class _InExecutor:
    """A blocking client seen through the asyncio client's surface:
    each method call runs in an executor thread."""

    def __init__(self, client: ServerClient) -> None:
        self._client = client

    def __getattr__(self, name):
        method = getattr(self._client, name)

        async def call(*args, **kwargs):
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(None, partial(method, *args, **kwargs))

        return call


async def _drive(address: str, mode: str, wire: str, case):
    """Run one case coroutine against a fresh client of ``mode``."""
    if mode == "async":
        async with await AsyncServerClient.connect(address, wire=wire) as client:
            return await case(client)
    loop = asyncio.get_running_loop()
    client = await loop.run_in_executor(None, partial(ServerClient, address, wire=wire))
    try:
        return await case(_InExecutor(client))
    finally:
        await loop.run_in_executor(None, client.close)


def run_parity(address: str, mode: str, wire: str, case):
    """``(expected, got)``: the case's result from the asyncio JSON
    client and from ``mode``/``wire``.  A first pass warms the server's
    memo so every answer's ``source`` reads the same in both."""

    async def scenario():
        await _drive(address, "async", "json", case)
        expected = await _drive(address, "async", "json", case)
        got = await _drive(address, mode, wire, case)
        return expected, got

    return asyncio.run(scenario())


async def _error_doc(client):
    with pytest.raises(ServiceError) as info:
        await client.query(0, 40)
    return info.value.response


@pytest.mark.parametrize(("mode", "wire"), MODES)
class TestClientParity:
    def test_query(self, live_server, mode, wire):
        expected, got = run_parity(
            live_server, mode, wire, lambda c: c.query(7, 40)
        )
        assert got == expected
        assert got["partition"] == [4, 3]
        assert got["preset"] == "ipsc860"

    def test_query_preset_override(self, live_server, mode, wire):
        expected, got = run_parity(
            live_server, mode, wire, lambda c: c.query(6, 24, preset="hypothetical")
        )
        assert got == expected
        assert got["partition"] == [3, 3]

    def test_query_error_document(self, live_server, mode, wire):
        expected, got = run_parity(live_server, mode, wire, _error_doc)
        assert got == expected
        assert got["ok"] is False and "cube dimension" in got["error"]

    def test_query_many_pipelines_in_order(self, live_server, mode, wire):
        queries = [(5, 10.0 * i + 1) for i in range(20)]
        expected, got = run_parity(
            live_server, mode, wire, lambda c: c.query_many(queries)
        )
        assert got == expected
        assert len(got) == 20
        assert all(r["ok"] for r in got)
        assert [r["m"] for r in got] == [m for _, m in queries]

    def test_query_many_accepts_tuples_triples_and_dicts(self, live_server, mode, wire):
        specs = [(7, 40.0), ("hypothetical", 6, 24.0), {"d": 7, "m": 40, "id": "x"}]
        expected, got = run_parity(
            live_server, mode, wire, lambda c: c.query_many(specs)
        )
        assert got == expected
        assert got[1]["preset"] == "hypothetical"
        assert got[2]["id"] == "x"
        assert "id" not in got[0]

    def test_query_many_empty_is_noop(self, live_server, mode, wire):
        expected, got = run_parity(
            live_server, mode, wire, lambda c: c.query_many([])
        )
        assert got == expected == []

    def test_presets(self, live_server, mode, wire):
        expected, got = run_parity(live_server, mode, wire, lambda c: c.presets())
        assert got == expected
        assert "ipsc860" in got

    def test_query_many_rejects_garbage_shape(self, live_server, mode, wire):
        async def case(client):
            with pytest.raises(ValueError, match="query must be"):
                await client.query_many([(1, 2, 3, 4)])

        asyncio.run(_drive(live_server, mode, wire, case))

    def test_unknown_preset_is_refused(self, live_server, mode, wire):
        # the JSON server answers in-band; the binary client refuses
        # before sending, against the catalog its HELLO negotiated
        error = ServiceError if wire == "json" else ValueError

        async def case(client):
            with pytest.raises(error, match="unknown machine preset"):
                await client.query(7, 40, preset="cray")

        asyncio.run(_drive(live_server, mode, wire, case))


@pytest.mark.parametrize("mode", ["blocking", "async"])
class TestJsonOps:
    def test_stats(self, live_server, mode):
        async def case(client):
            await client.query(7, 40)
            return await client.stats()

        expected, got = run_parity(live_server, mode, "json", case)
        # live counters move between calls; the document's shape does not
        assert set(got) == set(expected)
        assert set(got["stats"]) == set(expected["stats"])
        assert set(got["server"]) == set(expected["server"])
        assert got["stats"]["queries"] >= 1
        assert got["server"]["connections_opened"] >= 1

    def test_binary_wire_refuses_ops(self, live_server, mode):
        async def case(client):
            with pytest.raises(ValueError, match="query frames only"):
                await client.stats()

        asyncio.run(_drive(live_server, mode, "binary", case))

    def test_frame_queries_is_binary_only(self, live_server, mode):
        async def case(client):
            with pytest.raises(ValueError, match="binary wire only"):
                await client.query_many([(7, 40.0)], frame_queries=1)

        asyncio.run(_drive(live_server, mode, "json", case))


@pytest.fixture
def facade_loops(monkeypatch):
    """Every event loop a blocking facade creates, in creation order."""
    loops: list[asyncio.AbstractEventLoop] = []
    real = asyncio.new_event_loop

    def recording():
        loop = real()
        loops.append(loop)
        return loop

    monkeypatch.setattr(asyncio, "new_event_loop", recording)
    return loops


class TestFacadeLoop:
    def test_loop_closed_after_close(self, live_server, facade_loops):
        client = ServerClient(live_server)
        assert client.query(7, 40)["ok"]
        (loop,) = facade_loops
        assert not loop.is_closed()
        client.close()
        assert loop.is_closed()
        client.close()  # idempotent

    def test_connection_refused_is_an_oserror(self, facade_loops):
        with pytest.raises(OSError):
            ServerClient("127.0.0.1:1", timeout=0.5)
        (loop,) = facade_loops
        assert loop.is_closed()

    @pytest.mark.parametrize("wire", ["json", "binary"])
    def test_bad_auth_token_closes_the_loop(self, facade_loops, wire):
        async def scenario():
            server = await AsyncOptimizerServer(
                OptimizerRegistry(), ServerConfig(auth_token="s3cret")
            ).start("127.0.0.1:0")
            try:
                loop = asyncio.get_running_loop()
                with pytest.raises(ServiceError, match="auth"):
                    await loop.run_in_executor(None, partial(
                        ServerClient, str(server.address), wire=wire,
                        auth_token="wrong",
                    ))
                # the refused client closed its connection on the way out
                for _ in range(200):
                    if not server.stats.connections_active:
                        break
                    await asyncio.sleep(0.01)
                return server.stats.connections_active
            finally:
                await server.aclose()

        assert asyncio.run(scenario()) == 0
        (loop,) = facade_loops
        assert loop.is_closed()


async def _stalled_server() -> asyncio.AbstractServer:
    """A server that accepts and reads, but never answers."""

    async def handle(reader, writer):
        try:
            while await reader.read(4096):
                pass
        finally:
            writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


class TestTimeouts:
    """``timeout`` bounds every read, not only the connect: a server
    that stalls raises :exc:`TimeoutError` instead of hanging."""

    @pytest.mark.parametrize("mode", ["blocking", "async"])
    @pytest.mark.parametrize("wire", ["json", "binary"])
    def test_stalled_server_times_out(self, mode, wire):
        async def scenario():
            server = await _stalled_server()
            host, port = server.sockets[0].getsockname()[:2]
            address = f"{host}:{port}"
            loop = asyncio.get_running_loop()
            began = loop.time()
            try:
                with pytest.raises(TimeoutError):
                    if mode == "async":
                        async with await AsyncServerClient.connect(
                            address, wire=wire, timeout=STALL_TIMEOUT
                        ) as client:
                            await client.query(7, 40.0)
                    else:
                        def blocking():
                            with ServerClient(
                                address, wire=wire, timeout=STALL_TIMEOUT
                            ) as client:
                                return client.query(7, 40.0)

                        await loop.run_in_executor(None, blocking)
                return loop.time() - began
            finally:
                server.close()
                await server.wait_closed()

        # the outer guard turns a client that ignores its timeout into a
        # failure instead of a hung suite
        elapsed = asyncio.run(asyncio.wait_for(scenario(), 5.0))
        assert elapsed < STALL_TIMEOUT + 1.0
