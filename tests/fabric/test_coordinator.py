"""Live coordinator tests: the control protocol over real sockets.

Nodes here are raw control connections speaking JOIN/HEARTBEAT frames
by hand (the coordinator never dials a node's data plane, so no
optimizer servers are needed); heartbeat windows are tiny so miss-K
death is observed in tens of milliseconds.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.fabric.cluster import RouteError, fetch_routes, fetch_status, request_drain
from repro.fabric.coordinator import Coordinator
from repro.service import wire as wire_proto


async def control_request(address, opcode, doc):
    """One raw control round trip; returns (opcode, payload doc)."""
    reader, writer = await asyncio.open_connection(address.host, address.port)
    try:
        writer.write(wire_proto.pack_frame(opcode, wire_proto.fabric_payload(doc)))
        await writer.drain()
        _, answer_op, payload = await wire_proto.read_frame(reader)
    finally:
        writer.close()
        await writer.wait_closed()
    if answer_op == wire_proto.OP_ERROR:
        return answer_op, {"error": payload.decode("utf-8", "replace")}
    return answer_op, wire_proto.parse_fabric_payload(payload)


async def join(address, node_id, serving="127.0.0.1:9999", **extra):
    """JOIN on a long-lived connection; returns (reader, writer, welcome)."""
    reader, writer = await asyncio.open_connection(address.host, address.port)
    doc = {"node": node_id, "address": serving, **extra}
    writer.write(wire_proto.pack_frame(wire_proto.OP_JOIN, wire_proto.fabric_payload(doc)))
    await writer.drain()
    _, opcode, payload = await wire_proto.read_frame(reader)
    assert opcode == wire_proto.OP_JOIN_OK
    return reader, writer, wire_proto.parse_fabric_payload(payload)


async def close_conn(writer):
    writer.close()
    await writer.wait_closed()


class TestControlProtocol:
    def test_join_heartbeat_routes_status(self):
        async def scenario():
            coordinator = Coordinator(replication=2, heartbeat_s=5.0)
            await coordinator.start("127.0.0.1:0")
            try:
                addr = coordinator.address
                reader, writer, welcome = await join(
                    addr, "n0", presets=["ipsc860"], default_preset="ipsc860", shards=4
                )
                assert welcome == {"epoch": 1, "heartbeat_s": 5.0, "miss_limit": 3}
                writer.write(wire_proto.pack_frame(
                    wire_proto.OP_HEARTBEAT,
                    wire_proto.fabric_payload({"node": "n0", "stats": {"shed": 1}}),
                ))
                await writer.drain()
                _, opcode, payload = await wire_proto.read_frame(reader)
                assert opcode == wire_proto.OP_HEARTBEAT_OK
                assert wire_proto.parse_fabric_payload(payload) == {
                    "epoch": 1, "drain": False,
                }
                _, routes = await control_request(addr, wire_proto.OP_ROUTES, {"epoch": -1})
                assert routes["epoch"] == 1
                assert routes["nodes"] == [["n0", "127.0.0.1:9999"]]
                assert routes["default_preset"] == "ipsc860"
                # epoch-conditional: a current epoch gets the tiny answer
                _, unchanged = await control_request(
                    addr, wire_proto.OP_ROUTES, {"epoch": 1}
                )
                assert unchanged == {"unchanged": True, "epoch": 1}
                _, status = await control_request(addr, wire_proto.OP_STATUS, {})
                assert [n["node"] for n in status["nodes"]] == ["n0"]
                assert status["nodes"][0]["stats"]["shed"] == 1
                await close_conn(writer)
            finally:
                await coordinator.aclose()

        asyncio.run(scenario())

    def test_connection_loss_kills_the_node(self):
        async def scenario():
            coordinator = Coordinator(heartbeat_s=5.0)
            await coordinator.start("127.0.0.1:0")
            try:
                _, writer, _ = await join(coordinator.address, "n0")
                await close_conn(writer)
                for _ in range(50):
                    if coordinator.membership.get("n0").state == "dead":
                        break
                    await asyncio.sleep(0.01)
                assert coordinator.membership.get("n0").state == "dead"
                assert coordinator.membership.epoch == 2
            finally:
                await coordinator.aclose()

        asyncio.run(scenario())

    def test_silent_node_swept_dead_within_miss_window(self):
        async def scenario():
            coordinator = Coordinator(heartbeat_s=0.05, miss_limit=2)
            await coordinator.start("127.0.0.1:0")
            try:
                reader, writer, _ = await join(coordinator.address, "n0")
                # hold the connection open but never heartbeat: miss-K
                # (not connection loss) must declare the death
                deadline = asyncio.get_running_loop().time() + 2.0
                while coordinator.membership.get("n0").state != "dead":
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.02)
                _, status = await control_request(
                    coordinator.address, wire_proto.OP_STATUS, {}
                )
                assert status["nodes"][0]["state"] == "dead"
                await close_conn(writer)
            finally:
                await coordinator.aclose()

        asyncio.run(scenario())

    def test_drain_handshake(self):
        async def scenario():
            coordinator = Coordinator(heartbeat_s=5.0)
            await coordinator.start("127.0.0.1:0")
            try:
                addr = coordinator.address
                reader, writer, _ = await join(addr, "n0")
                _, answer = await control_request(addr, wire_proto.OP_DRAIN, {"node": "n0"})
                assert answer["state"] == "draining"
                # the next heartbeat carries the drain order
                writer.write(wire_proto.pack_frame(
                    wire_proto.OP_HEARTBEAT, wire_proto.fabric_payload({"node": "n0"})
                ))
                await writer.drain()
                _, opcode, payload = await wire_proto.read_frame(reader)
                assert wire_proto.parse_fabric_payload(payload)["drain"] is True
                # the node closes its connection: clean leave, not death
                await close_conn(writer)
                for _ in range(50):
                    if coordinator.membership.get("n0").state == "left":
                        break
                    await asyncio.sleep(0.01)
                assert coordinator.membership.get("n0").state == "left"
            finally:
                await coordinator.aclose()

        asyncio.run(scenario())

    def test_errors_are_in_band(self):
        async def scenario():
            coordinator = Coordinator(heartbeat_s=5.0)
            await coordinator.start("127.0.0.1:0")
            try:
                addr = coordinator.address
                # heartbeat from a stranger: re-join required
                op, doc = await control_request(
                    addr, wire_proto.OP_HEARTBEAT, {"node": "ghost"}
                )
                assert op == wire_proto.OP_ERROR
                assert "re-join required" in doc["error"]
                # drain of an unknown node
                op, doc = await control_request(addr, wire_proto.OP_DRAIN, {"node": "ghost"})
                assert op == wire_proto.OP_ERROR
                # a data-plane opcode on the control plane
                op, doc = await control_request(addr, wire_proto.OP_QUERY, {})
                assert op == wire_proto.OP_ERROR
                assert "unexpected control opcode" in doc["error"]
                # join with no identity
                op, doc = await control_request(addr, wire_proto.OP_JOIN, {})
                assert op == wire_proto.OP_ERROR
                assert "bad JOIN" in doc["error"]
            finally:
                await coordinator.aclose()

        asyncio.run(scenario())


class TestBlockingHelpers:
    """fetch_routes / fetch_status / request_drain — the sync control
    clients behind the CLI — against a live coordinator."""

    def test_sync_control_round_trips(self):
        async def start():
            coordinator = Coordinator(replication=2, heartbeat_s=5.0)
            await coordinator.start("127.0.0.1:0")
            _, writer, _ = await join(
                coordinator.address, "n0", presets=["ipsc860"], default_preset="ipsc860"
            )
            return coordinator, writer

        async def scenario():
            coordinator, writer = await start()
            try:
                addr = str(coordinator.address)
                loop = asyncio.get_running_loop()
                table = await loop.run_in_executor(None, fetch_routes, addr)
                assert table.epoch == 1
                assert table.replicas_for("ipsc860", 7) == ("127.0.0.1:9999",)
                unchanged = await loop.run_in_executor(
                    None, lambda: fetch_routes(addr, known_epoch=1)
                )
                assert unchanged is None
                status = await loop.run_in_executor(None, fetch_status, addr)
                assert status["epoch"] == 1
                answer = await loop.run_in_executor(None, request_drain, addr, "n0")
                assert answer["state"] == "draining"
                with pytest.raises(RouteError, match="unknown node"):
                    await loop.run_in_executor(None, request_drain, addr, "ghost")
                await close_conn(writer)
            finally:
                await coordinator.aclose()

        asyncio.run(scenario())

    def test_coordinator_hanging_up_is_a_connection_error(self):
        """A peer that closes before answering surfaces as the
        ConnectionError the CLI reports, not an asyncio internal."""

        async def hang_up(reader, writer):
            writer.close()

        async def scenario():
            server = await asyncio.start_server(hang_up, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                loop = asyncio.get_running_loop()
                with pytest.raises(ConnectionError):
                    await loop.run_in_executor(None, fetch_status, f"{host}:{port}")
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())
