"""Cluster-aware clients: route, fan out, fail over, retry.

One client core, :class:`AsyncClusterClient`, presents the exact same
surface as a single-server client — ``query`` / ``query_many`` /
``stats`` / ``presets`` / ``aclose``, the
:class:`~repro.service.api.AsyncOptimizerClient` protocol — but behind
it holds one :class:`~repro.service.client.AsyncServerClient` per node
and routes every query by its (preset, d) shard key through the
coordinator's cached :class:`~repro.fabric.routing.RoutingTable`:

- ``query_many`` groups the queries by target node and pipelines each
  group over that node's connection (the single-server pipelining,
  unchanged), reassembling answers into request order;
- a node that drops, refuses, stalls past ``timeout``, or answers
  ``RETRY_LATER`` (shedding) fails only its group: those queries retry
  on the *next replica* in their key's failover order, after a capped
  exponential backoff and a forced routing-table refresh — node loss
  is a normal, retried event;
- group submission is all-or-nothing: answers are committed by query
  index only when a group's full response pipeline arrived, so a
  connection cut mid-pipeline re-runs the whole group on a replica —
  callers see exactly one answer per query, never duplicates or holes;
- the routing table refreshes epoch-conditionally (``OP_ROUTES`` with
  the cached epoch; the coordinator answers ``{"unchanged": true}``
  when nothing moved).

:class:`ClusterClient` is the blocking facade: it runs the
:class:`AsyncClusterClient` coroutines on a private event loop and
holds no routing or retry logic of its own.  It connects lazily, on
the first query.

Routing tables come from a pluggable source: :class:`CoordinatorRoutes`
asks a live coordinator, :class:`StaticRoutes` pins a table (tests
script membership changes without a coordinator).  The module-level
:func:`fetch_status` / :func:`request_drain` helpers back
``repro cluster status`` / ``repro cluster drain``; they and
:func:`fetch_routes` run the one asyncio control-plane round trip on a
fresh event loop.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Iterable

from repro.fabric.routing import RoutingTable
from repro.service import wire as wire_proto
from repro.service.client import (
    Address,
    AsyncServerClient,
    ServiceError,
    parse_address,
    _BlockingFacade,
    _query_request,
)

__all__ = [
    "AsyncClusterClient",
    "ClusterClient",
    "CoordinatorRoutes",
    "RetryPolicy",
    "RouteError",
    "StaticRoutes",
    "fetch_routes",
    "fetch_status",
    "request_drain",
]


class RouteError(RuntimeError):
    """The cluster could not answer: no routable node, a coordinator
    error, or every replica of some key failed past the retry budget."""


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff across replica failover attempts.

    Deterministic by design (no jitter): the project's unseeded-rand
    rule bans ambient randomness, and a single client retrying against
    a handful of replicas gains nothing from desynchronization.
    """

    attempts: int = 4
    base_delay_s: float = 0.05
    max_delay_s: float = 1.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_delay_s < 0 or self.max_delay_s < self.base_delay_s:
            raise ValueError(
                f"need 0 <= base_delay_s <= max_delay_s, got "
                f"{self.base_delay_s}/{self.max_delay_s}"
            )

    def delay_s(self, failure: int) -> float:
        """Seconds to back off after the ``failure``-th failed attempt."""
        return min(self.max_delay_s, self.base_delay_s * (2.0 ** failure))


# ----------------------------------------------------------------------
# control-plane round trips
# ----------------------------------------------------------------------
async def _control_request(
    address: str | Address, opcode: int, doc: dict, expect: int,
    *, timeout: float | None,
) -> dict:
    """One control-plane round trip against the coordinator."""
    addr = parse_address(address)
    if addr.kind == "unix":
        open_coro = asyncio.open_unix_connection(addr.path)
    else:
        open_coro = asyncio.open_connection(addr.host, addr.port)
    reader, writer = await asyncio.wait_for(open_coro, timeout)
    try:
        writer.write(wire_proto.pack_frame(opcode, wire_proto.fabric_payload(doc)))
        async with asyncio.timeout(timeout):
            await writer.drain()
            _, answer_op, payload = await wire_proto.read_frame(reader)
    except asyncio.IncompleteReadError:
        raise ConnectionError("coordinator closed the connection mid-frame") from None
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    if answer_op == wire_proto.OP_ERROR:
        raise RouteError(payload.decode("utf-8", "replace"))
    if answer_op != expect:
        raise RouteError(f"coordinator answered opcode {answer_op}, expected {expect}")
    return wire_proto.parse_fabric_payload(payload)


async def _fetch_routes(
    coordinator: str | Address, known_epoch: int | None, timeout: float | None
) -> RoutingTable | None:
    doc = await _control_request(
        coordinator, wire_proto.OP_ROUTES,
        {"epoch": -1 if known_epoch is None else known_epoch},
        wire_proto.OP_ROUTES_OK, timeout=timeout,
    )
    if doc.get("unchanged"):
        return None
    return RoutingTable.from_dict(doc)


def fetch_routes(
    coordinator: str | Address, *, known_epoch: int | None = None,
    timeout: float | None = 10.0,
) -> RoutingTable | None:
    """The coordinator's routing table, or ``None`` when ``known_epoch``
    is still current."""
    return asyncio.run(_fetch_routes(coordinator, known_epoch, timeout))


def fetch_status(
    coordinator: str | Address, *, timeout: float | None = 10.0
) -> dict:
    """The full membership document (``repro cluster status``)."""
    return asyncio.run(_control_request(
        coordinator, wire_proto.OP_STATUS, {}, wire_proto.OP_STATUS_OK,
        timeout=timeout,
    ))


def request_drain(
    coordinator: str | Address, node_id: str, *, timeout: float | None = 10.0
) -> dict:
    """Ask the coordinator to drain one node (``repro cluster drain``)."""
    return asyncio.run(_control_request(
        coordinator, wire_proto.OP_DRAIN, {"node": node_id},
        wire_proto.OP_DRAIN_OK, timeout=timeout,
    ))


# ----------------------------------------------------------------------
# routing-table sources
# ----------------------------------------------------------------------
class CoordinatorRoutes:
    """Routing tables straight from a live coordinator."""

    def __init__(self, coordinator: str | Address, *, timeout: float | None = 10.0) -> None:
        self.coordinator = parse_address(coordinator)
        self.timeout = timeout

    def table(self, known_epoch: int | None = None) -> RoutingTable | None:
        return fetch_routes(
            self.coordinator, known_epoch=known_epoch, timeout=self.timeout
        )

    async def table_async(self, known_epoch: int | None = None) -> RoutingTable | None:
        return await _fetch_routes(self.coordinator, known_epoch, self.timeout)

    def status(self) -> dict:
        return fetch_status(self.coordinator, timeout=self.timeout)


class StaticRoutes:
    """A pinned routing table (tests script failover without a
    coordinator by swapping tables between attempts)."""

    def __init__(self, table: RoutingTable) -> None:
        self._table = table

    def set(self, table: RoutingTable) -> None:
        self._table = table

    def table(self, known_epoch: int | None = None) -> RoutingTable | None:
        if known_epoch is not None and known_epoch == self._table.epoch:
            return None
        return self._table

    async def table_async(self, known_epoch: int | None = None) -> RoutingTable | None:
        return self.table(known_epoch)

    def status(self) -> dict:
        return {
            "epoch": self._table.epoch,
            "replication": self._table.replication,
            "nodes": [
                {"node": node, "address": address, "state": "alive"}
                for node, address in self._table.nodes
            ],
        }


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------
def _route_groups(
    table: RoutingTable, docs: list[dict], pending: list[int], attempt: int
) -> tuple[dict[str, list[int]], list[int]]:
    """Group pending query indices by target address for this attempt.

    Attempt ``k`` routes each key to replica ``k % len(replicas)`` of
    its failover list, so consecutive retries walk the replica set.
    Returns ``(groups, unroutable)`` — keys with no replica at all
    (empty table, unknown preset) stay pending for a later refresh.
    """
    groups: dict[str, list[int]] = {}
    unroutable: list[int] = []
    for idx in pending:
        doc = docs[idx]
        preset = str(doc.get("preset") or table.default_preset or "")
        replicas = table.replicas_for(preset, int(doc.get("d", 0)))
        if not replicas:
            unroutable.append(idx)
            continue
        groups.setdefault(replicas[attempt % len(replicas)], []).append(idx)
    return groups, unroutable


_NODE_FAILURES = (ConnectionError, OSError, wire_proto.WireError, ServiceError)


class AsyncClusterClient:
    """The routing client (see the module docstring for semantics)."""

    def __init__(
        self,
        routes: CoordinatorRoutes | StaticRoutes,
        *,
        wire: str = "json",
        auth_token: str | None = None,
        timeout: float | None = 30.0,
        retry: RetryPolicy | None = None,
    ) -> None:
        self._routes = routes
        self._wire = wire
        self._auth_token = auth_token
        self._timeout = timeout
        self._retry = retry if retry is not None else RetryPolicy()
        self._table: RoutingTable | None = None
        self._conns: dict[str, AsyncServerClient] = {}

    # -- routing ------------------------------------------------------
    async def refresh(self, *, force: bool = False) -> RoutingTable:
        known = None if force or self._table is None else self._table.epoch
        fresh = await self._routes.table_async(known)
        if fresh is not None:
            self._table = fresh
        assert self._table is not None
        return self._table

    async def _current_table(self) -> RoutingTable:
        return self._table if self._table is not None else await self.refresh()

    async def _conn(self, address: str) -> AsyncServerClient:
        client = self._conns.get(address)
        if client is None:
            client = await AsyncServerClient.connect(
                address, wire=self._wire, auth_token=self._auth_token,
                timeout=self._timeout,
            )
            self._conns[address] = client
        return client

    async def _drop_conn(self, address: str) -> None:
        client = self._conns.pop(address, None)
        if client is not None:
            await client.aclose()

    # -- queries ------------------------------------------------------
    async def query(self, d: int, m: float, *, preset: str | None = None) -> dict:
        doc: dict[str, Any] = {"d": d, "m": m}
        if preset is not None:
            doc["preset"] = preset
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
        if frame_queries is not None and self._wire != "binary":
            raise ValueError("frame_queries applies to the binary wire only")
        table = await self._current_table()
        docs = [
            _query_request(q, preset if preset is not None else table.default_preset)
            for q in queries
        ]
        if not docs:
            return []
        results: list[dict | None] = [None] * len(docs)
        pending = list(range(len(docs)))
        failures = 0
        for attempt in range(self._retry.attempts):
            if not pending:
                break
            if failures:
                await asyncio.sleep(self._retry.delay_s(failures - 1))
                table = await self.refresh(force=True)
            groups, pending = _route_groups(table, docs, pending, attempt)
            for address, idxs in groups.items():
                try:
                    client = await self._conn(address)
                    answers = await client.query_many(
                        [docs[i] for i in idxs], frame_queries=frame_queries
                    )
                except _NODE_FAILURES:
                    await self._drop_conn(address)
                    pending.extend(idxs)
                    continue
                # the whole pipeline arrived: commit it, shed answers stay
                # pending, so commitment is all-or-nothing per group
                for idx, answer in zip(idxs, answers):
                    if answer.get("retry"):
                        pending.append(idx)
                    else:
                        results[idx] = answer
            if pending:
                failures += 1
        if pending:
            raise RouteError(
                f"{len(pending)} of {len(docs)} queries unanswered after "
                f"{self._retry.attempts} attempts across replicas"
            )
        return [doc for doc in results if doc is not None]

    # -- ops ----------------------------------------------------------
    async def stats(self) -> dict:
        """The cluster's membership/status document, wrapped like a
        server stats answer."""
        if isinstance(self._routes, CoordinatorRoutes):
            status = await _control_request(
                self._routes.coordinator, wire_proto.OP_STATUS, {},
                wire_proto.OP_STATUS_OK, timeout=self._routes.timeout,
            )
        else:
            status = self._routes.status()
        return {"ok": True, "cluster": status}

    async def presets(self) -> list[str]:
        return list((await self._current_table()).presets)

    async def aclose(self) -> None:
        for address in list(self._conns):
            await self._drop_conn(address)

    async def __aenter__(self) -> "AsyncClusterClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()


class ClusterClient(_BlockingFacade[AsyncClusterClient]):
    """Blocking cluster client: the :class:`AsyncClusterClient`
    surface, run on a private event loop.  Connects lazily."""

    def __init__(
        self,
        routes: CoordinatorRoutes | StaticRoutes,
        *,
        wire: str = "json",
        auth_token: str | None = None,
        timeout: float | None = 30.0,
        retry: RetryPolicy | None = None,
    ) -> None:
        self._client = AsyncClusterClient(
            routes, wire=wire, auth_token=auth_token, timeout=timeout,
            retry=retry,
        )
        self._loop = asyncio.new_event_loop()

    @property
    def table(self) -> RoutingTable:
        return self._run(self._client._current_table())

    def refresh(self, *, force: bool = False) -> RoutingTable:
        return self._run(self._client.refresh(force=force))
