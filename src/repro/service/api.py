"""One way in: ``connect()`` / ``aconnect()`` and the client protocol.

These factories collapse the client surface to a single decision,
the *target string*:

``"HOST:PORT"`` / ``":PORT"`` / ``"unix:PATH"``
    One server.  ``aconnect`` returns an
    :class:`~repro.service.client.AsyncServerClient`, ``connect`` a
    :class:`~repro.service.client.ServerClient` (its blocking facade).
``"cluster:HOST:PORT"`` / ``"cluster:unix:PATH"``
    A coordinator.  The same calls return a
    :class:`~repro.fabric.cluster.ClusterClient` /
    :class:`~repro.fabric.cluster.AsyncClusterClient` that routes each
    query by its (preset, d) shard key, fails over across replicas,
    and refreshes the routing table on epoch change.

Both shapes satisfy :class:`OptimizerClient` (resp.
:class:`AsyncOptimizerClient`) — context manager, ``query``,
``query_many``, ``stats``, ``close`` — so call sites are agnostic to
whether one server or a whole fabric answers:

>>> from repro.service import connect
>>> # with connect("cluster:127.0.0.1:7840", wire="binary") as client:
>>> #     client.query_many([(7, 40.0), (5, 8.0)])
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Protocol, runtime_checkable

from repro.service.client import AsyncServerClient, ServerClient

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fabric.cluster import RetryPolicy

__all__ = [
    "AsyncOptimizerClient",
    "CLUSTER_SCHEME",
    "OptimizerClient",
    "aconnect",
    "connect",
]

#: target prefix that selects cluster routing via a coordinator
CLUSTER_SCHEME = "cluster:"


@runtime_checkable
class OptimizerClient(Protocol):
    """What every blocking optimizer client — one server or a whole
    cluster — guarantees its callers."""

    def query(self, d: int, m: float, *, preset: str | None = None) -> dict: ...

    def query_many(
        self, queries: Iterable, *, preset: str | None = None,
        frame_queries: int | None = None,
    ) -> list[dict]: ...

    def stats(self) -> dict: ...

    def presets(self) -> list[str]: ...

    def close(self) -> None: ...

    def __enter__(self) -> "OptimizerClient": ...

    def __exit__(self, *exc_info: object) -> None: ...


@runtime_checkable
class AsyncOptimizerClient(Protocol):
    """The asyncio twin of :class:`OptimizerClient`."""

    async def query(self, d: int, m: float, *, preset: str | None = None) -> dict: ...

    async def query_many(
        self, queries: Iterable, *, preset: str | None = None,
        frame_queries: int | None = None,
    ) -> list[dict]: ...

    async def stats(self) -> dict: ...

    async def presets(self) -> list[str]: ...

    async def aclose(self) -> None: ...


def connect(
    target: str,
    *,
    wire: str = "json",
    auth_token: str | None = None,
    timeout: float | None = 30.0,
    retry: "RetryPolicy | None" = None,
) -> OptimizerClient:
    """A ready-to-use blocking client for ``target``.

    ``retry`` (a :class:`~repro.fabric.cluster.RetryPolicy`) only
    applies to cluster targets — replica failover is meaningless
    against a single server — and raises :exc:`ValueError` otherwise.
    """
    if target.startswith(CLUSTER_SCHEME):
        from repro.fabric.cluster import ClusterClient, CoordinatorRoutes

        routes = CoordinatorRoutes(
            target[len(CLUSTER_SCHEME):], timeout=timeout
        )
        return ClusterClient(
            routes, wire=wire, auth_token=auth_token, timeout=timeout,
            retry=retry,
        )
    if retry is not None:
        raise ValueError(
            "retry= applies to cluster targets only "
            f"(got single-server target {target!r})"
        )
    return ServerClient(target, wire=wire, auth_token=auth_token, timeout=timeout)


async def aconnect(
    target: str,
    *,
    wire: str = "json",
    auth_token: str | None = None,
    timeout: float | None = 30.0,
    retry: "RetryPolicy | None" = None,
) -> AsyncOptimizerClient:
    """A ready-to-use asyncio client for ``target`` (see
    :func:`connect` for the target grammar)."""
    if target.startswith(CLUSTER_SCHEME):
        from repro.fabric.cluster import AsyncClusterClient, CoordinatorRoutes

        routes = CoordinatorRoutes(
            target[len(CLUSTER_SCHEME):], timeout=timeout
        )
        client = AsyncClusterClient(
            routes, wire=wire, auth_token=auth_token, timeout=timeout,
            retry=retry,
        )
        await client.refresh()
        return client
    if retry is not None:
        raise ValueError(
            "retry= applies to cluster targets only "
            f"(got single-server target {target!r})"
        )
    return await AsyncServerClient.connect(
        target, wire=wire, auth_token=auth_token, timeout=timeout
    )
