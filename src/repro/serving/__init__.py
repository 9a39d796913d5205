"""Async query serving over the communication-free cluster (Sect. IV, online).

The batch pipeline answers a *fixed* query set
(:meth:`~repro.distributed.cluster.DistributedCluster.answer_many`);
this package serves a *stream*: :class:`QueryServer` admits queries
continuously on an asyncio event loop, micro-batches them per owning
machine by arrival window, applies bounded-queue admission control, and
answers them on persistent pre-forked worker lanes — every answer
byte-identical to the synchronous ``cluster.answer`` path, every
submission getting its own per-request future (duplicate query nodes
included).

Entry points: :class:`QueryServer` (the async front end),
:func:`serve_queries` (synchronous convenience for fixed streams),
:class:`~repro.serving.blueprint.ClusterBlueprint` (the worker-side
shipping layer, reusable by other long-lived pools),
:class:`~repro.serving.tenancy.TenantHost` (multi-tenant hosting with
per-tenant quotas and ledgers), and :class:`~repro.serving.net.NetServer`
/ :class:`~repro.serving.net.NetClient` (the TCP tier speaking the
length-prefixed codec of :mod:`repro.serving.protocol`).
"""

from repro.distributed.cluster import QUERY_TYPES
from repro.serving.blueprint import (
    BatchReply,
    BatchTask,
    ClusterBlueprint,
    release_session_task,
    serve_batch_task,
)
from repro.serving.net import NetClient, NetServer, ResilientClient
from repro.serving.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    MessageCodec,
    encode_frame,
    pack_array,
    unpack_array,
)
from repro.serving.server import QueryServer, ServingStats, serve_queries
from repro.serving.tenancy import TenantConfig, TenantHost

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "QUERY_TYPES",
    "BatchReply",
    "BatchTask",
    "ClusterBlueprint",
    "FrameDecoder",
    "MessageCodec",
    "NetClient",
    "NetServer",
    "QueryServer",
    "ResilientClient",
    "ServingStats",
    "TenantConfig",
    "TenantHost",
    "encode_frame",
    "pack_array",
    "release_session_task",
    "serve_batch_task",
    "serve_queries",
    "unpack_array",
]
