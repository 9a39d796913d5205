"""Out-of-core persistent store: crash-safe binary containers + memmaps.

Public surface:

* :func:`write_store` / :func:`open_store` / :class:`StoreContainer` —
  the versioned binary container (magic, per-section CRC32, 64-byte
  aligned sections, crash-atomic writes);
* :func:`save_graph` / :func:`load_graph` / :class:`MappedGraph` — a CSR
  graph persisted and reopened as zero-copy read-only memmap views;
* :func:`save_summary_binary` / :func:`load_summary_binary` /
  :class:`MappedSummary` — the columnar summary-graph record, answering
  queries byte-identically to the in-RAM summary without heap copies;
* :class:`DeltaLog` — LSM-style durable append segments + compaction for
  the streaming edge overlay.

See ``docs/architecture.md`` ("Persistent store") for the format layout
and the atomicity/checksum contract.
"""

from repro.store.container import (
    ALIGNMENT,
    MAGIC,
    VERSION,
    StoreContainer,
    open_store,
    write_store,
)
from repro.store.mapped import (
    GRAPH_KIND,
    SUMMARY_KIND,
    MappedGraph,
    MappedSummary,
    load_graph,
    load_summary_binary,
    save_graph,
    save_summary_binary,
)
from repro.store.segments import DeltaLog

__all__ = [
    "ALIGNMENT",
    "MAGIC",
    "VERSION",
    "GRAPH_KIND",
    "SUMMARY_KIND",
    "StoreContainer",
    "open_store",
    "write_store",
    "MappedGraph",
    "MappedSummary",
    "load_graph",
    "load_summary_binary",
    "save_graph",
    "save_summary_binary",
    "DeltaLog",
]
