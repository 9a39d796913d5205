"""Whole-server crash-restart: persist tenant serving state, rebuild it.

A server started with ``--state-dir`` owns one :class:`HostState`:

.. code-block:: text

    state_dir/
      MANIFEST.json                 CRC-stamped index of every tenant
      tenants/<name>/
        graph.store                 base graph CSR (static tenants)
        routing.store               node -> machine assignment
        machine-0000.store          each machine's summary (columnar)
        delta/                      DeltaLog dir (streaming tenants)

Every file goes through the store layer's crash-atomic discipline
(temp + fsync + ``os.replace``, per-section CRC32), and the manifest is
rewritten the same way after every checkpoint, so a SIGKILL at any
instant leaves a recoverable directory: whatever manifest is visible
names only files that were fully durable when it was published.

:func:`recover_host` rebuilds byte-identical serving state: summaries
are memory-mapped back (the columnar record is the same
``superedge_arrays()`` export every query answer is a function of), the
streaming :class:`~repro.store.DeltaLog` is replayed, and each machine's residual
correction list is re-filtered from its durable cursor — the exact
computation :meth:`~repro.streaming.summarizer.StreamingSummarizer.residual_for`
performs incrementally, so recovered answers match an uninterrupted
server on the durable stream prefix.

A machine cursor outside the recovered stream is refused rather than
served: past its end, the summary would cover edges the durable log
has lost.

:func:`doctor_report` is recovery's dry run — the ``repro doctor`` CLI:
it runs the same per-tenant recovery, reports whether each tenant came
back, and serves nothing, so it cannot disagree with a restart.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.distributed.cluster import DistributedCluster, Machine
from repro.errors import GraphFormatError, RecoveryError, ReproError
from repro.graph.graph import Graph
from repro.store import (
    DeltaLog,
    load_graph,
    load_summary_binary,
    open_store,
    save_graph,
    save_summary_binary,
    write_store,
)
from repro.streaming.residual import ResidualSource, uncovered_edges

MANIFEST_NAME = "MANIFEST.json"
ROUTING_KIND = "routing"

_MANIFEST_VERSION = 1


def _canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _machine_file(machine_id: int) -> str:
    return f"machine-{machine_id:04d}.store"


@dataclass
class RecoveredTenant:
    """One tenant rebuilt from disk by :func:`recover_host`.

    ``cluster`` serves byte-identically to the crashed server's durable
    state; ``delta``/``log`` are the replayed stream (``None`` for
    static tenants), ``generation`` the base generation the crashed
    server had durably logged.
    """

    name: str
    cluster: DistributedCluster
    delta: "object | None" = None
    log: "Optional[DeltaLog]" = None

    @property
    def generation(self) -> "int | None":
        return self.log.generation if self.log is not None else None


class HostState:
    """The writable side: checkpoint tenant serving state under a dir."""

    def __init__(self, state_dir: "str | os.PathLike[str]"):
        self.state_dir = os.fspath(state_dir)
        os.makedirs(self.state_dir, exist_ok=True)
        self._manifest: dict = {"version": _MANIFEST_VERSION, "tenants": {}}
        path = self.manifest_path
        if os.path.exists(path):
            self._manifest = _load_manifest(path)

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> str:
        return os.path.join(self.state_dir, MANIFEST_NAME)

    @property
    def exists(self) -> bool:
        """Whether a manifest is already durable (restart vs. fresh start)."""
        return os.path.exists(self.manifest_path)

    @property
    def tenants(self) -> "List[str]":
        return sorted(self._manifest["tenants"])

    def tenant_dir(self, name: str) -> str:
        return os.path.join(self.state_dir, "tenants", name)

    def delta_dir(self, name: str) -> str:
        """Where a streaming tenant's :class:`DeltaLog` lives (pass as
        ``log_dir=`` when building the tenant's summarizer)."""
        return os.path.join(self.tenant_dir(name), "delta")

    # ------------------------------------------------------------------
    # the write path
    # ------------------------------------------------------------------
    def _flush_manifest(self) -> None:
        payload = self._manifest
        blob = _canonical(payload)
        record = {"crc32": zlib.crc32(blob), "payload": payload}
        directory = self.state_dir
        tmp = os.path.join(directory, "." + MANIFEST_NAME + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(record, handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.manifest_path)

    def _save_routing(self, directory: str, num_nodes: int, machines: "List[Machine]") -> None:
        route = np.full(num_nodes, -1, dtype=np.int64)
        for machine in machines:
            route[machine.part_nodes] = machine.machine_id
        write_store(
            os.path.join(directory, "routing.store"),
            {"assignment": route},
            kind=ROUTING_KIND,
            meta={"num_nodes": num_nodes, "num_machines": len(machines)},
        )

    def _save_source(self, directory: str, machine: Machine) -> dict:
        """One machine's source to its store file; returns its manifest entry."""
        path = os.path.join(directory, _machine_file(machine.machine_id))
        source = machine.source
        if isinstance(source, ResidualSource):
            # Residual corrections are *derived* state: the summary plus
            # the delta log reproduce them exactly, so only the summary
            # is checkpointed.
            source = source.summary
        if isinstance(source, Graph):
            save_graph(source, path)
            kind = "graph"
        else:
            save_summary_binary(source, path, include_graph=False)
            kind = "summary"
        return {
            "id": machine.machine_id,
            "file": _machine_file(machine.machine_id),
            "kind": kind,
            "memory_bits": float(machine.memory_bits),
            "cursor": 0,
        }

    def save_static_tenant(self, name: str, cluster: DistributedCluster) -> dict:
        """Checkpoint a non-streaming tenant: graph + routing + summaries."""
        directory = self.tenant_dir(name)
        os.makedirs(directory, exist_ok=True)
        save_graph(cluster.graph, os.path.join(directory, "graph.store"))
        self._save_routing(directory, cluster.graph.num_nodes, cluster.machines)
        entries = [self._save_source(directory, machine) for machine in cluster.machines]
        record = {
            "kind": "static",
            "num_nodes": cluster.graph.num_nodes,
            "graph": "graph.store",
            "routing": "routing.store",
            "machines": entries,
            "delta_dir": None,
        }
        self._manifest["tenants"][name] = record
        self._flush_manifest()
        return record

    def save_streaming_tenant(self, name: str, summarizer) -> dict:
        """Checkpoint a streaming tenant's summaries + cursors.

        *summarizer* must have been built with ``log_dir=``
        :meth:`delta_dir` — the durable stream itself is the
        :class:`DeltaLog`'s job; this records each machine's base
        summary and the **global** stream offset it was built at, which
        is everything :func:`recover_host` needs to re-filter residuals.
        """
        log = summarizer.log
        if log is None:
            raise RecoveryError(
                f"tenant {name!r}: streaming checkpoints need a summarizer "
                f"with log_dir={self.delta_dir(name)!r}"
            )
        directory = self.tenant_dir(name)
        os.makedirs(directory, exist_ok=True)
        cluster = summarizer.cluster
        self._save_routing(directory, cluster.graph.num_nodes, cluster.machines)
        entries = []
        for machine in cluster.machines:
            state = summarizer._states[machine.machine_id]
            path = os.path.join(directory, _machine_file(machine.machine_id))
            save_summary_binary(state.summary, path, include_graph=False)
            entries.append(
                {
                    "id": machine.machine_id,
                    "file": _machine_file(machine.machine_id),
                    "kind": "summary",
                    "memory_bits": float(state.summary.size_in_bits()),
                    "cursor": log.global_offset(state.cursor),
                }
            )
        record = {
            "kind": "streaming",
            "num_nodes": cluster.graph.num_nodes,
            "graph": None,
            "routing": "routing.store",
            "machines": entries,
            "delta_dir": "delta",
        }
        self._manifest["tenants"][name] = record
        self._flush_manifest()
        return record

    def checkpoint_machine(self, name: str, machine_id: int, summary, cursor: int) -> None:
        """Re-persist one machine after a refresh (manifest updated last).

        *cursor* is the **global** stream offset the new summary was
        built at.  The store file is replaced atomically before the
        manifest flips, so a crash between the two just recovers the old
        summary with the old cursor — still byte-identical serving state
        for the durable prefix.
        """
        record = self._manifest["tenants"].get(name)
        if record is None:
            raise RecoveryError(f"tenant {name!r} is not in the manifest")
        entry = next((m for m in record["machines"] if m["id"] == machine_id), None)
        if entry is None:
            raise RecoveryError(f"tenant {name!r} has no machine {machine_id}")
        path = os.path.join(self.tenant_dir(name), entry["file"])
        save_summary_binary(summary, path, include_graph=False)
        entry["kind"] = "summary"
        entry["memory_bits"] = float(summary.size_in_bits())
        entry["cursor"] = int(cursor)
        self._flush_manifest()

    def checkpoint_for(self, name: str):
        """A ``checkpoint=`` callback for :class:`StreamingSummarizer`."""

        def checkpoint(machine_id: int, summary, cursor: int) -> None:
            self.checkpoint_machine(name, machine_id, summary, cursor)

        return checkpoint

    def remove_tenant(self, name: str) -> None:
        """Drop a tenant from the manifest (files are left for post-mortem)."""
        if self._manifest["tenants"].pop(name, None) is not None:
            self._flush_manifest()


# ----------------------------------------------------------------------
# the read path
# ----------------------------------------------------------------------
def _load_manifest(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
    except OSError as exc:
        raise RecoveryError(f"{path}: cannot read manifest: {exc}") from None
    except json.JSONDecodeError as exc:
        raise RecoveryError(f"{path}: manifest is not valid JSON: {exc}") from None
    if not isinstance(record, dict) or "payload" not in record or "crc32" not in record:
        raise RecoveryError(f"{path}: manifest is missing crc32/payload")
    payload = record["payload"]
    computed = zlib.crc32(_canonical(payload))
    if computed != int(record["crc32"]):
        raise RecoveryError(
            f"{path}: manifest checksum mismatch "
            f"(stored {int(record['crc32']):#010x}, computed {computed:#010x})"
        )
    if payload.get("version") != _MANIFEST_VERSION:
        raise RecoveryError(
            f"{path}: unsupported manifest version {payload.get('version')!r}"
        )
    if not isinstance(payload.get("tenants"), dict):
        raise RecoveryError(f"{path}: manifest has no tenants table")
    return payload


def _recover_machines(
    directory: str,
    record: dict,
    graph: "Graph",
    *,
    delta=None,
    log: "Optional[DeltaLog]" = None,
    verify: bool = True,
) -> "List[Machine]":
    machines: "List[Machine]" = []
    routing = open_store(
        os.path.join(directory, record["routing"]), kind=ROUTING_KIND, verify=verify
    )
    assignment = np.asarray(routing["assignment"], dtype=np.int64)
    if assignment.shape != (graph.num_nodes,):
        raise RecoveryError(
            f"{routing.path}: assignment covers {assignment.shape[0]} nodes, "
            f"graph has {graph.num_nodes}"
        )
    for entry in sorted(record["machines"], key=lambda m: m["id"]):
        machine_id = int(entry["id"])
        path = os.path.join(directory, entry["file"])
        if entry["kind"] == "graph":
            source = load_graph(path, verify=verify)
        else:
            source = load_summary_binary(path, verify=verify)
        memory_bits = float(entry.get("memory_bits", source.size_in_bits()))
        cursor = int(entry.get("cursor", 0))
        if log is not None and delta is not None:
            # Re-filter the machine's residual corrections over the
            # durable suffix past its cursor — the same vectorized
            # filter the live summarizer applies incrementally, so the
            # recovered source is identical to the uninterrupted one.
            lo = log.local_offset(cursor)
            if not 0 <= lo <= delta.num_pending:
                raise RecoveryError(
                    f"{path}: cursor {cursor} outside the durable stream "
                    f"[{log.origin}, {log.logged_offset}] — manifest and delta log disagree"
                )
            suffix = delta.pending_edges()[lo:]
            if suffix.shape[0]:
                novel = uncovered_edges(source, suffix[:, 0], suffix[:, 1])
                source = ResidualSource(source, suffix[novel], assume_filtered=True)
                memory_bits = source.size_in_bits()
        part_nodes = np.flatnonzero(assignment == machine_id)
        if part_nodes.size == 0:
            raise RecoveryError(f"{path}: machine {machine_id} owns no nodes in routing")
        machines.append(
            Machine(
                machine_id=machine_id,
                part_nodes=part_nodes,
                source=source,
                memory_bits=memory_bits,
            )
        )
    return machines


def _recover_tenant(
    state_dir: str, name: str, record: dict, *, verify: bool
) -> RecoveredTenant:
    """Rebuild one tenant from its manifest *record*, or raise.

    The one recovery routine: :func:`recover_host` serves what it
    returns and :func:`doctor_report` only asks whether it returns.
    """
    directory = os.path.join(state_dir, "tenants", name)
    delta = log = None
    try:
        if record["kind"] == "streaming":
            delta, log = DeltaLog.recover(
                os.path.join(directory, record["delta_dir"]), verify=verify
            )
            graph = delta.base
        else:
            graph = load_graph(os.path.join(directory, record["graph"]), verify=verify)
        machines = _recover_machines(
            directory, record, graph, delta=delta, log=log, verify=verify
        )
        cluster = DistributedCluster(graph, machines)
    except (KeyError, TypeError, ValueError) as exc:
        raise RecoveryError(f"tenant {name!r}: malformed manifest entry: {exc}") from None
    return RecoveredTenant(name=name, cluster=cluster, delta=delta, log=log)


def recover_host(
    state_dir: "str | os.PathLike[str]", *, verify: bool = True
) -> "Dict[str, RecoveredTenant]":
    """Rebuild every tenant's serving state from *state_dir*.

    Raises :class:`RecoveryError` (manifest problems) or
    :class:`~repro.errors.GraphFormatError` (corrupt store files) rather
    than ever serving from partial state.  With *verify* (default) every
    section CRC in every store file is checked before use.
    """
    state_dir = os.fspath(state_dir)
    payload = _load_manifest(os.path.join(state_dir, MANIFEST_NAME))
    return {
        name: _recover_tenant(state_dir, name, payload["tenants"][name], verify=verify)
        for name in sorted(payload["tenants"])
    }


def doctor_report(state_dir: "str | os.PathLike[str]", *, verify: bool = True) -> dict:
    """Recovery's dry run: recover every tenant, report, serve nothing.

    A tenant is ``ok`` exactly when the recovery :func:`recover_host`
    runs returns for it, so the verdict cannot disagree with a restart
    (and needs the restart's RAM: the pending edges since the newest
    base).  Never raises for a bad state dir — the whole point is
    diagnosing one.  ``report["recoverable"]`` is the overall verdict;
    each tenant carries its ``ok``/``error``, a streaming tenant its
    recovered ``delta`` window, and each file its own ``ok``/``error``.
    """
    state_dir = os.fspath(state_dir)
    report: dict = {
        "state_dir": state_dir,
        "manifest": {"ok": False, "error": None},
        "tenants": {},
        "recoverable": False,
    }
    try:
        payload = _load_manifest(os.path.join(state_dir, MANIFEST_NAME))
    except RecoveryError as exc:
        report["manifest"]["error"] = str(exc)
        return report
    report["manifest"]["ok"] = True
    for name in sorted(payload["tenants"]):
        record = payload["tenants"][name]
        directory = os.path.join(state_dir, "tenants", name)
        tenant: dict = {"kind": None, "files": [], "delta": None, "ok": False, "error": None}
        # Which file is damaged; the verdict is recovery's alone.
        try:
            tenant["kind"] = record["kind"]
            files = [record["routing"], record.get("graph")]
            files += [machine["file"] for machine in record["machines"]]
        except (KeyError, TypeError):
            files = []  # a malformed entry, which recovery's error names
        for file_name in filter(None, files):
            entry = {"file": file_name, "ok": False, "bytes": 0, "error": None}
            path = os.path.join(directory, str(file_name))
            try:
                entry["bytes"] = os.path.getsize(path)
                open_store(path, verify=verify).close()
                entry["ok"] = True
            except (OSError, GraphFormatError) as exc:
                entry["error"] = str(exc)
            tenant["files"].append(entry)
        try:
            recovered = _recover_tenant(state_dir, name, record, verify=verify)
        except ReproError as exc:
            tenant["error"] = str(exc)
        else:
            tenant["ok"] = True
            if recovered.log is not None:
                tenant["delta"] = {
                    "generation": recovered.log.generation,
                    "origin": recovered.log.origin,
                    "logged_offset": recovered.log.logged_offset,
                }
        report["tenants"][name] = tenant
    tenants = report["tenants"].values()
    report["recoverable"] = bool(tenants) and all(t["ok"] for t in tenants)
    return report
