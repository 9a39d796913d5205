"""On-disk persistence for the streaming edge overlay, LSM-style.

A :class:`DeltaLog` makes a :class:`~repro.streaming.delta.GraphDelta`
durable without ever rewriting history on the hot path:

* ``base-<generation>.store`` — a graph container (``kind="delta-base"``)
  holding the CSR of the base graph *with the first* ``pending_offset``
  *stream edges folded in*;
* ``seg-<generation>-<index>.store`` — an append segment
  (``kind="delta-segment"``) holding one contiguous slice of the pending
  buffer as ``u``/``v`` columns, stamped with its global ``start`` offset.

Every file is written through :func:`repro.store.container.write_store`,
so each append and each compaction is individually crash-atomic: a crash
at any point leaves only whole, checksummed files, and
:meth:`DeltaLog.recover` reconstructs exactly the stream that was durable.

Compaction (:meth:`DeltaLog.compact`) folds a fully-refreshed prefix of
the pending buffer — in the streaming layer, everything before the
minimum per-machine re-summarization cursor — into a new base generation,
then deletes the segments (and older bases) the new base covers.  It is a
**disk-only** operation: the in-memory delta, its pending buffer, and
every cursor into it are untouched, preserving the monotone-cursor
invariant the streaming layer depends on.  Deletion happens strictly
after the new base is published, so a crash mid-compaction at worst
leaves covered segments behind; recovery skips their folded prefix (and
:meth:`GraphDelta.add_edges` would deduplicate them regardless).

:meth:`DeltaLog.recover` is the one way a log directory is read back
into a stream: ``repro doctor`` runs it too, as part of recovery's dry
run, so the two cannot disagree about a log directory.
"""

from __future__ import annotations

import os
import re
from typing import List, Tuple  # noqa: F401 - Tuple used in string annotations

import numpy as np

from typing import TYPE_CHECKING

from repro.errors import GraphFormatError
from repro.graph.graph import Graph
from repro.store.container import open_store, write_store
from repro.store.mapped import _graph_from_sections

if TYPE_CHECKING:  # imported lazily at runtime: streaming itself uses the store
    from repro.streaming.delta import GraphDelta

BASE_KIND = "delta-base"
SEGMENT_KIND = "delta-segment"

_BASE_RE = re.compile(r"^base-(\d{8})\.store$")
_SEG_RE = re.compile(r"^seg-(\d{8})-(\d{8})\.store$")


def _base_name(generation: int) -> str:
    return f"base-{generation:08d}.store"


def _seg_name(generation: int, index: int) -> str:
    return f"seg-{generation:08d}-{index:08d}.store"


class DeltaLog:
    """Durable append log + compaction for one :class:`GraphDelta` stream.

    Construct with :meth:`create` (fresh directory, possibly catching up
    an already-populated delta) or :meth:`recover` (rebuild the delta from
    what is on disk).  One log owns one directory; the *origin* maps the
    delta's local pending indices to the stream's global offsets (local
    ``i`` is global ``origin + i``) and is fixed for the lifetime of the
    in-memory delta — compaction never renumbers anything.
    """

    def __init__(
        self, directory: "str | os.PathLike[str]", *, _origin: int, _generation: int,
        _logged: int, _seg_index: int, _folded: int,
    ):
        self.directory = os.fspath(directory)
        self._origin = _origin
        self._generation = _generation
        self._logged = _logged  # global offset up to which base + segments are durable
        self._seg_index = _seg_index
        self._folded = _folded  # global offset the current base generation absorbs

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, directory: "str | os.PathLike[str]", delta: GraphDelta) -> "DeltaLog":
        """Start a fresh log in *directory* (created if missing, must hold no log).

        Writes generation 0's base from ``delta.base`` and a first segment
        for any edges the delta already buffered.
        """
        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        for entry in os.listdir(directory):
            if _BASE_RE.match(entry) or _SEG_RE.match(entry):
                raise GraphFormatError(
                    f"{directory}: already contains a delta log ({entry}); "
                    "use DeltaLog.recover"
                )
        base = delta.base
        write_store(
            os.path.join(directory, _base_name(0)),
            {"indptr": base.indptr, "indices": base.indices},
            kind=BASE_KIND,
            meta={"num_nodes": base.num_nodes, "generation": 0, "pending_offset": 0},
        )
        log = cls(directory, _origin=0, _generation=0, _logged=0, _seg_index=0, _folded=0)
        log.append(delta)
        return log

    @classmethod
    def recover(
        cls, directory: "str | os.PathLike[str]", *, verify: bool = True
    ) -> "Tuple[GraphDelta, DeltaLog]":
        """Rebuild ``(delta, log)`` from the files in *directory*.

        The newest base generation is memory-mapped as the delta's base
        graph; every segment is replayed in global-offset order, skipping
        the prefix the base already folded in.  Gaps between segments —
        which atomic per-file writes cannot produce — raise
        :class:`GraphFormatError` rather than silently losing edges.
        """
        directory = os.fspath(directory)
        bases: List[int] = []
        segments: List[Tuple[int, int, str]] = []
        try:
            entries = os.listdir(directory)
        except OSError as exc:
            raise GraphFormatError(f"{directory}: cannot list delta log: {exc}") from None
        for entry in entries:
            match = _BASE_RE.match(entry)
            if match:
                bases.append(int(match.group(1)))
                continue
            match = _SEG_RE.match(entry)
            if match:
                segments.append((int(match.group(1)), int(match.group(2)), entry))
        if not bases:
            raise GraphFormatError(f"{directory}: no base generation found in delta log")
        generation = max(bases)
        base_container = open_store(
            os.path.join(directory, _base_name(generation)), kind=BASE_KIND, verify=verify
        )
        num_nodes = int(base_container.meta.get("num_nodes", -1))
        offset = int(base_container.meta.get("pending_offset", -1))
        if num_nodes < 0 or offset < 0:
            raise GraphFormatError(
                f"{base_container.path}: delta base is missing num_nodes/pending_offset"
            )
        from repro.streaming.delta import GraphDelta

        base_graph = _graph_from_sections(base_container, "indptr", "indices", num_nodes)
        delta = GraphDelta(base_graph)

        replay: List[Tuple[int, int, str]] = []
        for gen, index, entry in sorted(segments):
            container = open_store(os.path.join(directory, entry), kind=SEGMENT_KIND, verify=verify)
            start = int(container.meta.get("start", -1))
            count = int(container.meta.get("count", -1))
            if start < 0 or count < 0 or container["u"].shape != (count,):
                raise GraphFormatError(f"{container.path}: segment start/count metadata invalid")
            replay.append((start, count, entry))
            container.close()
        replay.sort()
        cursor = offset
        max_seg_index = -1
        for start, count, entry in replay:
            if start + count <= cursor:
                continue  # fully folded into the base
            if start > cursor:
                raise GraphFormatError(
                    f"{directory}: delta log gap at global offset {cursor}: "
                    f"next segment {entry} starts at {start}"
                )
            container = open_store(os.path.join(directory, entry), kind=SEGMENT_KIND, verify=False)
            skip = cursor - start
            u = np.asarray(container["u"][skip:], dtype=np.int64)
            v = np.asarray(container["v"][skip:], dtype=np.int64)
            added = delta.add_edges(np.column_stack([u, v]))
            container.close()
            if added != u.shape[0]:
                raise GraphFormatError(
                    f"{directory}: segment {entry} replayed {added} of {u.shape[0]} edges "
                    "(duplicates in the durable stream)"
                )
            cursor = start + count
        for gen, index, _entry in segments:
            if gen == generation:
                max_seg_index = max(max_seg_index, index)
        log = cls(
            directory,
            _origin=offset,
            _generation=generation,
            _logged=cursor,
            _seg_index=max_seg_index + 1,
            _folded=offset,
        )
        return delta, log

    # ------------------------------------------------------------------
    # the write path
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Current base generation on disk."""
        return self._generation

    @property
    def logged_offset(self) -> int:
        """Global stream offset up to which the log is durable."""
        return self._logged

    @property
    def origin(self) -> int:
        """Global stream offset of the in-memory delta's local index 0."""
        return self._origin

    def local_offset(self, global_offset: int) -> int:
        """Translate a global stream offset to this delta's local index."""
        return global_offset - self._origin

    def global_offset(self, local_index: int) -> int:
        """Translate a local pending index to its global stream offset."""
        return self._origin + local_index

    def append(self, delta: GraphDelta) -> "str | None":
        """Persist every not-yet-durable pending edge as one new segment.

        Crash-atomic (whole segment or nothing); returns the segment path,
        or ``None`` when the delta holds nothing new.
        """
        end = self._origin + delta.num_pending
        if end <= self._logged:
            return None
        lo = self._logged - self._origin
        edges = delta.pending_edges()[lo:]
        path = os.path.join(self.directory, _seg_name(self._generation, self._seg_index))
        write_store(
            path,
            {
                "u": np.ascontiguousarray(edges[:, 0]),
                "v": np.ascontiguousarray(edges[:, 1]),
            },
            kind=SEGMENT_KIND,
            meta={
                "generation": self._generation,
                "start": self._logged,
                "count": int(edges.shape[0]),
            },
        )
        self._seg_index += 1
        self._logged = end
        return path

    def compact(self, delta: GraphDelta, upto: int) -> "str | None":
        """Fold ``pending[:upto]`` (local index) into a new base generation.

        *upto* is a local pending index — in the streaming layer, the
        minimum re-summarization cursor over all machines, i.e. the prefix
        every machine's summary has already absorbed.  The new base is
        published atomically **before** any covered segment or older base
        is deleted, so a crash anywhere in between loses nothing.  The
        in-memory *delta* is not modified.  Returns the new base path, or
        ``None`` when there is nothing new to fold.
        """
        if not 0 <= upto <= delta.num_pending:
            raise GraphFormatError(
                f"compaction point {upto} outside the pending buffer "
                f"[0, {delta.num_pending}]"
            )
        self.append(delta)  # everything must be durable before it can be folded
        target = self._origin + upto
        if target <= self._folded:
            return None
        base_edges = delta.base.edge_array()
        prefix = delta.pending_edges()[:upto]
        u = np.concatenate([base_edges[:, 0], prefix[:, 0]])
        v = np.concatenate([base_edges[:, 1], prefix[:, 1]])
        merged = Graph._from_canonical_edges(delta.num_nodes, u, v)
        generation = self._generation + 1
        path = os.path.join(self.directory, _base_name(generation))
        write_store(
            path,
            {"indptr": merged.indptr, "indices": merged.indices},
            kind=BASE_KIND,
            meta={
                "num_nodes": merged.num_nodes,
                "generation": generation,
                "pending_offset": target,
            },
        )
        # The new base is durable; now drop what it covers.
        for entry in os.listdir(self.directory):
            match = _BASE_RE.match(entry)
            if match and int(match.group(1)) < generation:
                self._unlink(entry)
                continue
            match = _SEG_RE.match(entry)
            if match:
                seg_path = os.path.join(self.directory, entry)
                try:
                    container = open_store(seg_path, kind=SEGMENT_KIND, verify=False)
                    start = int(container.meta.get("start", 0))
                    count = int(container.meta.get("count", 0))
                    container.close()
                except GraphFormatError:
                    # Unreadable segment: kept for post-mortem.  Recovery
                    # (and so ``repro doctor``) refuses the log and names it.
                    continue
                if start + count <= target:
                    self._unlink(entry)
        self._generation = generation
        self._seg_index = 0
        self._folded = target
        return path

    def _unlink(self, entry: str) -> None:
        try:
            os.unlink(os.path.join(self.directory, entry))
        except OSError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeltaLog(directory={self.directory!r}, generation={self._generation}, "
            f"logged={self._logged})"
        )
