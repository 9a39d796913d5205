"""Save and load summary graphs.

A summary graph is what actually gets shipped to a machine's memory in the
distributed application, so it needs a serialization format.  Two formats
live side by side:

* the **v1 text format** (this module) — human-readable, line-oriented:

  .. code-block:: text

      # repro summary graph v1
      G <num_nodes> <weighted:0|1>
      S <supernode_id> <member> <member> ...
      P <a> <b> [weight]

  One ``S`` line per supernode, one ``P`` line per superedge (self-loops
  as ``a == b``).  Node order inside an ``S`` line is irrelevant.

* the **binary store format** — checksummed, memory-mappable columnar
  sections, written and read by :func:`repro.store.save_summary_binary`
  and :func:`repro.store.load_summary_binary`.  The two are round-trip
  equivalent (pinned by ``tests/store/test_roundtrip.py``);
  ``repro convert`` translates between them.

Both writers are **crash-atomic**: they write to a temporary file in the
destination directory and publish with :func:`os.replace`, so an
exception or kill mid-write leaves any previous file at the destination
untouched.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from repro.core.summary import SummaryGraph
from repro.errors import GraphFormatError
from repro.graph.graph import Graph

_HEADER = "# repro summary graph v1"


def save_summary(summary: SummaryGraph, path: "str | os.PathLike[str]") -> None:
    """Write *summary* to *path* in the v1 text format, crash-atomically.

    The file appears at *path* only once fully written and flushed; a
    failure at any point leaves a previous file at *path* intact.
    """
    directory = os.path.dirname(os.path.abspath(os.fspath(path))) or "."
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix="." + os.path.basename(os.fspath(path)) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(_HEADER + "\n")
            handle.write(f"G {summary.num_nodes} {1 if summary.is_weighted else 0}\n")
            for supernode in sorted(summary.supernodes()):
                members = " ".join(str(u) for u in sorted(summary.member_list(supernode)))
                handle.write(f"S {supernode} {members}\n")
            for a, b in sorted(summary.superedges()):
                if summary.is_weighted:
                    handle.write(f"P {a} {b} {summary.superedge_weight(a, b)!r}\n")
                else:
                    handle.write(f"P {a} {b}\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _parse_id(token: str, num_nodes: int, path: str, lineno: int, what: str) -> int:
    """Parse a node/supernode id and range-check it against ``num_nodes``.

    Ids outside ``[0, num_nodes)`` must be rejected here: a *negative*
    member id fed straight into ``assignment[int(member)]`` would wrap
    around via numpy's negative indexing and silently corrupt the
    partition instead of failing.
    """
    try:
        value = int(token)
    except ValueError:
        raise GraphFormatError(f"{path}:{lineno}: {what} {token!r} is not an integer") from None
    if not 0 <= value < num_nodes:
        raise GraphFormatError(
            f"{path}:{lineno}: {what} {value} out of range [0, {num_nodes})"
        )
    return value


def load_summary(path: "str | os.PathLike[str]", graph: Graph) -> SummaryGraph:
    """Read a summary of *graph* from *path*.

    The input graph must be supplied separately (the summary stores only
    the partition and superedges, as in Eq. 3's size accounting).

    The file is untrusted input: malformed headers, non-numeric tokens,
    out-of-range or negative ids, and doubly-assigned nodes all raise
    :class:`~repro.errors.GraphFormatError` with the offending line
    number — never a raw ``ValueError``/``IndexError``, and never a
    silently wrong partition.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle]
    if not lines or lines[0] != _HEADER:
        raise GraphFormatError(f"{path}: not a repro summary file")
    if len(lines) < 2 or not lines[1].startswith("G "):
        raise GraphFormatError(f"{path}: missing G header line")
    header_parts = lines[1].split()
    if len(header_parts) != 3:
        raise GraphFormatError(
            f"{path}:2: G header must be 'G <num_nodes> <weighted:0|1>', got {lines[1]!r}"
        )
    try:
        num_nodes = int(header_parts[1])
    except ValueError:
        raise GraphFormatError(
            f"{path}:2: node count {header_parts[1]!r} is not an integer"
        ) from None
    if num_nodes < 0:
        raise GraphFormatError(f"{path}:2: node count must be >= 0, got {num_nodes}")
    if header_parts[2] not in ("0", "1"):
        raise GraphFormatError(
            f"{path}:2: weighted flag must be 0 or 1, got {header_parts[2]!r}"
        )
    weighted = header_parts[2] == "1"
    if num_nodes != graph.num_nodes:
        raise GraphFormatError(
            f"{path}: summary is for {num_nodes} nodes, graph has {graph.num_nodes}"
        )

    assignment = np.full(num_nodes, -1, dtype=np.int64)
    superedges = []
    for lineno, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        parts = line.split()
        if parts[0] == "S":
            if len(parts) < 2:
                raise GraphFormatError(f"{path}:{lineno}: S record without a supernode id")
            supernode = _parse_id(parts[1], num_nodes, path, lineno, "supernode id")
            for token in parts[2:]:
                member = _parse_id(token, num_nodes, path, lineno, "member id")
                if assignment[member] >= 0:
                    raise GraphFormatError(
                        f"{path}:{lineno}: node {member} assigned to more than one supernode"
                    )
                assignment[member] = supernode
        elif parts[0] == "P":
            if len(parts) not in (3, 4):
                raise GraphFormatError(
                    f"{path}:{lineno}: P record must be 'P <a> <b> [weight]', got {line!r}"
                )
            a = _parse_id(parts[1], num_nodes, path, lineno, "superedge endpoint")
            b = _parse_id(parts[2], num_nodes, path, lineno, "superedge endpoint")
            weight = None
            if len(parts) > 3:
                try:
                    weight = float(parts[3])
                except ValueError:
                    raise GraphFormatError(
                        f"{path}:{lineno}: superedge weight {parts[3]!r} is not a number"
                    ) from None
            superedges.append((a, b, weight))
        else:
            raise GraphFormatError(f"{path}:{lineno}: unknown record {parts[0]!r}")
    if np.any(assignment < 0):
        raise GraphFormatError(f"{path}: partition does not cover all nodes")

    try:
        return SummaryGraph.from_parts(
            graph,
            assignment,
            superedges,
            weighted=weighted,
            validate=True,
        )
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None

