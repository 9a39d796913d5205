"""The metrics registry: lock-cheap counters, gauges, and histograms.

Serving a production workload needs numbers, not print statements: how
many requests per tenant, where the p99 sits, which lane is hot.  This
module is the storage layer for those numbers:

* :class:`Counter` — a monotone float/int accumulator.
* :class:`Gauge` — a last-write-wins instantaneous value.
* :class:`Histogram` — **fixed log-spaced buckets**, so two histograms
  with the same bounds merge by adding their bucket counts.  That is
  the property the serving tier leans on: lane workers record compute
  time in *their* process and the parent merges the harvested deltas
  into its registry — no locks, no shared memory, no drift.

All three are "lock-cheap": the hot path (``inc`` / ``set`` /
``observe``) is plain attribute arithmetic — atomic enough under the
GIL for monitoring counters, and never behind a mutex.  Only metric
*creation* takes the registry lock, and callers are expected to hold on
to the returned instrument instead of re-looking it up per event.

Exposition: :meth:`MetricsRegistry.render_prometheus` emits the
Prometheus text format (``name{label="v"} value`` plus
``_bucket``/``_sum``/``_count`` series for histograms) and
:meth:`MetricsRegistry.snapshot` a JSON-safe dict that
:meth:`MetricsRegistry.merge_snapshot` can fold into another registry —
the cross-process path used by both the per-batch worker harvest and
the ``metrics`` wire op.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Any, Dict, List, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BOUNDS",
    "DEFAULT_SIZE_BOUNDS",
    "get_registry",
    "log_spaced_bounds",
    "quantile_from_sample",
    "samples_for",
]

#: Canonical latency buckets: log-spaced (×2) from 100 µs to ~419 s.
#: Every latency histogram in the codebase shares these bounds so any
#: two of them (parent/worker, tenant A/tenant B) are mergeable.
DEFAULT_LATENCY_BOUNDS: Tuple[float, ...] = tuple(1e-4 * 2.0**i for i in range(23))

#: Buckets for small cardinalities (batch sizes, queue depths): powers of 2.
DEFAULT_SIZE_BOUNDS: Tuple[float, ...] = tuple(float(2**i) for i in range(13))

_LabelKey = Tuple[Tuple[str, str], ...]


def log_spaced_bounds(lo: float, hi: float, *, factor: float = 2.0) -> Tuple[float, ...]:
    """Bucket upper bounds from *lo* to at least *hi*, multiplied by *factor*.

    >>> log_spaced_bounds(1.0, 8.0)
    (1.0, 2.0, 4.0, 8.0)
    """
    if lo <= 0 or hi < lo or factor <= 1.0:
        raise ValueError(f"need 0 < lo <= hi and factor > 1, got {lo}, {hi}, {factor}")
    bounds = [lo]
    while bounds[-1] < hi:
        bounds.append(bounds[-1] * factor)
    return tuple(bounds)


def _label_key(labels: Dict[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotone accumulator.  ``inc`` is the only mutator."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


class Gauge:
    """An instantaneous value (queue depth, live connections, ...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram, mergeable across processes.

    ``bounds`` are the inclusive upper edges of each bucket (``le`` in
    Prometheus terms); one implicit overflow bucket catches everything
    above the last bound.  Two histograms with identical bounds merge by
    adding their ``counts`` — the whole point of *fixed* buckets.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: "Sequence[float] | None" = None) -> None:
        resolved = tuple(float(b) for b in (bounds or DEFAULT_LATENCY_BOUNDS))
        if not resolved or any(later <= earlier for later, earlier in zip(resolved[1:], resolved)):
            raise ValueError(f"histogram bounds must be strictly increasing, got {resolved}")
        self.bounds = resolved
        self.counts = [0] * (len(resolved) + 1)  # last slot = +Inf overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def merge_counts(self, counts: Sequence[int], total: float, n: int) -> None:
        """Fold another histogram's (counts, sum, count) into this one."""
        if len(counts) != len(self.counts):
            raise ValueError(
                f"cannot merge histograms with {len(counts)} vs {len(self.counts)} buckets"
            )
        for i, c in enumerate(counts):
            self.counts[i] += int(c)
        self.sum += total
        self.count += int(n)

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (``q`` in [0, 1]) by bucket interpolation.

        Linear interpolation inside the owning bucket; the overflow
        bucket reports its lower edge (the estimate cannot exceed what
        was measured about it).  Returns 0.0 for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            if cumulative + c >= rank:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                if i >= len(self.bounds):  # overflow bucket
                    return self.bounds[-1]
                hi = self.bounds[i]
                fraction = (rank - cumulative) / c
                return lo + (hi - lo) * min(1.0, max(0.0, fraction))
            cumulative += c
        return self.bounds[-1]


class _Family:
    """One metric family: a name, a kind, and per-label-set samples."""

    __slots__ = ("name", "kind", "help", "bounds", "samples")

    def __init__(self, name: str, kind: str, help_text: str, bounds: "Tuple[float, ...] | None"):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.bounds = bounds
        self.samples: "Dict[_LabelKey, Any]" = {}


class MetricsRegistry:
    """A named collection of metric families.

    One process-wide default registry exists (:func:`get_registry`);
    subsystems that want isolation (tests, benches) build their own.
    Instruments are created on first touch and cached by
    ``(name, labels)``; hold the returned object for hot paths.
    """

    def __init__(self) -> None:
        self._families: "Dict[str, _Family]" = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # instrument creation
    # ------------------------------------------------------------------
    def _instrument(
        self,
        name: str,
        kind: str,
        help_text: str,
        bounds: "Tuple[float, ...] | None",
        labels: Dict[str, str],
    ) -> Any:
        key = _label_key(labels)
        family = self._families.get(name)
        if family is not None:
            sample = family.samples.get(key)
            if sample is not None:
                if family.kind != kind:
                    raise ValueError(f"metric {name!r} is a {family.kind}, not a {kind}")
                return sample
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text, bounds)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(f"metric {name!r} is a {family.kind}, not a {kind}")
            sample = family.samples.get(key)
            if sample is None:
                if kind == "counter":
                    sample = Counter()
                elif kind == "gauge":
                    sample = Gauge()
                else:
                    sample = Histogram(family.bounds)
                family.samples[key] = sample
            return sample

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        """The counter named ``name{labels}`` (created on first touch)."""
        return self._instrument(name, "counter", help, None, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        """The gauge named ``name{labels}``."""
        return self._instrument(name, "gauge", help, None, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        bounds: "Sequence[float] | None" = None,
        **labels: str,
    ) -> Histogram:
        """The histogram named ``name{labels}``.

        ``bounds`` applies only when the family is first created; every
        later sample of the family shares the family's bounds (merge
        compatibility by construction).
        """
        resolved = tuple(float(b) for b in bounds) if bounds is not None else DEFAULT_LATENCY_BOUNDS
        return self._instrument(name, "histogram", help, resolved, labels)

    # ------------------------------------------------------------------
    # snapshots and merging
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A JSON-safe point-in-time copy of every family and sample."""
        families: List[Dict[str, Any]] = []
        for name in sorted(self._families):
            family = self._families[name]
            out: Dict[str, Any] = {"name": name, "kind": family.kind, "help": family.help}
            samples: List[Dict[str, Any]] = []
            for key in sorted(family.samples):
                sample = family.samples[key]
                entry: Dict[str, Any] = {"labels": dict(key)}
                if family.kind == "histogram":
                    entry["bounds"] = list(sample.bounds)
                    entry["counts"] = list(sample.counts)
                    entry["sum"] = sample.sum
                    entry["count"] = sample.count
                else:
                    entry["value"] = sample.value
                samples.append(entry)
            out["samples"] = samples
            families.append(out)
        return {"families": families}

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` (possibly from another process) in.

        Counters and histograms add; gauges take the snapshot's value
        (last write wins — the snapshot is the fresher observation).
        """
        for family in snapshot.get("families", []):
            name, kind = family["name"], family["kind"]
            for sample in family.get("samples", []):
                labels = {str(k): str(v) for k, v in sample.get("labels", {}).items()}
                if kind == "counter":
                    self.counter(name, family.get("help", ""), **labels).inc(sample["value"])
                elif kind == "gauge":
                    self.gauge(name, family.get("help", ""), **labels).set(sample["value"])
                else:
                    hist = self.histogram(
                        name, family.get("help", ""), bounds=sample["bounds"], **labels
                    )
                    hist.merge_counts(sample["counts"], sample["sum"], sample["count"])

    def harvest_delta(self, cursor: Dict[str, Any]) -> Dict[str, Any]:
        """Snapshot of everything recorded since the last harvest.

        *cursor* is caller-owned state (start with ``{}``); each call
        returns only the increments since the previous call with the
        same cursor and advances it.  This is the per-batch worker
        harvest: a lane worker ships the delta with each batch reply, so
        nothing is lost to a later SIGKILL beyond the killed batch
        itself (which is re-dispatched and re-measured).  Gauges are
        shipped whole (they are not additive).
        """
        current = self.snapshot()
        previous: Dict[Tuple[str, _LabelKey], Dict[str, Any]] = cursor.setdefault("seen", {})
        delta_families: List[Dict[str, Any]] = []
        for family in current["families"]:
            name, kind = family["name"], family["kind"]
            kept: List[Dict[str, Any]] = []
            for sample in family["samples"]:
                key = (name, _label_key(sample["labels"]))
                last = previous.get(key)
                if kind == "gauge":
                    kept.append(sample)
                elif kind == "counter":
                    delta = sample["value"] - (last["value"] if last else 0.0)
                    if delta:
                        kept.append({"labels": sample["labels"], "value": delta})
                else:
                    base_counts = last["counts"] if last else [0] * len(sample["counts"])
                    counts = [c - b for c, b in zip(sample["counts"], base_counts)]
                    if any(counts):
                        kept.append(
                            {
                                "labels": sample["labels"],
                                "bounds": sample["bounds"],
                                "counts": counts,
                                "sum": sample["sum"] - (last["sum"] if last else 0.0),
                                "count": sample["count"] - (last["count"] if last else 0),
                            }
                        )
                previous[key] = sample
            if kept:
                delta_families.append({**{k: family[k] for k in ("name", "kind", "help")}, "samples": kept})
        return {"families": delta_families}

    # ------------------------------------------------------------------
    # exposition
    # ------------------------------------------------------------------
    @staticmethod
    def _render_labels(labels: Dict[str, str], extra: "Tuple[str, str] | None" = None) -> str:
        pairs = [(k, v) for k, v in sorted(labels.items())]
        if extra is not None:
            pairs.append(extra)
        if not pairs:
            return ""

        def escape(value: str) -> str:
            return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")

        return "{" + ",".join(f'{k}="{escape(v)}"' for k, v in pairs) + "}"

    @staticmethod
    def _render_value(value: float) -> str:
        if value == math.inf:
            return "+Inf"
        if float(value).is_integer():
            return str(int(value))
        return repr(float(value))

    def render_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format."""
        lines: List[str] = []
        snap = self.snapshot()
        for family in snap["families"]:
            name = family["name"]
            if family["help"]:
                lines.append(f"# HELP {name} {family['help']}")
            lines.append(f"# TYPE {name} {family['kind']}")
            for sample in family["samples"]:
                labels = sample["labels"]
                if family["kind"] == "histogram":
                    cumulative = 0
                    for bound, count in zip(sample["bounds"], sample["counts"]):
                        cumulative += count
                        le = self._render_value(bound)
                        lines.append(
                            f"{name}_bucket{self._render_labels(labels, ('le', le))} {cumulative}"
                        )
                    cumulative += sample["counts"][-1]
                    lines.append(
                        f"{name}_bucket{self._render_labels(labels, ('le', '+Inf'))} {cumulative}"
                    )
                    lines.append(
                        f"{name}_sum{self._render_labels(labels)} {self._render_value(sample['sum'])}"
                    )
                    lines.append(f"{name}_count{self._render_labels(labels)} {sample['count']}")
                else:
                    lines.append(
                        f"{name}{self._render_labels(labels)} {self._render_value(sample['value'])}"
                    )
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Drop every family (test isolation for the default registry)."""
        with self._lock:
            self._families = {}


# ----------------------------------------------------------------------
# snapshot helpers (consumers: ``repro top``, benches, tests)
# ----------------------------------------------------------------------
def samples_for(snapshot: Dict[str, Any], name: str) -> List[Dict[str, Any]]:
    """The samples of family *name* inside a :meth:`~MetricsRegistry.snapshot`."""
    for family in snapshot.get("families", []):
        if family.get("name") == name:
            return list(family.get("samples", []))
    return []


def quantile_from_sample(sample: Dict[str, Any], q: float) -> float:
    """Approximate quantile of one snapshot histogram sample."""
    hist = Histogram(sample["bounds"])
    hist.merge_counts(sample["counts"], sample.get("sum", 0.0), sample.get("count", 0))
    return hist.quantile(q)


#: The process-wide default registry.
_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default :class:`MetricsRegistry`."""
    return _DEFAULT
