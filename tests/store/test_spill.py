"""Out-of-core cluster builds (``spill_dir=``) and store-path shipping.

The spill mode must be a pure representation change: saved files
byte-identical to what an in-RAM build would serialize, and every query
answer byte-identical to the in-RAM cluster's — including when the
spilled cluster is shipped to serving workers by store *path* instead of
as arrays.
"""

from __future__ import annotations

import filecmp

import numpy as np
import pytest

from repro.core import PegasusConfig
from repro.distributed import build_subgraph_cluster, build_summary_cluster
from repro.graph import barabasi_albert
from repro.store import MappedGraph, MappedSummary, save_graph, save_summary_binary

QUERY_TYPES = ("rwr", "hop", "php")


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert(220, 3, seed=11)


@pytest.fixture(scope="module")
def build_kwargs(graph):
    return dict(
        num_machines=2,
        budget_bits=0.45 * graph.size_in_bits(),
        config=PegasusConfig(seed=6, t_max=4),
        seed=6,
    )


def _assert_answers_match(ram, spilled, graph):
    rng = np.random.default_rng(0)
    for node in rng.choice(graph.num_nodes, size=6, replace=False):
        for qt in QUERY_TYPES:
            left = ram.answer(int(node), qt)
            right = spilled.answer(int(node), qt)
            assert left.tobytes() == right.tobytes()


class TestSummarySpill:
    def test_files_match_in_ram_serialization(self, graph, build_kwargs, tmp_path):
        ram = build_summary_cluster(graph, **build_kwargs)
        spilled = build_summary_cluster(graph, spill_dir=tmp_path / "spill", **build_kwargs)
        for machine, mapped in zip(ram.machines, spilled.machines):
            assert isinstance(mapped.source, MappedSummary)
            reference = tmp_path / f"ref-{machine.machine_id}.store"
            save_summary_binary(machine.source, reference, include_graph=False)
            assert filecmp.cmp(reference, mapped.source.store_path, shallow=False)
            assert machine.memory_bits == mapped.memory_bits

    def test_answers_byte_identical(self, graph, build_kwargs, tmp_path):
        ram = build_summary_cluster(graph, **build_kwargs)
        spilled = build_summary_cluster(graph, spill_dir=tmp_path / "spill", **build_kwargs)
        _assert_answers_match(ram, spilled, graph)

    def test_worker_count_invariant(self, graph, build_kwargs, tmp_path):
        sequential = build_summary_cluster(
            graph, spill_dir=tmp_path / "s1", workers=1, **build_kwargs
        )
        parallel = build_summary_cluster(
            graph, spill_dir=tmp_path / "s2", workers=2, **build_kwargs
        )
        for left, right in zip(sequential.machines, parallel.machines):
            assert filecmp.cmp(
                left.source.store_path, right.source.store_path, shallow=False
            )

    def test_spill_dir_created(self, graph, build_kwargs, tmp_path):
        target = tmp_path / "deep" / "spill"
        cluster = build_summary_cluster(graph, spill_dir=target, **build_kwargs)
        names = sorted(p.name for p in target.iterdir())
        assert names == ["machine-0000.store", "machine-0001.store"]
        assert len(cluster.machines) == 2


class TestSubgraphSpill:
    def test_sources_and_answers(self, graph, tmp_path):
        kwargs = dict(num_machines=2, budget_bits=0.45 * graph.size_in_bits(), seed=6)
        ram = build_subgraph_cluster(graph, **kwargs)
        spilled = build_subgraph_cluster(graph, spill_dir=tmp_path / "spill", **kwargs)
        for machine, mapped in zip(ram.machines, spilled.machines):
            assert isinstance(mapped.source, MappedGraph)
            assert mapped.source == machine.source
            reference = tmp_path / f"ref-{machine.machine_id}.store"
            save_graph(machine.source, reference)
            assert filecmp.cmp(reference, mapped.source.store_path, shallow=False)
        _assert_answers_match(ram, spilled, graph)


class TestStorePathShipping:
    """Spilled clusters ship store *paths* through the serving blueprint —
    no arrays."""

    def test_blueprint_specs_and_answers(self, graph, build_kwargs, tmp_path):
        from repro.serving.blueprint import (
            BatchTask,
            ClusterBlueprint,
            release_session,
            serve_batch_task,
        )

        ram = build_summary_cluster(graph, **build_kwargs)
        spilled = build_summary_cluster(graph, spill_dir=tmp_path / "spill", **build_kwargs)
        blueprint = ClusterBlueprint(spilled)
        try:
            payload = blueprint.payload
            kinds = {spec["kind"] for spec in payload["specs"]}
            assert kinds == {"summary_store"}
            assert payload["arrays"] == {}  # paths only, nothing inlined
            for spec in payload["specs"]:
                assert "path" in spec
            for machine in spilled.machines:
                nodes = machine.part_nodes[:3]
                batch = [(int(n), "rwr", None) for n in nodes]
                task = BatchTask(machine.machine_id, batch, blueprint.source(machine.machine_id))
                reply = serve_batch_task(blueprint.session(), task)
                for (node, _qt, _expires), answer in zip(batch, reply.answers):
                    assert answer.tobytes() == ram.answer(node, "rwr").tobytes()
        finally:
            release_session(blueprint.token)

    def test_subgraph_store_shipping(self, graph, tmp_path):
        from repro.serving.blueprint import (
            BatchTask,
            ClusterBlueprint,
            release_session,
            serve_batch_task,
        )

        kwargs = dict(num_machines=2, budget_bits=0.45 * graph.size_in_bits(), seed=6)
        ram = build_subgraph_cluster(graph, **kwargs)
        spilled = build_subgraph_cluster(graph, spill_dir=tmp_path / "spill", **kwargs)
        blueprint = ClusterBlueprint(spilled)
        try:
            kinds = {spec["kind"] for spec in blueprint.payload["specs"]}
            assert kinds == {"graph_store"}
            machine = spilled.machine_for(3)
            task = BatchTask(
                machine.machine_id, [(3, "hop", None)], blueprint.source(machine.machine_id)
            )
            reply = serve_batch_task(blueprint.session(), task)
            assert reply.answers[0].tobytes() == ram.answer(3, "hop").tobytes()
        finally:
            release_session(blueprint.token)
