"""Shared fixtures: small graphs with known structure."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core import SummaryGraph
from repro.graph import Graph, barabasi_albert, connected_caveman, planted_partition
from repro.store import load_graph, load_summary_binary, save_graph, save_summary_binary


@pytest.fixture
def triangle() -> Graph:
    """K3: the smallest graph with a clique."""
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path4() -> Graph:
    """A path 0-1-2-3."""
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def two_cliques() -> Graph:
    """Two K4s joined by a single bridge edge (3-4).

    The canonical summarization example: each clique compresses to one
    supernode with a self-loop at almost no error.
    """
    edges = []
    for base in (0, 4):
        for i in range(4):
            for j in range(i + 1, 4):
                edges.append((base + i, base + j))
    edges.append((3, 4))
    return Graph.from_edges(8, edges)


@pytest.fixture
def twins_graph() -> Graph:
    """Nodes 0 and 1 are twins (same neighbors 2, 3); merging them is lossless."""
    return Graph.from_edges(5, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)])


@pytest.fixture
def star6() -> Graph:
    """A star: hub 0 with five leaves."""
    return Graph.from_edges(6, [(0, i) for i in range(1, 6)])


@pytest.fixture
def ba_small() -> Graph:
    """A 120-node Barabási–Albert graph (connected, skewed degrees)."""
    return barabasi_albert(120, 3, seed=42)


@pytest.fixture
def sbm_medium() -> Graph:
    """A 200-node planted-partition graph with 5 communities."""
    return planted_partition(200, 5, avg_degree_in=8.0, avg_degree_out=1.0, seed=7)


@pytest.fixture
def caveman() -> Graph:
    """Connected caveman: 6 cliques of 5."""
    return connected_caveman(6, 5)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(params=["ram", "mapped"])
def stored(request, tmp_path):
    """A callable handing a summary or graph back in one of its two storages.

    ``"ram"`` returns the source itself; ``"mapped"`` saves it to the
    binary store and reopens it zero-copy, the read-only form that spilled
    clusters and recovered checkpoints answer queries from.  Query
    contracts must hold on both.
    """
    if request.param == "ram":
        return lambda source: source
    paths = (tmp_path / f"source-{index}.store" for index in itertools.count())

    def reopen(source):
        path = next(paths)
        if isinstance(source, SummaryGraph):
            save_summary_binary(source, path)
            return load_summary_binary(path)
        save_graph(source, path)
        return load_graph(path)

    return reopen
