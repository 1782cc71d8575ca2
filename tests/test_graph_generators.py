"""Tests for the six dataset-analog generators and the registry."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import (
    DATASET_NAMES,
    DATASETS,
    clear_dataset_cache,
    graph_stats,
    load_dataset,
)
from repro.graph.generators import (
    generate_collaboration,
    generate_delaunay,
    generate_kron,
    generate_mesh3d,
    generate_regulatory,
    generate_road_network,
    rmat_edges,
)


class TestRoadNetwork:
    def test_low_degree(self):
        g = generate_road_network(side=40, seed=1)
        assert g.average_degree < 6

    def test_symmetric(self):
        g = generate_road_network(side=20, seed=1)
        rev = g.reversed()
        assert np.array_equal(np.sort(g.edges), np.sort(rev.edges))

    def test_size(self):
        g = generate_road_network(side=25, seed=1)
        assert g.num_nodes == 625

    def test_rejects_tiny_side(self):
        with pytest.raises(GraphError):
            generate_road_network(side=1)

    def test_deterministic(self):
        a = generate_road_network(side=15, seed=7)
        b = generate_road_network(side=15, seed=7)
        assert np.array_equal(a.edges, b.edges)


class TestKron:
    def test_heavy_tail(self):
        g = generate_kron(scale=11, edge_factor=8, seed=3)
        stats = graph_stats(g)
        # Kronecker graphs are hub-dominated: p99 degree far above mean.
        assert stats.degree_p99 > 3 * stats.average_degree

    def test_rmat_edges_shape(self):
        edges = rmat_edges(scale=8, edge_factor=4, seed=0)
        assert edges.shape == (4 * 256, 2)
        assert edges.max() < 256

    def test_rmat_rejects_bad_initiator(self):
        with pytest.raises(GraphError):
            rmat_edges(4, 2, initiator=(0.5, 0.5, 0.5, 0.5))

    def test_rmat_rejects_bad_scale(self):
        with pytest.raises(GraphError):
            rmat_edges(0, 2)


class TestDelaunay:
    def test_degree_concentrated_around_six(self):
        g = generate_delaunay(num_points=2000, seed=5)
        assert 5.0 < g.average_degree < 7.0

    def test_connected(self):
        g = generate_delaunay(num_points=500, seed=5)
        assert graph_stats(g).largest_component_fraction == 1.0

    def test_rejects_too_few_points(self):
        with pytest.raises(GraphError):
            generate_delaunay(num_points=2)


class TestCollaboration:
    def test_hubby(self):
        g = generate_collaboration(num_authors=2000, num_papers=4000, seed=2)
        assert graph_stats(g).gini_degree > 0.5

    def test_rejects_single_author_papers(self):
        with pytest.raises(GraphError):
            generate_collaboration(max_authors_per_paper=1)


class TestRegulatory:
    def test_dense(self):
        g = generate_regulatory(num_genes=500, seed=4)
        assert g.average_degree > 30

    def test_hub_degrees_dwarf_background(self):
        g = generate_regulatory(num_genes=500, seed=4)
        stats = graph_stats(g)
        assert stats.max_degree > 5 * stats.average_degree

    def test_rejects_bad_hub_fraction(self):
        with pytest.raises(GraphError):
            generate_regulatory(hub_fraction=1.5)


class TestMesh:
    def test_degree_near_paper_msdoor(self):
        g = generate_mesh3d(dims=(12, 12, 12), radius=2, seed=6)
        assert 70 < g.average_degree < 125

    def test_radius_one_is_26_connectivity(self):
        g = generate_mesh3d(dims=(8, 8, 8), radius=1, seed=6)
        interior = g.out_degrees.max()
        assert interior == 26

    def test_rejects_flat_dims(self):
        with pytest.raises(GraphError):
            generate_mesh3d(dims=(1, 5, 5))


class TestRegistry:
    def test_all_paper_datasets_present(self):
        assert set(DATASET_NAMES) == {"ca", "cond", "delaunay", "human", "kron", "msdoor"}

    def test_specs_carry_paper_numbers(self):
        assert DATASETS["human"].paper_avg_degree == 2214

    def test_unknown_dataset_raises(self):
        with pytest.raises(GraphError, match="unknown dataset"):
            load_dataset("does-not-exist")

    def test_cache_returns_same_object(self):
        clear_dataset_cache()
        a = load_dataset("delaunay", seed=9)
        b = load_dataset("delaunay", seed=9)
        assert a is b
        clear_dataset_cache()

    def test_cache_is_bounded_whatever_the_seeds(self):
        # The seed is a client's choice; cycling through seeds must not
        # grow the cache past one seed's whole registry.
        from repro.graph.datasets import _CACHE

        clear_dataset_cache()
        assert _CACHE.capacity == len(DATASET_NAMES)
        graphs = [load_dataset("delaunay", seed=seed) for seed in range(len(DATASET_NAMES) + 3)]
        assert len(_CACHE) == len(DATASET_NAMES)
        assert load_dataset("delaunay", seed=len(DATASET_NAMES) + 2) is graphs[-1]
        assert load_dataset("delaunay", seed=0) is not graphs[0]  # evicted, rebuilt
        clear_dataset_cache()

    def test_cache_bypass(self):
        a = load_dataset("delaunay", seed=9, cache=False)
        b = load_dataset("delaunay", seed=9, cache=False)
        assert a is not b
        assert np.array_equal(a.edges, b.edges)

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_every_dataset_builds_and_is_nonempty(self, name):
        g = load_dataset(name)
        assert g.num_nodes > 1000
        assert g.num_edges > 10_000
