"""Registry of the six benchmark datasets from Table 5 of the paper.

Each entry maps the paper's dataset name to a deterministic generator
producing a scaled-down structural analog (see DESIGN.md section 6 for
the substitution rationale).  Generated graphs are cached per process so
experiments that sweep primitives do not rebuild them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from ..errors import GraphError
from ..obs.lru import LruCache
from .csr import CsrGraph
from .generators import (
    generate_collaboration,
    generate_delaunay,
    generate_kron,
    generate_mesh3d,
    generate_regulatory,
    generate_road_network,
)


@dataclass(frozen=True)
class DatasetSpec:
    """A named dataset: its paper description and the generator that builds it."""

    name: str
    description: str
    paper_nodes_k: float
    paper_edges_m: float
    paper_avg_degree: float
    factory: Callable[[int], CsrGraph]


def _ca(seed: int) -> CsrGraph:
    return generate_road_network(side=190, seed=seed, name="ca")


def _cond(seed: int) -> CsrGraph:
    return generate_collaboration(num_authors=12000, num_papers=22000, seed=seed, name="cond")


def _delaunay(seed: int) -> CsrGraph:
    return generate_delaunay(num_points=16384, seed=seed, name="delaunay")


def _human(seed: int) -> CsrGraph:
    return generate_regulatory(num_genes=2200, seed=seed, name="human")


def _kron(seed: int) -> CsrGraph:
    return generate_kron(scale=14, edge_factor=16, seed=seed, name="kron")


def _msdoor(seed: int) -> CsrGraph:
    return generate_mesh3d(dims=(16, 16, 16), radius=2, seed=seed, name="msdoor")


DATASETS: Dict[str, DatasetSpec] = {
    "ca": DatasetSpec(
        "ca", "California road network", 710, 3.48, 9.8, _ca
    ),
    "cond": DatasetSpec(
        "cond", "Collaboration network, arxiv.org", 40, 0.35, 17.4, _cond
    ),
    "delaunay": DatasetSpec(
        "delaunay", "Delaunay triangulation", 524, 3.4, 12, _delaunay
    ),
    "human": DatasetSpec(
        "human", "Human gene regulatory network", 22, 24.6, 2214, _human
    ),
    "kron": DatasetSpec(
        "kron", "Graph500, Synthetic Graph", 262, 21, 156, _kron
    ),
    "msdoor": DatasetSpec(
        "msdoor", "Mesh of a 3D object", 415, 20.2, 97.3, _msdoor
    ),
}

#: Paper ordering of the datasets, used by every figure.
DATASET_NAMES = tuple(DATASETS)

#: Built datasets by ``(name, seed)``.  The seed is the client's choice,
#: so the cache is bounded: it holds one seed's whole registry, and a
#: client cycling through seeds evicts the least recently used graph.
_CACHE = LruCache(len(DATASET_NAMES))


def load_dataset(name: str, *, seed: int = 42, cache: bool = True) -> CsrGraph:
    """Build (or fetch from cache) the named dataset analog."""
    if name not in DATASETS:
        known = ", ".join(DATASETS)
        raise GraphError(f"unknown dataset {name!r}; known datasets: {known}")
    key = (name, seed)
    graph = _CACHE.get(key) if cache else None
    if graph is None:
        graph = DATASETS[name].factory(seed)
        if cache:
            _CACHE.put(key, graph)
    return graph


def clear_dataset_cache() -> None:
    """Drop all cached datasets (tests use this to bound memory)."""
    _CACHE.clear()
