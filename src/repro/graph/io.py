"""Graph I/O: SNAP-style edge lists and mmap-able binary CSR files.

Edge-list lines are ``u<whitespace>v``; ``#`` starts a comment.  Both
directed and undirected graphs round-trip through the same text format.

``backend="csr"`` loads an undirected edge list straight into a
:class:`~repro.graph.csr.CSRGraph`: one pass over the file into flat
numpy arrays, then a vectorized counting-sort build — no intermediate
per-vertex adjacency lists or sets, which is what makes loading graphs
with 10^7+ edges feasible.

For graphs bigger than RAM, :func:`save_csr_npy` persists a CSR graph
as two sibling binary files — ``<stem>.indptr.npy`` and
``<stem>.indices.npy``, plain ``np.save`` format, int64, C-order (the
layout documented in ``docs/architecture.md``) — and
:func:`load_csr_npy` reopens them with ``np.load(..., mmap_mode="r")``
so the kernel pages neighbor rows in on demand.  ``.npy`` rather than
``.npz`` because zip members cannot be mmap'd.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from repro.graph.csr import CSRGraph, get_csr
from repro.graph.digraph import DiGraph
from repro.graph.graph import Graph
from repro.util.backends import check_backend_name

PathLike = Union[str, Path]


def _parse_lines(path: PathLike) -> Iterator[Tuple[int, int]]:
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) < 2:
                raise ValueError(
                    f"{path}:{line_no}: expected 'u v', got {stripped!r}"
                )
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{line_no}: non-integer vertex id in {stripped!r}"
                ) from exc
            yield u, v


def read_edge_list(
    path: PathLike,
    directed: bool = False,
    num_vertices: Optional[int] = None,
    backend: str = "list",
) -> Union[Graph, DiGraph, CSRGraph]:
    """Read an edge list file into a graph.

    Self-loops in the file are skipped (the library's graphs are
    simple); duplicate edges collapse.  ``backend="list"`` returns the
    adjacency-list :class:`Graph` / :class:`DiGraph`;
    ``backend="csr"`` (undirected only) builds a :class:`CSRGraph`
    directly — single pass, no intermediate adjacency sets.
    """
    check_backend_name(backend)
    if backend == "csr":
        if directed:
            raise ValueError(
                "backend='csr' supports undirected graphs only"
            )
        flat = np.fromiter(
            (endpoint for pair in _parse_lines(path) for endpoint in pair),
            dtype=np.int64,
        )
        return CSRGraph.from_edges(
            flat.reshape(-1, 2), num_vertices=num_vertices
        )
    edges = [(u, v) for u, v in _parse_lines(path) if u != v]
    if directed:
        return DiGraph.from_edges(edges, num_vertices=num_vertices)
    return Graph.from_edges(edges, num_vertices=num_vertices)


def _csr_paths(stem: PathLike) -> Tuple[Path, Path]:
    stem = Path(stem)
    return (
        stem.with_name(stem.name + ".indptr.npy"),
        stem.with_name(stem.name + ".indices.npy"),
    )


def save_csr_npy(
    graph: Union[Graph, CSRGraph], stem: PathLike
) -> Tuple[Path, Path]:
    """Persist ``graph`` as ``<stem>.indptr.npy`` + ``<stem>.indices.npy``.

    Plain ``np.save`` format, int64, C-order — the mmap-able CSR layout.
    An adjacency-list :class:`Graph` is converted first (neighbor order
    preserved, so walks over the reloaded graph match walks over the
    original).  Returns the two paths written.
    """
    csr = get_csr(graph)
    indptr_path, indices_path = _csr_paths(stem)
    np.save(indptr_path, np.ascontiguousarray(csr.indptr, dtype=np.int64))
    np.save(indices_path, np.ascontiguousarray(csr.indices, dtype=np.int64))
    return indptr_path, indices_path


def load_csr_npy(
    stem: PathLike, mmap: bool = True, validate: bool = True
) -> CSRGraph:
    """Reopen a graph written by :func:`save_csr_npy`.

    With ``mmap=True`` (default) the arrays are memory-mapped read-only
    (``np.load(..., mmap_mode="r")``): the file is paged in lazily by
    the OS, so graphs larger than RAM can be walked — the batch kernels
    only ever touch the rows the walkers visit.  ``mmap=False`` reads
    both arrays into memory.

    ``validate`` (default on, mmap'd or not) runs the O(|E|) content
    scan of :class:`CSRGraph.__init__`, so a corrupt file — an
    out-of-range or negative vertex id, a decreasing ``indptr`` —
    raises ``ValueError`` here instead of reaching the native kernels,
    which trust their indices.  For an mmap'd load the scan pages the
    indices file in once.  Pass ``validate=False`` only to reopen
    files already validated in this run (the spawn workers reopening
    their coordinator's graph do).  The O(1) shape checks — ``indptr``
    starting at 0 and ending at ``len(indices)``, an even ``indices``
    length — always run.
    """
    indptr_path, indices_path = _csr_paths(stem)
    mode = "r" if mmap else None
    indptr = np.load(indptr_path, mmap_mode=mode)
    indices = np.load(indices_path, mmap_mode=mode)
    graph = CSRGraph(indptr, indices, validate=validate)
    if mmap:
        # Only an mmap'd graph is actually backed by these files; an
        # in-memory (mmap=False) load is an independent copy, and
        # recording the stem would let the sharing layer hand workers
        # files that may since have diverged from the arrays in hand.
        graph.mmap_stem = str(Path(stem).resolve())
    return graph


def spill_csr_npy(
    graph: Union[Graph, CSRGraph], directory: Optional[PathLike] = None
) -> Path:
    """Spill ``graph`` to disk as an mmap-able CSR pair; return the stem.

    Writes ``graph/graph.indptr.npy`` + ``graph/graph.indices.npy``
    under ``directory`` (a fresh private temp directory when ``None``)
    so worker processes can reopen the graph read-only via
    :func:`load_csr_npy` instead of pickling the arrays across the
    process boundary.  The caller owns cleanup of the returned stem's
    parent directory.
    """
    base = (
        Path(tempfile.mkdtemp(prefix="repro-csr-"))
        if directory is None
        else Path(directory)
    )
    stem = base / "graph"
    save_csr_npy(graph, stem)
    return stem


def shared_csr_stem(
    graph: Union[Graph, CSRGraph],
) -> Tuple[Path, Optional[Path]]:
    """``(stem, owned_tempdir)`` locating shareable CSR buffers for ``graph``.

    A graph already backed by mmap'd ``.npy`` files (its
    :attr:`~repro.graph.csr.CSRGraph.mmap_stem` is set) is shared in
    place — ``owned_tempdir`` is ``None`` and nothing is written.  Any
    other graph is spilled to a fresh temp directory, returned as
    ``owned_tempdir`` so the caller can remove it when the sharing
    session ends.
    """
    csr = get_csr(graph)
    if csr.mmap_stem is not None:
        return Path(csr.mmap_stem), None
    stem = spill_csr_npy(csr)
    return stem, stem.parent


def write_edge_list(
    graph: Union[Graph, DiGraph, CSRGraph], path: PathLike, header: str = ""
) -> None:
    """Write the graph's edges to ``path``, one per line.

    Undirected graphs are written with each edge once (``u < v``);
    directed graphs with every arc.
    """
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        handle.write(
            f"# vertices={graph.num_vertices} edges={graph.num_edges}\n"
        )
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")
