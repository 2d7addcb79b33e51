"""Tests for edge-list I/O."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.io import read_edge_list, write_edge_list


class TestRoundTrip:
    def test_undirected(self, tmp_path, house):
        path = tmp_path / "house.txt"
        write_edge_list(house, path)
        loaded = read_edge_list(path, num_vertices=house.num_vertices)
        assert sorted(loaded.edges()) == sorted(house.edges())

    def test_directed(self, tmp_path, small_digraph):
        path = tmp_path / "digraph.txt"
        write_edge_list(small_digraph, path)
        loaded = read_edge_list(
            path, directed=True, num_vertices=small_digraph.num_vertices
        )
        assert sorted(loaded.edges()) == sorted(small_digraph.edges())

    def test_header_written(self, tmp_path, triangle):
        path = tmp_path / "g.txt"
        write_edge_list(triangle, path, header="hello\nworld")
        text = path.read_text()
        assert text.startswith("# hello\n# world\n")
        assert "# vertices=3 edges=3" in text


class TestParsing:
    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n\n0 1\n   \n1 2\n")
        graph = read_edge_list(path)
        assert graph.num_edges == 2

    def test_extra_columns_tolerated(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 weight=3\n")
        graph = read_edge_list(path)
        assert graph.has_edge(0, 1)

    def test_self_loops_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 0\n0 1\n")
        graph = read_edge_list(path)
        assert graph.num_edges == 1

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0\n")
        with pytest.raises(ValueError, match="expected"):
            read_edge_list(path)

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("a b\n")
        with pytest.raises(ValueError, match="non-integer"):
            read_edge_list(path)

    def test_size_inferred(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 9\n")
        graph = read_edge_list(path)
        assert graph.num_vertices == 10


class TestCsrNpyPersistence:
    """mmap-able binary CSR files: <stem>.indptr.npy + <stem>.indices.npy."""

    def test_round_trip_from_graph(self, tmp_path, house):
        from repro.graph.io import load_csr_npy, save_csr_npy

        indptr_path, indices_path = save_csr_npy(house, tmp_path / "house")
        assert indptr_path.name == "house.indptr.npy"
        assert indices_path.name == "house.indices.npy"
        loaded = load_csr_npy(tmp_path / "house")
        assert loaded.num_vertices == house.num_vertices
        assert loaded.num_edges == house.num_edges
        assert sorted(loaded.edges()) == sorted(house.edges())
        # neighbor order preserved, so walks are reproducible
        for v in house.vertices():
            assert loaded.neighbors(v).tolist() == house.neighbors(v)

    def test_round_trip_from_csr(self, tmp_path, house):
        from repro.graph.csr import get_csr
        from repro.graph.io import load_csr_npy, save_csr_npy

        csr = get_csr(house)
        save_csr_npy(csr, tmp_path / "g")
        loaded = load_csr_npy(tmp_path / "g", mmap=False)
        assert (loaded.indptr == csr.indptr).all()
        assert (loaded.indices == csr.indices).all()

    def test_mmap_stem_recorded_only_for_mmap_loads(self, tmp_path, house):
        """An mmap=False load is an independent in-memory copy; it must
        not claim to be backed by the files (the multi-process sharing
        layer would otherwise hand workers a stem that can diverge
        from the arrays in hand)."""
        from repro.graph.csr import get_csr
        from repro.graph.io import load_csr_npy, save_csr_npy

        save_csr_npy(get_csr(house), tmp_path / "g")
        assert load_csr_npy(tmp_path / "g", mmap=False).mmap_stem is None
        mapped = load_csr_npy(tmp_path / "g", mmap=True)
        assert mapped.mmap_stem == str((tmp_path / "g").resolve())

    def test_shared_csr_stem_spills_and_reuses(self, tmp_path, house):
        import shutil

        from repro.graph.csr import get_csr
        from repro.graph.io import (
            load_csr_npy,
            save_csr_npy,
            shared_csr_stem,
        )

        csr = get_csr(house)
        stem, owned = shared_csr_stem(csr)  # in-memory graph: spilled
        assert owned is not None and owned.exists()
        respilled = load_csr_npy(stem, mmap=False)
        assert (respilled.indptr == csr.indptr).all()
        shutil.rmtree(owned)

        save_csr_npy(csr, tmp_path / "g")
        mapped = load_csr_npy(tmp_path / "g", mmap=True)
        stem, owned = shared_csr_stem(mapped)  # file-backed: in place
        assert owned is None
        assert stem == tmp_path / "g"

    def test_mmap_arrays_are_read_only_file_views(self, tmp_path, house):
        import mmap as mmap_module

        import numpy as np

        from repro.graph.io import load_csr_npy, save_csr_npy

        save_csr_npy(house, tmp_path / "g")
        loaded = load_csr_npy(tmp_path / "g", mmap=True)
        for array in (loaded.indptr, loaded.indices):
            assert array.dtype == np.int64
            # backed by the file, not a heap copy
            assert not array.flags.owndata
            base = array
            while isinstance(base, np.ndarray) and base.base is not None:
                base = base.base
            assert isinstance(base, (np.memmap, mmap_module.mmap))
            assert not array.flags.writeable
            with pytest.raises((ValueError, OSError)):
                array[0] = 99

    def test_mmap_graph_is_walkable(self, tmp_path):
        from repro.generators.ba import barabasi_albert
        from repro.graph.io import load_csr_npy, save_csr_npy
        from repro.sampling import FrontierSampler

        graph = barabasi_albert(500, 3, rng=1)
        save_csr_npy(graph, tmp_path / "ba")
        mmapped = load_csr_npy(tmp_path / "ba")
        trace = FrontierSampler(8).sample(mmapped, 300, rng=7)
        reference = FrontierSampler(8, backend="csr").sample(
            graph, 300, rng=7
        )
        assert trace.edges == reference.edges

    def test_missing_files_raise(self, tmp_path):
        from repro.graph.io import load_csr_npy

        with pytest.raises(FileNotFoundError):
            load_csr_npy(tmp_path / "nope")

    def test_validate_flag_catches_corrupt_indices(self, tmp_path, house):
        import numpy as np

        from repro.graph.io import load_csr_npy, save_csr_npy

        indptr_path, indices_path = save_csr_npy(house, tmp_path / "g")
        corrupt = np.load(indices_path)
        corrupt[0] = 10_000  # out-of-range vertex id
        np.save(indices_path, corrupt)
        # in-memory and mmap'd loads both validate by default
        with pytest.raises(ValueError, match="out-of-range"):
            load_csr_npy(tmp_path / "g", mmap=False)
        with pytest.raises(ValueError, match="out-of-range"):
            load_csr_npy(tmp_path / "g", mmap=True)
        # the scan is skippable only on explicit request
        load_csr_npy(tmp_path / "g", mmap=True, validate=False)


def _corrupt(indptr, indices, case, draw):
    """Apply one malformation ``case`` to a valid CSR pair."""
    n = indptr.size - 1
    indptr, indices = indptr.copy(), indices.copy()
    if case == "out_of_range":
        at = draw(st.integers(0, indices.size - 1))
        indices[at] = draw(st.integers(n, 10**12))
    elif case == "negative":
        at = draw(st.integers(0, indices.size - 1))
        indices[at] = draw(st.integers(-(10**12), -1))
    elif case == "decreasing_indptr":
        # Swap two interior offsets that differ: the sum is kept, the
        # order breaks, and the ends stay valid.
        rows = [i for i in range(1, n - 1) if indptr[i] != indptr[i + 1]]
        at = draw(st.sampled_from(rows))
        indptr[at], indptr[at + 1] = indptr[at + 1], indptr[at]
    elif case == "indptr_end_mismatch":
        indptr[-1] += draw(st.sampled_from([-2, 2, 4]))
    elif case == "odd_length":
        indices = np.append(indices, 0)
        indptr[-1] += 1
    return indptr, indices


class TestCorruptCsrFilesRaise:
    """A malformed ``.npy`` pair raises ``ValueError`` at load time —
    mmap'd or not — so it can never reach the native kernels."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        data=st.data(),
        case=st.sampled_from(
            [
                "out_of_range",
                "negative",
                "decreasing_indptr",
                "indptr_end_mismatch",
                "odd_length",
            ]
        ),
        mmap=st.booleans(),
        n=st.integers(4, 40),
    )
    def test_load_rejects_malformed_files(self, tmp_path, data, case, mmap, n):
        from repro.generators.ba import barabasi_albert
        from repro.graph.csr import get_csr
        from repro.graph.io import load_csr_npy, save_csr_npy

        csr = get_csr(barabasi_albert(n, 2, rng=n))
        indptr, indices = _corrupt(csr.indptr, csr.indices, case, data.draw)
        # A fresh directory per example: rewriting a file that an
        # earlier example still has mmap'd is undefined behavior.
        stem = Path(tempfile.mkdtemp(dir=tmp_path)) / "g"
        indptr_path, indices_path = save_csr_npy(csr, stem)
        np.save(indptr_path, indptr)
        np.save(indices_path, indices)
        with pytest.raises(ValueError):
            load_csr_npy(stem, mmap=mmap)
