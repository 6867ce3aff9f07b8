"""Scenario-chunk planner: coverage, balance, memory budget, edge cases."""

import pytest

from repro.core.exceptions import AnalysisError
from repro.parallel import DEFAULT_CHUNK_CELLS, scenario_chunks
from repro.parallel import sharding
from repro.parallel.sharding import (
    CHUNK_BYTES_ENV,
    MAX_CHUNK_CELLS,
    default_chunk_cells,
)


class TestScenarioChunks:
    def test_single_chunk_when_small(self):
        assert scenario_chunks(16, 100) == [(0, 16)]

    def test_explicit_chunk_width_is_balanced(self, monkeypatch):
        monkeypatch.setenv(CHUNK_BYTES_ENV, str(8 * 4 * 5))  # width 4
        chunks = scenario_chunks(10, 5)
        assert chunks == [(0, 4), (4, 8), (8, 10)]
        assert chunks[-1][1] == 10

    def test_default_width_bounds_cells(self):
        budget = default_chunk_cells()
        node_count = budget // 4
        chunks = scenario_chunks(64, node_count)
        for lo, hi in chunks:
            assert (hi - lo) * node_count <= budget
        assert chunks[0][0] == 0 and chunks[-1][1] == 64

    def test_chunks_partition_the_axis(self, monkeypatch):
        monkeypatch.setenv(CHUNK_BYTES_ENV, str(8 * 5 * 7))  # width 5
        chunks = scenario_chunks(23, 7)
        flat = [s for lo, hi in chunks for s in range(lo, hi)]
        assert flat == list(range(23))

    def test_rejects_bad_inputs(self, monkeypatch):
        with pytest.raises(AnalysisError):
            scenario_chunks(0, 5)
        monkeypatch.setenv(CHUNK_BYTES_ENV, "0")
        with pytest.raises(AnalysisError):
            scenario_chunks(4, 5)


class TestMemoryProbe:
    """Sweeps under the budget floor are one chunk without a memory probe."""

    def test_small_sweep_skips_the_probe(self, monkeypatch):
        monkeypatch.delenv(CHUNK_BYTES_ENV, raising=False)

        def probe():
            raise AssertionError("memory probed for a sweep under the floor")

        monkeypatch.setattr(sharding, "_available_memory_bytes", probe)
        assert scenario_chunks(1, 20_000) == [(0, 1)]
        assert scenario_chunks(4, DEFAULT_CHUNK_CELLS // 4) == [(0, 4)]

    def test_probe_still_sizes_sweeps_above_the_floor(self, monkeypatch):
        monkeypatch.delenv(CHUNK_BYTES_ENV, raising=False)
        calls = []
        node_count = DEFAULT_CHUNK_CELLS // 4

        def probe():
            calls.append(1)
            # Room for a budget of 8 scenarios of this forest per plane.
            return 8 * node_count * 8 * sharding._MEM_FRACTION

        monkeypatch.setattr(sharding, "_available_memory_bytes", probe)
        assert scenario_chunks(16, node_count) == [(0, 8), (8, 16)]
        assert calls


class TestDefaultChunkCells:
    def test_env_override_is_exact_bytes(self, monkeypatch):
        monkeypatch.setenv(CHUNK_BYTES_ENV, str(256 * 1024))
        assert default_chunk_cells() == 256 * 1024 // 8
        monkeypatch.setenv(CHUNK_BYTES_ENV, "3")  # below one cell
        assert default_chunk_cells() == 1

    def test_env_override_drives_chunk_width(self, monkeypatch):
        # Exact even for sweeps under the default floor, without a probe.
        monkeypatch.setenv(CHUNK_BYTES_ENV, str(8 * 40))  # 40-cell budget
        monkeypatch.setattr(
            sharding,
            "_available_memory_bytes",
            lambda: pytest.fail("probe used despite REPRO_CHUNK_BYTES"),
        )
        chunks = scenario_chunks(16, 10)  # width 40 // 10 == 4
        assert chunks == [(0, 4), (4, 8), (8, 12), (12, 16)]

    def test_derived_default_is_clamped(self, monkeypatch):
        monkeypatch.delenv(CHUNK_BYTES_ENV, raising=False)
        cells = default_chunk_cells()
        assert DEFAULT_CHUNK_CELLS <= cells <= MAX_CHUNK_CELLS

    def test_rejects_malformed_env(self, monkeypatch):
        monkeypatch.setenv(CHUNK_BYTES_ENV, "lots")
        with pytest.raises(AnalysisError):
            default_chunk_cells()
        monkeypatch.setenv(CHUNK_BYTES_ENV, "0")
        with pytest.raises(AnalysisError):
            default_chunk_cells()
