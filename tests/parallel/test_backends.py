"""Backend registry and engine auto-selection."""

import pytest

from repro.core.exceptions import AnalysisError
from repro.parallel import (
    AUTO_NATIVE_CELLS,
    available_backends,
    get_backend,
    register_backend,
    resolve_engine,
)
from repro.parallel import backends as backends_module


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends() == ("numpy", "contract", "native")

    def test_process_backend_is_gone(self):
        with pytest.raises(AnalysisError, match="unknown engine 'process'"):
            get_backend("process")

    def test_unknown_backend_lists_alternatives(self):
        with pytest.raises(AnalysisError, match="numpy"):
            get_backend("cuda")

    def test_register_and_resolve_custom_backend(self):
        def never_called(*args):  # pragma: no cover - registry plumbing only
            raise AssertionError

        try:
            backend = register_backend("unit-test", never_called, description="x")
            assert get_backend("unit-test") is backend
            assert resolve_engine("unit-test", cells=10) is backend
        finally:
            backends_module._REGISTRY.pop("unit-test", None)

    def test_reserved_names_rejected(self):
        with pytest.raises(AnalysisError):
            register_backend("auto", lambda: None)
        with pytest.raises(AnalysisError):
            register_backend("", lambda: None)


class TestResolveEngine:
    @pytest.fixture(autouse=True)
    def _without_native(self, monkeypatch):
        """Pin the compiled kernels 'not ready' so the numpy/contract
        selection is what's under test -- deterministic whether or not
        Numba is installed."""
        monkeypatch.setattr(backends_module, "_native_ready", lambda: False)

    def test_small_sweep_stays_serial(self):
        assert resolve_engine(None, cells=100).name == "numpy"

    def test_big_sweep_stays_in_process(self):
        # No sweep size escalates past the in-process kernels.
        assert resolve_engine(None, cells=1 << 30).name == "numpy"

    def test_auto_alias_matches_none(self):
        for cells in (10, 1 << 22):
            assert resolve_engine(None, cells=cells) is resolve_engine(
                "auto", cells=cells
            )

    def test_depth_pathology_picks_contract(self):
        backend = resolve_engine(None, cells=4000, nodes=4000, depth=3999)
        assert backend.name == "contract"

    def test_shallow_forest_never_contracts(self):
        backend = resolve_engine(None, cells=4000, nodes=4000, depth=20)
        assert backend.name == "numpy"

    def test_explicit_contract_honoured(self):
        backend = resolve_engine("contract", cells=1, nodes=4, depth=1)
        assert backend.name == "contract"


class TestNativeSelection:
    """Auto-selection with the compiled kernels reported ready.

    Readiness is monkeypatched, so these run (and mean the same thing)
    with or without a Numba installation.
    """

    @pytest.fixture(autouse=True)
    def _with_native(self, monkeypatch):
        monkeypatch.setattr(backends_module, "_native_ready", lambda: True)

    def test_medium_sweep_runs_native_in_process(self):
        assert resolve_engine(None, cells=AUTO_NATIVE_CELLS).name == "native"

    def test_big_sweep_runs_native(self):
        assert resolve_engine(None, cells=1 << 30).name == "native"

    def test_small_sweep_skips_native(self):
        assert resolve_engine(None, cells=AUTO_NATIVE_CELLS - 1).name == "numpy"

    def test_depth_pathology_runs_compiled_contraction(self):
        cells = AUTO_NATIVE_CELLS * 2
        backend = resolve_engine(None, cells=cells, nodes=cells, depth=cells - 1)
        assert backend.name == "native"

    def test_depth_pathology_below_native_floor_stays_contract(self):
        backend = resolve_engine(None, cells=4000, nodes=4000, depth=3999)
        assert backend.name == "contract"

    def test_small_sweep_never_probes_readiness(self, monkeypatch):
        def boom():  # pragma: no cover - failing is the assertion
            raise AssertionError("readiness probed for a tiny sweep")

        monkeypatch.setattr(backends_module, "_native_ready", boom)
        assert resolve_engine(None, cells=100).name == "numpy"
