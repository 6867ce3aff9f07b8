"""The ``"native"`` backend: kernel logic, fallback contract, observability.

Three tiers, so the suite is meaningful on any machine:

* **Fallback tests** run everywhere: with ``REPRO_DISABLE_NATIVE=1`` (or no
  Numba at all) an explicit ``engine="native"`` must solve on the numpy
  kernels with exact parity and record *why* in ``last_selection()``.
* **Stub-kernel tests** reload :mod:`repro.flat.native` with a pass-through
  ``numba`` stub (``njit`` -> identity decorator, ``prange`` -> ``range``),
  so the *algorithm* of every compiled kernel -- loop order, accumulation
  order, snapshot semantics -- executes as pure Python and is pinned
  against the numpy reference even on machines without Numba.
* **Real-Numba tests** (``pytest.importorskip``) compile for real and
  re-check parity.
"""

import importlib
import sys
import types

import numpy as np
import pytest

from repro.flat import native as native_module
from repro.flat.contraction import jump_schedule, path_sums, subtree_sums
from repro.flat.scenarios import level_plan, sweep_scenarios
from repro.generators import random_forest
from repro.parallel import AUTO_NATIVE_CELLS, last_selection, resolve_engine
from repro.parallel.sharding import CHUNK_BYTES_ENV

FIELDS = ("tp", "tde", "tre", "ree", "total_capacitance")


def _planes(forest, count, seed):
    n = forest.structure.node_count
    rng = np.random.default_rng(seed)
    return tuple(
        rng.uniform(0.2, 2.0, size=(count, n)) for _ in range(3)
    )


def _assert_same(result, reference, exact=False):
    for field in FIELDS:
        got = np.asarray(getattr(result, field), dtype=float)
        want = np.asarray(getattr(reference, field), dtype=float)
        if exact:
            np.testing.assert_array_equal(got, want, err_msg=field)
        else:
            np.testing.assert_allclose(
                got, want, rtol=1e-12, atol=1e-15, err_msg=field
            )


@pytest.fixture
def stub_native(monkeypatch):
    """:mod:`repro.flat.native` reloaded under a pass-through numba stub.

    The kernels then run as plain Python functions (``prange`` is
    ``range``), so their loop/accumulation logic is testable without a
    compiler.  The module is reloaded back to its real state on teardown.
    """
    fake = types.ModuleType("numba")

    def njit(*args, **kwargs):
        def decorate(fn):
            return fn

        return decorate

    fake.njit = njit
    fake.prange = range
    fake.config = types.SimpleNamespace(THREADING_LAYER=None)
    monkeypatch.setitem(sys.modules, "numba", fake)
    monkeypatch.delenv(native_module.NATIVE_DISABLE_ENV, raising=False)
    module = importlib.reload(native_module)
    try:
        yield module
    finally:
        sys.modules.pop("numba", None)
        importlib.reload(module)


class TestFallback:
    """engine="native" must degrade to numpy, loudly, when kernels are out."""

    @pytest.fixture(autouse=True)
    def _disable_native(self, monkeypatch):
        monkeypatch.setenv(native_module.NATIVE_DISABLE_ENV, "1")

    def test_explicit_native_solves_on_numpy_with_reason(self):
        forest = random_forest(10, seed=11)
        er, ec, nc = _planes(forest, 4, seed=1)
        reference = forest.solve_batch(er, ec, nc, engine="numpy")
        result = forest.solve_batch(er, ec, nc, engine="native")
        _assert_same(result, reference, exact=True)
        record = last_selection()
        assert record["requested"] == "native"
        assert record["engine"] == "numpy"
        assert "disabled" in record["reason"]

    def test_fallback_warns_on_stderr_without_log_knob(self, capsys):
        forest = random_forest(10, seed=11)
        er, ec, nc = _planes(forest, 4, seed=1)
        forest.solve_batch(er, ec, nc, engine="native")
        err = capsys.readouterr().err
        assert "requested engine 'native' fell back to 'numpy'" in err
        # The warning is for degraded *explicit* requests only: honoured
        # requests and auto selections stay silent.
        forest.solve_batch(er, ec, nc, engine="numpy")
        forest.solve_batch(er, ec, nc)
        assert capsys.readouterr().err == ""

    def test_status_is_dynamic(self, monkeypatch):
        assert native_module.native_status() == "disabled"
        assert not native_module.native_available()
        assert not native_module.native_ready()
        monkeypatch.delenv(native_module.NATIVE_DISABLE_ENV)
        # Back to whatever the machine really has -- never "disabled".
        assert native_module.native_status() != "disabled"

    def test_auto_selection_never_picks_unready_native(self):
        assert resolve_engine(None, cells=AUTO_NATIVE_CELLS * 8) == "numpy"

    def test_unready_kernel_calls_raise(self):
        parent = np.array([-1, 0], dtype=np.int64)
        plane = np.ones((2, 1), dtype=np.float64)
        plan = level_plan(parent, np.arange(2, dtype=np.int64))
        with pytest.raises(Exception, match="native kernels unavailable"):
            native_module.sweep_scenarios_native(plan, parent, plane, plane, plane)
        with pytest.raises(Exception, match="native kernels unavailable"):
            native_module.sweep_scenarios_contract_native(parent, plane, plane, plane)


class TestStubKernels:
    """Kernel algorithm pinned against the numpy reference, sans compiler."""

    def test_probe_reports_ok(self, stub_native):
        assert stub_native.native_status() == "ok"
        assert stub_native.native_ready()

    def test_level_kernel_matches_reference_exactly(self, stub_native):
        forest = random_forest(14, seed=21)
        structure = forest.structure
        n = structure.node_count
        rng = np.random.default_rng(7)
        er, ec, nc = (
            np.ascontiguousarray(rng.uniform(0.2, 2.0, size=(n, 6)))
            for _ in range(3)
        )
        plan = structure.plan
        want = sweep_scenarios(plan, structure.parent, er, ec, nc)
        got = stub_native.sweep_scenarios_native(
            plan, structure.parent, er, ec, nc
        )
        # Same expression trees, same per-level accumulation order: the
        # pure-Python replay is bitwise-identical to the numpy sweeps.
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_round_kernels_match_reference_exactly(self, stub_native):
        rng = np.random.default_rng(8)
        parent = np.arange(-1, 199, dtype=np.int64)  # a 200-node chain
        schedule = jump_schedule(parent)
        for shape in ((200,), (200, 3)):
            weights = rng.uniform(0.1, 1.0, size=shape)
            np.testing.assert_array_equal(
                stub_native.path_sums_native(weights, schedule),
                path_sums(weights, schedule),
            )
            np.testing.assert_array_equal(
                stub_native.subtree_sums_native(weights, schedule),
                subtree_sums(weights, schedule),
            )

    def test_contract_twin_parity(self, stub_native):
        parent = np.arange(-1, 499, dtype=np.int64)
        rng = np.random.default_rng(9)
        er, ec, nc = (
            rng.uniform(0.2, 2.0, size=(500, 2)) for _ in range(3)
        )
        from repro.flat.contraction import sweep_scenarios_contract

        want = sweep_scenarios_contract(parent, er, ec, nc)
        got = stub_native.sweep_scenarios_contract_native(parent, er, ec, nc)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_engine_native_end_to_end(self, stub_native):
        forest = random_forest(12, seed=22)
        er, ec, nc = _planes(forest, 5, seed=3)
        reference = forest.solve_batch(er, ec, nc, engine="numpy")
        result = forest.solve_batch(er, ec, nc, engine="native")
        _assert_same(result, reference, exact=True)
        record = last_selection()
        assert record["engine"] == "native"
        assert record["reason"] == ""

    def test_engine_native_single_scenario_and_chunk_one(
        self, stub_native, monkeypatch
    ):
        forest = random_forest(6, seed=23)
        er, ec, nc = _planes(forest, 1, seed=4)
        reference = forest.solve_batch(er, ec, nc, engine="numpy")
        monkeypatch.setenv(CHUNK_BYTES_ENV, str(8 * 1 * forest.node_count))
        result = forest.solve_batch(er, ec, nc, engine="native")
        _assert_same(result, reference, exact=True)

    def test_engine_native_after_replace_tree(self, stub_native):
        from repro.generators import random_flat_tree

        forest = random_forest(8, seed=24)
        forest.replace_tree(3, random_flat_tree(seed=99))
        er, ec, nc = _planes(forest, 4, seed=5)
        reference = forest.solve_batch(er, ec, nc, engine="numpy")
        result = forest.solve_batch(er, ec, nc, engine="native")
        _assert_same(result, reference, exact=True)

    def test_deep_forest_uses_compiled_contraction(self, stub_native, monkeypatch):
        from repro.flat.forest import FlatForest
        from repro.flat import contraction

        from tests.properties.topologies import topology_flat_tree

        n = 600
        forest = FlatForest([topology_flat_tree("chain", n, seed=3)])
        er = np.ascontiguousarray(
            np.random.default_rng(10).uniform(0.2, 2.0, size=(2, n))
        )
        reference = forest.solve_batch(er, engine="numpy")
        result = forest.solve_batch(er, engine="native")
        _assert_same(result, reference)
        # The deep forest really took the contraction branch.
        assert contraction.last_round_count() >= 1


_numba_real = pytest.importorskip  # alias keeps the intent greppable


class TestRealNumba:
    """Compile for real (skipped wherever Numba is not installed)."""

    @pytest.fixture(autouse=True)
    def _require_numba(self, monkeypatch):
        pytest.importorskip("numba")
        monkeypatch.delenv(native_module.NATIVE_DISABLE_ENV, raising=False)
        if not native_module.native_ready():  # pragma: no cover
            pytest.skip(f"native kernels unusable: {native_module.native_status()}")

    def test_compiled_level_kernel_parity(self):
        forest = random_forest(14, seed=31)
        structure = forest.structure
        n = structure.node_count
        rng = np.random.default_rng(17)
        er, ec, nc = (
            np.ascontiguousarray(rng.uniform(0.2, 2.0, size=(n, 6)))
            for _ in range(3)
        )
        plan = structure.plan
        want = sweep_scenarios(plan, structure.parent, er, ec, nc)
        got = native_module.sweep_scenarios_native(
            plan, structure.parent, er, ec, nc
        )
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-15)

    def test_compiled_engine_matrix_cell(self):
        forest = random_forest(16, seed=32)
        er, ec, nc = _planes(forest, 8, seed=13)
        reference = forest.solve_batch(er, ec, nc, engine="numpy")
        result = forest.solve_batch(er, ec, nc, engine="native")
        _assert_same(result, reference)
        assert last_selection()["engine"] == "native"

    def test_compiled_survives_eco_edit(self):
        from repro.generators import RandomTreeConfig, random_flat_tree

        forest = random_forest(10, seed=33)
        forest.replace_tree(2, random_flat_tree(7, RandomTreeConfig(nodes=23)))
        er, ec, nc = _planes(forest, 4, seed=14)
        reference = forest.solve_batch(er, ec, nc, engine="numpy")
        result = forest.solve_batch(er, ec, nc, engine="native")
        _assert_same(result, reference)
