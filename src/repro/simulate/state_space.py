"""Exact step response of a lumped RC network via eigendecomposition.

For the MNA system ``C dv/dt + G v = b u(t)`` with a unit step ``u``, the
response from rest is a sum of decaying exponentials

.. math::

    v(t) = v_\\infty + \\sum_m w_m e^{-t/\\tau_m},

with all time constants ``tau_m`` real and positive because ``G`` and ``C``
are symmetric positive (semi)definite.  This module computes that modal form
once and then evaluates it at arbitrary time points, so there is no
time-stepping error at all -- this plays the role of the "circuit
simulation" the paper compares its bounds against in Fig. 11.

Zero-capacitance nodes are eliminated exactly through a Schur complement
(Kron reduction) before the eigendecomposition and recovered algebraically
afterwards, so purely-resistive intermediate nodes (common in extracted
netlists) are handled without fictitious capacitance.

The modal data also exposes the first moment of the impulse response per
node, which equals the Elmore delay ``T_De`` -- a strong cross-check between
the simulator and the analytical engine that the test-suite exercises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

from repro.core.exceptions import AnalysisError
from repro.core.tree import RCTree
from repro.simulate.mna import MNASystem, build_mna
from repro.simulate.waveform import Waveform

ArrayLike = Union[float, Iterable[float], np.ndarray]


@dataclass(frozen=True)
class StepResponse:
    """The exact unit-step response of every node of a lumped RC network.

    The response of dynamic (capacitive) nodes is stored in modal form; the
    response of resistive (zero-capacitance) nodes is recovered from the
    dynamic ones through the stored recovery operator.
    """

    #: Node names in MNA order (input excluded).
    nodes: List[str]
    #: name -> index into ``nodes``.
    index: Dict[str, int]
    #: Steady-state voltage of every node (≈ 1 everywhere for a unit step).
    final_values: np.ndarray
    #: Indices of dynamic (capacitive) nodes within ``nodes``.
    dynamic_indices: np.ndarray
    #: Indices of resistive nodes within ``nodes``.
    resistive_indices: np.ndarray
    #: Modal decay rates (1/seconds), one per dynamic node.
    rates: np.ndarray
    #: Modal weight matrix for dynamic nodes: shape (n_dynamic, n_modes).
    weights: np.ndarray
    #: DC term of resistive-node recovery, shape (n_resistive,).
    resistive_offset: np.ndarray
    #: Coupling of resistive nodes to dynamic nodes, shape (n_resistive, n_dynamic).
    resistive_coupling: np.ndarray

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, times: ArrayLike) -> np.ndarray:
        """Node voltages at the requested times.

        Returns an array of shape ``(n_times, n_nodes)`` (or ``(n_nodes,)``
        for a scalar ``times``), in the order of :attr:`nodes`.
        """
        t = np.atleast_1d(np.asarray(times, dtype=float))
        if np.any(t < 0):
            raise AnalysisError("the step is applied at t = 0; times must be >= 0")
        decay = np.exp(-np.outer(t, self.rates))  # (n_times, n_modes)
        dynamic = self.final_values[self.dynamic_indices] + decay @ self.weights.T
        result = np.empty((t.size, len(self.nodes)), dtype=float)
        result[:, self.dynamic_indices] = dynamic
        if self.resistive_indices.size:
            resistive = self.resistive_offset + dynamic @ self.resistive_coupling.T
            result[:, self.resistive_indices] = resistive
        if np.isscalar(times) or np.asarray(times).ndim == 0:
            return result[0]
        return result

    def voltage(self, node: str, times: ArrayLike) -> Union[float, np.ndarray]:
        """Voltage of one node at the requested times."""
        column = self.index[node]
        values = self.evaluate(times)
        if values.ndim == 1:
            return float(values[column])
        return values[:, column]

    def waveform(self, node: str, t_end: float, points: int = 400) -> Waveform:
        """Sampled waveform of one node over ``[0, t_end]``."""
        if t_end <= 0:
            raise AnalysisError("t_end must be positive")
        times = np.linspace(0.0, float(t_end), int(points))
        return Waveform(times, np.asarray(self.voltage(node, times), dtype=float))

    def delay(self, node: str, threshold: float, *, horizon_factor: float = 50.0) -> float:
        """Exact time for ``node`` to reach ``threshold`` of its final value.

        The crossing is bracketed using the slowest mode and then refined by
        bisection on the closed-form modal expression, so the result carries
        no sampling error.
        """
        if not 0.0 < threshold < 1.0:
            raise AnalysisError("threshold must be strictly between 0 and 1")
        final = self.final_values[self.index[node]]
        target = threshold * final
        slowest = 1.0 / float(np.min(self.rates))
        lo, hi = 0.0, slowest
        limit = horizon_factor * slowest
        while float(self.voltage(node, hi)) < target:
            hi *= 2.0
            if hi > limit:
                raise AnalysisError(
                    f"node {node!r} does not reach {threshold:g} of its final value "
                    f"within {limit:g} s"
                )
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if float(self.voltage(node, mid)) < target:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-15 * max(hi, 1e-300):
                break
        return 0.5 * (lo + hi)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def time_constants(self) -> np.ndarray:
        """The modal time constants ``tau_m = 1/rate_m``, slowest first."""
        return np.sort(1.0 / self.rates)[::-1]

    def elmore_delay(self, node: str) -> float:
        """First moment of the impulse response at ``node``.

        Equals ``sum_m w_m tau_m`` (the area above the step response), which
        the analytical engine computes as ``T_De``; agreement between the two
        is asserted in the integration tests.
        """
        column = self.index[node]
        position = np.nonzero(self.dynamic_indices == column)[0]
        if position.size:
            weights = self.weights[int(position[0])]
            return float(-np.sum(weights / self.rates))
        # Resistive node: combine the recovery operator with the dynamic modal data.
        row = np.nonzero(self.resistive_indices == column)[0]
        if row.size == 0:
            raise AnalysisError(f"unknown node {node!r}")
        coupling = self.resistive_coupling[int(row[0])]
        modal = coupling @ self.weights  # weights of the recovered response
        return float(-np.sum(modal / self.rates))


def _components(conductance: np.ndarray) -> np.ndarray:
    """Connected-component label of every node of the conductance graph.

    The driven input is not a matrix node, so each subtree hanging off it is
    its own component: an independent network with its own modes.
    """
    _, labels = scipy.sparse.csgraph.connected_components(
        scipy.sparse.csr_matrix(conductance != 0.0), directed=False
    )
    return labels


def _block_eigh(
    symmetric: np.ndarray, labels: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a block-diagonal symmetric matrix, block by block.

    A dense ``eigh`` over the whole matrix resolves each eigenvector only to
    ``eps * ||S|| / gap``, so when the time constants of independent subtrees
    span many decades the fast subtree's rounding leaks into the slow one's
    modes (enough to push a step response past its final value).  Solving
    each component alone keeps the cross-component weights exactly zero.
    """
    size = symmetric.shape[0]
    rates = np.empty(size)
    modes = np.zeros((size, size))
    for label in np.unique(labels):
        block = np.nonzero(labels == label)[0]
        rates[block], modes[np.ix_(block, block)] = scipy.linalg.eigh(
            symmetric[np.ix_(block, block)]
        )
    return rates, modes


def exact_step_response(
    tree_or_system: Union[RCTree, MNASystem], *, segments_per_line: int = 20
) -> StepResponse:
    """Compute the exact unit-step response of an RC tree (or a prebuilt MNA system)."""
    if isinstance(tree_or_system, MNASystem):
        system = tree_or_system
    else:
        system = build_mna(tree_or_system, segments_per_line=segments_per_line)

    conductance = system.conductance
    capacitance = system.capacitance
    source = system.source

    dynamic = np.nonzero(capacitance > 0.0)[0]
    resistive = np.nonzero(capacitance <= 0.0)[0]
    if dynamic.size == 0:
        raise AnalysisError(
            "the network has no capacitance; its step response is instantaneous "
            "and there is nothing to simulate"
        )

    final_values = np.linalg.solve(conductance, source)

    g_dd = conductance[np.ix_(dynamic, dynamic)]
    b_d = source[dynamic]
    if resistive.size:
        g_dz = conductance[np.ix_(dynamic, resistive)]
        g_zz = conductance[np.ix_(resistive, resistive)]
        g_zd = conductance[np.ix_(resistive, dynamic)]
        b_z = source[resistive]
        zz_solve_zd = np.linalg.solve(g_zz, g_zd)
        zz_solve_bz = np.linalg.solve(g_zz, b_z)
        g_eff = g_dd - g_dz @ zz_solve_zd
        b_eff = b_d - g_dz @ zz_solve_bz
        resistive_offset = zz_solve_bz
        resistive_coupling = -zz_solve_zd
    else:
        g_eff = g_dd
        b_eff = b_d
        resistive_offset = np.zeros(0)
        resistive_coupling = np.zeros((0, dynamic.size))

    # Symmetrize with C^(1/2): S = C^(-1/2) G_eff C^(-1/2) is symmetric PD.
    c_dynamic = capacitance[dynamic]
    inv_sqrt_c = 1.0 / np.sqrt(c_dynamic)
    symmetric = (g_eff * inv_sqrt_c[np.newaxis, :]) * inv_sqrt_c[:, np.newaxis]
    symmetric = 0.5 * (symmetric + symmetric.T)
    rates, modes = _block_eigh(symmetric, _components(conductance)[dynamic])
    if np.any(rates <= 0.0):
        # G_eff is positive definite for any network tied to the source, so
        # non-positive eigenvalues can only come from rounding; clamp them.
        smallest_ok = np.min(rates[rates > 0.0]) if np.any(rates > 0.0) else 1.0
        rates = np.clip(rates, smallest_ok * 1e-12, None)

    v_inf_dynamic = np.linalg.solve(g_eff, b_eff)
    # v_D(t) = v_inf + C^(-1/2) Q exp(-Lambda t) Q^T C^(1/2) (v0 - v_inf), v0 = 0.
    initial_gap = -v_inf_dynamic
    modal_coefficients = modes.T @ (np.sqrt(c_dynamic) * initial_gap)
    weights = (inv_sqrt_c[:, np.newaxis] * modes) * modal_coefficients[np.newaxis, :]

    return StepResponse(
        nodes=system.nodes,
        index=dict(system.index),
        final_values=final_values,
        dynamic_indices=dynamic,
        resistive_indices=resistive,
        rates=rates,
        weights=weights,
        resistive_offset=resistive_offset,
        resistive_coupling=resistive_coupling,
    )


def simulate_step(
    tree: RCTree,
    output: str,
    t_end: float,
    *,
    points: int = 400,
    segments_per_line: int = 20,
) -> Waveform:
    """One-call helper: exact step-response waveform of ``output`` over ``[0, t_end]``."""
    response = exact_step_response(tree, segments_per_line=segments_per_line)
    if output not in response.index:
        raise AnalysisError(
            f"node {output!r} is not an internal node of the simulated network"
        )
    return response.waveform(output, t_end, points)
