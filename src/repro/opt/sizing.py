"""Driver sizing against a guaranteed-delay deadline.

Upsizing a driver by a factor ``x`` divides its effective resistance by ``x``
but multiplies its parasitic output capacitance by ``x`` (see
:meth:`repro.mos.drivers.DriverModel.scaled`), and in a larger flow it would
also load the previous stage.  The guaranteed delay of the driven net is
therefore not monotone in ``x``: there is a useful optimum, and beyond it
upsizing is pure waste.

:func:`size_driver_for_deadline` sweeps a geometric grid of sizes, finds the
region where the guaranteed (upper-bound) delay meets the deadline, and then
bisects for the smallest such size -- i.e. it answers "what is the cheapest
driver that is *provably* fast enough", which is exactly the certification
question (use 3 in the paper's abstract) turned into a design knob.

The search never rebuilds the net per candidate -- and it never *solves* per
candidate either: an evaluator probes the ``NetFactory`` with a few driver
sizes, verifies that the topology is driver-independent and that the driver
enters the tree only through its resistance and output capacitance (the
universal case -- every factory in this repository does exactly that), then
compiles the net *once* into a :class:`~repro.flat.FlatTree` and evaluates
**all candidates as scenarios in one batched solve**
(:meth:`~repro.flat.FlatTree.solve_batch`): each candidate becomes one row
of a per-node element plane.  Factories that fail the probe fall back to a
compile per candidate, still through the flat engine -- the unavoidable path
when the topology itself depends on the driver.

Beyond single nets, :func:`upsize_critical_path` runs the same knob at
*design scope*: an ECO loop over a :class:`~repro.graph.TimingGraph` that,
per iteration, evaluates **every** upsizable critical-path instance as a
what-if scenario in one batched solve
(:meth:`~repro.graph.TimingGraph.whatif_resize_worst_slack`), applies the
swap with the best resulting worst slack, and re-times only the affected
cone (the incremental machinery of
:meth:`~repro.graph.TimingGraph.resize_instance`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bounds import delay_bounds
from repro.core.tree import RCTree
from repro.flat import FlatTree, delay_upper_bound_batch
from repro.mos.drivers import DriverModel
from repro.sta.cells import Cell
from repro.sta.delaycalc import DelayModel
from repro.utils.checks import require_in_unit_interval, require_positive

#: A callable that builds the driven net for a given driver model.  The
#: returned tree must mark (or the caller must name) the output of interest.
NetFactory = Callable[[DriverModel], RCTree]

#: Relative tolerance used when probing a factory for topology stability.
_PROBE_RTOL = 1e-9


@dataclass(frozen=True)
class SizingResult:
    """Outcome of a driver-sizing search."""

    feasible: bool
    scale: Optional[float]
    driver: Optional[DriverModel]
    guaranteed_delay: Optional[float]
    deadline: float
    threshold: float
    #: (scale, guaranteed delay) pairs for every size evaluated during the sweep.
    sweep: List[Tuple[float, float]]

    @property
    def best_achievable_delay(self) -> float:
        """Smallest guaranteed delay seen anywhere in the sweep."""
        return min(delay for _, delay in self.sweep)


def _resolve_target(tree: RCTree, output: Optional[str]) -> str:
    return output or (tree.outputs[0] if tree.outputs else tree.leaves()[-1])


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _PROBE_RTOL * max(abs(a), abs(b), 1e-300)


class _DelayEvaluator:
    """Guaranteed delay of the driven net as a function of the driver.

    On construction the factory is probed with three driver sizes.  When the
    probes show a fixed topology whose only driver-dependent values follow
    the additive model ``r(d) = r0 + (R(d) - R(d0))`` on edges and
    ``c(d) = c0 + (C(d) - C(d0))`` on node capacitances (i.e. the driver
    contributes its effective resistance in series and its output capacitance
    in shunt, possibly combined with fixed wire parasitics), the net is
    compiled once and the candidates are rows of one
    :meth:`~repro.flat.FlatTree.solve_batch` element plane.  Otherwise each
    candidate compiles and solves its own flat tree.
    """

    def __init__(self, net_factory: NetFactory, base_driver: DriverModel, output: Optional[str], threshold: float):
        self._factory = net_factory
        self._threshold = threshold
        self._output = output
        self._template: Optional[FlatTree] = None
        self._r_edges: List[Tuple[int, float]] = []
        self._c_nodes: List[Tuple[int, float]] = []
        self._base = base_driver
        self._probe(base_driver)

    # ------------------------------------------------------------------
    def _probe(self, base: DriverModel) -> None:
        reference = self._factory(base)
        self._target = _resolve_target(reference, self._output)
        drivers = [base.scaled(2.0), base.scaled(0.5)]
        try:
            probes = [self._factory(driver) for driver in drivers]
        except Exception:
            # A factory may legitimately reject sizes it was never asked to
            # build (range validation, lookup tables); fall back to compiling
            # per candidate rather than surfacing the probe.
            return
        if any(probe.nodes != reference.nodes for probe in probes):
            return
        r_edges: List[Tuple[str, float]] = []  # (child node, base resistance)
        c_nodes: List[Tuple[str, float]] = []  # (node, base capacitance)
        for name in reference.nodes:
            edge = reference.parent_edge(name)
            candidates = [probe.parent_edge(name) for probe in probes]
            if edge is None:
                if any(c is not None for c in candidates):
                    return
            else:
                if any(
                    c is None
                    or c.parent != edge.parent
                    or c.is_distributed != edge.is_distributed
                    for c in candidates
                ):
                    return
                # Distributed line capacitance must not depend on the driver.
                if any(not _close(c.capacitance, edge.capacitance) for c in candidates):
                    return
                if all(_close(c.resistance, edge.resistance) for c in candidates):
                    pass
                else:
                    expected = [
                        edge.resistance + (d.effective_resistance - base.effective_resistance)
                        for d in drivers
                    ]
                    if not all(
                        _close(c.resistance, e) for c, e in zip(candidates, expected)
                    ):
                        return
                    r_edges.append((name, edge.resistance))
            cap = reference.node_capacitance(name)
            probe_caps = [probe.node_capacitance(name) for probe in probes]
            if all(_close(p, cap) for p in probe_caps):
                continue
            expected = [
                cap + (d.output_capacitance - base.output_capacitance) for d in drivers
            ]
            if not all(_close(p, e) for p, e in zip(probe_caps, expected)):
                return
            c_nodes.append((name, cap))
        if not r_edges and not c_nodes:
            # The driver does not enter the tree at all; nothing to update,
            # but the fixed topology still lets us compile once.
            pass
        template = FlatTree.from_tree(reference)
        self._template = template
        self._r_edges = [(template.index(name), base) for name, base in r_edges]
        self._c_nodes = [(template.index(name), base) for name, base in c_nodes]
        self._target_index = template.index(self._target)

    # ------------------------------------------------------------------
    def _fallback_delay(self, driver: DriverModel) -> float:
        """Rebuild through the factory (topology-varying case), still flat."""
        tree = self._factory(driver)
        flat = FlatTree.from_tree(tree)
        times = flat.characteristic_times(_resolve_target(tree, self._output))
        return delay_bounds(times, self._threshold).upper

    def delays(self, drivers: Sequence[DriverModel]) -> List[float]:
        """Guaranteed delay of every candidate driver, one batched solve.

        Candidates that keep every templated element value physical (positive
        resistances, non-negative capacitances) become rows of a per-node
        element plane evaluated by a single
        :meth:`~repro.flat.FlatTree.solve_batch`; the rest (and every
        candidate of a probe-rejected factory) fall back to a per-candidate
        factory rebuild.
        """
        template = self._template
        results: List[Optional[float]] = [None] * len(drivers)
        batched: List[int] = []
        if template is not None:
            base_r = self._base.effective_resistance
            base_c = self._base.output_capacitance
            deltas = []
            for position, driver in enumerate(drivers):
                dr = driver.effective_resistance - base_r
                dc = driver.output_capacitance - base_c
                if all(base + dr > 0.0 for _, base in self._r_edges) and all(
                    base + dc >= 0.0 for _, base in self._c_nodes
                ):
                    batched.append(position)
                    deltas.append((dr, dc))
            if batched:
                count = len(batched)
                edge_r = np.repeat(template._edge_r[np.newaxis, :], count, axis=0)
                node_c = np.repeat(template._node_c[np.newaxis, :], count, axis=0)
                for row, (dr, dc) in enumerate(deltas):
                    for node, base in self._r_edges:
                        edge_r[row, node] = base + dr
                    for node, base in self._c_nodes:
                        node_c[row, node] = base + dc
                times = template.solve_batch(
                    edge_r=edge_r, node_c=node_c, count=count
                )
                target = self._target_index
                upper = delay_upper_bound_batch(
                    times.tp,
                    times.tde[:, target],
                    times.tre[:, target],
                    [self._threshold],
                    total_capacitance=times.total_capacitance,
                )[:, 0]
                for row, position in enumerate(batched):
                    results[position] = float(upper[row])
        for position, driver in enumerate(drivers):
            if results[position] is None:
                results[position] = self._fallback_delay(driver)
        return results

    def delay(self, driver: DriverModel) -> float:
        """Guaranteed delay of one candidate (a batch of one)."""
        return self.delays([driver])[0]


def sweep_driver_sizes(
    net_factory: NetFactory,
    base_driver: DriverModel,
    *,
    output: Optional[str] = None,
    threshold: float = 0.5,
    scales: Optional[List[float]] = None,
    _evaluator: Optional[_DelayEvaluator] = None,
) -> List[Tuple[float, float]]:
    """Guaranteed delay versus drive strength over a geometric size grid.

    The whole grid is evaluated as one scenario batch (see
    :meth:`_DelayEvaluator.delays`) -- no per-candidate solve loop.
    """
    require_in_unit_interval("threshold", threshold, open_ends=True)
    if scales is None:
        scales = [0.25 * (2.0 ** (i / 2.0)) for i in range(17)]  # 0.25x .. 64x
    for scale in scales:
        require_positive("scale", scale)
    evaluator = _evaluator or _DelayEvaluator(net_factory, base_driver, output, threshold)
    delays = evaluator.delays([base_driver.scaled(scale) for scale in scales])
    return list(zip(scales, delays))


def size_driver_for_deadline(
    net_factory: NetFactory,
    base_driver: DriverModel,
    deadline: float,
    *,
    output: Optional[str] = None,
    threshold: float = 0.5,
    scales: Optional[List[float]] = None,
    refinement_steps: int = 40,
) -> SizingResult:
    """Find the smallest driver scale whose guaranteed delay meets ``deadline``.

    Returns an infeasible :class:`SizingResult` (with the full sweep attached)
    when no size on the grid meets the deadline -- meaning the wire itself is
    too slow and needs restructuring (see :mod:`repro.opt.buffering`).
    """
    require_positive("deadline", deadline)
    require_in_unit_interval("threshold", threshold, open_ends=True)
    evaluator = _DelayEvaluator(net_factory, base_driver, output, threshold)
    sweep = sweep_driver_sizes(
        net_factory,
        base_driver,
        output=output,
        threshold=threshold,
        scales=scales,
        _evaluator=evaluator,
    )
    meeting = [(scale, delay) for scale, delay in sweep if delay <= deadline]
    if not meeting:
        return SizingResult(
            feasible=False,
            scale=None,
            driver=None,
            guaranteed_delay=None,
            deadline=deadline,
            threshold=threshold,
            sweep=sweep,
        )

    smallest_meeting_scale = min(scale for scale, _ in meeting)
    chosen_delay = dict(meeting)[smallest_meeting_scale]
    # Refine between the largest failing scale below (if any) and the
    # smallest passing scale: each round evaluates a whole sub-grid as one
    # scenario batch (batched rounds instead of a scalar bisection loop) and
    # shrinks the bracket by its grid resolution, stopping -- like the old
    # bisection -- once the bracket is within 1e-4 of the chosen scale.
    # ``refinement_steps`` still budgets the total number of candidate
    # evaluations (0 skips refinement and returns the grid answer).
    failing_below = [scale for scale, delay in sweep if scale < smallest_meeting_scale and delay > deadline]
    lo = max(failing_below) if failing_below else smallest_meeting_scale * 0.5
    hi = smallest_meeting_scale
    rounds = min(3, refinement_steps)
    points = max(2, refinement_steps // rounds) if rounds else 0
    for _ in range(rounds):
        if hi - lo <= 1e-4 * hi:
            break
        grid = [lo + (hi - lo) * (k + 1) / (points + 1) for k in range(points)]
        delays = evaluator.delays([base_driver.scaled(scale) for scale in grid])
        new_lo = lo
        for scale, delay in zip(grid, delays):
            if delay <= deadline:
                hi, chosen_delay = scale, delay
                break
            new_lo = scale
        lo = new_lo

    return SizingResult(
        feasible=True,
        scale=hi,
        driver=base_driver.scaled(hi),
        guaranteed_delay=chosen_delay,
        deadline=deadline,
        threshold=threshold,
        sweep=sweep,
    )


# ----------------------------------------------------------------------
# Design-scope ECO sizing over a TimingGraph
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EcoStep:
    """One applied cell swap of a design-scope sizing ECO."""

    instance: str
    old_cell: str
    new_cell: str
    worst_slack_before: float
    worst_slack_after: float
    #: Number of pins re-evaluated by the incremental cone re-timing.
    cone_size: int


@dataclass(frozen=True)
class EcoResult:
    """Outcome of :func:`upsize_critical_path`."""

    met: bool
    worst_slack: float
    steps: List[EcoStep]

    @property
    def swap_count(self) -> int:
        """Number of cell swaps applied."""
        return len(self.steps)


def next_drive_strength(cell: Cell, library: Dict[str, Cell]) -> Optional[Cell]:
    """The same cell one drive step up (``_X1`` -> ``_X2`` ...), if the library has it."""
    prefix, separator, suffix = cell.name.rpartition("_X")
    if not separator or not suffix.isdigit():
        return None
    return library.get(f"{prefix}_X{2 * int(suffix)}")


def upsize_critical_path(
    graph: "TimingGraph",
    library: Dict[str, Cell],
    *,
    model: DelayModel = DelayModel.UPPER_BOUND,
    max_steps: int = 32,
) -> EcoResult:
    """Design-scope ECO loop: upsize critical-path drivers until timing is met.

    Each iteration traces the worst path under ``model`` (the sign-off upper
    bound by default), collects *every* path instance that still has a
    stronger library variant, and evaluates all of those candidate swaps **as
    scenarios in one batched solve**
    (:meth:`~repro.graph.TimingGraph.whatif_resize_worst_slack`) -- no
    trial-swap loop.  The swap with the best resulting worst slack is applied
    for real and the graph re-times just the affected cone.  Stops when the
    worst slack is non-negative, no upsizable candidate remains, or
    ``max_steps`` swaps were spent.  The applied swaps mutate the shared
    design in place (this is an ECO, not a what-if).
    """
    steps: List[EcoStep] = []
    worst = graph.worst_slack(model)
    while worst < 0.0 and len(steps) < max_steps:
        path = graph.critical_path(model)
        candidates: List[Tuple[str, Cell]] = []
        seen = set()
        for segment in path:
            if "/" not in segment.location:
                continue
            instance_name = segment.location.split("/", 1)[0]
            if instance_name in seen:
                continue
            record = graph.db.instances.get(instance_name)
            if record is None or not segment.arc.startswith(record.cell.name):
                continue
            stronger = next_drive_strength(record.cell, library)
            if stronger is None:
                continue
            seen.add(instance_name)
            candidates.append((instance_name, stronger))
        if not candidates:
            break
        outcomes = graph.whatif_resize_worst_slack(candidates, model=model)
        instance_name, stronger = candidates[int(np.argmax(outcomes))]
        old_cell = graph.db.instances[instance_name].cell.name
        cone = graph.resize_instance(instance_name, stronger)
        after = graph.worst_slack(model)
        steps.append(
            EcoStep(
                instance=instance_name,
                old_cell=old_cell,
                new_cell=stronger.name,
                worst_slack_before=worst,
                worst_slack_after=after,
                cone_size=cone,
            )
        )
        worst = after
    return EcoResult(met=worst >= 0.0, worst_slack=worst, steps=steps)
