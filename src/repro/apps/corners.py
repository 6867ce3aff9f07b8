"""Corner sweeps and derate sensitivity over a whole design.

The paper argues its bounds are cheap enough to re-ask under every process
assumption; this module is that workflow at design scope, built on the
scenario-batched engine:

* :func:`corner_sweep` -- one
  :meth:`~repro.graph.TimingGraph.analyze_scenarios` pass summarized per
  corner: worst slack under all three delay models, the ternary verdict, the
  critical endpoint, and the *bound spread* (guaranteed-earliest minus
  guaranteed-latest worst slack -- the design-level width of the paper's
  Fig. 11 envelope, which corner derates widen or shrink);
* :func:`corner_sweep_table` -- the same sweep formatted for a report;
* :func:`derate_sensitivity` -- central-difference sensitivities of the
  worst slack to the global R / C / drive derates, evaluated as one
  six-scenario batch (the "which assumption is my margin hostage to?"
  question).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.scenarios import Scenario, ScenarioSet
from repro.sta.delaycalc import DelayModel
from repro.utils.tables import format_table

__all__ = ["CornerRow", "corner_sweep", "corner_sweep_table", "derate_sensitivity"]

_MODELS = (DelayModel.ELMORE, DelayModel.UPPER_BOUND, DelayModel.LOWER_BOUND)


@dataclass(frozen=True)
class CornerRow:
    """Design-level timing summary of one corner of a sweep."""

    name: str
    clock_period: float
    threshold: float
    worst_slack: Dict[str, float]
    verdict: str
    critical_endpoint: Optional[str]

    @property
    def bound_spread(self) -> float:
        """Worst-slack gap between the two guaranteed bounds (>= 0).

        The design-level width of the paper's Fig. 11 envelope at this
        corner: zero would mean the bounds pin the critical delay exactly.
        """
        return (
            self.worst_slack[DelayModel.LOWER_BOUND.value]
            - self.worst_slack[DelayModel.UPPER_BOUND.value]
        )


def corner_sweep(
    graph,
    scenarios: ScenarioSet,
    *,
    engine: Optional[str] = None,
) -> List[CornerRow]:
    """Summarize every corner of ``scenarios`` from one batched analysis.

    ``engine`` selects the :mod:`repro.parallel` backend the underlying
    forest solve runs on (``None`` auto-selects by sweep size and depth);
    the rows are identical for every backend.
    """
    report = graph.analyze_scenarios(
        scenarios, with_critical_paths=False, engine=engine
    )
    rows: List[CornerRow] = []
    for index, name in enumerate(report.scenario_names):
        worst = {
            model.value: report.worst_slack_of(index, model) for model in _MODELS
        }
        rows.append(
            CornerRow(
                name=name,
                clock_period=float(report.clock_periods[index]),
                threshold=float(report.thresholds[index]),
                worst_slack=worst,
                verdict=report.verdicts[index],
                critical_endpoint=report.worst_endpoint[index][
                    DelayModel.UPPER_BOUND.value
                ],
            )
        )
    return rows


def corner_sweep_table(
    graph,
    scenarios: ScenarioSet,
    *,
    engine: Optional[str] = None,
) -> str:
    """The corner sweep as a formatted report table (worst slack in ns)."""
    rows = corner_sweep(graph, scenarios, engine=engine)
    return format_table(
        ["corner", "slack upper (ns)", "slack elmore (ns)", "slack lower (ns)",
         "spread (ns)", "verdict"],
        [
            (
                row.name,
                row.worst_slack[DelayModel.UPPER_BOUND.value] * 1e9,
                row.worst_slack[DelayModel.ELMORE.value] * 1e9,
                row.worst_slack[DelayModel.LOWER_BOUND.value] * 1e9,
                row.bound_spread * 1e9,
                row.verdict,
            )
            for row in rows
        ],
        precision=4,
        title=f"corner sweep, {len(rows)} scenarios",
    )


def derate_sensitivity(
    graph,
    *,
    delta: float = 0.05,
    model: DelayModel = DelayModel.UPPER_BOUND,
) -> Dict[str, float]:
    """d(worst slack)/d(derate) for the three global knobs, one batched solve.

    Central differences at ``1 +- delta`` around nominal for the wire-R,
    capacitance and drive-R derates -- six what-if corners evaluated in a
    single :meth:`~repro.graph.TimingGraph.analyze_scenarios` pass.  All
    three sensitivities are non-positive for any physical design (derating
    anything up can only slow it down).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    knobs = ("r_derate", "c_derate", "drive_derate")
    scenarios = []
    for knob in knobs:
        for sign, factor in (("-", 1.0 - delta), ("+", 1.0 + delta)):
            scenarios.append(Scenario(f"{knob}{sign}", **{knob: factor}))
    report = graph.analyze_scenarios(
        ScenarioSet(scenarios), with_critical_paths=False
    )
    sensitivities: Dict[str, float] = {}
    for index, knob in enumerate(knobs):
        low = report.worst_slack_of(2 * index, model)
        high = report.worst_slack_of(2 * index + 1, model)
        sensitivities[knob] = (high - low) / (2.0 * delta)
    return sensitivities
