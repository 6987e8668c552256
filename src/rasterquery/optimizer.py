"""Plan-level decisions: the out-of-core join's layer-index plan and its
transfer estimate, plus the Map's result bound and implementation choice,
which no query asks for any more (see ``operators``). Pure planning over
immutable metadata.

The paper weighs two out-of-core join strategies by transfer bytes: a
naive nested loop over the A polygons, and the layer index over the A
cells. Only the layer index is planned here. ``storage.ooc_join`` drops
each of an A cell's B cells that none of the cell's polygons meets, so it
loads for an A cell only the B cells the loop loaded for its polygons,
and it renders each A layer once where the loop rendered each A polygon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Config
from .errors import DataError

LAYER_INDEX = "layer_index"
ONE_PASS = "one_pass"
TWO_PASS = "two_pass"


@dataclass(frozen=True)
class QueryDescriptor:
    """Counts the result-bound rules need: kind is 'selection' (joins
    collect their pairs as sets and need no bound)."""

    kind: str
    object_count: int = 0


def estimate_nmax(desc: QueryDescriptor) -> int:
    """Upper bound on result count: a selection returns at most every
    object once."""
    if desc.kind == "selection":
        return desc.object_count
    raise DataError(f"unknown query descriptor kind {desc.kind!r}")


def choose_map_impl(n_max: int, canvas_budget: int | None = None,
                    slot_size: int | None = None, config: Config = DEFAULT) -> str:
    """One-pass when the slotted buffer fits the single-canvas budget
    (boundary equality chooses one-pass), else two-pass."""
    budget = config.canvas_budget_bytes if canvas_budget is None else canvas_budget
    size = config.slot_size if slot_size is None else slot_size
    if budget <= 0:
        raise DataError("canvas budget must be positive")
    return ONE_PASS if n_max * size <= budget else TWO_PASS


@dataclass(frozen=True)
class TransferEstimate:
    bytes: int


@dataclass(frozen=True)
class PlanChoice:
    join_strategy: str
    load_order: tuple = ()


def simulate_transfer(steps, sizes) -> int:
    """Bytes loaded over a step sequence with the previous step's cells
    still resident: each step pays only for cells not shared with its
    predecessor."""
    total = 0
    prev: frozenset = frozenset()
    for _, footprint in steps:
        for cell in footprint:
            if cell not in prev:
                total += sizes[cell]
        prev = frozenset(footprint)
    return total


def order_join(steps, sizes=None):
    """Greedy max-overlap ordering of join steps; consecutive steps share at
    least one cell/layer whenever the overlap graph is connected. Falls back
    to the input order when that simulates cheaper, so ordering never costs
    transfer bytes. No query calls it; it stays only because perfbench's
    tracer wraps it on this module by name.

    From the first step on, each round takes the step left that shares the
    most cells with the one before, the lowest index among ties: over a
    step x cell incidence array built once, one overlap count and one
    ``argmax`` (whose first maximum is the lowest index) per round.
    """
    steps = list(steps)
    if len(steps) <= 2:
        return steps
    if sizes is None:
        sizes = {c: 1 for _, fp in steps for c in fp}
    column: dict = {}
    step_of, cell_of = [], []
    for i, (_, fp) in enumerate(steps):
        for c in fp:
            step_of.append(i)
            cell_of.append(column.setdefault(c, len(column)))
    incidence = np.zeros((len(steps), len(column)), dtype=bool)
    incidence[step_of, cell_of] = True
    left = np.ones(len(steps), dtype=bool)
    order = [0]
    for _ in range(len(steps) - 1):
        left[order[-1]] = False
        overlap = incidence[:, incidence[order[-1]]].sum(axis=1)
        order.append(int(np.argmax(np.where(left, overlap, -1))))
    greedy = [steps[i] for i in order]
    if simulate_transfer(greedy, sizes) <= simulate_transfer(steps, sizes):
        return greedy
    return steps


def choose_join_strategy(layer_steps, cell_sizes) -> tuple:
    """Price the layer-index plan: ``layer_steps`` is one (label, footprint)
    step per filtered cell pair, in the order they run. Returns
    (TransferEstimate, PlanChoice), the estimate the bytes the steps
    simulate and the choice their order."""
    estimate = TransferEstimate(simulate_transfer(layer_steps, cell_sizes))
    return estimate, PlanChoice(LAYER_INDEX, tuple(label for label, _ in layer_steps))


def explain_lines(plan: PlanChoice, estimate: TransferEstimate) -> list:
    """Stable line-oriented plan description for --explain output."""
    return [f"join_strategy: {plan.join_strategy}",
            f"estimate {plan.join_strategy} bytes={estimate.bytes}",
            *(f"load: {label}" for label in plan.load_order)]
