"""Plan-level decisions: out-of-core join strategy selection by estimated
transfer bytes and join-loop ordering, plus the Map's result bound and
implementation choice, which no query asks for any more (see
``operators``). Pure planning over immutable metadata.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Config
from .errors import DataError

NAIVE_LOOP = "naive_loop"
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
    strategy: str
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
    transfer bytes.

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


def choose_join_strategy(naive_steps, layer_steps, cell_sizes,
                         force: str | None = None) -> tuple:
    """Estimate the transfer bytes of both candidate load sequences and pick
    the cheaper (ties favor the layer index: fewer passes), or the strategy
    ``force`` names.

    naive_steps: one step per constraint polygon with its matched-cell
    footprint, put in order here by ``order_join``; layer_steps: one step
    per filtered cell pair, in the order they run. Returns (naive estimate,
    layer estimate, PlanChoice), the choice holding the chosen sequence's
    order.
    """
    if force not in (None, NAIVE_LOOP, LAYER_INDEX):
        raise DataError(f"unknown join strategy {force!r}")
    naive_ordered = order_join(naive_steps, cell_sizes)
    est_naive = TransferEstimate(NAIVE_LOOP, simulate_transfer(naive_ordered, cell_sizes))
    est_layer = TransferEstimate(LAYER_INDEX, simulate_transfer(layer_steps, cell_sizes))
    chosen = force or (NAIVE_LOOP if est_naive.bytes < est_layer.bytes else LAYER_INDEX)
    ordered = naive_ordered if chosen == NAIVE_LOOP else layer_steps
    plan = PlanChoice(join_strategy=chosen,
                      load_order=tuple(label for label, _ in ordered))
    return est_naive, est_layer, plan


def explain_lines(plan: PlanChoice, est_naive: TransferEstimate | None = None,
                  est_layer: TransferEstimate | None = None) -> list:
    """Stable line-oriented plan description for --explain output."""
    lines = []
    if plan.join_strategy:
        lines.append(f"join_strategy: {plan.join_strategy}")
    if est_naive is not None:
        lines.append(f"estimate naive_loop bytes={est_naive.bytes}")
    if est_layer is not None:
        lines.append(f"estimate layer_index bytes={est_layer.bytes}")
    for label in plan.load_order:
        lines.append(f"load: {label}")
    return lines
