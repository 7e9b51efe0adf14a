"""Regression: version-skipping edge burnback vs cascades through
relations *outside* the triangle.

The versioned fixpoint skips re-pruning a side whose triangle's three
relations are unchanged since its last prune. The subtlety: the prune
validated the **pre-cascade** state, and the cascade triggered by the
prune's own removals can travel through relations outside the triangle
and come back to shrink the triangle's other two sides. The stamp must
therefore be recorded *before* the cascade's version bumps — recording
it after absorbs the cascade into the stamp, the side is skipped on
the next round, and a spurious pair survives that the reference
fixpoint removes.

The hand-built answer graph below is the minimal shape that exercises
this: one triangle S(0—1) / X(0—2) / Y(1—2) plus a conduit
R(1—4) → V(3—4) → W(2—3). Pruning S removes its one inconsistent pair,
which burns a var-1 node, travels the conduit, and kills a var-2 node
whose X and Y pairs were the sole triangle support of a *surviving* S
pair — detectable only by re-pruning S.
"""

import copy

from repro.core.answer_graph import AnswerGraph
from repro.core.burnback import edge_burnback, node_burnback
from repro.core.reference import edge_burnback_reference, register_pairs
from repro.planner.plan import SideRef, Triangle, TriangleSide
from repro.utils.deadline import Deadline


def _build_ag() -> AnswerGraph:
    ag = AnswerGraph(bound=None)
    # Triangle sides.
    register_pairs(  # S: var0 -> var1
        ag, ("e", 0), 0, 1,
        [(10, 20), (10, 21), (10, 22), (12, 20), (12, 22)],
    )
    register_pairs(  # X: var0 -> var2
        ag, ("e", 1), 0, 2,
        [(10, 30), (10, 33), (12, 31), (12, 32), (12, 33)],
    )
    register_pairs(  # Y: var1 -> var2
        ag, ("e", 2), 1, 2,
        [(20, 30), (20, 31), (20, 32), (21, 31), (22, 33)],
    )
    # The cascade conduit, outside the triangle.
    register_pairs(  # R: var1 -> var4
        ag, ("e", 3), 1, 4, [(20, 40), (21, 41), (22, 40)],
    )
    register_pairs(  # V: var3 -> var4
        ag, ("e", 4), 3, 4, [(50, 41), (51, 40)],
    )
    register_pairs(  # W: var2 -> var3
        ag, ("e", 5), 2, 3, [(30, 50), (31, 51), (32, 51), (33, 51)],
    )
    ag.node_sets = {
        0: {10, 12},
        1: {20, 21, 22},
        2: {30, 31, 32, 33},
        3: {50, 51},
        4: {40, 41},
    }
    return ag


TRIANGLE = Triangle(
    vars=(0, 1, 2),
    sides=(
        TriangleSide(SideRef("edge", 0), 0, 1),
        TriangleSide(SideRef("edge", 1), 0, 2),
        TriangleSide(SideRef("edge", 2), 1, 2),
    ),
)


def test_cascade_through_outside_relations_forces_reprune():
    """The kernel fixpoint must match the reference bit-for-bit even
    when a side's own cascade (through non-triangle relations) shrinks
    the triangle's other sides after the prune read them."""
    kernel_ag = _build_ag()
    reference_ag = _build_ag()
    kernel = edge_burnback(kernel_ag, [TRIANGLE], Deadline.unlimited())
    reference = edge_burnback_reference(
        reference_ag, [TRIANGLE], Deadline.unlimited()
    )
    assert kernel == reference  # (rounds, pairs removed)
    assert kernel_ag.snapshot() == reference_ag.snapshot()
    # The specific spurious pair: S(10, 20) loses its only triangle
    # support (var-2 node 30) to the cascade and must not survive.
    assert (10, 20) not in kernel_ag.pair_set(("e", 0))


def test_fixpoint_of_deepcopied_state_is_stable():
    """Running the fixpoint again on its own output changes nothing."""
    ag = _build_ag()
    edge_burnback(ag, [TRIANGLE], Deadline.unlimited())
    settled = copy.deepcopy(ag.snapshot())
    rounds, removed = edge_burnback(ag, [TRIANGLE], Deadline.unlimited())
    assert removed == 0
    assert ag.snapshot() == settled


def test_node_burnback_reports_changed_relations():
    """node_burnback(changed_rels=...) names exactly the relations it
    shrank — the signal the versioned fixpoint keys its skips on."""
    ag = _build_ag()
    ag.node_sets[1].discard(21)
    changed: set = set()
    node_burnback(ag, {1: {21}}, Deadline.unlimited(), changed)
    # Node 21's removal shrinks S and Y directly and drains R's pair
    # (21, 41), whose cascade travels V -> W and shrinks X and Y too.
    assert changed == {
        ("e", 0), ("e", 1), ("e", 2), ("e", 3), ("e", 4), ("e", 5),
    }
