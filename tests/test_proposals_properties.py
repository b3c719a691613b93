"""Property-based tests for the neighbourhood-resimulation kernels.

Every property is checked against *both* proposal kernels — the scalar
reference kernel (the test oracle ``reference_kernel.ReferenceResimulator``,
the ``reference`` cells) and the batched proposal-set kernel — because the
two must draw from exactly the same distribution even though they consume
the RNG stream differently.  The generators deliberately include the hard
cases the batched rewrite fixed: tied and near-tied child activation times
(UPGMA starts), bounded regions with narrow squeeze windows, and demography
rescaling at extreme |g| where the Λ → Λ⁻¹ roundtrip can land epsilon
outside its interval.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.demography.models import ExponentialDemography
from repro.genealogy.tree import Genealogy
from repro.proposals.intervals import build_intervals, extract_region, inactive_lineage_count
from repro.proposals.neighborhood import NeighborhoodResimulator, eligible_targets
from repro.simulate.coalescent_sim import simulate_genealogy

from reference_kernel import ReferenceResimulator


def _tied_tree(tie_gap: float) -> Genealogy:
    """A 5-tip genealogy whose two cherries coalesce ``tie_gap`` apart.

    ``tie_gap=0`` gives exactly tied node times — the UPGMA shape that used
    to trip the forced-activation loop in the rebuild.  Built from raw
    arrays because :meth:`Genealogy.from_times_and_topology` (rightly)
    rejects non-strictly-increasing merge times, while UPGMA-derived trees
    contain ties as a matter of course.
    """
    times = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.1, 0.1 + tie_gap, 0.3, 0.55])
    parent = np.array([5, 5, 6, 6, 8, 7, 7, 8, -1], dtype=np.int64)
    children = np.array(
        [[-1, -1]] * 5 + [[0, 1], [2, 3], [5, 6], [7, 4]], dtype=np.int64
    )
    return Genealogy(
        times=times, parent=parent, children=children, tip_names=("a", "b", "c", "d", "e")
    )


def _check_outcome(tree: Genealogy, target: int, outcome) -> None:
    """The structural invariants every proposal must satisfy."""
    new = outcome.tree
    new.validate()
    region = outcome.region

    # Strictly child-older times along every lineage.
    for node in range(new.times.size):
        p = int(new.parent[node])
        if p >= 0:
            assert new.times[p] > new.times[node], (
                f"node {node} at {new.times[node]!r} not strictly below its "
                f"parent {p} at {new.times[p]!r}"
            )

    # Merge times inside the feasible range of the region.
    lo = min(region.child_times)
    t1, t2 = sorted(outcome.new_times)
    assert t1 >= lo
    assert t2 >= t1
    if region.bounded:
        assert t2 < region.ancestor_time

    # Only the resimulated nodes moved.
    resimulated = {region.target, region.parent}
    for node in np.flatnonzero(~np.asarray([new.is_tip(i) for i in range(new.times.size)])):
        if int(node) not in resimulated:
            assert new.times[node] == tree.times[node]

    # The cheap topology flag agrees with the full topology comparison.
    assert outcome.topology_changed == (new.topology_key() != tree.topology_key())


@pytest.mark.parametrize(
    "kernel", [ReferenceResimulator, NeighborhoodResimulator], ids=["reference", "batched"]
)
class TestProposalInvariants:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_tips=st.integers(4, 9),
        target_pick=st.integers(0, 10**6),
    )
    def test_random_trees_all_targets(self, kernel, seed, n_tips, target_pick):
        rng = np.random.default_rng(seed)
        tree = simulate_genealogy(n_tips, 1.0, rng)
        targets = eligible_targets(tree)
        target = int(targets[target_pick % targets.size])
        resim = kernel(1.0, validate=True)
        for outcome in resim.propose_set(tree, target, 4, rng):
            _check_outcome(tree, target, outcome)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        tie_gap=st.sampled_from([0.0, 1e-15, 1e-12, 1e-9]),
        target_pick=st.integers(0, 10**6),
    )
    def test_tied_and_near_tied_child_times(self, kernel, seed, tie_gap, target_pick):
        """Activation bookkeeping survives exactly- and epsilon-tied times."""
        tree = _tied_tree(tie_gap)
        rng = np.random.default_rng(seed)
        targets = eligible_targets(tree)
        target = int(targets[target_pick % targets.size])
        resim = kernel(1.0, validate=True)
        for outcome in resim.propose_set(tree, target, 4, rng):
            _check_outcome(tree, target, outcome)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        growth=st.sampled_from([-50.0, -5.0, 5.0, 50.0]),
        target_pick=st.integers(0, 10**6),
    )
    def test_extreme_growth_rescaling(self, kernel, seed, growth, target_pick):
        """|g| = 50 rescaling: spans blow up like e^{|g| t}, the passes run in
        log space, and every Λ → Λ⁻¹ roundtrip must stay inside its interval."""
        rng = np.random.default_rng(seed)
        tree = simulate_genealogy(6, 1.0, rng)
        targets = eligible_targets(tree)
        target = int(targets[target_pick % targets.size])
        resim = kernel(1.0, validate=True, demography=ExponentialDemography(growth=growth))
        for outcome in resim.propose_set(tree, target, 3, rng):
            _check_outcome(tree, target, outcome)
            assert all(np.isfinite(t) for t in outcome.new_times)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_merge_times_respect_interval_activations(self, kernel, seed):
        """Each sampled merge lies in a feasible interval where enough
        lineages are active — the invariant the demography clamp protects."""
        rng = np.random.default_rng(seed)
        tree = simulate_genealogy(7, 1.0, rng)
        target = int(eligible_targets(tree)[0])
        region = extract_region(tree, target)
        starts = build_intervals(tree, region).starts
        resim = kernel(1.0)
        for outcome in resim.propose_set(tree, target, 4, rng):
            for t in outcome.new_times:
                # Number of child roots activated at or before t: the merge
                # consuming the k-th activation needs at least two lineages
                # present, counting earlier merges.
                assert t >= starts[0]
            t1, t2 = sorted(outcome.new_times)
            # First merge needs >= 2 activations at its time.
            active_at = sum(1 for ct in region.child_times if ct <= t1)
            assert active_at >= 2 or t1 - max(region.child_times) < 1e-9


# ---------------------------------------------------------------------------
# The table-driven kernel against the per-interval / per-row code it replaced
# ---------------------------------------------------------------------------


def _reference_intervals(tree: Genealogy, region) -> list[tuple[float, float, int, int]]:
    """The per-interval loop :func:`build_intervals` replaced: a set of
    breakpoints, then one inactive-lineage query per interval midpoint."""
    start_time = min(region.child_times)
    end_time = region.ancestor_time
    breakpoints = set(region.child_times)
    removed = {region.target, region.parent}
    for node in range(tree.n_nodes):
        t = float(tree.times[node])
        if node not in removed and start_time < t < end_time:
            breakpoints.add(t)
    ordered = sorted(breakpoints)
    if region.bounded:
        if ordered[-1] < end_time:
            ordered.append(end_time)
    else:
        ordered.append(float("inf"))
    out = []
    child_times = np.asarray(region.child_times)
    for lo, hi in zip(ordered[:-1], ordered[1:]):
        midpoint = lo + (min(hi, lo + 1.0) - lo) * 0.5 if np.isfinite(hi) else lo + 0.5
        out.append(
            (
                lo,
                hi,
                inactive_lineage_count(tree, region, midpoint),
                int(np.count_nonzero(child_times == lo)),
            )
        )
    return out


def _reference_row(ctx, m: int, a: int) -> np.ndarray | None:
    """The per-row end-state weights the forward pass used to compute for a
    sibling with ``a`` active lineages in interval ``m``: cumulative weights
    over the end count b = 1, 2, 3, or None where the conditioned walk
    reaches a dead end."""
    intervals = ctx.intervals[0]
    n_intervals = len(intervals)
    b_range = np.arange(1, 4)
    next_activations = intervals.activations[m + 1] if m + 1 < n_intervals else 0
    carried = b_range + next_activations
    active = np.array([a])
    allowed = (b_range[None, :] <= active[:, None]) & (carried[None, :] <= 3)
    tail = ctx.goal[0, m + 1, np.minimum(carried, 3) - 1]
    rows = ctx.matrices[0, m][active - 1]
    if ctx.log_space:
        w = np.where(allowed, rows + tail[None, :], -np.inf)
        peak = w.max(axis=1)
        if not np.all(np.isfinite(peak)):
            return None
        w = np.exp(w - peak[:, None])
    else:
        w = np.where(allowed, rows * tail[None, :], 0.0)
    cum = np.cumsum(w, axis=1)
    if np.any(cum[:, -1] <= 0.0):
        return None
    return cum[0]


_DEMOGRAPHIES = st.sampled_from([None, ExponentialDemography(growth=50.0)])


class TestTableDrivenKernel:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_tips=st.integers(3, 12),
        tie_gap=st.sampled_from([None, 0.0, 1e-15, 1e-12]),
    )
    def test_build_intervals_matches_per_interval_loop(self, seed, n_tips, tie_gap):
        """Every eligible target (bounded and unbounded regions), bitwise."""
        if tie_gap is None:
            tree = simulate_genealogy(n_tips, 1.0, np.random.default_rng(seed))
        else:
            tree = _tied_tree(tie_gap)
        for target in eligible_targets(tree):
            region = extract_region(tree, int(target))
            intervals = build_intervals(tree, region)
            got = list(
                zip(
                    intervals.starts.tolist(),
                    intervals.ends.tolist(),
                    intervals.n_inactive.tolist(),
                    intervals.activations.tolist(),
                )
            )
            want = _reference_intervals(tree, region)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.float64(g[0]).tobytes() == np.float64(w[0]).tobytes()
                assert np.float64(g[1]).tobytes() == np.float64(w[1]).tobytes()
                assert g[2:] == w[2:]

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_tips=st.integers(3, 10),
        demography=_DEMOGRAPHIES,
    )
    def test_end_state_table_matches_per_row_weights(self, seed, n_tips, demography):
        """Linear and log space, every interval and active count — the
        unreachable ``-inf`` rows included — bitwise.  The table is indexed
        by the next interval's start count c = b + k (k lineages activated
        there), so the reference row over b moves right by k, with no
        weight in front."""
        tree = simulate_genealogy(n_tips, 1.0, np.random.default_rng(seed))
        resim = NeighborhoodResimulator(1.0, demography=demography)
        for target in eligible_targets(tree):
            ctx = resim._build_set_context([tree], [int(target)])
            assert ctx.log_space == (demography is not None)
            cum, total, dead = (table[0] for table in resim._end_state_table(ctx))
            intervals = ctx.intervals[0]
            n_intervals = len(intervals)
            for m in range(n_intervals):
                k = int(intervals.activations[m + 1]) if m + 1 < n_intervals else 0
                for a in (1, 2, 3):
                    want = _reference_row(ctx, m, a)
                    if want is None:
                        assert dead[m, a - 1]
                        continue
                    assert not dead[m, a - 1]
                    want = np.concatenate((np.zeros(k), want[: 3 - k]))
                    assert cum[m, a - 1].tobytes() == want.tobytes()
                    assert total[m, a - 1] == want[-1]

    @pytest.mark.parametrize("demography", [None, ExponentialDemography(growth=50.0)])
    def test_forced_dead_end_raises(self, demography):
        """A goal table with no valid finish stops both forward passes."""
        tree = simulate_genealogy(6, 1.0, np.random.default_rng(4))
        resim = ReferenceResimulator(1.0, demography=demography)
        ctx = resim._build_set_context([tree], [int(eligible_targets(tree)[0])])
        ctx.goal = np.full_like(ctx.goal, -np.inf if ctx.log_space else 0.0)
        uniforms = np.random.default_rng(0).random((1, 4, len(ctx.intervals[0]) + 4))
        with pytest.raises(RuntimeError, match="dead end"):
            resim._forward_block(ctx, uniforms)
        with pytest.raises(RuntimeError, match="dead end"):
            resim._forward_pass(ctx, np.random.default_rng(0))

    @pytest.mark.parametrize("demography", [None, ExponentialDemography(growth=50.0)])
    @pytest.mark.parametrize("alive", [1, 2])
    def test_dead_end_mid_walk_raises(self, demography, alive):
        """A dead end after the first intervals is the typed dead-end error
        too: the walk never indexes with the state past it."""
        tree = simulate_genealogy(9, 1.0, np.random.default_rng(4))
        resim = NeighborhoodResimulator(1.0, demography=demography)
        ctx = max(
            (resim._build_set_context([tree], [int(t)]) for t in eligible_targets(tree)),
            key=lambda c: len(c.intervals[0]),
        )
        assert len(ctx.intervals[0]) > alive + 1
        ctx.goal[0, alive + 1 :] = -np.inf if ctx.log_space else 0.0
        uniforms = np.random.default_rng(0).random((1, 4, len(ctx.intervals[0]) + 4))
        with pytest.raises(RuntimeError, match="dead end"):
            resim._forward_block(ctx, uniforms)


def _load_census():
    """``tools/proposal_census.py`` as a module (it is a script, not a package)."""
    path = Path(__file__).resolve().parent.parent / "tools" / "proposal_census.py"
    spec = importlib.util.spec_from_file_location("proposal_census", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("growth", [None, -20.0, -5.0, 5.0, 50.0])
def test_proposal_failure_census(growth):
    """500 seeded (tree, target) draws through ``propose_set``, validated:
    no failure at all away from the g = -50 tail (CI runs the 2,000-draw
    census, g = -50 and the reference kernel included)."""
    failures = _load_census().census(growth, 500, batch=True)
    assert sum(failures.values()) == 0, dict(failures)
