"""Tests for the neighbourhood-resimulation proposal mechanism (Section 4.2–4.3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.lamarc import LamarcSampler
from repro.core.config import SamplerConfig
from repro.core.sampler import MultiProposalSampler
from repro.demography.models import ExponentialDemography
from repro.genealogy.upgma import upgma_tree
from repro.likelihood.engines import BatchedEngine
from repro.parallel.stacked import StackedMultiChain
from repro.proposals.intervals import build_intervals, extract_region, inactive_lineage_count
from repro.proposals.kinetics import IntervalKinetics
from repro.proposals.neighborhood import (
    NeighborhoodResimulator,
    ResimulationError,
    eligible_targets,
)
from repro.simulate.coalescent_sim import (
    expected_tmrca,
    expected_total_branch_length,
    simulate_genealogy,
)


class TestRegionExtraction:
    def test_region_around_interior_node(self, tiny_tree):
        # Node 4 joins tips 0 and 1; its parent is the root (6), so the
        # region is unbounded above and the sibling is node 5.
        region = extract_region(tiny_tree, 4)
        assert region.target == 4
        assert region.parent == 6
        assert not region.bounded
        assert set(region.child_roots) == {0, 1, 5}

    def test_region_bounded_case(self, rng):
        tree = simulate_genealogy(8, 1.0, rng)
        for target in eligible_targets(tree):
            region = extract_region(tree, int(target))
            if region.bounded:
                assert region.ancestor_time > max(region.child_times)
                assert region.ancestor == tree.parent[region.parent]
                return
        pytest.skip("no bounded target in this draw")

    def test_rejects_tips_and_root(self, tiny_tree):
        with pytest.raises(ValueError):
            extract_region(tiny_tree, 0)
        with pytest.raises(ValueError):
            extract_region(tiny_tree, tiny_tree.root)

    def test_eligible_targets_excludes_root(self, tiny_tree):
        targets = eligible_targets(tiny_tree)
        assert tiny_tree.root not in targets
        assert set(targets).issubset(set(tiny_tree.internal_nodes()))
        assert len(targets) == tiny_tree.n_tips - 2


class TestIntervals:
    def test_intervals_cover_region(self, rng):
        tree = simulate_genealogy(10, 1.0, rng)
        for target in eligible_targets(tree):
            region = extract_region(tree, int(target))
            intervals = build_intervals(tree, region)
            assert intervals[0].start == pytest.approx(min(region.child_times))
            if region.bounded:
                assert intervals[-1].end == pytest.approx(region.ancestor_time)
            else:
                assert np.isinf(intervals[-1].end)
            # Contiguity and total activations.
            for a, b in zip(intervals, intervals[1:]):
                assert a.end == pytest.approx(b.start)
            assert sum(iv.activations for iv in intervals) == 3

    def test_inactive_counts_bounded_by_total_lineages(self, rng):
        tree = simulate_genealogy(9, 1.0, rng)
        region = extract_region(tree, int(eligible_targets(tree)[0]))
        intervals = build_intervals(tree, region)
        for iv in intervals:
            assert 0 <= iv.n_inactive <= tree.n_tips

    def test_inactive_count_excludes_removed_edges(self, tiny_tree):
        region = extract_region(tiny_tree, 4)
        # Just above time 0.25 only the fixed structure below node 5 has
        # already coalesced, so the only fixed lineage crossing is... none:
        # every other edge is attached to the removed nodes.
        assert inactive_lineage_count(tiny_tree, region, 0.3) == 0
        # Below node 5 (t=0.25) its two tip edges are fixed and cross t=0.2.
        assert inactive_lineage_count(tiny_tree, region, 0.2) == 2


class TestKinetics:
    def test_weights_are_probabilities(self):
        kin = IntervalKinetics(n_inactive=2, theta=1.0)
        for span in (0.05, 0.5, 3.0):
            mat = kin.transition_matrix(span)
            assert np.all(mat >= 0)
            assert np.all(mat.sum(axis=1) <= 1.0 + 1e-12)  # killing removes mass

    def test_no_killing_conserves_probability(self):
        kin = IntervalKinetics(n_inactive=0, theta=1.0)
        mat = kin.transition_matrix(2.0)
        assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-9)

    def test_infinite_span_reaches_one_lineage(self):
        kin = IntervalKinetics(n_inactive=0, theta=1.0)
        assert kin.transition_weight(3, 1, np.inf) == pytest.approx(1.0)
        assert kin.transition_weight(2, 1, np.inf) == pytest.approx(1.0)
        assert kin.transition_weight(3, 2, np.inf) == 0.0

    def test_infinite_span_with_killing_less_than_one(self):
        kin = IntervalKinetics(n_inactive=3, theta=1.0)
        assert 0.0 < kin.transition_weight(3, 1, np.inf) < 1.0

    def test_single_merge_weight_matches_numerical_integral(self):
        kin = IntervalKinetics(n_inactive=2, theta=0.7)
        span = 0.8
        taus = np.linspace(0, span, 20001)
        integrand = (
            np.exp(-kin.exit_rate(3) * taus)
            * kin.merge_rate(3)
            * np.exp(-kin.exit_rate(2) * (span - taus))
        )
        numeric = np.trapezoid(integrand, taus)
        assert kin.transition_weight(3, 2, span) == pytest.approx(numeric, rel=1e-5)

    def test_double_merge_weight_matches_numerical_integral(self):
        kin = IntervalKinetics(n_inactive=1, theta=1.3)
        span = 1.1
        taus = np.linspace(0, span, 4001)
        inner = np.array([kin.transition_weight(2, 1, span - t) for t in taus])
        integrand = np.exp(-kin.exit_rate(3) * taus) * kin.merge_rate(3) * inner
        numeric = np.trapezoid(integrand, taus)
        assert kin.transition_weight(3, 1, span) == pytest.approx(numeric, rel=1e-4)

    def test_merge_time_samples_within_bounds(self, rng):
        kin = IntervalKinetics(n_inactive=2, theta=1.0)
        for a, b in ((3, 2), (2, 1), (3, 1)):
            times = kin.sample_merge_times(a, b, 0.9, rng)
            assert len(times) == a - b
            assert all(0 <= t <= 0.9 for t in times)
            assert times == sorted(times)

    def test_single_merge_time_distribution(self, rng):
        # With no inactive lineages and equal-rate states the conditional
        # merge time in [0, span] given exactly one merge is uniform-ish for
        # a tiny span and exponential-tilted otherwise; check the mean
        # against the closed-form expectation by numerical integration.
        kin = IntervalKinetics(n_inactive=0, theta=1.0)
        span, a = 0.6, 2
        lam = kin.exit_rate(2) - kin.exit_rate(1)
        taus = np.linspace(0, span, 10001)
        dens = np.exp(-lam * taus)
        dens /= np.trapezoid(dens, taus)
        expected_mean = np.trapezoid(taus * dens, taus)
        samples = [kin.sample_merge_times(a, 1, span, rng)[0] for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(expected_mean, rel=0.05)

    def test_invalid_inputs(self, rng):
        kin = IntervalKinetics(n_inactive=0, theta=1.0)
        with pytest.raises(ValueError):
            IntervalKinetics(n_inactive=0, theta=0.0)
        with pytest.raises(ValueError):
            IntervalKinetics(n_inactive=-1, theta=1.0)
        with pytest.raises(ValueError):
            kin.transition_weight(2, 1, -0.5)
        with pytest.raises(ValueError):
            kin.sample_merge_times(4, 1, 1.0, rng)
        with pytest.raises(ValueError):
            kin.sample_merge_times(3, 1, 0.0, rng)


class TestResimulation:
    def test_proposals_are_valid_trees(self, rng):
        tree = simulate_genealogy(10, 1.0, rng)
        resim = NeighborhoodResimulator(1.0, validate=True)
        for _ in range(100):
            outcome = resim.propose_random(tree, rng)
            outcome.tree.validate()
            assert outcome.tree.tip_names == tree.tip_names

    def test_only_neighbourhood_changes(self, rng):
        tree = simulate_genealogy(10, 1.0, rng)
        resim = NeighborhoodResimulator(1.0)
        outcome = resim.propose_random(tree, rng)
        changed = {outcome.region.target, outcome.region.parent}
        for node in tree.internal_nodes():
            if node not in changed:
                assert outcome.tree.times[node] == pytest.approx(tree.times[node])

    def test_proposal_does_not_mutate_current_state(self, rng):
        tree = simulate_genealogy(8, 1.0, rng)
        snapshot = tree.copy()
        NeighborhoodResimulator(1.0).propose_random(tree, rng)
        assert tree == snapshot

    def test_requires_three_tips(self, rng):
        two_tip = simulate_genealogy(2, 1.0, rng)
        resim = NeighborhoodResimulator(1.0)
        with pytest.raises(ValueError):
            resim.choose_target(two_tip, rng)

    def test_invalid_theta(self):
        with pytest.raises(ValueError):
            NeighborhoodResimulator(0.0)

    def test_topology_changes_eventually(self, rng):
        tree = simulate_genealogy(6, 1.0, rng)
        resim = NeighborhoodResimulator(1.0)
        changed = sum(resim.propose_random(tree, rng).topology_changed for _ in range(60))
        assert changed > 0

    @pytest.mark.slow
    def test_chained_proposals_sample_the_coalescent_prior(self, rng):
        """Accept-always chains with no data must converge to P(G | theta).

        This is the statistical-correctness test of the whole proposal
        machinery: the conditional resimulation is exactly the coalescent
        prior restricted to one neighbourhood, so composing it over random
        neighbourhoods has P(G | theta) as its stationary distribution.
        """
        n_tips, theta = 7, 1.4
        tree = simulate_genealogy(n_tips, theta, rng)
        resim = NeighborhoodResimulator(theta)
        heights = []
        lengths = []
        for i in range(6000):
            tree = resim.propose_random(tree, rng).tree
            if i >= 500:
                heights.append(tree.tree_height())
                lengths.append(tree.total_branch_length())
        assert np.mean(heights) == pytest.approx(expected_tmrca(n_tips, theta), rel=0.08)
        assert np.mean(lengths) == pytest.approx(
            expected_total_branch_length(n_tips, theta), rel=0.08
        )

    def test_propose_set_counter_accounting(self, rng):
        """The batched path shares one interval build + one backward pass per
        set; the reference path pays one of each per proposal.  Transition
        matrices are memoized by (n_inactive, span), so repeated builds of
        the same intervals compute each distinct matrix once."""
        tree = simulate_genealogy(8, 1.0, rng)
        target = int(eligible_targets(tree)[0])
        intervals = build_intervals(tree, extract_region(tree, target))
        distinct = len({(iv.n_inactive, iv.length) for iv in intervals})

        batched = NeighborhoodResimulator(1.0, batch_proposals=True)
        batched.propose_set(tree, target, 8, rng)
        assert batched.counters() == {
            "n_proposal_sets": 1,
            "n_interval_builds": 1,
            "n_backward_passes": 1,
            "n_proposals_generated": 8,
            "n_intervals": len(intervals),
            "n_matrix_builds": distinct,
        }

        reference = NeighborhoodResimulator(1.0, batch_proposals=False)
        reference.propose_set(tree, target, 8, rng)
        assert reference.counters() == {
            "n_proposal_sets": 1,
            "n_interval_builds": 8,
            "n_backward_passes": 8,
            "n_proposals_generated": 8,
            "n_intervals": 8 * len(intervals),
            "n_matrix_builds": distinct,
        }

    def test_memoized_matrices_are_read_only(self, rng):
        tree = simulate_genealogy(6, 1.0, rng)
        resim = NeighborhoodResimulator(1.0)
        ctx = resim._build_set_context(tree, int(eligible_targets(tree)[0]))
        with pytest.raises(ValueError):
            ctx.matrices[0][0, 0] = 1.0

    @pytest.mark.parametrize("runner", ["gmh", "lamarc", "stacked"])
    def test_run_extras_count_intervals_and_matrix_builds(
        self, small_dataset, uniform_model, runner
    ):
        """The interval and matrix-build counters reach every chain's
        ``proposal_counters``, and a chain revisits enough intervals that
        the matrix memo computes fewer matrices than it serves."""
        engine = BatchedEngine(alignment=small_dataset.alignment, model=uniform_model)
        cfg = SamplerConfig(n_samples=40, burn_in=10, n_proposals=4)
        tree = upgma_tree(small_dataset.alignment, driving_theta=1.0)
        rng = np.random.default_rng(5)
        if runner == "gmh":
            result = MultiProposalSampler(engine, theta=1.0, config=cfg).run(tree, rng)
        elif runner == "lamarc":
            result = LamarcSampler(engine, 1.0, cfg).run(tree, rng)
        else:
            result = StackedMultiChain(lambda: engine, 1.0, 2, cfg).run(tree, rng)
        counters = result.extras["proposal_counters"]
        assert 0 < counters["n_matrix_builds"] < counters["n_intervals"]

    @pytest.mark.parametrize(
        "demography",
        [None, ExponentialDemography(growth=50.0)],
        ids=["constant", "growth50"],
    )
    def test_batched_matches_reference_distribution(self, rng, demography):
        """Batched and reference kernels draw from the same distribution.

        Compared on a fixed (tree, target): the two merge-time marginals and
        the topology-change rate, with z-score tolerances sized for the
        sample counts (5-sigma, so the test is stable across seeds while
        still catching any systematic discrepancy).
        """
        tree = simulate_genealogy(7, 1.0, rng)
        target = int(eligible_targets(tree)[1])
        n_sets, per_set = 120, 25

        stats = {}
        for name, batch, seed in (("batched", True, 7), ("reference", False, 8)):
            resim = NeighborhoodResimulator(
                1.0, demography=demography, batch_proposals=batch
            )
            local = np.random.default_rng(seed)
            t1, t2, topo = [], [], []
            for _ in range(n_sets):
                for outcome in resim.propose_set(tree, target, per_set, local):
                    a, b = sorted(outcome.new_times)
                    t1.append(a)
                    t2.append(b)
                    topo.append(outcome.topology_changed)
            stats[name] = (np.asarray(t1), np.asarray(t2), np.asarray(topo, dtype=float))

        for idx, label in ((0, "first merge"), (1, "second merge"), (2, "topology")):
            xb, xr = stats["batched"][idx], stats["reference"][idx]
            se = np.sqrt(xb.var() / xb.size + xr.var() / xr.size)
            z = abs(xb.mean() - xr.mean()) / max(se, 1e-12)
            assert z < 5.0, f"{label}: batched {xb.mean()} vs reference {xr.mean()} (z={z:.1f})"

    def test_demography_merge_times_stay_inside_region(self, rng):
        """Bugfix: the Lambda -> Lambda-inverse roundtrip must never push a
        merge outside the feasible range (below an activation time)."""
        demography = ExponentialDemography(growth=50.0)
        tree = simulate_genealogy(8, 1.0, rng)
        for batch in (False, True):
            resim = NeighborhoodResimulator(
                1.0, validate=True, demography=demography, batch_proposals=batch
            )
            for target in (int(t) for t in eligible_targets(tree)):
                region = extract_region(tree, target)
                lo = min(region.child_times)
                for outcome in resim.propose_set(tree, target, 6, rng):
                    t1, t2 = sorted(outcome.new_times)
                    assert t1 >= lo
                    if region.bounded:
                        assert t2 < region.ancestor_time

    def test_stitch_raises_diagnostic_when_lineages_exhausted(self, rng):
        """Bugfix: running out of activatable lineages must raise a
        diagnostic ResimulationError, not an opaque IndexError."""
        tree = simulate_genealogy(6, 1.0, rng)
        target = int(eligible_targets(tree)[0])
        region = extract_region(tree, target)
        new = tree.copy()
        # Three merge events against three child roots: the third merge has
        # a single active lineage left and nothing pending to activate.
        bogus = [float(max(region.child_times)) + dt for dt in (0.01, 0.02, 0.03)]
        with pytest.raises(ResimulationError, match="fewer than two lineages"):
            NeighborhoodResimulator._stitch(
                new.times, new.parent, new.children, region, bogus,
                lambda event_index, n_active: (0, 1),
            )

    def test_bounded_squeeze_rechecks_child_bound(self, rng):
        """Bugfix: squeezing the top merge under the ancestor must keep it
        strictly above its own children — and raise when no window exists."""
        tree = simulate_genealogy(8, 1.0, rng)
        bounded_target = None
        for target in (int(t) for t in eligible_targets(tree)):
            if extract_region(tree, target).bounded:
                bounded_target = target
                break
        assert bounded_target is not None
        region = extract_region(tree, bounded_target)
        upper = region.ancestor_time

        # A top merge past the ancestor but with room below: squeezed into
        # the open window (child_max, upper).
        new = tree.copy()
        t1 = min(region.child_times) + 0.9 * (upper - min(region.child_times))
        (na, nb), _ = NeighborhoodResimulator._stitch(
            new.times, new.parent, new.children, region,
            [t1, upper + 1.0],
            lambda event_index, n_active: (0, 1),
        )
        top = na if new.parent[na] == region.ancestor else nb
        assert t1 < new.times[top] < upper

        # First merge exactly at the ancestor time: the squeeze window is
        # empty and the stitch must refuse with a diagnostic error.
        new = tree.copy()
        with pytest.raises(ResimulationError, match="empty window"):
            NeighborhoodResimulator._stitch(
                new.times, new.parent, new.children, region,
                [upper, upper + 1.0],
                lambda event_index, n_active: (0, 1),
            )

    def test_degenerate_double_merge_uses_triangular_limit(self):
        """Bugfix: when the closed-form CDF underflows on a tiny span, the
        first-of-double fallback must follow the triangular lambda -> 0
        limit g(tau) proportional to (span - tau), not a uniform draw."""
        kin = IntervalKinetics(n_inactive=0, theta=1.0)
        span = 1e-9

        class _ZeroCdf(IntervalKinetics):
            def _double_merge_cdf(self, s):
                return (lambda t: 0.0), 0.0

        forced = _ZeroCdf(n_inactive=0, theta=1.0)
        rng = np.random.default_rng(12)
        scalar = np.array(
            [forced._sample_first_of_double(span, rng) for _ in range(20000)]
        )
        batch = forced.sample_first_of_double_batch(
            span, 20000, np.random.default_rng(13), cdf_total=((lambda t: 0.0), 0.0)
        )
        for samples in (scalar, batch):
            # Triangular on [0, span]: mean span/3, P(tau < span/2) = 3/4.
            assert np.all((samples >= 0) & (samples <= span))
            assert np.mean(samples) == pytest.approx(span / 3.0, rel=0.03)
            assert np.mean(samples < span / 2.0) == pytest.approx(0.75, abs=0.02)
        del kin

    def test_batched_gmh_recovers_coalescent_prior(self):
        """Uniform-weight GMH with batched proposal sets samples the prior.

        With every index weight equal, the GMH chain's stationary
        distribution is exactly P(G | theta); the expected tree height for n
        tips is theta * sum 1/(k(k-1)).  This exercises the full batched
        propose_set -> set selection composition, not just per-proposal
        marginals.
        """
        n_tips, theta = 6, 1.0
        rng = np.random.default_rng(303)
        tree = simulate_genealogy(n_tips, theta, rng)
        resim = NeighborhoodResimulator(theta, batch_proposals=True)
        heights = []
        for i in range(6000):
            target = resim.choose_target(tree, rng)
            outcomes = resim.propose_set(tree, target, 4, rng)
            idx = int(rng.integers(len(outcomes) + 1))
            if idx < len(outcomes):
                tree = outcomes[idx].tree
            if i >= 500:
                heights.append(tree.tree_height())
        assert np.mean(heights) == pytest.approx(
            expected_tmrca(n_tips, theta), rel=0.08
        )

    def test_unbounded_region_can_raise_root(self, rng):
        """Targeting a child of the root must allow the tree to grow taller."""
        tree = simulate_genealogy(6, 1.0, rng)
        resim = NeighborhoodResimulator(1.0)
        root_child_targets = [
            int(c) for c in tree.children[tree.root] if not tree.is_tip(int(c))
        ]
        assert root_child_targets, "simulated tree should have an internal root child"
        target = root_child_targets[0]
        taller = 0
        for _ in range(100):
            outcome = resim.propose(tree, target, rng)
            if outcome.tree.tree_height() > tree.tree_height():
                taller += 1
        assert taller > 0
