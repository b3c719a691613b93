"""Tests for the neighbourhood-resimulation proposal mechanism (Section 4.2–4.3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.lamarc import LamarcSampler
from repro.brent import brentq
from repro.core.config import SamplerConfig
from repro.core.sampler import MultiProposalSampler
from repro.demography.models import ExponentialDemography
from repro.genealogy.upgma import upgma_tree
from repro.likelihood.engines import BatchedEngine
from repro.parallel.stacked import StackedMultiChain
from repro.proposals.intervals import build_intervals, extract_region, inactive_lineage_count
from repro.proposals.kinetics import (
    _DoubleMergeCdf,
    exit_rates,
    invert_first_of_doubles,
    invert_single_merges,
    transition_matrices,
)
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

from reference_kernel import IntervalKinetics, ReferenceResimulator


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
            assert intervals.starts[0] == pytest.approx(min(region.child_times))
            if region.bounded:
                assert intervals.ends[-1] == pytest.approx(region.ancestor_time)
            else:
                assert np.isinf(intervals.ends[-1])
            # Contiguity and total activations.
            assert np.allclose(intervals.ends[:-1], intervals.starts[1:])
            assert intervals.activations.sum() == 3

    def test_inactive_counts_bounded_by_total_lineages(self, rng):
        tree = simulate_genealogy(9, 1.0, rng)
        region = extract_region(tree, int(eligible_targets(tree)[0]))
        intervals = build_intervals(tree, region)
        assert np.all((0 <= intervals.n_inactive) & (intervals.n_inactive <= tree.n_tips))

    def test_inactive_count_excludes_removed_edges(self, tiny_tree):
        region = extract_region(tiny_tree, 4)
        # Just above time 0.25 only the fixed structure below node 5 has
        # already coalesced, so the only fixed lineage crossing is... none:
        # every other edge is attached to the removed nodes.
        assert inactive_lineage_count(tiny_tree, region, 0.3) == 0
        # Below node 5 (t=0.25) its two tip edges are fixed and cross t=0.2.
        assert inactive_lineage_count(tiny_tree, region, 0.2) == 2


#: (n_inactive, θ, Δ, (S₂₁, S₃₂, S₃₁), (log S₂₁, log S₃₂, log S₃₁)), evaluated
#: at 120 significant digits with mpmath from the textbook forms:
#: S_{a,a−1} = μ_a e^{-ρ_{a−1}Δ}(1 − e^{-(ρ_a−ρ_{a−1})Δ})/(ρ_a − ρ_{a−1}) and
#: S₃₁ = μ₃μ₂ Σ_i e^{-ρ_iΔ}/Π_{j≠i}(ρ_j − ρ_i) over i, j ∈ {1, 2, 3}
#: (checked against adaptive quadrature of μ₃e^{-ρ₃τ}S₂₁(Δ − τ) at Δ = 0.37),
#: then rounded to the nearest double.  Linear entries of 0.0 underflow.
_REFERENCE_WEIGHTS = [
    (0, 0.05, 1e-14, (3.9999999999992e-13, 1.1999999999990399e-12, 2.39999999999872e-25),
     (-28.547311847802902, -27.448699559135395, -56.68915858749777)),
    (0, 0.05, 0.37, (0.999999626370062, 5.604449069827118e-07, 0.9999994395550931),
     (-3.7363000778820933e-07, -14.394534891891974, -5.604450640320695e-07)),
    (0, 0.05, 1e6, (1.0, 0.0, 1.0), (0.0, -39999999.59453489, 0.0)),
    (3, 1.0, 1e-14, (1.9999999999998e-14, 5.99999999999886e-14, 5.99999999999912e-28),
     (-31.543044121356793, -30.444431832688775, -62.68062313460537)),
    (3, 1.0, 0.37, (0.02574527560263848, 0.0032933173493053833, 0.008215834384290006),
     (-3.659504140447586, -5.715859909352031, -4.801691964264744)),
    (3, 1.0, 1e6, (0.0, 0.0, 0.0), (-6000001.386294361, -14000000.510825625, -6000002.48490665)),
    (10, 7.0, 1e-14, (2.8571428571427304e-15, 8.571428571427911e-15, 1.2244897959182927e-29),
     (-33.48895427041205, -32.39034198174397, -66.57244343271591)),
    (10, 7.0, 0.37, (0.021712544609270676, 0.019516158210261324, 0.0019835424181543783),
     (-3.829865092873758, -3.936512530366318, -6.222870932730929)),
    (10, 7.0, 1e6, (0.0, 0.0, 0.0), (-2857145.25503813, -6000001.386294361, -2857147.291920057)),
]


class TestKinetics:
    def test_weights_are_probabilities(self):
        rates = exit_rates(np.full(3, 2), 1.0)
        for mat in transition_matrices(rates, np.array([0.05, 0.5, 3.0]), 1.0):
            assert np.all(mat >= 0)
            assert np.all(mat.sum(axis=1) <= 1.0 + 1e-12)  # killing removes mass

    def test_no_killing_conserves_probability(self):
        mat = transition_matrices(exit_rates(np.array([0]), 1.0), np.array([2.0]), 1.0)[0]
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

    @pytest.mark.parametrize("log", [False, True], ids=["linear", "log"])
    def test_weights_match_high_precision_references(self, log):
        """S₂₁, S₃₂ and S₃₁ of the scalar forms and of the array program
        within 1e-12 relative of 120-digit references (log weights within
        1e-12 of max(1, |ref|)); underflowed linear weights are exactly 0."""
        for n_inactive, theta, span, linear, logs in _REFERENCE_WEIGHTS:
            kin = IntervalKinetics(n_inactive=n_inactive, theta=theta)
            scalar = kin.log_transition_weight if log else kin.transition_weight
            matrix = transition_matrices(
                exit_rates(np.array([n_inactive]), theta), np.array([span]), theta, log=log
            )[0]
            for (a, b), want in zip(((2, 1), (3, 2), (3, 1)), logs if log else linear):
                for got in (scalar(a, b, span), matrix[a - 1, b - 1]):
                    cell = (n_inactive, theta, span, a, b, float(got), want)
                    if log:
                        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), cell
                    elif want == 0.0:
                        assert got == 0.0, cell
                    else:
                        assert abs(got - want) <= 1e-12 * want, cell

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
        set; the reference path pays one of each per proposal."""
        tree = simulate_genealogy(8, 1.0, rng)
        target = int(eligible_targets(tree)[0])
        n_intervals = len(build_intervals(tree, extract_region(tree, target)))

        batched = NeighborhoodResimulator(1.0)
        batched.propose_set(tree, target, 8, rng)
        assert batched.counters() == {
            "n_proposal_sets": 1,
            "n_interval_builds": 1,
            "n_backward_passes": 1,
            "n_proposals_generated": 8,
            "n_intervals": n_intervals,
        }

        reference = ReferenceResimulator(1.0)
        reference.propose_set(tree, target, 8, rng)
        assert reference.counters() == {
            "n_proposal_sets": 1,
            "n_interval_builds": 8,
            "n_backward_passes": 8,
            "n_proposals_generated": 8,
            "n_intervals": 8 * n_intervals,
        }

    @pytest.mark.parametrize("runner", ["gmh", "lamarc", "stacked"])
    def test_run_extras_count_intervals(self, small_dataset, uniform_model, runner):
        """The interval counters reach every chain's ``proposal_counters``:
        one interval build and one backward pass per proposal set."""
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
        assert counters["n_proposal_sets"] > 0
        assert counters["n_interval_builds"] == counters["n_proposal_sets"]
        assert counters["n_backward_passes"] == counters["n_proposal_sets"]
        assert counters["n_intervals"] >= counters["n_interval_builds"]

    @pytest.mark.parametrize(
        "demography",
        [None, ExponentialDemography(growth=50.0), ExponentialDemography(growth=-5.0)],
        ids=["constant", "growth50", "decline5"],
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
        for name, kernel, seed in (
            ("batched", NeighborhoodResimulator, 7),
            ("reference", ReferenceResimulator, 8),
        ):
            resim = kernel(1.0, demography=demography)
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
        for kernel in (ReferenceResimulator, NeighborhoodResimulator):
            resim = kernel(1.0, validate=True, demography=demography)
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
            ReferenceResimulator._stitch(
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
        (na, nb), _ = ReferenceResimulator._stitch(
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
            ReferenceResimulator._stitch(
                new.times, new.parent, new.children, region,
                [upper, upper + 1.0],
                lambda event_index, n_active: (0, 1),
            )

    def test_degenerate_double_merge_uses_triangular_limit(self):
        """Bugfix: when the closed-form CDF underflows on a tiny span, the
        first-of-double fallback must follow the triangular lambda -> 0
        limit g(tau) proportional to (span - tau), not a uniform draw.  At
        span 1e-20 the closed form cancels to exactly zero, in the scalar
        sampler and in the set kernel's solve alike."""
        kin = IntervalKinetics(n_inactive=0, theta=1.0)
        span = 1e-20
        assert kin._double_merge_cdf(span)[1] == 0.0
        rng = np.random.default_rng(12)
        scalar = np.array([kin._sample_first_of_double(span, rng) for _ in range(20000)])
        batch = invert_first_of_doubles(
            exit_rates(np.zeros(20000, dtype=np.int64), 1.0),
            np.full(20000, span),
            np.random.default_rng(13).random(20000),
            1.0,
        )
        for samples in (scalar, batch):
            # Triangular on [0, span]: mean span/3, P(tau < span/2) = 3/4.
            assert np.all((samples >= 0) & (samples <= span))
            assert np.mean(samples) == pytest.approx(span / 3.0, rel=0.03)
            assert np.mean(samples < span / 2.0) == pytest.approx(0.75, abs=0.02)

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
        resim = NeighborhoodResimulator(theta)
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
        for outcome in resim.propose_set(tree, target, 100, rng):
            if outcome.tree.tree_height() > tree.tree_height():
                taller += 1
        assert taller > 0


class TestSetKernel:
    """The proposal-set array program against its scalar forms."""

    @pytest.mark.parametrize("n", [1, 4, 16])
    @pytest.mark.parametrize(
        "demography", [None, ExponentialDemography(growth=5.0)], ids=["constant", "growth5"]
    )
    def test_set_draws_exactly_one_block(self, n, demography):
        """A set of n siblings over M intervals advances the stream by n(M + 4) doubles."""
        resim = NeighborhoodResimulator(1.0, demography=demography)
        for seed in range(6):
            tree = simulate_genealogy(9, 1.0, np.random.default_rng(seed))
            for target in (int(t) for t in eligible_targets(tree)):
                n_intervals = len(build_intervals(tree, extract_region(tree, target)))
                used = np.random.default_rng(seed + 100)
                resim.propose_set(tree, target, n, used)
                fresh = np.random.default_rng(seed + 100)
                fresh.random(n * (n_intervals + 4))
                assert used.random() == fresh.random()

    @pytest.mark.parametrize(
        "demography", [None, ExponentialDemography(growth=5.0)], ids=["constant", "growth5"]
    )
    def test_stacked_chains_consume_their_streams_as_solo_runs(self, demography):
        """``propose_random_stack`` (n = 1 per chain) equals each chain's solo
        ``propose_random``, and leaves every stream where the solo run does."""
        resim = NeighborhoodResimulator(1.0, demography=demography)
        trees = [simulate_genealogy(7 + i, 1.0, np.random.default_rng(i)) for i in range(4)]
        stack_rngs = [np.random.default_rng([9, i]) for i in range(4)]
        solo_rngs = [np.random.default_rng([9, i]) for i in range(4)]
        for _ in range(5):
            stacked = resim.propose_random_stack(trees, stack_rngs)
            solo = [resim.propose_random(t, r) for t, r in zip(trees, solo_rngs)]
            for a, b in zip(stacked, solo):
                assert a.tree.times.tobytes() == b.tree.times.tobytes()
                assert np.array_equal(a.tree.children, b.tree.children)
            trees = [outcome.tree for outcome in stacked]
        assert [r.random() for r in stack_rngs] == [r.random() for r in solo_rngs]

    @pytest.mark.parametrize("theta", [0.3, 1.0, 4.0])
    @pytest.mark.parametrize("log", [False, True], ids=["linear", "log"])
    def test_matrices_match_scalar_weights(self, theta, log):
        """Every entry within 1e-12 relative of ``(log_)transition_weight``;
        zeros and -inf exactly."""
        spans = np.array([0.0, 1e-14, 0.37, 2.5, 1e6, np.inf])
        for n_inactive in range(11):
            kin = IntervalKinetics(n_inactive=n_inactive, theta=theta)
            scalar = kin.log_transition_weight if log else kin.transition_weight
            rates = exit_rates(np.full(spans.size, n_inactive), theta)
            got = transition_matrices(rates, spans, theta, log=log)
            for m, span in enumerate(spans.tolist()):
                for a in (1, 2, 3):
                    for b in (1, 2, 3):
                        want = scalar(a, b, span)
                        value = got[m, a - 1, b - 1]
                        if want == 0.0 or not np.isfinite(want):
                            assert value == want, (n_inactive, span, a, b)
                        else:
                            assert abs(value - want) <= 1e-12 * abs(want), (n_inactive, span, a, b)

    def test_single_inversion_matches_scalar_law(self):
        """Bounded spans: the truncated-exponential inversion of
        ``_sample_single_merge`` for the same uniform."""
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, k = int(rng.integers(2, 4)), int(rng.integers(0, 11))
            theta, span, u = 10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-6, 1), rng.random()
            kin = IntervalKinetics(n_inactive=k, theta=theta)
            # The scalar sampler draws its uniform first on a bounded span.
            want = kin._sample_single_merge(a, span, _FixedUniform(u))
            got = invert_single_merges(
                np.array([kin.exit_rate(a)]),
                np.array([kin.exit_rate(a - 1)]),
                np.array([span]),
                np.array([u]),
            )[0]
            assert got == pytest.approx(want, rel=1e-12)

    def test_double_cdf_bits_do_not_depend_on_near_neighbours(self):
        """Elements away from ρ₂ ≈ ρ₁ get the same CDF and density bits on the
        plain path (no ρ₂ ≈ ρ₁ element in the call) as on the masked path."""
        theta = 5e12  # ρ₂ ≈ ρ₁ for n_inactive 0 and 1, not for 2 and up
        k = np.array([0, 2, 1, 10, 2, 5])
        spans = np.array([1e12, 3e11, 2e13, 4e12, 8e12, 1e13])
        tau = spans * np.array([0.3, 0.9, 0.5, 0.01, 0.6, 0.99])
        far = k >= 2
        mixed = _DoubleMergeCdf(exit_rates(k, theta), spans, theta)
        alone = _DoubleMergeCdf(exit_rates(k[far], theta), spans[far], theta)
        assert not mixed.plain and alone.plain
        for got, want in zip(mixed(tau), alone(tau[far])):
            assert got[far].tobytes() == want.tobytes()
        assert mixed.total[far].tobytes() == alone.total.tobytes()

    def test_double_solve_matches_brentq(self):
        """The Newton solve against ``brentq`` on the scalar CDF, within its
        xtol, plus the scalar fallbacks where the closed form underflows:
        a subnormal scale on long spans (truncated exponential) and
        cancellation to zero on tiny spans (triangular limit).  The grid
        keeps to where the closed form itself is accurate to well inside
        xtol; near a root close to the span end on spans below ~1e-7, or
        at θ ~ 1e12, its rounding moves roots by more than that, for
        ``brentq`` and the solve alike."""
        grid = [
            (k, theta, span, u)
            for k in (0, 1, 4, 10)
            for theta in (0.3, 1.0, 4.0)
            for span in (1e-6, 1e-3, 0.05, 0.4, 2.0, 12.0)
            for u in (0.01, 0.3, 0.6, 0.9)
        ]
        grid += [(k, 0.3, 200.0, u) for k in (2, 10) for u in (0.2, 0.7)]  # underflow
        grid += [(0, 1.0, 1e-20, u) for u in (0.2, 0.7)]  # triangular limit
        # θ so large that ρ₂ ≈ ρ₁ and λ ≈ 0: the closed form's second branch.
        grid += [(k, 1e14, span, u) for k in (0, 3) for span in (10.0, 1e5, 1e9) for u in (0.3, 0.9)]
        k, theta, span, u = (np.array(col) for col in zip(*grid))
        for th in np.unique(theta):
            rows = theta == th
            rates = exit_rates(k[rows], float(th))
            got = invert_first_of_doubles(rates, span[rows], u[rows], float(th))
            for kk, sp, uu, value in zip(k[rows], span[rows], u[rows], got):
                kin = IntervalKinetics(n_inactive=int(kk), theta=float(th))
                cdf, total = kin._double_merge_cdf(float(sp))
                if total <= 0.0:
                    # The scalar fallback, fed the same uniform.
                    want = kin._sample_first_of_double(float(sp), _FixedUniform(uu))
                    assert value == pytest.approx(want, rel=1e-12)
                    continue
                xtol = 1e-14 * max(sp, 1.0)
                want = brentq(lambda t: cdf(t) - uu * total, 0.0, float(sp), xtol=xtol)
                assert abs(value - want) <= xtol + 4 * np.finfo(float).eps * want, (kk, th, sp, uu)
        # The grid reaches the underflow branch.
        assert IntervalKinetics(n_inactive=10, theta=0.3)._double_merge_cdf(200.0)[1] == 0.0

    def test_one_group_solve_keeps_pinned_bits(self):
        """Two double-merge solves captured from a 48-tip growth (g = 2)
        proposal stream, the em-deep regime, give the bits pinned before the
        solve took group labels, with and without an explicit single group."""
        captured = [
            (
                [
                    ["0x1.2p+4", "0x1.2p+4", "0x1.2p+4", "0x1.0p+4"],
                    ["0x1.3p+5", "0x1.3p+5", "0x1.3p+5", "0x1.1p+5"],
                    ["0x1.ep+5", "0x1.ep+5", "0x1.ep+5", "0x1.bp+5"],
                ],
                ["0x1.5d89fde4051dcp-5"] * 3 + ["0x1.6226a90011b40p-7"],
                ["0x1.1d1c33f1ba0bep-2", "0x1.1cf8a1f426096p-2",
                 "0x1.e9e95525a56f3p-1", "0x1.099611ef35210p-3"],
                ["0x1.22078e3f6b86dp-8", "0x1.21de42a382e90p-8",
                 "0x1.ecd1585eb70d6p-6", "0x1.594ce2769a6c3p-11"],
            ),
            (
                [
                    ["0x1.0p+6"] + ["0x1.dp+5"] * 5,
                    ["0x1.04p+7"] + ["0x1.d8p+6"] * 5,
                    ["0x1.8cp+7"] + ["0x1.68p+7"] * 5,
                ],
                ["0x1.83ba7c66d2770p-11"] + ["0x1.35546fd7caabcp-8"] * 5,
                ["0x1.f8af3bebaec40p-3", "0x1.19fc7250cfed5p-1", "0x1.e124cb944edc2p-1",
                 "0x1.90f8f732286a8p-2", "0x1.22577f765c177p-1", "0x1.8b9e4e2c493e2p-1"],
                ["0x1.9070f887c1fe7p-14", "0x1.71cf9f053a98bp-10", "0x1.c167d5e24ed6ap-9",
                 "0x1.e6435343b252bp-11", "0x1.803a7c37a2854p-10", "0x1.2d5999955c82dp-9"],
            ),
        ]

        def floats(values):
            return np.array([float.fromhex(v) for v in values])

        for rates, spans, u, want in captured:
            rates = np.array([floats(row) for row in rates])
            spans, u, want = floats(spans), floats(u), floats(want)
            one = np.zeros(spans.size, dtype=np.int64)
            assert invert_first_of_doubles(rates, spans, u, 1.0).tobytes() == want.tobytes()
            assert invert_first_of_doubles(rates, spans, u, 1.0, one).tobytes() == want.tobytes()

    def test_grouped_solve_matches_each_group_alone(self):
        """Two groups solved in one call, their elements interleaved, get
        bitwise what each group gets solved alone; solved as one group, some
        draws do not (a settled element keeps stepping while the rest of its
        group converges)."""
        shared = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            k = rng.integers(0, 12, 12)
            spans = 10 ** rng.uniform(-4, 0.5, 12)
            u = rng.random(12)
            groups = rng.permutation(np.repeat([0, 1], 6))
            rates = exit_rates(k, 1.0)
            together = invert_first_of_doubles(rates, spans, u, 1.0, groups)
            alone = np.empty(12)
            for g in (0, 1):
                rows = groups == g
                alone[rows] = invert_first_of_doubles(rates[:, rows], spans[rows], u[rows], 1.0)
            assert together.tobytes() == alone.tobytes(), seed
            shared += invert_first_of_doubles(rates, spans, u, 1.0).tobytes() != alone.tobytes()
        assert shared > 0

    @pytest.mark.parametrize("seed", range(8))
    def test_block_stitch_matches_reference_stitch(self, seed):
        """Each row of the stitched block is the tree ``_stitch`` builds from
        the same merge times and pair uniform."""
        rng = np.random.default_rng(seed)
        tree = simulate_genealogy(8, 1.0, rng)
        resim = NeighborhoodResimulator(1.0, validate=True)
        for target in (int(t) for t in eligible_targets(tree)):
            ctx = resim._build_set_context([tree], [target])
            uniforms = rng.random((12, len(ctx.intervals[0]) + 4))
            offsets, owner = resim._forward_block(ctx, uniforms[None])
            merge_times = resim._offsets_to_calendar(ctx, offsets, owner)[0]
            pair_u = uniforms[:, -2:]
            (outcomes,) = resim._stitch_block(ctx, merge_times[None], pair_u[None])
            region = ctx.regions.rows()[0]
            for i, outcome in enumerate(outcomes):
                ref = tree.copy()

                def choose_pair(event_index, n_active, u=pair_u[i]):
                    if n_active == 2:
                        return 0, 1
                    return ((0, 1), (0, 2), (1, 2))[min(int(u[event_index] * 3.0), 2)]

                new_nodes, first_pair = ReferenceResimulator._stitch(
                    ref.times, ref.parent, ref.children, region, merge_times[i], choose_pair
                )
                assert outcome.tree.times.tobytes() == ref.times.tobytes()
                assert np.array_equal(outcome.tree.parent, ref.parent)
                assert np.array_equal(outcome.tree.children, ref.children)
                assert outcome.new_times == (ref.times[new_nodes[0]], ref.times[new_nodes[1]])
                assert outcome.topology_changed == ReferenceResimulator._topology_changed(
                    tree, region, first_pair
                )


class TestStackedProgram:
    """A stack of chains proposes as one program, and each chain gets its solo bits."""

    @pytest.mark.parametrize("n_tips", [12, 48])
    @pytest.mark.parametrize(
        "growth", [None, 5.0, -5.0], ids=["constant", "growth5", "decline5"]
    )
    def test_stack_equals_solo_grid(self, n_tips, growth):
        """K = 1, 2, 4 and 8 chains, 30 seeds and 20 rounds of trees that
        advance to their proposals: each chain's times, children, new times
        and topology flag equal its solo ``propose_random`` bitwise, its
        stream ends where the solo run's does, and the stack's counters are
        the solo chains' sums.  A chain's solo run does not depend on K, so
        the first K of eight solo runs serve every stack width."""
        demography = None if growth is None else ExponentialDemography(growth=growth)
        widths, n_rounds = (1, 2, 4, 8), 20
        for seed in range(30):
            starts = [
                simulate_genealogy(n_tips, 1.0, np.random.default_rng([seed, i])) for i in range(8)
            ]
            solo_resims = [NeighborhoodResimulator(1.0, demography=demography) for _ in range(8)]
            solo_rngs = [np.random.default_rng([seed, 100 + i]) for i in range(8)]
            solo_trees, solo = list(starts), []
            for _ in range(n_rounds):
                outcomes = [
                    r.propose_random(t, g) for r, t, g in zip(solo_resims, solo_trees, solo_rngs)
                ]
                solo.append(outcomes)
                solo_trees = [o.tree for o in outcomes]
            for width in widths:
                resim = NeighborhoodResimulator(1.0, demography=demography)
                rngs = [np.random.default_rng([seed, 100 + i]) for i in range(width)]
                trees = starts[:width]
                for round_outcomes in solo:
                    stacked = resim.propose_random_stack(trees, rngs)
                    for a, b in zip(stacked, round_outcomes):
                        assert a.tree.times.tobytes() == b.tree.times.tobytes(), (seed, width)
                        assert np.array_equal(a.tree.children, b.tree.children)
                        assert a.new_times == b.new_times
                        assert a.topology_changed == b.topology_changed
                    trees = [o.tree for o in stacked]
                # Stream positions: every stacked stream continues as the solo one.
                for i, rng in enumerate(rngs):
                    assert rng.bit_generator.state == solo_rngs[i].bit_generator.state
                totals = {
                    key: sum(r.counters()[key] for r in solo_resims[:width])
                    for key in resim.counters()
                }
                assert resim.counters() == totals

    @pytest.mark.parametrize(
        "growth", [None, 5.0, -5.0], ids=["constant", "growth5", "decline5"]
    )
    def test_stacked_context_rows_are_solo_contexts(self, growth):
        """Every array of a stack's set context, cut to set k's own interval
        count, is set k's solo context bitwise — the backward pass's goal
        table included, zeros' signs too."""
        demography = None if growth is None else ExponentialDemography(growth=growth)
        resim = NeighborhoodResimulator(1.0, demography=demography)
        for seed in range(20):
            trees = [
                simulate_genealogy(12, 1.0, np.random.default_rng([seed, i])) for i in range(5)
            ]
            rng = np.random.default_rng(seed)
            targets = [resim.choose_target(t, rng) for t in trees]
            ctx = resim._build_set_context(trees, targets)
            assert len(set(ctx.intervals.counts.tolist())) > 1
            for k, (tree, target) in enumerate(zip(trees, targets)):
                solo = resim._build_set_context([tree], [target])
                m = int(ctx.intervals.counts[k])
                assert solo.spans.shape == (1, m)
                for name in ("spans", "matrices", "shifted"):
                    assert getattr(ctx, name)[k, :m].tobytes() == getattr(solo, name)[0].tobytes()
                assert ctx.rates[:, k, :m].tobytes() == solo.rates[:, 0].tobytes()
                assert ctx.goal[k, : m + 1].tobytes() == solo.goal[0].tobytes(), (seed, k)

    @pytest.mark.parametrize(
        "demography", [None, ExponentialDemography(growth=50.0)], ids=["constant", "growth50"]
    )
    def test_dead_chain_stops_the_stack_as_it_stops_its_solo_call(self, demography):
        """A chain whose goal table has no valid finish (as in
        ``test_forced_dead_end_raises``) raises the dead-end error of its
        solo call from inside a stack; its neighbours alone do not."""
        trees = [simulate_genealogy(6 + i, 1.0, np.random.default_rng(4 + i)) for i in range(3)]
        dead_tree = trees[1]
        resim = NeighborhoodResimulator(1.0, demography=demography)
        build = resim._build_set_context

        def kill_dead_tree(stack_trees, targets):
            ctx = build(stack_trees, targets)
            for k, tree in enumerate(stack_trees):
                if tree is dead_tree:
                    ctx.goal[k] = -np.inf if ctx.log_space else 0.0
            return ctx

        resim._build_set_context = kill_dead_tree
        same_tips = [simulate_genealogy(7, 1.0, np.random.default_rng(s)) for s in (8, 9)]
        for stack in (trees, [same_tips[0], dead_tree, same_tips[1]]):
            rngs = [np.random.default_rng([5, i]) for i in range(3)]
            with pytest.raises(RuntimeError) as stacked:
                resim.propose_random_stack(stack, rngs)
            with pytest.raises(RuntimeError) as solo:
                resim.propose_random(dead_tree, np.random.default_rng([5, 1]))
            assert type(stacked.value) is type(solo.value)
            assert str(stacked.value) == str(solo.value)
            assert str(solo.value) == "conditioned resimulation reached a dead end"
        alive = [same_tips[0], same_tips[1]]
        resim.propose_random_stack(alive, [np.random.default_rng(i) for i in range(2)])

    def test_reference_stack_runs_the_oracle_per_chain(self):
        """``ReferenceResimulator.propose_random_stack`` is each chain's solo
        oracle call in turn: the same bits and streams, and one interval
        build per proposal."""
        trees = [simulate_genealogy(8, 1.0, np.random.default_rng(i)) for i in range(3)]
        stacked_resim, solo_resim = ReferenceResimulator(1.0), ReferenceResimulator(1.0)
        stack_rngs = [np.random.default_rng([3, i]) for i in range(3)]
        solo_rngs = [np.random.default_rng([3, i]) for i in range(3)]
        for _ in range(4):
            stacked = stacked_resim.propose_random_stack(trees, stack_rngs)
            solo = [solo_resim.propose_random(t, r) for t, r in zip(trees, solo_rngs)]
            for a, b in zip(stacked, solo):
                assert a.tree.times.tobytes() == b.tree.times.tobytes()
                assert np.array_equal(a.tree.children, b.tree.children)
            trees = [o.tree for o in stacked]
        assert [r.random() for r in stack_rngs] == [r.random() for r in solo_rngs]
        assert stacked_resim.counters() == solo_resim.counters()
        assert stacked_resim.counters()["n_interval_builds"] == 12


class _FixedUniform:
    """A stand-in generator whose ``random()`` returns one fixed uniform."""

    def __init__(self, u: float) -> None:
        self.u = float(u)

    def random(self) -> float:
        return self.u
