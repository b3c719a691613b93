"""The per-layer metrics: where each span sits, and what it should move.

A layer is a module of the ``repro`` package.  :func:`install` wraps the
public calls named in :data:`LAYER_METRICS`; :func:`layer_values` turns a
:class:`spans.Tracer` snapshot into those metrics, per EM run (``em-*``
workloads) or per batch (``service-batch``).
"""

from __future__ import annotations

import numpy as np

# name, unit, end-to-end metric and workload it should move
LAYER_METRICS = [
    ("proposals.propose_set.calls", "count", "em_wall_s on em-deep (a little on em-long)"),
    ("proposals.propose_set.self_s", "s", "em_wall_s on em-deep (a little on em-long)"),
    ("proposals.n_proposals_generated", "count", "em_wall_s on em-deep (a little on em-long)"),
    ("genealogy.subtree_signatures.calls", "count", "em_wall_s on em-deep; setup_s"),
    ("genealogy.subtree_signatures.self_s", "s", "em_wall_s on em-deep; setup_s"),
    ("genealogy.upgma_tree.s", "s", "em_wall_s on em-deep; setup_s"),
    ("likelihood.evaluate_batch.calls", "count", "em_wall_s on em-long (not em-deep)"),
    ("likelihood.evaluate_batch.self_s", "s", "em_wall_s on em-long (not em-deep)"),
    ("likelihood.prepare.self_s", "s", "em_wall_s on em-long (not em-deep)"),
    ("likelihood.n_tree_site_products", "count", "em_wall_s on em-long (not em-deep)"),
    ("likelihood.n_nodes_pruned", "count", "em_wall_s on em-long (not em-deep)"),
    ("likelihood.cache_hit_rate", "fraction", "em_wall_s on em-long (not em-deep)"),
    ("likelihood.cache_lookups", "count", "base of likelihood.cache_hit_rate"),
    ("likelihood.workspace_occupancy", "fraction", "em_wall_s on em-long (not em-deep)"),
    ("likelihood.pmat_dedup_ratio", "ratio", "em_wall_s on em-long (not em-deep)"),
    ("core.gmh.build_proposal_set.self_s", "s", "em_wall_s on em-long and em-deep"),
    ("core.gmh.acceptance_rate", "fraction", "chain quality on em-long and em-deep"),
    ("core.gmh.n_decisions", "count", "base of core.gmh.acceptance_rate"),
    ("core.sampler.run.self_s", "s", "em_wall_s on em-long and em-deep"),
    ("core.sampler.ess_height", "count", "diagnostic only (ESS per EM iteration)"),
    ("core.estimator.maximize.calls", "count", "em_wall_s on em-deep (not em-long)"),
    ("core.estimator.maximize.self_s", "s", "em_wall_s on em-deep (not em-long)"),
    ("core.estimator.surface_evals", "count", "em_wall_s on em-deep (not em-long)"),
    ("parallel.stacked.run.self_s", "s", "jobs_per_s on service-batch (multichain jobs)"),
    ("core.mpcgs.em_iterations", "count", "em_wall_s on em-long and em-deep"),
    ("core.mpcgs.run.self_s", "s", "em_wall_s on em-long and em-deep"),
    ("sequences.read_phylip.s", "s", "setup_s"),
    ("service.submit.s", "s", "jobs_per_s and job_latency_p50_s on service-batch"),
    ("service.serve.s", "s", "jobs_per_s and job_latency_p50_s on service-batch"),
    ("service.queue_wait_s", "s", "job_latency_p50_s on service-batch"),
    ("service.job_run_s.gmh", "s", "jobs_per_s and job_latency_p50_s on service-batch"),
    ("service.job_run_s.multichain", "s", "jobs_per_s and job_latency_p50_s on service-batch"),
    ("service.checkpoint_writes", "count", "jobs_per_s on service-batch"),
    ("service.event_lines", "count", "jobs_per_s on service-batch"),
    ("service.spool_bytes", "bytes", "jobs_per_s on service-batch; service.resubmit_ms"),
    ("service.resubmit_ms", "ms", "resolving a committed spec from the store (not gated)"),
    ("service.cache_hits", "count", "service.resubmit_ms on service-batch"),
    ("service.retries", "count", "job_latency_p50_s on service-batch"),
    ("service.failed", "count", "error rate on service-batch"),
    ("trace.overhead_s", "s", "tracing cost: traced minus untraced em_wall_s"),
    ("trace.unattributed_s", "s", "EM run time outside every span"),
]


def install(tracer, engine_cls) -> None:
    """Wrap each layer's public calls; ``engine_cls`` is the engine the runs use."""
    import repro.api
    import repro.core.mpcgs
    from repro.core.estimator import RelativeLikelihood
    from repro.core.gmh import GeneralizedMetropolisHastings
    from repro.core.mpcgs import MPCGS
    from repro.core.sampler import MultiProposalSampler
    from repro.genealogy.tree import Genealogy
    from repro.likelihood.demography_prior import DemographyRelativeLikelihood
    from repro.parallel.stacked import StackedMultiChain
    from repro.proposals.neighborhood import NeighborhoodResimulator

    def seen(store):
        return lambda args: store.setdefault(id(args[0]), args[0])

    def chain_done(chain):
        tracer.chains.append(
            (chain.n_accepted, chain.n_decisions, np.array(chain.trace.heights, dtype=float))
        )

    tracer.wrap(
        NeighborhoodResimulator, "propose_set", "proposals.propose_set",
        on_call=seen(tracer.resimulators),
    )
    tracer.wrap(Genealogy, "subtree_signatures", "genealogy.subtree_signatures")
    tracer.wrap(repro.core.mpcgs, "upgma_tree", "genealogy.upgma_tree")
    tracer.wrap(
        engine_cls, "evaluate_batch", "likelihood.evaluate_batch",
        on_call=seen(tracer.engines),
    )
    if hasattr(engine_cls, "prepare"):
        tracer.wrap(engine_cls, "prepare", "likelihood.prepare")
    tracer.wrap(GeneralizedMetropolisHastings, "build_proposal_set", "core.gmh.build_proposal_set")
    tracer.wrap(MultiProposalSampler, "run", "core.sampler.run", on_result=chain_done)
    for name in ("maximize_theta", "maximize_demography"):
        tracer.wrap(repro.core.mpcgs, name, "core.estimator.maximize")
    tracer.count_calls(RelativeLikelihood, "log_likelihood", "core.estimator.surface_evals")
    tracer.count_calls(
        DemographyRelativeLikelihood, "log_likelihood", "core.estimator.surface_evals"
    )
    tracer.wrap(StackedMultiChain, "run", "parallel.stacked.run")
    tracer.wrap(
        MPCGS, "run", "core.mpcgs.run",
        on_result=lambda result: tracer.count("core.mpcgs.em_iterations", len(result.iterations)),
    )
    tracer.wrap(repro.api, "read_phylip", "sequences.read_phylip")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(snapshot: dict, units: int) -> dict[str, float]:
    """Per-layer metrics from a snapshot covering ``units`` EM runs or batches.

    Ratios (hit rate, occupancy, dedup, acceptance, ESS) are computed over
    the whole snapshot; everything else is divided by ``units``.  A layer
    that never ran reports 0, and so does a ratio whose base is 0.
    """
    spans, counters = snapshot["spans"], snapshot["counters"]

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0) / units

    def counter(name: str) -> float:
        return counters.get(name, 0)

    lookups = counter("engine.n_cache_hits") + counter("engine.n_cache_misses")
    values = {
        "proposals.propose_set.calls": span("proposals.propose_set", "calls"),
        "proposals.propose_set.self_s": span("proposals.propose_set", "self_s"),
        "proposals.n_proposals_generated": counter("proposals.n_proposals_generated") / units,
        "genealogy.subtree_signatures.calls": span("genealogy.subtree_signatures", "calls"),
        "genealogy.subtree_signatures.self_s": span("genealogy.subtree_signatures", "self_s"),
        "genealogy.upgma_tree.s": span("genealogy.upgma_tree", "total_s"),
        "likelihood.evaluate_batch.calls": span("likelihood.evaluate_batch", "calls"),
        "likelihood.evaluate_batch.self_s": span("likelihood.evaluate_batch", "self_s"),
        "likelihood.prepare.self_s": span("likelihood.prepare", "self_s"),
        "likelihood.n_tree_site_products": counter("engine.n_tree_site_products") / units,
        "likelihood.n_nodes_pruned": counter("engine.n_nodes_pruned") / units,
        "likelihood.cache_hit_rate": _ratio(counter("engine.n_cache_hits"), lookups),
        "likelihood.cache_lookups": lookups / units,
        "likelihood.workspace_occupancy": _ratio(
            counter("engine.n_workspace_items"), counter("engine.n_padded_items")
        ),
        "likelihood.pmat_dedup_ratio": _ratio(
            counter("engine.n_pmat_requests"), counter("engine.n_pmat_builds")
        ),
        "core.gmh.build_proposal_set.self_s": span("core.gmh.build_proposal_set", "self_s"),
        "core.gmh.acceptance_rate": _ratio(
            counter("core.gmh.n_accepted"), counter("core.gmh.n_decisions")
        ),
        "core.gmh.n_decisions": counter("core.gmh.n_decisions") / units,
        "core.sampler.run.self_s": span("core.sampler.run", "self_s"),
        "core.sampler.ess_height": _ratio(
            counter("core.sampler.ess_sum"), counter("core.sampler.chains")
        ),
        "core.estimator.maximize.calls": span("core.estimator.maximize", "calls"),
        "core.estimator.maximize.self_s": span("core.estimator.maximize", "self_s"),
        "core.estimator.surface_evals": counter("core.estimator.surface_evals") / units,
        "parallel.stacked.run.self_s": span("parallel.stacked.run", "self_s"),
        "core.mpcgs.em_iterations": counter("core.mpcgs.em_iterations") / units,
        "core.mpcgs.run.self_s": span("core.mpcgs.run", "self_s"),
        "sequences.read_phylip.s": span("sequences.read_phylip", "total_s"),
    }
    return values
