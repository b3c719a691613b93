"""Regenerate EXPERIMENTS.md from benchmarks/results/results.json.

Every benchmark records the rows it reproduced in ``results.json``; this
script turns that file into the paper-vs-measured report.  Run it after a
benchmark pass::

    pytest benchmarks/ --benchmark-only
    python benchmarks/make_experiments_report.py
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results" / "results.json"
TARGET = ROOT / "EXPERIMENTS.md"

HEADER = """# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's evaluation (Section 6), plus the
motivating figures of the background/problem sections and the ablations
called out in DESIGN.md, is regenerated by one benchmark under
`benchmarks/`.  Run

```bash
pytest benchmarks/ --benchmark-only
python benchmarks/make_experiments_report.py   # refreshes this file
```

Each benchmark appends its reproduced rows to
`benchmarks/results/results.json`; the numbers below are from the run
recorded in `bench_output.txt` (one CPU core).

**How to read the comparison.**  The paper measures wall-clock speedup of a
CUDA GPU implementation over the production LAMARC C++ package on the
author's hardware; this reproduction measures the batched (site- and
proposal-vectorized) sampler against a per-site scalar serial sampler on one
CPU core, with chain lengths and dataset sizes scaled down by roughly
100–500× so the whole suite finishes in minutes.  Absolute numbers are
therefore not comparable; the *shapes* — which configuration wins, how the
advantage trends along each sweep, where the multi-chain approach stops
scaling — are the reproduction targets, and each benchmark asserts its shape
programmatically.
"""


def fmt(value, digits=3):
    return f"{value:.{digits}f}" if isinstance(value, float) else str(value)


def table(headers, rows):
    out = ["| " + " | ".join(headers) + " |", "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        out.append("| " + " | ".join(fmt(c) for c in row) + " |")
    return "\n".join(out)


def build() -> str:
    data = json.loads(RESULTS.read_text())
    parts = [HEADER]

    # E1 — accuracy
    acc = data.get("table1_accuracy", {})
    if acc:
        rows = [(r["true_theta"], r["baseline"], r["mpcgs"]) for r in acc["rows"]]
        parts.append(
            "## E1 — Table 1 / Fig. 13: accuracy of θ estimation\n\n"
            "Paper: both samplers track the simulated truth with Pearson r = 0.905 "
            "across true θ ∈ {0.5, 1, 2, 3, 4}.\n\n"
            + table(["true θ", "baseline (LAMARC-style) θ̂", "mpcgs θ̂"], rows)
            + f"\n\nMeasured Pearson correlation (pooled over both samplers): "
            f"**r = {acc['pearson_r']:.3f}** (paper: 0.905).  Shape reproduced: both "
            "samplers rise monotonically with the truth and agree with each other."
        )

    # E2–E4 — speedups
    for key, title, paper_note in [
        (
            "table2_speedup_vs_samples",
            "## E2 — Table 2 / Fig. 14: speedup vs. number of samples",
            "Paper: speedup roughly flat, 3.69→4.32 over a 5× sample range.",
        ),
        (
            "table3_speedup_vs_sequences",
            "## E3 — Table 3 / Fig. 15: speedup vs. number of sequences",
            "Paper: speedup flat to slightly declining, 3.69→2.43 as sequences grow 12→108.",
        ),
        (
            "table4_speedup_vs_sequence_length",
            "## E4 — Table 4 / Fig. 16: speedup vs. sequence length",
            "Paper: speedup grows roughly linearly with length, 3.69→23.28 from 200 to 2000 bp.",
        ),
    ]:
        block = data.get(key, {})
        if not block:
            continue
        swept = {
            "table2_speedup_vs_samples": "n_samples",
            "table3_speedup_vs_sequences": "n_sequences",
            "table4_speedup_vs_sequence_length": "n_sites",
        }[key]
        rows = [
            (r[swept], f"{r['serial_seconds']:.2f}", f"{r['mpcgs_seconds']:.2f}", f"{r['speedup']:.1f}")
            for r in block["rows"]
        ]
        parts.append(
            f"{title}\n\n{paper_note}\n\n"
            + table([swept, "serial s", "mpcgs s", "speedup"], rows)
        )

    # E5 — likelihood curve
    fig5 = data.get("fig5_likelihood_curve", {})
    if fig5:
        traj = ", ".join(f"{t:.3f}" for t in fig5.get("em_theta_trajectory", []))
        parts.append(
            "## E5 — Fig. 5: relative likelihood curve from a mis-specified driving θ\n\n"
            "Paper: with true θ = 1.0 and driving θ₀ = 0.01 the curve peaks near the truth.\n\n"
            f"* first expectation pass peak: θ = {fig5.get('first_pass_peak_theta', float('nan')):.3f} "
            "(a single pass at this reduced scale under-travels; the EM loop of Fig. 11 finishes the job)\n"
            f"* EM driving-θ trajectory: {traj}\n"
            f"* final estimate: θ = {fig5.get('final_theta', float('nan')):.3f}\n"
            f"* final-iteration curve peak: θ = {fig5.get('final_curve_peak_theta', float('nan')):.3f}; "
            f"log L at the original θ₀: {fig5.get('log_relative_likelihood_at_driving_theta', float('nan')):.1f}"
        )

    # E6 — Amdahl
    fig6 = data.get("fig6_multichain_amdahl", {})
    if fig6:
        rows = [
            (m["P"], f"{m['multichain_efficiency']:.3f}", f"{m['gmh_efficiency']:.3f}")
            for m in fig6["step_model"]
        ]
        parts.append(
            "## E6 — Fig. 6 / Eq. 27: the multi-chain burn-in bottleneck\n\n"
            "Paper: with per-chain burn-in B, P independent chains perform B + N/P steps each, "
            "so efficiency collapses toward B as P grows; GMH parallelizes burn-in too.\n\n"
            + table(["P", "multi-chain efficiency", "GMH efficiency"], rows)
            + f"\n\nMeasured multi-chain speedup limit (N/B + 1): "
            f"{fig6.get('multichain_speedup_limit', float('nan')):.1f}× regardless of P."
        )

    # E7 — burn-in
    fig2 = data.get("fig2_burn_in", {})
    if fig2:
        parts.append(
            "## E7 — Fig. 2: burn-in transient\n\n"
            f"A chain seeded from a dispersed start (height {fig2['initial_height']:.2f}, "
            f"log L {fig2['initial_log_likelihood']:.0f}) converges to a stationary regime "
            f"(mean height {fig2['stationary_height_mean']:.3f}, mean log L "
            f"{fig2['stationary_log_likelihood_mean']:.0f}); the running-mean detector places "
            f"burn-in at sample {fig2['detected_burn_in']} of {fig2['n_samples']}."
        )

    # Ablations
    abl = []
    imp = data.get("ablation_likelihood_impl", {})
    if imp:
        rows = [
            (r["n_sites"], f"{r['speedup_vectorized']:.1f}", f"{r['speedup_batched']:.1f}")
            for r in imp["rows"]
        ]
        abl.append(
            "### A2 — likelihood implementation (scalar vs site-vectorized vs proposal-batched)\n\n"
            + table(["sites", "site-vectorized ×", "site+proposal batched ×"], rows)
        )
    log = data.get("ablation_logspace", {})
    if log:
        abl.append(
            "### A3 — log-space arithmetic (Section 5.3)\n\n"
            f"Naive linear-space accumulation of per-site likelihoods underflows to exactly zero "
            f"at site {log['naive_product_underflows_at_site']} of {log['n_sites']}; the log-space "
            f"total remains finite ({log['log_space_total_log_likelihood']:.0f}).  The naive "
            f"exponentiate-then-sum reduction of whole-genealogy likelihoods is non-finite while "
            f"the log-sum-exp reduction stays finite ({log['logspace_logsumexp']:.0f})."
        )
    prop = data.get("ablation_proposal_count", {})
    if prop:
        rows = [
            (r["n_proposals"], f"{r['acceptance_rate']:.2f}", f"{r['seconds_per_sample']*1e3:.2f}")
            for r in prop["rows"]
        ]
        abl.append(
            "### A1 — proposal-set size N\n\n"
            + table(["N", "move rate", "ms / retained sample"], rows)
        )
    heat = data.get("ablation_heated_chains", {})
    if heat:
        abl.append(
            "### A4 — heated chains (MC³) vs plain MH\n\n"
            f"For the same retained-sample budget the 4-rung ladder performs "
            f"{heat['evaluation_overhead_factor']:.1f}× the likelihood evaluations of plain MH "
            f"at {heat['wall_clock_overhead_factor']:.1f}× its wall clock "
            f"(plain ESS {heat['plain_mh']['ess']:.1f}, heated ESS {heat['heated_mc3']['ess']:.1f}) — "
            "heating buys mixing with per-step work, it does not remove the burn-in bottleneck."
        )
    bay = data.get("bayesian_vs_ml", {})
    if bay:
        lo, hi = bay["bayesian_95ci"]
        abl.append(
            "### A5 — Bayesian vs maximum-likelihood estimation (Section 7 extension)\n\n"
            f"True θ = {bay['true_theta']}; Watterson anchor {bay['watterson_theta']:.3f}; "
            f"Bayesian posterior mean {bay['bayesian_posterior_mean']:.3f} "
            f"(95% CI [{lo:.3f}, {hi:.3f}]); EM maximum-likelihood estimate {bay['ml_theta']:.3f}."
        )
    if abl:
        parts.append("## Ablations and extensions\n\n" + "\n\n".join(abl))

    return "\n\n".join(parts) + "\n"


if __name__ == "__main__":
    TARGET.write_text(build())
    print(f"wrote {TARGET}")
