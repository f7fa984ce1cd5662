"""Per-layer metrics from the spans and counts of a trace run.

Times are reference seconds (see clock.py).  Per-round totals and counts are
medians over the traced rounds; per-call times are medians (and the 90th
percentile for sweeps) over every call in those rounds.  The last round of a
trace run traces allocations in build_priors and is used only for
`sampling.priors_alloc_mb` and the prior-weight check.
"""

from __future__ import annotations

import statistics

import checks

# spans whose time belongs to the pair-distance layer
PAIR_DISTANCE = ("pairwise.pairs", "pairwise.train", "pairwise.accuracy",
                 "sampling.priors", "baselines.agglomerative")


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def per_layer(tracer, rounds, inputs, seed):
    """(metrics dict with the raw trace under "_spans", check errors)."""
    clock = tracer.clock
    spans = tracer.spans
    work = [clock.work_seconds(s.t0, s.t1) for s in spans]
    scale = [clock.scale(s.t0, s.t1) for s in spans]
    dur = [w * f for w, f in zip(work, scale)]
    # self time: work outside child spans, scaled like its own span
    child_work = [0.0] * len(spans)
    for k, s in enumerate(spans):
        if s.parent is not None:
            child_work[s.parent] += work[k]
    traced = [k for k, (use, *_rest) in enumerate(rounds) if use]
    untraced_pipeline = [clock.reference_seconds(t0, t1)[0]
                         for use, t0, t1, _ in rounds if not use]

    def per_round(fn):
        return statistics.median(fn(r) for r in traced)

    def total(name, r):
        return sum(dur[k] for k, s in enumerate(spans) if s.name == name and s.round == r)

    def calls(name):
        return [dur[k] for k, s in enumerate(spans) if s.name == name and s.round in traced]

    def count(counter, r, where=None):
        return sum(n for (rr, w, c), n in tracer.counts.items()
                   if rr == r and c == counter and where in (None, w))

    def pipeline(r):
        return clock.reference_seconds(rounds[r][1], rounds[r][2])[0]

    def share(name, r):
        """Percent of the traced round's pipeline spent in spans `name`; a
        ratio within one round, so it compares work seconds directly."""
        spent = sum(work[k] for k, s in enumerate(spans) if s.name == name and s.round == r)
        return 100 * spent / clock.work_seconds(rounds[r][1], rounds[r][2])

    def self_time(r):
        return sum((work[k] - child_work[k]) * scale[k] for k, s in enumerate(spans)
                   if s.round == r and s.name.startswith("cli."))

    def kept_ratio(r):
        pairs = count("extract", r, "sampling.priors")
        return count("prior_candidates", r) / pairs if pairs else 0.0

    from hddcrp.likelihood import LikelihoodParams, corpus_log_likelihood

    loglik = []
    for corpus, config, results in tracer.captured_chains:
        params = LikelihoodParams.for_corpus(corpus, config.concentration)
        for res in results:
            t0 = clock.now()
            corpus_log_likelihood(res.final_clustering, corpus, params)
            loglik.append(clock.reference_seconds(t0, clock.now())[0])
    sweeps = calls("sampling.sweep")
    metrics = {
        "cli.self_s": per_round(self_time),
        "pairwise.train_share": per_round(lambda r: share("pairwise.train", r)),
        "pairwise.accuracy_share": per_round(lambda r: share("pairwise.accuracy", r)),
        "pairwise.training_pairs": per_round(lambda r: count("training_pairs", r)),
        "sampling.priors_s": per_round(lambda r: total("sampling.priors", r)),
        "sampling.priors_alloc_mb": max(tracer.alloc_peaks, default=0) / 2**20,
        "sampling.prior_pairs": per_round(lambda r: count("extract", r, "sampling.priors")),
        "sampling.prior_candidates": per_round(lambda r: count("prior_candidates", r)),
        "sampling.prior_kept_ratio": per_round(kept_ratio),
        "sampling.init_ms": 1e3 * statistics.median(calls("sampling.init") or [0.0]),
        "sampling.sweep_ms_p50": 1e3 * _quantile(sweeps, 0.5),
        "sampling.sweep_ms_p90": 1e3 * _quantile(sweeps, 0.9),
        "sampling.sweeps": per_round(
            lambda r: sum(1 for s in spans if s.name == "sampling.sweep" and s.round == r)),
        "sampling.joint_score_ms": 1e3 * statistics.median(
            calls("sampling.joint_score") or [0.0]),
        "sampling.clustering_ms": 1e3 * statistics.median(
            calls("sampling.clustering") or [0.0]),
        "likelihood.loglik_ms": 1e3 * statistics.median(loglik or [0.0]),
        "metrics.score_ms": 1e3 * per_round(lambda r: total("metrics.score", r)),
        "metrics.score_calls": per_round(
            lambda r: sum(1 for s in spans if s.name == "metrics.score" and s.round == r)),
        "baselines.agglomerative_share": per_round(
            lambda r: share("baselines.agglomerative", r)),
        "baselines.lemma_share": per_round(lambda r: share("baselines.lemma", r)),
        "pairwise.pipeline_share": per_round(
            lambda r: sum(share(n, r) for n in PAIR_DISTANCE)),
        "sampling.sweep_share": per_round(lambda r: share("sampling.sweep", r)),
        "trace.pipeline_s": per_round(pipeline),
        "trace.overhead_s": per_round(pipeline) - statistics.median(untraced_pipeline),
    }
    metrics["_spans"] = {
        "spans": [{"name": s.name, "round": s.round, "parent": s.parent,
                   "start": s.t0, "end": s.t1, "reference_s": dur[k]}
                  for k, s in enumerate(spans)],
        "counts": [[r, where, counter, n] for (r, where, counter), n in tracer.counts.items()],
    }
    errors = []
    if tracer.captured_priors is None:
        errors.append("the traced run built no priors")
    else:
        errors += checks.check_priors(tracer.captured_priors, inputs, seed)
    return metrics, errors
