"""Span tracing from outside the program.

While a Tracer is installed it replaces, at run time, the public functions
that the `hddcrp` commands call, in the namespaces they call them from (for
example `hddcrp.cli.build_priors`, not `hddcrp.sampling.build_priors`).  Each
wrapper records a span: name, start, end, parent and round.  Spans stay in
memory; `spans_as_dicts` turns them into reference seconds once, at the end.
Uninstalling puts every original back, so untraced rounds pay nothing.
"""

from __future__ import annotations

import contextlib
import functools
import tracemalloc
from collections import Counter


class Span:
    __slots__ = ("name", "t0", "t1", "parent", "round")

    def __init__(self, name, t0, parent, round_index):
        self.name, self.t0, self.t1 = name, t0, None
        self.parent, self.round = parent, round_index


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.counts = Counter()  # (enclosing span name, counter) -> count
        self.round = 0
        self.measure_alloc = False
        self.alloc_peaks = []  # bytes, one per traced build_priors
        self.captured_priors = None  # (corpus, config, pairwise, resources, priors)
        self.captured_chains = []  # (corpus, config, results) per run_chains
        self._patches = []

    # -- recording -------------------------------------------------------

    def begin(self, name):
        parent = self.stack[-1] if self.stack else None
        span = Span(name, self.clock.now(), parent, self.round)
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        return span

    def end(self, span):
        span.t1 = self.clock.now()
        self.stack.pop()

    def count(self, counter, n=1):
        where = self.spans[self.stack[-1]].name if self.stack else None
        self.counts[(self.round, where, counter)] += n

    def _timed(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr, replacement):
        had_own = attr in vars(owner)
        original = vars(owner).get(attr)
        self._patches.append((owner, attr, had_own, original))
        setattr(owner, attr, replacement)

    def install(self):
        from hddcrp import cli, corpus, features, sampling

        timed = {
            "load_corpus": "corpus.load",
            "build_training_pairs": "pairwise.pairs",
            "train": "pairwise.train",
            "pair_accuracy": "pairwise.accuracy",
            "load_model": "pairwise.load_model",
            "save_model": "pairwise.save_model",
            "lemma_baseline": "baselines.lemma",
            "agglomerative": "baselines.agglomerative",
            "score": "metrics.score",
        }
        for attr, name in timed.items():
            after = self._after_pairs if attr == "build_training_pairs" else None
            self._patch(cli, attr, self._timed(name, getattr(cli, attr), after))
        self._patch(cli, "build_priors", self._priors_wrapper(cli.build_priors))
        self._patch(cli, "run_chains", self._timed(
            "sampling.run_chains", cli.run_chains, self._after_chains))
        load = corpus.LexicalResources.load
        self._patch(corpus.LexicalResources, "load",
                    staticmethod(self._timed("corpus.resources", load)))
        self._patch(sampling, "init_state", self._timed("sampling.init", sampling.init_state))
        for cls in (sampling.HddcrpState, sampling.TableCrpState, sampling.FlatDdcrpState):
            self._patch(cls, "sweep", self._timed("sampling.sweep", cls.sweep))
            self._patch(cls, "joint_log_score",
                        self._timed("sampling.joint_score", cls.joint_log_score))
            self._patch(cls, "clustering", self._timed("sampling.clustering", cls.clustering))
        extract = features.FeatureExtractor.extract

        @functools.wraps(extract)
        def counted_extract(*args, **kwargs):
            self.count("extract")
            return extract(*args, **kwargs)

        self._patch(features.FeatureExtractor, "extract", counted_extract)

    def uninstall(self):
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextlib.contextmanager
    def installed(self, round_index):
        """Trace one round: wrappers in place while the block runs."""
        self.round = round_index
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def command(self, label):
        """Span around one `cli.main` call."""
        span = self.begin(f"cli.{label}")
        try:
            yield span
        finally:
            self.end(span)

    # -- hooks -------------------------------------------------------------

    def _after_pairs(self, pairs, *args, **kwargs):
        self.count("training_pairs", len(pairs))

    def _after_chains(self, results, corpus, config, *args, **kwargs):
        self.captured_chains.append((corpus, config, results))

    def _priors_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(corpus, config, pairwise=None, resources=None, *args, **kwargs):
            if self.measure_alloc:
                tracemalloc.start()
            span = self.begin("sampling.priors")
            try:
                priors = fn(corpus, config, pairwise, resources, *args, **kwargs)
            finally:
                self.end(span)
                if self.measure_alloc:
                    self.alloc_peaks.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            self.captured_priors = (corpus, config, pairwise, resources, priors)
            n = sum(len(c) - 1 for c in priors.customer)
            n += sum(len(c) - 1 for c in priors.table or ())
            self.count("prior_candidates", n)
            return priors

        return wrapper

