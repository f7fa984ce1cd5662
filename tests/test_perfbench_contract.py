"""The package API that the benchmark in perfbench/ reads.

perfbench checks outputs against the per-pair distances and traces the
commands by patching named functions.  These tests run its checks and its
tracer against the package, so that dropping or renaming a name it uses
fails here, not only in a benchmark run.
"""

import itertools
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from hddcrp import cli, data
from hddcrp.sampling import MODELS, SamplerConfig, build_priors

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_the_likelihood_perfbench_times_is_importable():
    from hddcrp.likelihood import LikelihoodParams, corpus_log_likelihood

    assert callable(corpus_log_likelihood) and callable(LikelihoodParams.for_corpus)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("corpus_name", ["synthetic_corpus", "replicated_corpus"])
def test_trained_priors_pass_the_perfbench_check(
    request, resources, trained_model, model, corpus_name
):
    corpus = request.getfixturevalue(corpus_name)
    config = SamplerConfig(model=model)
    priors = build_priors(corpus, config, trained_model, resources)
    captured = (corpus, config, trained_model, resources, priors)
    inputs = SimpleNamespace(mention_ids=corpus.mention_ids)
    assert checks.check_priors(captured, inputs, seed=1) == []


class StubClock:
    def __init__(self):
        self._ticks = itertools.count()

    def now(self):
        return float(next(self._ticks))


def test_the_tracer_installs_and_uninstalls_cleanly(tmp_path):
    tracer = Tracer(StubClock())
    tracer.install()
    patches = list(tracer._patches)
    try:
        assert patches
        code = cli.main([
            "sample", "--corpus", str(data.tiny_corpus_path()), "--model", "hdp-lex",
            "--iterations", "2", "--chains", "1", "--output-dir", str(tmp_path),
        ])
    finally:
        tracer.uninstall()
    assert code == 0
    names = {span.name for span in tracer.spans}
    assert {"corpus.load", "sampling.priors", "sampling.run_chains", "sampling.init",
            "sampling.sweep", "sampling.joint_score"} <= names
    assert all(span.t1 is not None for span in tracer.spans)
    assert tracer.captured_priors is not None and tracer.captured_chains
    for owner, attr, had_own, original in patches:
        if had_own:
            assert vars(owner)[attr] is original
        else:
            assert attr not in vars(owner)
