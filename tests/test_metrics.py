import dataclasses
import math

import numpy as np
import pytest

from hddcrp.errors import InputError, UniverseMismatchError
from hddcrp.metrics import (
    PRF,
    ScoreReport,
    b_cubed,
    ceaf_e,
    format_table,
    mean_reports,
    muc,
    score,
)
from hddcrp.corpus import Corpus, gold_partition
from hddcrp import metrics
from reference_impls import (
    b_cubed_counts_by_sets,
    b_cubed_reference,
    ceaf_e_counts_scipy,
    ceaf_e_reference,
    clustering_of,
    compensated_sum,
    muc_counts_by_sets,
    muc_reference,
    score_reference,
)


def parts(*groups):
    """The clustering whose clusters are the given sets of mention ids."""
    return clustering_of(groups)


def from_parts(corpus, groups):
    """The clustering of corpus whose clusters are the given sets of mention ids."""
    return clustering_of(groups, corpus.mention_ids)


def random_partition(rng, mentions):
    k = int(rng.integers(1, len(mentions) + 1))
    labels = rng.integers(0, k, size=len(mentions))
    groups = {}
    for m, l in zip(mentions, labels):
        groups.setdefault(int(l), set()).add(m)
    return [frozenset(g) for g in groups.values()]


class TestWorkedExample:
    gold = parts({"a", "b", "c"})
    pred = parts({"a", "b"}, {"c"})

    def test_muc(self):
        got = muc(self.gold, self.pred)
        assert got.precision == 1.0
        assert math.isclose(got.recall, 1 / 2, rel_tol=1e-12)
        assert math.isclose(got.f1, 2 / 3, rel_tol=1e-12)

    def test_b_cubed(self):
        got = b_cubed(self.gold, self.pred)
        assert got.precision == 1.0
        assert math.isclose(got.recall, 5 / 9, rel_tol=1e-12)
        assert math.isclose(got.f1, 5 / 7, rel_tol=1e-12)

    def test_ceaf_e(self):
        got = ceaf_e(self.gold, self.pred)
        assert math.isclose(got.precision, 2 / 5, rel_tol=1e-12)
        assert math.isclose(got.recall, 4 / 5, rel_tol=1e-12)
        assert math.isclose(got.f1, 8 / 15, rel_tol=1e-12)


class TestAgainstBruteForce:
    def test_random_partition_pairs(self):
        rng = np.random.default_rng(51)
        for _ in range(150):
            n = int(rng.integers(1, 11))
            mentions = [f"m{k}" for k in range(n)]
            gold = random_partition(rng, mentions)
            pred = random_partition(rng, mentions)
            for ours, ref in (
                (muc, muc_reference),
                (b_cubed, b_cubed_reference),
                (ceaf_e, ceaf_e_reference),
            ):
                got = ours(clustering_of(gold, mentions), clustering_of(pred, mentions))
                p, r, f = ref(gold, pred)
                assert math.isclose(got.precision, p, abs_tol=1e-12)
                assert math.isclose(got.recall, r, abs_tol=1e-12)
                assert math.isclose(got.f1, f, abs_tol=1e-12)


def phi_of(gold, pred):
    return np.array(
        [[2.0 * len(g & s) / (len(g) + len(s)) for s in pred] for g in gold]
    )


def seeded_matrices(seed, per_kind):
    """(kind, phi) pairs up to 40 x 40: random floats, phi matrices of random
    partitions (heavy ties), all-zero, constant and quarter-step matrices."""
    rng = np.random.default_rng(seed)
    for _ in range(per_kind):
        nr, nc = (int(x) for x in rng.integers(1, 41, size=2))
        yield "random", rng.random((nr, nc))
        yield "zero", np.zeros((nr, nc))
        yield "constant", np.full((nr, nc), float(rng.integers(1, 5)) / 4)
        yield "quarters", rng.integers(0, 5, size=(nr, nc)) / 4.0
        n = int(rng.integers(1, 41))
        mentions = [f"m{k}" for k in range(n)]
        yield "partitions", phi_of(
            random_partition(rng, mentions), random_partition(rng, mentions)
        )


class TestAlignment:
    """metrics._max_assignment is scipy's linear_sum_assignment, ties and all."""

    def test_rows_and_cols_equal_scipy_on_seeded_matrices(self):
        from scipy.optimize import linear_sum_assignment

        shapes, differ = set(), []
        for kind, phi in seeded_matrices(seed=25, per_kind=1_200):
            rows, cols = linear_sum_assignment(phi, maximize=True)
            got = metrics._max_assignment(phi.tolist())
            if got != (rows.tolist(), cols.tolist()):
                differ.append((kind, phi.shape))
            nr, nc = phi.shape
            shapes.add((kind, "tall" if nr > nc else "wide" if nr < nc else "square"))
        assert differ == []
        # every kind came in every shape
        assert len(shapes) == 15

    def test_metrics_equal_the_set_and_scipy_references_bit_for_bit(self):
        rng = np.random.default_rng(26)
        for _ in range(400):
            n = int(rng.integers(1, 60))
            mentions = [f"m{k}" for k in range(n)]
            gold = random_partition(rng, mentions)
            pred = random_partition(rng, mentions)
            for ours, ref in (
                (muc, muc_counts_by_sets),
                (b_cubed, b_cubed_counts_by_sets),
                (ceaf_e, ceaf_e_counts_scipy),
            ):
                got = ours(clustering_of(gold, mentions), clustering_of(pred, mentions))
                assert got == metrics._prf(ref(gold, pred))

    @pytest.mark.parametrize("setting", ["WD", "CD"])
    def test_score_equals_the_scipy_reference_bit_for_bit(
        self, setting, synthetic_corpus, replicated_corpus
    ):
        rng = np.random.default_rng(27)
        for corpus in (synthetic_corpus, replicated_corpus):
            mentions = list(corpus.mention_ids)
            gold = gold_partition(corpus)
            for _ in range(40):
                pred = from_parts(corpus, random_partition(rng, mentions))
                other = from_parts(corpus, random_partition(rng, mentions))
                for g, p in ((gold, pred), (gold, other), (pred, other)):
                    assert score(corpus, g, p, setting) == score_reference(corpus, g, p, setting)


class TestConventions:
    def test_all_singletons_give_zero_muc(self):
        gold = parts({"a"}, {"b"})
        assert muc(gold, gold).f1 == 0.0

    def test_identical_partitions_are_perfect_elsewhere(self):
        gold = parts({"a", "b"}, {"c"})
        for metric in (b_cubed, ceaf_e):
            got = metric(gold, gold)
            assert got.precision == got.recall == got.f1 == 1.0

    def test_universe_mismatch_raises(self):
        with pytest.raises(UniverseMismatchError):
            muc(parts({"a", "b"}), parts({"a", "c"}))
        with pytest.raises(UniverseMismatchError):
            b_cubed(parts({"a"}), parts({"a"}, {"b"}))


class TestScoreSettings:
    def test_gold_scores_perfectly_in_both_settings(self, synthetic_corpus):
        gold = gold_partition(synthetic_corpus)
        pred = from_parts(synthetic_corpus, gold.partition())
        for setting in ("WD", "CD"):
            report = score(synthetic_corpus, gold, pred, setting)
            assert math.isclose(report.conll_f1, 1.0, rel_tol=1e-12)
            assert report.setting == setting

    def test_within_doc_truncation_only_hurts_cross_document_setting(
        self, synthetic_corpus
    ):
        gold = gold_partition(synthetic_corpus)
        by_doc = []
        for part in gold.partition():
            docs = {}
            for mid in part:
                docs.setdefault(mid.split("-")[0], set()).add(mid)
            by_doc.extend(docs.values())
        pred = from_parts(synthetic_corpus, by_doc)
        wd = score(synthetic_corpus, gold, pred, "WD")
        cd = score(synthetic_corpus, gold, pred, "CD")
        assert math.isclose(wd.conll_f1, 1.0, rel_tol=1e-12)
        assert cd.conll_f1 < 1.0

    def test_cd_setting_pools_documents_of_one_seminal_event(self, synthetic_corpus):
        # a cross-doc merge inside one topic is invisible to WD scoring
        gold = gold_partition(synthetic_corpus)
        pred = from_parts(synthetic_corpus, gold.partition())
        report = score(synthetic_corpus, gold, pred, "CD")
        assert report.setting == "CD"

    def test_cd_setting_needs_every_seminal_event_id(self, synthetic_corpus):
        first, *rest = synthetic_corpus.documents
        corpus = Corpus((dataclasses.replace(first, seminal_event_id=""), *rest))
        gold = gold_partition(synthetic_corpus)
        pred = from_parts(synthetic_corpus, gold.partition())
        assert math.isclose(score(corpus, gold, pred, "WD").conll_f1, 1.0, rel_tol=1e-12)
        with pytest.raises(InputError, match="lacks a seminal_event_id"):
            score(corpus, gold, pred, "CD")

    def test_unknown_setting_rejected(self, synthetic_corpus):
        gold = gold_partition(synthetic_corpus)
        pred = from_parts(synthetic_corpus, gold.partition())
        with pytest.raises(ValueError):
            score(synthetic_corpus, gold, pred, "XX")


class TestAveraging:
    def test_mean_of_identical_reports_is_the_report(self, synthetic_corpus):
        gold = gold_partition(synthetic_corpus)
        pred = from_parts(synthetic_corpus, gold.partition())
        r = score(synthetic_corpus, gold, pred, "CD")
        avg = mean_reports([r] * 5)
        assert avg.conll_f1 == r.conll_f1
        assert avg.muc == r.muc and avg.b3 == r.b3 and avg.ceafe == r.ceafe

    def test_means_add_left_to_right_on_every_interpreter(self, monkeypatch):
        # Python 3.12's sum() gives 0.6 here, a left-to-right sum 0.6000000000000001
        monkeypatch.setattr(metrics, "sum", compensated_sum, raising=False)
        reports = [ScoreReport("CD", *[PRF(x, x, x)] * 3) for x in (0.1, 0.2, 0.3)]
        mean = mean_reports(reports)
        want = (0.1 + 0.2 + 0.3) / 3
        assert compensated_sum([0.1, 0.2, 0.3]) / 3 != want
        assert mean.muc == mean.b3 == mean.ceafe == PRF(want, want, want)

    def test_no_reports_rejected_as_such(self):
        with pytest.raises(ValueError, match="no reports to average"):
            mean_reports([])

    def test_mixed_settings_rejected(self, synthetic_corpus):
        gold = gold_partition(synthetic_corpus)
        pred = from_parts(synthetic_corpus, gold.partition())
        wd = score(synthetic_corpus, gold, pred, "WD")
        cd = score(synthetic_corpus, gold, pred, "CD")
        with pytest.raises(ValueError):
            mean_reports([wd, cd])

    def test_table_lists_one_row_per_report(self, synthetic_corpus):
        gold = gold_partition(synthetic_corpus)
        pred = from_parts(synthetic_corpus, gold.partition())
        wd = score(synthetic_corpus, gold, pred, "WD")
        cd = score(synthetic_corpus, gold, pred, "CD")
        text = format_table([wd, cd])
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("WD") and lines[2].startswith("CD")
        assert "CoNLL" in lines[0]

    def test_report_serialization_has_all_metrics(self, synthetic_corpus):
        gold = gold_partition(synthetic_corpus)
        pred = from_parts(synthetic_corpus, gold.partition())
        d = score(synthetic_corpus, gold, pred, "WD").to_dict()
        assert set(d) == {"setting", "conll_f1", "muc", "b3", "ceaf_e"}
        assert set(d["muc"]) == {"precision", "recall", "f1"}
