import argparse
import builtins
import errno
import json
import os
import pathlib
import random
import subprocess
import sys
import warnings

import pytest

from hddcrp import cli, metrics, pairwise, sampling
from hddcrp.cli import COMMANDS, build_parser, main
from hddcrp.corpus import Corpus, Document, Mention, load_corpus, save_corpus
from hddcrp.data import (
    synthetic_corpus_path,
    synthetic_embeddings_path,
    synthetic_synonyms_path,
    tiny_corpus_path,
)
from hddcrp.features import FeatureExtractor
from hddcrp.pairwise import load_model
from reference_impls import compensated_sum


@pytest.fixture(autouse=True)
def scrub_seed_env(monkeypatch):
    monkeypatch.delenv("HDDCRP_SEED", raising=False)


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "model.json"
    code = main(
        [
            "train-distance",
            "--corpus", str(synthetic_corpus_path()),
            "--embeddings", str(synthetic_embeddings_path()),
            "--synonyms", str(synthetic_synonyms_path()),
            "-o", str(out),
        ]
    )
    assert code == 0
    return out


def run(argv):
    return main([str(a) for a in argv])


class TestTrainDistance:
    def test_writes_model_and_feature_sidecar(self, model_file, capsys):
        model = load_model(model_file)
        assert len(model.theta) == len(model.extractor.feature_names)
        sidecar = model_file.with_suffix(".features.json")
        obj = json.loads(sidecar.read_text(encoding="utf-8"))
        assert obj["feature_index"] == {
            name: k for k, name in enumerate(model.extractor.feature_names)
        }
        assert obj["config"]["command"] == "train-distance"

    def test_logs_sigma_and_held_out_accuracy(self, tmp_path, capsys):
        code = run(
            [
                "train-distance",
                "--corpus", synthetic_corpus_path(),
                "--embeddings", synthetic_embeddings_path(),
                "--synonyms", synthetic_synonyms_path(),
                "-o", tmp_path / "m.json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "sigma=0.4" in out
        assert "held-out pair accuracy" in out

    def test_missing_gold_exits_with_input_error(self, tmp_path, capsys):
        mentions = [Mention("d-m0", "d", 0, "x", "NN", ("x",), (), {})]
        corpus = Corpus((Document("d", "ev", mentions),))
        path = tmp_path / "nogold.jsonl"
        save_corpus(corpus, path)
        code = run(["train-distance", "--corpus", path, "-o", tmp_path / "m.json"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_builds_the_pair_features_once(self, tmp_path, monkeypatch):
        built = []

        class Counted(pairwise.PairFeatures):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        def no_extract(*args):
            raise AssertionError("per-pair extract called")

        monkeypatch.setattr(pairwise, "PairFeatures", Counted)
        monkeypatch.setattr(pairwise.FeatureExtractor, "extract", no_extract)
        code = run(
            [
                "train-distance",
                "--corpus", synthetic_corpus_path(),
                "--embeddings", synthetic_embeddings_path(),
                "--synonyms", synthetic_synonyms_path(),
                "-o", tmp_path / "m.json",
            ]
        )
        assert code == 0
        assert len(built) == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--gamma", "nan"],
            ["--gamma", "inf"],
            ["--l2", "nan"],
            ["--l2", "-1"],
            ["--sigma", "nan"],
            ["--truncation-threshold", "inf"],
            ["--truncation-threshold", "2"],
            ["--truncation-threshold", "-0.5"],
        ],
    )
    def test_non_finite_hyperparameters_exit_two(self, flags, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = run(
            [
                "train-distance",
                "--corpus", synthetic_corpus_path(),
                *flags,
                "-o", out,
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        argv = [
            "train-distance",
            "--corpus", synthetic_corpus_path(),
            "--embeddings", synthetic_embeddings_path(),
            "--synonyms", synthetic_synonyms_path(),
            "-o", tmp_path / "m.json",
        ]
        assert run(argv) == 0
        first = (tmp_path / "m.json").read_bytes()
        assert run(argv) == 0
        assert (tmp_path / "m.json").read_bytes() == first


class TestSample:
    def test_writes_clusterings_and_traces_per_chain(self, model_file, tmp_path, capsys):
        out = tmp_path / "run"
        code = run(
            [
                "sample",
                "--corpus", synthetic_corpus_path(),
                "--embeddings", synthetic_embeddings_path(),
                "--synonyms", synthetic_synonyms_path(),
                "--distance-model", model_file,
                "--model", "hddcrp",
                "--iterations", 20,
                "--chains", 2,
                "--seed", 5,
                "--output-dir", out,
            ]
        )
        assert code == 0
        for k in range(2):
            clustering = json.loads((out / f"chain-0{k}.clustering.json").read_text())
            assert clustering["chain"] == k
            assert len(clustering["assignment"]) == 40
            assert clustering["config"]["seed"] == 5
            assert clustering["config"]["alpha_0"] == 0.001
            trace = (out / f"chain-0{k}.trace.csv").read_text().splitlines()
            assert trace[0].startswith("# config: ")
            assert trace[1] == "iteration,joint_log_score"
            assert len(trace) == 2 + 20

    def test_model_file_with_a_threshold_outside_the_unit_interval_exits_two(
        self, model_file, tmp_path, capsys
    ):
        obj = json.loads(model_file.read_text(encoding="utf-8"))
        obj["truncation_threshold"] = 2.0
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(obj), encoding="utf-8")
        out = tmp_path / "run"
        code = run(
            [
                "sample",
                "--corpus", synthetic_corpus_path(),
                "--distance-model", edited,
                "--model", "hddcrp",
                "--output-dir", out,
            ]
        )
        assert code == 2
        assert "truncation threshold" in capsys.readouterr().err
        assert not out.exists()

    def test_embedded_alpha_0_tracks_the_model_default(self, model_file, tmp_path):
        for name, alpha in (("hddcrp-star", 1.0), ("ddcrp", 0.1)):
            out = tmp_path / name
            code = run(
                [
                    "sample",
                    "--corpus", synthetic_corpus_path(),
                    "--embeddings", synthetic_embeddings_path(),
                    "--synonyms", synthetic_synonyms_path(),
                    "--distance-model", model_file,
                    "--model", name,
                    "--iterations", 5,
                    "--chains", 1,
                    "--output-dir", out,
                ]
            )
            assert code == 0
            clustering = json.loads((out / "chain-00.clustering.json").read_text())
            assert clustering["config"]["alpha_0"] == alpha

    def test_hdp_lex_runs_without_a_distance_model(self, tmp_path):
        code = run(
            [
                "sample",
                "--corpus", synthetic_corpus_path(),
                "--model", "hdp-lex",
                "--iterations", 5,
                "--chains", 1,
                "--output-dir", tmp_path / "hdp",
            ]
        )
        assert code == 0

    def test_distance_based_models_require_a_model_file(self, tmp_path, capsys):
        code = run(
            [
                "sample",
                "--corpus", synthetic_corpus_path(),
                "--model", "hddcrp",
                "--output-dir", tmp_path / "x",
            ]
        )
        assert code == 2
        assert "--distance-model" in capsys.readouterr().err

    def test_uniform_distances_escape_hatch(self, tmp_path):
        code = run(
            [
                "sample",
                "--corpus", tiny_corpus_path(),
                "--model", "hddcrp",
                "--uniform-distances",
                "--iterations", 10,
                "--chains", 1,
                "--output-dir", tmp_path / "u",
            ]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "flags",
        [
            ["--alpha-d", "nan"],
            ["--alpha0=-inf"],
            ["--concentration", "inf"],
            ["--concentration", "1e308"],
            ["--jobs", "0"],
            ["--jobs", "-2"],
            ["--seed", "-1"],
        ],
    )
    def test_non_finite_settings_and_bad_jobs_exit_two(self, flags, tmp_path, capsys):
        out = tmp_path / "run"
        code = run(
            [
                "sample",
                "--corpus", tiny_corpus_path(),
                "--model", "hdp-lex",
                "--iterations", 2,
                "--chains", 1,
                *flags,
                "--output-dir", out,
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.trace.csv"))
        assert not list(tmp_path.rglob("*.clustering.json"))

    @pytest.mark.parametrize("chains", [10**30, 10_001])
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_too_many_chains_exit_two(self, chains, route, tmp_path, capsys):
        if route == "flag":
            flags = ["--chains", chains]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"chains": chains}), encoding="utf-8")
            flags = ["--config", cfg]
        code = run(
            [
                "sample",
                "--corpus", tiny_corpus_path(),
                "--model", "hdp-lex",
                "--iterations", 2,
                *flags,
                "--output-dir", tmp_path / "run",
            ]
        )
        assert code == 2
        assert "chains must be at most" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_unknown_model_name_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["sample", "--corpus", synthetic_corpus_path(), "--model", "bogus"])
        assert err.value.code == 2


class TestConfigPrecedence:
    def test_config_file_fills_unset_options(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"iterations": 7, "seed": 3, "model": "hdp-lex"}),
            encoding="utf-8",
        )
        out = tmp_path / "out"
        code = run(
            [
                "sample",
                "--corpus", synthetic_corpus_path(),
                "--config", cfg,
                "--chains", 1,
                "--output-dir", out,
            ]
        )
        assert code == 0
        clustering = json.loads((out / "chain-00.clustering.json").read_text())
        assert clustering["config"]["iterations"] == 7
        assert clustering["config"]["seed"] == 3

    def test_flags_beat_the_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"iterations": 7, "model": "hdp-lex"}), encoding="utf-8")
        out = tmp_path / "out"
        code = run(
            [
                "sample",
                "--corpus", synthetic_corpus_path(),
                "--config", cfg,
                "--iterations", 4,
                "--chains", 1,
                "--output-dir", out,
            ]
        )
        assert code == 0
        clustering = json.loads((out / "chain-00.clustering.json").read_text())
        assert clustering["config"]["iterations"] == 4

    def test_seed_env_var_sits_between_flag_and_config(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3, "model": "hdp-lex"}), encoding="utf-8")
        monkeypatch.setenv("HDDCRP_SEED", "11")
        out = tmp_path / "env"
        run(
            [
                "sample",
                "--corpus", synthetic_corpus_path(),
                "--config", cfg,
                "--iterations", 3, "--chains", 1,
                "--output-dir", out,
            ]
        )
        clustering = json.loads((out / "chain-00.clustering.json").read_text())
        assert clustering["config"]["seed"] == 11
        out2 = tmp_path / "flag"
        run(
            [
                "sample",
                "--corpus", synthetic_corpus_path(),
                "--config", cfg,
                "--seed", 4,
                "--iterations", 3, "--chains", 1,
                "--output-dir", out2,
            ]
        )
        clustering = json.loads((out2 / "chain-00.clustering.json").read_text())
        assert clustering["config"]["seed"] == 4

    def test_non_integer_seed_env_is_an_input_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HDDCRP_SEED", "pi")
        code = run(
            [
                "sample",
                "--corpus", synthetic_corpus_path(),
                "--model", "hdp-lex",
                "--output-dir", tmp_path / "x",
            ]
        )
        assert code == 2

    def test_negative_seed_env_is_an_input_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HDDCRP_SEED", "-1")
        code = run(["sample", "--corpus", tiny_corpus_path(), "--model", "hdp-lex",
                    "--output-dir", tmp_path / "x"])
        assert code == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_unknown_config_keys_are_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"iterationz": 7}), encoding="utf-8")
        code = run(
            [
                "sample",
                "--corpus", synthetic_corpus_path(),
                "--config", cfg,
                "--model", "hdp-lex",
            ]
        )
        assert code == 2
        assert "iterationz" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "key, value",
        [("alpha_0", "0.1"), ("iterations", "abc"), ("randomized_scan", "false")],
    )
    def test_config_values_of_the_wrong_type_are_input_errors(
        self, tmp_path, capsys, key, value
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value, "model": "hdp-lex"}), encoding="utf-8")
        out = tmp_path / "out"
        code = run(
            [
                "sample",
                "--corpus", synthetic_corpus_path(),
                "--config", cfg,
                "--iterations", 2, "--chains", 1,
                "--output-dir", out,
            ]
        )
        assert code == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["bogus", ""])
    @pytest.mark.parametrize(
        "command, key", [("sample", "model"), ("baseline", "method"), ("score", "setting")]
    )
    def test_config_values_outside_the_choices_exit_two(
        self, tmp_path, capsys, command, key, value
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}), encoding="utf-8")
        out = tmp_path / "out"
        argv = [command, "--corpus", tiny_corpus_path(), "--config", cfg]
        if command == "sample":
            argv += ["--iterations", 2, "--chains", 1, "--output-dir", out]
        elif command == "baseline":
            argv += ["-o", out]
        else:
            argv += [tiny_corpus_path(), "-o", out]
        assert run(argv) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, key", [("sample", "alpha_d"), ("baseline", "wd_threshold")])
    def test_config_integers_too_large_for_a_float_exit_two(self, tmp_path, capsys, command, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"{key}": 1{"0" * 400}}}', encoding="utf-8")
        out = tmp_path / "out"
        argv = [command, "--corpus", tiny_corpus_path(), "--config", cfg]
        if command == "sample":
            argv += ["--uniform-distances", "--iterations", 2, "--chains", 1, "--output-dir", out]
        else:
            argv += ["-o", out]
        assert run(argv) == 2
        assert f"error: {cfg}: config key '{key}' is too large for a number" in capsys.readouterr().err
        assert not out.exists()

    def test_config_integers_are_accepted_as_numbers(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha_0": 2, "model": "hdp-lex"}), encoding="utf-8")
        out = tmp_path / "out"
        code = run(
            [
                "sample",
                "--corpus", synthetic_corpus_path(),
                "--config", cfg,
                "--iterations", 2, "--chains", 1,
                "--output-dir", out,
            ]
        )
        assert code == 0
        clustering = json.loads((out / "chain-00.clustering.json").read_text())
        assert clustering["config"]["alpha_0"] == 2.0


class TestBaselineAndScore:
    def gold_equals_lemma_corpus(self, tmp_path):
        """Chains follow head lemmas exactly, so the lemma baseline is perfect."""
        docs = []
        chains = {"x": [], "y": []}
        for d, heads in (("d1", ["x", "y", "x"]), ("d2", ["x", "y", "y"])):
            mentions = []
            for k, head in enumerate(heads):
                mid = f"{d}-m{k}"
                mentions.append(Mention(mid, d, k, head, "NN", (head,), (), {}))
                chains[head].append(mid)
            docs.append(Document(d, "ev", mentions))
        corpus = Corpus(tuple(docs), tuple(chains.values()))
        path = tmp_path / "lemma_gold.jsonl"
        save_corpus(corpus, path)
        return path

    def test_lemma_baseline_scores_perfectly_when_gold_matches(self, tmp_path, capsys):
        corpus = self.gold_equals_lemma_corpus(tmp_path)
        clustering = tmp_path / "lemma.json"
        assert run(["baseline", "--corpus", corpus, "--method", "lemma", "-o", clustering]) == 0
        report_path = tmp_path / "report.json"
        assert run(["score", "--corpus", corpus, clustering, "-o", report_path]) == 0
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["reports"]["WD"]["conll_f1"] == 1.0
        assert report["reports"]["CD"]["conll_f1"] == 1.0

    def test_scoring_identical_clusterings_averages_to_the_same_report(
        self, model_file, tmp_path
    ):
        corpus = self.gold_equals_lemma_corpus(tmp_path)
        clustering = tmp_path / "lemma.json"
        run(["baseline", "--corpus", corpus, "--method", "lemma", "-o", clustering])
        single = tmp_path / "one.json"
        run(["score", "--corpus", corpus, clustering, "-o", single])
        five = tmp_path / "five.json"
        run(["score", "--corpus", corpus] + [clustering] * 5 + ["-o", five])
        one = json.loads(single.read_text())["reports"]
        many = json.loads(five.read_text())["reports"]
        assert one == many

    def test_agglomerative_baseline_requires_a_distance_model(self, tmp_path, capsys):
        code = run(
            [
                "baseline",
                "--corpus", synthetic_corpus_path(),
                "--method", "agglomerative",
                "-o", tmp_path / "agg.json",
            ]
        )
        assert code == 2

    def test_agglomerative_baseline_runs_with_a_model(self, model_file, tmp_path):
        out = tmp_path / "agg.json"
        code = run(
            [
                "baseline",
                "--corpus", synthetic_corpus_path(),
                "--method", "agglomerative",
                "--distance-model", model_file,
                "--embeddings", synthetic_embeddings_path(),
                "--synonyms", synthetic_synonyms_path(),
                "-o", out,
            ]
        )
        assert code == 0
        obj = json.loads(out.read_text(encoding="utf-8"))
        assert obj["method"] == "agglomerative"
        assert len(obj["assignment"]) == 40

    @pytest.mark.parametrize("flags", [["--wd-threshold", "2.0"], ["--cd-threshold", "nan"]])
    def test_thresholds_outside_the_unit_interval_exit_two(
        self, model_file, tmp_path, capsys, flags
    ):
        out = tmp_path / "agg.json"
        code = run(
            [
                "baseline",
                "--corpus", synthetic_corpus_path(),
                "--method", "agglomerative",
                "--distance-model", model_file,
                *flags,
                "-o", out,
            ]
        )
        assert code == 2
        assert "thresholds" in capsys.readouterr().err
        assert not out.exists()

    def test_score_accepts_bare_mapping_files(self, tmp_path):
        corpus = self.gold_equals_lemma_corpus(tmp_path)
        bare = tmp_path / "bare.json"
        bare.write_text(
            json.dumps(
                {"d1-m0": 0, "d1-m2": 0, "d2-m0": 0, "d1-m1": 1, "d2-m1": 1, "d2-m2": 1}
            ),
            encoding="utf-8",
        )
        report = tmp_path / "report.json"
        assert run(["score", "--corpus", corpus, bare, "-o", report]) == 0
        got = json.loads(report.read_text(encoding="utf-8"))
        assert got["reports"]["CD"]["conll_f1"] == 1.0

    @pytest.mark.parametrize(
        "sidecar", ["{not json", "{}", '{"gold_chains": 5}', '[["d1-m0", ["d1-m1"]]]']
    )
    def test_malformed_gold_sidecar_is_an_input_error(self, tmp_path, capsys, sidecar):
        corpus = self.gold_equals_lemma_corpus(tmp_path)
        clustering = tmp_path / "lemma.json"
        assert run(["baseline", "--corpus", corpus, "--method", "lemma", "-o", clustering]) == 0
        gold = tmp_path / "gold.json"
        gold.write_text(sidecar, encoding="utf-8")
        assert run(["score", "--corpus", corpus, "--gold", gold, clustering]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("label", [[1], {"k": 1}, 1.5, True, False])
    def test_cluster_labels_must_be_strings_or_integers(self, tmp_path, capsys, label):
        corpus = self.gold_equals_lemma_corpus(tmp_path)
        clustering = tmp_path / "bad.json"
        clustering.write_text(json.dumps({"assignment": {"x": label}}), encoding="utf-8")
        assert run(["score", "--corpus", corpus, clustering]) == 2
        assert "cluster labels" in capsys.readouterr().err

    def test_universe_mismatch_exits_three(self, tmp_path, capsys):
        corpus = self.gold_equals_lemma_corpus(tmp_path)
        foreign = tmp_path / "foreign.json"
        foreign.write_text(json.dumps({"z-m0": 0}), encoding="utf-8")
        assert run(["score", "--corpus", corpus, foreign]) == 3

    def test_score_output_does_not_depend_on_the_string_hash_seed(self, tmp_path):
        # B3 sums per-mention proportions over sets of mention ids; on this
        # input a plain loop over them gives different last bits under these
        # two hash seeds
        corpus = synthetic_corpus_path()
        order = load_corpus(corpus).mentions_in_order()
        prediction = tmp_path / "mod5.json"
        prediction.write_text(
            json.dumps({m.mention_id: k % 5 for k, m in enumerate(order)}), encoding="utf-8"
        )
        outputs = [
            subprocess.run(
                [sys.executable, "-m", "hddcrp.cli", "score", "--corpus", str(corpus),
                 str(prediction)],
                capture_output=True,
                check=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            ).stdout
            for seed in ("0", "2")
        ]
        assert outputs[0] == outputs[1]

    def test_single_setting_flag_limits_the_report(self, tmp_path):
        corpus = self.gold_equals_lemma_corpus(tmp_path)
        clustering = tmp_path / "lemma.json"
        run(["baseline", "--corpus", corpus, "--method", "lemma", "-o", clustering])
        report = tmp_path / "cd_only.json"
        run(["score", "--corpus", corpus, clustering, "--setting", "CD", "-o", report])
        got = json.loads(report.read_text(encoding="utf-8"))
        assert list(got["reports"]) == ["CD"]


def _set(path, value):
    """Edit of a document object: the field at path (keys and indices) set to
    value, or the whole line replaced by value if path is empty."""

    def edit(doc):
        if not path:
            return value
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return doc

    return edit


def _drop(path):
    """Edit of a document object: the field at path deleted."""

    def edit(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
        return doc

    return edit


def _tiny(line, edit):
    """Text of the bundled tiny corpus with the object on one line (from 1) edited."""

    def text():
        lines = tiny_corpus_path().read_text(encoding="utf-8").splitlines()
        lines[line - 1] = json.dumps(edit(json.loads(lines[line - 1])))
        return "\n".join(lines) + "\n"

    return text


# case -> (input file, its text, the line of the fault or None, the fault)
PARSE_ERRORS = {
    "mention-without-id": ("corpus", _tiny(1, _drop(("mentions", 0, "mention_id"))), 1,
                           "mention_id is missing"),
    "doc-id-number": ("corpus", _tiny(1, _set((), {"doc_id": 3})), 1,
                      "doc_id must be a string, got 3"),
    "no-seminal-event-id": ("corpus", _tiny(2, _drop(("seminal_event_id",))), 2,
                            "seminal_event_id is missing"),
    "duplicate-mention-id": ("corpus", _tiny(2, _set(("mentions", 0, "mention_id"), "tiny1-m0")),
                             None, "duplicate mention_id 'tiny1-m0'"),
    "head-not-in-span": ("corpus", _tiny(1, _set(("mentions", 0, "head_lemma"), "talk")), 1,
                         "does not occur in span_lemmas"),
    "negative-order-index": ("corpus", _tiny(1, _set(("mentions", 0, "order_index"), -1)), 1,
                             "negative order_index"),
    "unknown-gold-mention": ("corpus", _tiny(3, _set(("gold_chains", 0, 0), "nobody")), 3,
                             "unknown mention 'nobody'"),
    "gold-sidecar-list": ("gold", lambda: "[1, 2]", None,
                          "gold_chains must be a list of lists of strings"),
    "embeddings-nan": ("embeddings", lambda: "bomb 1.0 0.0\ntalk nan 0.5\n", 2,
                       "non-finite vector entry"),
    "config-string": ("config", lambda: '{"iterations": "5"}', None,
                      "config key 'iterations' must be an integer, got '5'"),
    "model-without-features": ("model", lambda: '{"theta": []}', None,
                               "malformed model file ('feature_index')"),
    "model-without-gamma": ("model", lambda: json.dumps({
        "theta": [0.0] * len(FeatureExtractor([])), "l2": 1.0, "truncation_threshold": 0.5,
        "feature_index": FeatureExtractor([]).feature_index,
    }), None, "malformed model file ('gamma')"),
    "prediction-label-bool": ("prediction", lambda: '{"tiny1-m0": true}', None,
                              "cluster labels must be strings or integers"),
    "model-huge-gamma": ("model", lambda: json.dumps({
        "theta": [0.0] * len(FeatureExtractor([])), "l2": 1.0, "truncation_threshold": 0.5,
        "gamma": 10**400, "feature_index": FeatureExtractor([]).feature_index,
    }), None, "malformed model file (int too large to convert to float)"),
    # json refuses to convert an integer of over 4,300 digits
    "config-integer-over-4300-digits": ("config", lambda: '{"alpha_d": 1' + "0" * 5000 + "}",
                                        None, "not valid JSON (Exceeds the limit"),
    "corpus-integer-over-4300-digits": (
        "corpus", lambda: '{"doc_id": 1' + "0" * 5000 + "}\n", 1,
        "not valid JSON (Exceeds the limit"),
    "order-index-true": ("corpus", _tiny(1, _set(("mentions", 0, "order_index"), True)), 1,
                         "order_index must be an integer, got True"),
    "order-index-float": ("corpus", _tiny(2, _set(("mentions", 1, "order_index"), 1.0)), 2,
                          "order_index must be an integer, got 1.0"),
    "span-lemma-number": ("corpus", _tiny(1, _set(("mentions", 0, "span_lemmas"), ["a", 3])),
                          1, "span_lemmas must be a list of strings, got ['a', 3]"),
    "context-lemmas-null": ("corpus", _tiny(2, _set(("mentions", 0, "context_lemmas"), None)),
                            2, "context_lemmas must be a list of strings, got None"),
    "arguments-list": ("corpus", _tiny(1, _set(("mentions", 2, "arguments"), [])), 1,
                       "arguments must be an object, got []"),
    "role-span-string": ("corpus", _tiny(1, _set(("mentions", 0, "arguments"), {"time": "x"})),
                         1, "time must be a list of lists of strings, got 'x'"),
    "role-span-flat": ("corpus", _tiny(1, _set(("mentions", 0, "arguments"), {"time": ["x"]})),
                       1, "time must be a list of lists of strings, got ['x']"),
    "mention-string": ("corpus", _tiny(2, _set(("mentions", 0), "x")), 2,
                       "a mention must be an object, got 'x'"),
    "mentions-object": ("corpus", _tiny(1, _set(("mentions",), {})), 1,
                        "mentions must be a list, got {}"),
    # the arguments are checked before every other field of a mention
    "arguments-before-mention-id": ("corpus", _tiny(1, _set(("mentions", 0), {
        "arguments": [], "head_lemma": "bomb", "head_pos": "NN", "span_lemmas": ["bomb"],
    })), 1, "arguments must be an object, got []"),
}


class TestInterpreterIndependentSums:
    def run_and_read(self, model_file, out):
        corpus = synthetic_corpus_path()
        for model in ("hddcrp", "hddcrp-star", "ddcrp"):
            code = run(
                [
                    "sample",
                    "--corpus", corpus,
                    "--model", model,
                    "--distance-model", model_file,
                    "--seed", 0,
                    "--chains", 3,
                    "--iterations", 30,
                    "--output-dir", out / model,
                ]
            )
            assert code == 0
            chains = sorted((out / model).glob("*.clustering.json"))
            code = run(["score", "--corpus", corpus, *chains, "-o", out / f"{model}.score.json"])
            assert code == 0
        return {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}

    def test_a_compensated_sum_leaves_every_output_unchanged(
        self, model_file, tmp_path, monkeypatch
    ):
        plain = self.run_and_read(model_file, tmp_path)
        for module in (sampling, metrics):
            monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
        compensated = self.run_and_read(model_file, tmp_path)
        assert len(plain) == 3 * 7
        assert compensated == plain


class TestCorpusInput:
    @pytest.mark.parametrize(
        "edit",
        [
            _set(("mentions", 0, "order_index"), "x"),
            _set((), 5),
            _set(("mentions",), {"m": 1}),
            _set(("mentions", 0), ["mention_id", "tiny1-m0"]),
            _set(("mentions", 0, "span_lemmas"), ["bomb", ["bomb"]]),
            _set(("doc_id",), ["tiny1"]),
            _set(("mentions", 0, "arguments"), []),
            _set(("mentions", 0, "context_lemmas"), "market"),
            _set(("mentions", 0, "arguments"), {"participant": "abc"}),
        ],
        ids=[
            "order-index-string", "bare-number-line", "mentions-object", "mention-list",
            "unhashable-lemma", "unhashable-doc-id", "arguments-list", "context-string",
            "argument-string",
        ],
    )
    def test_malformed_fields_exit_two(self, tmp_path, capsys, edit):
        lines = tiny_corpus_path().read_text(encoding="utf-8").splitlines()
        lines[0] = json.dumps(edit(json.loads(lines[0])))
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "lemma.json"
        code = run(["baseline", "--corpus", corpus, "--method", "lemma", "-o", out])
        assert code == 2
        assert "line 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        ["", '{"doc_id": "d", "seminal_event_id": "ev", "mentions": []}\n'],
        ids=["empty-file", "no-mentions"],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            *(["sample", "--model", m, "--uniform-distances", "--iterations", 2, "--chains", 1]
              for m in ("hddcrp", "ddcrp", "hddcrp-star", "hdp-lex")),
            ["baseline"],
            ["oracle-posterior", "--uniform-distances"],
        ],
        ids=["sample-hddcrp", "sample-ddcrp", "sample-hddcrp-star", "sample-hdp-lex",
             "baseline", "oracle-posterior"],
    )
    def test_a_corpus_without_mentions_exits_two(self, tmp_path, capsys, text, argv):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        where = ["--output-dir", out] if argv[0] == "sample" else ["-o", out]
        assert run([*argv, "--corpus", corpus, *where]) == 2
        assert "no mentions" in capsys.readouterr().err
        assert not out.exists()


class TestDocumentOrder:
    def run_pipeline(self, corpus, out):
        """Every file the pipeline writes for corpus, read with config and
        paths masked."""
        out.mkdir()
        resources = ["--embeddings", synthetic_embeddings_path(),
                     "--synonyms", synthetic_synonyms_path()]
        model = out / "model.json"
        assert run(["train-distance", "--corpus", corpus, *resources, "-o", model]) == 0
        for name in ("hddcrp", "hddcrp-star"):
            assert run(["sample", "--corpus", corpus, *resources, "--model", name,
                        "--distance-model", model, "--chains", 2, "--iterations", 10,
                        "--output-dir", out / name]) == 0
        baselines = [out / "lemma.json", out / "agglomerative.json"]
        assert run(["baseline", "--corpus", corpus, "--method", "lemma", "-o", baselines[0]]) == 0
        assert run(["baseline", "--corpus", corpus, *resources, "--method", "agglomerative",
                    "--distance-model", model, "-o", baselines[1]]) == 0
        chains = sorted(out.glob("*/chain-*.clustering.json"))
        assert run(["score", "--corpus", corpus, *chains, *baselines, "-o", out / "score.json"]) == 0
        files = {}
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            text = path.read_text(encoding="utf-8")
            if path.suffix == ".json":
                obj = json.loads(text)
                obj.pop("config", None)
                obj.pop("predictions", None)
                files[path.relative_to(out)] = obj
            else:  # a trace: its first line is the config
                files[path.relative_to(out)] = text.splitlines()[1:]
        return files

    def test_the_order_of_documents_in_the_corpus_file_does_not_matter(self, tmp_path):
        lines = synthetic_corpus_path().read_text(encoding="utf-8").splitlines(keepends=True)
        documents = [line for line in lines if '"doc_id"' in line]
        shuffled = list(documents)
        random.Random(0).shuffle(shuffled)
        assert shuffled != documents
        corpus = tmp_path / "shuffled.jsonl"
        corpus.write_text("".join(shuffled + lines[len(documents):]), encoding="utf-8")
        bundled = self.run_pipeline(synthetic_corpus_path(), tmp_path / "bundled")
        assert len(bundled) == 13
        assert self.run_pipeline(corpus, tmp_path / "shuffled") == bundled


class TestOraclePosterior:
    def test_posterior_file_sums_to_one_and_is_sorted(self, tmp_path):
        out = tmp_path / "posterior.json"
        code = run(
            [
                "oracle-posterior",
                "--corpus", tiny_corpus_path(),
                "--uniform-distances",
                "--top", 3,
                "-o", out,
            ]
        )
        assert code == 0
        obj = json.loads(out.read_text(encoding="utf-8"))
        probs = [row["probability"] for row in obj["posterior"]]
        assert abs(sum(probs) - 1.0) < 1e-9
        assert probs == sorted(probs, reverse=True)
        assert obj["config"]["alpha_0"] == 0.001

    @pytest.mark.parametrize("flag", ["--alpha-d", "--alpha0"])
    def test_a_subnormal_prior_weight_gives_a_posterior(self, flag, tmp_path):
        out = tmp_path / "posterior.json"
        argv = ["oracle-posterior", "--corpus", tiny_corpus_path(), "--uniform-distances"]
        assert run([*argv, flag, "5e-324", "-o", out]) == 0
        obj = json.loads(out.read_text(encoding="utf-8"))
        probs = [row["probability"] for row in obj["posterior"]]
        assert len(probs) == 203
        assert abs(sum(probs) - 1.0) < 1e-9

    def test_an_overflowing_concentration_exits_two(self, tmp_path, capsys):
        out = tmp_path / "posterior.json"
        argv = ["oracle-posterior", "--corpus", tiny_corpus_path(), "--uniform-distances"]
        assert run([*argv, "--concentration", "1e308", "-o", out]) == 2
        assert "overflows the likelihood" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_top_exits_two(self, tmp_path, capsys):
        code = run(
            ["oracle-posterior", "--corpus", tiny_corpus_path(), "--uniform-distances",
             "--top", -1]
        )
        assert code == 2
        assert "--top" in capsys.readouterr().err

    def test_rejects_models_without_exact_enumeration(self, tmp_path, capsys):
        code = run(
            [
                "oracle-posterior",
                "--corpus", tiny_corpus_path(),
                "--uniform-distances",
                "--model", "hdp-lex",
            ]
        )
        assert code == 2


class TestInputFiles:
    def test_malformed_model_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{bad", encoding="utf-8")
        code = run(
            [
                "sample",
                "--corpus", tiny_corpus_path(),
                "--model", "hddcrp",
                "--distance-model", bad,
                "--output-dir", tmp_path / "run",
            ]
        )
        assert code == 2
        assert f"{bad}: not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("case", list(PARSE_ERRORS))
    def test_every_parse_error_names_its_source(self, case, tmp_path, capsys):
        kind, text, line, fault = PARSE_ERRORS[case]
        bad = tmp_path / f"{kind}.txt"
        bad.write_text(text(), encoding="utf-8")
        corpus = bad if kind == "corpus" else tiny_corpus_path()
        out = tmp_path / "out"
        if kind == "prediction":
            argv = ["score", "--corpus", corpus, bad]
        elif kind in ("config", "model"):
            source = {"config": ["--config", bad, "--uniform-distances"],
                      "model": ["--distance-model", bad]}[kind]
            argv = ["sample", "--corpus", corpus, *source, "--chains", 1, "--iterations", 2,
                    "--output-dir", out]
        else:
            argv = ["train-distance", "--corpus", corpus,
                    "--embeddings", bad if kind == "embeddings" else synthetic_embeddings_path(),
                    "--synonyms", synthetic_synonyms_path(),
                    *(["--gold", bad] if kind == "gold" else []), "-o", out]
        assert run(argv) == 2
        err = capsys.readouterr().err
        where = f"{bad}: line {line}" if line else str(bad)
        assert err.startswith(f"error: {where}: ")
        assert fault in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "chains, fault",
        [
            ([["nobody"]], "gold chain references unknown mention 'nobody'"),
            ([["tiny1-m0"], ["tiny2-m0", "tiny1-m0"]], "'tiny1-m0' appears in two gold chains"),
        ],
        ids=["unknown-mention", "mention-in-two-chains"],
    )
    def test_gold_sidecar_faults_name_the_sidecar(self, chains, fault, tmp_path, capsys):
        side = tmp_path / "side.json"
        side.write_text(json.dumps({"gold_chains": chains}), encoding="utf-8")
        prediction = tmp_path / "prediction.json"
        ids = [f"tiny{d}-m{k}" for d in (1, 2) for k in range(3)]
        prediction.write_text(json.dumps(dict.fromkeys(ids, "a")), encoding="utf-8")
        argv = ["score", "--corpus", tiny_corpus_path(), "--gold", side, prediction]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {side}: ")
        assert fault in err
        assert str(tiny_corpus_path()) not in err

    @pytest.mark.parametrize("option", ["--corpus", "--distance-model"])
    def test_directory_paths_exit_two(self, option, model_file, tmp_path, capsys):
        paths = {"--corpus": tiny_corpus_path(), "--distance-model": model_file}
        paths[option] = tmp_path
        code = run(
            [
                "sample",
                "--corpus", paths["--corpus"],
                "--model", "hddcrp",
                "--distance-model", paths["--distance-model"],
                "--output-dir", tmp_path / "run",
            ]
        )
        assert code == 2
        assert "is not a file" in capsys.readouterr().err

    @pytest.mark.parametrize("denied", [
        "corpus", "gold", "embeddings", "synonyms", "distance_model", "config", "prediction",
        "train_output", "train_sidecar", "baseline_output", "score_output", "oracle_output",
        "chain_clustering", "chain_trace", "output_dir",
    ])
    def test_unreadable_inputs_and_unwritable_outputs_exit_two(
        self, denied, model_file, tmp_path, monkeypatch, capsys
    ):
        corpus = load_corpus(synthetic_corpus_path())
        gold = tmp_path / "gold.json"
        gold.write_text(json.dumps({"gold_chains": sorted(map(sorted, corpus.gold))}))
        prediction = tmp_path / "prediction.json"
        prediction.write_text(json.dumps({mid: k for k, mid in enumerate(corpus.mention_ids)}))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"setting": "WD"}))
        run_dir = tmp_path / "run"
        paths = {
            "corpus": synthetic_corpus_path(), "gold": gold,
            "embeddings": synthetic_embeddings_path(), "synonyms": synthetic_synonyms_path(),
            "distance_model": model_file, "config": config, "prediction": prediction,
            "train_output": tmp_path / "m.json", "train_sidecar": tmp_path / "m.features.json",
            "baseline_output": tmp_path / "agg.json", "score_output": tmp_path / "score.json",
            "oracle_output": tmp_path / "oracle.json",
            "chain_clustering": run_dir / "chain-00.clustering.json",
            "chain_trace": run_dir / "chain-00.trace.csv", "output_dir": run_dir,
        }
        inputs = ["--corpus", synthetic_corpus_path(), "--embeddings", paths["embeddings"],
                  "--synonyms", paths["synonyms"]]
        train = ["train-distance", *inputs, "-o", paths["train_output"]]
        baseline = ["baseline", *inputs, "--method", "agglomerative", "--distance-model",
                    model_file, "-o", paths["baseline_output"]]
        sample = ["sample", "--corpus", tiny_corpus_path(), "--model", "hddcrp",
                  "--uniform-distances", "--chains", 1, "--iterations", 2, "--output-dir", run_dir]
        argv = {
            "embeddings": train, "synonyms": train, "train_output": train, "train_sidecar": train,
            "distance_model": baseline, "baseline_output": baseline,
            "oracle_output": ["oracle-posterior", "--corpus", tiny_corpus_path(),
                              "--uniform-distances", "-o", paths["oracle_output"]],
            "chain_clustering": sample, "chain_trace": sample, "output_dir": sample,
        }.get(denied, ["score", "--config", config, "--corpus", synthetic_corpus_path(),
                       "--gold", gold, prediction, "-o", paths["score_output"]])

        # no file mode denies access to root, so open and Path.mkdir refuse
        # the one path instead
        def refuse(real):
            def call(path, *args, **kwargs):
                if str(path) == str(paths[denied]):
                    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
                return real(path, *args, **kwargs)
            return call

        monkeypatch.setattr(builtins, "open", refuse(builtins.open))
        monkeypatch.setattr(pathlib.Path, "mkdir", refuse(pathlib.Path.mkdir))
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(paths[denied]) in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["train-distance", "sample", "baseline"])
    def test_non_finite_embedding_entries_exit_two(
        self, value, command, model_file, tmp_path, capsys
    ):
        bad = tmp_path / "embeddings.txt"
        text = synthetic_embeddings_path().read_text(encoding="utf-8")
        assert text.startswith("acquisition 0.0")
        bad.write_text(text.replace("acquisition 0.0", f"acquisition {value}", 1), "utf-8")
        inputs = ["--corpus", synthetic_corpus_path(), "--embeddings", bad,
                  "--synonyms", synthetic_synonyms_path()]
        argv = {
            "train-distance": ["train-distance", *inputs, "-o", tmp_path / "m.json"],
            "sample": ["sample", *inputs, "--model", "hddcrp", "--distance-model", model_file,
                       "--chains", 1, "--iterations", 2, "--output-dir", tmp_path / "run"],
            "baseline": ["baseline", *inputs, "--method", "agglomerative",
                         "--distance-model", model_file, "-o", tmp_path / "agg.json"],
        }[command]
        assert run(argv) == 2
        assert list(tmp_path.iterdir()) == [bad]
        assert f"{bad}: line 1: non-finite vector entry" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train-distance", "sample", "baseline"])
    def test_embeddings_whose_norm_overflows_exit_two(self, command, model_file, tmp_path, capsys):
        # finite entries whose squared norm overflows would turn the head
        # embedding cosines into NaN
        bad = tmp_path / "embeddings.txt"
        first, rest = synthetic_embeddings_path().read_text(encoding="utf-8").split("\n", 1)
        lemma, *entries = first.split()
        bad.write_text(" ".join([lemma] + ["1e200"] * len(entries)) + "\n" + rest, "utf-8")
        inputs = ["--corpus", synthetic_corpus_path(), "--embeddings", bad,
                  "--synonyms", synthetic_synonyms_path()]
        argv = {
            "train-distance": ["train-distance", *inputs, "-o", tmp_path / "m.json"],
            "sample": ["sample", *inputs, "--model", "hddcrp", "--distance-model", model_file,
                       "--chains", 1, "--iterations", 2, "--output-dir", tmp_path / "run"],
            "baseline": ["baseline", *inputs, "--method", "agglomerative",
                         "--distance-model", model_file, "-o", tmp_path / "agg.json"],
        }[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 2
        assert list(tmp_path.iterdir()) == [bad]
        assert f"{bad}: line 1: vector norm overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["theta", "gamma"])
    @pytest.mark.parametrize("command", ["sample", "baseline"])
    def test_model_files_whose_arithmetic_overflows_exit_two(
        self, key, command, model_file, tmp_path, capsys
    ):
        # finite weights whose logit sum overflows, or a gamma whose
        # exponential does, would turn similarities and priors into inf
        obj = json.loads(model_file.read_text(encoding="utf-8"))
        obj[key] = [1e308] * len(obj["theta"]) if key == "theta" else 1e308
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(obj), encoding="utf-8")
        inputs = ["--corpus", synthetic_corpus_path(), "--embeddings", synthetic_embeddings_path(),
                  "--synonyms", synthetic_synonyms_path(), "--distance-model", edited]
        argv = {
            "sample": ["sample", *inputs, "--model", "hddcrp", "--chains", 1, "--iterations", 2,
                       "--output-dir", tmp_path / "run"],
            "baseline": ["baseline", *inputs, "--method", "agglomerative",
                         "-o", tmp_path / "agg.json"],
        }[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 2
        assert list(tmp_path.iterdir()) == [edited]
        err = capsys.readouterr().err
        assert ("absolute sum" if key == "theta" else "exp(gamma)") in err

    BAD = "<not utf-8>"

    @pytest.mark.parametrize(
        "argv",
        [
            ["baseline", "--corpus", BAD, "--method", "lemma"],
            ["baseline", "--config", BAD, "--corpus", tiny_corpus_path(), "--method", "lemma"],
            ["train-distance", "--corpus", synthetic_corpus_path(), "--embeddings", BAD,
             "--synonyms", synthetic_synonyms_path()],
            ["train-distance", "--corpus", synthetic_corpus_path(),
             "--embeddings", synthetic_embeddings_path(), "--synonyms", BAD],
            ["sample", "--corpus", tiny_corpus_path(), "--model", "hddcrp",
             "--distance-model", BAD],
            ["score", "--corpus", tiny_corpus_path(), "--gold", BAD, tiny_corpus_path()],
            ["score", "--corpus", tiny_corpus_path(), BAD],
        ],
        ids=["corpus", "config", "embeddings", "synonyms", "distance-model", "gold",
             "prediction"],
    )
    def test_input_files_that_are_not_utf8_exit_two(self, argv, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        # beyond the first buffered read, so line-by-line loaders meet the
        # byte after they have parsed earlier lines
        bad.write_bytes(b"\n" * 100_000 + b"\xff")
        argv = [bad if a == self.BAD else a for a in argv]
        command = argv[0]
        out = ["--output-dir", tmp_path / "run"] if command == "sample" else []
        if command in ("baseline", "train-distance"):
            out = ["-o", tmp_path / "out.json"]
        assert run([*argv, *out]) == 2
        assert "not UTF-8" in capsys.readouterr().err


class TestOutputPaths:
    """Output paths that cannot be written exit 2 before any work is done."""

    PREDICTION = "<prediction>"
    ARGV = {
        "train-distance": ["train-distance", "--corpus", synthetic_corpus_path(),
                           "--embeddings", synthetic_embeddings_path(),
                           "--synonyms", synthetic_synonyms_path()],
        "baseline": ["baseline", "--corpus", tiny_corpus_path()],
        "score": ["score", "--corpus", tiny_corpus_path(), PREDICTION],
        "oracle-posterior": ["oracle-posterior", "--corpus", tiny_corpus_path(),
                             "--uniform-distances"],
    }

    @pytest.mark.parametrize("command", ARGV)
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unusable_output_exits_two(self, command, where, tmp_path, capsys):
        prediction = tmp_path / "lemma.json"
        assert run(["baseline", "--corpus", tiny_corpus_path(), "-o", prediction]) == 0
        before = sorted(tmp_path.rglob("*"))
        out = tmp_path / "missing" / "out.json"
        if where == "directory":
            out = tmp_path / "taken"
            out.mkdir()
            before.append(out)
        argv = [prediction if a == self.PREDICTION else a for a in self.ARGV[command]]
        capsys.readouterr()
        assert run([*argv, "-o", out]) == 2
        captured = capsys.readouterr()
        assert "--output" in captured.err
        assert "wrote" not in captured.out
        assert sorted(tmp_path.rglob("*")) == sorted(before)

    @pytest.mark.parametrize("below", [False, True])
    def test_output_dir_that_is_a_file_exits_two(self, below, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("kept\n", encoding="utf-8")
        out_dir = taken / "run" if below else taken
        code = run(
            ["sample", "--corpus", tiny_corpus_path(), "--model", "hdp-lex",
             "--chains", 1, "--iterations", 2, "--output-dir", out_dir]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "--output-dir" in captured.err
        assert "chain 0" not in captured.out
        assert taken.read_text(encoding="utf-8") == "kept\n"


def modules_loaded_by_the_cli(package, *commands):
    """The sorted names of package's modules in sys.modules of a fresh
    interpreter, after import hddcrp.cli and then each of commands (argv
    lists, each of which must exit 0)."""
    code = (
        "import sys, hddcrp.cli\n"
        f"for argv in {[[str(a) for a in argv] for argv in commands]!r}:\n"
        "    assert hddcrp.cli.main(argv) == 0, argv\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return proc.stdout.splitlines()[-1]  # after what the commands print


def test_importing_the_cli_loads_no_scipy():
    assert modules_loaded_by_the_cli("scipy") == "[]"


def test_commands_without_a_distance_model_load_no_scipy(tmp_path):
    # scipy serves train-distance and the distance-model paths only
    corpus = ["--corpus", synthetic_corpus_path()]
    chains = tmp_path / "chains"
    commands = [
        ["sample", *corpus, "--model", "hdp-lex", "--chains", 2, "--iterations", 3,
         "--output-dir", chains],
        ["baseline", *corpus, "--method", "lemma", "-o", tmp_path / "lemma.json"],
        ["score", *corpus, chains / "chain-00.clustering.json",
         chains / "chain-01.clustering.json", tmp_path / "lemma.json",
         "-o", tmp_path / "scores.json"],
    ]
    assert modules_loaded_by_the_cli("scipy", *commands) == "[]"
    assert (tmp_path / "scores.json").exists()


def test_importing_the_cli_loads_no_multiprocessing():
    # only run_chains with jobs > 1 needs a process pool
    assert modules_loaded_by_the_cli("multiprocessing") == "[]"


_COMMON = {"corpus": (("--corpus",), str, None), "config": (("--config",), str, None)}
_RESOURCES = {
    "embeddings": (("--embeddings",), str, None),
    "synonyms": (("--synonyms",), str, None),
}
_MODEL_SELECTION = {
    "model": (("--model",), str, ("ddcrp", "hddcrp", "hddcrp-star", "hdp-lex")),
    "distance_model": (("--distance-model",), str, None),
    "uniform_distances": (("--uniform-distances",), bool, None),
    "alpha_d": (("--alpha-d",), float, None),
    "alpha_0": (("--alpha0",), float, None),
    "concentration": (("--concentration",), float, None),
}
_OUTPUT = {"output": (("-o", "--output"), str, None)}

# dest -> (option strings, type, choices) of every subcommand; bool marks a
# store_true flag, and every default is None so that config files can fill it
PARSER_SURFACE = {
    "train-distance": {
        **_COMMON, **_RESOURCES, **_OUTPUT,
        "gold": (("--gold",), str, None),
        "l2": (("--l2",), float, None),
        "sigma": (("--sigma",), float, None),
        "truncation_threshold": (("--truncation-threshold",), float, None),
        "gamma": (("--gamma",), float, None),
    },
    "sample": {
        **_COMMON, **_RESOURCES, **_MODEL_SELECTION,
        "iterations": (("--iterations",), int, None),
        "chains": (("--chains",), int, None),
        "seed": (("--seed",), int, None),
        "burn_in": (("--burn-in",), int, None),
        "randomized_scan": (("--randomized-scan",), bool, None),
        "map_estimate": (("--map-estimate",), bool, None),
        "flat_likelihood": (("--flat-likelihood",), bool, None),
        "jobs": (("--jobs",), int, None),
        "output_dir": (("--output-dir",), str, None),
    },
    "baseline": {
        **_COMMON, **_RESOURCES, **_OUTPUT,
        "method": (("--method",), str, ("agglomerative", "lemma")),
        "distance_model": (("--distance-model",), str, None),
        "wd_threshold": (("--wd-threshold",), float, None),
        "cd_threshold": (("--cd-threshold",), float, None),
    },
    "score": {
        **_COMMON, **_OUTPUT,
        "predictions": ((), str, None),
        "gold": (("--gold",), str, None),
        "setting": (("--setting",), str, ("CD", "WD", "both")),
    },
    "oracle-posterior": {
        **_COMMON, **_RESOURCES, **_MODEL_SELECTION, **_OUTPUT,
        "top": (("--top",), int, None),
    },
}


def test_every_subcommand_keeps_its_parser_surface():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(PARSER_SURFACE)
    for name, sp in sub.choices.items():
        got = {}
        for a in sp._actions:
            if isinstance(a, argparse._HelpAction):
                continue
            assert a.default is None, (name, a.dest)
            flag = isinstance(a, argparse._StoreTrueAction)
            kind = bool if flag else a.type or str
            choices = tuple(sorted(a.choices)) if a.choices else None
            got[a.dest] = (tuple(a.option_strings), kind, choices)
        assert got == PARSER_SURFACE[name], name
    (predictions,) = [a for a in sub.choices["score"]._actions if a.dest == "predictions"]
    assert predictions.nargs == "+"


# command -> an argv that sets some of each kind of option
PARSED_ARGV = {
    "train-distance": ["train-distance", "--corpus", "c.jsonl", "--l2", "0.5", "-o", "m.json"],
    "sample": ["sample", "--corpus", "c.jsonl", "--model", "ddcrp", "--randomized-scan",
               "--seed", "3", "--alpha0", "0.1", "--config", "k.json"],
    "baseline": ["baseline", "--corpus", "c.jsonl", "--method", "agglomerative",
                 "--wd-threshold", "0.3"],
    "score": ["score", "--corpus", "c.jsonl", "a.json", "b.json", "--setting", "WD"],
    "oracle-posterior": ["oracle-posterior", "--corpus", "c.jsonl", "--uniform-distances",
                         "--top", "4"],
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_main_builds_the_parser_of_the_invoked_command_only(command, monkeypatch, capsys):
    full = build_parser()
    with pytest.raises(SystemExit):
        full.parse_args([command, "--help"])
    full_help = capsys.readouterr().out
    built = []

    def recording_build_parser(*args):
        built.append(args)
        return build_parser(*args)

    monkeypatch.setattr(cli, "build_parser", recording_build_parser)
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == full_help
    assert built == [(command,)]
    argv = PARSED_ARGV[command]
    assert build_parser(command).parse_args(argv) == full.parse_args(argv)


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["bogus"], 2)], ids=["help", "unknown"])
def test_the_top_level_lists_every_command(argv, code, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    captured = capsys.readouterr()
    listing = captured.out if code == 0 else captured.err
    assert all(command in listing for command in COMMANDS)
