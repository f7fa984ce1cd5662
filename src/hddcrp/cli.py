"""Command line front end: distance training, sampling, baselines, scoring.

Option precedence is CLI flag > JSON config file > built-in default; the
HDDCRP_SEED environment variable slots between the --seed flag and the config
file and is the only option read from the environment.  Every output file
embeds the fully resolved configuration, and repeated runs with identical
inputs and seed write byte-identical files.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines import AgglomerativeConfig, agglomerative, lemma_baseline
from .corpus import LexicalResources, gold_partition, load_corpus
from .errors import InputError, UniverseMismatchError
from .features import FeatureExtractor
from .links import ClusterAssignment
from .metrics import format_table, mean_reports, score
from .pairwise import (
    build_training_pairs,
    load_model,
    pair_accuracy,
    pair_features,
    save_model,
    train,
)
from .sampling import (
    SamplerConfig,
    build_priors,
    enumerate_exact_posterior,
    run_chains,
)

SEED_ENV_VAR = "HDDCRP_SEED"

# public model names and their internal sampler identifiers
MODEL_NAMES = {
    "hddcrp": "hddcrp",
    "hddcrp-star": "hddcrp_star",
    "ddcrp": "ddcrp_flat",
    "hdp-lex": "hdp_lex",
}

# options holding input paths that must exist at run start
_PATH_OPTIONS = ("corpus", "gold", "embeddings", "synonyms", "distance_model")


@dataclass(frozen=True)
class RunConfig:
    """Resolved options of one command invocation."""

    command: str
    options: dict

    def __getitem__(self, name):
        return self.options[name]

    def validate(self):
        for name in _PATH_OPTIONS:
            value = self.options.get(name)
            if value is not None and not Path(value).exists():
                raise InputError(f"--{name.replace('_', '-')}: no such file {value!r}")

    def to_dict(self):
        return {"command": self.command, **self.options}


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from exc


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# config-file value types of the options whose default is None; the others
# take the type of their default
_NONE_DEFAULT_TYPES = {"alpha_0": float}
_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _cast(name, value, default):
    """A config-file value, checked against the type of its option."""
    if value is None:
        return value
    kind = _NONE_DEFAULT_TYPES.get(name, str) if default is None else type(default)
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if type(value) is not kind:
        raise InputError(f"config key {name!r} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


def resolve_config(args, defaults):
    """Merge flags over config-file values over defaults into a RunConfig."""
    file_values = {}
    if getattr(args, "config", None):
        file_values = _load_json(args.config)
        if not isinstance(file_values, dict):
            raise InputError(f"{args.config}: config must be a JSON object")
        unknown = set(file_values) - set(defaults)
        if unknown:
            raise InputError(f"{args.config}: unknown config keys {sorted(unknown)}")
        file_values = {k: _cast(k, v, defaults[k]) for k, v in file_values.items()}
    options = {}
    for name, default in defaults.items():
        value = getattr(args, name)
        if value is None and name == "seed":
            env = os.environ.get(SEED_ENV_VAR)
            if env is not None:
                try:
                    value = int(env)
                except ValueError as exc:
                    raise InputError(
                        f"{SEED_ENV_VAR} must be an integer, got {env!r}"
                    ) from exc
        if value is None and name in file_values:
            value = file_values[name]
        options[name] = default if value is None else value
    config = RunConfig(args.command, options)
    config.validate()
    return config


def _require(config, name):
    value = config.options.get(name)
    if value in (None, ""):
        raise InputError(f"missing required option --{name.replace('_', '-')}")
    return value


def _load_inputs(config):
    corpus = load_corpus(_require(config, "corpus"), config.options.get("gold"))
    resources = LexicalResources.load(
        config.options.get("embeddings"), config.options.get("synonyms")
    )
    return corpus, resources


def _read_clustering(path):
    """Clustering file: either {"assignment": {...}} or a bare id->label map."""
    obj = _load_json(path)
    mapping = obj.get("assignment") if isinstance(obj, dict) and "assignment" in obj else obj
    if not isinstance(mapping, dict) or not mapping:
        raise InputError(f"{path}: expected a mention_id -> cluster label map")
    return ClusterAssignment.from_mapping(sorted(mapping), mapping)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_train_distance(args):
    config = resolve_config(
        args,
        dict(
            corpus=None,
            gold=None,
            embeddings=None,
            synonyms=None,
            l2=1.0,
            sigma=0.4,
            truncation_threshold=0.5,
            gamma=1.0,
            output="distance_model.json",
        ),
    )
    corpus, resources = _load_inputs(config)
    pairs = build_training_pairs(corpus, config["sigma"])
    n_pos = sum(p.coreferent for p in pairs)
    print(
        f"pair construction: sigma={config['sigma']}, "
        f"{len(pairs)} pairs ({n_pos} coreferent)"
    )

    kwargs = dict(
        l2=config["l2"],
        sigma=config["sigma"],
        truncation_threshold=config["truncation_threshold"],
        gamma=config["gamma"],
        extractor=FeatureExtractor.from_corpus(corpus),
    )
    # every pair's features are built once; the probe fit and the held-out
    # accuracy use row slices of the same matrix
    features = pair_features(corpus, resources, kwargs["extractor"], pairs)
    model = train(corpus, resources, pairs=pairs, features=features, **kwargs)
    held_out = np.arange(len(pairs)) % 5 == 4
    held = [p for p, h in zip(pairs, held_out) if h]
    rest = [p for p, h in zip(pairs, held_out) if not h]
    try:
        if not held:
            raise InputError("too few pairs to hold out")
        probe = train(corpus, resources, pairs=rest, features=features[~held_out], **kwargs)
        acc = pair_accuracy(probe, corpus, resources, held, features=features[held_out])
        print(f"held-out pair accuracy: {acc:.4f} ({len(held)} pairs)")
    except InputError:
        acc = pair_accuracy(model, corpus, resources, pairs, features=features)
        print(f"training pair accuracy (corpus too small to hold out): {acc:.4f}")

    out = _require(config, "output")
    save_model(model, out, config=config.to_dict())
    sidecar = str(Path(out).with_suffix(".features.json"))
    _write_json(
        sidecar,
        {
            "config": config.to_dict(),
            "feature_index": dict(model.extractor.feature_index),
        },
    )
    print(f"wrote {out} and {sidecar}")


def _sampler_config(config):
    name = config["model"]
    if name not in MODEL_NAMES:
        raise InputError(f"unknown model {name!r}, expected one of {sorted(MODEL_NAMES)}")
    return SamplerConfig(
        model=MODEL_NAMES[name],
        alpha_d=config["alpha_d"],
        alpha_0=config.options.get("alpha_0"),
        iterations=config.options.get("iterations", 1),
        chains=config.options.get("chains", 1),
        seed=config.options.get("seed", 0),
        concentration=config["concentration"],
        burn_in=config.options.get("burn_in", 0),
        randomized_scan=bool(config.options.get("randomized_scan")),
        map_estimate=bool(config.options.get("map_estimate")),
        flat_likelihood=bool(config.options.get("flat_likelihood")),
    )


def _distance_priors(corpus, config, sampler_config):
    if config.options.get("uniform_distances"):
        return build_priors(
            corpus,
            sampler_config,
            within_fn=lambda a, b: 1.0,
            cross_fn=lambda a, b, da, db: 1.0,
        )
    if sampler_config.model == "hdp_lex":
        return build_priors(corpus, sampler_config)
    if not config.options.get("distance_model"):
        raise InputError(
            f"model {config['model']!r} requires --distance-model or --uniform-distances"
        )
    pairwise = load_model(config["distance_model"])
    resources = LexicalResources.load(
        config.options.get("embeddings"), config.options.get("synonyms")
    )
    return build_priors(corpus, sampler_config, pairwise, resources)


def cmd_sample(args):
    config = resolve_config(
        args,
        dict(
            corpus=None,
            embeddings=None,
            synonyms=None,
            distance_model=None,
            model="hddcrp",
            uniform_distances=False,
            alpha_d=0.5,
            alpha_0=None,
            iterations=500,
            chains=5,
            seed=0,
            concentration=1e-7,
            burn_in=0,
            randomized_scan=False,
            map_estimate=False,
            flat_likelihood=False,
            jobs=1,
            output_dir="runs",
        ),
    )
    corpus = load_corpus(_require(config, "corpus"))
    sampler_config = _sampler_config(config)
    priors = _distance_priors(corpus, config, sampler_config)
    results = run_chains(corpus, sampler_config, priors=priors, jobs=config["jobs"])

    embed = config.to_dict()
    embed["alpha_0"] = sampler_config.resolved_alpha_0
    out_dir = Path(_require(config, "output_dir"))
    out_dir.mkdir(parents=True, exist_ok=True)
    for r in results:
        stem = out_dir / f"chain-{r.chain_index:02d}"
        _write_json(
            f"{stem}.clustering.json",
            {"assignment": r.estimate.as_mapping(), "chain": r.chain_index, "config": embed},
        )
        with open(f"{stem}.trace.csv", "w", encoding="utf-8") as fh:
            fh.write(f"# config: {json.dumps(embed, sort_keys=True)}\n")
            fh.write("iteration,joint_log_score\n")
            for it, value in enumerate(r.loglik_trace, start=1):
                fh.write(f"{it},{value!r}\n")
        print(
            f"chain {r.chain_index}: joint log score {r.loglik_trace[-1]:.4f}, "
            f"{r.estimate.n_clusters()} clusters"
        )
    print(f"wrote {2 * len(results)} files to {out_dir}")


def cmd_baseline(args):
    config = resolve_config(
        args,
        dict(
            corpus=None,
            embeddings=None,
            synonyms=None,
            distance_model=None,
            method="lemma",
            wd_threshold=0.5,
            cd_threshold=0.5,
            output="baseline.clustering.json",
        ),
    )
    corpus = load_corpus(_require(config, "corpus"))
    method = config["method"]
    if method == "lemma":
        clustering = lemma_baseline(corpus)
    elif method == "agglomerative":
        if not config.options.get("distance_model"):
            raise InputError("agglomerative baseline requires --distance-model")
        model = load_model(config["distance_model"])
        resources = LexicalResources.load(
            config.options.get("embeddings"), config.options.get("synonyms")
        )
        thresholds = AgglomerativeConfig(config["wd_threshold"], config["cd_threshold"])
        clustering = agglomerative(corpus, model, resources, thresholds)
    else:
        raise InputError(f"unknown baseline method {method!r}")
    out = _require(config, "output")
    _write_json(
        out,
        {"assignment": clustering.as_mapping(), "config": config.to_dict(), "method": method},
    )
    print(
        f"{method}: {clustering.n_clusters()} clusters over "
        f"{len(clustering.mention_ids)} mentions"
    )
    print(f"wrote {out}")


def cmd_score(args):
    config = resolve_config(
        args,
        dict(corpus=None, gold=None, setting="both", output=None),
    )
    corpus = load_corpus(_require(config, "corpus"), config.options.get("gold"))
    gold = gold_partition(corpus)
    predictions = [_read_clustering(path) for path in args.predictions]
    settings = ("WD", "CD") if config["setting"] == "both" else (config["setting"],)
    averaged = []
    for setting in settings:
        reports = [score(corpus, gold, pred, setting) for pred in predictions]
        averaged.append(mean_reports(reports))
    print(format_table(averaged))
    report = {
        "config": config.to_dict(),
        "n_predictions": len(predictions),
        "predictions": list(args.predictions),
        "reports": {r.setting: r.to_dict() for r in averaged},
    }
    if config.options.get("output"):
        _write_json(config["output"], report)
        print(f"wrote {config['output']}")
    else:
        print(json.dumps(report, indent=2, sort_keys=True))


def cmd_oracle_posterior(args):
    config = resolve_config(
        args,
        dict(
            corpus=None,
            embeddings=None,
            synonyms=None,
            distance_model=None,
            model="hddcrp",
            uniform_distances=False,
            alpha_d=0.5,
            alpha_0=None,
            concentration=1e-7,
            top=10,
            output=None,
        ),
    )
    corpus = load_corpus(_require(config, "corpus"))
    sampler_config = _sampler_config(config)
    priors = _distance_priors(corpus, config, sampler_config)
    posterior = enumerate_exact_posterior(corpus, sampler_config, priors=priors)

    rows = sorted(posterior.items(), key=lambda kv: (-kv[1], kv[0].labels))
    embed = config.to_dict()
    embed["alpha_0"] = sampler_config.resolved_alpha_0
    print(f"{len(rows)} clusterings carry posterior mass")
    for assignment, prob in rows[: config["top"]]:
        parts = " | ".join(",".join(sorted(p)) for p in assignment.partition())
        print(f"{prob:.6f}  {parts}")
    if config.options.get("output"):
        _write_json(
            config["output"],
            {
                "config": embed,
                "posterior": [
                    {"assignment": a.as_mapping(), "probability": p} for a, p in rows
                ],
            },
        )
        print(f"wrote {config['output']}")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--corpus", help="corpus JSON-lines file")
    sp.add_argument("--config", help="JSON file supplying option defaults")


def _add_resources(sp):
    sp.add_argument("--embeddings", help="word embedding text file")
    sp.add_argument("--synonyms", help="synonym list text file")


def _add_model_selection(sp):
    sp.add_argument("--model", choices=sorted(MODEL_NAMES), help="sampler model")
    sp.add_argument("--distance-model", dest="distance_model",
                    help="trained pairwise model JSON")
    sp.add_argument("--uniform-distances", dest="uniform_distances",
                    action="store_true", default=None,
                    help="use constant 1.0 link distances instead of a trained model")
    sp.add_argument("--alpha-d", dest="alpha_d", type=float,
                    help="within-document self-link weight")
    sp.add_argument("--alpha0", dest="alpha_0", type=float,
                    help="top-level concentration (default depends on model)")
    sp.add_argument("--concentration", type=float,
                    help="Dirichlet concentration of the word likelihood")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hddcrp",
        description="Hierarchical DDCRP event coreference: train, sample, score.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("train-distance", help="fit the pairwise distance model")
    _add_common(sp)
    _add_resources(sp)
    sp.add_argument("--gold", help="gold chains JSON (when not in the corpus file)")
    sp.add_argument("--l2", type=float, help="L2 penalty strength")
    sp.add_argument("--sigma", type=float,
                    help="document similarity cutoff for cross-document pairs")
    sp.add_argument("--truncation-threshold", dest="truncation_threshold", type=float,
                    help="similarity level below which link distances become 0")
    sp.add_argument("--gamma", type=float,
                    help="document similarity exponent in cross-document distances")
    sp.add_argument("-o", "--output", help="model file to write")
    sp.set_defaults(func=cmd_train_distance)

    sp = sub.add_parser("sample", help="run Gibbs sampling chains")
    _add_common(sp)
    _add_resources(sp)
    _add_model_selection(sp)
    sp.add_argument("--iterations", type=int, help="sweeps per chain")
    sp.add_argument("--chains", type=int, help="independent chains")
    sp.add_argument("--seed", type=int, help="master seed (env HDDCRP_SEED)")
    sp.add_argument("--burn-in", dest="burn_in", type=int,
                    help="extra unrecorded sweeps before the trace")
    sp.add_argument("--randomized-scan", dest="randomized_scan",
                    action="store_true", default=None,
                    help="visit mentions in random order each sweep")
    sp.add_argument("--map-estimate", dest="map_estimate",
                    action="store_true", default=None,
                    help="report the best-scoring visited clustering per chain")
    sp.add_argument("--flat-likelihood", dest="flat_likelihood",
                    action="store_true", default=None,
                    help="ignore the word likelihood (prior-only sampling)")
    sp.add_argument("--jobs", type=int, help="parallel chain processes")
    sp.add_argument("--output-dir", dest="output_dir", help="directory for chain outputs")
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("baseline", help="run a deterministic baseline clustering")
    _add_common(sp)
    _add_resources(sp)
    sp.add_argument("--method", choices=("lemma", "agglomerative"), help="baseline method")
    sp.add_argument("--distance-model", dest="distance_model",
                    help="trained pairwise model JSON (agglomerative only)")
    sp.add_argument("--wd-threshold", dest="wd_threshold", type=float,
                    help="within-document merge threshold")
    sp.add_argument("--cd-threshold", dest="cd_threshold", type=float,
                    help="cross-document merge threshold")
    sp.add_argument("-o", "--output", help="clustering file to write")
    sp.set_defaults(func=cmd_baseline)

    sp = sub.add_parser("score", help="score predicted clusterings against gold")
    _add_common(sp)
    sp.add_argument("predictions", nargs="+", help="clustering JSON files (averaged)")
    sp.add_argument("--gold", help="gold chains JSON (when not in the corpus file)")
    sp.add_argument("--setting", choices=("WD", "CD", "both"),
                    help="evaluation setting (default both)")
    sp.add_argument("-o", "--output", help="JSON report file to write")
    sp.set_defaults(func=cmd_score)

    sp = sub.add_parser("oracle-posterior",
                        help="enumerate the exact clustering posterior (small corpora)")
    _add_common(sp)
    _add_resources(sp)
    _add_model_selection(sp)
    sp.add_argument("--top", type=int, help="clusterings to print")
    sp.add_argument("-o", "--output", help="JSON posterior file to write")
    sp.set_defaults(func=cmd_oracle_posterior)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        result = args.func(args)
        return 0 if result is None else result
    except UniverseMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
