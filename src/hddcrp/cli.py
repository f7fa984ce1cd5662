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
from dataclasses import fields
from pathlib import Path

import numpy as np

from .baselines import AgglomerativeConfig, agglomerative, lemma_baseline
from .corpus import (
    LexicalResources,
    gold_partition,
    load_corpus,
    located,
    read_json,
    write_json,
    write_text,
)
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

# options holding input paths that must name existing files at run start
_PATH_OPTIONS = ("corpus", "gold", "embeddings", "synonyms", "distance_model")


def validate(options):
    """Check the input and output paths of resolved options before any work."""
    for name in _PATH_OPTIONS:
        value = options.get(name)
        if value is not None and not Path(value).is_file():
            raise InputError(f"--{name.replace('_', '-')}: {value!r} is not a file")
    # an output path that cannot be written fails now, not after the work
    output = options.get("output")
    if output is not None and Path(output).is_dir():
        raise InputError(f"--output: {output!r} is a directory")
    if output is not None and not Path(output).parent.is_dir():
        raise InputError(f"--output: {str(Path(output).parent)!r} is not a directory")
    out_dir = options.get("output_dir")
    if out_dir is not None:
        # the directory itself, or the nearest of its parents that exists
        existing = next(p for p in (Path(out_dir), *Path(out_dir).parents) if p.exists())
        if not existing.is_dir():
            raise InputError(f"--output-dir: {str(existing)!r} is not a directory")


# name -> (flags, type, help[, choices]); bool options are store_true flags
OPTIONS = {
    "corpus": (("--corpus",), str, "corpus JSON-lines file"),
    "gold": (("--gold",), str, "gold chains JSON (when not in the corpus file)"),
    "embeddings": (("--embeddings",), str, "word embedding text file"),
    "synonyms": (("--synonyms",), str, "synonym list text file"),
    "distance_model": (("--distance-model",), str, "trained pairwise model JSON"),
    "l2": (("--l2",), float, "L2 penalty strength"),
    "sigma": (("--sigma",), float, "document similarity cutoff for cross-document pairs"),
    "truncation_threshold": (("--truncation-threshold",), float,
                             "similarity level below which link distances become 0"),
    "gamma": (("--gamma",), float, "document similarity exponent in cross-document distances"),
    "model": (("--model",), str, "sampler model", sorted(MODEL_NAMES)),
    "uniform_distances": (("--uniform-distances",), bool,
                          "use constant 1.0 link distances instead of a trained model"),
    "alpha_d": (("--alpha-d",), float, "within-document self-link weight"),
    "alpha_0": (("--alpha0",), float, "top-level concentration (default depends on model)"),
    "concentration": (("--concentration",), float,
                      "Dirichlet concentration of the word likelihood"),
    "iterations": (("--iterations",), int, "sweeps per chain"),
    "chains": (("--chains",), int, "independent chains"),
    "seed": (("--seed",), int, "master seed (env HDDCRP_SEED)"),
    "burn_in": (("--burn-in",), int, "extra unrecorded sweeps before the trace"),
    "randomized_scan": (("--randomized-scan",), bool, "visit mentions in random order each sweep"),
    "map_estimate": (("--map-estimate",), bool,
                     "report the best-scoring visited clustering per chain"),
    "flat_likelihood": (("--flat-likelihood",), bool,
                        "ignore the word likelihood (prior-only sampling)"),
    "jobs": (("--jobs",), int, "parallel chain processes"),
    "method": (("--method",), str, "baseline method", ("lemma", "agglomerative")),
    "wd_threshold": (("--wd-threshold",), float, "within-document merge threshold"),
    "cd_threshold": (("--cd-threshold",), float, "cross-document merge threshold"),
    "setting": (("--setting",), str, "evaluation setting (default both)", ("WD", "CD", "both")),
    "top": (("--top",), int, "clusterings to print"),
    "output": (("-o", "--output"), str, "file to write"),
    "output_dir": (("--output-dir",), str, "directory for chain outputs"),
}
_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _cast(name, value):
    """A config-file value, checked against the type and choices of its option."""
    _, kind, _, *choices = OPTIONS[name]
    if value is None:
        return value
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError as exc:
            raise InputError(f"config key {name!r} is too large for a number") from exc
    if type(value) is not kind:
        raise InputError(f"config key {name!r} must be {_TYPE_NAMES[kind]}, got {value!r}")
    if choices and value not in choices[0]:
        raise InputError(f"config key {name!r} must be one of {list(choices[0])}, got {value!r}")
    return value


def resolve_config(args, defaults):
    """Merge flags over config-file values over defaults into the resolved
    options: a dict that starts with "command".

    An option whose default is a string may not end up empty, so an option
    with the default "" must be given.
    """
    file_values = {}
    if args.config:
        file_values = read_json(args.config)
        with located(args.config):
            if not isinstance(file_values, dict):
                raise InputError("config must be a JSON object")
            unknown = set(file_values) - set(defaults)
            if unknown:
                raise InputError(f"unknown config keys {sorted(unknown)}")
            file_values = {k: _cast(k, v) for k, v in file_values.items()}
    options = {"command": args.command}
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
    validate(options)
    for name, default in defaults.items():
        if isinstance(default, str) and options[name] == "":
            raise InputError(f"missing required option {OPTIONS[name][0][-1]}")
    return options


def _resources(config):
    return LexicalResources.load(config["embeddings"], config["synonyms"])


def _read_clustering(path):
    """Clustering file: either {"assignment": {...}} or a bare id->label map."""
    obj = read_json(path)
    mapping = obj.get("assignment") if isinstance(obj, dict) and "assignment" in obj else obj
    with located(path):
        if not isinstance(mapping, dict) or not mapping:
            raise InputError("expected a mention_id -> cluster label map")
        # a JSON true or false is no integer: as one it would merge with 1 or 0
        if any(isinstance(k, bool) or not isinstance(k, (str, int)) for k in mapping.values()):
            raise InputError("cluster labels must be strings or integers")
        ids = sorted(mapping)
        return ClusterAssignment(ids, [mapping[m] for m in ids])


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_train_distance(config, args):
    corpus = load_corpus(config["corpus"], config["gold"])
    resources = _resources(config)
    pairs = build_training_pairs(corpus, config["sigma"])
    n_pos = np.count_nonzero(pairs.coreferent)
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
    held, rest = pairs[held_out], pairs[~held_out]
    try:
        if not len(held):
            raise InputError("too few pairs to hold out")
        probe = train(corpus, resources, pairs=rest, features=features[~held_out], **kwargs)
        acc = pair_accuracy(probe, corpus, resources, held, features=features[held_out])
        print(f"held-out pair accuracy: {acc:.4f} ({len(held)} pairs)")
    except InputError:
        acc = pair_accuracy(model, corpus, resources, pairs, features=features)
        print(f"training pair accuracy (corpus too small to hold out): {acc:.4f}")

    out = config["output"]
    save_model(model, out, config=config)
    sidecar = str(Path(out).with_suffix(".features.json"))
    write_json(
        sidecar,
        {
            "config": config,
            "feature_index": dict(model.extractor.feature_index),
        },
    )
    print(f"wrote {out} and {sidecar}")


def _sampler_config(config):
    names = {f.name for f in fields(SamplerConfig)}
    kwargs = {k: v for k, v in config.items() if k in names}
    kwargs["model"] = MODEL_NAMES[kwargs["model"]]
    return SamplerConfig(**kwargs)


def _distance_priors(corpus, config, sampler_config):
    if config["uniform_distances"] or sampler_config.model == "hdp_lex":
        return build_priors(corpus, sampler_config, uniform=True)
    if not config["distance_model"]:
        raise InputError(
            f"model {config['model']!r} requires --distance-model or --uniform-distances"
        )
    pairwise = load_model(config["distance_model"])
    return build_priors(corpus, sampler_config, pairwise, _resources(config))


def cmd_sample(config, args):
    corpus = load_corpus(config["corpus"])
    sampler_config = _sampler_config(config)
    priors = _distance_priors(corpus, config, sampler_config)
    results = run_chains(corpus, sampler_config, priors=priors, jobs=config["jobs"])

    embed = dict(config, alpha_0=sampler_config.resolved_alpha_0)
    out_dir = Path(config["output_dir"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create {out_dir}: {exc}") from exc
    header = f"# config: {json.dumps(embed, sort_keys=True)}\niteration,joint_log_score\n"
    for r in results:
        stem = out_dir / f"chain-{r.chain_index:02d}"
        write_json(
            f"{stem}.clustering.json",
            {"assignment": r.estimate.as_mapping(), "chain": r.chain_index, "config": embed},
        )
        rows = (f"{it},{value!r}\n" for it, value in enumerate(r.loglik_trace, start=1))
        write_text(f"{stem}.trace.csv", header + "".join(rows))
        print(
            f"chain {r.chain_index}: joint log score {r.loglik_trace[-1]:.4f}, "
            f"{r.estimate.n_clusters()} clusters"
        )
    print(f"wrote {2 * len(results)} files to {out_dir}")


def cmd_baseline(config, args):
    corpus = load_corpus(config["corpus"])
    method = config["method"]
    if method == "lemma":
        clustering = lemma_baseline(corpus)
    else:
        if not config["distance_model"]:
            raise InputError("agglomerative baseline requires --distance-model")
        model = load_model(config["distance_model"])
        thresholds = AgglomerativeConfig(config["wd_threshold"], config["cd_threshold"])
        clustering = agglomerative(corpus, model, _resources(config), thresholds)
    out = config["output"]
    write_json(
        out,
        {"assignment": clustering.as_mapping(), "config": config, "method": method},
    )
    print(
        f"{method}: {clustering.n_clusters()} clusters over "
        f"{len(clustering.mention_ids)} mentions"
    )
    print(f"wrote {out}")


def cmd_score(config, args):
    corpus = load_corpus(config["corpus"], config["gold"])
    gold = gold_partition(corpus)
    predictions = [_read_clustering(path) for path in args.predictions]
    settings = ("WD", "CD") if config["setting"] == "both" else (config["setting"],)
    averaged = []
    for setting in settings:
        reports = [score(corpus, gold, pred, setting) for pred in predictions]
        averaged.append(mean_reports(reports))
    print(format_table(averaged))
    report = {
        "config": config,
        "n_predictions": len(predictions),
        "predictions": list(args.predictions),
        "reports": {r.setting: r.to_dict() for r in averaged},
    }
    if config["output"]:
        write_json(config["output"], report)
        print(f"wrote {config['output']}")
    else:
        print(json.dumps(report, indent=2, sort_keys=True))


def cmd_oracle_posterior(config, args):
    if config["top"] < 0:
        raise InputError(f"--top must be nonnegative, got {config['top']}")
    corpus = load_corpus(config["corpus"])
    sampler_config = _sampler_config(config)
    priors = _distance_priors(corpus, config, sampler_config)
    posterior = enumerate_exact_posterior(corpus, sampler_config, priors=priors)

    rows = sorted(posterior.items(), key=lambda kv: (-kv[1], kv[0].labels))
    embed = dict(config, alpha_0=sampler_config.resolved_alpha_0)
    print(f"{len(rows)} clusterings carry posterior mass")
    for assignment, prob in rows[: config["top"]]:
        parts = " | ".join(",".join(sorted(p)) for p in assignment.partition())
        print(f"{prob:.6f}  {parts}")
    if config["output"]:
        write_json(
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

_INPUTS = dict(corpus="", embeddings=None, synonyms=None)
_SAMPLER = dict(model="hddcrp", distance_model=None, uniform_distances=False, alpha_d=0.5,
                alpha_0=None, concentration=1e-7)

# name -> (function, help, option defaults); the defaults name the options of
# the command, which are also its config keys
COMMANDS = {
    "train-distance": (cmd_train_distance, "fit the pairwise distance model", dict(
        _INPUTS, gold=None, l2=1.0, sigma=0.4, truncation_threshold=0.5, gamma=1.0,
        output="distance_model.json")),
    "sample": (cmd_sample, "run Gibbs sampling chains", dict(
        _INPUTS, **_SAMPLER, iterations=500, chains=5, seed=0, burn_in=0, randomized_scan=False,
        map_estimate=False, flat_likelihood=False, jobs=1, output_dir="runs")),
    "baseline": (cmd_baseline, "run a deterministic baseline clustering", dict(
        _INPUTS, method="lemma", distance_model=None, wd_threshold=0.5, cd_threshold=0.5,
        output="baseline.clustering.json")),
    "score": (cmd_score, "score predicted clusterings against gold", dict(
        corpus="", gold=None, setting="both", output=None)),
    "oracle-posterior": (cmd_oracle_posterior,
                         "enumerate the exact clustering posterior (small corpora)",
                         dict(_INPUTS, **_SAMPLER, top=10, output=None)),
}


def build_parser(command=None):
    """The parser of every command, or of the named command only: what `main`
    builds to parse that command, at a fraction of the cost."""
    parser = argparse.ArgumentParser(
        prog="hddcrp",
        description="Hierarchical DDCRP event coreference: train, sample, score.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for command in COMMANDS if command is None else [command]:
        _, help_text, defaults = COMMANDS[command]
        sp = sub.add_parser(command, help=help_text)
        sp.add_argument("--config", help="JSON file supplying option defaults")
        if command == "score":
            sp.add_argument("predictions", nargs="+", help="clustering JSON files (averaged)")
        for name in defaults:
            flags, kind, help_text, *choices = OPTIONS[name]
            if kind is bool:
                kind_args = dict(action="store_true", default=None)
            else:
                kind_args = dict(type=kind, choices=choices[0] if choices else None)
            sp.add_argument(*flags, dest=name, help=help_text, **kind_args)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # a known command needs its own parser only; --help, an unknown or a
    # missing command get the full parser, which lists every command
    invoked = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(invoked).parse_args(argv)
    func, _, defaults = COMMANDS[args.command]
    try:
        func(resolve_config(args, defaults), args)
        return 0
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
