"""Child processes of the benchmark: one set-up probe, or one measured run.

    python3 perfbench/worker.py setup <src> <inputs.json>
    python3 perfbench/worker.py run <src> <inputs.json> <workload> <seed> <seconds> <trace>

Each pins itself to one CPU, starts the calibrated clock, and prints one
JSON object as its last line of standard output.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from clock import CalibratedClock, pin_to_one_cpu
from gen import load_inputs


def _import_program(src):
    sys.path.insert(0, src)
    import hddcrp.cli

    if not Path(hddcrp.cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported hddcrp from {hddcrp.cli.__file__}, not from {src}")
    return hddcrp.cli


def setup(src, inputs_path):
    """A fresh interpreter's time to import the CLI and load the inputs."""
    inputs = load_inputs(inputs_path)
    with CalibratedClock() as clock:
        time.sleep(0.05)  # a few probe slices before the span
        t0 = clock.now()
        cli = _import_program(src)
        t1 = clock.now()
        cli.load_corpus(str(inputs.corpus))
        cli.LexicalResources.load(str(inputs.embeddings), str(inputs.synonyms))
        t2 = clock.now()
        time.sleep(0.05)
    total, raw = clock.reference_seconds(t0, t2)
    return {
        "setup_s": total,
        "setup_raw_s": raw,
        "import_s": clock.reference_seconds(t0, t1)[0],
        "load_s": clock.reference_seconds(t1, t2)[0],
    }


class Runner:
    """Runs whole rounds of a workload's command sequence through cli.main."""

    def __init__(self, cli, clock, commands):
        self.cli = cli
        self.clock = clock
        self.commands = commands
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def round(self, tracer=None):
        """(pipeline start, end, {label: [(start, end)]}) of one round."""
        spans = {}
        t0 = self.clock.now()
        for label, argv in self.commands:
            self.attempted += 1
            out = io.StringIO()
            s0 = self.clock.now()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                ctx = tracer.command(label) if tracer else contextlib.nullcontext()
                with ctx:
                    try:
                        code = self.cli.main(argv)
                    except SystemExit as exc:
                        code = exc.code
            spans.setdefault(label, []).append((s0, self.clock.now()))
            if code != 0:
                self.failed += 1
                self.errors.append(f"{label} exited {code}: {out.getvalue()[-500:]}")
        return t0, self.clock.now(), spans


def _same_outputs(paths, reference):
    got = {p: Path(p).read_bytes() if Path(p).exists() else None for p in paths}
    if reference is None:
        return got, []
    return reference, [f"{p} differs between rounds" for p in paths if got[p] != reference[p]]


def run(src, inputs_path, workload_name, seed, seconds, traced):
    from workloads import WORKLOADS

    inputs = load_inputs(inputs_path)
    workload = WORKLOADS[workload_name]
    out = str(Path(inputs_path).parent / "out")
    Path(out).mkdir(exist_ok=True)
    commands = workload.commands(inputs, out, seed)
    stems = workload.chain_stems(out)
    outputs = [f"{s}.clustering.json" for s in stems] + [
        f"{out}/baseline.clustering.json", f"{out}/score-model.json",
        f"{out}/score-baseline.json"]

    with CalibratedClock() as clock:
        cli = _import_program(src)
        runner = Runner(cli, clock, commands)
        tracer = None
        if traced:
            from tracing import Tracer

            tracer = Tracer(clock)
        rounds = []  # (traced, start, end, spans)
        reference = None
        errors = []
        min_rounds = 2 if traced else 1
        start = time.perf_counter()
        while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
            # a trace run alternates untraced and traced rounds
            use_trace = traced and len(rounds) % 2 == 1
            with tracer.installed(len(rounds)) if use_trace else contextlib.nullcontext():
                t0, t1, spans = runner.round(tracer if use_trace else None)
            rounds.append((use_trace, t0, t1, spans))
            reference, diff = _same_outputs(outputs, reference)
            errors += diff
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        layers = None
        if traced:
            # one more traced round with allocation tracing in build_priors
            tracer.measure_alloc = True
            with tracer.installed(len(rounds)):
                runner.round(tracer)
            from layers import per_layer

            layers, layer_errors = per_layer(tracer, rounds, inputs, seed)
            errors += layer_errors
            Path(out, "spans.json").write_text(json.dumps(layers.pop("_spans")))
        result = {
            "attempted": runner.attempted,
            "failed": runner.failed,
            "peak_rss_mb": peak_rss_mb,
            "rounds": len(rounds),
        }
        for name, pick in (("pipeline", None), ("sample", "sample")):
            ref, raw = [], []
            for use_trace, t0, t1, spans in rounds:
                if use_trace:
                    continue
                a, b = (t0, t1) if pick is None else spans[pick][0]
                r, w = clock.reference_seconds(a, b)
                ref.append(r)
                raw.append(w)
            result[f"{name}_s"] = statistics.median(ref)
            result[f"{name}_raw_s"] = statistics.median(raw)
        if layers is not None:
            result["layers"] = layers

    errors += runner.errors
    if not runner.failed:
        errors += _output_checks(workload, inputs, out, stems, seed, cli)
        with open(f"{out}/score-model.json", encoding="utf-8") as fh:
            reports = json.load(fh)["reports"]
        result["conll_wd"] = reports["WD"]["conll_f1"]
        result["conll_cd"] = reports["CD"]["conll_f1"]
    result["errors"] = errors
    return result


def _output_checks(workload, inputs, out, stems, seed, cli):
    import checks

    errors = checks.check_score_report(
        f"{out}/score-model.json", [f"{s}.clustering.json" for s in stems], inputs)
    errors += checks.check_score_report(
        f"{out}/score-baseline.json", [f"{out}/baseline.clustering.json"], inputs)
    for s in stems:
        errors += checks.check_trace(f"{s}.trace.csv", workload.iterations)
    if workload.name == "hddcrp-topics":
        with open(f"{out}/score-model.json", encoding="utf-8") as fh:
            model = json.load(fh)["reports"]["CD"]["conll_f1"]
        with open(f"{out}/score-baseline.json", encoding="utf-8") as fh:
            lemma = json.load(fh)["reports"]["CD"]["conll_f1"]
        if model < lemma:
            errors.append(f"hddcrp CD CoNLL {model:.4f} < lemma baseline {lemma:.4f}")
    if workload.baseline == "agglomerative":
        from hddcrp.pairwise import load_model

        corpus = cli.load_corpus(str(inputs.corpus))
        resources = cli.LexicalResources.load(str(inputs.embeddings), str(inputs.synonyms))
        errors += checks.check_thresholded_pairs(
            f"{out}/baseline.clustering.json", load_model(f"{out}/distance.json"),
            corpus, resources, inputs, seed)
    return errors


def main(argv):
    pin_to_one_cpu()
    mode, src, inputs_path = argv[:3]
    if mode == "setup":
        result = setup(src, inputs_path)
    else:
        workload, seed, seconds, traced = argv[3:7]
        result = run(src, inputs_path, workload, int(seed), float(seconds), traced == "1")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
