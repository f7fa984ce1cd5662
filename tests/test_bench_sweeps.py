import json
import subprocess
import sys
from pathlib import Path

from hddcrp.sampling import MODELS

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_sweeps.py"
sys.path.insert(0, str(SCRIPT.parent))

from bench_sweeps import REPEATS  # noqa: E402


def test_sweep_bench_writes_priors_and_sweep_times_per_model(tmp_path):
    out = tmp_path / "BENCH_sweeps.json"
    subprocess.run(
        [sys.executable, str(SCRIPT), "--sizes", "40", "-o", str(out)],
        check=True,
        capture_output=True,
    )
    got = json.loads(out.read_text(encoding="utf-8"))
    assert set(got) == {"shape", "seed", "loads", "features", "warmup", "repeats", "clock", "python", "sizes"}
    (size,) = got["sizes"]
    assert set(size) == {
        "n", "topics", "load_s", "features_s", "train_s", "agglomerative_s", "models", "overlap",
    }
    assert size["n"] == 40
    assert size["load_s"] > 0 and size["features_s"] > 0 and size["agglomerative_s"] > 0
    assert set(size["models"]) == set(MODELS)
    for model, timing in size["models"].items():
        assert set(timing) == {
            "priors_s", "pairs_scored", "pairs_kept", "lone_share", "sweep_ms",
            "sweep_ms_quartiles", "sweeps_ms", "draw_labels", "draw_keys",
        }
        if model == "hdp_lex":
            assert timing["pairs_scored"] is None and timing["pairs_kept"] is None
        else:
            assert 0 < timing["pairs_kept"] <= timing["pairs_scored"]
        assert set(timing["lone_share"]) == {"customer", "table"}
        assert 0 < timing["lone_share"]["customer"] <= 1
        assert (timing["lone_share"]["table"] is None) == (model != "hddcrp")
        assert len(timing["sweeps_ms"]) == REPEATS
        q1, q3 = timing["sweep_ms_quartiles"]
        assert 0 < q1 <= timing["sweep_ms"] <= q3
        if model in ("hddcrp_star", "hdp_lex"):
            assert 1 <= timing["draw_keys"] <= timing["draw_labels"]
        else:
            assert timing["draw_labels"] is None and timing["draw_keys"] is None
    overlap = size["overlap"]
    assert set(overlap) == {"priors_s", "agglomerative_s", "pairs_scored", "pairs_kept"}
    assert overlap["priors_s"] > 0 and overlap["agglomerative_s"] > 0
    # the shared lemma makes every one of the 40 * 39 / 2 pairs a candidate
    assert overlap["pairs_scored"] == 780
    assert 0 < overlap["pairs_kept"] <= overlap["pairs_scored"]
