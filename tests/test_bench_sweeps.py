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
    assert set(got) == {"shape", "seed", "warmup", "repeats", "clock", "python", "sizes"}
    (size,) = got["sizes"]
    assert set(size) == {"n", "topics", "train_s", "models"}
    assert size["n"] == 40
    assert set(size["models"]) == set(MODELS)
    for timing in size["models"].values():
        assert set(timing) == {"priors_s", "sweep_ms", "sweep_ms_quartiles", "sweeps_ms"}
        assert len(timing["sweeps_ms"]) == REPEATS
        q1, q3 = timing["sweep_ms_quartiles"]
        assert 0 < q1 <= timing["sweep_ms"] <= q3
