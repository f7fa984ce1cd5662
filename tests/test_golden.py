import json
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
sys.path.insert(0, str(SCRIPTS))

import golden  # noqa: E402


def test_fixed_seed_outputs_match_the_golden_digests(tmp_path):
    recorded = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    differing = golden.differing(recorded["digests"], golden.digests(tmp_path))
    note = ""
    if recorded["versions"] != golden.versions():
        note = f"; digests written with {recorded['versions']}, running {golden.versions()}"
    assert not differing, (
        f"outputs differ from {golden.GOLDEN.name} (rewrite with scripts/golden.py --write "
        f"and say why in CHANGES.md){note}: {differing}"
    )
