"""The committed reference results: the README flow's eval report and the ablation, byte for byte.

A change that moves either file replaces it in the same commit and says
in CHANGES.md what moved and why.  ``tests/golden/digest.py`` hashes the
rest of the flow's artifacts, which keep their bytes within one build
only.
"""

import json
from pathlib import Path

import pytest

from gcum.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIG = {"seed": 1, "train": {"scale_factor": 0.05}}


def _same_bytes(got: Path, name: str) -> None:
    want = (GOLDEN / name).read_bytes()
    if got.read_bytes() != want:
        new, old = json.loads(got.read_bytes()), json.loads(want)
        moved = {k: (new.get(k), old.get(k)) for k in sorted(new.keys() | old.keys()) if new.get(k) != old.get(k)}
        pytest.fail(f"{name} moved; (now, golden) of each key that differs: {moved or 'none, only the bytes'}")


def test_reference_report_and_ablation_keep_their_bytes(tmp_path, capsys):
    config = str(tmp_path / "run.json")
    Path(config).write_text(json.dumps(CONFIG))
    data, s1, s2 = (str(tmp_path / n) for n in ("data.json", "s1.ckpt", "s2.ckpt"))
    for argv in (["gen-data", "--config", config, "--out", data],
                 ["train", "--stage", "1", "--config", config, "--data", data, "--out", s1],
                 ["train", "--stage", "2", "--config", config, "--data", data, "--init-checkpoint", s1, "--out", s2],
                 ["eval", "--checkpoint", s2, "--data", data, "--out", str(tmp_path / "report.json")],
                 ["ablate", "--config", config, "--seeds", "3", "--out", str(tmp_path / "ablation.json")]):
        assert main(argv) == EXIT_OK, capsys.readouterr().err
    _same_bytes(tmp_path / "report.json", "report.json")
    _same_bytes(tmp_path / "ablation.json", "ablation.json")
