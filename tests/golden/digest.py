"""Hash every artifact of the reference runs and compare with the committed list.

usage: python tests/golden/digest.py [--write]

Each run below goes through ``python -m gcum.cli`` in a new temporary
directory, one command after another, and every file it leaves there and
every command's stdout is hashed (sha256):

- the README flow (gen-data, train stage 1, train stage 2, eval) on three
  run configs, the last one the flow of ``tests/test_golden.py``;
- ``grad-check`` at seeds 0 and 3;
- ``ablate --seeds 3`` on the config of ``tests/test_golden.py``.

The script prints one line per artifact whose digest moved, appeared or
went, then a summary, and exits 1 if any did.  ``--write`` records the
digests of this build in ``digests.json`` instead.

The reports and the ablation are checked byte for byte in tier-1; the
checkpoints, logs and the grad-check printout are promised the same bytes
only within one build.  The list therefore records the numpy version and
the BLAS line of ``numpy.show_config``, and the script says so when this
build differs from it.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
DIGESTS = HERE / "digests.json"

GOLDEN_CONFIG = {"seed": 1, "train": {"scale_factor": 0.05}}
FLOW_CONFIGS = {
    "seed1": {"seed": 1},
    "seed1-no-mvs": {"seed": 1, "mvs": {"enabled": False}},
    "golden": GOLDEN_CONFIG,
}
FLOW = (
    ("gen-data", ["gen-data", "--config", "{config}", "--out", "data.json"]),
    ("train1", ["train", "--stage", "1", "--config", "{config}", "--data", "data.json", "--out", "s1.ckpt"]),
    ("train2", ["train", "--stage", "2", "--config", "{config}", "--data", "data.json",
                "--init-checkpoint", "s1.ckpt", "--out", "s2.ckpt"]),
    ("eval", ["eval", "--checkpoint", "s2.ckpt", "--data", "data.json", "--out", "report.json"]),
)


def build() -> dict:
    """The numpy version and BLAS this interpreter's numpy was built with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def run_case(name: str, commands, config: dict | None, root: Path) -> dict[str, str]:
    """Run ``commands`` in ``root/name``; returns {artifact: sha256} of its files and stdouts."""
    work = root / name
    work.mkdir()
    config_path = root / f"{name}.json"
    config_path.write_text(json.dumps(config if config is not None else {}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    env.setdefault("GCUM_THREADS", "1")
    for label, argv in commands:
        argv = [a.format(config=config_path) for a in argv]
        run = subprocess.run([sys.executable, "-m", "gcum.cli", *argv], cwd=work, env=env,
                             capture_output=True, timeout=1800)
        if run.returncode:
            sys.exit(f"{name}: gcum {' '.join(argv)} exited {run.returncode}:\n{run.stderr.decode()}")
        (work / f"{label}.stdout").write_bytes(run.stdout)
    return {f"{name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(work.iterdir())}


def digests() -> dict[str, str]:
    out: dict[str, str] = {}
    with tempfile.TemporaryDirectory(prefix="gcum-digest-") as tmp:
        root = Path(tmp)
        for name, config in FLOW_CONFIGS.items():
            out.update(run_case(name, FLOW, config, root))
        for seed in (0, 3):
            out.update(run_case(f"grad-check-seed{seed}", [("grad-check", ["grad-check", "--seed", str(seed)])],
                                None, root))
        out.update(run_case("ablate", [("ablate", ["ablate", "--config", "{config}", "--seeds", "3",
                                                   "--out", "ablation.json"])], GOLDEN_CONFIG, root))
    return out


def main(argv: list[str]) -> int:
    if argv not in ([], ["--write"]):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    now = digests()
    if argv == ["--write"]:
        DIGESTS.write_text(json.dumps({"build": build(), "artifacts": now}, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(now)} digests to {DIGESTS}")
        return 0
    recorded = json.loads(DIGESTS.read_text())
    if recorded["build"] != build():
        print(f"note: digests recorded on {recorded['build']}, this build is {build()}; "
              "checkpoint bytes are promised only within one build")
    then = recorded["artifacts"]
    moved = sorted(n for n in now.keys() & then.keys() if now[n] != then[n])
    changes = ([f"moved: {n}" for n in moved] + [f"new: {n}" for n in sorted(now.keys() - then.keys())]
               + [f"gone: {n}" for n in sorted(then.keys() - now.keys())])
    print("\n".join(changes + [f"{len(now)} artifacts, {len(changes)} moved, new or gone"]))
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
