"""The console-script checks of CI, run through a `gcum` shim on PATH."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_console_flow_script_passes(tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    for name, command in (("gcum", f'"{sys.executable}" -m gcum.cli'), ("python", f'"{sys.executable}"')):
        shim = bin_dir / name
        shim.write_text(f'#!/bin/sh\nexec {command} "$@"\n')
        shim.chmod(0o755)
    src = str(ROOT / "src")
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}", GCUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run(["sh", str(ROOT / "tests" / "console_flow.sh"), str(tmp_path / "work")],
                         env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]
    assert run.stdout.rstrip().endswith("== console flow passed")
