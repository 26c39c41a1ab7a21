"""Benchmark of the gcum pipeline; see perfbench/README.md.

    python3 perfbench/run.py --workload train-standard --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from ``src``.
One process runs one workload, one iteration at a time.  With ``--trace
0`` it sets up several times, then repeats the workload's timed part while
another iteration fits in ``--seconds``, and reports the end-to-end
metrics as medians.  With ``--trace 1`` it runs one untraced and one
traced iteration of the same seed and reports the per-layer metrics.
The last line of standard output is the result as one JSON object.
"""

import os

# Pin BLAS and OpenMP pools to one thread before numpy can load.
for _var in ("GCUM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

# Set-up is repeated at least SETUP_MIN times and until SETUP_BUDGET_S
# seconds are spent on it, at most SETUP_MAX times; its median is reported.
SETUP_MIN = 3
SETUP_MAX = 15
SETUP_BUDGET_S = 1.0

# The host this was built on switches between a fast and a slow state
# (a factor of about 1.6 on short computations) every few seconds to
# minutes.  So a timed part is cut into segments of about SEGMENT_S seconds
# (at the first training step, eval view or ranked query after that long);
# each segment starts right after one run of a fixed reference computation
# and counts as its duration times REFERENCE_S over that reference time.
# The scaled times read as seconds on a host where the reference takes
# REFERENCE_S; the raw ones are printed too.
REFERENCE_S = 0.007
SEGMENT_S = 0.25


def reference_seconds() -> float:
    """Time one fixed computation: small numpy operations driven from Python."""
    import numpy as np

    x, w = np.ones((6, 48)), np.full((48, 48), 0.01)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(800):
        acc += float(np.sum(np.tanh(x @ w + 0.1)))
        acc += len({"step": i, "pair": [i, i + 1]})
    return time.perf_counter() - t0


class Calibration:
    """Segments of one timed part, each timed right after a reference run."""

    def __init__(self):
        self.segments: list[tuple[float, float]] = []   # (seconds, reference seconds)
        self.pauses: list[tuple[float, float]] = []     # (start, end) of reference runs
        self._open: tuple[float, float] | None = None

    def start(self) -> None:
        self.segments, self.pauses = [], []
        self._open_segment()

    def mark(self, *args, **kwargs) -> None:
        """Start the next segment if the open one is SEGMENT_S long."""
        if self._open is not None and time.perf_counter() - self._open[0] >= SEGMENT_S:
            self._close_segment()
            self._open_segment()

    def stop(self) -> None:
        self._close_segment()
        self._open = None

    def _open_segment(self) -> None:
        t0 = time.perf_counter()
        reference = reference_seconds()
        self._open = (time.perf_counter(), reference)
        self.pauses.append((t0, self._open[0]))

    def _close_segment(self) -> None:
        t0, reference = self._open
        self.segments.append((time.perf_counter() - t0, reference))

    def raw(self) -> float:
        return sum(t for t, _ in self.segments)

    def unpaused(self, t0: float, t1: float) -> float:
        """Seconds from ``t0`` to ``t1`` less the reference runs within."""
        return t1 - t0 - sum(min(t1, b) - max(t0, a) for a, b in self.pauses if a < t1 and b > t0)

    def scaled(self) -> float:
        return sum(REFERENCE_S * t / r for t, r in self.segments)


def environment(workload: str, seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {v: os.environ[v] for v in
                    ("GCUM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Run:
    """One benchmark process: attempts, failures and the phase recorder."""

    def __init__(self, workload_cls, seed: int, workdir: Path):
        from gcum.diffcore import NonFiniteError
        import tracing
        from workloads import CheckFailed, CommandFailed

        self.cls, self.seed, self.workdir = workload_cls, seed, workdir
        self.expected = (NonFiniteError, CheckFailed, CommandFailed)
        self.attempted = 0
        self.failures: list[str] = []
        self.calibration = Calibration()
        marks = {name: self.calibration.mark for name in tracing.SEGMENT_MARKS}
        self.phases = tracing.Recorder(only=tracing.PHASES, before=marks)

    def new_workload(self, tag: str):
        path = self.workdir / tag
        path.mkdir(parents=True)
        return self.cls(self.seed, str(path))

    def attempt(self, fn):
        """Run ``fn``; a failure is recorded and printed, and the run goes on."""
        self.attempted += 1
        try:
            return fn()
        except self.expected as e:
            message = f"{type(e).__name__}: {e}"
        except Exception:  # any other error fails this iteration, not the run
            message = traceback.format_exc()
        self.failures.append(message)
        print(f"failed: {message}", flush=True)
        return None

    def iteration(self, wl, first, calibrate: bool = False):
        """One timed iteration plus its checks, with the phase times it spent."""
        first_span = len(self.phases.spans)
        if calibrate:
            self.calibration.start()
            try:
                out = wl.iterate()
            finally:
                self.calibration.stop()
            out.phases["raw_wall_s"] = self.calibration.raw()
            out.wall_s = self.calibration.scaled()
        else:
            out = wl.iterate()
        spans = self.phases.spans[first_span:]
        stage = {f"stage{k}_s": sum(s[2] - s[1] for s in spans if s[0] == f"trainer.train_stage{k}")
                 for k in (1, 2)}
        out.phases = {**{k: v for k, v in stage.items() if v}, **out.phases}
        out.phases["eval_views_per_s"] = statistics.median(
            views / self.calibration.unpaused(t0, t1)
            for views, t0, t1 in self.phases.evaluations_since(first_span))
        wl.check(out, first)
        return out


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics of one untraced run."""
    wl = run.new_workload("main")
    setup, raw_setup = [], []
    with run.phases.installed():
        while len(setup) < SETUP_MIN or (sum(raw_setup) < SETUP_BUDGET_S and len(setup) < SETUP_MAX):
            run.calibration.start()
            wl.setup()
            run.calibration.stop()
            setup.append(run.calibration.scaled())
            raw_setup.append(run.calibration.raw())
        outs = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            out = run.attempt(lambda: run.iteration(wl, outs[0] if outs else None, calibrate=True))
            if out is not None:
                outs.append(out)
                print(f"iteration {len(outs)}: wall_s={out.wall_s:.4f} "
                      + " ".join(f"{k}={v:.4f}" for k, v in out.phases.items()), flush=True)
            now = time.perf_counter()
            if now - start + (now - t0) > seconds:
                break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (_median(setup), "s"),
        "wall_s": (_median([o.wall_s for o in outs]), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    shown = dict(metrics)
    shown["raw_setup_s"] = (_median(raw_setup), "s")
    for key, unit in (("raw_wall_s", "s"), ("stage1_s", "s"), ("stage2_s", "s"),
                      ("eval_views_per_s", "views/s")):
        if outs and key in outs[0].phases:
            shown[key] = (_median([o.phases[key] for o in outs]), unit)
    if outs:
        shown["rank1"] = (outs[0].rank1, "ratio")
        shown["mAP"] = (outs[0].mAP, "ratio")
    shown["failed_frac"] = (len(run.failures) / run.attempted, "ratio")
    shown["setups"] = (len(setup), "count")
    shown["iterations"] = (len(outs), "count")
    return metrics, shown


def measure_traced(run: Run) -> tuple[dict, dict]:
    """Per-layer metrics: one untraced and one traced iteration of one seed."""
    import tracing
    from workloads import CheckFailed

    plain = run.new_workload("untraced")
    with run.phases.installed():
        plain.setup()
        base = run.attempt(lambda: run.iteration(plain, None))

    rec = tracing.Recorder()
    traced = run.new_workload("traced")

    def traced_iteration():
        with rec.installed():
            rec.run_id = "setup"
            traced.setup()
            rec.run_id = "iteration"
            out = traced.iterate()
        traced.check(out, base)
        if base is not None and (out.rank1, out.mAP) != (base.rank1, base.mAP):
            raise CheckFailed("tracing changed rank1/mAP")
        return out

    out = run.attempt(traced_iteration)
    rec.write_csv(str(OUT / f"trace-{run.cls.name}.csv"))
    metrics = tracing.layer_metrics(rec)
    overhead = out.wall_s - base.wall_s if out is not None and base is not None else 0.0
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["evaluation.rank1"] = (out.rank1 if out else 0.0, "ratio")
    metrics["evaluation.mAP"] = (out.mAP if out else 0.0, "ratio")
    return metrics, dict(metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "gcum" / "__init__.py").is_file():
        print(f"error: no gcum package under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    env = environment(args.workload, args.seed)
    print("env " + json.dumps(env), flush=True)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    run = Run(WORKLOADS[args.workload], args.seed, workdir)
    try:
        if args.trace:
            metrics, shown = measure_traced(run)
        else:
            metrics, shown = measure(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in shown.items():
        print(f"metric {name} {value!r} {unit}")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(OUT / f"result-{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "failures": run.failures, "shown": shown, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
