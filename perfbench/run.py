"""Benchmark of bandgauge, from image files to scores and from ratings to metrics.

    python3 perfbench/run.py --workload score-baseline --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12

Run from any directory of a checkout; it measures the program under the
checkout's src/.  Each run generates its workload's inputs from --seed,
then starts fresh worker processes: a few that only set up (their median is
setup_s) and one that sets up, plays one untimed warm-up round and then
whole timed rounds for --seconds.  With --trace 1 the worker measures half
the time untraced and half with spans around every stage, and reports the
per-layer metrics instead of the end-to-end ones.  The last line printed is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread in every process of the benchmark (2-CPU machine; the
# classifier's matmuls are the only BLAS users).  Set before numpy loads.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("score-baseline", "score-model", "ingest", "offline")
SETUP_PROBES = 4
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def _worker(manifest: Path, seconds: float, trace: int, deadline: float, extra=()) -> dict:
    """Run worker.py in a fresh interpreter; adds setup_s to its result."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--manifest", str(manifest),
        "--src", str(SRC), "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=str(ROOT))
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.decode("utf-8").strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    # CLOCK_MONOTONIC is system-wide, so the child's reading is comparable.
    result["setup_s"] = result["ready"] - started
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    import gen  # imports bandgauge from SRC

    work = OUT / f"inputs-{workload}-{seed}-{os.getpid()}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        manifest = Path(gen.write_inputs(workload, seed, str(work)))
        setups = [
            _worker(manifest, seconds, 0, deadline, ["--setup-only"])["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        extra = ["--spans", str(results / f"spans-{workload}.jsonl")] if trace else []
        res = _worker(manifest, seconds, trace, deadline, extra)
        with open(manifest, encoding="utf-8") as fh:
            man = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(res["setup_s"])
    res.update(workload=workload, seed=seed, trace=trace, setup_samples=setups,
               filter_rows=man.get("filter_rows"))
    with open(results / f"{workload}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
    else:
        metrics = {
            "ops_per_s": {"value": res["ops_per_s"], "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    return {
        "correct": res["n_errors"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
        "errors": res["errors"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "bandgauge" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {SRC / 'bandgauge'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            out = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        errors = out.pop("errors")
        print(f"{name} seed {args.seed}: {out['attempted']} ops attempted, "
              f"{out['failed']} failed, outputs {'correct' if out['correct'] else 'WRONG'}")
        for e in errors:
            print(f"  check failed: {e}")
        for metric, mv in out["metrics"].items():
            print(f"  {metric} = {mv['value']:.6g} {mv['unit']}")
        print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
