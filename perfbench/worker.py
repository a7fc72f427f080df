"""One workload in one fresh process: set up, warm up, measure, check.

Started by run.py, which fixes the BLAS thread count and PYTHONPATH in the
environment before this interpreter starts.  Prints one JSON object.

    python3 perfbench/worker.py --manifest M --src SRC --seconds S --trace 0|1
                                [--setup-only] [--spans FILE]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import traceback


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--src", required=True, help="the src/ directory to measure")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    # Set-up: the program's import and, on score-model, its model load.
    import bandgauge
    from bandgauge import classifier

    with open(args.manifest, encoding="utf-8") as fh:
        man = json.load(fh)
    if not os.path.abspath(bandgauge.__file__).startswith(os.path.abspath(args.src) + os.sep):
        print(f"bandgauge imported from {bandgauge.__file__}, not {args.src}", file=sys.stderr)
        return 3
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.op = "setup"
    model = classifier.load_params(man["model"]) if "model" in man else None
    ready = time.monotonic()
    if tracer:
        tracer.uninstall()
        tracer.op = None
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    import workloads

    ops, check_round = workloads.build(man, model)
    result = {"ready": ready, "ops_per_round": len(ops)}

    # Warm-up round: fills caches and gives the reference outputs that
    # every timed round must reproduce exactly.
    ref, warm = run_round(ops, None, None, None)
    errors = list(warm["errors"]) + check_round(ref)

    def measure(budget, tr):
        rounds = []
        t0 = time.monotonic()
        while not rounds or time.monotonic() - t0 < budget:
            outs, rnd = run_round(ops, ref, tr, len(rounds))
            errors.extend(rnd["errors"] + check_round(outs))
            rounds.append(rnd)
        return rounds

    if tracer:
        plain = measure(args.seconds / 2, None)
        tracer.install()
        traced = measure(args.seconds / 2, tracer)
        tracer.uninstall()
        rounds = plain + traced
    else:
        plain = rounds = measure(args.seconds, None)
    result.update(
        attempted=sum(r["ops"] for r in rounds),
        failed=sum(r["failed"] for r in rounds),
        errors=errors[:20],
        n_errors=len(errors),
        ops_per_s=_rate(plain),
        round_s=[r["seconds"] for r in rounds],
        round_cpu_s=[r["cpu_s"] for r in rounds],
        op_s={name: [r["op_s"][i] for r in rounds] for i, name in enumerate(o.name for o in ops)},
        op_class={o.name: o.cls for o in ops},
        peak_rss_mb=_peak_rss_mb(),
    )
    if tracer:
        from tracer import layer_metrics

        result["layers"] = layer_metrics(
            tracer.spans, sum(r["ops"] for r in traced), _rate(traced), _rate(plain)
        )
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


def _peak_rss_mb() -> float:
    """This process image's peak resident set (VmHWM).

    Not ru_maxrss: Linux carries that across fork and exec, so it would
    report the parent's input generation.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _rate(rounds) -> float:
    """Ops per second over whole rounds only."""
    return sum(r["ops"] for r in rounds) / sum(r["seconds"] for r in rounds)


def run_round(ops, ref, tracer, round_no):
    """Each op once, in order; only the op calls themselves are timed."""
    outs, op_s, errors, failed, cpu_s = [], [], [], 0, 0.0
    for i, op in enumerate(ops):
        span = tracer.open_op((round_no, i)) if tracer else None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failed op is counted; the round goes on
            out = exc
        t1, c1 = time.perf_counter(), time.process_time()
        cpu_s += c1 - c0
        if span is not None:
            tracer.close_op(span)
        op_s.append(t1 - t0)
        if isinstance(out, Exception):
            traceback.print_exception(out, file=sys.stderr)
            failed += 1
            errors.append(f"{op.name}: {type(out).__name__}: {out}")
            outs.append(None)
            continue
        errors.extend(f"{op.name}: {e}" for e in op.check(out, ref[i] if ref else None))
        outs.append(op.summary(out))
        out = None  # so that peak_rss_mb sees one op's output at a time
    return outs, {
        "cpu_s": cpu_s,
        "ops": len(ops),
        "failed": failed,
        "seconds": math.fsum(op_s),
        "op_s": op_s,
        "errors": errors,
    }


if __name__ == "__main__":
    sys.exit(main())
