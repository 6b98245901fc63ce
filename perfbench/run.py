"""Pipeline benchmark for hieract: one command, two workloads.

    python3 perfbench/run.py --workload desk-train --seed 1 \
        --seconds 40 --trace 0

Runs whole rounds of the workload's pipeline through ``hieract.cli.main``
in this process (a closed loop with one client) for about ``--seconds``,
at least two rounds, checks every round's outputs, and prints one JSON
object as the last line of standard output. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` wraps the program's layers in spans,
reports the per-layer metrics, and writes the spans to ``.bench_out/``.
Every time is in reference seconds: wall time scaled by the machine's
speed measured during it (``speed.py``). The program is imported from
``src/`` of the checkout this file sits in.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

# One BLAS thread (which also keeps HiGHS to the calling thread): the
# benchmark is one process on a 2-core machine. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# Peak memory grows from the first round to the second (freed blocks stay in
# the allocator), so every run measures at least two.
MIN_ROUNDS = 2
# Kernel samples taken right after the imports, to scale the import time.
IMPORT_SAMPLES = 8


def import_program() -> float:
    """Import the program from the checkout; seconds taken."""
    start = time.perf_counter()
    src = ROOT / "src"
    if not (src / "hieract" / "__init__.py").is_file():
        raise ImportError(f"no hieract package under {src}")
    sys.path.insert(0, str(src))
    import hieract.cli  # noqa: F401
    import workloads  # noqa: F401  (numpy, the checks)
    return time.perf_counter() - start


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["desk-train", "paper-scale"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    try:
        import_s = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 1
    import spans
    import speed
    import workloads

    meter = speed.Meter()
    for _ in range(IMPORT_SAMPLES):
        meter.sample()
    import_s *= meter.scale()
    tracer = spans.Tracer(bool(args.trace), meter.clock)
    tracer.install()
    pipe = workloads.Pipeline(tracer, meter)
    run_round = workloads.WORKLOADS[args.workload]
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    base_seed = (args.seed % 2 ** 32) * 1000   # numpy seeds are >= 0
    rounds = []
    start = time.perf_counter()
    meter.start()
    try:
        # At least MIN_ROUNDS rounds; past that, another round starts only
        # if at the mean round time so far it ends within --seconds. Round
        # seeds derive from the workload seed.
        while len(rounds) < MIN_ROUNDS or (
                (time.perf_counter() - start) * (len(rounds) + 1)
                / len(rounds) <= args.seconds):
            round_dir = work / f"round{len(rounds)}"
            round_dir.mkdir(parents=True)
            pipe.start_round()
            rounds.append(run_round(pipe, round_dir,
                                    base_seed + len(rounds)))
            shutil.rmtree(round_dir, ignore_errors=True)
    finally:
        meter.stop()
        shutil.rmtree(work, ignore_errors=True)

    problems = [p for r in rounds for p in r.problems] + pipe.errors
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for fault in dict.fromkeys(pipe.faults):
        print(f"known fault, counted in failed: {fault}", file=sys.stderr)
    # A round whose commands failed skipped its checks (frames stays 0).
    done = [r for r in rounds if r.frames]
    fit_s = median([r.fit_s for r in done]) if done else 0.0
    if args.trace:
        metrics = spans.layer_metrics(tracer, len(rounds), fit_s,
                                      meter.scale())
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": (import_s + median([r.setup_s for r in rounds]), "s"),
            "fit_s": (fit_s, "s"),
            "annotate_fps": (median([r.frames / r.label_s for r in done])
                             if done else 0.0, "frames/s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }
    print(json.dumps({
        "correct": not problems and len(done) == len(rounds),
        "attempted": pipe.attempted,
        "failed": pipe.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
