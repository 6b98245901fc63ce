"""One-off traced run at the acceptance suite's ``default_run`` size.

    python3 perfbench/reference.py

Plants the acceptance set through the CLI (``hieract synth``, seed 0, 20
training and 5 held-out videos per class), trains it as ``default_run``
does (temporal supervision, exact inference, C=10, 3 CCCP rounds, at most
400 cutting-plane iterations, default eps_qp), annotates the held-out
videos, and prints the per-layer metrics of that single round as JSON. It
takes about ten minutes on a 2-core machine; the figures in README.md come
from it.
"""
from __future__ import annotations

import json
import shutil
import sys
import time

import run  # sets the BLAS thread count before numpy loads


def main() -> int:
    run.import_program()
    import spans
    import speed
    import workloads

    tracer = spans.Tracer(True)
    tracer.install()
    pipe = workloads.Pipeline(tracer, speed.Meter())
    work = run.OUT / "reference"
    shutil.rmtree(work, ignore_errors=True)
    data, config = work / "data", work / "run.ini"
    try:
        pipe.run("synth", "--out", data, "--seed", 0,
                 "--videos-per-class", 20, "--test-per-class", 5)
        workloads.write_config(config, beam="none")
        start = time.perf_counter()
        pipe.run("train", "--config", config,
                 "--features", data / "train" / "features",
                 "--annotations", data / "train" / "annotations.csv",
                 "--labels", data / "train" / "labels.csv",
                 "--num-poselets", 8, "--supervision", "temporal",
                 "--C", 10, "--max-cccp-iters", 3,
                 "--max-cutting-plane-iters", 400,
                 "--out", work / "model.json", "--log", work / "log.jsonl")
        fit_s = time.perf_counter() - start
        pipe.run("annotate", "--config", config,
                 "--model", work / "model.json",
                 "--features", data / "test" / "features",
                 "--out", work / "frames.csv", "--labels-out",
                 work / "labels.csv")
        log = (work / "log.jsonl").read_text() if not pipe.broken else ""
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for error in pipe.errors:
        print(error, file=sys.stderr)
    metrics = spans.layer_metrics(tracer, 1, fit_s)
    print(json.dumps({"train_log": [json.loads(line)
                                    for line in log.splitlines()],
                      "metrics": {k: v for k, (v, _) in metrics.items()}},
                     indent=1))
    return 1 if pipe.failed else 0


if __name__ == "__main__":
    sys.exit(main())
