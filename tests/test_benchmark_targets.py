"""The benchmark's traced run wraps library functions by name; every name
it lists must exist, and the wrapped functions must still be reached with
the arguments its counters read, or a traced run breaks."""
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, attr, span", _targets())
def test_span_target_resolves(module_name, attr, span):
    assert callable(getattr(importlib.import_module(module_name), attr))


# Installs the benchmark's tracer, runs a small desk pipeline through the
# CLI and prints each command's exit code and the tracer's counters. It
# runs in a child process, because installing the tracer rebinds module
# globals for good.
TRACED_PIPELINE = """
import importlib.util, json, sys
spans_path, out = sys.argv[1], sys.argv[2]
spec = importlib.util.spec_from_file_location("perfbench_spans", spans_path)
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer(enabled=True)
tracer.install()
from hieract import cli
data, model = out + "/data", out + "/model.json"
commands = [
    ["synth", "--out", data, "--classes", "2", "--actions", "2",
     "--actionlets", "2", "--poselets", "3", "--regions", "2",
     "--dim", "5", "--min-frames", "14", "--max-frames", "18",
     "--videos-per-class", "4", "--test-per-class", "2",
     "--actions-per-class", "1", "--seed", "5"],
    ["train", "--features", data + "/train/features",
     "--annotations", data + "/train/annotations.csv",
     "--labels", data + "/train/labels.csv", "--out", model,
     "--num-poselets", "3", "--supervision", "temporal", "--C", "10",
     "--beam", "none", "--max-cccp-iters", "1"],
    ["annotate", "--model", model, "--features", data + "/test/features",
     "--out", out + "/frames.csv", "--labels-out", out + "/labels.csv",
     "--beam", "none"],
    ["infer", "--model", model, "--features", data + "/test/features",
     "--out", out + "/pred", "--beam", "none"],
]
codes = {argv[0]: cli.main(argv) for argv in commands}
print(json.dumps({"codes": codes, "counts": dict(tracer.counts)}))
"""


def test_traced_pipeline_reaches_the_inference_spans(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", TRACED_PIPELINE, str(SPANS), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=600)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["codes"] == {"synth": 0, "train": 0, "annotate": 0,
                               "infer": 0}, done.stdout
    assert report["counts"]["inference.infer"] > 0
    assert report["counts"]["inference.loss_aug"] > 0
