"""The benchmark's seed-0 reference checks, run as tests.

``perfbench/run.py`` compares a seed-0 run's outputs (losses, accuracies, link
prediction metrics) with ``perfbench/reference.json``, so a change that moves
a number the benchmark pins fails here rather than only in a benchmark run.
Each run works on a copy of ``perfbench/`` and ``src/`` in a temporary
directory, since the benchmark writes its inputs and results beside them.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["news-v5k-cv", "kg-2k", "news-v50k"])
def test_seed_0_run_passes_the_reference_checks(tmp_path, workload):
    for part in ("perfbench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", "0", "--seconds", "0.1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    last = json.loads(run.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, run.stdout
