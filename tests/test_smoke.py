"""End-to-end checks of what readers run first: the README's library example
the benchmark's smoke check, and ``python -m hiertsc``.

The benchmark binds every public function of the package by name, so a
deleted or renamed parameter that it passes breaks it; the smoke check runs
each workload at a tiny size, in both trace modes, in its own process.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    library = readme[readme.index("## Library") :]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["labels"].shape == namespace["depths"].shape == (namespace["data"].n_instances,)
    assert json.loads(namespace["bundle"])["label_names"] == {"0": "0", "1": "1", "2": "2", "3": "3"}


def test_benchmark_smoke_check_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    ok = [line for line in proc.stdout.splitlines() if line.endswith(": ok")]
    assert ok == [
        f"smoke {workload} trace={trace}: ok"
        for workload in ("nested-linear", "fit-serve")
        for trace in (0, 1)
    ]


def test_python_m_hiertsc_runs_from_a_checkout():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "hiertsc", "trees", "--classes", "4"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout)["distinct_trees"] == 15
