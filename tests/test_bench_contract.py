"""The benchmark's traced run keeps working against the current tree.

`perfbench/run.py --trace 1` wraps the names `cli.run` calls into and walks
the parse tree's dataclass fields; a change that breaks that contract
passes every other test and then fails the benchmark with exit 2. This runs
the harness's own worker and span analysis on a few cases.
"""

import importlib.util
import statistics
from pathlib import Path

import pytest

pytest.importorskip("sympy")  # run.py imports its SymPy oracle

ROOT = Path(__file__).resolve().parent.parent


def load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_worker_records_every_stage():
    run = load_run()
    workloads = run.WORKLOADS
    cases = workloads["det3x3"](ROOT, 1) + workloads["notebook"](ROOT, 1)[:20]
    try:
        result = run.run_worker(cases, 0.05, trace=True)
        run.per_layer(result, statistics.median(result["times"]))
    except SystemExit as exc:
        pytest.fail(f"the traced benchmark run failed with exit {exc.code}")
    assert len(result["checked"]) == len(cases)
    assert {code for code, _, _ in result["checked"]} <= {0, 2, 3, 4}
