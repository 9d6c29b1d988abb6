#!/usr/bin/env python3
"""polybridge benchmark: one workload per invocation, every output checked.

    python3 perfbench/run.py --workload det3x3|flat_sum|notebook \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; polybridge is imported from
``src/``. The inputs come from ``--seed``; each distinct input is checked
once against a SymPy oracle, and every timed conversion must reproduce the
checked bytes. A fresh worker process (``worker.py``) times ``cli.run``
in a closed loop with one client for ``--seconds``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` splits the time
between an untraced and a traced worker and prints the per-layer metrics
from the traced one's spans. Readable lines come first; the last line of
stdout is one JSON object with keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from workloads import FIXTURE, WORKLOADS  # noqa: E402

SETUP_RUNS = 21
WORKER_TIMEOUT_S = 150
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
IMPORT_CLI = "import sys; sys.path.insert(0, sys.argv[1]); import polybridge.cli"


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def measure_setup_s() -> float:
    """Median wall time for a fresh interpreter to import polybridge.cli.

    Only the exit status is used: ``python -m polybridge.cli`` warns on
    stderr, and the import alone is what every CLI call pays before parsing.
    """
    cmd = [sys.executable, "-I", "-c", IMPORT_CLI, str(SRC)]
    subprocess.run(cmd, check=True, capture_output=True)  # writes bytecode caches
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_worker(cases, seconds: float, trace: bool) -> dict:
    job = {
        "src": str(SRC),
        "seconds": seconds,
        "trace": trace,
        "cases": [[c.text, c.fmt] for c in cases],
    }
    proc = subprocess.run(
        [sys.executable, "-I", str(HERE / "worker.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        timeout=seconds + WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        fail(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def judge(cases, expected, checked) -> list[bool]:
    """Oracle verdict per distinct case; reports the first few failures."""
    ok = [oracle.check(e, *result) for e, result in zip(expected, checked)]
    wrong = [(case, result) for case, result, good in zip(cases, checked, ok) if not good]
    for case, (code, out, err) in wrong[:5]:
        print(f"oracle: wrong result for {case.text[:80]!r} ({case.fmt}): "
              f"exit {code}, stdout {out[:80]!r}, stderr {err[:80]!r}", file=sys.stderr)
    return ok


def failures(result: dict, ok: list[bool]) -> int:
    """Timed conversions whose case failed the oracle or whose bytes changed."""
    n = len(ok)
    bad = set(result["mismatched"])
    return sum(1 for i in range(len(result["times"])) if i in bad or not ok[i % n])


def end_to_end(result: dict, failed: int, setup_s: float) -> tuple[dict, list[str]]:
    """The gated end-to-end metrics, and readable lines for the rest.

    The tail latency is printed but not gated: on notebook it is the 11th
    slowest of ~40k samples, set by the machine's stalls rather than by the
    program, and moved by a third between runs of the same code.
    """
    times = sorted(result["times"])
    n = len(times)
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0
    successes = [out for code, out, _ in result["checked"] if code == 0]
    metrics = {
        "latency_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "throughput_ops_s": (n / result["wall_s"], "1/s"),
        "ok_frac": (1 - failed / n, "frac"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
        "output_bytes": (
            statistics.fmean(len(s.encode("utf-8")) for s in successes) if successes else 0.0,
            "B",
        ),
        "setup_s": (setup_s, "s"),
    }
    notes = [
        f"latency_tail_ms {times[n - 1 - beyond] * 1e3:.6g} ms "
        f"(p{100.0 * (n - beyond) / n:.3f} of {n} samples)",
        f"failed_frac {failed / n:.6g} ({failed} of {n} conversions)",
    ]
    return metrics, notes


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer(result: dict, p50_s: float) -> dict:
    """Per-conversion medians and layer shares of cli.run from the spans."""
    spans, counts = result["spans"], result["counts"]
    per = [dict() for _ in counts]

    def add(conv: int, key: str, seconds: float) -> None:
        per[conv][key] = per[conv].get(key, 0.0) + seconds

    for conv, name, start, end, parent in spans:
        d = end - start
        parent_name = spans[parent][1] if parent >= 0 else None
        if name == "parser.tokenize" and parent_name != "parser.parse":
            continue  # the option check's identifier test: cli's own time
        add(conv, name, d)
        if parent_name == "cli.run":
            add(conv, "children", d)
            if name in ("algebra.collect", "algebra.normalize"):
                add(conv, "stage", d)
    for p in per:
        p["self"] = p["cli.run"] - p.get("children", 0.0)
    stages = ("parser.parse", "parser.tokenize", "rename.apply", "stage", "algebra.simplify", "emitter.emit")
    unseen = [s for s in stages if not any(s in p for p in per)]
    if unseen:
        fail(f"traced run recorded no {unseen} spans: cli.run no longer calls the wrapped names")

    def ms(key):
        return _median(p[key] * 1e3 for p in per if key in p), "ms"

    def count(key):
        return _median(c[key] for c in counts if key in c), "count"

    def total(key, source=per):
        return sum(p.get(key, 0.0) for p in source)

    run_s = total("cli.run")
    run_ms = ms("cli.run")
    return {
        "parser.parse_ms": ms("parser.parse"),
        "parser.tokenize_ms": ms("parser.tokenize"),
        "parser.tokens": count("tokens"),
        "parser.nodes": count("nodes"),
        "parser.tokens_per_s": (total("tokens", counts) / max(total("parser.tokenize"), 1e-12), "1/s"),
        "parser.share": (total("parser.parse") / run_s, "frac"),
        "rename.apply_ms": ms("rename.apply"),
        "rename.symbols": count("symbols"),
        "rename.renamed": count("renamed"),
        "rename.share": (total("rename.apply") / run_s, "frac"),
        "algebra.collect_ms": ms("stage"),
        "algebra.normalize_ms": ms("algebra.normalize"),
        "algebra.simplify_ms": ms("algebra.simplify"),
        "algebra.terms_out": count("terms_out"),
        "algebra.max_coeff_bits": (count("max_coeff_bits")[0], "bits"),
        "algebra.degree": count("degree"),
        "algebra.simplify_useful_frac": (
            total("simplify_changed", counts) / max(total("simplify_tried", counts), 1), "frac"
        ),
        "algebra.share": ((total("stage") + total("algebra.simplify")) / run_s, "frac"),
        "emitter.emit_ms": ms("emitter.emit"),
        "emitter.bytes_per_s": (total("emit_bytes", counts) / max(total("emitter.emit"), 1e-12), "B/s"),
        "emitter.share": (total("emitter.emit") / run_s, "frac"),
        "cli.run_ms": run_ms,
        "cli.self_ms": ms("self"),
        "cli.self_share": (total("self") / run_s, "frac"),
        "trace.overhead_frac": (run_ms[0] / (p50_s * 1e3) - 1, "frac"),
    }


def environment() -> dict:
    import sympy

    fixture = (ROOT / FIXTURE).read_text(encoding="utf-8")
    times = []
    for _ in range(3):
        start = time.perf_counter()
        oracle.evaluate(fixture, oracle.make_ring(fixture, "x"))
        times.append(time.perf_counter() - start)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "sympy": sympy.__version__,
        "sympy_ring_det3x3_ms": round(statistics.median(times) * 1e3, 2),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    load_1m = os.getloadavg()[0]
    if not (SRC / "polybridge" / "cli.py").is_file() or not (ROOT / FIXTURE).is_file():
        fail(f"no polybridge source tree at {ROOT}; run from a checkout root")

    cases = WORKLOADS[args.workload](ROOT, args.seed)
    expected = [oracle.expect(c.explicit, c.fmt) for c in cases]
    missed = oracle.self_test()
    if missed:
        fail(f"oracle self-test accepted wrong results: {missed}")
    env = environment() | {"loadavg_1m_at_start": load_1m}

    setup_s = measure_setup_s()
    seconds = args.seconds / 2 if args.trace else args.seconds
    plain = run_worker(cases, seconds, trace=False)
    ok = judge(cases, expected, plain["checked"])
    first = next((i for i, e in enumerate(expected) if e.code == 0 and ok[i]), None)
    if first is not None:
        missed = oracle.self_test(expected[first], plain["checked"][first][1])
        if missed:
            fail(f"oracle self-test accepted wrong results: {missed}")

    attempted = len(plain["times"])
    failed = failures(plain, ok)
    metrics, notes = end_to_end(plain, failed, setup_s)
    lines = dict(metrics)
    if args.trace:
        traced = run_worker(cases, seconds, trace=True)
        same = [t == p for t, p in zip(traced["checked"], plain["checked"])]
        for case, s in zip(cases, same):
            if not s:
                print(f"trace: traced output differs for {case.text[:80]!r}", file=sys.stderr)
        attempted += len(traced["times"])
        failed += failures(traced, [o and s for o, s in zip(ok, same)])
        metrics = per_layer(traced, statistics.median(plain["times"]))
        lines |= metrics
        notes.append(f"traced conversions: {len(traced['times'])}, spans: {len(traced['spans'])}")

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: closed loop, 1 client, {len(cases)} distinct inputs")
    print("env " + json.dumps(env))
    for name, (value, unit) in lines.items():
        print(f"{name} {value:.6g} {unit}")
    for note in notes:
        print(note)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
