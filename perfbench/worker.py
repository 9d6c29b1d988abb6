"""Timed worker: drives ``polybridge.cli.run`` in a closed loop, one client.

Run as ``python -I worker.py`` with a JSON job on stdin:
``{"src": ..., "seconds": ..., "trace": bool, "cases": [[text, format], ...]}``.
It imports only the standard library and polybridge. Every conversion gets
in-memory stdin/stdout/stderr, so no terminal I/O is timed; GC keeps its
defaults because users pay for it. One warm-up pass (continued for at least
a second) comes first; its outputs are the bytes the parent checks against
the oracle, and every timed conversion is compared with them.

With ``"trace": true`` the module-level names that ``cli.run`` calls into
are wrapped so each call records a span (name, start, end, parent) in
memory; ``cli.run`` itself runs unchanged, so the spans decompose the same
program. Counts that need work (tree nodes, output terms) are taken after
``run`` returns, outside every span. Spans go to the parent when the run
ends.

The result is one JSON object on stdout.
"""

from __future__ import annotations

import io
import json
from array import array
import resource
import sys
import time
import traceback
from dataclasses import fields, is_dataclass

WARMUP_SECONDS = 1.0


def convert(run, options, text: str) -> tuple[float, tuple[int, str, str]]:
    """One conversion; returns its wall time and (exit code, stdout, stderr)."""
    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), out, err
    try:
        start = time.perf_counter()
        try:
            code = run(options)
        except Exception:
            # What an uncaught exception does to the real process.
            code = 1
            traceback.print_exc(file=err)
        elapsed = time.perf_counter() - start
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return elapsed, (code, out.getvalue(), err.getvalue())


class Tracer:
    """Wraps the calls ``cli.run`` makes into each layer and records spans.

    A span is [conversion, name, start, end, parent span index]. Wrapping the
    names that ``cli``, ``parser.parse`` and ``algebra.collect_main_var``
    look up at call time keeps stage order and arguments exactly those of
    ``cli.run``.
    """

    # (module, attribute) -> span name
    TARGETS = {
        ("cli", "parse"): "parser.parse",
        ("parser", "tokenize"): "parser.tokenize",
        ("cli", "apply_renames"): "rename.apply",
        ("cli", "collect_main_var"): "algebra.collect",
        ("cli", "normalize"): "algebra.normalize",
        ("algebra", "normalize"): "algebra.normalize",
        ("cli", "simplify"): "algebra.simplify",
        ("cli", "emit_coeff_script"): "emitter.emit",
        ("cli", "emit_coeff_vector"): "emitter.emit",
        ("cli", "emit_expr"): "emitter.emit",
    }

    def __init__(self, polybridge):
        self.symbols_of = polybridge.expr.symbols_of
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.conversion = -1
        # span name -> (parent span name, args, return value) of this conversion
        self.calls: dict[str, list] = {}
        for (module, attr), name in self.TARGETS.items():
            mod = getattr(polybridge, module)
            setattr(mod, attr, self._wrap(name, getattr(mod, attr)))
        self.run = self._wrap("cli.run", polybridge.cli.run)

    def _wrap(self, name: str, fn):
        spans, stack, calls = self.spans, self.stack, self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [self.conversion, name, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            calls.setdefault(name, []).append((spans[parent][1] if parent >= 0 else None, args, out))
            return out

        return traced

    def begin(self, conversion: int) -> None:
        self.conversion = conversion
        self.calls.clear()

    def counts(self) -> dict:
        """Sizes of this conversion's work, taken outside every span."""
        calls = self.calls
        c = {}
        tokens = [out for parent, _, out in calls.get("parser.tokenize", ()) if parent == "parser.parse"]
        if tokens:
            c["tokens"] = len(tokens[0])
        if "parser.parse" in calls:
            c["nodes"] = _count_nodes(calls["parser.parse"][0][2])
        if "rename.apply" in calls:
            _, (tree, *_), renamed = calls["rename.apply"][0]
            before, after = self.symbols_of(tree), self.symbols_of(renamed)
            c["symbols"] = len(before)
            c["renamed"] = len(before - after)
        if "algebra.collect" in calls:
            c["degree"] = calls["algebra.collect"][0][2].degree
        if "algebra.simplify" in calls:
            simplified = calls["algebra.simplify"]
            polys = [p for _, _, v in simplified for p in (v.numerator, v.denominator)]
            c["terms_out"] = sum(len(p.terms) for p in polys)
            c["max_coeff_bits"] = max(
                (abs(x.numerator).bit_length() for p in polys for x in p.terms.values()),
                default=0,
            )
            c["simplify_tried"] = len(simplified)
            c["simplify_changed"] = sum(v is not args[0] for _, args, v in simplified)
        if "emitter.emit" in calls:
            c["emit_bytes"] = len(calls["emitter.emit"][0][2].encode("utf-8"))
        return c


def _count_nodes(tree) -> int:
    n, stack = 0, [tree]
    while stack:
        node = stack.pop()
        n += 1
        for f in fields(node):
            v = getattr(node, f.name)
            if is_dataclass(v):
                stack.append(v)
            elif isinstance(v, tuple) and v and is_dataclass(v[0]):
                stack.extend(v)
    return n


def peak_rss_kb() -> int:
    """This process's peak RSS since exec.

    ``ru_maxrss`` would do, except that Linux carries it across exec, so it
    would report the (much larger) parent this worker was forked from.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    import polybridge
    from polybridge import cli

    tracer = Tracer(polybridge) if job["trace"] else None
    run = tracer.run if tracer else cli.run
    cases = [(cli.CliOptions(format=fmt), text) for text, fmt in job["cases"]]

    checked = []
    start = time.perf_counter()
    while not checked or time.perf_counter() - start < WARMUP_SECONDS:
        for options, text in cases:
            if tracer:
                tracer.begin(-1)
            _, result = convert(run, options, text)
            if len(checked) < len(cases):
                checked.append(result)
    if tracer:
        tracer.spans.clear()

    # A compact array, so that sample storage barely moves the peak RSS.
    times, counts, mismatched = array("d"), [], []
    begin = time.perf_counter()
    deadline = begin + job["seconds"]
    i = 0
    while True:
        k = i % len(cases)
        if tracer:
            tracer.begin(i)
        options, text = cases[k]
        elapsed, result = convert(run, options, text)
        times.append(elapsed)
        if result != checked[k]:
            mismatched.append(i)
        if tracer:
            counts.append(tracer.counts())
        i += 1
        if time.perf_counter() >= deadline:
            break
    wall = time.perf_counter() - begin

    json.dump(
        {
            "checked": checked,
            "times": times.tolist(),
            "mismatched": mismatched,
            "wall_s": wall,
            "peak_rss_kb": peak_rss_kb(),
            "spans": tracer.spans if tracer else [],
            "counts": counts,
        },
        sys.stdout,
    )


if __name__ == "__main__":
    main()
