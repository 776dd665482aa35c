"""Run one workload's CLI calls in this fresh interpreter and time them.

    python3 perfbench/worker.py JOB.json RESULT.json

JOB.json holds the argv of each call, the run length and the trace
flag.  Every call goes through ``specpairs.cli.main`` with the
program's caches emptied first, as a user running one command per
process would find them.  Passes repeat whole while one more brings the
run's length nearer the requested seconds; the first always runs.
RESULT.json gets each pass's seconds, exit codes and report digests, the
first pass's report texts, the peak resident memory and, when traced,
per-layer metrics per pass and the spans themselves.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent


def _without_seconds(obj):
    if isinstance(obj, dict):
        return {k: _without_seconds(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [_without_seconds(v) for v in obj]
    return obj


def _digest(text):
    """Content digest of a report, ignoring its timing fields."""
    try:
        body = _without_seconds(json.loads(text))
    except ValueError:
        return None
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def _call(main, argv, tracer, index):
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                code = main(argv)
            else:
                tracer.operation = index
                code = tracer.span(spans.ROOT, main, argv)
    except Exception:  # one failed call must not end the run
        traceback.print_exc()
        code = None
    return code, buf.getvalue()


def main(job_path, result_path) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import specpairs
    import specpairs.cli

    if Path(specpairs.__file__).resolve().parent != ROOT / "src" / "specpairs":
        print(f"specpairs imported from {specpairs.__file__}", file=sys.stderr)
        return 2
    caches = {
        id(f): f
        for name, mod in list(sys.modules.items())
        if name.startswith("specpairs")
        for f in vars(mod).values()
        if hasattr(f, "cache_clear")
    }.values()
    tracer = None
    if job["trace"]:
        tracer = spans.Tracer()
        tracer.install()
        span_log = []

    passes, reports = [], None
    started = time.perf_counter()
    while True:
        texts, codes = [], []
        t0 = time.perf_counter()
        for index, argv in enumerate(job["ops"]):
            for cached in caches:
                cached.cache_clear()
            code, text = _call(specpairs.cli.main, argv, tracer, index)
            codes.append(code)
            texts.append(text)
        wall = time.perf_counter() - t0
        record = {
            "wall_s": wall,
            "codes": codes,
            "digests": [_digest(t) for t in texts],
            "report_bytes": sum(len(t.encode()) for t in texts),
        }
        if tracer is not None:
            record["layers"] = tracer.layer_metrics(wall, record["report_bytes"])
            span_log.append(tracer.spans[:])
            tracer.reset()
        passes.append(record)
        if reports is None:
            reports = texts
        # one more pass only if the run then ends nearer the run length
        if time.perf_counter() - started + wall / 2 > job["seconds"]:
            break

    result = {
        "passes": passes,
        "reports": reports,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    Path(result_path).write_text(json.dumps(result))
    if tracer is not None:
        Path(result_path).with_name("spans.json").write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "operation"],
            "passes": span_log,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
