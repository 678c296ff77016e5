"""One repetition of one workload, in a fresh interpreter with cold caches.

    python perfbench/worker.py WORKLOAD SEED TINY TRACE

Prints ``ready`` as soon as ``plethyra.cli`` is imported, so run.py can
time set-up, then runs the item list, checks every value after the timed
region and prints one JSON line.  With TRACE=1 the items run under the
tracer and the spans are written to ``perfbench/out/``.
"""

import sys

import plethyra.cli  # noqa: F401  -- the set-up run.py times

print("ready", flush=True)

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


class Raised:
    """An exception an item raised."""

    def __init__(self, exc):
        self.message = f"raised {type(exc).__name__}: {exc}"


def run_items(items, span=None):
    """Time each item; return (values, seconds per item, wall seconds)."""
    values, times = [], []
    start = perf_counter()
    for item in items:
        call = span("bench.item", item.call) if span else item.call
        t0 = perf_counter()
        try:
            value = call()
        except Exception as exc:  # an item that raises is a failed item
            value = Raised(exc)
        times.append(perf_counter() - t0)
        values.append(value)
    return values, times, perf_counter() - start


def check_items(items, groups, values) -> dict:
    """label -> failure message, for every item whose value is wrong."""
    failures = {}
    for item, value in zip(items, values):
        if isinstance(value, Raised):
            failures[item.label] = value.message
            continue
        try:
            msg = item.check(value)
        except Exception as exc:
            msg = f"check raised {exc!r}"
        if msg:
            failures[item.label] = msg
    by_label = dict(zip((item.label for item in items), values))
    for group in groups:
        if any(label in failures for label in group.labels):
            continue
        msg = group.check(by_label)
        if msg:
            for label in group.labels:
                failures[label] = f"group identity: {msg}"
    return failures


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv) -> None:
    workload, seed, tiny, trace = argv[0], int(argv[1]), argv[2] == "1", argv[3] == "1"
    expected = workloads.load_expected()
    items, groups = workloads.build(workload, seed, tiny, expected,
                                    lambda argv: workloads.run_cli(argv, trace))
    in_process = workload != "cli-cold"

    tr = tracer.Tracer() if trace and in_process else None
    before = tracer.cache_stats()
    if tr:
        tr.install()
    values, times, wall = run_items(items, tr.span if tr else None)
    if tr:
        tr.uninstall()
    after = tracer.cache_stats()
    rss = peak_rss_mib()  # before the checks, which are not the workload's work

    failures = check_items(items, groups, values)
    known = {item.label for item in items if item.known_defect}
    result = {
        "workload": workload,
        "wall_s": wall,
        "items": len(items),
        "item_ms": [t * 1000.0 for t in times],
        "peak_rss_mib": rss,
        "failures": failures,
        "known_defects": sorted(known & set(failures)),
    }
    if workload == "cli-cold":
        dispatch = overhead = 0.0
        for value in values:
            if isinstance(value, Raised) or value["code"] != 0:
                continue
            try:
                elapsed = json.loads(value["stdout"].strip().splitlines()[-1])["elapsed_ms"] / 1000
            except (ValueError, KeyError, IndexError):
                continue  # verify prints PASS lines, not a JSON report
            dispatch += elapsed
            overhead += value["wall_s"] - elapsed
        result["cli.dispatch_s"] = dispatch
        result["cli.overhead_s"] = overhead
    if trace:
        if tr:
            summ = tr.summary()
            summ["cache"] = tracer.cache_delta(before, after)
            raw = tr.raw()
            covered = wall
        else:
            done = [v for v in values if not isinstance(v, Raised)]
            summ = tracer.merge([v["summary"] for v in done])
            raw = tracer.merge_raw([v["raw"] for v in done])
            covered = sum(v["item_s"] for v in done)
        result["layers"] = tracer.layer_metrics(summ, covered)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{workload}-seed{seed}.json"
        path.write_text(json.dumps(raw))
        result["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
