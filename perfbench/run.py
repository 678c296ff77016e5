"""plethyra benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each repetition of the workload's fixed item
list runs in a fresh worker process, one at a time, so every repetition
starts with cold caches.  Repetitions continue while the next one is
expected to end no later than half a repetition after S seconds (at least one; with --trace 1 at least one
untraced and one traced, taken in turn).  set-up is also timed in a few
processes that only import plethyra.cli.  The last line of standard output
is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, each
the median over the run's repetitions; with --trace 1 they are the per-layer
metrics, from the traced repetitions.  The lines before it print every metric
with its unit, the failure ratio and any failed item.

--tiny runs the small item lists that the self-test uses.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from moves import moves

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rc-sweep", "plethysm-brute", "schur-weyl", "cli-cold")
DEADLINE_S = 170  # the whole run, all repetitions included
SETUP_PROBES = 8


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(cmd, remaining_s):
    """Run ``cmd`` to completion, killing its process group if it outlives
    ``remaining_s``.  Returns (seconds until its first line, that line, the
    rest of stdout, stderr, exit code, total seconds)."""
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    watchdog = threading.Timer(max(remaining_s, 1), _kill_group, (proc.pid,))
    watchdog.start()
    try:
        first = proc.stdout.readline()
        first_s = perf_counter() - start
        out, err = proc.communicate()
    finally:
        watchdog.cancel()
        _kill_group(proc.pid)  # no child of the worker outlives it
        proc.wait()
    if proc.returncode == -signal.SIGKILL:
        raise BenchError(f"a worker exceeded the {DEADLINE_S} s deadline")
    return first_s, first, out, err, proc.returncode, perf_counter() - start


def setup_probe(remaining_s) -> float:
    """Seconds from spawning an interpreter to the end of ``import plethyra.cli``."""
    first_s, first, _, err, code, _ = spawn(
        [sys.executable, "-c", "import plethyra.cli; print('ready', flush=True)"], remaining_s)
    if first.strip() != "ready" or code != 0:
        raise BenchError(f"import plethyra.cli failed (exit {code}):\n{err}")
    return first_s


def run_worker(workload, seed, tiny, trace, remaining_s) -> dict:
    """One repetition.  Its set-up time is the time to the worker's ``ready``
    line, which it prints right after ``import plethyra.cli``."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           "1" if tiny else "0", "1" if trace else "0"]
    first_s, first, out, err, code, total_s = spawn(cmd, remaining_s)
    if first.strip() != "ready" or code != 0:
        raise BenchError(f"worker failed (exit {code}):\n{first}{err}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = first_s
    result["rep_s"] = total_s
    return result


def repetitions(args):
    """Set-up probes, then untraced (and, with --trace 1, traced, in turn)
    repetitions while the next one is expected to end no later than half a
    repetition after --seconds."""
    start = perf_counter()
    setups = [setup_probe(DEADLINE_S) for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    while True:
        for trace in ((False, True) if args.trace else (False,)):
            rep = run_worker(args.workload, args.seed, args.tiny, trace,
                             DEADLINE_S - (perf_counter() - start))
            (traced if trace else plain).append(rep)
            setups.append(rep["setup_s"])
        reps = plain + traced
        per_round = sum(rep["rep_s"] for rep in reps) / len(plain)
        elapsed = perf_counter() - start
        if elapsed + per_round / 2 > args.seconds or elapsed + per_round > DEADLINE_S:
            return plain, traced, setups


def median(reps, key):
    return statistics.median(rep[key] for rep in reps)


def tail_index(per_rep: int, reps: int) -> int:
    """Index into the sorted item times of ``reps`` repetitions of ``per_rep``
    items of the highest percentile with at least ten items per repetition
    beyond it: the p(100 * (per_rep - 10) / per_rep)."""
    if per_rep <= 10:
        raise BenchError(f"{per_rep} items leave no percentile with 10 beyond it")
    return reps * (per_rep - 10) - 1


def end_to_end(plain, setups) -> dict:
    times = sorted(t for rep in plain for t in rep["item_ms"])
    return {
        "setup_s": statistics.median(setups),
        "wall_s": median(plain, "wall_s"),
        "items_per_s": statistics.median(rep["items"] / rep["wall_s"] for rep in plain),
        "item_p50_ms": statistics.median(times),
        "item_tail_ms": times[tail_index(plain[0]["items"], len(plain))],
        "peak_rss_mib": median(plain, "peak_rss_mib"),
    }


def per_layer(plain, traced) -> dict:
    layers = {name: statistics.median_low(rep["layers"][name] for rep in traced)
              for name in traced[0]["layers"]}
    layers["trace.overhead_ratio"] = median(traced, "wall_s") / median(plain, "wall_s") - 1.0
    for name in ("cli.dispatch_s", "cli.overhead_s"):
        layers[name] = median(plain, name) if name in plain[0] else 0.0
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small item lists, for the self-test")
    args = parser.parse_args(argv)
    # Terminating run.py unwinds through spawn(), which kills the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "plethyra" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no plethyra source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    try:
        plain, traced, setups = repetitions(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    reps = plain + traced
    attempted = sum(rep["items"] for rep in reps)
    failed = sum(len(rep["failures"]) for rep in reps)
    correct = all(label in rep["known_defects"] for rep in reps for label in rep["failures"])
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced repetitions of {plain[0]['items']} items")
    n = plain[0]["items"]
    print(f"item times pooled over the untraced repetitions; item_tail_ms is their "
          f"p{100.0 * (n - 10) / n:.1f} (10 of {n} items per repetition beyond it)")
    print("wall_s per repetition: " + " ".join(f"{rep['wall_s']:.3f}" for rep in plain)
          + (" untraced, " + " ".join(f"{rep['wall_s']:.3f}" for rep in traced) + " traced"
             if traced else ""))
    print(f"fail_ratio {failed / attempted:.6f} ratio ({failed} of {attempted} items)")
    seen = {(label, msg, label in rep["known_defects"])
            for rep in reps for label, msg in rep["failures"].items()}
    for label, msg, known in sorted(seen):
        print(f"FAILED {label}{' [known defect]' if known else ''}: {msg}")

    if args.trace:
        values = per_layer(plain, traced)
        coverage = values["trace.self_coverage"]
        if abs(coverage - 1.0) > 0.05:
            print(f"span self times cover {coverage:.3f} of the traced item time", file=sys.stderr)
            correct = False
        print(f"spans: {traced[-1]['spans_file']}")
        wanted = spec["per_layer"]
    else:
        values = end_to_end(plain, setups)
        wanted = spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        note = f"  (moves {moves(name)})" if args.trace else ""
        print(f"{name} {values[name]} {unit}{note}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
