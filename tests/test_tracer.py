"""The benchmark tracer reaches into the package by name: the functions it
wraps, the operators of three classes and the caches whose statistics it
reads.  Loading it and installing it here makes a rename of any of them
fail in the default test run, not only in traced benchmark runs."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_installs_and_reads_every_cache():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    trace = tracer.Tracer()
    try:
        trace.install()
    finally:
        trace.uninstall()
    stats = tracer.cache_stats()
    assert set(tracer.CACHES) | {"partitions"} == set(stats)
