"""One CLI invocation, traced, in a fresh interpreter.

    python perfbench/cli_item.py ARGS...

Runs ``plethyra.cli.run(["-f", "json", *ARGS])`` in-process under the
tracer, capturing what it writes, and prints one JSON object: the exit code,
stdout, stderr (with the traceback, if it raised), the item's seconds, the
trace summary and the raw spans.
"""

import contextlib
import io
import json
import sys
import traceback
from time import perf_counter

import plethyra.cli

import tracer


def main(argv) -> None:
    tr = tracer.Tracer()
    before = tracer.cache_stats()
    tr.install()
    run = tr.span("cli.run", plethyra.cli.run)
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(["-f", "json", *argv])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # reported the way the interpreter would report it
            traceback.print_exc()
            code = 1
    item_s = perf_counter() - start
    tr.uninstall()
    summ = tr.summary()
    summ["cache"] = tracer.cache_delta(before, tracer.cache_stats())
    print(json.dumps({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                      "item_s": item_s, "summary": summ, "raw": tr.raw()}))


if __name__ == "__main__":
    main(sys.argv[1:])
