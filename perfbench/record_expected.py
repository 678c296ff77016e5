"""Write perfbench/expected.json: the values the benchmark checks against.

    PYTHONPATH=src python3 perfbench/record_expected.py

Records ``ramified_branching`` for every rc-sweep item and the JSON value of
every cli-cold value item, at both sizes.  The other workloads are checked
against oracles and need no recorded values.  Run it only on a commit whose
values are trusted: the tier-1 tests and ``verify --suite acceptance`` pass.
"""

import json
import sys

import workloads


def main() -> None:
    rc = {}
    for tiny in (False, True):
        items, _ = workloads.rc_sweep(tiny, {})
        for item in items:
            rc[item.label] = item.call()
    cli = {}
    for tiny in (False, True):
        table = cli[("tiny" if tiny else "full")] = {}
        for label in workloads.CLI_VALUE_ITEMS:
            out = workloads.run_cli(workloads.cli_argv(label, tiny), traced=False)
            if out["code"] != 0:
                sys.exit(f"{label} exited {out['code']}: {out['stderr']}")
            table[label] = workloads.cli_report(out)["value"]
    data = {"rc-sweep": rc, "cli-cold": cli}
    workloads.EXPECTED_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
