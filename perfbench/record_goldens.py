"""Record goldens.json: the output of every command any workload seed or size runs.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/record_goldens.py

Takes about three minutes; the four N = 8 thresholds dominate.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import run
import workloads


def main() -> None:
    qsep = run.import_qsep()
    goldens = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=run.ROOT) as tmp:
        for cmd in workloads.all_commands():
            _, [(rc, out)] = run.run_pass(qsep, [cmd], Path(tmp))
            goldens[cmd.key] = {"rc": rc, "out": out}
            print(f"rc={rc} {cmd.key}", flush=True)
    run.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
