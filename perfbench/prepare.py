"""Preparation step of one benchmark run, in a process of its own.

Generates the workload's KB, writes its split directory and, for the eval
workloads, the parameter file and the oracle ranks; the record goes to
``<out>/prep.json``.  Running it apart keeps its time out of ``setup_s`` and
its memory out of ``peak_rss_mib`` of the measured process::

    python3 perfbench/prepare.py --workload eval_transe_ct --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import kbgen
    from workloads import WORKLOADS, prepare_eval

    ap = argparse.ArgumentParser(description="prepare one benchmark run")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    record = {"kb": kbgen.prepare(args.seed, w.scale, args.out)}
    if w.kind != "train":
        record["eval"] = prepare_eval(w, args.out / "splits", args.out, args.seed)
    (args.out / "prep.json").write_text(json.dumps(record) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
