"""Benchmark harness for twoview: train and eval workloads on a seeded
synthetic KB shaped like YAGO26K-906.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload train_transe_ct --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it is the full record of the run (machine, KB counts, per-epoch
or per-pass timings, checks, parameter hash), which is also written with
the traced spans under ``.perfbench_out/``.  ``--workload all`` runs every
workload in its own process and prints one line per metric.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PREPARE_TIMEOUT_S = 600


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is one."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def _metrics_json(metrics: dict) -> dict:
    """A metric whose layer is missing has value null and "missing": true."""
    return {name: {"value": value, "unit": unit} if value is not None
            else {"value": None, "unit": unit, "missing": True}
            for name, (value, unit) in metrics.items()}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    src = ROOT / "src"
    if not (src / "twoview" / "__init__.py").is_file():
        print(f"perfbench: no twoview sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS, run

    w = WORKLOADS[name]
    machine = machine_record()
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    try:
        subprocess.run([sys.executable, str(HERE / "prepare.py"), "--workload", name,
                        "--seed", str(seed), "--out", str(work)],
                       check=True, timeout=PREPARE_TIMEOUT_S)
        prep = json.loads((work / "prep.json").read_text())
        res = run(w, work, seed, seconds, trace, prep)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    machine["loadavg_1m_end"] = os.getloadavg()[0]

    metrics = res.per_layer if trace else res.end_to_end
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    tracer = res.detail.pop("spans", None)
    if tracer is not None:
        tracer.write_spans(out_dir / f"{stem}.spans.jsonl")
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine, "kb": prep["kb"], "checks": res.checks,
              "end_to_end": _metrics_json(res.end_to_end),
              "per_layer": _metrics_json(res.per_layer), **res.detail}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": _metrics_json(metrics)}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; one line per metric."""
    from workloads import WORKLOADS

    status = 0
    summary = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed with exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        summary[name] = result
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:34s} {m['value']!s:>24} {m['unit']}")
        status |= 0 if result["correct"] else 1
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(
        description="twoview benchmark: one workload (or all) for a seed")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
