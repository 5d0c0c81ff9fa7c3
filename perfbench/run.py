"""Outside-in benchmark of the study pipelines people run.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload table1-mini --seed 42 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time, a cold pass
on an empty result cache and warm passes against the filled cache.
``--trace 1`` reruns the cold and warm passes with every layer's entry
points wrapped and reports per-layer self times and counts. Both check
their outputs and print one JSON object as the last line of stdout.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hostspeed import EDGE_CALLS, speed_factor, timed_kernel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Fresh interpreters timed per run; the median is setup_s.
SETUP_PROBES = 5
#: Scratch space for result caches, inside the checkout.
WORK_DIR = ROOT / ".perfbench-work"


def parse_args(argv):
    from studies import SIZES, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring budget: warm passes repeat until it is used")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="bench",
                        help="bench (default), full (the golden settings) or smoke")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_source() -> None:
    """Put this checkout's ``src`` first on the path and import ``repro``.

    Fails unless ``repro`` comes from this checkout, so an installed
    copy elsewhere can never be measured by mistake.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no source tree at {SRC / 'repro'}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def build_settings(args):
    from studies import WORKLOADS

    workload = WORKLOADS[args.workload]
    return workload, workload.settings(args.seed, args.size)


def measure_setup(args) -> float:
    """Median time of a fresh interpreter importing and building inputs.

    Each sample is rescaled to reference seconds by the reference
    kernel's speed just before and just after it (see hostspeed.py).
    """
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        kernel_s = [timed_kernel() for _ in range(EDGE_CALLS)]
        start = time.perf_counter()
        subprocess.run(command, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        host_s = time.perf_counter() - start
        kernel_s.extend(timed_kernel() for _ in range(EDGE_CALLS))
        samples.append(host_s * speed_factor(kernel_s))
    return statistics.median(samples)


def report(outcome, metric_specs) -> dict:
    """Print the metrics as text, then return the JSON result."""
    checks = outcome.checks
    for note in outcome.notes:
        print(note)
    for name, unit in metric_specs:
        print(f"{name} {outcome.metrics[name]:.6g} {unit}")
    error_rate = checks.failed / checks.attempted if checks.attempted else 0.0
    print(f"error_rate {error_rate:.6g} fraction "
          f"({checks.failed} failed of {checks.attempted} operations)")
    for failure in checks.failures:
        print(f"CHECK FAILED {failure}")
    return {
        "correct": checks.correct,
        "attempted": max(1, checks.attempted),
        "failed": checks.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in metric_specs
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_source()
    workload, settings = build_settings(args)
    if args.setup_probe:
        return 0

    import passes

    WORK_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        if args.trace:
            outcome = passes.measure_traced(workload, settings, work_dir)
            specs = passes.PER_LAYER
        else:
            setup_s = measure_setup(args)
            outcome = passes.measure(workload, settings, work_dir, args.seconds, setup_s)
            specs = passes.END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    result = report(outcome, specs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
