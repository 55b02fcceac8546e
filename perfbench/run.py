"""The simulator's benchmark: one command, four workloads, two views.

Run from the repository root::

    python3 perfbench/run.py --workload detailed-mem --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace
1`` makes a separate traced run of the same workload and reports the
per-layer ledger.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: scratch space for traces and result stores, inside the checkout
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")

WORKLOADS = ("detailed-mem", "detailed-compute", "sampled", "service")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="input size; tiny is for the benchmark's smoke test")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    # the benchmark names its inputs explicitly: no scale, cache, worker
    # or observability setting may leak in from the environment
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["PYTHONPATH"] = SRC
    sys.path.insert(0, SRC)
    import bench

    import_s = time.perf_counter() - T_START
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
    try:
        run = bench.Bench(args, tmp, import_s)
        metrics = run.run()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass  # another run still uses it
    wanted = bench.PER_LAYER if args.trace else bench.END_TO_END
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    print("# detailed runs start from empty caches plus each spec's warm-up "
          "period; the model is not validated against hardware, so no "
          "accuracy figure is reported")
    kernel = sorted(run.clock.samples)
    print(f"# host calibration kernel: median {kernel[len(kernel) // 2] * 1e3:.1f} ms "
          f"over {len(kernel)} runs (reference {bench.calib.REFERENCE_S * 1e3:.0f} ms)")
    for name, unit in wanted.items():
        print(f"# {name:34s} {metrics[name]:>16.6g} {unit}")
    tally = run.tally
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
