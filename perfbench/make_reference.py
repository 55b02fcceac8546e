"""Regenerate ``reference.json``: result digests of every input at the
default seed, for both scales.

Run from the repository root after a change that is meant to alter
simulated results (and say so in the change)::

    python3 perfbench/make_reference.py
"""

import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.experiments import runner  # noqa: E402
from repro.trace.workload import spec_name  # noqa: E402

import checks  # noqa: E402
import sim  # noqa: E402
import workloads  # noqa: E402


def items_for(scale: str, tmp: str) -> list:
    seed = workloads.DEFAULT_SEED
    items = []
    for name in ("detailed-mem", "detailed-compute"):
        items += workloads.detailed_cells(name, seed, scale)
    for i in range(workloads.SAMPLED_TRACES):
        trace_seed = workloads.sampled_trace_seed(seed, i)
        path = os.path.join(tmp, f"{scale}-{trace_seed}.uoptrace")
        sim.record(path, workloads.SAMPLED_SOURCE,
                   workloads.SCALES[scale]["trace_uops"], trace_seed)
        items.append(workloads.sampled_item(spec_name(path), trace_seed, scale))
    items += workloads.service_pool(seed, scale)
    return items


def main() -> int:
    digests = {}
    os.makedirs(os.path.join(ROOT, ".perfbench_tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="ref-", dir=os.path.join(ROOT, ".perfbench_tmp"))
    try:
        for scale in workloads.SCALES:
            for item in items_for(scale, tmp):
                result = runner.run_spec(item.spec)
                digests[f"{scale}|{item.label}"] = checks.digest(result)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    doc = {"seed": workloads.DEFAULT_SEED, "digests": digests}
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {checks.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
