"""Golden bit-identity tier for the hot-path-optimized simulator core.

``tests/golden/core_bit_identity.json`` pins full ``SimResult``
snapshots (cycle counts, every energy picojoule, every area um^2-cycle,
every stat counter -- floats compared exactly) captured from the
*pre-refactor* simulator for each LSQ model across representative
geometries, workloads and both track_data modes.  The optimized core
must reproduce them bit-for-bit; any mismatch means an optimization
changed semantics, not just speed.  Every cell is pinned twice: on the
shipping event-driven loop (cycle skipping on, the default) and on the
stepped loop (``event_skip = False``) that serves as its oracle.

Regenerate (only after an intentional semantic change, in the same
commit that explains why):

    PYTHONPATH=src python tests/golden/gen_bit_identity.py
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.config import ProcessorConfig
from repro.core.processor import build_processor
from repro.experiments.runner import build_lsq
from repro.workloads.registry import make_trace

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "core_bit_identity.json"
)

with open(GOLDEN_PATH) as _fh:
    GOLDEN = json.load(_fh)


def _run_case(case: dict, event_skip: bool) -> dict:
    spec = (case["lsq"][0], tuple((k, v) for k, v in case["lsq"][1]))
    cfg = ProcessorConfig(track_data=True) if case["track_data"] else None
    pipe = build_processor(build_lsq(spec), cfg)
    pipe.event_skip = event_skip
    pipe.attach_trace(make_trace(case["workload"], seed=1))
    result = pipe.run(GOLDEN["instructions"], warmup=GOLDEN["warmup"])
    # JSON round trip: tuples -> lists, exactly how the golden was saved
    return json.loads(json.dumps(result.to_dict()))


def _check_case(name: str, event_skip: bool) -> None:
    case = GOLDEN["cases"][name]
    got = _run_case(case, event_skip)
    want = case["result"]
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], (
            f"{name}: SimResult field {key!r} diverged from the "
            f"pre-refactor golden\n want: {want[key]}\n  got: {got[key]}"
        )


@pytest.mark.parametrize("name", sorted(GOLDEN["cases"]))
def test_bit_identical_to_pre_refactor_golden(name):
    """The default, event-driven loop."""
    _check_case(name, event_skip=True)


@pytest.mark.parametrize("name", sorted(GOLDEN["cases"]))
def test_stepped_loop_bit_identical_to_golden(name):
    """The stepped oracle loop (cycle skipping off)."""
    _check_case(name, event_skip=False)


def test_area_tables_are_integral():
    """The closed-form SAMIE area rebuild regroups a float sum; that is
    exact only while the Table 5 area terms are integral um^2 (integer
    partial sums below 2**53 never round).  If this guard ever fires,
    restore a sequential accumulation (see ReferenceSamieLSQ) before
    changing the tables."""
    from repro.energy.tables import (
        entry_area_conventional,
        entry_area_distrib,
        entry_area_shared,
        slot_area_addrbuffer,
        slot_area_distrib,
        slot_area_shared,
    )

    for fn in (
        entry_area_conventional,
        entry_area_distrib,
        entry_area_shared,
        slot_area_addrbuffer,
        slot_area_distrib,
        slot_area_shared,
    ):
        value = fn()
        assert value == int(value), f"{fn.__name__}() = {value} is not integral"
