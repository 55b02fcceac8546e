"""The benchmark's inputs: every spec each workload runs, made from the seed.

The simulator sees only what this module generates -- ``SimSpec``s and,
for the sampled workload, traces recorded from synthetic streams.  The
same ``(seed, scale)`` always yields the same inputs.  ``label`` names a
spec independently of where the checkout lives (a trace spec carries an
absolute path), and is the key of the committed reference digests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.experiments.runner import (
    MACHINE_CONV128,
    MACHINE_SAMIE,
    SimSpec,
    machine_arb,
)

#: the seed the committed reference digests were made at
DEFAULT_SEED = 1

#: per-scale sizes: detailed cell (instructions, warmup) and streams per
#: cell for each detailed workload, sampled trace length, service spec
#: (instructions, warmup), service pool size, requests of a traced
#: service pass, specs profiled for the service.  The full-scale cell is
#: the repository's default run length (6000 after 3000 of warm-up): a
#: shorter stream is still in its cold-cache phase, where gzip runs at
#: IPC 0.3 instead of 1.2 and every profile looks memory-bound.
SCALES = {
    "full": {"cell": (6000, 3000),
             "streams": {"detailed-mem": 3, "detailed-compute": 2},
             "trace_uops": 1_000_000, "request": (1000, 250), "pool": 600,
             "traced_requests": 160, "profiled": 12},
    "tiny": {"cell": (300, 100),
             "streams": {"detailed-mem": 1, "detailed-compute": 1},
             "trace_uops": 40_000, "request": (200, 50), "pool": 24,
             "traced_requests": 16, "profiled": 2},
}

#: SMARTS-regime plan (period, warmup, measure): ~1.5% simulated in detail
SAMPLED_PLAN = (100_000, 1_000, 500)
SAMPLED_SOURCE = "swim"
#: traces recorded at setup, one per stand-up; a sampled round replays
#: each once, so one stream's cost does not decide the round's
SAMPLED_TRACES = 3

#: low-IPC profiles: MSHR stalls, quiescent cycles, SAMIE bank pressure
MEM_PROFILES = ("mcf", "swim", "ammp", "scenario:bank_conflict")
#: high-IPC profiles: fetch/dispatch/commit and store-to-load forwarding
COMPUTE_PROFILES = ("gzip", "scenario:aliasing_storm")
ARB = machine_arb(8, 16)

#: the service's spec menu, cycled so every seed gets the same mix; it
#: leaves out the profiles whose cost per uop swings most from stream to
#: stream (ammp and bank_conflict on SAMIE), so the miss path measures
#: the service rather than the luck of the draw
SERVICE_MENU = tuple(
    (w, m) for w in ("gzip", "swim", "mcf", "scenario:aliasing_storm")
    for m in (MACHINE_CONV128, MACHINE_SAMIE)
)
#: one request in NEW_EVERY asks for a spec not asked for before
NEW_EVERY = 4
#: specs submitted at service stand-up so both worker shards have forked
WARMUP_SPECS = 8


@dataclass(frozen=True)
class Item:
    """One simulation the benchmark asks for."""

    spec: SimSpec
    label: str
    #: the synthetic workload behind the spec (the recorded one for traces)
    source: str


def _item(workload, machine, instructions, warmup, seed, **kw) -> Item:
    spec = SimSpec.make(workload, machine, instructions, warmup, seed, **kw)
    label = f"{workload}|{machine[0]}|{instructions}|{warmup}|{seed}"
    return Item(spec, label, workload)


def detailed_cells(name: str, seed: int, scale: str) -> list[Item]:
    """One sweep round: each profile on conv128 and samie, plus one ARB
    cell, each cell over one or more independent streams of the profile.

    One stream's cost per uop swings with its seed: with one stream per
    cell, the memory round made 9.0M to 11.7M Python calls over ten
    seeds, mostly from mcf and bank_conflict on SAMIE.  Averaging
    several streams per cell keeps the round's cost steady from seed to
    seed: three in the memory round, two in the compute round.
    """
    n, w = SCALES[scale]["cell"]
    if name == "detailed-mem":
        profiles, arb_profile = MEM_PROFILES, "swim"
    else:
        profiles, arb_profile = COMPUTE_PROFILES, "gzip"
    cells = [(p, m) for p in profiles for m in (MACHINE_CONV128, MACHINE_SAMIE)]
    cells.append((arb_profile, ARB))
    return [_item(p, m, n, w, seed * 100 + j)
            for p, m in cells for j in range(SCALES[scale]["streams"][name])]


def sampled_trace_seed(seed: int, i: int) -> int:
    """Seed of the ``i``-th trace the sampled workload records."""
    return seed * SAMPLED_TRACES + i


def sampled_item(trace_name: str, seed: int, scale: str) -> Item:
    """The sampled run over a trace recorded at setup from the stream
    ``seed`` (the whole trace)."""
    uops = SCALES[scale]["trace_uops"]
    spec = SimSpec.make(trace_name, MACHINE_SAMIE, instructions=uops,
                        warmup=0, seed=seed, sample=SAMPLED_PLAN)
    label = (f"trace:{SAMPLED_SOURCE}@{uops}/{seed}|{MACHINE_SAMIE[0]}"
             f"|{'/'.join(map(str, SAMPLED_PLAN))}")
    return Item(spec, label, SAMPLED_SOURCE)


def service_pool(seed: int, scale: str) -> list[Item]:
    """Distinct small specs, in the order the service is first asked them."""
    n, w = SCALES[scale]["request"]
    return [
        _item(*SERVICE_MENU[i % len(SERVICE_MENU)], n, w,
              seed * 1000 + i // len(SERVICE_MENU))
        for i in range(SCALES[scale]["pool"])
    ]


def service_requests(pool: list[Item], seed: int):
    """Endless request stream: every NEW_EVERY-th request is a new spec
    (the pool wraps round when exhausted), the rest repeat an earlier
    one drawn uniformly.  Yields pool items."""
    rng = random.Random(seed)
    asked = 0
    k = 0
    while True:
        if k % NEW_EVERY == 0:
            item = pool[asked % len(pool)]
            asked += 1
        else:
            item = pool[rng.randrange(min(asked, len(pool)))]
        k += 1
        yield item


def warmup_specs(seed: int, generation: int) -> list[SimSpec]:
    """Tiny specs that fork the worker shards; distinct per stand-up
    ``generation`` so a restarted service cannot serve them from its store."""
    base = 10**6 + (seed * 16 + generation) * WARMUP_SPECS
    return [SimSpec.make("gzip", MACHINE_CONV128, 150, 0, base + j)
            for j in range(WARMUP_SPECS)]
