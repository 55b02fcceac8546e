"""Workload profiles and the synthetic trace builder.

A :class:`WorkloadProfile` describes a benchmark as a tiny static program:
``n_blocks`` basic blocks of ``block_len`` instruction slots.  Each slot is
statically a load, store, compute op or branch (as in real code); memory
slots are bound to an address pattern, branch slots to a takenness bias.
:class:`TraceBuilder` then "executes" this program, producing the dynamic
:class:`~repro.isa.uop.UOp` stream the pipeline consumes.

This static-program structure matters: branch predictors and the
SAMIE-LSQ both exploit *per-site* regularity, which purely random streams
would destroy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.common.rng import make_rng
from repro.isa.opclasses import OpClass
from repro.isa.uop import UOp
from repro.workloads.patterns import AddressPattern

CODE_BASE = 0x0040_0000


@dataclass
class WorkloadProfile:
    """Static description of one synthetic benchmark."""

    name: str
    suite: str  # "int" | "fp"
    #: fraction of instruction slots that are memory operations
    mem_frac: float = 0.35
    #: fraction of memory slots that are stores
    store_frac: float = 0.33
    #: fraction of slots that are (extra, data-dependent) branches;
    #: loop-closing branches are added automatically at block ends
    branch_frac: float = 0.04
    #: fraction of data-dependent branch *sites* that are hard to predict
    hard_site_frac: float = 0.25
    #: takenness bias of hard branch sites (0.5 = unpredictable)
    hard_bias: float = 0.35
    #: loop-closing branch takenness (iterations ~ 1/(1-bias))
    loop_bias: float = 0.92
    #: weights over compute classes for non-mem non-branch slots
    compute_mix: dict[OpClass, float] = field(
        default_factory=lambda: {OpClass.INT_ALU: 1.0}
    )
    #: mean register-dependence distance (higher = more ILP)
    dep_mean: float = 10.0
    dep_max: int = 48
    #: static program shape
    n_blocks: int = 8
    block_len: int = 24
    #: factory creating fresh (weight, pattern) mixtures for a trace
    make_patterns: Callable[[], list[tuple[float, AddressPattern]]] = field(
        default_factory=lambda: (lambda: [])
    )
    #: free-text note on what this profile models
    note: str = ""


def _cdf(probs: np.ndarray) -> np.ndarray:
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


class _Slot:
    __slots__ = ("kind", "op", "pattern", "bias", "target", "pc")

    def __init__(self, kind: str, pc: int):
        self.kind = kind  # "mem" | "compute" | "branch"
        self.op: OpClass | None = None
        self.pattern: AddressPattern | None = None
        self.bias = 0.0
        self.target = 0  # slot index for taken branches
        self.pc = pc


class TraceBuilder:
    """Builds and executes the static program of a profile."""

    def __init__(self, profile: WorkloadProfile, seed: int = 1):
        self.profile = profile
        self.seed = seed
        self._rng = make_rng(seed, profile.name, "exec")
        self._build_rng = make_rng(seed, profile.name, "build")
        self._patterns = profile.make_patterns()
        if not self._patterns:
            raise ValueError(f"profile {profile.name} has no address patterns")
        weights = np.array([w for w, _ in self._patterns], dtype=float)
        self._pattern_probs = weights / weights.sum()
        self._slots = self._build_program()
        # chunked random draws (performance: one numpy call per 8K events)
        self._uniform_buf = np.empty(0)
        self._uniform_pos = 0
        self._dep_buf = np.empty(0, dtype=np.int64)
        self._dep_pos = 0

    # -- static program ------------------------------------------------------
    def _build_program(self) -> list[_Slot]:
        p = self.profile
        rng = self._build_rng
        slots: list[_Slot] = []
        total = p.n_blocks * p.block_len
        compute_ops = list(p.compute_mix)
        compute_w = np.array([p.compute_mix[o] for o in compute_ops], dtype=float)
        compute_w /= compute_w.sum()
        # Generator.choice(n, p=w)'s own algorithm (normalized CDF, one
        # uniform draw, right-side search), minus its per-call checks
        pattern_cdf = _cdf(self._pattern_probs)
        compute_cdf = _cdf(compute_w)
        for i in range(total):
            pc = CODE_BASE + 4 * i
            last_in_block = (i + 1) % p.block_len == 0
            if last_in_block:
                s = _Slot("branch", pc)
                s.bias = p.loop_bias
                s.target = (i + 1 - p.block_len) % total  # back to block start
                slots.append(s)
                continue
            r = rng.random()
            if r < p.branch_frac:
                s = _Slot("branch", pc)
                if rng.random() < p.hard_site_frac:
                    s.bias = p.hard_bias  # data-dependent, poorly predicted
                else:
                    s.bias = float(rng.uniform(0.02, 0.08))  # strongly biased site
                # short forward skip within the block
                skip = int(rng.integers(2, 6))
                s.target = min(i + skip, (i // p.block_len + 1) * p.block_len - 1)
            elif r < p.branch_frac + p.mem_frac:
                s = _Slot("mem", pc)
                s.op = (
                    OpClass.STORE
                    if rng.random() < p.store_frac
                    else OpClass.LOAD
                )
                pat_idx = int(pattern_cdf.searchsorted(rng.random(), side="right"))
                s.pattern = self._patterns[pat_idx][1]
            else:
                s = _Slot("compute", pc)
                s.op = compute_ops[int(compute_cdf.searchsorted(rng.random(), side="right"))]
            slots.append(s)
        return slots

    # -- chunked randomness ----------------------------------------------------
    def _uniform(self) -> float:
        if self._uniform_pos >= len(self._uniform_buf):
            self._uniform_buf = self._rng.random(8192)
            self._uniform_pos = 0
        v = self._uniform_buf[self._uniform_pos]
        self._uniform_pos += 1
        return float(v)

    def _dep(self) -> int:
        if self._dep_pos >= len(self._dep_buf):
            p = min(1.0, 1.0 / max(self.profile.dep_mean, 1.0))
            self._dep_buf = np.minimum(
                self._rng.geometric(p, 8192), self.profile.dep_max
            )
            self._dep_pos = 0
        v = self._dep_buf[self._dep_pos]
        self._dep_pos += 1
        return int(v)

    # -- dynamic execution -------------------------------------------------------
    def generate(self) -> Iterator[UOp]:
        """Endless dynamic uop stream (the pipeline bounds the run)."""
        slots = self._slots
        total = len(slots)
        cursor = 0
        seq = 0
        while True:
            s = slots[cursor]
            if s.kind == "branch":
                taken = self._uniform() < s.bias
                nxt = s.target if taken else (cursor + 1) % total
                yield UOp(
                    seq,
                    s.pc,
                    OpClass.BRANCH,
                    src1=self._dep(),
                    taken=taken,
                    target=slots[nxt].pc if taken else 0,
                )
                cursor = nxt
            elif s.kind == "mem":
                addr, size = s.pattern.next_access(self._rng)
                if s.op is OpClass.STORE:
                    yield UOp(
                        seq, s.pc, OpClass.STORE,
                        src1=self._dep(), src2=self._dep(), addr=addr, size=size,
                    )
                else:
                    yield UOp(
                        seq, s.pc, OpClass.LOAD,
                        src1=self._dep(), addr=addr, size=size,
                    )
                cursor = (cursor + 1) % total
            else:
                yield UOp(seq, s.pc, s.op, src1=self._dep(), src2=self._dep())
                cursor = (cursor + 1) % total
            seq += 1

    def generate_n(self, n: int) -> list[UOp]:
        """First ``n`` uops as a list (testing aid)."""
        out = []
        for uop in self.generate():
            out.append(uop)
            if len(out) == n:
                return out
        return out
