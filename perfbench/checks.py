"""Output checks: result digests, the committed reference, failure counts.

A simulated result is reduced to a digest of the fields the paper's
figures are made from (instructions, cycles, ``lsq_stats`` and the
telemetry envelope).  At the default seed every digest must equal the
one committed in ``reference.json``; at any seed, an answer that repeats
an earlier one (a later sweep round, a service hit, a traced pass) must
be bit-identical to the first.  Every mismatch, exception or timeout
counts as one failed operation.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def canonical(result) -> str:
    """The whole result as canonical JSON (bit-identity comparisons)."""
    return json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))


def digest(result) -> str:
    doc = {
        "instructions": result.instructions,
        "cycles": result.cycles,
        "lsq_stats": result.lsq_stats,
        "telemetry": (result.extra or {}).get("telemetry"),
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


class Tally:
    """Operations attempted and failed, plus the first answer per label.

    ``reference`` maps ``"<scale>|<label>"`` to a digest; pass ``None``
    off the default seed, where only repeat-consistency is checked.
    """

    def __init__(self, scale: str, reference: dict | None):
        self.scale = scale
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self._first: dict[str, str] = {}

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"perfbench: FAILED {what}", file=sys.stderr)

    def check(self, label: str, result) -> bool:
        """Count one answer for ``label``; False (and a failure) if wrong."""
        self.attempted += 1
        text = canonical(result)
        first = self._first.setdefault(label, text)
        problem = None
        if text != first:
            problem = "differs from the first answer for this spec"
        elif self.reference is not None:
            want = self.reference.get(f"{self.scale}|{label}")
            if want is None:
                problem = "has no reference digest"
            elif digest(result) != want:
                problem = "does not match the reference digest"
        if problem is None:
            return True
        self.failed += 1
        print(f"perfbench: FAILED {label}: result {problem}", file=sys.stderr)
        return False
