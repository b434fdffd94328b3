"""Small shared result types for checks that must report witnesses."""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "pass"
SAMPLED_PASS = "sampled-pass"
FAIL = "fail"

_OK = (PASS, SAMPLED_PASS)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a single check.

    status is one of pass / sampled-pass / fail (a rejected space is an
    algebra.Rejection, not a verdict).  "pass" means the property was
    verified exhaustively (or is exact by construction);
    "sampled-pass" means a sampling budget was exhausted without finding a
    counterexample.  witness carries the offending data for failures, as
    strings so it can go straight into a JSON report; checked counts the
    instances run, the failing one included, and stays out of it and ==.
    """

    status: str
    witness: dict = field(default_factory=dict)
    note: str = ""
    checked: int = field(default=0, compare=False)

    @property
    def ok(self) -> bool:
        return self.status in _OK

    def to_json(self) -> dict:
        out = {"status": self.status}
        if self.witness:
            out["witness"] = dict(sorted(self.witness.items()))
        if self.note:
            out["note"] = self.note
        return out


def passed(exhaustive: bool, note: str = "") -> Verdict:
    return Verdict(PASS if exhaustive else SAMPLED_PASS, note=note)


def failed(witness: dict, note: str = "") -> Verdict:
    return Verdict(FAIL, witness=witness, note=note)


def check_all(cases, check, exhaustive: bool = False, note: str = "") -> Verdict:
    """Run check on each case in order, lazily, until it returns a witness
    dict: the first witness fails the verdict, else it passes with note."""
    checked = 0
    for checked, case in enumerate(cases, 1):
        witness = check(case)
        if witness is not None:
            return Verdict(FAIL, witness, checked=checked)
    return Verdict(PASS if exhaustive else SAMPLED_PASS, note=note, checked=checked)
