"""The verdict every checker returns: counted cases, a capped list of
failures in one shape, and the JSON form the command line prints."""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from .rational import InvariantViolation, MismatchError

# failures listed per report; a report past the cap still fails
MAX_LISTED = 50


@dataclass
class Report:
    name: str
    config: dict = field(default_factory=dict)
    cases: int = 0
    failures: list[dict] = field(default_factory=list)
    per_degree: list[dict] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, law: str, witness: str, expected: str = "", got: str = "") -> None:
        if len(self.failures) < MAX_LISTED:
            self.failures.append({"law": law, "witness": witness,
                                  "expected": expected, "got": got})

    @contextmanager
    def guard(self, law: str, witness: str):
        """Fold an InvariantViolation or MismatchError raised in the block, a
        defect met after the inputs were validated, into a failure of `law`
        whose witness carries the error text."""
        try:
            yield
        except (InvariantViolation, MismatchError) as exc:
            self.fail(law, f"{witness}: {exc}")

    def absorb(self, inner: "Report", prefix: str) -> None:
        """Add an inner report's cases and failures, each law as prefix:law."""
        self.cases += inner.cases
        for f in inner.failures:
            self.fail(f"{prefix}:{f['law']}", f["witness"], f["expected"], f["got"])

    def to_json(self) -> dict:
        return {"suite": self.name, "config": self.config, "cases": self.cases,
                "failures": sorted(self.failures,
                                   key=lambda f: (f["law"], f["witness"])),
                "ok": self.ok, "elapsed_s": round(self.elapsed_s, 3)}
