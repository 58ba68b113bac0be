"""Machine-readable verification reports shared by all verifier entry points."""

from __future__ import annotations

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"


class Check:
    def __init__(self, name: str, status: str, residual_nonzero_count: int = 0):
        self.name = name
        self.status = status
        self.residual_nonzero_count = residual_nonzero_count

    def as_dict(self):
        return {
            "name": self.name,
            "status": self.status,
            "residual_nonzero_count": self.residual_nonzero_count,
        }


class CheckReport:
    def __init__(self, title: str, checks: list[Check] | None = None):
        self.title = title
        self.checks = [] if checks is None else checks

    def add(self, name: str, ok: bool, residual_nonzero_count: int = 0) -> Check:
        status = PASS if ok else FAIL
        if ok and residual_nonzero_count:
            raise ValueError("a passing exact check cannot report residuals")
        check = Check(name, status, residual_nonzero_count)
        self.checks.append(check)
        return check

    def add_status(self, name: str, status: str, residual_nonzero_count: int = 0) -> Check:
        check = Check(name, status, residual_nonzero_count)
        self.checks.append(check)
        return check

    def merge(self, other: "CheckReport", prefix: str = "") -> None:
        for c in other.checks:
            name = prefix + c.name if prefix else c.name
            self.checks.append(Check(name, c.status, c.residual_nonzero_count))

    @property
    def ok(self) -> bool:
        return all(c.status == PASS for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if c.status != PASS]

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            suffix = "" if not c.residual_nonzero_count else (
                " (nonzero residuals: %d)" % c.residual_nonzero_count)
            out.append("%-60s %s%s" % (c.name, c.status, suffix))
        return out

    def __str__(self):
        return "\n".join(["[%s]" % self.title] + self.lines())
