"""Namer's issue reports and fix rendering.

A :class:`Report` is a classifier-approved violation: the statement,
the offending name, and the suggested fix — rendered back into the
identifier's original naming convention (``assertTrue`` with subtoken
``True`` replaced by ``Equal`` becomes ``assertEqual``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.patterns import PatternKind, Violation
from repro.naming.subtokens import join_subtokens, normalize_style, split_identifier

__all__ = [
    "Report",
    "render_fixed_identifier",
    "report_to_json",
    "reports_to_rows",
    "rows_from_text",
    "rows_to_text",
]


@dataclass
class Report:
    """One naming issue reported to the user."""

    violation: Violation
    features: np.ndarray
    score: float = 0.0

    @property
    def file_path(self) -> str:
        return self.violation.statement.file_path

    @property
    def line(self) -> int:
        return self.violation.statement.line

    @property
    def source(self) -> str:
        return self.violation.statement.source

    @property
    def observed(self) -> str:
        return self.violation.observed

    @property
    def suggested(self) -> str:
        return self.violation.suggested

    @property
    def pattern_kind(self) -> PatternKind:
        return self.violation.pattern.kind

    def fixed_identifier(self) -> str:
        """The full identifier after applying the suggested fix."""
        return render_fixed_identifier(self.violation)

    def describe(self) -> str:
        original = _original_identifier(self.violation)
        return (
            f"{self.file_path}:{self.line}: replace '{self.observed}' with "
            f"'{self.suggested}' ({original} -> {self.fixed_identifier()}) "
            f"in: {self.source}"
        )

    def to_json(self) -> dict:
        """Plain-JSON row for the analysis service's wire format.

        Everything a remote consumer needs to render or apply the fix;
        the feature vector stays server-side (it is an implementation
        detail of the classifier, and large).
        """
        return {
            "file": self.file_path,
            "line": self.line,
            "source": self.source,
            "observed": self.observed,
            "suggested": self.suggested,
            "identifier": _original_identifier(self.violation),
            "fixed_identifier": self.fixed_identifier(),
            "kind": self.pattern_kind.value,
            # rounded so batched and single-file classifier passes (which
            # differ in the last ulps of their BLAS reductions) serialize
            # identically
            "score": round(self.score, 9),
            "message": self.describe(),
        }


def report_to_json(report: Report) -> dict:
    """Module-level alias of :meth:`Report.to_json`."""
    return report.to_json()


def reports_to_rows(reports: list[Report]) -> list[dict]:
    """One file's reports as plain-JSON wire rows.

    The single serialization point shared by the analysis service, the
    repository index, and ``detect_many_rows`` — whoever stores or
    serves rows produces them here, so an index-served response is
    byte-identical to a fresh analysis of the same bytes.
    """
    return [report.to_json() for report in reports]


def rows_to_text(rows: list[dict]) -> str:
    """Canonical text form of wire rows (compact separators, keys in
    insertion order — the order :meth:`Report.to_json` emits)."""
    import json

    return json.dumps(rows, separators=(",", ":"))


def rows_from_text(text: str) -> list[dict]:
    """Inverse of :func:`rows_to_text`; round-trips byte-identically
    through :func:`rows_to_text` again."""
    import json

    return json.loads(text)


def render_fixed_identifier(violation: Violation) -> str:
    """Rebuild the offending identifier with the suggested subtoken.

    The deduction path points at one subtoken position of one
    identifier; the fix keeps every other subtoken and the original
    naming convention.
    """
    original = _original_identifier(violation)
    subtokens = split_identifier(original)
    position = _subtoken_position(violation)
    if position is None or position >= len(subtokens):
        return violation.suggested
    fixed = list(subtokens)
    fixed[position] = violation.suggested
    style = normalize_style(original)
    rendered = join_subtokens(fixed, style)
    # Preserve the original's leading casing when the first subtoken
    # was untouched (join_subtokens lowercases camelCase heads).
    if position != 0 and rendered and original and style == "camel":
        rendered = original[0] + rendered[1:]
    return rendered


def _subtoken_position(violation: Violation) -> int | None:
    """The subtoken index targeted by the deduction path: the child
    index under the ``NumST(k)`` prefix step."""
    prefix = violation.deduction_path.prefix
    for step in reversed(prefix):
        if step.value.startswith("NumST("):
            return step.index
    return None


def _original_identifier(violation: Violation) -> str:
    """Recover the full original identifier containing the offender.

    Reads the AST+ walk's record for the deduction path's prefix; the
    transformed tree is never built here (reports are rendered outside
    detect's quarantine capture).
    """
    original = violation.statement.original_of(violation.deduction_path.prefix)
    return original if original is not None else violation.observed
