"""Name patterns: interpretable naming rules (Section 3.2).

A name pattern is a pair of name-path sets, the *condition* ``C`` and
the *deduction* ``D`` (Definition 3.6).  A statement whose paths include
all of ``C`` and whose prefixes include all of ``D``'s prefixes
*matches* the pattern; matching statements either *satisfy* or *violate*
it, with the exact semantics depending on the pattern type:

* :data:`PatternKind.CONSISTENCY` (Definition 3.7) — ``D`` holds two
  symbolic paths; the subtokens at those two positions must be equal.
* :data:`PatternKind.CONFUSING_WORD` (Definition 3.9) — ``D`` holds one
  concrete path ending at the *correct* word of a mined confusing word
  pair; the statement's subtoken at that position must equal it.

A violation carries enough information to render the suggested fix:
change the offending subtoken(s) so the pattern becomes satisfied.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.core.namepath import EPSILON, NamePath, equal, paths_by_prefix
from repro.core.transform import AstPlusStatement

__all__ = [
    "PatternKind",
    "Relation",
    "NamePattern",
    "Violation",
    "check_pattern",
    "find_violation",
]


class PatternKind(enum.Enum):
    """The two pattern types implemented by the paper."""

    CONSISTENCY = "consistency"
    CONFUSING_WORD = "confusing_word"


class Relation(enum.Enum):
    """Relationship between a statement and a pattern (Definition 3.6)."""

    NO_MATCH = "no_match"
    SATISFIED = "satisfied"
    VIOLATED = "violated"


@dataclass(frozen=True)
class NamePattern:
    """An immutable name pattern.

    Attributes:
        condition: The paths a statement must contain (all concrete).
        deduction: The paths the statement must then conform to.
        kind: Which satisfaction semantics apply.
        support: Occurrence count observed during mining; used by the
            pruning step and by classifier features 10-12.
    """

    condition: frozenset[NamePath]
    deduction: frozenset[NamePath]
    kind: PatternKind
    support: int = 0

    def __post_init__(self) -> None:
        if self.kind is PatternKind.CONSISTENCY:
            if len(self.deduction) != 2 or not all(d.is_symbolic for d in self.deduction):
                raise ValueError(
                    "consistency patterns need exactly two symbolic deduction paths"
                )
        elif self.kind is PatternKind.CONFUSING_WORD:
            if len(self.deduction) != 1:
                raise ValueError("confusing word patterns need exactly one deduction path")
            (d,) = self.deduction
            if d.is_symbolic:
                raise ValueError("confusing word deductions must be concrete")

    def with_support(self, support: int) -> "NamePattern":
        return NamePattern(self.condition, self.deduction, self.kind, support)

    def targets_function_name(self) -> bool:
        """Heuristic for feature 13: does the deduction point at a
        function/method name rather than an object name?

        A function name sits in a callee subtree — the path passes a
        ``Call`` node's first child and then an ``Attr`` — or under a
        definition's name node.
        """
        for d in self.deduction:
            in_callee = False
            for step in d.prefix:
                if step.value in ("FuncDefName", "MethodDeclName"):
                    return True
                if step.value in ("Call", "MethodCall") and step.index == 0:
                    in_callee = True
                    continue
                if not in_callee:
                    continue
                if step.value in ("AttributeLoad", "FieldAccess"):
                    # Index 0 descends into the receiver, not the name.
                    in_callee = step.index == 1
                elif step.value in ("Attr", "NameLoad"):
                    # Attribute callee (x.f(...)) or plain callee (f(...)).
                    return True
                else:
                    in_callee = False
        return False

    def key(self) -> tuple:
        """A hashable canonical identity (ignores support).

        Memoized: the statistics index keys every counter bump by it,
        so it is computed millions of times per corpus scan.  The cache
        is stripped from pickles (see ``__getstate__``) so payload
        bytes stay independent of call history.
        """
        cached = self.__dict__.get("_key")
        if cached is None:
            cached = (
                self.kind,
                tuple(sorted(self.condition)),
                tuple(sorted(self.deduction)),
            )
            object.__setattr__(self, "_key", cached)
        return cached

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_key", None)
        return state

    def __str__(self) -> str:
        cond = "\n  ".join(str(c) for c in sorted(self.condition))
        ded = "\n  ".join(str(d) for d in sorted(self.deduction))
        return f"Condition:\n  {cond}\nDeduction:\n  {ded}"


@dataclass(frozen=True)
class Violation:
    """A statement that matches but does not satisfy a pattern.

    Attributes:
        statement: The violating statement: an
            :class:`~repro.core.transform.AstPlusStatement`, whose walk
            records give the paths, structural key and original
            identifiers without building the transformed tree.
        pattern: The violated pattern.
        observed: The subtoken(s) found at the deduction position(s).
        suggested: The subtoken the pattern expects (for consistency
            patterns, the majority/partner subtoken).
        deduction_path: The deduction path whose end was contradicted.
    """

    statement: AstPlusStatement
    pattern: NamePattern
    observed: str
    suggested: str
    deduction_path: NamePath

    def describe(self) -> str:
        return (
            f"{self.statement.file_path}:{self.statement.line}: "
            f"'{self.observed}' should be '{self.suggested}' in "
            f"{self.statement.source!r}"
        )


#: Type of the shared statement index: path prefix -> path.
PrefixIndex = dict


def matches(
    pattern: NamePattern,
    paths: Sequence[NamePath],
    index: PrefixIndex | None = None,
) -> bool:
    """Definition 3.6 match: ``C`` subset of ``A`` (up to epsilon) and
    every deduction prefix present in ``A``.

    ``index`` is the statement's :func:`paths_by_prefix` mapping; pass
    it when checking many patterns against one statement so the index
    is built once, not once per pattern (the matcher and the miner's
    prune pass both do).
    """
    if index is None:
        index = paths_by_prefix(paths)
    for c in pattern.condition:
        candidate = index.get(c.prefix)
        if candidate is None or not equal(c, candidate):
            return False
    for d in pattern.deduction:
        if d.prefix not in index:
            return False
    return True


def check_pattern(
    pattern: NamePattern,
    paths: Sequence[NamePath],
    index: PrefixIndex | None = None,
) -> Relation:
    """Classify the statement/pattern relationship."""
    if index is None:
        index = paths_by_prefix(paths)
    if not matches(pattern, paths, index):
        return Relation.NO_MATCH
    if _satisfies(pattern, paths, index):
        return Relation.SATISFIED
    return Relation.VIOLATED


def _satisfies(
    pattern: NamePattern,
    paths: Sequence[NamePath],
    index: PrefixIndex | None = None,
) -> bool:
    if index is None:
        index = paths_by_prefix(paths)
    if pattern.kind is PatternKind.CONSISTENCY:
        d1, d2 = sorted(pattern.deduction)
        a1, a2 = index.get(d1.prefix), index.get(d2.prefix)
        if a1 is None or a2 is None:
            return False
        # Case-insensitive: Java's ``Intent intent = ...`` idiom relates
        # a type subtoken to a variable subtoken across conventions.
        return (a1.end or "").casefold() == (a2.end or "").casefold()
    (d,) = pattern.deduction
    a = index.get(d.prefix)
    return a is not None and a.end == d.end


def find_violation(
    pattern: NamePattern,
    stmt: AstPlusStatement,
    paths: Sequence[NamePath],
    index: PrefixIndex | None = None,
) -> Optional[Violation]:
    """Return the :class:`Violation` for ``stmt`` against ``pattern``,
    or ``None`` when the statement does not match or satisfies it."""
    if index is None:
        index = paths_by_prefix(paths)
    if check_pattern(pattern, paths, index) is not Relation.VIOLATED:
        return None
    if pattern.kind is PatternKind.CONSISTENCY:
        d1, d2 = sorted(pattern.deduction)
        a1, a2 = index[d1.prefix], index[d2.prefix]
        # Convention: report the second position as the offender and the
        # first as the expected name; the fix makes the two agree.
        return Violation(
            statement=stmt,
            pattern=pattern,
            observed=a2.end or "",
            suggested=a1.end or "",
            deduction_path=d2,
        )
    (d,) = pattern.deduction
    a = index[d.prefix]
    return Violation(
        statement=stmt,
        pattern=pattern,
        observed=a.end or "",
        suggested=d.end or "",
        deduction_path=d,
    )


def consistency_pattern(
    condition: Iterable[NamePath],
    d1: NamePath,
    d2: NamePath,
    support: int = 0,
) -> NamePattern:
    """Build a consistency pattern, coercing deduction ends to epsilon."""
    return NamePattern(
        condition=frozenset(condition),
        deduction=frozenset({d1.with_end(EPSILON), d2.with_end(EPSILON)}),
        kind=PatternKind.CONSISTENCY,
        support=support,
    )


def confusing_word_pattern(
    condition: Iterable[NamePath],
    deduction: NamePath,
    support: int = 0,
) -> NamePattern:
    """Build a confusing-word pattern (deduction must be concrete)."""
    return NamePattern(
        condition=frozenset(condition),
        deduction=frozenset({deduction}),
        kind=PatternKind.CONFUSING_WORD,
        support=support,
    )
