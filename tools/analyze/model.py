"""Facts, findings and suppressions for corp_analyze.

The micro frontend reduces each file to a small ``TUFacts`` record; the
fact rules in ``rules.py`` only ever see the merged record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class ParallelWrite:
    """A hazardous write inside a parallel-region lambda.

    The frontend only emits writes already classified as hazardous:
    the target is captured by reference (or is reachable shared state),
    is not declared inside the lambda, and no subscript on the access
    path involves the loop/shard variable or a value derived from it.
    """

    file: str
    line: int
    var: str  # base identifier of the written lvalue chain
    op: str  # "=", "+=", "++", "push_back", ...
    fp_accum: bool  # compound +=/-= with a floating-point target
    region_entry: str  # "parallel_for", "submit", or a wrapper name
    region_line: int


@dataclass(frozen=True)
class SeedSite:
    """One util::derive_seed call site."""

    file: str
    line: int
    function: str  # qualified enclosing function ("" when unknown)
    base_text: str  # source text of the base-seed argument
    tag_name: str  # named stream constant ("" for literals/expressions)
    substream_text: str  # source text of the substream argument, or ""


@dataclass(frozen=True)
class MetricSite:
    """One obs::MetricRegistry name registration/emission site."""

    file: str
    line: int
    kind: str  # "counter" | "gauge" | "histogram" | "phase"
    name: str  # the literal metric name


@dataclass(frozen=True)
class RegistryTag:
    """One named constant in the seed_stream registry header."""

    name: str
    line: int


@dataclass
class TUFacts:
    """Everything one translation unit contributes to the rules."""

    writes: list[ParallelWrite] = field(default_factory=list)
    seeds: list[SeedSite] = field(default_factory=list)
    metrics: list[MetricSite] = field(default_factory=list)


@dataclass(frozen=True)
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


def merge_facts(per_tu: list[TUFacts]) -> TUFacts:
    """Union of per-file facts in a stable order, deduplicated by site:
    a site reported twice, by (file, line, payload), counts once."""
    merged = TUFacts()
    merged.writes = sorted(
        {w for facts in per_tu for w in facts.writes},
        key=lambda w: (w.file, w.line, w.var, w.op))
    merged.seeds = sorted(
        {s for facts in per_tu for s in facts.seeds},
        key=lambda s: (s.file, s.line, s.tag_name))
    merged.metrics = sorted(
        {m for facts in per_tu for m in facts.metrics},
        key=lambda m: (m.file, m.line, m.kind, m.name))
    return merged


def subsystem_of(path: str) -> str:
    """Publication scope for CORP-OBS-002.

    src/<dir> files map to that subsystem directory; anything else maps
    to its immediate parent directory (bench/, tools/, fixture dirs).
    Two files in the same subsystem may legitimately publish the same
    metric (e.g. the serial and parallel DNN trainers); two different
    subsystems silently double-publishing is the hazard.
    """
    parts = Path(path).parts
    if "src" in parts:
        i = parts.index("src")
        if i + 2 < len(parts):  # src/<dir>/file
            return "/".join(parts[i:i + 2])
        return "src"
    if len(parts) >= 2:
        return parts[-2]
    return "."


class SuppressionIndex:
    """Per-rule `// lint: <tag>` suppressions, read from comments only.

    A justification comment ending on the finding line or the line
    directly above silences the rule; the tag is rule-specific so the
    comment documents *why* the pattern is safe. A tag inside a string
    literal is code, not a justification, and never counts.
    """

    def __init__(self, comments: dict[str, dict[int, str]]) -> None:
        self._comments = comments  # path -> end line -> comment text

    def justified(self, path: str, line: int, tag: str) -> bool:
        by_line = self._comments.get(path, {})
        for probe in (line, line - 1):
            text = by_line.get(probe, "")
            if f"lint: {tag}" in text or f"lint:{tag}" in text:
                return True
        return False
