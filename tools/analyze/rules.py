"""The rule table and rule evaluation.

Token rules (``token_rules.py``) see one file's tokens; fact rules see
the facts the micro frontend lowered from every scanned file, merged.
Suppression (`// lint: <tag>`) is applied here for both kinds, because
one fact rule (CORP-OBS-002) has group semantics: a justification at
any site of a shared metric documents the sharing decision for the
whole group.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from analyze.lexer import SourceFile
from analyze.model import (
    Finding,
    RegistryTag,
    SuppressionIndex,
    TUFacts,
    subsystem_of,
)
from analyze.token_rules import CHECKS

#: Rule id -> (suppression tag, one-line summary).
RULES: dict[str, tuple[str, str]] = {
    "CORP-RNG-001": ("raw-engine",
                     "raw std:: random engine outside util/rng"),
    "CORP-RNG-002": ("entropy-source",
                     "std::random_device nondeterministic entropy"),
    "CORP-RNG-003": ("c-rand", "C rand()/srand() hidden global generator"),
    "CORP-TIME-001": ("wall-clock",
                      "wall-clock time in result-affecting code"),
    "CORP-ORD-001": ("sorted-gather",
                     "iteration over unordered container"),
    "CORP-FLT-001": ("float-ok",
                     "float in the double-only prediction pipeline"),
    "CORP-SEED-001": ("literal-stream",
                      "derive_seed stream tag is a bare literal"),
    "CORP-API-001": ("stack-direct",
                     "direct prediction-stack construction"),
    "CORP-IO-001": ("streaming-io",
                    "whole-file getline read in trace-ingest code"),
    "CORP-PAR-001": (
        "par-staged",
        "parallel-region lambda writes shared state not indexed by the "
        "loop/shard variable",
    ),
    "CORP-PAR-002": (
        "par-reduction",
        "floating-point accumulation into captured shared state inside "
        "a parallel region",
    ),
    "CORP-SEED-002": (
        "seed-audit",
        "cross-TU seed-stream audit: unused registry tag, (base, tag, "
        "substream) collision, or re-derived tag",
    ),
    "CORP-OBS-002": (
        "metric-shared",
        "one metric name published from two different subsystem "
        "directories",
    ),
}

_REGISTRY_RE = re.compile(
    r"inline\s+constexpr\s+std::uint64_t\s+(k\w+)\s*=")


def load_registry(path: Path) -> list[RegistryTag]:
    """Named stream constants in the seed_stream registry header.

    Returns [] when the header does not exist (fixture corpora declare
    their own constants and skip the registry-coverage check).
    """
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return []
    tags: list[RegistryTag] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in _REGISTRY_RE.finditer(line):
            tags.append(RegistryTag(name=match.group(1), line=lineno))
    return tags


def count_tag_uses(registry: list[RegistryTag],
                   sources: dict[str, str],
                   registry_path: str) -> dict[str, int]:
    """References to each registry tag name outside the registry header.

    Textual on purpose: tags legitimately reach derive_seed through
    helper functions (`hash_sub(seed, kFaultVm, key)`), so counting
    derive_seed call sites alone would report live tags as unused.
    """
    uses: dict[str, int] = {tag.name: 0 for tag in registry}
    if not uses:
        return uses
    pattern = re.compile(
        r"\b(" + "|".join(re.escape(t.name) for t in registry) + r")\b")
    for path, text in sources.items():
        if Path(path).resolve() == Path(registry_path).resolve():
            continue
        for match in pattern.finditer(text):
            uses[match.group(1)] += 1
    return uses


@dataclass
class RuleContext:
    sources: list[SourceFile]
    facts: TUFacts
    suppressions: SuppressionIndex
    registry: list[RegistryTag]
    registry_path: str
    tag_uses: dict[str, int]
    #: Registry-coverage check only makes sense over the whole tree;
    #: explicit-path / fixture runs see a slice of the call sites.
    full_tree: bool


def _suppressed(ctx: RuleContext, finding: Finding) -> bool:
    tag = RULES[finding.rule][0]
    return ctx.suppressions.justified(finding.path, finding.line, tag)


def _token_rules(ctx: RuleContext) -> list[Finding]:
    findings = [f for src in ctx.sources for check in CHECKS
                for f in check(src)]
    return [f for f in findings if not _suppressed(ctx, f)]


def _par_rules(ctx: RuleContext) -> list[Finding]:
    findings: list[Finding] = []
    for w in ctx.facts.writes:
        if w.fp_accum:
            findings.append(Finding(
                path=w.file, line=w.line, rule="CORP-PAR-002",
                message=(
                    f"floating-point accumulation `{w.var} {w.op} ...` "
                    f"inside a {w.region_entry} region (entered at line "
                    f"{w.region_line}): summation order follows the "
                    f"thread schedule, so parallel != serial bit-for-"
                    f"bit. Accumulate into a per-shard slot and reduce "
                    f"serially, or justify with `// lint: "
                    f"par-reduction`."),
            ))
        else:
            findings.append(Finding(
                path=w.file, line=w.line, rule="CORP-PAR-001",
                message=(
                    f"`{w.var} {w.op}` inside a {w.region_entry} region "
                    f"(entered at line {w.region_line}) writes captured "
                    f"shared state not indexed by the loop/shard "
                    f"variable: iterations race and the winner depends "
                    f"on the thread schedule. Index the write by the "
                    f"loop variable, make it shard-local, or justify "
                    f"with `// lint: par-staged`."),
            ))
    return [f for f in findings if not _suppressed(ctx, f)]


def _seed_rules(ctx: RuleContext) -> list[Finding]:
    findings: list[Finding] = []

    # (a) Registry coverage: every registered tag referenced somewhere.
    if ctx.full_tree:
        for tag in ctx.registry:
            if ctx.tag_uses.get(tag.name, 0) == 0:
                findings.append(Finding(
                    path=ctx.registry_path, line=tag.line,
                    rule="CORP-SEED-002",
                    message=(
                        f"registry tag `{tag.name}` is never referenced "
                        f"outside the registry: dead tags hide which "
                        f"streams are actually drawn. Remove it or wire "
                        f"up the call site (suppress with `// lint: "
                        f"seed-audit`)."),
                ))

    # (b) Collisions: two sites deriving the same (base, tag, substream)
    # produce byte-identical streams without either site knowing.
    groups: dict[tuple[str, str, str], list[tuple[str, int]]] = \
        defaultdict(list)
    for s in ctx.facts.seeds:
        site = (s.file, s.line)
        key = (s.base_text, s.tag_name, s.substream_text)
        if site not in groups[key]:
            groups[key].append(site)
    for (base, tag, substream), sites in sorted(groups.items()):
        if len(sites) < 2:
            continue
        where = ", ".join(f"{f}:{line}" for f, line in sites)
        for file, line in sites:
            findings.append(Finding(
                path=file, line=line, rule="CORP-SEED-002",
                message=(
                    f"derive_seed({base}, {tag}"
                    + (f", {substream}" if substream else "")
                    + f") is derived at {len(sites)} distinct call "
                    f"sites ({where}): both draw the identical stream. "
                    f"Give each context its own tag or substream "
                    f"(suppress with `// lint: seed-audit`)."),
            ))

    # (c) Re-derivation: the base argument is itself derived with the
    # same tag — `derive_seed(derive_seed(s, kX), kX)` aliases streams
    # along one call path.
    for s in ctx.facts.seeds:
        if s.tag_name and s.tag_name in s.base_text:
            findings.append(Finding(
                path=s.file, line=s.line, rule="CORP-SEED-002",
                message=(
                    f"tag `{s.tag_name}` is re-derived from a base that "
                    f"was already derived with the same tag: the stream "
                    f"aliases its own parent. Use a distinct tag for "
                    f"the inner derivation (suppress with `// lint: "
                    f"seed-audit`)."),
            ))

    return [f for f in findings if not _suppressed(ctx, f)]


def _obs_rules(ctx: RuleContext) -> list[Finding]:
    by_name: dict[str, list[tuple[str, int, str]]] = defaultdict(list)
    for m in ctx.facts.metrics:
        site = (m.file, m.line, subsystem_of(m.file))
        if site not in by_name[m.name]:
            by_name[m.name].append(site)
    findings: list[Finding] = []
    for name, sites in sorted(by_name.items()):
        subsystems = sorted({s[2] for s in sites})
        if len(subsystems) < 2:
            continue
        # Group suppression: one justification documents the sharing
        # decision for every publisher of the name.
        tag = RULES["CORP-OBS-002"][0]
        if any(ctx.suppressions.justified(file, line, tag)
               for file, line, _ in sites):
            continue
        where = ", ".join(f"{f}:{line}" for f, line, _ in sites)
        for file, line, _sub in sites:
            findings.append(Finding(
                path=file, line=line, rule="CORP-OBS-002",
                message=(
                    f"metric `{name}` is published from "
                    f"{len(subsystems)} subsystems "
                    f"({', '.join(subsystems)}; sites: {where}): "
                    f"cross-subsystem double publication silently sums "
                    f"unrelated counters. Namespace the metric per "
                    f"subsystem or justify once with `// lint: "
                    f"metric-shared`."),
            ))
    return findings


def run_rules(ctx: RuleContext) -> list[Finding]:
    findings: list[Finding] = []
    findings.extend(_token_rules(ctx))
    findings.extend(_par_rules(ctx))
    findings.extend(_seed_rules(ctx))
    findings.extend(_obs_rules(ctx))
    return sorted(findings,
                  key=lambda f: (f.path, f.line, f.rule, f.message))
