#!/usr/bin/env python3
"""Determinism analyzer for the CORP C++ tree.

One tool for the static half of the determinism contract: every run
must be a pure function of its seed. Each file is lexed once; nine
token rules check project invariants in its token stream (raw engines,
random_device, rand(), wall-clock time, unordered iteration, float in
the double-only pipeline, literal seed streams, direct stack
construction, whole-file trace reads), and four fact rules run over the
facts the micro frontend lowers from every file: races and
floating-point reductions in parallel regions (CORP-PAR-001/002), the
cross-TU seed-stream audit (CORP-SEED-002) and double metric
publication (CORP-OBS-002). See docs/static_analysis.md for the rule
contract and the `// lint: <tag>` suppressions.

Exit codes follow the corpsim convention: 0 clean, 1 findings (or
--expect mismatch), 2 usage errors.

Fixture mode (CTest):

    python3 tools/analyze/corp_analyze.py \
        --expect CORP-PAR-001 fixtures/bad/corp_par_001_shared_write.cpp
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable, Sequence
from pathlib import Path

if __package__ in (None, ""):  # executed as a script, not a module
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from analyze.lexer import tokenize
from analyze.micro_frontend import lower
from analyze.model import Finding, SuppressionIndex, merge_facts
from analyze.rules import (
    RULES,
    RuleContext,
    count_tag_uses,
    load_registry,
    run_rules,
)

#: Default scan roots (tests/ is exempt: test code legitimately pokes
#: raw engines and literal streams at the API).
DEFAULT_ROOTS = ("src", "bench", "tools")
_CPP_EXTS = {".cpp", ".cc", ".cxx", ".hpp", ".h"}
_REGISTRY_REL = Path("src/util/seed_streams.hpp")


class AnalyzeError(Exception):
    """A usage error: reported on stderr, exit 2."""


def find_repo_root(start: Path) -> Path:
    for candidate in (start, *start.parents):
        if (candidate / "CMakeLists.txt").is_file() and \
                (candidate / "src").is_dir():
            return candidate
    return start


def iter_cpp_files(roots: Iterable[Path]) -> list[Path]:
    files: list[Path] = []
    for root in roots:
        if root.is_file():
            files.append(root)
        elif root.is_dir():
            files.extend(
                p for p in sorted(root.rglob("*"))
                if p.suffix in _CPP_EXTS and p.is_file())
    return files


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corp_analyze",
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to analyze (default: src/ bench/ "
             "tools/ under the repo root, fixtures excluded)")
    parser.add_argument(
        "--root", type=Path, default=None,
        help="repo root (default: autodetected from this script)")
    parser.add_argument(
        "--expect", metavar="RULE_ID", default=None,
        help="fixture mode: exit 0 iff at least one finding of exactly "
             "this rule fires and no other rule does")
    parser.add_argument(
        "--json", type=Path, default=None, metavar="OUT",
        help="also write findings as JSON (CI artifact)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit")
    return parser


def _select_files(paths: list[Path],
                  root: Path) -> tuple[list[Path], bool]:
    """(files, full_tree). Fixture corpora are excluded from default
    tree scans."""
    if paths:
        missing = [p for p in paths if not p.exists()]
        if missing:
            raise AnalyzeError(
                "no such file or directory: "
                + ", ".join(map(str, missing)))
        return iter_cpp_files(paths), False
    roots = [root / name for name in DEFAULT_ROOTS]
    missing = [r for r in roots if not r.is_dir()]
    if missing:
        raise AnalyzeError(
            "scan roots not found: " + ", ".join(map(str, missing)))
    files = [p for p in iter_cpp_files(roots)
             if "fixtures" not in p.parts]
    return files, True


def _read_sources(files: list[Path]) -> dict[str, str]:
    texts: dict[str, str] = {}
    for path in files:
        try:
            texts[str(path)] = path.read_text(
                encoding="utf-8", errors="replace")
        except OSError as err:
            raise AnalyzeError(f"cannot read {path}: {err}") from err
    return texts


def _write_json(out: Path, findings: list[Finding]) -> None:
    payload = {
        "findings": [
            {"path": f.path, "line": f.line, "rule": f.rule,
             "message": f.message}
            for f in findings
        ],
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n",
                   encoding="utf-8")


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    if args.list_rules:
        for rule_id, (tag, summary) in RULES.items():
            print(f"{rule_id}  {summary}  (suppress: // lint: {tag})")
        return 0

    if args.expect is not None and args.expect not in RULES:
        print(f"corp_analyze: unknown rule id {args.expect!r}",
              file=sys.stderr)
        return 2

    root = (args.root or
            find_repo_root(Path(__file__).resolve().parent)).resolve()
    try:
        files, full_tree = _select_files(args.paths, root)
        texts = _read_sources(files)
    except AnalyzeError as err:
        print(f"corp_analyze: {err}", file=sys.stderr)
        return 2

    sources = [tokenize(path, text) for path, text in texts.items()]
    registry_path = root / _REGISTRY_REL
    registry = load_registry(registry_path)
    findings = run_rules(RuleContext(
        sources=sources,
        facts=merge_facts([lower(src) for src in sources]),
        suppressions=SuppressionIndex(
            {src.path: src.comments for src in sources}),
        registry=registry,
        registry_path=str(registry_path),
        tag_uses=count_tag_uses(registry, texts, str(registry_path)),
        full_tree=full_tree,
    ))

    for finding in findings:
        print(finding.render())
    if args.json is not None:
        _write_json(args.json, findings)

    if args.expect is not None:
        fired = {f.rule for f in findings}
        if fired == {args.expect}:
            print(f"ok: fixture trips exactly {args.expect} "
                  f"({len(findings)} finding(s))")
            return 0
        print(f"FAIL: expected exactly {{{args.expect}}}, got "
              f"{sorted(fired) or '{}'}", file=sys.stderr)
        return 1

    if findings:
        print(f"corp_analyze: {len(findings)} finding(s) in "
              f"{len(sources)} file(s)", file=sys.stderr)
        return 1
    print(f"corp_analyze: clean ({len(sources)} file(s) scanned)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
