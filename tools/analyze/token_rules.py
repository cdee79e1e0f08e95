"""Per-file token rules: project invariants visible in one token stream.

Each check walks one file's tokens and yields findings; suppression is
applied afterwards by ``rules.run_rules`` through the shared comment
index, with the tag the rule table assigns.

  CORP-RNG-001  raw std:: random engine construction outside util/rng
  CORP-RNG-002  std::random_device (nondeterministic entropy source)
  CORP-RNG-003  C rand()/srand() (hidden global generator)
  CORP-TIME-001 wall-clock time in result-affecting code
  CORP-ORD-001  iteration over an unordered container (hash order leaks
                into results)
  CORP-FLT-001  `float` in the dnn/hmm/predict numeric pipeline, which
                is double-only by design (silent precision loss)
  CORP-SEED-001 util::derive_seed called with a bare integer literal as
                the stream tag instead of a named stream constant
  CORP-API-001  direct construction of a prediction stack outside
                predict/stacks (bypasses make_stack's option
                validation and the Table II defaults)
  CORP-IO-001   getline loop accumulating rows into a container in
                trace-ingest code (unbounded whole-file read; production
                traces are multi-GB and must stream)
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from pathlib import Path

from analyze.lexer import SourceFile, Token, match_forward
from analyze.model import Finding


def _seq(tokens: Sequence[Token], i: int, *texts: str) -> bool:
    """True if tokens[i:] begin with the given texts."""
    if i + len(texts) > len(tokens):
        return False
    return all(tokens[i + k].text == t for k, t in enumerate(texts))


#: Keywords after which `name(` is an expression, not a declarator.
_EXPR_KEYWORDS = frozenset(
    {"return", "throw", "co_return", "co_yield", "case", "else", "do"})


def _is_call(tokens: Sequence[Token], i: int) -> bool:
    """True if the identifier at `i` looks like a free-function call.

    Filters two non-call shapes that share the `name(` spelling: member
    access (`obj.time()`) and declarations (`long time() const`), where
    the preceding token is a type name rather than an operator/keyword.
    """
    if not _seq(tokens, i + 1, "("):
        return False
    if i == 0:
        return True
    prev = tokens[i - 1]
    if prev.text in (".", "->"):
        return False
    if prev.kind == "ident" and prev.text not in _EXPR_KEYWORDS:
        return False  # `long time()` — a declarator, not a call
    return True


_RAW_ENGINES = (
    "mt19937",
    "mt19937_64",
    "minstd_rand",
    "minstd_rand0",
    "default_random_engine",
    "ranlux24",
    "ranlux48",
    "knuth_b",
)

#: The one module allowed to own raw engines.
_RNG_HOME = ("util/rng.hpp", "util/rng.cpp")


def _in_rng_home(path: str) -> bool:
    return any(path.endswith(suffix) for suffix in _RNG_HOME)


def check_raw_engine(src: SourceFile) -> Iterator[Finding]:
    if _in_rng_home(src.path):
        return
    for i, tok in enumerate(src.tokens):
        if tok.kind != "ident" or tok.text not in _RAW_ENGINES:
            continue
        # Only std:: engines count; a project type named e.g. mt19937
        # elsewhere would be its own design problem but not this rule.
        if i >= 2 and _seq(src.tokens, i - 2, "std", "::"):
            yield Finding(
                src.path, tok.line, "CORP-RNG-001",
                f"raw std::{tok.text} outside util/rng — all stochastic "
                "code must draw from util::Rng / util::derive_seed "
                "(justify with `// lint: raw-engine`)")


def check_random_device(src: SourceFile) -> Iterator[Finding]:
    for i, tok in enumerate(src.tokens):
        if tok.kind == "ident" and tok.text == "random_device":
            if i >= 2 and not _seq(src.tokens, i - 2, "std", "::"):
                continue
            yield Finding(
                src.path, tok.line, "CORP-RNG-002",
                "std::random_device is nondeterministic — experiments "
                "must be replayable from an explicit seed (justify with "
                "`// lint: entropy-source`)")


def check_c_rand(src: SourceFile) -> Iterator[Finding]:
    for i, tok in enumerate(src.tokens):
        if tok.kind != "ident" or tok.text not in ("rand", "srand"):
            continue
        if not _is_call(src.tokens, i):
            continue
        yield Finding(
            src.path, tok.line, "CORP-RNG-003",
            f"C {tok.text}() uses a hidden global generator — draw from "
            "util::Rng instead (justify with `// lint: c-rand`)")


_WALL_CLOCK_IDENTS = ("system_clock", "gettimeofday", "localtime", "gmtime",
                      "localtime_r", "gmtime_r", "strftime")


def check_wall_clock(src: SourceFile) -> Iterator[Finding]:
    for i, tok in enumerate(src.tokens):
        if tok.kind != "ident":
            continue
        hit = None
        if tok.text in _WALL_CLOCK_IDENTS:
            hit = tok.text
        elif tok.text in ("time", "clock") and _is_call(src.tokens, i):
            # std::time(...) / time(nullptr) / clock() — but not member
            # calls like timeline.time(), declarations like
            # `long time() const`, or chrono's .time_since_epoch().
            hit = f"{tok.text}()"
        if hit is None:
            continue
        yield Finding(
            src.path, tok.line, "CORP-TIME-001",
            f"wall-clock source `{hit}` in result-affecting code — results "
            "must be a function of the seed only; steady_clock is fine for "
            "phase timing (justify display-only uses with "
            "`// lint: wall-clock`)")


_UNORDERED = ("unordered_map", "unordered_set", "unordered_multimap",
              "unordered_multiset")


def _unordered_names(src: SourceFile) -> set[str]:
    """Names of variables/members declared with an unordered container type.

    Recognizes `std::unordered_map<...> name` declarations by skipping the
    balanced template argument list after the container keyword.
    """
    names: set[str] = set()
    toks = src.tokens
    for i, tok in enumerate(toks):
        if tok.kind != "ident" or tok.text not in _UNORDERED:
            continue
        j = i + 1
        if not _seq(toks, j, "<"):
            continue
        depth = 0
        while j < len(toks):
            if toks[j].text == "<":
                depth += 1
            elif toks[j].text == ">":
                depth -= 1
                if depth == 0:
                    break
            elif toks[j].text == ">>":
                depth -= 2
                if depth <= 0:
                    break
            j += 1
        j += 1
        # Skip refs/pointers/cv.
        while j < len(toks) and toks[j].text in ("&", "*", "const"):
            j += 1
        if j < len(toks) and toks[j].kind == "ident":
            names.add(toks[j].text)
    return names


def check_unordered_iteration(src: SourceFile) -> Iterator[Finding]:
    names = _unordered_names(src)
    if not names:
        return
    toks = src.tokens
    for i, tok in enumerate(toks):
        if tok.text != "for" or not _seq(toks, i + 1, "("):
            continue
        # Find the `:` of a range-for at paren depth 1, then the iterated
        # expression up to the closing paren.
        depth = 0
        colon = None
        j = i + 1
        while j < len(toks):
            if toks[j].text == "(":
                depth += 1
            elif toks[j].text == ")":
                depth -= 1
                if depth == 0:
                    break
            elif toks[j].text == ":" and depth == 1 and colon is None:
                colon = j
            elif toks[j].text == ";" and depth == 1:
                colon = None  # classic for loop
                break
            j += 1
        if colon is None:
            continue
        range_names = {t.text for t in toks[colon + 1:j] if t.kind == "ident"}
        iterated = sorted(range_names & names)
        if not iterated:
            continue
        yield Finding(
            src.path, tok.line, "CORP-ORD-001",
            f"iteration over unordered container `{iterated[0]}` — hash "
            "order is implementation-defined and leaks into results; sort "
            "keys first or switch to std::map (justify display-only / "
            "order-insensitive gathers with `// lint: sorted-gather`)")


#: Directories whose numeric pipeline is double-only by design.
_DOUBLE_ONLY_DIRS = ("dnn", "hmm", "predict")


def check_float_in_pipeline(src: SourceFile) -> Iterator[Finding]:
    parts = Path(src.path).parts
    if not any(d in parts for d in _DOUBLE_ONLY_DIRS):
        return
    for tok in src.tokens:
        is_float_kw = tok.kind == "ident" and tok.text == "float"
        is_float_lit = tok.kind == "number" and tok.text[-1] in "fF" and \
            not tok.text.lower().startswith("0x")
        if not (is_float_kw or is_float_lit):
            continue
        what = "`float`" if is_float_kw else f"float literal {tok.text}"
        yield Finding(
            src.path, tok.line, "CORP-FLT-001",
            f"{what} in the double-only prediction pipeline — mixed "
            "float/double accumulators silently lose precision and break "
            "bit-identical replication (justify with `// lint: float-ok`)")


def check_seed_stream_tag(src: SourceFile) -> Iterator[Finding]:
    if _in_rng_home(src.path):
        return  # the implementation composes itself with raw integers
    toks = src.tokens
    for i, tok in enumerate(toks):
        if tok.kind != "ident" or tok.text != "derive_seed":
            continue
        if not _seq(toks, i + 1, "("):
            continue
        # Split the argument list at top-level commas.
        depth = 0
        args: list[list[Token]] = [[]]
        j = i + 1
        while j < len(toks):
            t = toks[j]
            if t.text in ("(", "[", "{"):
                depth += 1
                if depth > 1:
                    args[-1].append(t)
            elif t.text in (")", "]", "}"):
                depth -= 1
                if depth == 0:
                    break
                args[-1].append(t)
            elif t.text == "," and depth == 1:
                args.append([])
            elif depth >= 1:
                args[-1].append(t)
            j += 1
        # Stream tags are argument 2 (and 3 when present).
        for arg in args[1:]:
            if len(arg) == 1 and arg[0].kind == "number":
                yield Finding(
                    src.path, arg[0].line, "CORP-SEED-001",
                    f"derive_seed stream tag is a bare literal "
                    f"`{arg[0].text}` — use a named stream constant "
                    "(e.g. seed_stream::kTraining) so streams cannot "
                    "silently collide across call sites (justify with "
                    "`// lint: literal-stream`)")


_STACK_TYPES = ("CorpStack", "RccrStack", "CloudScaleStack", "DraStack")

#: The construction home: the stacks module, whose make_stack is the one
#: factory allowed to assemble options.
_STACK_HOME = ("predict/stacks.hpp", "predict/stacks.cpp")


def check_direct_stack_construction(src: SourceFile) -> Iterator[Finding]:
    if any(src.path.endswith(suffix) for suffix in _STACK_HOME):
        return
    toks = src.tokens
    for i, tok in enumerate(toks):
        if tok.kind != "ident" or tok.text not in _STACK_TYPES:
            continue
        if _seq(toks, i + 1, "::"):
            continue  # scope access (CorpStack::Options) — not a build
        if i >= 1 and toks[i - 1].text in ("struct", "class"):
            continue  # a declaration, not a construction
        constructed = False
        if i >= 1 and toks[i - 1].text == "new":
            constructed = True
        elif i >= 2 and toks[i - 1].text == "<" and \
                toks[i - 2].text in ("make_unique", "make_shared"):
            constructed = True
        elif _seq(toks, i + 1, "(") or _seq(toks, i + 1, "{"):
            constructed = True  # temporary: CorpStack(...) / CorpStack{...}
        elif i + 2 < len(toks) and toks[i + 1].kind == "ident" and \
                toks[i + 2].text in ("(", "{", ";", "="):
            constructed = True  # local/member: CorpStack stack(...)
        if not constructed:
            continue
        yield Finding(
            src.path, tok.line, "CORP-API-001",
            f"direct {tok.text} construction — build stacks through "
            "predict::make_stack so options are validated and Table II "
            "defaults apply (justify with `// lint: stack-direct`)")


#: Directories whose readers face production-size (multi-GB) inputs.
_STREAMING_IO_DIRS = ("trace",)


def check_whole_file_read(src: SourceFile) -> Iterator[Finding]:
    """CORP-IO-001: `while (getline(...))` growing a container.

    The classic whole-file reader — read every line, push_back every
    row — materializes O(file) state. Fine for configs; fatal for the
    multi-GB Google/Azure traces, whose bounded-memory path is
    trace::StreamReader. The rule only watches trace-ingest directories
    and only fires when the loop body actually accumulates
    (push_back/emplace_back), so keyed lookups and line counting stay
    legal.
    """
    if not any(d in Path(src.path).parts for d in _STREAMING_IO_DIRS):
        return
    toks = src.tokens
    for i, tok in enumerate(toks):
        if tok.kind != "ident" or tok.text != "while":
            continue
        if not _seq(toks, i + 1, "("):
            continue
        # Scan the loop condition for a getline call.
        j = match_forward(toks, i + 1)
        if j >= len(toks) or not any(
                t.kind == "ident" and t.text == "getline"
                for t in toks[i + 2:j]):
            continue
        # Walk the loop body — a brace block or a single statement.
        k = j + 1
        if k < len(toks) and toks[k].text == "{":
            body_end = match_forward(toks, k)
        else:
            body_end = k
            while body_end < len(toks) and toks[body_end].text != ";":
                body_end += 1
        grows = any(
            t.kind == "ident" and t.text in ("push_back", "emplace_back")
            for t in toks[k:body_end + 1])
        if not grows:
            continue
        yield Finding(
            src.path, tok.line, "CORP-IO-001",
            "getline loop accumulating rows into a container — an "
            "unbounded whole-file read; production traces are multi-GB, "
            "so stream them through trace::StreamReader (justify "
            "bounded-input readers with `// lint: streaming-io`)")


CHECKS: tuple[Callable[[SourceFile], Iterator[Finding]], ...] = (
    check_raw_engine,
    check_random_device,
    check_c_rand,
    check_wall_clock,
    check_unordered_iteration,
    check_float_in_pipeline,
    check_seed_stream_tag,
    check_direct_stack_construction,
    check_whole_file_read,
)
