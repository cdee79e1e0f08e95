"""Scope-aware micro frontend: lowers one C++ file to ``TUFacts``.

A token-level parse that understands just enough structure for the
fact rules: function and namespace scopes, lambda introducers (capture
defaults, explicit captures, parameters), declaration vs. assignment,
postfix lvalue chains, and one-hop forwarding wrappers around
``util::ThreadPool::parallel_for``/``submit`` (the `for_each_shard`
idiom in sim::ShardEngine).

There is no name lookup or type checking: scopes and types come from
token context. Where it cannot decide it errs toward the *hazardous*
reading for capture modes (so fixtures fire without type info) and
toward silence for write shapes it cannot parse (so the tree scan does
not drown in noise). One known approximation: a variable's type is the
text of its declaration, so `auto sum = 0.0; ... sum += x[i];` inside a
parallel region is not seen as floating point and is reported as
CORP-PAR-001 rather than CORP-PAR-002 (still a failing finding).
"""

from __future__ import annotations

from dataclasses import dataclass

from analyze.lexer import (
    COMPOUND_ASSIGN,
    CaptureList,
    SourceFile,
    Token,
    looks_member,
    match_forward,
    parse_capture_list,
)
from analyze.model import MetricSite, ParallelWrite, SeedSite, TUFacts

#: Entry points that hand a callable to other threads.
ENTRY_NAMES = frozenset({"parallel_for", "submit"})

#: Container/member mutations that count as writes to their object.
#: Atomic RMW members (fetch_add, store) are deliberately absent: atomic
#: integer accumulation is commutative and is the sanctioned way to
#: share a counter across shards.
MUTATORS = frozenset({
    "push_back", "emplace_back", "insert", "emplace", "erase",
    "clear", "resize", "assign", "pop_back",
})

_CONTROL = frozenset({"if", "for", "while", "switch", "catch"})
_TYPEISH = frozenset({"&", "*", ">", "const", "auto"})
_QUALS = frozenset({"const", "noexcept", "override", "final", "mutable"})


@dataclass
class LambdaInfo:
    intro_idx: int
    intro_end: int
    params: list[str]
    body_open: int
    body_close: int
    line: int
    captures: CaptureList
    var_name: str = ""  # `auto name = [...]` when bound to a local


@dataclass
class FuncSpan:
    name: str  # qualified with enclosing namespaces/classes
    params: list[str]
    open: int
    close: int


@dataclass
class _Region:
    lam: LambdaInfo
    entry: str
    entry_line: int


def _param_names(tokens: list[Token], open_paren: int,
                 close_paren: int) -> list[str]:
    """Rightmost-identifier heuristic over a parameter list."""
    names: list[str] = []
    part: list[Token] = []
    depth = 0
    for i in range(open_paren + 1, close_paren):
        tok = tokens[i]
        if tok.text in ("(", "[", "{", "<"):
            depth += 1
        elif tok.text in (")", "]", "}", ">"):
            depth -= 1
        if tok.text == "," and depth == 0:
            names.extend(_part_name(part))
            part = []
        else:
            part.append(tok)
    names.extend(_part_name(part))
    return names


def _part_name(part: list[Token]) -> list[str]:
    # Truncate at a default argument, then take the rightmost ident.
    cut = len(part)
    depth = 0
    for i, tok in enumerate(part):
        if tok.text in ("(", "[", "{", "<"):
            depth += 1
        elif tok.text in (")", "]", "}", ">"):
            depth -= 1
        elif tok.text == "=" and depth == 0:
            cut = i
            break
    for tok in reversed(part[:cut]):
        if tok.kind == "ident" and tok.text not in ("const", "auto"):
            return [tok.text]
    return []


class MicroFrontend:
    def __init__(self, src: SourceFile) -> None:
        self.path = src.path
        self.tokens = src.tokens
        self.lambdas: list[LambdaInfo] = []
        self.lambda_vars: dict[str, LambdaInfo] = {}
        self.functions: list[FuncSpan] = []
        self._intro_ranges: list[tuple[int, int]] = []

    # -- structure discovery ---------------------------------------------

    def _scan_lambdas(self) -> None:
        toks = self.tokens
        i = 0
        while i < len(toks):
            if toks[i].text != "[":
                i += 1
                continue
            if i + 1 < len(toks) and toks[i + 1].text == "[":
                i += 2  # [[attribute]]
                continue
            prev = toks[i - 1] if i > 0 else None
            if prev is not None and (
                    prev.kind in ("ident", "number", "string")
                    and prev.text not in ("return", "case", "co_return",
                                          "co_yield", "else", "do")
                    or prev.text in (")", "]")):
                i += 1  # subscript `a[i]` / `f(x)[k]`
                continue
            intro_end = match_forward(toks, i)
            if intro_end >= len(toks) - 1:
                break
            nxt = toks[intro_end + 1].text
            if nxt not in ("(", "{", "mutable", "->", "<"):
                i = intro_end + 1
                continue
            params: list[str] = []
            j = intro_end + 1
            if toks[j].text == "<":  # template lambda
                j = match_forward(toks, j) + 1
            if j < len(toks) and toks[j].text == "(":
                close = match_forward(toks, j)
                params = _param_names(toks, j, close)
                j = close + 1
            while j < len(toks) and toks[j].text != "{":
                if toks[j].text in (";", ")"):
                    break  # declaration-ish, not a lambda body
                j += 1
            if j >= len(toks) or toks[j].text != "{":
                i = intro_end + 1
                continue
            body_close = match_forward(toks, j)
            lam = LambdaInfo(
                intro_idx=i, intro_end=intro_end, params=params,
                body_open=j, body_close=body_close, line=toks[i].line,
                captures=parse_capture_list(toks[i:intro_end + 1]))
            if i >= 2 and toks[i - 1].text == "=" and \
                    toks[i - 2].kind == "ident":
                lam.var_name = toks[i - 2].text
                self.lambda_vars[lam.var_name] = lam
            self.lambdas.append(lam)
            self._intro_ranges.append((i, intro_end))
            i = intro_end + 1

    def _scan_functions(self) -> None:
        toks = self.tokens
        scope_stack: list[tuple[str, str, int]] = []  # kind, name, open
        name_stack: list[str] = []
        closes: dict[int, int] = {}
        opens: list[int] = []
        for i, tok in enumerate(toks):
            if tok.text == "{":
                opens.append(i)
            elif tok.text == "}" and opens:
                closes[opens.pop()] = i
        for i, tok in enumerate(toks):
            if tok.text == "}":
                while scope_stack and closes.get(scope_stack[-1][2], -1) == i:
                    kind, _name, _open = scope_stack.pop()
                    if kind in ("namespace", "class"):
                        if name_stack:
                            name_stack.pop()
                continue
            if tok.text != "{":
                continue
            kind, name, params = self._classify_open(i)
            scope_stack.append((kind, name, i))
            if kind in ("namespace", "class"):
                name_stack.append(name)
            elif kind == "function":
                qualified = "::".join([*name_stack, name]) if name_stack \
                    else name
                self.functions.append(
                    FuncSpan(qualified, params, i, closes.get(i, len(toks))))

    def _classify_open(
            self, idx: int) -> tuple[str, str, list[str]]:
        toks = self.tokens
        j = idx - 1
        if j < 0:
            return "block", "", []
        # namespace NAME { / namespace {
        if toks[j].text == "namespace":
            return "namespace", "<anon>", []
        if j >= 1 and toks[j].kind == "ident" and \
                toks[j - 1].text == "namespace":
            return "namespace", toks[j].text, []
        # Find a `)` closing a parameter list, allowing qualifiers and a
        # trailing return type between it and the `{`.
        close_paren = -1
        k = j
        floor = max(0, idx - 40)
        while k >= floor:
            text = toks[k].text
            if text == ")":
                close_paren = k
                break
            if text in _QUALS or text == "->" or text in ("::", "<", ">",
                                                          "&", "*", ",") \
                    or toks[k].kind in ("ident", "number"):
                k -= 1
                continue
            break
        if close_paren < 0:
            # class/struct NAME ... {
            k = j
            while k >= floor and toks[k].text not in (";", "{", "}", ")"):
                if toks[k].text in ("class", "struct", "union", "enum"):
                    name = toks[k + 1].text if k + 1 <= j and \
                        toks[k + 1].kind == "ident" else "<anon>"
                    return "class", name, []
                k -= 1
            return "block", "", []
        open_paren = self._match_back(close_paren)
        h = open_paren - 1
        if h < 0:
            return "block", "", []
        if toks[h].text == "]":
            return "lambda", "", []
        if toks[h].kind != "ident":
            if toks[h].kind == "punct" and h >= 1 and \
                    toks[h - 1].text == "operator":
                return "function", f"operator{toks[h].text}", \
                    _param_names(toks, open_paren, close_paren)
            return "block", "", []
        if toks[h].text in _CONTROL:
            return "block", "", []
        name = toks[h].text
        while h >= 2 and toks[h - 1].text == "::" and \
                toks[h - 2].kind == "ident":
            h -= 2
            name = f"{toks[h].text}::{name}"
        return "function", name, _param_names(toks, open_paren, close_paren)

    def _match_back(self, close_idx: int) -> int:
        depth = 0
        for i in range(close_idx, -1, -1):
            text = self.tokens[i].text
            if text == ")":
                depth += 1
            elif text == "(":
                depth -= 1
                if depth == 0:
                    return i
        return 0

    def _enclosing_function(self, idx: int) -> FuncSpan | None:
        best: FuncSpan | None = None
        for span in self.functions:
            if span.open < idx < span.close:
                if best is None or span.open > best.open:
                    best = span
        return best

    def _enclosing_lambda(self, idx: int) -> LambdaInfo | None:
        best: LambdaInfo | None = None
        for lam in self.lambdas:
            if lam.body_open < idx < lam.body_close:
                if best is None or lam.body_open > best.body_open:
                    best = lam
        return best

    # -- parallel regions --------------------------------------------------

    def _call_args(self, open_paren: int) -> list[tuple[int, int]]:
        """Top-level comma-separated arg token ranges [begin, end)."""
        toks = self.tokens
        close = match_forward(toks, open_paren)
        args: list[tuple[int, int]] = []
        begin = open_paren + 1
        depth = 0
        for i in range(open_paren + 1, close):
            text = toks[i].text
            if text in ("(", "[", "{"):
                depth += 1
            elif text in (")", "]", "}"):
                depth -= 1
            elif text == "," and depth == 0:
                args.append((begin, i))
                begin = i + 1
        if close > begin:
            args.append((begin, close))
        return args

    def _regions(self) -> list[_Region]:
        toks = self.tokens
        regions: list[_Region] = []
        wrappers: set[str] = set()
        lambda_at = {lam.intro_idx: lam for lam in self.lambdas}

        def scan(entries: frozenset[str] | set[str],
                 collect_wrappers: bool) -> None:
            for i, tok in enumerate(toks):
                if tok.kind != "ident" or tok.text not in entries:
                    continue
                if i + 1 >= len(toks) or toks[i + 1].text != "(":
                    continue
                if i >= 1 and toks[i - 1].text in ("::",) and \
                        tok.text not in ENTRY_NAMES:
                    continue
                for begin, end in self._call_args(i + 1):
                    lam: LambdaInfo | None = None
                    if begin < len(toks) and toks[begin].text == "[" and \
                            begin in lambda_at:
                        lam = lambda_at[begin]
                    elif end - begin == 1 and toks[begin].kind == "ident":
                        name = toks[begin].text
                        lam = self.lambda_vars.get(name)
                        if lam is None and collect_wrappers:
                            # Forwarded parameter: the enclosing callable
                            # is a one-hop wrapper around the pool.
                            encl = self._enclosing_lambda(i)
                            if encl is not None and name in encl.params \
                                    and encl.var_name:
                                wrappers.add(encl.var_name)
                            else:
                                span = self._enclosing_function(i)
                                if span is not None and \
                                        name in span.params:
                                    wrappers.add(
                                        span.name.rsplit("::", 1)[-1])
                    if lam is not None:
                        regions.append(_Region(lam, tok.text, tok.line))

        scan(ENTRY_NAMES, collect_wrappers=True)
        # Direct self-recursion guard: a wrapper named like an entry point
        # is already covered by the first pass.
        wrappers -= set(ENTRY_NAMES)
        if wrappers:
            scan(wrappers, collect_wrappers=False)
        # One region per lambda: a lambda both named and forwarded would
        # otherwise be analyzed twice.
        unique: dict[int, _Region] = {}
        for region in regions:
            unique.setdefault(region.lam.intro_idx, region)
        return list(unique.values())

    # -- declarations and writes -------------------------------------------

    def _collect_decls(
            self, begin: int, end: int,
            derived: set[str] | None = None,
    ) -> tuple[set[str], dict[str, str], dict[str, str]]:
        """Scan [begin, end) for declarations.

        Returns (local names, name -> type text, reference aliases
        name -> aliased base). When `derived` is given, declarations
        whose initializer mentions a derived name are added to it.
        """
        toks = self.tokens
        locals_: set[str] = set()
        types: dict[str, str] = {}
        aliases: dict[str, str] = {}
        i = begin
        while i < end:
            tok = toks[i]
            if tok.kind != "ident" or i == 0:
                i += 1
                continue
            nxt = toks[i + 1].text if i + 1 < len(toks) else ""
            prev = toks[i - 1]
            # `:` admits range-for bindings (`for (auto& rj : xs)`);
            # `case`/labels/access specifiers are rejected by the prev
            # checks below, and bitfields are harmless as locals.
            is_decl = (
                nxt in ("=", ";", "{", "(", ",", ":")
                and (prev.kind == "ident" and prev.text not in
                     ("return", "co_return", "case", "else", "do",
                      "throw", "new", "delete", "operator")
                     or prev.text in _TYPEISH)
                and (prev.kind != "ident" or i < 2
                     or toks[i - 2].text not in (".", "->"))
            )
            if not is_decl:
                i += 1
                continue
            # Reconstruct the type text to the left of the name.
            t = i - 1
            floor = max(begin, i - 16)
            while t >= floor and (
                    toks[t].kind == "ident"
                    or toks[t].text in ("::", "<", ">", "&", "*",
                                        "const", ",")):
                if toks[t].text in (";", "{", "}"):
                    break
                t -= 1
            type_text = " ".join(x.text for x in toks[t + 1:i])
            name = tok.text
            locals_.add(name)
            types[name] = type_text
            # Initializer scan.
            init_begin = i + 1
            init_end = init_begin
            if nxt in ("=", ":"):
                init_end = init_begin + 1
                depth = 0
                while init_end < end:
                    text = toks[init_end].text
                    if text in ("(", "[", "{"):
                        depth += 1
                    elif text in (")", "]", "}"):
                        if depth == 0:
                            break
                        depth -= 1
                    elif text in (";", ",") and depth == 0:
                        break
                    init_end += 1
            elif nxt in ("(", "{"):
                init_end = match_forward(toks, i + 1) + 1
            init_idents = [
                x.text for x in toks[init_begin:init_end]
                if x.kind == "ident"]
            if derived is not None and any(
                    x in derived for x in init_idents):
                derived.add(name)
            elif type_text.rstrip().endswith("&") and init_idents:
                aliases[name] = init_idents[0]
            i = max(i + 1, init_end)
        return locals_, types, aliases

    def _lvalue_chain(
            self, op_idx: int) -> tuple[str, set[str], int] | None:
        """Parse the postfix chain ending just before `op_idx`.

        Returns (base identifier, identifiers appearing in subscripts or
        call arguments along the chain, line) — or None when the shape
        is not a recognizable lvalue chain.
        """
        toks = self.tokens
        j = op_idx - 1
        subscripts: set[str] = set()
        while j >= 0:
            text = toks[j].text
            if text in ("]", ")"):
                open_idx = self._match_back(j) if text == ")" else \
                    self._match_back_square(j)
                for t in toks[open_idx + 1:j]:
                    if t.kind == "ident":
                        subscripts.add(t.text)
                j = open_idx - 1
                continue
            if toks[j].kind == "ident":
                if j >= 1 and toks[j - 1].text in (".", "->"):
                    j -= 2
                    continue
                if j >= 1 and toks[j - 1].text == "::":
                    j -= 2
                    continue
                return toks[j].text, subscripts, toks[j].line
            return None
        return None

    def _match_back_square(self, close_idx: int) -> int:
        depth = 0
        for i in range(close_idx, -1, -1):
            text = self.tokens[i].text
            if text == "]":
                depth += 1
            elif text == "[":
                depth -= 1
                if depth == 0:
                    return i
        return 0

    def _analyze_region(self, region: _Region,
                        facts: TUFacts) -> None:
        toks = self.tokens
        lam = region.lam
        derived = set(lam.params)
        # Nested lambdas run on the same worker: their parameters also
        # index iteration-owned state.
        nested_intros: list[tuple[int, int]] = []
        for other in self.lambdas:
            if lam.body_open < other.intro_idx < lam.body_close:
                derived.update(other.params)
                nested_intros.append((other.intro_idx, other.intro_end))
        locals_, types, aliases = self._collect_decls(
            lam.body_open + 1, lam.body_close, derived)
        outer_types: dict[str, str] = {}
        span = self._enclosing_function(lam.intro_idx)
        if span is not None:
            _, outer_types, _ = self._collect_decls(
                span.open + 1, lam.intro_idx)

        def in_nested_intro(idx: int) -> bool:
            return any(b <= idx <= e for b, e in nested_intros)

        for i in range(lam.body_open + 1, lam.body_close):
            tok = toks[i]
            op = ""
            chain: tuple[str, set[str], int] | None = None
            if tok.text == "=" or tok.text in COMPOUND_ASSIGN:
                if in_nested_intro(i):
                    continue  # init capture `[acc = 0.0]`
                chain = self._lvalue_chain(i)
                op = tok.text
                if chain is not None and tok.text == "=":
                    # `type name = ...` is a declaration, not a write.
                    base_idx = i - 1
                    # Cheap re-test: the token before a one-token chain
                    # that looks like a type marks a declaration; longer
                    # chains (a.b, a[i]) are never declarators.
                    if toks[base_idx].kind == "ident" and base_idx >= 1:
                        before = toks[base_idx - 1]
                        if before.kind == "ident" or \
                                before.text in _TYPEISH:
                            continue
            elif tok.text in ("++", "--"):
                chain = self._lvalue_chain(i)
                if chain is None and i + 1 < len(toks) and \
                        toks[i + 1].kind == "ident":
                    nxt = toks[i + 1]
                    chain = (nxt.text, set(), nxt.line)
                op = tok.text
            elif tok.kind == "ident" and tok.text in MUTATORS and \
                    i >= 1 and toks[i - 1].text in (".", "->") and \
                    i + 1 < len(toks) and toks[i + 1].text == "(":
                chain = self._lvalue_chain(i - 1)
                op = tok.text
            if chain is None:
                continue
            base, subscripts, line = chain
            if base in derived:
                continue
            if base in aliases:
                base = aliases[base]
                if base in derived:
                    continue
            elif base in locals_:
                continue
            if subscripts & derived:
                continue
            if not lam.captures.is_shared(base, looks_member(base)):
                continue
            type_text = types.get(base, outer_types.get(base, ""))
            is_fp = "double" in type_text or "float" in type_text
            if "atomic" in type_text and not is_fp:
                continue  # commutative integer accumulation
            fp_accum = op in ("+=", "-=") and is_fp
            facts.writes.append(ParallelWrite(
                file=self.path, line=line, var=base, op=op,
                fp_accum=fp_accum, region_entry=region.entry,
                region_line=region.entry_line))

    # -- cross-TU facts ----------------------------------------------------

    def _scan_seeds(self, facts: TUFacts) -> None:
        toks = self.tokens
        for i, tok in enumerate(toks):
            if tok.kind != "ident" or tok.text != "derive_seed":
                continue
            if i + 1 >= len(toks) or toks[i + 1].text != "(":
                continue
            args = self._call_args(i + 1)
            if len(args) < 2:
                continue
            base_text = " ".join(
                t.text for t in toks[args[0][0]:args[0][1]])
            tag_name = ""
            for t in toks[args[1][0]:args[1][1]]:
                if t.kind == "ident" and t.text.startswith("k"):
                    tag_name = t.text
            if not tag_name:
                continue  # literal tags are CORP-SEED-001's domain
            substream = ""
            if len(args) > 2:
                substream = ", ".join(
                    " ".join(t.text for t in toks[b:e])
                    for b, e in args[2:])
            span = self._enclosing_function(i)
            facts.seeds.append(SeedSite(
                file=self.path, line=tok.line,
                function=span.name if span else "",
                base_text=base_text, tag_name=tag_name,
                substream_text=substream))

    _FREE_METRIC_KINDS = {
        "count": "counter", "set_gauge": "gauge", "observe": "histogram"}
    _MEMBER_METRIC_KINDS = {
        "counter": "counter", "gauge": "gauge", "histogram": "histogram"}

    def _scan_metrics(self, facts: TUFacts) -> None:
        toks = self.tokens

        def literal_arg(open_paren: int) -> str | None:
            args = self._call_args(open_paren)
            if not args:
                return None
            b, e = args[0]
            if e - b == 1 and toks[b].kind == "string" and \
                    toks[b].text.startswith('"'):
                return toks[b].text[1:-1]
            return None

        for i, tok in enumerate(toks):
            if tok.kind != "ident":
                continue
            kind = ""
            open_paren = -1
            if tok.text in self._FREE_METRIC_KINDS:
                if i >= 2 and toks[i - 1].text == "::" and \
                        toks[i - 2].text == "obs" and \
                        i + 1 < len(toks) and toks[i + 1].text == "(":
                    kind = self._FREE_METRIC_KINDS[tok.text]
                    open_paren = i + 1
            elif tok.text in self._MEMBER_METRIC_KINDS:
                if i >= 1 and toks[i - 1].text in (".", "->") and \
                        i + 1 < len(toks) and toks[i + 1].text == "(":
                    kind = self._MEMBER_METRIC_KINDS[tok.text]
                    open_paren = i + 1
            elif tok.text == "ScopedTimer":
                if i + 1 < len(toks) and toks[i + 1].text == "(":
                    kind, open_paren = "phase", i + 1
                elif i + 2 < len(toks) and toks[i + 1].kind == "ident" \
                        and toks[i + 2].text == "(":
                    kind, open_paren = "phase", i + 2
            if not kind or open_paren < 0:
                continue
            name = literal_arg(open_paren)
            if name is None:
                continue
            facts.metrics.append(MetricSite(
                file=self.path, line=tok.line, kind=kind, name=name))

    # -- driver ------------------------------------------------------------

    def lower(self) -> TUFacts:
        facts = TUFacts()
        self._scan_lambdas()
        self._scan_functions()
        for region in self._regions():
            self._analyze_region(region, facts)
        self._scan_seeds(facts)
        self._scan_metrics(facts)
        return facts


def lower(src: SourceFile) -> TUFacts:
    return MicroFrontend(src).lower()
