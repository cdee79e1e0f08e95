"""C++ token stream shared by the token rules and the micro frontend.

Comments are not tokens: their text is kept per end line, which is all
the suppression index reads, so a `lint: <tag>` inside a string literal
never silences a finding. Compound assignment operators are single
tokens (write detection needs them). The lambda capture-list parser
lives here too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

_TOKEN_RE = re.compile(
    r"""
      (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<string>L?R?"(?:\\.|[^"\\\n])*"|L?'(?:\\.|[^'\\\n])*')
    | (?P<number>(?:0[xX][0-9a-fA-F']+|\d[\d']*(?:\.\d*)?(?:[eE][-+]?\d+)?)
                 [uUlLfF]*)
    | (?P<ident>[A-Za-z_]\w*)
    | (?P<punct><<=|>>=|\+=|-=|\*=|/=|%=|&=|\|=|\^=
                |::|->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\|
                |[-+*/%&|^~!<>=?:;,.(){}\[\]])
    """,
    re.VERBOSE | re.DOTALL,
)

#: Compound assignment operators (always a write to their left operand).
COMPOUND_ASSIGN = frozenset(
    {"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="})


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "number" | "punct" | "string"
    text: str
    line: int


@dataclass
class SourceFile:
    path: str
    tokens: list[Token] = field(default_factory=list)
    #: line -> concatenated text of the comments ending on that line
    comments: dict[int, str] = field(default_factory=dict)


def tokenize(path: str, text: str) -> SourceFile:
    src = SourceFile(path)
    line = 1
    pos = 0
    for match in _TOKEN_RE.finditer(text):
        line += text.count("\n", pos, match.start())
        pos = match.start()
        kind = match.lastgroup
        value = match.group()
        if kind == "comment":
            end_line = line + value.count("\n")
            src.comments[end_line] = src.comments.get(end_line, "") + value
        elif kind is not None:
            src.tokens.append(Token(kind, value, line))
    return src


_CLOSER = {"(": ")", "[": "]", "{": "}"}


def match_forward(tokens: list[Token], open_idx: int) -> int:
    """Index of the token closing the bracket at `open_idx` (or len)."""
    closer = _CLOSER[tokens[open_idx].text]
    opener = tokens[open_idx].text
    depth = 0
    for i in range(open_idx, len(tokens)):
        text = tokens[i].text
        if text == opener:
            depth += 1
        elif text == closer:
            depth -= 1
            if depth == 0:
                return i
    return len(tokens)


@dataclass(frozen=True)
class Capture:
    name: str  # "" for capture defaults, "this" for this captures
    by_ref: bool


@dataclass
class CaptureList:
    default: str  # "&", "=", or ""
    captures: list[Capture]

    def is_shared(self, name: str, member_like: bool) -> bool:
        """True when writing `name` inside the lambda mutates state the
        enclosing scope (and sibling iterations) can observe.

        Explicit by-value captures are private copies. A `=` default
        copies locals but still shares members reached through the
        copied this pointer, so member-like names stay shared.
        """
        for cap in self.captures:
            if cap.name == name:
                return cap.by_ref
        if member_like and any(c.name == "this" for c in self.captures):
            return True
        if self.default == "&":
            return True
        if self.default == "=":
            return member_like  # [=] copies this — members are shared
        # No default, not captured: only globals/statics are reachable,
        # and writing those from a parallel region is exactly the hazard.
        return True


def parse_capture_list(tokens: list[Token]) -> CaptureList:
    """Parses the `[...]` lambda introducer at the start of `tokens`.

    Tolerant: unknown shapes degrade to the hazard-prone reading (shared
    by reference) rather than failing.
    """
    parsed = CaptureList(default="", captures=[])
    if not tokens or tokens[0].text != "[":
        return CaptureList(default="&", captures=[])
    end = match_forward(tokens, 0)
    entries: list[list[Token]] = [[]]
    depth = 0
    for tok in tokens[1:end]:
        if tok.text in ("(", "[", "{", "<"):
            depth += 1
        elif tok.text in (")", "]", "}", ">"):
            depth -= 1
        if tok.text == "," and depth == 0:
            entries.append([])
        else:
            entries[-1].append(tok)
    for entry in entries:
        if not entry:
            continue
        if len(entry) == 1 and entry[0].text in ("&", "="):
            parsed.default = entry[0].text
            continue
        if entry[0].text == "this":
            parsed.captures.append(Capture("this", True))
            continue
        if entry[0].text == "*" and len(entry) > 1 and \
                entry[1].text == "this":
            parsed.captures.append(Capture("this", False))
            continue
        by_ref = entry[0].text == "&"
        name_tok = entry[1] if by_ref and len(entry) > 1 else entry[0]
        if name_tok.kind == "ident":
            # Init captures (`x = expr`) bind the name either way.
            parsed.captures.append(Capture(name_tok.text, by_ref))
    return parsed


def looks_member(name: str) -> bool:
    """Repo convention: members are `name_`; used when no decl is
    visible to decide whether a `=`-default capture still shares."""
    return name.endswith("_")
