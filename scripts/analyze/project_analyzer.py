#!/usr/bin/env python3
"""AST-based project-invariant analyzer (DESIGN.md §14).

Replaces the retired regex lint (scripts/project_lint.py) with checks that
run over a real token stream and a per-function statement tree with
dominating-branch analysis, so a guard in an enclosing `if` is recognised
and a guard in an unrelated function is not.

Frontend: a self-contained C++ lexer + micro-parser (functions, nested
blocks, if/else dominance). The container image bakes in the C++ toolchain
but not the libclang Python bindings, so the frontend is bundled rather
than imported; it needs no compiler and no include paths, which also keeps
the fixture self-tests hermetic. The file list comes from
compile_commands.json when `-p <build-dir>` is given (CMake exports it),
plus the headers the build can't name.

Checks (`--list-checks` prints this table):

  hotpath-alloc    A function annotated `// hotpath` on the line above its
                   signature must not allocate anywhere in its body: any
                   spelling of operator new, make_unique/make_shared,
                   malloc/calloc/realloc, std::to_string, std::string
                   construction (including temporaries), or declaring a
                   local owning container (growth of a local vector is a
                   per-event allocation by construction; *member* container
                   growth is the sanctioned pooled/amortized path that
                   bench_hotpath gates at runtime).
                   `// lint: allow-alloc(<why>)` exempts one line.
  instr-guard      Every dereference of an instrumentation pointer (instr,
                   instr_, instrumentation_) must be dominated by a null
                   test: same-statement `x != nullptr` (ternary/&&), an
                   enclosing `if (x != nullptr)` branch, or an earlier
                   `if (x == nullptr) return;` early-out in a dominating
                   block. Disjunctive guards are not trusted
                   (`if (x != nullptr || y)` proves nothing in the branch).
  sv-string-copy   Event-scope functions (StartElement/EndElement/Text/
                   EndDocument/On* /Dispatch) must not construct a
                   std::string — attributes and tag text are string_views
                   into the parse buffer and copying them per event is the
                   allocation the hot path was rebuilt to avoid. DOM
                   builders (files matching *dom*) are exempt: the DOM is
                   the sanctioned materialization point.
                   `// lint: allow-string-copy(<why>)` exempts one line.
  symbol-compare   Tag comparisons in machine transition functions
                   (StartElement/EndElement/TryStartNode/CloseNode/... in
                   src/core and src/filter) must use interned SymbolId
                   equality: every string equality on tag.text/.label
                   there is a finding. Machines dispatch on symbols only;
                   there is no byte-comparing fallback path to exempt.
  atomic-order     Every std::atomic load/store/RMW/compare-exchange must
                   pass an explicit std::memory_order, and declared atomic
                   variables must not be touched through implicitly-seq_cst
                   operators (=, ++, --, +=, ...). Defaulted orders hide
                   the strongest barrier in the program behind the
                   quietest syntax.
  pairs-with       Every acquire/release/acq_rel atomic op must carry a
                   `// pairs-with: <file>:<qualified-symbol>` comment
                   naming its counterpart, and the named site must exist
                   and have the opposite role (release names an acquire
                   load, acquire names a release store; acq_rel satisfies
                   both). This is the machine-checked half of the
                   happens-before argument in DESIGN.md §14.
  mutex-wrapper    src/serve must not declare raw std::mutex /
                   std::condition_variable: use the capability-annotated
                   twigm::common::Mutex / CondVar wrappers
                   (src/common/thread_annotations.h) so clang's
                   -Wthread-safety leg can see every critical section.

Findings print as `file:line: [check-name] message`; exit status is 1 when
there are findings, 2 on usage errors.
"""

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

# ---------------------------------------------------------------------------
# Lexer

PUNCT = [
    "<<=", ">>=", "->*", "...", "::", "->", "==", "!=", "<=", ">=", "&&",
    "||", "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<",
    ">>", "##",
]

IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
IDENT_CONT = IDENT_START | set("0123456789")


@dataclass
class Token:
    kind: str  # 'id' | 'num' | 'str' | 'chr' | 'punct'
    text: str
    line: int


class Lexed:
    """Token stream plus the comment/annotation side tables."""

    def __init__(self):
        self.tokens = []
        # line -> concatenated comment text starting on that line.
        self.comments = {}
        # Lines that contain at least one token (code lines).
        self.code_lines = set()


def lex(text):
    out = Lexed()
    i, n, line = 0, len(text), 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.comments.setdefault(line, []).append(text[i + 2:j].strip())
            i = j
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            body = text[i + 2:j]
            out.comments.setdefault(line, []).append(body.strip())
            line += body.count("\n")
            i = j + 2
            continue
        if c == "#":
            # Preprocessor directive: skip to end of (continued) line.
            while i < n:
                j = text.find("\n", i)
                if j == -1:
                    i = n
                    break
                if text[j - 1] == "\\":
                    line += 1
                    i = j + 1
                    continue
                i = j  # leave the newline for the main loop
                break
            continue
        if c == 'R' and text[i:i + 2] == 'R"':
            m = re.match(r'R"([^\s()\\]*)\(', text[i:])
            if m:
                delim = m.group(1)
                endmark = ")" + delim + '"'
                j = text.find(endmark, i + m.end())
                j = n - len(endmark) if j == -1 else j
                out.tokens.append(Token("str", "<raw>", line))
                out.code_lines.add(line)
                line += text[i:j].count("\n")
                i = j + len(endmark)
                continue
        if c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            out.tokens.append(
                Token("str" if quote == '"' else "chr", "<lit>", line))
            out.code_lines.add(line)
            i = j + 1
            continue
        if c in IDENT_START:
            j = i + 1
            while j < n and text[j] in IDENT_CONT:
                j += 1
            out.tokens.append(Token("id", text[i:j], line))
            out.code_lines.add(line)
            i = j
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j] in IDENT_CONT or text[j] in ".'+-"
                             and text[j - 1] in "eEpP"):
                j += 1
            out.tokens.append(Token("num", text[i:j], line))
            out.code_lines.add(line)
            i = j
            continue
        for p in PUNCT:
            if text.startswith(p, i):
                out.tokens.append(Token("punct", p, line))
                out.code_lines.add(line)
                i += len(p)
                break
        else:
            out.tokens.append(Token("punct", c, line))
            out.code_lines.add(line)
            i += 1
    return out


# ---------------------------------------------------------------------------
# Function extraction

CONTROL_KEYWORDS = {"if", "for", "while", "switch", "do", "else", "return",
                    "case", "default", "try", "catch"}
FUNC_TAIL_OK = {")", "const", "noexcept", "override", "final", "mutable",
                "default"}


@dataclass
class Function:
    name: str          # unqualified, e.g. "CommitPush"
    qualname: str      # e.g. "SpscRing::CommitPush"
    header_line: int   # line of the first header token
    body_start: int    # token index just after '{'
    body_end: int      # token index of matching '}'
    is_hotpath: bool = False


def match_brace(tokens, open_idx):
    """Index of the '}' matching tokens[open_idx] == '{'."""
    depth = 0
    for i in range(open_idx, len(tokens)):
        t = tokens[i].text
        if t == "{":
            depth += 1
        elif t == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(tokens) - 1


def header_name(recent):
    """Function name from the header tokens (everything before '{')."""
    # Find the parameter-list '(' : the first '(' not directly preceded by
    # an identifier that is itself preceded by 'class'/'struct' etc. In
    # practice: the first top-level '(' whose preceding token is an
    # identifier, 'operator'-form, or '~'.
    depth = 0
    first_paren = None
    for i, t in enumerate(recent):
        if t.text == "<":
            depth += 1
        elif t.text == ">":
            depth = max(0, depth - 1)
        elif t.text == "(" and depth == 0:
            first_paren = i
            break
    if first_paren is None or first_paren == 0:
        return "", ""
    # Walk back over the id / '::' / '~' / 'operator xx' chain.
    parts = []
    i = first_paren - 1
    while i >= 0:
        t = recent[i]
        if t.kind == "id" or t.text in ("::", "~"):
            parts.append(t.text)
            i -= 1
        else:
            break
    parts.reverse()
    if not parts:
        return "", ""
    if "operator" in parts:
        k = parts.index("operator")
        qual = "".join(parts[:k]) + "operator " + " ".join(parts[k + 1:])
    else:
        qual = "".join(parts)
    # Drop a leading return type that got glued on (e.g. "voidFoo::Bar"
    # cannot happen: the walk stops at non-id/:: tokens, but a plain
    # "uint64_tCurrentEpoch" can when the return type directly precedes the
    # name). Heuristic: the chain must alternate id/:: — if two ids are
    # adjacent the first is the return type.
    toks = [p for p in parts]
    cleaned = []
    prev_id = False
    for p in toks:
        if p == "::" or p == "~":
            cleaned.append(p)
            prev_id = False
        else:
            if prev_id:
                cleaned = []  # everything so far was the return type
            cleaned.append(p)
            prev_id = True
    qual = "".join(cleaned)
    unqual = cleaned[-1] if cleaned else ""
    return qual, unqual


def extract_functions(lx):
    """Functions plus (class-scope) context, via a single token walk."""
    tokens = lx.tokens
    funcs = []
    scope = []  # list of (kind, name, close_idx)
    recent = []  # header tokens since last top-level ';' '{' '}'
    paren = 0
    i = 0
    while i < len(tokens):
        t = tokens[i]
        while scope and i >= scope[-1][2]:
            scope.pop()
        if t.text == "(":
            paren += 1
        elif t.text == ")":
            paren = max(0, paren - 1)
        if paren > 0:
            recent.append(t)
            i += 1
            continue
        if t.text == ";" or t.text == "}":
            recent = []
            i += 1
            continue
        if t.text != "{":
            recent.append(t)
            i += 1
            continue

        # Classify the '{'.
        sig = [x for x in recent]
        # Strip a leading template<...> prefix.
        if sig and sig[0].text == "template":
            d, k = 0, 1
            while k < len(sig):
                if sig[k].text == "<":
                    d += 1
                elif sig[k].text == ">":
                    d -= 1
                    if d == 0:
                        k += 1
                        break
                k += 1
            sig = sig[k:]
        texts = [x.text for x in sig]
        close = match_brace(tokens, i)
        if "namespace" in texts:
            scope.append(("namespace", "", close))
            recent = []
            i += 1
            continue
        if texts and texts[0] in ("class", "struct", "union") \
                and "=" not in texts:
            # Name: first identifier after the keyword that is not a
            # macro call (identifier directly followed by '(').
            name = ""
            k = 1
            while k < len(sig):
                if sig[k].kind == "id":
                    if k + 1 < len(sig) and sig[k + 1].text == "(":
                        d = 0
                        while k + 1 < len(sig):
                            k += 1
                            if sig[k].text == "(":
                                d += 1
                            elif sig[k].text == ")":
                                d -= 1
                                if d == 0:
                                    break
                        k += 1
                        continue
                    name = sig[k].text
                    break
                if sig[k].text in (":", "{"):
                    break
                k += 1
            scope.append(("class", name, close))
            recent = []
            i += 1
            continue
        if "enum" in texts or "=" in texts or not texts \
                or texts[0] in CONTROL_KEYWORDS \
                or texts[-1] not in FUNC_TAIL_OK and "(" not in texts:
            # Braced initializer / enum / stray block: skip wholesale.
            i = close + 1
            recent = []
            continue
        if texts[-1] in FUNC_TAIL_OK or texts[-1] == ">":
            qual, unqual = header_name(sig)
            if unqual:
                classes = "::".join(n for k, n in
                                    [(s[0], s[1]) for s in scope]
                                    if k == "class" and n)
                full = qual if "::" in qual else (
                    classes + "::" + qual if classes else qual)
                hdr_line = sig[0].line if sig else t.line
                hot = any("hotpath" in c
                          for ln in (hdr_line - 1, hdr_line)
                          for c in lx.comments.get(ln, [])
                          if re.match(r"^\s*hotpath\b", c))
                funcs.append(Function(unqual, full, hdr_line, i + 1, close,
                                      hot))
                i = close + 1
                recent = []
                continue
        # Unrecognised block: descend into it (do not skip — it may hold
        # function definitions, e.g. an extern block).
        recent = []
        i += 1
    return funcs


# ---------------------------------------------------------------------------
# Statement tree + dominance

@dataclass
class Stmt:
    kind: str          # 'simple' | 'if' | 'loop' | 'block'
    line: int
    tokens: list = field(default_factory=list)       # simple: own tokens
    cond: list = field(default_factory=list)         # if/loop condition
    children: list = field(default_factory=list)     # then / body
    orelse: list = field(default_factory=list)       # else


def parse_stmts(tokens, i, end):
    stmts = []
    while i < end:
        t = tokens[i]
        if t.text == ";":
            i += 1
            continue
        if t.text == "{":
            close = match_brace(tokens, i)
            body, _ = parse_stmts(tokens, i + 1, close)
            stmts.append(Stmt("block", t.line, children=body))
            i = close + 1
            continue
        if t.kind == "id" and t.text in ("if", "while", "for", "switch"):
            kind = "if" if t.text == "if" else "loop"
            j = i + 1
            if j < end and tokens[j].text == "constexpr":
                j += 1
            cond = []
            if j < end and tokens[j].text == "(":
                d = 0
                while j < end:
                    if tokens[j].text == "(":
                        d += 1
                    elif tokens[j].text == ")":
                        d -= 1
                        if d == 0:
                            break
                    cond.append(tokens[j])
                    j += 1
                cond = cond[1:]  # drop the '('
                j += 1
            body, j = parse_one(tokens, j, end)
            orelse = []
            if kind == "if" and j < end and tokens[j].text == "else":
                orelse, j = parse_one(tokens, j + 1, end)
            stmts.append(Stmt(kind, t.line, cond=cond, children=body,
                              orelse=orelse))
            i = j
            continue
        if t.kind == "id" and t.text == "do":
            body, j = parse_one(tokens, i + 1, end)
            # Consume the trailing while (...) ;
            cond = []
            if j < end and tokens[j].text == "while":
                d = 0
                j += 1
                while j < end:
                    if tokens[j].text == "(":
                        d += 1
                    elif tokens[j].text == ")":
                        d -= 1
                        if d == 0:
                            j += 1
                            break
                    cond.append(tokens[j])
                    j += 1
                if j < end and tokens[j].text == ";":
                    j += 1
            stmts.append(Stmt("loop", t.line, cond=cond, children=body))
            i = j
            continue
        if t.kind == "id" and t.text == "else":
            # Dangling else of a brace-less if we mis-nested; treat its
            # statement as a sibling.
            i += 1
            continue
        # Simple statement: up to ';' at paren/brace depth 0 (lambda and
        # braced-init bodies are swallowed into the statement).
        own = []
        pd = bd = 0
        while i < end:
            tt = tokens[i]
            if tt.text == "(":
                pd += 1
            elif tt.text == ")":
                pd = max(0, pd - 1)
            elif tt.text == "{":
                bd += 1
            elif tt.text == "}":
                bd -= 1
                if bd < 0:
                    break
            own.append(tt)
            i += 1
            if tt.text == ";" and pd == 0 and bd == 0:
                break
        stmts.append(Stmt("simple", own[0].line if own else t.line,
                          tokens=own))
    return stmts, i


def parse_one(tokens, i, end):
    """One statement (possibly a block) starting at i."""
    if i >= end:
        return [], i
    stmts, j = parse_stmts_single(tokens, i, end)
    return stmts, j


def parse_stmts_single(tokens, i, end):
    if tokens[i].text == "{":
        close = match_brace(tokens, i)
        body, _ = parse_stmts(tokens, i + 1, close)
        return body, close + 1
    # Parse exactly one statement via parse_stmts on a narrowed range:
    stmts, j = parse_stmts_first(tokens, i, end)
    return stmts, j


def parse_stmts_first(tokens, i, end):
    before = i
    stmts, j = parse_stmts(tokens, i, end)
    if not stmts:
        return [], before + 1
    # parse_stmts consumes to `end`; re-run but stop after one statement.
    # Cheaper: re-parse incrementally.
    one, k = _parse_single(tokens, before, end)
    return one, k


def _parse_single(tokens, i, end):
    stmts, j = [], i
    # Reuse parse_stmts machinery by parsing the whole range and tracking
    # the end of the first statement: simplest is to call parse_stmts with
    # a custom stop, so replicate its dispatch for one iteration.
    sub, k = parse_stmts(tokens, i, end)
    if not sub:
        return [], i + 1
    first = sub[0]
    # Find where the first statement ended by re-walking.
    return [first], _stmt_end(tokens, i, end)


def _stmt_end(tokens, i, end):
    t = tokens[i]
    if t.text == "{":
        return match_brace(tokens, i) + 1
    if t.kind == "id" and t.text in ("if", "while", "for", "switch"):
        j = i + 1
        if j < end and tokens[j].text == "constexpr":
            j += 1
        if j < end and tokens[j].text == "(":
            d = 0
            while j < end:
                if tokens[j].text == "(":
                    d += 1
                elif tokens[j].text == ")":
                    d -= 1
                    if d == 0:
                        j += 1
                        break
                j += 1
        j = _stmt_end(tokens, j, end)
        if t.text == "if" and j < end and tokens[j].text == "else":
            j = _stmt_end(tokens, j + 1, end)
        return j
    if t.kind == "id" and t.text == "do":
        j = _stmt_end(tokens, i + 1, end)
        d = 0
        while j < end:
            if tokens[j].text == "(":
                d += 1
            elif tokens[j].text == ")":
                d -= 1
            if tokens[j].text == ";" and d == 0:
                return j + 1
            j += 1
        return j
    pd = bd = 0
    j = i
    while j < end:
        tt = tokens[j].text
        if tt == "(":
            pd += 1
        elif tt == ")":
            pd = max(0, pd - 1)
        elif tt == "{":
            bd += 1
        elif tt == "}":
            bd -= 1
            if bd < 0:
                return j
        j += 1
        if tt == ";" and pd == 0 and bd == 0:
            return j
    return j


def stmt_text(stmt):
    return " ".join(t.text for t in stmt.tokens)


def cond_text(stmt):
    return " ".join(t.text for t in stmt.cond)


def always_exits(stmts):
    """True when the statement list cannot fall through."""
    for s in stmts:
        if s.kind == "simple" and s.tokens and s.tokens[0].text in (
                "return", "continue", "break", "throw", "goto"):
            return True
        if s.kind == "block" and always_exits(s.children):
            return True
    return False


def walk(stmts, dom, visit):
    """Depth-first walk carrying dominating conditions.

    dom:  list of (condition-text, negated) dominating the current point.
    """
    extra = []
    for s in stmts:
        here = dom + extra
        visit(s, here)
        if s.kind == "if":
            c = cond_text(s)
            walk(s.children, here + [(c, False)], visit)
            walk(s.orelse, here + [(c, True)], visit)
            if not s.orelse and always_exits(s.children):
                extra = extra + [(c, True)]
            elif s.orelse and always_exits(s.orelse) \
                    and not always_exits(s.children):
                extra = extra + [(c, False)]
        elif s.kind == "loop":
            c = cond_text(s)
            walk(s.children, here + ([(c, False)] if c else []), visit)
        elif s.kind == "block":
            walk(s.children, here, visit)


# ---------------------------------------------------------------------------
# Checks

@dataclass
class Finding:
    file: str
    line: int
    check: str
    message: str

    def __str__(self):
        return f"{self.file}:{self.line}: [{self.check}] {self.message}"


ALL_CHECKS = ["hotpath-alloc", "instr-guard", "sv-string-copy",
              "symbol-compare", "atomic-order", "pairs-with",
              "mutex-wrapper"]

EVENT_FNS = {"StartElement", "EndElement", "Text", "EndDocument",
             "OnStartElement", "OnEndElement", "OnText", "Dispatch"}
TRANSITION_FNS = {"StartElement", "EndElement", "Text", "OnStartElement",
                  "OnEndElement", "OnText", "TryStartNode",
                  "TryStartPosition", "PopNode", "PopPosition", "CloseNode",
                  "ConsiderChild"}
INSTR_IDENTS = ("instr", "instr_", "instrumentation_")

ATOMIC_OPS = {"load", "store", "exchange", "fetch_add", "fetch_sub",
              "fetch_and", "fetch_or", "fetch_xor",
              "compare_exchange_weak", "compare_exchange_strong"}
ORDER_NAMES = {"memory_order_relaxed", "memory_order_consume",
               "memory_order_acquire", "memory_order_release",
               "memory_order_acq_rel", "memory_order_seq_cst"}
ACQ_ORDERS = {"memory_order_acquire", "memory_order_consume",
              "memory_order_acq_rel"}
REL_ORDERS = {"memory_order_release", "memory_order_acq_rel"}
RMW_OPS = ATOMIC_OPS - {"load", "store"}

ALLOC_FN_IDS = {"make_unique", "make_shared", "malloc", "calloc", "realloc",
                "strdup", "to_string"}
OWNING_CONTAINERS = {"vector", "deque", "list", "map", "set",
                     "unordered_map", "unordered_set", "basic_string",
                     "multimap", "multiset"}


def line_has_marker(lx, line, marker):
    """Marker on the line itself or in the comment block directly above."""
    if any(marker in c for c in lx.comments.get(line, [])):
        return True
    ln = line - 1
    while ln > 0 and ln in lx.comments and ln not in lx.code_lines:
        if any(marker in c for c in lx.comments.get(ln, [])):
            return True
        ln -= 1
    return False


@dataclass
class AtomicSite:
    line: int
    op: str
    order: str
    qualname: str  # enclosing function


class FileAnalysis:
    """Per-file lexing, parsing, and raw-site collection."""

    def __init__(self, path, display):
        self.path = path
        self.display = display
        self.text = path.read_text(errors="replace")
        self.lx = lex(self.text)
        self.functions = extract_functions(self.lx)
        self.sites = []  # AtomicSite list (any explicit-order op)

    def enclosing(self, line):
        best = ""
        for f in self.functions:
            t = self.lx.tokens
            if f.body_start - 1 < len(t):
                start = f.header_line
                endl = t[f.body_end].line if f.body_end < len(t) else line
                if start <= line <= endl:
                    best = f.qualname
        return best


class Analyzer:
    def __init__(self, files, checks=None, serve_scope=None):
        self.files = files
        self.checks = set(checks or ALL_CHECKS)
        self.serve_scope = serve_scope or r"(^|/)serve"
        self.findings = []

    def run(self):
        analyses = []
        for path, display in self.files:
            try:
                analyses.append(FileAnalysis(path, display))
            except OSError as e:
                print(f"warning: cannot read {display}: {e}",
                      file=sys.stderr)
        for fa in analyses:
            self._collect_atomic_sites(fa)
        for fa in analyses:
            if "atomic-order" in self.checks:
                self._check_atomic_order(fa)
            if "mutex-wrapper" in self.checks:
                self._check_mutex_wrapper(fa)
            self._check_functions(fa)
        if "pairs-with" in self.checks:
            self._check_pairs(analyses)
        self.findings.sort(key=lambda f: (f.file, f.line, f.check))
        return self.findings

    def report(self, file, line, check, message):
        self.findings.append(Finding(file, line, check, message))

    # -- atomics ----------------------------------------------------------

    def _call_args(self, tokens, open_idx):
        """(token, depth) pairs inside the parens at open_idx, plus close.

        depth 1 = a direct argument of this call; deeper = inside a nested
        call (whose own memory_order must not be mistaken for ours).
        """
        d = 0
        args = []
        for i in range(open_idx, len(tokens)):
            t = tokens[i].text
            if t == "(":
                d += 1
                if d == 1:
                    continue
            elif t == ")":
                d -= 1
                if d == 0:
                    return args, i
            args.append((tokens[i], d))
        return args, len(tokens) - 1

    def _collect_atomic_sites(self, fa):
        toks = fa.lx.tokens
        for i, t in enumerate(toks):
            if t.kind != "id" or t.text not in ATOMIC_OPS:
                continue
            if i == 0 or toks[i - 1].text not in (".", "->"):
                continue
            if i + 1 >= len(toks) or toks[i + 1].text != "(":
                continue
            args, _ = self._call_args(toks, i + 1)
            orders = [a.text for a, d in args
                      if d == 1 and a.text in ORDER_NAMES]
            fa.sites.append(AtomicSite(
                t.line, t.text, orders[0] if orders else "",
                fa.enclosing(t.line)))

    def _check_atomic_order(self, fa):
        toks = fa.lx.tokens
        # (a) method-style ops must pass an explicit order.
        for s in fa.sites:
            if not s.order:
                self.report(fa.display, s.line, "atomic-order",
                            f"std::atomic::{s.op} without an explicit "
                            "std::memory_order (defaults to seq_cst)")
        # (b) declared atomics must not be used via implicit operators.
        atomics = {}
        for i, t in enumerate(toks):
            if t.kind == "id" and t.text == "atomic" and i >= 2 \
                    and toks[i - 1].text == "::" \
                    and toks[i - 2].text == "std":
                # std::atomic<...> name  (skip the template args)
                j = i + 1
                if j < len(toks) and toks[j].text == "<":
                    d = 0
                    while j < len(toks):
                        if toks[j].text == "<":
                            d += 1
                        elif toks[j].text == ">":
                            d -= 1
                            if d == 0:
                                j += 1
                                break
                        j += 1
                while j < len(toks) and toks[j].text in ("*", "&"):
                    j = len(toks)  # pointer/ref to atomic: not a decl name
                if j < len(toks) and toks[j].kind == "id":
                    atomics.setdefault(toks[j].text, set()).add(toks[j].line)
        bad_next = {"=", "++", "--", "+=", "-=", "&=", "|=", "^=",
                    "*=", "/=", "%=", "<<=", ">>="}
        for i, t in enumerate(toks):
            if t.kind != "id" or t.text not in atomics:
                continue
            if t.line in atomics[t.text]:
                continue  # the declaration itself
            prev = toks[i - 1] if i > 0 else None
            prevt = prev.text if prev else ""
            nxt = toks[i + 1].text if i + 1 < len(toks) else ""
            if prevt in (".", "->", "::"):
                continue  # member of some other object
            if prev is not None and (prev.kind == "id"
                                     or prevt in (">", "*", "&", ",")):
                continue  # a declaration of a same-named non-atomic
            if nxt in bad_next or prevt in ("++", "--"):
                self.report(fa.display, t.line, "atomic-order",
                            f"implicitly-seq_cst operator on std::atomic "
                            f"'{t.text}'; use an explicit "
                            ".store/.fetch_* with a memory_order")

    def _check_mutex_wrapper(self, fa):
        if not re.search(self.serve_scope, fa.display):
            return
        toks = fa.lx.tokens
        for i, t in enumerate(toks):
            if t.kind == "id" and t.text in ("mutex", "condition_variable") \
                    and i >= 2 and toks[i - 1].text == "::" \
                    and toks[i - 2].text == "std":
                self.report(
                    fa.display, t.line, "mutex-wrapper",
                    f"raw std::{t.text} in src/serve; use the "
                    "capability-annotated twigm::common::"
                    f"{'Mutex' if t.text == 'mutex' else 'CondVar'} "
                    "(common/thread_annotations.h) so -Wthread-safety "
                    "sees the critical sections")

    # -- pairs-with -------------------------------------------------------

    PAIRS_RE = re.compile(r"pairs-with:\s*([^\s:]+):(\S+)")

    def _annotations_for(self, fa, line):
        """pairs-with annotations on `line` or the comment block above."""
        anns = []
        for c in fa.lx.comments.get(line, []):
            anns += self.PAIRS_RE.findall(c)
        ln = line - 1
        while ln > 0 and ln in fa.lx.comments and ln not in fa.lx.code_lines:
            for c in fa.lx.comments.get(ln, []):
                anns += self.PAIRS_RE.findall(c)
            ln -= 1
        return anns

    def _check_pairs(self, analyses):
        by_suffix = {}
        for fa in analyses:
            by_suffix.setdefault(Path(fa.display).name, []).append(fa)

        def role_of(site):
            roles = set()
            if site.order in ACQ_ORDERS and site.op != "store":
                roles.add("acquire")
            if site.order in REL_ORDERS and site.op != "load":
                roles.add("release")
            return roles

        for fa in analyses:
            for s in fa.sites:
                roles = role_of(s)
                if not roles:
                    continue
                anns = self._annotations_for(fa, s.line)
                if not anns:
                    self.report(
                        fa.display, s.line, "pairs-with",
                        f"{s.order} {s.op} has no '// pairs-with: "
                        "<file>:<symbol>' annotation naming its "
                        "counterpart")
                    continue
                want = "release" if "acquire" in roles else "acquire"
                for fref, sym in anns:
                    cands = by_suffix.get(Path(fref).name, [])
                    matched = False
                    for cfa in cands:
                        for cs in cfa.sites:
                            if not cs.qualname.endswith(sym):
                                continue
                            if want in role_of(cs) or \
                                    (roles == {"release"} and
                                     "acquire" in role_of(cs)):
                                matched = True
                    if not cands:
                        self.report(
                            fa.display, s.line, "pairs-with",
                            f"pairs-with target file '{fref}' is not "
                            "among the analyzed sources")
                    elif not matched:
                        self.report(
                            fa.display, s.line, "pairs-with",
                            f"pairs-with target '{fref}:{sym}' has no "
                            f"{want} op (a {s.order} {s.op} must name a "
                            f"live {want} site)")

    # -- per-function checks ---------------------------------------------

    def _check_functions(self, fa):
        toks = fa.lx.tokens
        for fn in fa.functions:
            body, _ = parse_stmts(toks, fn.body_start, fn.body_end)
            if "hotpath-alloc" in self.checks and fn.is_hotpath:
                self._hotpath(fa, fn, body)
            if "instr-guard" in self.checks:
                self._instr_guard(fa, fn, body)
            if "sv-string-copy" in self.checks and fn.name in EVENT_FNS \
                    and "dom" not in Path(fa.display).name.lower():
                self._sv_string(fa, fn, body)
            if "symbol-compare" in self.checks \
                    and fn.name in TRANSITION_FNS \
                    and re.search(r"(/core/|/filter/|transition)",
                                  fa.display):
                self._symbol_compare(fa, fn, body)

    def _alloc_scan(self, fa, stmt_tokens, where):
        for k, t in enumerate(stmt_tokens):
            if line_has_marker(fa.lx, t.line, "allow-alloc"):
                continue
            prev = stmt_tokens[k - 1].text if k > 0 else ""
            nxt = stmt_tokens[k + 1].text if k + 1 < len(stmt_tokens) else ""
            if t.kind != "id":
                continue
            if t.text == "new" and prev != "operator":
                self.report(fa.display, t.line, "hotpath-alloc",
                            f"operator new inside {where}")
            elif t.text in ALLOC_FN_IDS and nxt in ("(", "<"):
                self.report(fa.display, t.line, "hotpath-alloc",
                            f"{t.text} inside {where}")
            elif t.text == "string" and prev == "::" and nxt in ("(", "{"):
                self.report(fa.display, t.line, "hotpath-alloc",
                            f"std::string temporary inside {where}")
            elif t.text == "string" and prev == "::" and k + 2 <= len(
                    stmt_tokens):
                if nxt and stmt_tokens[k + 1].kind == "id":
                    after = stmt_tokens[k + 2].text \
                        if k + 2 < len(stmt_tokens) else ""
                    if after in ("(", "{", "=", ";"):
                        self.report(fa.display, t.line, "hotpath-alloc",
                                    f"local std::string inside {where}")
            elif t.text in OWNING_CONTAINERS and prev == "::":
                # std::vector<...> x  — local owning container. Skip
                # references/pointers (std::vector<T>& / *).
                j = k + 1
                if j < len(stmt_tokens) and stmt_tokens[j].text == "<":
                    d = 0
                    while j < len(stmt_tokens):
                        if stmt_tokens[j].text == "<":
                            d += 1
                        elif stmt_tokens[j].text == ">":
                            d -= 1
                            if d == 0:
                                j += 1
                                break
                        j += 1
                if j < len(stmt_tokens) and stmt_tokens[j].text in ("&", "*"):
                    continue
                if j < len(stmt_tokens) and (
                        stmt_tokens[j].kind == "id"
                        or stmt_tokens[j].text in ("(", "{")):
                    if line_has_marker(fa.lx, stmt_tokens[j].line,
                                       "allow-alloc"):
                        continue
                    self.report(
                        fa.display, t.line, "hotpath-alloc",
                        f"local owning std::{t.text} inside {where} "
                        "(growth allocates per event; use a pooled "
                        "member scratch container)")

    def _hotpath(self, fa, fn, body):
        where = f"`// hotpath` function {fn.qualname}"

        def visit(s, dom):
            if s.kind == "simple":
                self._alloc_scan(fa, s.tokens, where)
            elif s.kind in ("if", "loop"):
                self._alloc_scan(fa, s.cond, where)

        walk(body, [], visit)

    @staticmethod
    def _null_guard_in(text, ident, want_nonnull):
        if want_nonnull:
            return re.search(rf"\b{re.escape(ident)}\s*!=\s*nullptr",
                             text) is not None
        return re.search(rf"\b{re.escape(ident)}\s*==\s*nullptr",
                         text) is not None

    def _instr_guard(self, fa, fn, body):
        deref_re = re.compile(
            r"\b(" + "|".join(INSTR_IDENTS) + r")\s*->")

        def guarded(ident, text, dom):
            # Same-statement guard: ternary / && / early test.
            if self._null_guard_in(text, ident, True) or \
                    self._null_guard_in(text, ident, False):
                return True
            for cond, negated in dom:
                if not negated and "||" not in cond and \
                        self._null_guard_in(cond, ident, True):
                    return True
                if negated and "&&" not in cond and \
                        self._null_guard_in(cond, ident, False):
                    return True
            return False

        def visit(s, dom):
            texts = []
            if s.kind == "simple":
                texts.append(stmt_text(s))
            elif s.kind in ("if", "loop"):
                texts.append(cond_text(s))
            for text in texts:
                for m in deref_re.finditer(text):
                    ident = m.group(1)
                    if not guarded(ident, text, dom):
                        self.report(
                            fa.display, s.line, "instr-guard",
                            f"`{ident}->` dereference not dominated by a "
                            f"`{ident} != nullptr` branch (instrumentation "
                            "is optional on every hot path)")

        walk(body, [], visit)

    def _sv_string(self, fa, fn, body):
        def visit(s, dom):
            tokens = s.tokens if s.kind == "simple" else s.cond
            for k, t in enumerate(tokens):
                if t.kind == "id" and t.text == "string" and k > 0 \
                        and tokens[k - 1].text == "::":
                    nxt = tokens[k + 1] if k + 1 < len(tokens) else None
                    # Construction with arguments (temporary or named).
                    args_at = None
                    if nxt is not None and nxt.text in ("(", "{"):
                        args_at = k + 1
                    elif nxt is not None and nxt.kind == "id" \
                            and k + 2 < len(tokens) \
                            and tokens[k + 2].text in ("(", "{", "="):
                        args_at = k + 2
                    if args_at is None:
                        continue
                    if tokens[args_at].text == "=" or (
                            args_at + 1 < len(tokens)
                            and tokens[args_at + 1].text not in (")", "}")):
                        if line_has_marker(fa.lx, t.line,
                                           "allow-string-copy"):
                            continue
                        self.report(
                            fa.display, t.line, "sv-string-copy",
                            f"std::string constructed inside event-scope "
                            f"function {fn.qualname}; attribute/tag text "
                            "is a string_view into the parse buffer — "
                            "keep the view or assign into a pooled "
                            "buffer")

        walk(body, [], visit)

    CMP_RE = re.compile(
        r"(==|!=)\s*(\w+\s*\.\s*)?(text|label)\b|"
        r"\b(tag\s*\.\s*text|\w+\s*\.\s*label)\s*(==|!=)")

    def _symbol_compare(self, fa, fn, body):
        def visit(s, dom):
            text = stmt_text(s) if s.kind == "simple" else cond_text(s)
            if not text or not self.CMP_RE.search(text):
                return
            self.report(
                fa.display, s.line, "symbol-compare",
                f"string equality on tag text in transition function "
                f"{fn.qualname}; compare interned SymbolIds (one integer "
                "compare) — machines have no byte-comparing path")

        walk(body, [], visit)


# ---------------------------------------------------------------------------
# Driver

def files_from_compile_commands(build_dir, root):
    ccj = Path(build_dir) / "compile_commands.json"
    if not ccj.is_file():
        sys.exit(f"error: {ccj} not found; configure with "
                 "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON")
    seen = []
    for entry in json.loads(ccj.read_text()):
        f = Path(entry["file"])
        if not f.is_absolute():
            f = Path(entry["directory"]) / f
        f = f.resolve()
        try:
            rel = f.relative_to(root)
        except ValueError:
            continue
        if rel.parts and rel.parts[0] in ("src", "examples"):
            seen.append(f)
    return seen


def gather(paths, root):
    out = []
    for p in paths:
        p = Path(p)
        if p.is_file():
            out.append(p)
        elif p.is_dir():
            out.extend(sorted(p.rglob("*.h")))
            out.extend(sorted(p.rglob("*.cc")))
        else:
            print(f"warning: no such path {p}", file=sys.stderr)
    return out


def main():
    parser = argparse.ArgumentParser(
        description="AST-based project-invariant analyzer",
        epilog="See DESIGN.md §14 for the check catalog and rationale.")
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: src examples, "
                             "or the compile_commands.json TU list with -p)")
    parser.add_argument("-p", "--build-dir",
                        help="build dir with compile_commands.json; "
                             "analyzed files = its first-party TUs + "
                             "headers under src/")
    parser.add_argument("--check", action="append", default=[],
                        help="run only these checks (repeatable, "
                             "comma-separated)")
    parser.add_argument("--serve-scope", default=r"(^|/)serve",
                        help="path regex for the mutex-wrapper check scope")
    parser.add_argument("--list-checks", action="store_true")
    args = parser.parse_args()

    if args.list_checks:
        for c in ALL_CHECKS:
            print(c)
        return 0

    checks = []
    for c in args.check:
        checks += [x for x in c.split(",") if x]
    for c in checks:
        if c not in ALL_CHECKS:
            sys.exit(f"error: unknown check '{c}' (see --list-checks)")

    root = Path(__file__).resolve().parents[2]
    files = []
    if args.build_dir:
        files += files_from_compile_commands(args.build_dir, root)
        files += sorted((root / "src").rglob("*.h"))
    if args.paths:
        files += gather(args.paths, root)
    if not files:
        files = gather([root / "src", root / "examples"], root)

    uniq = {}
    for f in files:
        f = Path(f).resolve()
        try:
            display = str(f.relative_to(root))
        except ValueError:
            display = str(f)
        uniq[display] = f
    pairs = [(p, d) for d, p in sorted(uniq.items())]

    analyzer = Analyzer(pairs, checks or None, args.serve_scope)
    findings = analyzer.run()
    for f in findings:
        print(f, file=sys.stderr)
    print(f"project_analyzer: {len(pairs)} files, "
          f"{len(analyzer.checks)} checks, {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
