#!/usr/bin/env python3
"""List the library exports that nothing outside the tests calls.

    python3 tools/exports.py

Run from anywhere inside the repository. For every `val` in
lib/*/*.mli, and for every optional parameter (`?name:`) of one, it
looks for a caller in lib/ (leaving out the module's own .ml), bin/,
examples/, layerbench/ and tools/. A use is `Module.name`
(also through a `module X = ...Module` alias), or a bare `name` in a
file that opens the module (`open`, `let open`, `Module.( ... )`). An
optional parameter is set where a call of the function passes
`~name` or `?name`: the scan runs from the use to the end of its
application, the first `;`, `,`, `|`, `=`, infix operator, keyword
such as `in` or `then`, or closing bracket at the use's own nesting
depth; labels inside nested brackets belong to other calls. Comments
and string literals are not read.

It prints every entry without such a caller, unless the entry sits in
a `(** {1 For tests} *)` section of its .mli (up to the next `{1 ...}`
heading). Such a section's doc names why it stays before anything
else: `oracle:` (a reference a test diffs against), `hook:` (the only
code that fires a hook the library registers, or lets a test step
in) or `model:` (the model of a claim DESIGN.md or EXPERIMENTS.md
names); several may be combined, as in `oracle, hook:`. A section
that names none is printed too. An optional
parameter that only tests set is marked in its function's doc comment
instead: "For tests: [?name]". An entry marked for tests that not even
test/ uses is printed too: it is dead either way.

Last it prints the size of the test-only surface: the `val`s in
"For tests" sections plus the "For tests: [?name]" markers. That
count may not rise above the number in tools/exports_for_tests.txt;
lower the number when the count falls.

Exit status: 1 if it listed an entry or a section without its reason,
or the count rose, else 0.
"""

import glob
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CALLER_DIRS = ["lib", "bin", "examples", "layerbench", "tools"]
FOR_TESTS = "{1 For tests}"
LIMIT = os.path.join(ROOT, "tools", "exports_for_tests.txt")
IDENT = r"[a-z_][A-Za-z0-9_']*"
REASON = r"(oracle|hook|model)(\s*,\s*(oracle|hook|model))*:"
# What ends an application at its own depth: a keyword, or a character
# that starts a separator or an infix operator.
END_WORDS = {
    "and", "begin", "do", "done", "downto", "else", "end", "function", "fun", "if", "in",
    "let", "match", "of", "then", "to", "try", "type", "val", "when", "with",
}
END_CHARS = set(";,|=<>@^+-*/&$%")


def strip(src):
    """The source with comments and string literals blanked out."""
    out = []
    i, n, depth = 0, len(src), 0
    while i < n:
        c = src[i]
        if src.startswith("(*", i):
            depth += 1
            i += 2
            continue
        if depth and src.startswith("*)", i):
            depth -= 1
            i += 2
            continue
        if c == '"':
            j = i + 1
            while j < n and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            out.append("\n" * src.count("\n", i, j) if depth else '""')
            i = j + 1
            continue
        if c == "'":
            m = re.match(r"'(\\[^']{1,3}|[^\\'\n])'", src[i:])
            if m:
                i += m.end()
                continue
        if not depth or c == "\n":
            out.append(c)
        i += 1
    return "".join(out)


def ml_files(sub):
    top = os.path.join(ROOT, sub)
    for d, dirs, files in os.walk(top):
        dirs[:] = [x for x in dirs if x not in ("_build", "out")]
        for f in sorted(files):
            if f.endswith(".ml"):
                yield os.path.join(d, f)


def module_of(path):
    return os.path.basename(path)[:-3].capitalize()


class Source:
    def __init__(self, path):
        self.path = path
        with open(path) as f:
            self.text = strip(f.read())
        self.aliases = {}
        for m in re.finditer(r"module\s+([A-Z]\w*)\s*=\s*([A-Z][\w.]*)", self.text):
            self.aliases.setdefault(m.group(2).split(".")[-1], []).append(m.group(1))
        self.opened = set(re.findall(r"\bopen!?\s+(?:[A-Z]\w*\.)*([A-Z]\w*)", self.text))
        self.opened |= set(re.findall(r"\b([A-Z]\w*)\.\(", self.text))
        self.qualified = set(re.findall(r"\b([A-Z]\w*)\s*\.\s*(%s)" % IDENT, self.text))
        self.bare = set(re.findall(r"(?<![.~?\w'])(%s)" % IDENT, self.text))

    def uses(self, mod, name):
        for q in [mod] + self.aliases.get(mod, []):
            if (q, name) in self.qualified:
                return True
        return mod in self.opened and name in self.bare

    def sets(self, mod, name, param):
        """Whether a call of [mod.name] passes [~param] or [?param]."""
        quals = "|".join(re.escape(q) for q in [mod] + self.aliases.get(mod, []))
        pattern = r"\b(?:%s)\s*\.\s*%s\b" % (quals, re.escape(name))
        if mod in self.opened:
            pattern += r"|(?<![.~?\w'])%s\b" % re.escape(name)
        return any(param in call_labels(self.text, m.end())
                   for m in re.finditer(pattern, self.text))


def call_labels(text, i):
    """The labels an application passes at its own depth, scanning from
    just after the applied name at [text[i]]."""
    labels, depth, n = set(), 0, len(text)
    while i < n:
        c = text[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            if depth == 0:
                break
            depth -= 1
        elif depth == 0:
            if c in END_CHARS:
                break
            m = re.match(r"[~?](%s)|[A-Za-z_][\w']*" % IDENT, text[i:i + 64])
            if m:
                if m.group(1):
                    labels.add(m.group(1))
                elif m.group(0) in END_WORDS:
                    break
                i += m.end()
                continue
        i += 1
    return labels


def entries(mli):
    """For every val of [mli]: [line, qualifier, name, optional
    parameters, in a "For tests" section, parameters marked for tests]."""
    with open(mli) as f:
        lines = f.read().split("\n")
    mod = module_of(mli[:-1])
    code = strip("\n".join(lines)).split("\n")
    stack, for_tests, cur = [mod], False, None
    out = []
    for i, (raw, line) in enumerate(zip(lines, code), 1):
        if "{1 " in raw:
            for_tests = FOR_TESTS in raw
        m = re.match(r"\s*module\s+([A-Z]\w*)\s*:\s*sig\b", line)
        if m:
            stack.append(m.group(1))
            continue
        if re.match(r"\s*end\b", line) and len(stack) > 1:
            stack.pop()
            continue
        m = re.match(r"\s*val\s+(%s)\s*:(.*)" % IDENT, line)
        if m:
            cur = [i, stack[-1], m.group(1), [], for_tests, set()]
            out.append(cur)
            line = m.group(2)
            marking = False
        elif re.match(r"\s*(type|exception|module|include|external)\b", line):
            cur = None
        if cur is not None:
            cur[3] += re.findall(r"\?(%s)\s*:" % IDENT, line)
            if "For tests:" in raw:
                marking = True
                raw = raw[raw.index("For tests:"):]
            if marking:
                cur[5].update(re.findall(r"\[\?(%s)\]" % IDENT, raw))
                marking = "*)" not in raw
    return out


def unreasoned(mli):
    """Lines of [mli]'s "For tests" headings whose doc does not begin
    with its reason."""
    with open(mli) as f:
        src = f.read()
    out = []
    for m in re.finditer(re.escape("(** " + FOR_TESTS) + r"(.*?)\*\)", src, re.S):
        if not re.match(REASON, m.group(1).strip()):
            out.append(src.count("\n", 0, m.start()) + 1)
    return out


def main():
    callers = [Source(p) for d in CALLER_DIRS for p in ml_files(d)]
    tests = [Source(p) for p in ml_files("test")]
    listed, for_tests_count = [], 0
    for mli in sorted(glob.glob(os.path.join(ROOT, "lib", "*", "*.mli"))):
        own = mli[:-1]
        mod = module_of(own)
        rel = os.path.relpath(mli, ROOT)
        others = [s for s in callers if s.path != own]
        for line in unreasoned(mli):
            listed.append((rel, line, FOR_TESTS, "names no oracle:, hook: or model: reason"))
        for line, q, name, params, for_tests, marked in entries(mli):
            for_tests_count += for_tests + len(marked)
            users = [s for s in others if s.uses(q, name)]
            tested = [s for s in tests if s.uses(q, name)]
            shown = "%s.%s" % (mod, name) if q == mod else "%s.%s.%s" % (mod, q, name)
            if for_tests:
                if not users and not tested:
                    listed.append((rel, line, shown, "for tests, no caller"))
                continue
            if not users:
                listed.append((rel, line, shown, "test-only" if tested else "no caller"))
                continue
            for p in params:
                if any(s.sets(q, name, p) for s in users):
                    continue
                t = any(s.sets(q, name, p) for s in tested)
                if p in marked and t:
                    continue
                why = "for tests, no caller" if p in marked else "test-only" if t else "no caller"
                listed.append((rel, line, "%s ?%s" % (shown, p), why))
    for rel, line, shown, why in listed:
        print("%s:%d: %s (%s)" % (rel, line, shown, why))
    if listed:
        print("%d entries listed" % len(listed), file=sys.stderr)
    with open(LIMIT) as f:
        limit = int(f.read())
    print("test-only surface: %d (limit %d)" % (for_tests_count, limit))
    if for_tests_count > limit:
        print("the test-only surface grew above %s" % os.path.relpath(LIMIT, ROOT), file=sys.stderr)
    return 1 if listed or for_tests_count > limit else 0


if __name__ == "__main__":
    sys.exit(main())
