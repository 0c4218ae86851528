#!/usr/bin/env python3
"""Dead-surface listings for the workspace's library crates.

Run from the repository root:

    python3 scripts/dead_surface.py                  # every listing
    python3 scripts/dead_surface.py variants fields  # only the named ones
    python3 scripts/dead_surface.py --check scripts/dead_surface.allow variants fields dups

The listings print candidates, not verdicts; check each by hand before
deleting anything.

* ``items``: library ``pub`` items that nothing but their own file's
  unit tests reaches. A caller is any use in ``crates/*/src`` outside
  the defining file's tests, or in ``crates/*/tests``,
  ``crates/bench/benches``, ``examples/``, ``tests/``, ``src/`` or
  ``simbench/src``; ``use`` lines, comments and string literals do not
  count. A ``fn`` needs a call-shaped use (``name(``, ``name<``,
  ``.name``, ``::name``); a type or const needs any mention, and one
  mentioned only inside its own file is listed too.
* ``variants``: library enum variants never constructed in live code.
* ``fields``: library ``pub`` struct fields never read in live code.
* ``dups``: ``pub fn`` names defined more than once, fewest calls per
  definition first (one name's calls can hide a dead twin).
* ``single``: library ``pub`` struct fields whose live struct literals
  and assignments take at most one distinct value (a knob every caller
  leaves at its default). A shorthand ``field,``, an in-place update
  (``+=``, an indexed store, ``.push(..)``, ``&mut``) and an expression
  naming a local binding each count as a variable, which any value
  may take.

For ``variants``, ``fields``, ``dups`` and ``single`` only live code
counts: the ``crates/*/src`` files up to their first ``#[cfg(test)]``,
``src/``, ``examples/``, ``simbench/src`` and the benches; integration
tests do not. A mention in a match arm, or-pattern, guard, comparison,
``let`` pattern or ``matches!`` is not a construction; a ``.field``
followed by ``=`` or ``op=`` is not a read.

``--check FILE`` prints only the entries of the selected listings whose
key is not a line of FILE (``#`` starts a comment) and exits 1 if there
is any. A key is ``Enum::Variant``, ``Struct.field``, a ``pub fn`` name,
or an item name.
"""

import collections
import glob
import re
import subprocess
import sys
import zlib

# The `items` listing, in awk: one pass collects definitions and
# mentions, the END block keeps the definitions no one else reaches.
ITEMS_AWK = r"""
FNR==1{s=0;u=0} /#\[cfg\(test\)\]/{s=1}
{l=$0; sub(/\/\/.*/,"",l); gsub(/"[^"]*"/,"",l)}
/^ *(pub )?use /{u=1} u{if(l~/;/)u=0; next}
!s && FILENAME~/^crates\/[a-z]+\/src\// && match(l,/pub(\([a-z]+\))? (const )?(fn|struct|enum|const|static|type|trait) [A-Za-z_][A-Za-z0-9_]*/){
  w=substr(l,RSTART,RLENGTH); c=w; sub(/ [^ ]*$/,"",c); sub(/.* /,"",c); sub(/.* /,"",w)
  d[FILENAME":"FNR": "w]=FILENAME SUBSEP w SUBSEP c; k[w]++
}
{while(match(l,/[A-Za-z_][A-Za-z0-9_]*/)){
  w=substr(l,RSTART,RLENGTH); b=substr(l,RSTART-1,1); l=substr(l,RSTART+RLENGTH)
  if(l~/^(\(|<)/ || b=="." || b==":") {m[w]++; if(s) q[FILENAME SUBSEP w]++}
  n[w]++; o[FILENAME SUBSEP w]++; if(s) t[FILENAME SUBSEP w]++
}}
END{for(x in d){split(d[x],a,SUBSEP); f=a[1] SUBSEP a[2]
  if(a[3]=="fn" ? m[a[2]]-q[f]<=k[a[2]] : (n[a[2]]-t[f]<=k[a[2]] || n[a[2]]==o[f])) print x}}
"""


def items():
    files = sorted(
        f
        for d in ("crates", "src", "tests", "examples", "simbench/src")
        for f in glob.glob(f"{d}/**/*.rs", recursive=True)
        if "/target/" not in f
    )
    out = subprocess.run(["awk", ITEMS_AWK, *files], capture_output=True, text=True, check=True)
    for line in sorted(out.stdout.splitlines()):
        yield line.rsplit(": ", 1)[1], line


def strip(t, literals=False):
    """Blanks comments, char and string literals, keeping line breaks.
    With `literals`, a char or string literal becomes a token naming
    its content instead, so different literals stay different."""

    def blank(m):
        keep = m.group()[0] != "/" and literals
        return "\n" * m.group().count("\n") + (f"lit{zlib.crc32(m.group().encode()):x}" if keep else " ")

    return re.sub(r"""//[^\n]*|"(\\[\s\S]|[^"\\])*"|'(\\.|[^'\\\n])'""", blank, t)


def live_code(literals=False):
    """crates/*/src up to each file's first #[cfg(test)], plus src/,
    examples/, simbench/src and the benches."""
    files = sorted(
        set(
            glob.glob("crates/*/src/**/*.rs", recursive=True)
            + glob.glob("src/**/*.rs", recursive=True)
            + glob.glob("examples/*.rs")
            + glob.glob("simbench/src/*.rs")
            + glob.glob("crates/*/benches/*.rs")
        )
    )
    live = {}
    for f in files:
        t = strip(open(f).read(), literals)
        cut = re.search(r"^\s*#\[cfg\(test\)\]", t, re.M)
        live[f] = t[: cut.start()] if cut else t
    return live


LIVE = None


def lib():
    return {f: t for f, t in LIVE.items() if re.match(r"crates/\w+/src/", f)}


def where(f, i):
    return f"{f}:{LIVE[f].count(chr(10), 0, i) + 1}"


def close(t, i):
    """Index just past the bracket group opening at t[i]."""
    pair = {"(": ")", "{": "}", "[": "]"}
    depth, o, c = 0, t[i], pair[t[i]]
    for j in range(i, len(t)):
        depth += (t[j] == o) - (t[j] == c)
        if depth == 0:
            return j + 1
    return len(t)


def is_pattern(t, i, j):
    """Does the path spanning t[i:j] (plus any {..}/(..)) sit in a pattern?"""
    k = j
    while k < len(t) and t[k] in " \n":
        k += 1
    if k < len(t) and t[k] in "({":
        k = close(t, k)
    after = t[k:].lstrip()
    # A match arm, an or-pattern, a guard, a comparison or a `let` pattern.
    if re.match(r"(=>|\|(?!\|)|if\b|==|!=|=(?!=)|@)", after) or re.search(r"\s\|$|[=!]=$", t[:i].rstrip(" ")):
        return True
    if re.search(r"\blet\b", t[t.rfind("\n", 0, i) + 1 : i]) and "=" in after[:2]:
        return True
    m = t.rfind("matches!(", 0, i)  # the pattern half of an open matches!
    return m >= 0 and close(t, m + 8) > i and "," in t[m:i]


def structs():
    """(file, offset, name, pub field names, all field names) of every
    library pub struct."""
    for f, t in lib().items():
        for m in re.finditer(r"pub struct (\w+)[^{;(]*\{", t):
            body = t[m.end() : close(t, m.end() - 1) - 1]
            yield (
                f,
                m.start(),
                m.group(1),
                re.findall(r"^\s*pub(?:\([\w:]+\))? (\w+)\s*:", body, re.M),
                set(re.findall(r"^\s*(?:pub(?:\([\w:]+\))? )?(\w+)\s*:", body, re.M)),
            )


def variants():
    for f, t in lib().items():
        for m in re.finditer(r"pub enum (\w+)[^{;]*\{", t):
            enum, body = m.group(1), t[m.end() : close(t, m.end() - 1) - 1]
            depth, names = 0, []
            for line in body.split("\n"):
                v = re.match(r"\s*([A-Z]\w*)\s*([,({]|$)", line) if depth == 0 else None
                if v:
                    names.append(v.group(1))
                depth += line.count("{") + line.count("(") - line.count("}") - line.count(")")
            for v in names:
                # `E::V`, `Self::V` in E's file, or a bare `V` under `use E::*`.
                def mentions(g, u):
                    return re.finditer(
                        rf"\b{enum}::{v}\b"
                        + (rf"|\bSelf::{v}\b" if g == f else "")
                        + (rf"|(?<![:\w]){v}\b" if re.search(rf"\buse [\w:]*\b{enum}::\*", u) else ""),
                        u,
                    )

                built = any(
                    not is_pattern(u, x.start(), x.end())
                    and not (g == f and m.end() <= x.start() < m.end() + len(body))
                    for g, u in LIVE.items()
                    for x in mentions(g, u)
                )
                if not built:
                    yield f"{enum}::{v}", f"{where(f, m.start())}: {enum}::{v}"


def fields():
    for f, start, struct, names, _ in structs():
        for fld in names:
            read = any(
                re.search(rf"\.{fld}\b(?!\s*(?:[-+*/%&|^]|<<|>>)?=(?!=))(?!\s*\()", u)
                or any(
                    is_pattern(u, x.start(), x.end()) and re.search(rf"\b{fld}\b", u[x.end() : close(u, x.end() - 1)])
                    for x in re.finditer(rf"\b(?:{struct}|Self)\s*\{{", u)
                )
                for u in LIVE.values()
            )
            if not read:
                yield f"{struct}.{fld}", f"{where(f, start)}: {struct}.{fld}"


def dups():
    defs = collections.defaultdict(list)
    for f, t in lib().items():
        for m in re.finditer(r"pub(?:\([\w:]+\))? (?:const )?fn (\w+)", t):
            defs[m.group(1)].append(where(f, m.start()))
    found = []
    for name, at in defs.items():
        if len(at) > 1:
            calls = sum(len(re.findall(rf"(?<!fn )\b{name}\s*[(<]|[.:]{name}\b", u)) for u in LIVE.values())
            found.append((calls / len(at), name, calls, at))
    for _, name, calls, at in sorted(found):
        yield name, f"{name}: {len(at)} defs, {calls} calls: {' '.join(at)}"


def split_top(body):
    """Splits a struct literal's body at its top-level commas."""
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def single():
    # Values that depend on a binding: a shorthand, an in-place update,
    # or an expression naming a local (`self`, a parameter, a variable).
    variable = object()
    local = re.compile(r"(?<![\w.:])(?!true\b|false\b|lit[0-9a-f]+\b)[a-z_]\w*\b(?!\s*(?:::|!))")
    mutated = r"\s*(?:\[[^\]]*\]\s*)?(?:[-+*/%&|^]|<<|>>)=(?!=)|\s*\.\s*(?:push|extend|insert|append|clear|truncate|resize|fill|retain|sort\w*|dedup\w*|drain|pop|remove|swap|reverse|clone_from)\b|\s*\[[^\]]*\]\s*=(?!=)"
    code = live_code(literals=True)

    def value(v):
        v = " ".join(v.split())
        return variable if local.search(v) else v

    for f, start, struct, names, every in structs():
        values = {fld: set() for fld in names}
        for u in code.values():
            for x in re.finditer(rf"\b(?:{struct}|Self)\s*\{{", u):
                if is_pattern(u, x.start(), x.end()):
                    continue
                parts = split_top(u[x.end() : close(u, x.end() - 1) - 1])
                keyed = [re.match(r"(\w+)\s*(?::(?!:)\s*([\s\S]*))?$", p) for p in parts if not p.startswith("..")]
                # A `Self { .. }` literal belongs to this struct only if
                # every key it sets is one of the struct's fields.
                if not all(keyed) or not all(k.group(1) in every for k in keyed):
                    continue
                for k in keyed:
                    if k.group(1) in values:
                        values[k.group(1)].add(variable if k.group(2) is None else value(k.group(2)))
            for fld in names:
                for a in re.finditer(rf"\.{fld}\s*=(?!=)\s*([^;]*);", u):
                    values[fld].add(value(a.group(1)))
                if re.search(rf"\.{fld}\b(?:{mutated})|&mut\s+[\w.]*\.{fld}\b", u):
                    values[fld].add(variable)
        for fld in names:
            if variable not in values[fld] and len(values[fld]) <= 1:
                shown = " ".join(f"always {v}" for v in values[fld]) or "never set"
                yield f"{struct}.{fld}", f"{where(f, start)}: {struct}.{fld} ({shown})"


LISTINGS = {
    "items": ("library pub items nothing but their own file's tests reaches", items),
    "variants": ("enum variants never constructed outside tests", variants),
    "fields": ("struct fields never read outside tests", fields),
    "dups": ("pub fn names defined more than once, fewest calls outside tests per definition first", dups),
    "single": ("pub struct fields that live literals and assignments set to at most one value", single),
}


def main(args):
    global LIVE
    allow = None
    if args[:1] == ["--check"]:
        allow = {line.split("#", 1)[0].strip() for line in open(args[1])} - {""}
        args = args[2:]
    unknown = [a for a in args if a not in LISTINGS]
    if unknown:
        sys.exit(f"unknown listing(s) {unknown}; choose from {list(LISTINGS)}")
    LIVE = live_code()
    missing = 0
    for name in args or list(LISTINGS):
        title, listing = LISTINGS[name]
        print(f"== {title} ==")
        for key, line in listing():
            if allow is None or key not in allow:
                print(line)
                missing += 1
    if allow is not None and missing:
        print(f"{missing} entries are missing from the allowlist: delete the item or, if it must stay, add its key")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
