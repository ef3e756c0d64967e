#!/usr/bin/env bash
# check_docs.sh — documentation health gate.
#
# 1. Intra-repo markdown links: every relative link target in README.md and
#    docs/*.md must exist (fragments are stripped; http(s) links are not
#    fetched).
# 2. Code blocks: every ```go fenced block that declares a package is
#    extracted into a throwaway package directory inside the module and must
#    `go build`. Snippet blocks without a package clause are skipped.
# 3. Flags: every `-flag` token inside an inline code span of README.md,
#    docs/*.md and the verify SKILL must be a flag some binary still has
#    (the -h output of sss-server, sss-bench, sss-client and `sss-client
#    top`), so a deleted flag cannot survive in prose. A short allowlist
#    covers the flags of other tools the docs quote (go test, pgrep, pprof).
#
# 4. Identifiers: every `pkg.Ident` inside an inline code span of the same
#    files, for pkg under internal/, client or kv, must be declared in that
#    package (a package-level name, or a field or method of one of its types;
#    `pkg.Type.Member` must be a member of that type), and every bare
#    `handle*`/`apply*` span must be a function somewhere — so a deleted
#    handler or wire field cannot survive in prose. Allowlist: file names
#    (`wire.go`) and benchmark rows (`wal.syncs_per_commit`).
#
# 5. Paths: every repo path inside a code span or fenced block of the same
#    files — `BENCH_<name>.json` at the root, or a file or directory under
#    scripts/, cmd/, internal/, benchmark/, examples/, docs/, client/ or kv/
#    — must exist in the tree, so a deleted file cannot survive in prose.
#    Patterns (`BENCH_figure<N>.json`, `scripts/*.sh`, `cmd/...`) are not
#    paths and are skipped.
#
# Usage: scripts/check_docs.sh
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=".docscheck-tmp"
rm -rf "$tmp"
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT

python3 - "$tmp" <<'EOF'
import os, re, sys, glob

tmp = sys.argv[1]
files = ["README.md"] + sorted(glob.glob("docs/*.md"))
fail = 0

# --- 1. intra-repo link check ---
link_re = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
for f in files:
    text = open(f).read()
    base = os.path.dirname(f)
    for target in link_re.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path = target.split("#", 1)[0]
        if not path:  # pure fragment: same-file anchor
            continue
        resolved = os.path.normpath(os.path.join(base, path))
        if not os.path.exists(resolved):
            print(f"FAIL: {f}: broken link -> {target}")
            fail = 1

# --- 2. extract compilable go blocks ---
fence_re = re.compile(r"^```go\s*$(.*?)^```\s*$", re.M | re.S)
n = 0
for f in files:
    text = open(f).read()
    for block in fence_re.findall(text):
        block = block.strip("\n")
        if not re.search(r"^package\s+\w+", block, re.M):
            continue  # snippet, not a compilation unit
        d = os.path.join(tmp, f"block{n:02d}")
        os.makedirs(d, exist_ok=True)
        with open(os.path.join(d, "main.go"), "w") as out:
            out.write(block + "\n")
        print(f"extracted: {f} -> {d}")
        n += 1

sys.exit(fail)
EOF

status=0
for d in "$tmp"/block*/; do
  [ -d "$d" ] || continue
  if ! go build -o /dev/null "./$d" 2> "$tmp/err.log"; then
    echo "FAIL: doc code block in $d does not compile:" >&2
    cat "$tmp/err.log" >&2
    status=1
  else
    echo "ok: $d compiles"
  fi
done

# --- 3. flag-existence check ---
for b in sss-server sss-bench sss-client; do
  go build -o "$tmp/$b" "./cmd/$b"
  "$tmp/$b" -h >> "$tmp/usage.txt" 2>&1 || true
done
"$tmp/sss-client" top -h >> "$tmp/usage.txt" 2>&1 || true

python3 - "$tmp/usage.txt" <<'EOF' || status=1
import glob, re, sys

have = set(re.findall(r"^\s+-([a-z][a-z0-9-]*)", open(sys.argv[1]).read(), re.M))
# Other tools' flags quoted in the docs: go test; pgrep/pkill; go tool pprof.
allow = {"count", "race", "run", "short", "v", "f", "x", "top"}
fail = 0
for f in ["README.md", ".claude/skills/verify/SKILL.md"] + sorted(glob.glob("docs/*.md")):
    text = re.sub(r"^```.*?^```\s*$", "", open(f).read(), flags=re.M | re.S)
    for span in re.findall(r"`([^`\n]+)`", text):
        for flag in re.findall(r"(?:^|[\s/])-([a-z][a-z0-9-]*)", span):
            if flag not in have and flag not in allow:
                print(f"FAIL: {f}: `-{flag}` is not a flag of sss-server, sss-bench or sss-client")
                fail = 1
sys.exit(fail)
EOF

# --- 4. identifier-existence check ---
python3 - <<'EOF' || status=1
import glob, os, re, sys

# Declarations are read with line regexes, not a Go parser: gofmt guarantees
# the shapes (top-level keywords at column 0, members one tab deep).
pkg_dirs = {os.path.basename(d): d for d in glob.glob("internal/*") if os.path.isdir(d)}
pkg_dirs.update({"client": "client", "kv": "kv"})

def declarations(d):
    """Returns (names declared at package level, members per type) of the
    non-test Go files in directory d."""
    names, members = set(), {}
    for path in glob.glob(os.path.join(d, "*.go")):
        if path.endswith("_test.go"):
            continue
        block = None  # the type whose body, or the const/var/type group, we are inside
        for line in open(path):
            if block is not None:
                if line.startswith(")") or line.startswith("}"):
                    block = None
                elif re.match(r"\t\w", line):
                    ids = re.match(r"\t\*?((?:\w+\.)?\w+(?:, \w+)*)", line).group(1)
                    for name in ids.split(", "):
                        name = name.split(".")[-1]  # embedded pkg.Type
                        if block == "":
                            names.add(name)
                        else:
                            members[block].add(name)
                continue
            m = re.match(r"func \((?:\w+ )?\*?(\w+)(?:\[[^\]]*\])?\) (\w+)", line)
            if m:
                members.setdefault(m.group(1), set()).add(m.group(2))
                continue
            m = re.match(r"(?:func|type|const|var) (\w+)", line)
            if m:
                names.add(m.group(1))
                if re.match(r"type \w+(?:\[[^\]]*\])? (?:struct|interface) \{$", line):
                    block = m.group(1)
                    members.setdefault(block, set())
            elif re.match(r"(?:type|const|var) \($", line):
                block = ""
    return names, members

decls = {pkg: declarations(d) for pkg, d in pkg_dirs.items()}
# anywhere[pkg]: package-level names plus every field and method name, since
# the docs write methods as `mvstore.ReadRO`. everywhere: the same across all
# packages, for the bare handle*/apply* spans.
anywhere = {pkg: names.union(*members.values()) for pkg, (names, members) in decls.items()}
everywhere = set().union(*anywhere.values())

# Allowlist: file-name suffixes, which read as pkg.Ident (`wire.go`).
not_idents = {"go", "md", "json", "sh", "yml"}

fail = 0
for f in ["README.md", ".claude/skills/verify/SKILL.md"] + sorted(glob.glob("docs/*.md")):
    text = re.sub(r"^```.*?^```\s*$", "", open(f).read(), flags=re.M | re.S)
    for span in re.findall(r"`([^`\n]+)`", text):
        for pkg, ident, member in re.findall(r"(?<![\w./-])(?:internal/)?(\w+)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?", span):
            # An underscore marks a benchmark row (`wal.syncs_per_commit`),
            # not a Go name: this repo declares none with one.
            if pkg not in decls or "_" in ident or ident in not_idents:
                continue
            names, members = decls[pkg]
            if ident not in anywhere[pkg]:
                print(f"FAIL: {f}: `{pkg}.{ident}` is not declared in {pkg_dirs[pkg]}")
                fail = 1
            elif member and "_" not in member and ident in names and ident in members and member not in members[ident]:
                print(f"FAIL: {f}: `{pkg}.{ident}.{member}`: {ident} has no such field or method")
                fail = 1
        for fn in re.findall(r"(?<![\w.])((?:handle|apply)[A-Z]\w*)", span):
            if fn not in everywhere:
                print(f"FAIL: {f}: `{fn}` is not a function in any package")
                fail = 1
sys.exit(fail)
EOF

# --- 5. path-existence check ---
python3 - <<'EOF' || status=1
import glob, os, re, sys

# A path is a root BENCH_ snapshot, or a top-level source directory followed
# by plain components and optionally a file name. A wildcard or placeholder
# anywhere in the token makes it a pattern, which matches nothing here;
# `internal/obs.Fetch` reads as internal/obs.
path_re = re.compile(
    r"(?<![\w./<>*-])(?:\./)?"
    r"(BENCH_\w+\.json"
    r"|(?:scripts|cmd|internal|benchmark|examples|docs|client|kv)(?:/[\w-]+)+"
    r"(?:\.(?:go|sh|md|json|yml|mod)\b)?)"
    r"(?![\w<*-]|/[\w<*.])")
fail = 0
for f in ["README.md", ".claude/skills/verify/SKILL.md"] + sorted(glob.glob("docs/*.md")):
    code = re.findall(r"```.*?```|`[^`\n]+`", open(f).read(), flags=re.S)
    for path in sorted(set(path_re.findall("\n".join(code)))):
        if not os.path.exists(path):
            print(f"FAIL: {f}: `{path}` does not exist in the tree")
            fail = 1
sys.exit(fail)
EOF

if [ "$status" -ne 0 ]; then
  exit 1
fi
echo "docs check passed"
