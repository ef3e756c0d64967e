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
# Other tools' flags quoted in the docs: go test; pgrep/pkill; go tool pprof;
# and `-wal`, the suffix sss-bench appends to durable series names.
allow = {"count", "race", "run", "short", "v", "f", "x", "top", "wal"}
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

if [ "$status" -ne 0 ]; then
  exit 1
fi
echo "docs check passed"
