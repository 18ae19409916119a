#!/usr/bin/env bash
# Link-time reachability gate: every out-of-line function defined under
# src/ must be linked into some shipped binary, or be named in
# tools/lint/reachability_allow.txt with a reason.
#
#   tools/lint/reachability.sh [build-dir]      (default: build-reach)
#
# Run from the repository root.  It configures a Debug tree with
# -ffunction-sections and --gc-sections, builds every executable target
# except the unit tests (test_*), enumerated from CMake's file API so a
# new tool, bench or example is covered without editing this script,
# and builds bench/e2e's vp_e2e with the same flags.  The global text
# symbols (nm type T) of the product libraries src/*/libvp_*.a, minus
# the symbols any shipped binary still defines after the linker dropped
# unreferenced sections, is the set of functions only tests link.  That
# set must equal the allowlist: a symbol missing from the allowlist is
# "fresh", an allowlist line missing from the set is "stale", and either
# fails the gate, the way tools/lint/lint_baseline.json ratchets lint.
#
# Inline and template functions are weak symbols and are not seen; that
# is why making a function inline does not remove it, it only hides it.
set -euo pipefail
export LC_ALL=C

root=$(pwd)
tree=${1:-build-reach}
allow="$root/tools/lint/reachability_allow.txt"
jobs=$(nproc)

if [ ! -f "$root/src/linalg/matrix.cpp" ] || [ ! -f "$allow" ]; then
  echo "reachability.sh: run from the repository root" >&2
  exit 2
fi

flags=(-DCMAKE_BUILD_TYPE=Debug
       -DCMAKE_CXX_FLAGS=-ffunction-sections
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)

# Runs a command with its output in $tree/<log>; shows the tail on failure.
logged() {
  local log="$tree/$1"
  shift
  if ! "$@" > "$log" 2>&1; then
    tail -n 40 "$log"
    echo "reachability.sh: failed: $*" >&2
    exit 2
  fi
}

# CMake's file API lists the targets of the configured tree.
mkdir -p "$tree/.cmake/api/v1/query"
touch "$tree/.cmake/api/v1/query/codemodel-v2"
logged reachability-configure.log cmake -S . -B "$tree" "${flags[@]}"

# One line per executable target: "<name> <artifact path>".
mapfile -t executables < <(python3 - "$tree" <<'PY'
import json, os, sys
reply = os.path.join(sys.argv[1], ".cmake", "api", "v1", "reply")
index = max(f for f in os.listdir(reply) if f.startswith("index-"))
with open(os.path.join(reply, index)) as f:
    codemodel = json.load(f)["reply"]["codemodel-v2"]["jsonFile"]
with open(os.path.join(reply, codemodel)) as f:
    config = json.load(f)["configurations"][0]
for ref in config["targets"]:
    with open(os.path.join(reply, ref["jsonFile"])) as f:
        target = json.load(f)
    if target["type"] == "EXECUTABLE" and not target["name"].startswith("test_"):
        print(target["name"], target["artifacts"][0]["path"])
PY
)
if [ "${#executables[@]}" -eq 0 ]; then
  echo "reachability.sh: no executable targets found" >&2
  exit 2
fi

targets=()
binaries=()
for entry in "${executables[@]}"; do
  targets+=("${entry%% *}")
  binaries+=("$tree/${entry#* }")
done
echo "building ${#targets[@]} shipped executables in $tree"
logged reachability-build.log \
  cmake --build "$tree" -j "$jobs" --target "${targets[@]}"
logged reachability-e2e-configure.log \
  cmake -S bench/e2e -B "$tree/e2e" "${flags[@]}"
logged reachability-e2e-build.log \
  cmake --build "$tree/e2e" -j "$jobs" --target vp_e2e
binaries+=("$tree/e2e/vp_e2e")

text_symbols() {
  nm -C --defined-only "$@" 2>/dev/null |
    awk '$2 == "T" { sub(/^[^ ]+ T /, ""); print }'
}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
text_symbols "$tree"/src/*/libvp_*.a | sort -u > "$work/defined"
text_symbols "${binaries[@]}" | sort -u > "$work/linked"
comm -23 "$work/defined" "$work/linked" > "$work/unlinked"

# Allowlist lines are "<demangled symbol>  # <reason>"; '#' starts a
# comment line.  Every entry must carry a reason.
status=0
: > "$work/allowed"
while IFS= read -r line; do
  case "$line" in ''|'#'*) continue ;; esac
  symbol=${line%%  # *}
  if [ "$symbol" = "$line" ]; then
    echo "allowlist line without '  # reason': $line"
    status=1
  fi
  printf '%s\n' "$symbol" >> "$work/allowed"
done < "$allow"
sort -u -o "$work/allowed" "$work/allowed"

fresh=$(comm -23 "$work/unlinked" "$work/allowed")
stale=$(comm -13 "$work/unlinked" "$work/allowed")
if [ -n "$fresh" ]; then
  echo "fresh: defined under src/ but linked by no shipped binary:"
  sed 's/^/  /' <<< "$fresh"
  status=1
fi
if [ -n "$stale" ]; then
  echo "stale: allowlisted but no longer unlinked (linked or deleted):"
  sed 's/^/  /' <<< "$stale"
  status=1
fi
echo "reachability: $(wc -l < "$work/defined") functions defined," \
     "$(wc -l < "$work/unlinked") linked only by tests," \
     "$(wc -l < "$work/allowed") allowlisted"
exit "$status"
