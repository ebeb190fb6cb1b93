#!/usr/bin/env bash
# Dead-code gate: lists the pad:: functions that the src/ libraries define and
# no shipped binary keeps, and fails on any that unused_symbols.allow does not
# name (and on allowlist entries that are no longer unused).
#
# Shipped binaries are everything under tools/, bench/ and examples/ plus the
# perfbench harness. They are built at -O0 with one section per function and
# linked with --gc-sections, so the linker drops exactly the functions that no
# call graph from main() reaches. -O0 matters: at -O2 a function that is fully
# inlined inside its own translation unit looks dead too.
#
#   .github/scripts/unused_symbols.sh [build dir, default build-unused]
set -euo pipefail
export LC_ALL=C  # One collation for sort and comm.
root=$(cd "$(dirname "$0")/../.." && pwd)
out=$(realpath -m "${1:-$root/build-unused}")
allow="$root/.github/scripts/unused_symbols.allow"
jobs=$(nproc 2>/dev/null || echo 2)

configure() {
  cmake -S "$1" -B "$2" -G "Unix Makefiles" -DCMAKE_BUILD_TYPE=None \
    -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fdata-sections" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null
}

# The perfbench harness gets its own tree: it adds ../src itself.
configure "$root" "$out/main"
configure "$root/perfbench" "$out/perfbench"
for dir in tools bench examples; do
  make -s -C "$out/main/$dir" -j"$jobs" all >/dev/null
done
cmake --build "$out/perfbench" -j"$jobs" --target perfbench >/dev/null

# Text symbols (T/t) only: weak symbols are inline or template code that every
# user instantiates for itself.
pad_text() { nm -C --defined-only "$@" | sed -n 's/^[0-9a-f]* [Tt] \(pad::.*\)$/\1/p'; }

binaries=$(find "$out/main/tools" "$out/main/bench" "$out/main/examples" \
  -maxdepth 1 -type f -perm -u+x; echo "$out/perfbench/perfbench")
pad_text $binaries | sort -u >"$out/kept.txt"
pad_text "$out"/main/src/*/lib*.a 2>/dev/null | sort -u >"$out/defined.txt"
comm -23 "$out/defined.txt" "$out/kept.txt" >"$out/unused.txt"
sed -e '/^#/d' -e '/^$/d' "$allow" | sort -u >"$out/allowed.txt"

status=0
new=$(comm -23 "$out/unused.txt" "$out/allowed.txt")
if [ -n "$new" ]; then
  echo "unused_symbols: defined in src/ but kept by no binary:" >&2
  echo "$new" | sed 's/^/  /' >&2
  echo "delete them, or name a test oracle in $allow" >&2
  status=1
fi
stale=$(comm -13 "$out/unused.txt" "$out/allowed.txt")
if [ -n "$stale" ]; then
  echo "unused_symbols: allowlisted but no longer unused (remove from the allowlist):" >&2
  echo "$stale" | sed 's/^/  /' >&2
  status=1
fi
if [ "$status" = 0 ]; then
  echo "unused_symbols: $(comm -12 "$out/defined.txt" "$out/kept.txt" | wc -l) of" \
    "$(wc -l <"$out/defined.txt") src/ functions kept by a binary; the rest are" \
    "the $(wc -l <"$out/allowed.txt") allowlisted test oracles"
fi
exit "$status"
