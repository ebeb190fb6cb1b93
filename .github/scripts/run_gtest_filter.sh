#!/bin/sh
# Runs a gtest binary under --gtest_filter and fails when any ':'-separated
# pattern of the filter selects no test. gtest itself exits 0 when a filter
# matches nothing, so a renamed or moved suite would otherwise drop out of a
# CI step without a trace.
#
#   run_gtest_filter.sh <test binary> <filter> [more gtest flags...]
set -eu
binary=$1
filter=$2
shift 2
for pattern in $(echo "$filter" | tr ':' ' '); do
  if ! "$binary" --gtest_list_tests --gtest_filter="$pattern" | grep -q '^  '; then
    echo "$binary: no test matches '$pattern'" >&2
    exit 1
  fi
done
exec "$binary" --gtest_filter="$filter" "$@"
