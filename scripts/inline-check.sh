#!/bin/sh
# inline-check.sh fails when a replacement kernel on the cache access path
# stops inlining. Such a change costs throughput on every simulated access
# yet fails no test, so it is checked here: the hot packages are built
# with -gcflags=-m and each named function must be reported as inlinable.
#
# Run from the repository root: sh scripts/inline-check.sh (or make
# inline-check). GO selects the go command.
set -u
GO=${GO:-go}
out=$("$GO" build -gcflags=-m ./internal/repl ./internal/cache 2>&1) || {
	printf '%s\n' "$out"
	exit 1
}
fail=0
for k in \
	'(*LRU).touch' '(*LRU).OnHit' '(*LRU).OnFill' '(*LRU).Victim' \
	'(*SRRIP).OnHit' '(*SRRIP).OnFill' '(*SRRIP).Victim' \
	'(*Cache).probeSet'; do
	if ! printf '%s\n' "$out" | awk -v k="$k" '$2 == "can" && $3 == "inline" && $4 == k && NF == 4 { found = 1 } END { exit !found }'; then
		echo "inline-check: $k no longer inlines (go build -gcflags=-m=2 shows its cost)"
		fail=1
	fi
done
[ "$fail" -eq 0 ] && echo "inline-check: all kernels inline"
exit "$fail"
