#!/bin/sh
# chaos-smoke: SIGKILL campaignd repeatedly mid-campaign, then let a
# final daemon finish the job, and require the served results.jsonl to
# be byte-identical to cmd/campaign's output for the same spec. This is
# the out-of-process half of the chaos suite (internal/serve/chaos_test.go
# covers in-process kills): a real kill -9 tears whatever write was in
# flight, so restart recovery (ResumeCheckpoint's torn-tail repair) is
# what makes the final cmp pass. A last SIGTERM phase asserts the graceful-drain
# log line, so shutdown visibility is covered too.
#
# Daemon logs land in $tmp/daemon-N.log and are dumped on failure.
#
#   make chaos-smoke            # or: sh scripts/chaos_smoke.sh
#   KILLS=5 sh scripts/chaos_smoke.sh
set -eu

GO=${GO:-go}
ADDR=${ADDR:-127.0.0.1:8947}
KILLS=${KILLS:-3}

tmp=$(mktemp -d)
pid=""
failed=1
cleanup() {
	[ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
	if [ "$failed" = 1 ]; then
		for f in "$tmp"/daemon-*.log; do
			[ -f "$f" ] || continue
			echo "chaos-smoke: --- $f ---" >&2
			cat "$f" >&2
		done
	fi
	rm -rf "$tmp"
}
trap cleanup EXIT

wait_healthz() {
	for _ in $(seq 100); do
		if curl -sf "http://$ADDR/healthz" >/dev/null; then
			return 0
		fi
		sleep 0.1
	done
	echo "chaos-smoke: daemon did not come up on $ADDR" >&2
	return 1
}

# Reference: the same spec through cmd/campaign, uninterrupted.
$GO run ./cmd/campaign -preset bursty -duration 4 -seeds 3 -loads 250 -emit-spec >"$tmp/spec.json"
$GO run ./cmd/campaign -spec "$tmp/spec.json" -out "$tmp/cli.jsonl" -q >/dev/null
$GO build -o "$tmp/campaignd" ./cmd/campaignd

id=""
i=1
while [ "$i" -le "$KILLS" ]; do
	"$tmp/campaignd" -addr "$ADDR" -dir "$tmp/state" -workers 1 2>"$tmp/daemon-$i.log" &
	pid=$!
	wait_healthz
	if [ "$i" = 1 ]; then
		id=$(curl -sf -d @"$tmp/spec.json" "http://$ADDR/campaigns" | sed 's/.*"id":"\([^"]*\)".*/\1/')
		test -n "$id"
		echo "chaos-smoke: campaign $id submitted"
	fi
	sleep 0.3
	kill -9 "$pid" 2>/dev/null || true
	wait "$pid" 2>/dev/null || true
	pid=""
	echo "chaos-smoke: SIGKILL $i delivered"
	i=$((i + 1))
done

# Final life: resume from whatever the kills left behind and finish.
"$tmp/campaignd" -addr "$ADDR" -dir "$tmp/state" 2>"$tmp/daemon-final.log" &
pid=$!
wait_healthz
state=""
for _ in $(seq 600); do
	state=$(curl -sf "http://$ADDR/campaigns/$id" | sed 's/.*"state":"\([^"]*\)".*/\1/')
	[ "$state" = done ] && break
	sleep 0.1
done
if [ "$state" != done ]; then
	echo "chaos-smoke: campaign state '$state' after resume, want done" >&2
	exit 1
fi
curl -sf "http://$ADDR/campaigns/$id/results.jsonl" >"$tmp/served.jsonl"
cmp "$tmp/cli.jsonl" "$tmp/served.jsonl"

# Metrics on the surviving daemon: the completed-run counter must cover
# this life's emissions (checkpoint replays count as resumed completions).
records=$(wc -l <"$tmp/served.jsonl" | tr -d ' ')
completed=$(curl -sf "http://$ADDR/metrics" | awk '$1 == "campaign_runs_completed_total" {print int($2)}')
if [ "${completed:-0}" -ne "$records" ]; then
	echo "chaos-smoke: campaign_runs_completed_total=$completed, want $records" >&2
	exit 1
fi

# Graceful exit: SIGTERM must drain, and the drain must be visible in
# the log at default level (this was silent before structured logging).
kill -TERM "$pid"
wait "$pid" 2>/dev/null || true
pid=""
if ! grep -q "draining (signal again to force exit)" "$tmp/daemon-final.log"; then
	echo "chaos-smoke: drain start not logged on SIGTERM" >&2
	exit 1
fi
if ! grep -q "drain complete" "$tmp/daemon-final.log"; then
	echo "chaos-smoke: drain completion not logged" >&2
	exit 1
fi

failed=0
echo "chaos-smoke: ok ($records records byte-identical after $KILLS SIGKILLs; drain logged)"
