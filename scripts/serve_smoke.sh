#!/usr/bin/env bash
# Black-box smoke test of the fastdnamld daemon over real HTTP.
#
# Builds the binaries, starts a 2-worker daemon on an OS-assigned port
# with auth, rate limiting, and a short job TTL enabled, and drives it
# with curl the way a client would:
#
#   1. /healthz answers 200 with the stamped version.
#   2. Requests without a key, or with a wrong key, get 401; a good key
#      resolves to its tenant (the body declares none).
#   3. A submitted job completes, and its best tree is byte-identical to
#      a serial `fastdnaml` run over the same alignment and seed.
#   4. Submitting the identical spec again is a cache hit: the response
#      says so, and fdml_dispatch_total proves the fleet never saw it.
#   5. A submission burst past -rate gets 429 + Retry-After with the
#      rate_limited reason on /metrics.
#   6. After the short job TTL, the GC evicts the done job (its id
#      404s, fdml_gc_* counters move) while the result store still
#      answers a resubmission as a cache hit.
#   7. /metrics exposes the tenant-labeled service counters, with the
#      tenant taken from the API key.
#   8. SIGTERM shuts the daemon down gracefully (exit 0).
#   9. Crash: a larger job is caught mid-search (its restart manifest
#      exists), the daemon is killed with SIGKILL and restarted over the
#      same -data; the job resumes (fdml_serve_resumed_total moves) and
#      its best tree is byte-identical to a serial `fastdnaml` run.
#  10. Saturation: a daemon with more job slots than pod slots
#      (-max-active 2 -max-pods 1) gets two alignments back to back; the
#      second waits for the first's pod (the daemon logs the wait), both
#      reach done, and each best tree is byte-identical to a serial
#      `fastdnaml` run.
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
daemon_pid=
cleanup() {
	[ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null && wait "$daemon_pid" 2>/dev/null
	rm -rf "$work"
}
trap cleanup EXIT

fail() {
	echo "serve-smoke: FAIL: $*" >&2
	[ -f "$work/daemon.log" ] && sed 's/^/  daemon: /' "$work/daemon.log" >&2
	exit 1
}

echo "== build"
# SMOKE_RACE=1 (set in CI) builds the binaries with the race detector,
# so the whole curl-driven scenario doubles as a race soak.
go build ${SMOKE_RACE:+-race} -o "$work/bin/" ./cmd/fastdnaml ./cmd/fastdnamld ./cmd/simseq

echo "== serial reference run"
"$work/bin/simseq" -taxa 8 -sites 200 -seed 11 -out "$work/aln.phy" 2>/dev/null
"$work/bin/fastdnaml" -in "$work/aln.phy" -seed 5 -quiet -out "$work/ref" >/dev/null
ref_tree=$(cat "$work/ref.best.tree")
[ -n "$ref_tree" ] || fail "serial run produced no tree"

# start_daemon <flags...>: start fastdnamld on an OS-assigned port with
# the given flags, logging to $work/daemon.log; sets daemon_pid and base.
start_daemon() {
	"$work/bin/fastdnamld" -addr 127.0.0.1:0 -workers 2 -api-keys "$work/keys" "$@" \
		>"$work/daemon.log" 2>&1 &
	daemon_pid=$!
	base=
	for _ in $(seq 1 100); do
		base=$(sed -n 's/^fastdnamld: serving on \(http:\/\/.*\)$/\1/p' "$work/daemon.log")
		[ -n "$base" ] && break
		kill -0 "$daemon_pid" 2>/dev/null || fail "daemon died on startup"
		sleep 0.1
	done
	[ -n "$base" ] || fail "daemon never reported its address"
	echo "   $base"
}

echo "== start daemon (auth + rate limit + short job TTL)"
good_key="smoke-key-0123456789abcdef"
printf '# smoke test keys\n%s lab-a\n' "$good_key" >"$work/keys"
start_daemon -data "$work/data" -rate 1 -burst 2 -job-ttl 2s -result-ttl 10m -gc-interval 1s

auth=(-H "Authorization: Bearer $good_key")

curl -fsS "$base/healthz" | grep -q '"status": *"ok"' || fail "/healthz not ok"

echo "== auth: missing and wrong keys are 401, good key works"
code=$(curl -s -o /dev/null -w '%{http_code}' "$base/v1/jobs")
[ "$code" = 401 ] || fail "unauthenticated list got $code, want 401"
code=$(curl -s -o /dev/null -w '%{http_code}' -H 'Authorization: Bearer wrong-key-00000000' "$base/v1/jobs")
[ "$code" = 401 ] || fail "wrong-key list got $code, want 401"
curl -fsS "${auth[@]}" "$base/v1/jobs" >/dev/null || fail "good key rejected"

# submit <json-file>: submit a job spec and print the new job's id.
submit() {
	local resp id
	resp=$(curl -fsS -X POST -H 'Content-Type: application/json' "${auth[@]}" \
		--data-binary @"$1" "$base/v1/jobs")
	id=$(printf '%s\n' "$resp" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -1)
	[ -n "$id" ] || fail "submit returned no job id: $resp"
	printf '%s\n' "$id"
}

echo "== submit job"
# JSON-escape the alignment's newlines into one string field. No tenant
# in the body: the identity must come from the API key.
aln_json=$(awk '{printf "%s\\n", $0}' "$work/aln.phy")
printf '{"alignment":"%s","options":{"seed":5}}' "$aln_json" >"$work/job.json"
resp=$(curl -fsS -X POST -H 'Content-Type: application/json' "${auth[@]}" \
	--data-binary @"$work/job.json" "$base/v1/jobs")
job_id=$(printf '%s\n' "$resp" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -1)
[ -n "$job_id" ] || fail "submit returned no job id: $resp"
printf '%s' "$resp" | grep -q '"tenant": *"lab-a"' || fail "tenant not resolved from key: $resp"
echo "   $job_id"

# wait_done <job-id>: poll the job until it is done.
wait_done() {
	local state= rec=
	for _ in $(seq 1 600); do
		rec=$(curl -fsS "${auth[@]}" "$base/v1/jobs/$1")
		state=$(printf '%s\n' "$rec" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p' | head -1)
		case "$state" in
		done) return ;;
		failed | canceled | quarantined) fail "job reached $state: $rec" ;;
		esac
		sleep 0.2
	done
	fail "job stuck in state '$state'"
}

echo "== wait for completion"
wait_done "$job_id"

got_tree=$(curl -fsS "${auth[@]}" "$base/v1/jobs/$job_id/result?format=newick")
[ "$got_tree" = "$ref_tree" ] ||
	fail "service tree differs from serial run:
  serial:  $ref_tree
  service: $got_tree"
echo "   tree matches the serial run"

echo "== duplicate submission is a zero-dispatch cache hit"
dispatches() {
	curl -fsS "$base/metrics" | sed -n 's/^fdml_dispatch_total \(.*\)/\1/p'
}
before=$(dispatches)
[ -n "$before" ] || fail "/metrics has no fdml_dispatch_total"
dup=$(curl -fsS -X POST -H 'Content-Type: application/json' "${auth[@]}" \
	--data-binary @"$work/job.json" "$base/v1/jobs")
printf '%s' "$dup" | grep -q '"cache_hit": *true' || fail "duplicate not a cache hit: $dup"
printf '%s' "$dup" | grep -q '"state": *"done"' || fail "cache hit not done: $dup"
after=$(dispatches)
[ "$before" = "$after" ] || fail "duplicate dispatched work: $before -> $after"
echo "   fdml_dispatch_total unchanged at $after"

echo "== submission burst past -rate gets 429 + Retry-After"
saw_429=
for _ in 1 2 3; do
	hdrs=$(curl -s -D - -o /dev/null -X POST -H 'Content-Type: application/json' "${auth[@]}" \
		--data-binary @"$work/job.json" "$base/v1/jobs")
	if printf '%s' "$hdrs" | head -1 | grep -q 429; then
		saw_429=yes
		printf '%s' "$hdrs" | grep -qi '^Retry-After:' || fail "429 without Retry-After:
$hdrs"
		break
	fi
done
[ -n "$saw_429" ] || fail "burst of 3 rapid submissions never saw a 429 (rate 1/s, burst 2)"
# Not `curl | grep -q`: grep -q exits at the first match and curl, still
# writing a large /metrics page, fails the pipeline (pipefail) with EPIPE.
metrics=$(curl -fsS "$base/metrics")
printf '%s\n' "$metrics" | grep -q 'fdml_serve_rejections_total{tenant="lab-a",reason="rate_limited"}' ||
	fail "metrics missing the rate_limited rejection"
echo "   429 with Retry-After, labeled on /metrics"

echo "== job TTL: GC evicts the done job, CAS still answers"
sleep 4 # job-ttl 2s + gc-interval 1s
code=$(curl -s -o /dev/null -w '%{http_code}' "${auth[@]}" "$base/v1/jobs/$job_id")
[ "$code" = 404 ] || fail "evicted job still answers $code, want 404"
metrics=$(curl -fsS "$base/metrics")
printf '%s\n' "$metrics" | grep -q '^fdml_gc_runs_total [1-9]' || fail "metrics missing fdml_gc_runs_total"
printf '%s\n' "$metrics" | grep -q '^fdml_gc_jobs_evicted_total [1-9]' || fail "metrics missing fdml_gc_jobs_evicted_total"
resub=$(curl -fsS -X POST -H 'Content-Type: application/json' "${auth[@]}" \
	--data-binary @"$work/job.json" "$base/v1/jobs")
printf '%s' "$resub" | grep -q '"cache_hit": *true' || fail "post-GC resubmit not a cache hit: $resub"
echo "   job 404s, fdml_gc_* counters moved, resubmit still a cache hit"

echo "== tenant-labeled metrics (tenant from the API key)"
metrics=$(curl -fsS "$base/metrics")
for want in \
	'fdml_serve_submissions_total{tenant="lab-a"}' \
	'fdml_serve_cache_hits_total{tenant="lab-a"}' \
	'fdml_serve_jobs_total{tenant="lab-a",outcome="done"}' \
	'fdml_serve_auth_failures_total{reason="missing"} 1' \
	'fdml_serve_auth_failures_total{reason="unknown_key"} 1'; do
	printf '%s\n' "$metrics" | grep -qF "$want" || fail "metrics missing: $want"
done

echo "== graceful shutdown"
kill -TERM "$daemon_pid"
if ! wait "$daemon_pid"; then
	fail "daemon exited non-zero on SIGTERM"
fi
daemon_pid=

echo "== crash mid-search: kill -9, restart over the same -data, resume"
"$work/bin/simseq" -taxa 30 -sites 800 -seed 23 -out "$work/big.phy" 2>/dev/null
"$work/bin/fastdnaml" -in "$work/big.phy" -seed 9 -quiet -out "$work/bigref" >/dev/null
big_ref=$(cat "$work/bigref.best.tree")
start_daemon -data "$work/crash"
aln_json=$(awk '{printf "%s\\n", $0}' "$work/big.phy")
printf '{"alignment":"%s","options":{"seed":9}}' "$aln_json" >"$work/big.json"
big_id=$(submit "$work/big.json")
for _ in $(seq 1 3000); do
	[ -f "$work/crash/jobs/$big_id/manifest" ] && break
	sleep 0.01
done
[ -f "$work/crash/jobs/$big_id/manifest" ] || fail "job never wrote a restart manifest"
kill -KILL "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=
start_daemon -data "$work/crash"
metrics=$(curl -fsS "$base/metrics")
printf '%s\n' "$metrics" | grep -q '^fdml_serve_resumed_total 1$' ||
	fail "restarted daemon did not resume the job: $(printf '%s\n' "$metrics" | grep resumed_total)"
wait_done "$big_id"
got_tree=$(curl -fsS "${auth[@]}" "$base/v1/jobs/$big_id/result?format=newick")
[ "$got_tree" = "$big_ref" ] ||
	fail "resumed tree differs from serial run:
  serial:  $big_ref
  service: $got_tree"
echo "   resumed after SIGKILL, tree matches the serial run"
kill -TERM "$daemon_pid"
wait "$daemon_pid" || fail "restarted daemon exited non-zero on SIGTERM"
daemon_pid=

echo "== saturated fleet: two datasets, two job slots, one pod slot"
# The 30-taxon job holds the one pod slot long enough for the small one
# to find it taken.
start_daemon -data "$work/sat" -max-active 2 -max-pods 1
id1=$(submit "$work/big.json")
id2=$(submit "$work/job.json")
for pair in "$id1 $big_ref" "$id2 $ref_tree"; do
	id=${pair%% *}
	want=${pair#* }
	wait_done "$id"
	got_tree=$(curl -fsS "${auth[@]}" "$base/v1/jobs/$id/result?format=newick")
	[ "$got_tree" = "$want" ] ||
		fail "job $id's tree differs from serial run:
  serial:  $want
  service: $got_tree"
done
grep -q "job $id2: waiting for a pod" "$work/daemon.log" || fail "job $id2 never waited for the pod"
echo "   $id2 waited for the pod; both done, trees match the serial runs"
kill -TERM "$daemon_pid"
wait "$daemon_pid" || fail "saturated daemon exited non-zero on SIGTERM"
daemon_pid=

echo "serve-smoke: PASS"
