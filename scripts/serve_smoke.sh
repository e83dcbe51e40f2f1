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

echo "== start daemon (auth + rate limit + short job TTL)"
good_key="smoke-key-0123456789abcdef"
printf '# smoke test keys\n%s lab-a\n' "$good_key" >"$work/keys"
"$work/bin/fastdnamld" -addr 127.0.0.1:0 -data "$work/data" -workers 2 \
	-api-keys "$work/keys" -rate 1 -burst 2 \
	-job-ttl 2s -result-ttl 10m -gc-interval 1s \
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

auth=(-H "Authorization: Bearer $good_key")

curl -fsS "$base/healthz" | grep -q '"status": *"ok"' || fail "/healthz not ok"

echo "== auth: missing and wrong keys are 401, good key works"
code=$(curl -s -o /dev/null -w '%{http_code}' "$base/v1/jobs")
[ "$code" = 401 ] || fail "unauthenticated list got $code, want 401"
code=$(curl -s -o /dev/null -w '%{http_code}' -H 'Authorization: Bearer wrong-key-00000000' "$base/v1/jobs")
[ "$code" = 401 ] || fail "wrong-key list got $code, want 401"
curl -fsS "${auth[@]}" "$base/v1/jobs" >/dev/null || fail "good key rejected"

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

echo "== wait for completion"
state=
for _ in $(seq 1 600); do
	rec=$(curl -fsS "${auth[@]}" "$base/v1/jobs/$job_id")
	state=$(printf '%s\n' "$rec" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p' | head -1)
	case "$state" in
	done) break ;;
	failed | canceled | quarantined) fail "job reached $state: $rec" ;;
	esac
	sleep 0.2
done
[ "$state" = done ] || fail "job stuck in state '$state'"

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

echo "serve-smoke: PASS"
