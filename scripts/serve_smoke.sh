#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test of the xrserved daemon.
#
# Boots the daemon on an ephemeral port, loads TWO tricolor scenarios
# concurrently (K4: not 3-colorable, the marker fact is XR-certain;
# K3: 3-colorable, it is not), queries both end-to-end, and asserts the
# exact answer bodies. Also checks the graceful-degradation contract: a
# budget-capped request stays HTTP 200 with degraded signatures and
# ?-marked unknowns. (It sends no saturating load: that admission answers
# 429 is covered by TestSaturation429 in internal/server.) Once the
# queries return, /healthz must show every solver lane free and /metrics
# the lane-wait histogram. A budgeted re-ask of a decided query is then
# answered from the verdict memo and the cached query plan, and both
# counters move. Finally it drives the request-observability
# chain: one correlated request whose X-Request-Id shows up in the
# response header and body, the JSON access log, /v1/slowlog, and the
# fetched span tree. Run via `make serve-smoke`.
#
# The script then exercises crash-safe persistence: the daemon runs with
# -data-dir, so a SIGTERM + reboot over the same directory must bring both
# tenants back with zero re-POSTs and identical answers; corrupting one
# snapshot in place must still boot, with exactly one tenant quarantined
# (reported in /v1/store, /healthz, and an ERROR log line) and the name
# free for a fresh load.
#
# Set SMOKE_LOG to keep the daemon's JSON log at a stable path (CI
# uploads it as a workflow artifact); it defaults to the temp workdir.
# SMOKE_DATA_DIR likewise pins the persistence directory (uploaded on
# failure); it defaults to the temp workdir too. SMOKE_PROFILE pins where
# the final cumulative workload profile JSON is written (also a CI
# artifact).
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
server_pid=""
cleanup() {
  if [[ -n "$server_pid" ]] && kill -0 "$server_pid" 2>/dev/null; then
    kill -TERM "$server_pid" 2>/dev/null || true
    wait "$server_pid" 2>/dev/null || true
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
  echo "serve-smoke: FAIL: $*" >&2
  echo "--- server log ---" >&2
  cat "$server_log" >&2 || true
  exit 1
}

echo "serve-smoke: building xrserved"
go build -o "$workdir/xrserved" ./cmd/xrserved

server_log="${SMOKE_LOG:-$workdir/server.log}"
data_dir="${SMOKE_DATA_DIR:-$workdir/data}"
profile_out="${SMOKE_PROFILE:-$workdir/profile.json}"
: >"$server_log"

# start_daemon boots xrserved over the shared data dir and appends to the
# shared log; stop_daemon SIGTERMs and asserts a clean drain. Every boot
# in this script goes through the same pair, so the restart legs exercise
# exactly the production lifecycle.
drains=0
start_daemon() {
  : >"$workdir/addr"
  # JSON logs + a 1ms slow-query threshold: the tricolor solves comfortably
  # exceed it, so the correlated query below lands in /v1/slowlog.
  "$workdir/xrserved" -addr 127.0.0.1:0 -addr-file "$workdir/addr" \
    -log-format json -slow-query 1ms -data-dir "$data_dir" \
    >>"$server_log" 2>&1 &
  server_pid=$!
  for _ in $(seq 1 100); do
    [[ -s "$workdir/addr" ]] && break
    kill -0 "$server_pid" 2>/dev/null || fail "daemon exited before listening"
    sleep 0.1
  done
  [[ -s "$workdir/addr" ]] || fail "daemon never wrote -addr-file"
  base="http://$(cat "$workdir/addr")"
}

stop_daemon() {
  kill -TERM "$server_pid"
  wait "$server_pid" || fail "daemon exited non-zero on SIGTERM"
  server_pid=""
  drains=$((drains + 1))
  [[ "$(grep -c "drained cleanly" "$server_log")" == "$drains" ]] \
    || fail "missing clean-drain log line for boot $drains"
}

start_daemon
echo "serve-smoke: daemon at $base (data dir $data_dir)"

curl -fsS "$base/healthz" >/dev/null || fail "healthz unreachable"

# The Theorem 3 tricolor gadget (examples/tricolor), shared by both tenants.
mapping=$(cat <<'EOF'
source E(x, y, u, v).
source Cr(x).
source Cg(x).
source Cb(x).
source F(u, v).
target E1(x, y).
target F1(u, v).
target Fsrc(u, v).
target Cr1(x).
target Cg1(x).
target Cb1(x).

tgd E(x, y, u, v) & Cr(x) -> E1(x, y).
tgd E(x, y, u, v) & Cg(x) -> E1(x, y).
tgd E(x, y, u, v) & Cb(x) -> E1(x, y).
tgd E(x, y, u, v) & Cr(x) -> F1(u, v).
tgd E(x, y, u, v) & Cg(x) -> F1(u, v).
tgd E(x, y, u, v) & Cb(x) -> F1(u, v).
tgd Cr(x) -> Cr1(x).
tgd Cg(x) -> Cg1(x).
tgd Cb(x) -> Cb1(x).
tgd F(u, v) -> F1(u, v).
tgd F(u, v) -> Fsrc(u, v).
tgd trans: F1(u, v) & F1(v, w) -> F1(u, w).

egd E1(x, y) & Cr1(x) & Cr1(y) & F1(u, v) -> u = v.
egd E1(x, y) & Cg1(x) & Cg1(y) & F1(u, v) -> u = v.
egd E1(x, y) & Cb1(x) & Cb1(y) & F1(u, v) -> u = v.
egd F1(u, u) & F1(v, w) -> v = w.
EOF
)

k4_facts=$(cat <<'EOF'
E(a, b, n1, n2). E(c, a, n2, n3). E(d, a, n3, n4).
E(b, c, n4, n5). E(b, d, n5, n6). E(c, d, n6, n7).
Cr(a). Cg(a). Cb(a).
Cr(b). Cg(b). Cb(b).
Cr(c). Cg(c). Cb(c).
Cr(d). Cg(d). Cb(d).
F(n7, n1).
EOF
)

k3_facts=$(cat <<'EOF'
E(a, b, n1, n2). E(b, c, n2, n3). E(c, a, n3, n4).
Cr(a). Cg(a). Cb(a).
Cr(b). Cg(b). Cb(b).
Cr(c). Cg(c). Cb(c).
F(n4, n1).
EOF
)

# Load both scenarios concurrently: the daemon must host ≥2 tenants at once.
echo "serve-smoke: loading tri-k4 and tri-k3 concurrently"
jq -n --arg m "$mapping" --arg f "$k4_facts" \
  '{name:"tri-k4", mapping:$m, facts:$f, queries:"inAllRepairs() :- Fsrc(n7, n1).\n"}' \
  >"$workdir/k4.json"
jq -n --arg m "$mapping" --arg f "$k3_facts" \
  '{name:"tri-k3", mapping:$m, facts:$f, queries:"inAllRepairs() :- Fsrc(n4, n1).\n"}' \
  >"$workdir/k3.json"
curl -fsS -X POST -d @"$workdir/k4.json" "$base/v1/scenarios" >"$workdir/load_k4.json" &
load_k4=$!
curl -fsS -X POST -d @"$workdir/k3.json" "$base/v1/scenarios" >"$workdir/load_k3.json" &
load_k3=$!
wait "$load_k4" || fail "loading tri-k4"
wait "$load_k3" || fail "loading tri-k3"

count=$(curl -fsS "$base/v1/scenarios" | jq '.scenarios | length')
[[ "$count" == "2" ]] || fail "scenario count = $count, want 2"

# Graceful degradation over the wire: a one-decision budget cannot decide
# the conflicted signatures, yet the response is HTTP 200 with the
# signatures reported degraded and the undecided tuple ?-marked (in the
# unknown set) — a sound partial answer, not an error. These legs run
# while tri-k4's verdict is still undecided: once an unbudgeted ask has
# decided it, the persistent solver's verdict memo answers every later ask
# without searching (DESIGN.md §17), so no budget could run out.
deg=$(curl -fsS -X POST -d '{"name":"inAllRepairs","max_decisions":1}' \
  "$base/v1/scenarios/tri-k4/query")
[[ "$(jq '.partial' <<<"$deg")" == "true" ]] || fail "budgeted query not partial: $deg"
[[ "$(jq '.answers.degraded_signatures' <<<"$deg")" -ge 1 ]] \
  || fail "budgeted query reports no degraded signatures: $deg"
[[ "$(jq -c '.answers.unknown' <<<"$deg")" == "[[]]" ]] \
  || fail "budgeted query unknown = $(jq -c '.answers.unknown' <<<"$deg"), want [[]]"

# The same degraded query as an NDJSON stream must ?-mark the unknown row.
stream=$(curl -fsS -X POST -H 'Accept: application/x-ndjson' \
  -d '{"name":"inAllRepairs","max_decisions":1}' "$base/v1/scenarios/tri-k4/query")
grep -q '"frame":"unknown","mark":"?"' <<<"$stream" \
  || fail "stream lacks ?-marked unknown frame: $stream"
grep -q '"frame":"end"' <<<"$stream" || fail "stream not terminated: $stream"

# K4 is not 3-colorable: the marker fact is in every source repair, so the
# boolean query is XR-certain — exactly one empty tuple. K3 is 3-colorable:
# no certain answer. Assert the exact tuple bodies (the same answers the
# library path computes; internal/server tests pin byte-identity). The
# tri-k4 ask is the tenant's first unbudgeted one, so it searches: it
# doubles as the correlated request checked below.
rid="smoke-corr-1"
echo "serve-smoke: driving correlation chain as $rid"
q4=$(curl -fsS -D "$workdir/corr_headers" -X POST -H "X-Request-Id: $rid" \
  -d '{"name":"inAllRepairs"}' "$base/v1/scenarios/tri-k4/query?trace=1")
[[ "$(jq -c '.answers.tuples' <<<"$q4")" == "[[]]" ]] \
  || fail "tri-k4 tuples = $(jq -c '.answers.tuples' <<<"$q4"), want [[]]"
[[ "$(jq '.answers.degraded_signatures' <<<"$q4")" == "0" ]] \
  || fail "tri-k4 unexpectedly degraded: $q4"

q3=$(curl -fsS -X POST -d '{"name":"inAllRepairs"}' "$base/v1/scenarios/tri-k3/query")
[[ "$(jq -c '.answers.tuples' <<<"$q3")" == "[]" ]] \
  || fail "tri-k3 tuples = $(jq -c '.answers.tuples' <<<"$q3"), want []"

# Both queries have returned, so every solver lane is back in the pool (a
# job that leaked its lane would show here), and the lane waits of their
# signature jobs were timed.
lanes_busy=$(curl -fsS "$base/healthz" | jq '.lanes_busy')
[[ "$lanes_busy" == "0" ]] || fail "healthz lanes_busy = $lanes_busy after every query returned, want 0"
metrics=$(curl -fsS "$base/metrics")
grep -q '^xr_lane_wait_seconds_count [1-9]' <<<"$metrics" \
  || fail "metrics lack a moving xr_lane_wait_seconds histogram"

# Now that tri-k4's verdict is known, the verdict memo answers a budgeted
# re-ask exactly: no session runs, so no budget is spent and nothing
# degrades, and the memo-hit counter moves. The query's plan (its
# candidates, safe answers and signature groups) was built by its first
# ask above, so the re-ask is served from it and the plan-hit counter
# moves too.
counter() {
  curl -fsS "$base/metrics" | awk -v s="$1" '$1 == s {print $2}'
}
memo_hits() { counter xr_solver_verdict_memo_hits_total; }
plan_hits() { counter xr_query_plan_hits_total; }
hits_before=$(memo_hits)
plans_before=$(plan_hits)
memo=$(curl -fsS -X POST -d '{"name":"inAllRepairs","max_decisions":1}' \
  "$base/v1/scenarios/tri-k4/query")
[[ "$(jq '.partial' <<<"$memo")" == "false" ]] \
  || fail "budgeted re-ask of a decided verdict is partial: $memo"
[[ "$(jq -c '.answers.tuples' <<<"$memo")" == "[[]]" ]] \
  || fail "budgeted re-ask tuples = $(jq -c '.answers.tuples' <<<"$memo"), want [[]]"
hits_after=$(memo_hits)
[[ -n "$hits_after" && "$hits_after" -gt "${hits_before:-0}" ]] \
  || fail "budgeted re-ask did not move xr_solver_verdict_memo_hits_total ($hits_before -> $hits_after)"
plans_after=$(plan_hits)
[[ -n "$plans_after" && "$plans_after" -gt "${plans_before:-0}" ]] \
  || fail "budgeted re-ask did not move xr_query_plan_hits_total ($plans_before -> $plans_after)"

# The tenant keeps what its queries built (signature programs, persistent
# solvers, query plans) as its query state, reported per tenant; the
# default byte bound is far above this workload, so nothing was evicted.
state_bytes=$(curl -fsS "$base/v1/scenarios/tri-k4" | jq '.query_state_bytes')
[[ -n "$state_bytes" && "$state_bytes" -gt 0 ]] \
  || fail "tri-k4 query_state_bytes = $state_bytes after its queries, want > 0"
[[ "$(counter xr_query_state_evictions_total)" == "0" ]] \
  || fail "xr_query_state_evictions_total = $(counter xr_query_state_evictions_total), want 0"

# Per-tenant metrics are exposed on the same mux. Capture the body before
# grepping: `curl | grep -q` races (grep exits on match, curl dies with
# EPIPE, and pipefail turns that into a spurious failure).
metrics=$(curl -fsS "$base/metrics")
grep -q 'xr_server_queries_total{mode="certain",scenario="tri-k4"}' <<<"$metrics" \
  || fail "metrics missing per-tenant series"

# The tenant's queries ran through the engine, so the solver series —
# including the persistent-solver (DESIGN.md §17) counters — must be
# exported and moving: reuse is observable from xrserved, not only from
# the library.
for series in xr_solver_decisions_total xr_solver_reuse_builds_total \
  xr_solver_reuse_sessions_total xr_solver_assumption_solves_total; do
  grep -q "^$series" <<<"$metrics" \
    || fail "metrics missing solver series $series"
  [[ "$(awk -v s="$series" '$1 == s {print $2}' <<<"$metrics")" != "0" ]] \
    || fail "solver series $series never moved"
done

# --- Request observability: the full correlation chain off ONE request. ---
# A single slow query must be traceable end to end by its X-Request-Id:
# response header == response body == JSON access log == /v1/slowlog
# entry == fetched span tree, and the RED counter increments. The request
# is tri-k4's first unbudgeted ask above ($q4): a re-ask would be answered
# from the verdict memo without solver work, too fast for the slowlog.
grep -qi "^x-request-id: $rid" "$workdir/corr_headers" \
  || fail "response header X-Request-Id != $rid: $(cat "$workdir/corr_headers")"
[[ "$(jq -r '.request_id' <<<"$q4")" == "$rid" ]] \
  || fail "response body request_id != $rid: $q4"
[[ "$(jq '.trace | length' <<<"$q4")" -ge 1 ]] \
  || fail "?trace=1 returned no spans: $q4"

# The daemon writes its log/slowlog/trace-ring entries AFTER flushing the
# response, so poll briefly for the log lines; fromjson? tolerates a line
# the daemon is mid-write on. The rings are populated before their log
# lines, so once a line is visible the matching endpoint is consistent.
log_line() { # log_line <jq filter> — prints the last matching log object
  local filter=$1 out
  for _ in $(seq 1 40); do
    out=$(jq -c -R 'fromjson? // empty' "$server_log" | jq -c "select($filter)" | tail -n 1)
    if [[ -n "$out" ]]; then
      printf '%s\n' "$out"
      return 0
    fi
    sleep 0.05
  done
  return 1
}

# JSON access log: one structured line for the request, right fields.
access=$(log_line ".msg == \"request\" and .request_id == \"$rid\"") \
  || fail "no JSON access-log line for $rid"
[[ "$(jq -r '.route' <<<"$access")" == "/v1/scenarios/{name}/query" ]] \
  || fail "access log route: $access"
[[ "$(jq -r '.tenant' <<<"$access")" == "tri-k4" ]] || fail "access log tenant: $access"
[[ "$(jq -r '.status' <<<"$access")" == "200" ]] || fail "access log status: $access"
[[ "$(jq '.decisions' <<<"$access")" -ge 1 ]] \
  || fail "access log lacks per-request solver work: $access"

# Slowlog: the 1ms threshold captured it (record + span tree) and the
# WARN line fired.
log_line ".msg == \"slow query\" and .request_id == \"$rid\"" >/dev/null \
  || fail "no WARN slow-query log line for $rid"
slowlog=$(curl -fsS "$base/v1/slowlog")
entry=$(jq -c ".entries[] | select(.request_id == \"$rid\")" <<<"$slowlog")
[[ -n "$entry" ]] || fail "/v1/slowlog has no entry for $rid: $slowlog"
[[ "$(jq '.trace | length' <<<"$entry")" -ge 1 ]] \
  || fail "slowlog entry lacks span tree: $entry"

# Trace ring: the span tree is fetchable by request ID and stamped with it.
trace=$(curl -fsS "$base/v1/requests/$rid/trace")
[[ "$(jq -r '.request_id' <<<"$trace")" == "$rid" ]] || fail "trace fetch id: $trace"
jq -e '.trace[].args[]? | select(.key == "request_id" and .value == "smoke-corr-1")' \
  <<<"$trace" >/dev/null || fail "span tree not stamped with request id: $trace"

# --- Workload hardness profile: the tricolor solves above forced real
# conflict-driven search, so the per-signature accounting must be live
# over the wire — nonzero conflicts, canonical signature keys, a working
# top-N/sort projection, the healthz aggregate, and the slowlog entry's
# hardest-signature keys. ---
profile=$(curl -fsS "$base/v1/scenarios/tri-k4/profile")
[[ "$(jq '.profile.solves' <<<"$profile")" -ge 1 ]] \
  || fail "profile records no solves: $profile"
[[ "$(jq '[.profile.signatures[].conflicts] | add' <<<"$profile")" -ge 1 ]] \
  || fail "tricolor signatures show no conflicts: $profile"
jq -e '.profile.signatures[0].key != "" and (.profile.clusters | length) >= 1' \
  <<<"$profile" >/dev/null || fail "profile lacks signature keys or cluster shapes: $profile"
top1=$(curl -fsS "$base/v1/scenarios/tri-k4/profile?top=1&sort=conflicts")
[[ "$(jq '.profile.signatures | length' <<<"$top1")" == "1" ]] \
  || fail "profile top=1 did not truncate: $top1"
[[ "$(jq '.hot_signatures | length' <<<"$entry")" -ge 1 ]] \
  || fail "slowlog entry lacks hot signature keys: $entry"
curl -fsS "$base/healthz" | jq -e '.profile.scenarios >= 1 and .profile.solves >= 1' \
  >/dev/null || fail "healthz lacks the profile aggregate"
pre_solves=$(jq '.profile.solves' <<<"$profile")

# RED metrics: the per-route counter incremented for this tenant.
metrics=$(curl -fsS "$base/metrics")
grep -q 'xr_http_requests_total{code="200",route="/v1/scenarios/{name}/query",tenant="tri-k4"}' \
  <<<"$metrics" || fail "metrics missing RED series for the query route"

# Live introspection is mounted (the listing includes at least itself).
curl -fsS "$base/v1/inflight" | jq -e '.requests | length >= 1' >/dev/null \
  || fail "/v1/inflight empty or unreachable"

# Enriched health document keeps its status-code semantics.
curl -fsS "$base/healthz" | jq -e '.uptime_seconds >= 0 and .version != ""' >/dev/null \
  || fail "healthz missing uptime/version"

# Both tenants persisted to the data dir.
curl -fsS "$base/v1/store" | jq -e '.enabled and .store.persisted == 2 and .store.dirty == 0' \
  >/dev/null || fail "/v1/store does not track both tenants"

# Graceful drain: SIGTERM lets the daemon exit 0 with nothing in flight.
stop_daemon

# --- Crash-safe persistence: reboot over the same data dir. Both tenants
# must come back with ZERO re-POSTs and answer identically. ---
echo "serve-smoke: rebooting from $data_dir"
start_daemon
count=$(curl -fsS "$base/v1/scenarios" | jq '.scenarios | length')
[[ "$count" == "2" ]] || fail "after restart scenario count = $count, want 2 (no re-POSTs)"

# The drain persisted each tenant's workload profile beside its snapshot;
# the reboot must restore the pre-restart cumulative accounting exactly —
# no queries have run yet on this boot.
grep -q '"msg":"workload profile restored"' "$server_log" \
  || fail "no profile-restored log line after reboot"
profile_r=$(curl -fsS "$base/v1/scenarios/tri-k4/profile")
[[ "$(jq '.profile.solves' <<<"$profile_r")" == "$pre_solves" ]] \
  || fail "restored profile solves = $(jq '.profile.solves' <<<"$profile_r"), want pre-restart $pre_solves"

q4r=$(curl -fsS -X POST -d '{"name":"inAllRepairs"}' "$base/v1/scenarios/tri-k4/query")
[[ "$(jq -c '.answers.tuples' <<<"$q4r")" == "$(jq -c '.answers.tuples' <<<"$q4")" ]] \
  || fail "tri-k4 answers differ after restart: $q4r"
q3r=$(curl -fsS -X POST -d '{"name":"inAllRepairs"}' "$base/v1/scenarios/tri-k3/query")
[[ "$(jq -c '.answers.tuples' <<<"$q3r")" == "$(jq -c '.answers.tuples' <<<"$q3")" ]] \
  || fail "tri-k3 answers differ after restart: $q3r"
curl -fsS "$base/v1/store" | jq -e '.store.persisted == 2 and .store.quarantined == 0' \
  >/dev/null || fail "/v1/store wrong after restart"
curl -fsS "$base/healthz" | jq -e '.store.persisted == 2 and .store.data_dir != ""' \
  >/dev/null || fail "healthz store block wrong after restart"
grep -q '"msg":"scenario recovery complete"' "$server_log" \
  || fail "no recovery summary log line"

# This boot's queries accrue ON TOP of the restored history, and the
# cumulative document is kept as a CI artifact at a stable path.
curl -fsS "$base/v1/scenarios/tri-k4/profile" >"$profile_out" \
  || fail "fetching the cumulative profile artifact"
[[ "$(jq '.profile.solves' "$profile_out")" -gt "$pre_solves" ]] \
  || fail "post-restart queries did not accrue onto the restored profile: $(cat "$profile_out")"
stop_daemon

# --- Corruption: damage one snapshot in place. Boot must still succeed,
# quarantining exactly that tenant and leaving the name loadable. ---
snap="$data_dir/scenarios/tri-k3/snapshot.xr"
[[ -f "$snap" ]] || fail "expected snapshot at $snap"
echo "serve-smoke: corrupting $snap in place"
printf 'ROTROTROT' | dd of="$snap" bs=1 seek=100 conv=notrunc status=none
start_daemon
count=$(curl -fsS "$base/v1/scenarios" | jq '.scenarios | length')
[[ "$count" == "1" ]] || fail "after corruption scenario count = $count, want 1"
store=$(curl -fsS "$base/v1/store")
jq -e '.store.persisted == 1 and .store.quarantined == 1' <<<"$store" >/dev/null \
  || fail "/v1/store after corruption: $store"
jq -e '.store.quarantine | length == 1 and .[0].name == "tri-k3" and .[0].id != ""' \
  <<<"$store" >/dev/null || fail "quarantine record wrong: $store"
curl -fsS "$base/healthz" | jq -e '.store.quarantined == 1' >/dev/null \
  || fail "healthz does not report the quarantine"
jq -c -R 'fromjson? // empty' "$server_log" \
  | jq -se 'map(select(.msg == "scenario quarantined" and .level == "ERROR" and .request_id != "")) | length >= 1' \
  >/dev/null || fail "no structured ERROR line for the quarantine"
# The healthy tenant still answers; the damaged one 404s but loads fresh.
q4c=$(curl -fsS -X POST -d '{"name":"inAllRepairs"}' "$base/v1/scenarios/tri-k4/query")
[[ "$(jq -c '.answers.tuples' <<<"$q4c")" == "[[]]" ]] \
  || fail "tri-k4 broken by sibling corruption: $q4c"
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST -d '{"name":"inAllRepairs"}' \
  "$base/v1/scenarios/tri-k3/query")
[[ "$code" == "404" ]] || fail "quarantined tenant served $code, want 404"
curl -fsS -X POST -d @"$workdir/k3.json" "$base/v1/scenarios" >/dev/null \
  || fail "re-loading the quarantined tenant name"
q3c=$(curl -fsS -X POST -d '{"name":"inAllRepairs"}' "$base/v1/scenarios/tri-k3/query")
[[ "$(jq -c '.answers.tuples' <<<"$q3c")" == "[]" ]] \
  || fail "re-loaded tri-k3 answers wrong: $q3c"
curl -fsS "$base/v1/store" | jq -e '.store.persisted == 2' >/dev/null \
  || fail "re-loaded tenant not re-persisted"
stop_daemon

echo "serve-smoke: PASS"
