#!/usr/bin/env bash
# End-to-end smoke test of the gbserve daemon, exercising the full
# client-visible contract against a real process:
#
#   1. boot, /healthz and /readyz
#   2. the Figure 4 sweep over HTTP is byte-identical to gbbench stdout
#   3. a run job reports the guest's exit code
#   4. per-tenant admission control sheds with 429 + Retry-After and a
#      structured error body
#   5. /metrics exposes fleet, tenant-ledger and simulator counters,
#      latency histograms are populated, and the whole exposition
#      parses under the Prometheus text-format grammar
#   6. /v1/jobs/{id}/trace replays the run job's span tree (job, queue
#      wait, its one matrix cell, the attempt) and every response
#      carries an X-Request-Id
#   7. SIGTERM drains gracefully: the process exits 0, logs the drain,
#      and the -spans timeline ends with the drain span
#
# Usage: scripts/serve_smoke.sh [logdir]
# The server log and every intermediate artifact land in logdir
# (default: a temp dir), so CI can upload them on failure.
set -euo pipefail

cd "$(dirname "$0")/.."
logdir=${1:-$(mktemp -d)}
mkdir -p "$logdir"
log="$logdir/gbserve.log"

bin=$(mktemp -d)
srvpid=""
cleanup() {
	if [ -n "$srvpid" ] && kill -0 "$srvpid" 2>/dev/null; then
		kill -9 "$srvpid" 2>/dev/null || true
	fi
	rm -rf "$bin"
}
trap cleanup EXIT

go build -o "$bin/gbserve" ./cmd/gbserve
go build -o "$bin/gbbench" ./cmd/gbbench

# Port 0 lets the kernel pick a free port; the startup log tells us
# which. Tenant "capped" has an in-flight cap of 1 so one slow job is
# enough to trigger load shedding deterministically.
"$bin/gbserve" -addr 127.0.0.1:0 -workers 2 -job-parallelism 2 \
	-tenant smoke=4:0:0 -tenant capped=1:0:0 \
	-spans "$logdir/spans.jsonl" 2>"$log" &
srvpid=$!

port=""
for _ in $(seq 1 100); do
	port=$(sed -n 's/.*listening on .*:\([0-9]*\)$/\1/p' "$log" | head -1)
	[ -n "$port" ] && break
	kill -0 "$srvpid" 2>/dev/null || { echo "gbserve died at startup:"; cat "$log"; exit 1; }
	sleep 0.1
done
[ -n "$port" ] || { echo "gbserve never reported its port"; cat "$log"; exit 1; }
base="http://127.0.0.1:$port"

curl -fsS "$base/healthz" | grep -q '^ok$'
curl -fsS "$base/readyz" | grep -q '^ready$'
echo "ok: serving on $base"

# --- 2. fig4 over HTTP, byte-identical to the CLI ---------------------
"$bin/gbbench" -exp fig4 -n 8 >"$logdir/fig4.local.txt"
curl -fsS -X POST "$base/v1/jobs?wait=1" -H 'Content-Type: application/json' \
	-d '{"tenant":"smoke","kind":"fig4","n":8}' >"$logdir/fig4.job.json"
grep -q '"state": "done"' "$logdir/fig4.job.json"
id=$(sed -n 's/.*"id": "\([^"]*\)".*/\1/p' "$logdir/fig4.job.json" | head -1)
curl -fsS "$base/v1/jobs/$id/output" >"$logdir/fig4.http.txt"
diff "$logdir/fig4.local.txt" "$logdir/fig4.http.txt"
echo "ok: fig4 over HTTP is byte-identical to gbbench stdout"

# --- 3. run job carries the guest exit code ---------------------------
curl -fsS -X POST "$base/v1/jobs?wait=1" -H 'Content-Type: application/json' \
	-d '{"tenant":"smoke","kind":"run","program":"main:\n\tli a0, 42\n\tecall\n"}' \
	>"$logdir/run.job.json"
grep -q '"state": "done"' "$logdir/run.job.json"
grep -q '"exit_code": 42' "$logdir/run.job.json"
echo "ok: run job finished with the guest's exit code"

# --- 4. admission control sheds with 429 + Retry-After ----------------
slow='{"tenant":"capped","kind":"run","program":"main:\n\tli s1, 0\n\tli t0, 100000000\nloop:\n\taddi s1, s1, 1\n\tblt s1, t0, loop\n\tli a0, 0\n\tecall\n"}'
code=$(curl -s -o "$logdir/slow.job.json" -w '%{http_code}' \
	-X POST "$base/v1/jobs" -H 'Content-Type: application/json' -d "$slow")
test "$code" = 202 || { echo "slow job not admitted: $code"; cat "$logdir/slow.job.json"; exit 1; }
slowid=$(sed -n 's/.*"id": "\([^"]*\)".*/\1/p' "$logdir/slow.job.json" | head -1)
curl -s -D "$logdir/shed.headers" -o "$logdir/shed.json" \
	-X POST "$base/v1/jobs" -H 'Content-Type: application/json' -d "$slow"
grep -q '429' "$logdir/shed.headers"
grep -qi '^Retry-After:' "$logdir/shed.headers"
grep -q 'too_many_jobs' "$logdir/shed.json"
curl -fsS -X DELETE "$base/v1/jobs/$slowid" >/dev/null
echo "ok: in-flight cap shed with 429 + Retry-After (too_many_jobs)"

# --- 5. metrics expose fleet, ledger and simulator counters -----------
curl -fsS "$base/metrics" >"$logdir/metrics.txt"
for want in \
	'gbserve_jobs_submitted_total' \
	'gbserve_jobs_completed_total{state="done"}' \
	'gbserve_tenant_in_flight{tenant="smoke"}' \
	'gbserve_tenant_rejects_total{tenant="capped"}' \
	'gb_sim_cycles'; do
	grep -q "$want" "$logdir/metrics.txt" || { echo "metrics missing $want"; cat "$logdir/metrics.txt"; exit 1; }
done
grep -q 'gbserve_queue_wait_seconds_bucket{tenant="smoke"' "$logdir/metrics.txt" || {
	echo "queue-wait histogram not populated"; cat "$logdir/metrics.txt"; exit 1; }
grep -q 'gbserve_job_wall_seconds_bucket{tenant="smoke"' "$logdir/metrics.txt" || {
	echo "job-wall histogram not populated"; cat "$logdir/metrics.txt"; exit 1; }
# Full text-format grammar pass: every sample must belong to a family
# announced by # HELP + # TYPE, names must match the Prometheus
# grammar, and histogram buckets must be cumulative with le="+Inf"
# equal to _count.
python3 - "$logdir/metrics.txt" <<'EOF'
import re, sys
name_re = re.compile(r'^[a-zA-Z_:][a-zA-Z0-9_:]*$')
families, cur = {}, None
for ln in open(sys.argv[1]):
    ln = ln.rstrip("\n")
    assert ln, "blank line in exposition"
    if ln.startswith("# HELP "):
        cur = ln.split(" ", 3)[2]
        assert name_re.match(cur), cur
        assert cur not in families, f"duplicate family {cur}"
        families[cur] = {"type": None, "buckets": {}}
        continue
    if ln.startswith("# TYPE "):
        _, _, n, t = ln.split(" ", 3)
        assert n == cur and t in ("counter", "gauge", "histogram"), ln
        families[cur]["type"] = t
        continue
    assert not ln.startswith("#"), ln
    m = re.match(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$', ln)
    assert m, f"unparseable sample: {ln}"
    base = m.group(1)
    for suf in ("_bucket", "_sum", "_count"):
        if base.endswith(suf) and base[: -len(suf)] in families:
            base = base[: -len(suf)]
            break
    assert base == cur, f"sample {m.group(1)} outside its family block (cur={cur})"
    fam = families[cur]
    if fam["type"] == "histogram" and m.group(1).endswith("_bucket"):
        le = re.search(r'le="([^"]*)"', m.group(2))
        series = re.sub(r'le="[^"]*",?', "", m.group(2))
        fam["buckets"].setdefault(series, []).append(float(m.group(3)))
for n, fam in families.items():
    assert fam["type"], f"{n}: # HELP without # TYPE"
    for series, counts in fam["buckets"].items():
        assert counts == sorted(counts), f"{n}{series}: buckets not cumulative"
names = sorted(families)
assert names == list(families), "families not sorted"
hists = [n for n, f in families.items() if f["type"] == "histogram"]
assert "gbserve_queue_wait_seconds" in hists, hists
print(f"ok: {len(families)} families, {len(hists)} histograms, grammar clean")
EOF
echo "ok: metrics carry fleet, tenant-ledger and simulator counters; exposition grammar clean"

# --- 6. per-job trace replay + request-id correlation -----------------
runid=$(sed -n 's/.*"id": "\([^"]*\)".*/\1/p' "$logdir/run.job.json" | head -1)
curl -fsS -D "$logdir/trace.headers" "$base/v1/jobs/$runid/trace" >"$logdir/trace.jsonl"
grep -qi '^X-Request-Id:' "$logdir/trace.headers"
grep -qi "^X-Job-Id: $runid" "$logdir/trace.headers"
head -1 "$logdir/trace.jsonl" | grep -q 'ghostbusters/span/v1'
grep -q '"name":"job"' "$logdir/trace.jsonl"
grep -q '"name":"queue-wait"' "$logdir/trace.jsonl"
grep -q '"name":"cell"' "$logdir/trace.jsonl"
grep -q '"name":"attempt"' "$logdir/trace.jsonl"
grep -q "rid=" "$log"
echo "ok: trace endpoint replays the span tree; responses carry X-Request-Id"

# --- 7. graceful SIGTERM drain ----------------------------------------
kill -TERM "$srvpid"
rc=0
wait "$srvpid" || rc=$?
srvpid=""
test "$rc" -eq 0 || { echo "drain exited $rc:"; cat "$log"; exit 1; }
grep -q 'draining' "$log"
grep -q 'bye' "$log"
head -1 "$logdir/spans.jsonl" | grep -q 'ghostbusters/span/v1'
tail -1 "$logdir/spans.jsonl" | grep -q '"name":"drain"'
echo "ok: SIGTERM drained cleanly (exit 0); span timeline ends with the drain span"

echo "serve smoke: all checks passed (logs in $logdir)"
