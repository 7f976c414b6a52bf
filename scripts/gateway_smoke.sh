#!/bin/sh
# Gateway smoke: start a real metadata server, four storage sites and
# the multi-tenant access gateway, drive a short open-loop HTTP sweep
# through it (ecbench -gateway), then assert from the daemon's own
# /metrics that (a) requests were admitted and proxied end to end and
# (b) the deliberately tiny admission queue shed at least one request
# under the overload point — the bounded queue turning overload into
# fast 429s is the property this job guards.
set -eux
cd "$(dirname "$0")/.."

BIN=$(mktemp -d)
PIDS=""
cleanup() {
  # shellcheck disable=SC2086
  [ -n "$PIDS" ] && kill $PIDS 2>/dev/null || true
  # The gateway runs under a retry subshell; killing the subshell
  # orphans the daemon, so sweep the unique binary dir by name too.
  pkill -f "$BIN/" 2>/dev/null || true
  rm -rf "$BIN"
}
trap cleanup EXIT INT TERM

go build -o "$BIN/" ./cmd/ecstore-meta ./cmd/ecstore-site \
    ./cmd/ecstore-gateway ./cmd/ecbench

META=127.0.0.1:7300
SITES=127.0.0.1:7301,127.0.0.1:7302,127.0.0.1:7303,127.0.0.1:7304
HTTP=127.0.0.1:7310
METRICS=127.0.0.1:7311

"$BIN/ecstore-meta" -addr $META -sites 4 & PIDS="$PIDS $!"
for i in 1 2 3 4; do
  "$BIN/ecstore-site" -addr 127.0.0.1:730$i -site $i & PIDS="$PIDS $!"
done

# The gateway dials meta and every site at startup and exits if any
# dial fails, so retry until the cluster's listeners are up. Tiny
# concurrency and queue so the overload point in the sweep below
# reliably overruns admission; -default-rate -1 admits any tenant name
# with no token-bucket limit, isolating queue shed.
(
  for try in $(seq 1 30); do
    "$BIN/ecstore-gateway" -http $HTTP -meta $META -sites $SITES \
        -concurrency 2 -queue-depth 2 -default-rate -1 \
        -metrics-addr $METRICS && break
    sleep 0.5
  done
) & PIDS="$PIDS $!"

# Wait for the gateway's HTTP front to come up.
up=0
for i in $(seq 1 60); do
  if curl -sf "http://$HTTP/healthz" >/dev/null 2>&1; then up=1; break; fi
  sleep 0.5
done
if [ "$up" -ne 1 ]; then echo "gateway never became healthy" >&2; exit 1; fi

# Open-loop sweep: 50 req/s is comfortably sustainable, 2000 req/s
# overruns two slots + two queue entries and must shed.
"$BIN/ecbench" -gateway "http://$HTTP" -gw-tenant smoke \
    -gw-rates 50,2000 -gw-duration 2s

metrics=$(curl -sf "http://$METRICS/metrics")
echo "$metrics" | grep gateway_ || true
# Nonzero admissions: the proxy path worked end to end.
echo "$metrics" | grep -Eq 'gateway_admitted_total [1-9]'
# At least one shed under overload: the bounded queue did its job.
echo "$metrics" | grep -Eq 'gateway_shed_total\{[^}]*\} [1-9]'

# A range whose off+len wraps int64 is answered 416 without reaching a
# site, and the daemon keeps serving the same key afterwards.
head -c 100000 /dev/urandom > "$BIN/blob"
curl -sf -X PUT --data-binary "@$BIN/blob" "http://$HTTP/v1/blocks/smoke-range" >/dev/null
code=$(curl -s -o /dev/null -w '%{http_code}' \
    "http://$HTTP/v1/blocks/smoke-range?off=9223372036854775800&len=100")
[ "$code" = 416 ]
curl -sf "http://$HTTP/healthz" >/dev/null
[ "$(curl -sf "http://$HTTP/v1/blocks/smoke-range" | wc -c)" -eq 100000 ]
echo "gateway smoke ok"
