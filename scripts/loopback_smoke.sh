#!/usr/bin/env bash
# Loopback smoke test of the full gateway deployment: for each bundled
# protocol, spawn echo-server + decode-gateway + encode-gateway as real
# processes on 127.0.0.1 and round-trip a corpus of random messages
# through real sockets. Every process self-terminates via --accept-limit;
# the client is additionally bounded by `timeout`.
#
#   PROTOOBF_BIN    binary to test (default target/release/protoobf)
#   SMOKE_COUNT     messages per protocol (default 64)
#   SMOKE_TIMEOUT   client timeout seconds (default 120)
#   SMOKE_BASE_PORT first loopback port (default 19750)
set -euo pipefail

BIN="${PROTOOBF_BIN:-target/release/protoobf}"
COUNT="${SMOKE_COUNT:-64}"
CLIENT_TIMEOUT="${SMOKE_TIMEOUT:-120}"
PORT="${SMOKE_BASE_PORT:-19750}"
KEY=7
LEVEL=2

logdir=$(mktemp -d)
pids=()
cleanup() {
    status=$?
    for pid in "${pids[@]}"; do
        kill "$pid" 2>/dev/null || true
    done
    if [ "$status" -ne 0 ]; then
        echo "[smoke] failure (exit $status); server logs:" >&2
        tail -n +1 "$logdir"/*.log >&2 2>/dev/null || true
    fi
    rm -rf "$logdir"
}
trap cleanup EXIT

# Each server prints its "… on ADDR" line after binding its listener;
# polling the log avoids both a fixed-sleep race on loaded runners and
# probe connections (which would consume the --accept-limit budget).
wait_ready() { # <pattern> <log-file>
    for _ in $(seq 1 300); do
        grep -q "$1" "$2" 2>/dev/null && return 0
        sleep 0.1
    done
    echo "[smoke] timed out waiting for: $1" >&2
    return 1
}

# Static pre-flight: every configuration the chains below deploy must
# pass the plan verifier and spec linter before any process starts. A
# lint error here is a codec bug, not a deployment flake — fail fast
# with no ports, processes or timeouts in the picture. (The asymmetric
# chain profile is written here so it can be linted up front; the
# profile chain section below reuses the same file.)
profile="$logdir/chain.profile"
cat > "$profile" <<'PROFILE'
profile protoobf/1
tx builtin:dns-query
rx builtin:dns-response
key "loopback smoke shared secret"
level 2
PROFILE

for spec in dns-query http-request modbus-request; do
    "$BIN" lint "builtin:$spec" --key $KEY --level $LEVEL \
        >"$logdir/lint-$spec.log" 2>&1 \
        || { echo "[smoke] lint failed for builtin:$spec" >&2; exit 1; }
done
"$BIN" lint --profile "$profile" >"$logdir/lint-profile.log" 2>&1 \
    || { echo "[smoke] lint failed for the chain profile" >&2; exit 1; }
echo "[smoke] lint pre-flight: all chain configurations verify clean"

for spec in dns-query http-request modbus-request; do
    p_client=$PORT p_obf=$((PORT + 1)) p_server=$((PORT + 2))
    PORT=$((PORT + 3))

    "$BIN" recv "builtin:$spec" --listen "127.0.0.1:$p_server" --accept-limit 1 \
        2>"$logdir/$spec-recv.log" &
    recv_pid=$!
    "$BIN" gateway "builtin:$spec" --mode decode --key $KEY --level $LEVEL \
        --listen "127.0.0.1:$p_obf" --upstream "127.0.0.1:$p_server" --accept-limit 1 \
        2>"$logdir/$spec-decode.log" &
    dec_pid=$!
    "$BIN" gateway "builtin:$spec" --mode encode --key $KEY --level $LEVEL \
        --listen "127.0.0.1:$p_client" --upstream "127.0.0.1:$p_obf" --accept-limit 1 \
        2>"$logdir/$spec-encode.log" &
    enc_pid=$!
    pids+=("$recv_pid" "$dec_pid" "$enc_pid")

    wait_ready "echo server on" "$logdir/$spec-recv.log"
    wait_ready "gateway on" "$logdir/$spec-decode.log"
    wait_ready "gateway on" "$logdir/$spec-encode.log"
    timeout "$CLIENT_TIMEOUT" "$BIN" send "builtin:$spec" \
        --connect "127.0.0.1:$p_client" --count "$COUNT" --key 3

    # wait with multiple PIDs reports only the last one's status; loop so
    # a responder/decode-gateway failure cannot be masked.
    for pid in "$recv_pid" "$dec_pid" "$enc_pid"; do wait "$pid"; done
    echo "[smoke] $spec: $COUNT messages byte-identical through the gateway pair"
done

# The profile-driven chain: everything — including an asymmetric
# request/response split (dns-query up, dns-response back) — configured
# by copies of ONE profile file (written — and linted — in the
# pre-flight above). The gateways must print equal fingerprints; the
# responder answers each query with a response-grammar message the
# client verifies parse.
p_client=$PORT p_obf=$((PORT + 1)) p_server=$((PORT + 2))
PORT=$((PORT + 3))

"$BIN" recv --profile "$profile" --listen "127.0.0.1:$p_server" --accept-limit 1 \
    2>"$logdir/profile-recv.log" &
recv_pid=$!
"$BIN" gateway --profile "$profile" --mode decode \
    --listen "127.0.0.1:$p_obf" --upstream "127.0.0.1:$p_server" --accept-limit 1 \
    2>"$logdir/profile-decode.log" &
dec_pid=$!
"$BIN" gateway --profile "$profile" --mode encode \
    --listen "127.0.0.1:$p_client" --upstream "127.0.0.1:$p_obf" --accept-limit 1 \
    2>"$logdir/profile-encode.log" &
enc_pid=$!
pids+=("$recv_pid" "$dec_pid" "$enc_pid")

wait_ready "responder on" "$logdir/profile-recv.log"
wait_ready "gateway on" "$logdir/profile-decode.log"
wait_ready "gateway on" "$logdir/profile-encode.log"

fp_enc=$(grep -o 'fingerprint [0-9a-f]*' "$logdir/profile-encode.log" | head -1)
fp_dec=$(grep -o 'fingerprint [0-9a-f]*' "$logdir/profile-decode.log" | head -1)
if [ -z "$fp_enc" ] || [ "$fp_enc" != "$fp_dec" ]; then
    echo "[smoke] gateway fingerprints disagree: '$fp_enc' vs '$fp_dec'" >&2
    exit 1
fi
echo "[smoke] profile chain fingerprints agree: $fp_enc"

timeout "$CLIENT_TIMEOUT" "$BIN" send --profile "$profile" \
    --connect "127.0.0.1:$p_client" --count "$COUNT"

for pid in "$recv_pid" "$dec_pid" "$enc_pid"; do wait "$pid"; done
echo "[smoke] asymmetric profile chain: $COUNT query/response rounds relayed"

# The telemetry plane: an encode gateway serving --admin is scraped
# mid-run, between two client runs, with nothing but bash /dev/tcp —
# the same dependency-free access pattern a Prometheus scraper uses.
scrape() { # <port> <path>
    exec 3<>"/dev/tcp/127.0.0.1/$1"
    printf 'GET %s HTTP/1.0\r\n\r\n' "$2" >&3
    cat <&3
    exec 3<&-
}

spec=dns-query
p_client=$PORT p_obf=$((PORT + 1)) p_server=$((PORT + 2)) p_admin=$((PORT + 3))
PORT=$((PORT + 4))

"$BIN" recv "builtin:$spec" --listen "127.0.0.1:$p_server" --accept-limit 2 \
    2>"$logdir/telemetry-recv.log" &
recv_pid=$!
"$BIN" gateway "builtin:$spec" --mode decode --key $KEY --level $LEVEL \
    --listen "127.0.0.1:$p_obf" --upstream "127.0.0.1:$p_server" --accept-limit 2 \
    2>"$logdir/telemetry-decode.log" &
dec_pid=$!
"$BIN" gateway "builtin:$spec" --mode encode --key $KEY --level $LEVEL \
    --listen "127.0.0.1:$p_client" --upstream "127.0.0.1:$p_obf" --accept-limit 2 \
    --admin "127.0.0.1:$p_admin" 2>"$logdir/telemetry-encode.log" &
enc_pid=$!
pids+=("$recv_pid" "$dec_pid" "$enc_pid")

wait_ready "echo server on" "$logdir/telemetry-recv.log"
wait_ready "gateway on" "$logdir/telemetry-decode.log"
wait_ready "admin endpoint on" "$logdir/telemetry-encode.log"

scrape "$p_admin" /health | grep -q '^ok' \
    || { echo "[smoke] /health did not answer ok" >&2; exit 1; }

timeout "$CLIENT_TIMEOUT" "$BIN" send "builtin:$spec" \
    --connect "127.0.0.1:$p_client" --count "$COUNT" --key 3 --quiet

# The encode gateway decodes every client request AND every upstream
# echo: the live counter must read exactly 2×COUNT after run one.
msgs=$(scrape "$p_admin" /metrics \
    | awk '$1 == "protoobf_messages_in_total" {print $2}')
expected=$((COUNT * 2))
if [ "$msgs" != "$expected" ]; then
    echo "[smoke] mid-run /metrics: protoobf_messages_in_total=$msgs, expected $expected" >&2
    exit 1
fi
scrape "$p_admin" /events | grep -q 'accept' \
    || { echo "[smoke] /events shows no accept event" >&2; exit 1; }

timeout "$CLIENT_TIMEOUT" "$BIN" send "builtin:$spec" \
    --connect "127.0.0.1:$p_client" --count "$COUNT" --key 4

for pid in "$recv_pid" "$dec_pid" "$enc_pid"; do wait "$pid"; done
echo "[smoke] telemetry plane: live scrape saw $msgs relayed messages"

# The covert tunnel lane: a fixed file piped through a real two-process
# tunnel (client + server binaries) over the same asymmetric profile
# gateway chain, then diffed byte-for-byte. The client's stdin is held
# open through a FIFO so both endpoints stay alive mid-transfer and the
# goodput counters (payload_bytes_in/out) can be scraped live off each
# endpoint's --admin plane before EOF releases the stream.
wait_counter() { # <admin-port> <metric> <expected>
    v=
    for _ in $(seq 1 300); do
        v=$(scrape "$1" /metrics 2>/dev/null \
            | awk -v m="$2" '$1 == m {print $2}' || true)
        [ "$v" = "$3" ] && return 0
        sleep 0.1
    done
    echo "[smoke] timed out waiting for $2=$3 on port $1 (last: ${v:-none})" >&2
    return 1
}

payload="$logdir/tunnel-payload.bin"
seq -f 'covert payload line %05.0f' 1 3000 > "$payload"
payload_bytes=$(wc -c < "$payload" | tr -d ' ')

p_client=$PORT p_obf=$((PORT + 1)) p_server=$((PORT + 2))
p_admin_c=$((PORT + 3)) p_admin_s=$((PORT + 4))
PORT=$((PORT + 5))

"$BIN" tunnel --profile "$profile" --listen "127.0.0.1:$p_server" \
    --exit-on-eof --quiet --admin "127.0.0.1:$p_admin_s" \
    < /dev/null > "$logdir/tunnel-out.bin" 2>"$logdir/tunnel-server.log" &
srv_pid=$!
"$BIN" gateway --profile "$profile" --mode decode \
    --listen "127.0.0.1:$p_obf" --upstream "127.0.0.1:$p_server" --accept-limit 1 \
    2>"$logdir/tunnel-decode.log" &
dec_pid=$!
"$BIN" gateway --profile "$profile" --mode encode \
    --listen "127.0.0.1:$p_client" --upstream "127.0.0.1:$p_obf" --accept-limit 1 \
    2>"$logdir/tunnel-encode.log" &
enc_pid=$!
pids+=("$srv_pid" "$dec_pid" "$enc_pid")

wait_ready "tunnel server on" "$logdir/tunnel-server.log"
wait_ready "gateway on" "$logdir/tunnel-decode.log"
wait_ready "gateway on" "$logdir/tunnel-encode.log"

fifo="$logdir/tunnel-in.fifo"
mkfifo "$fifo"
"$BIN" tunnel --profile "$profile" --connect "127.0.0.1:$p_client" \
    --exit-on-eof --quiet --admin "127.0.0.1:$p_admin_c" \
    < "$fifo" > /dev/null 2>"$logdir/tunnel-client.log" &
cli_pid=$!
pids+=("$cli_pid")
exec 4>"$fifo" # unblocks the client's stdin open; stream stays live
wait_ready "admin endpoint on" "$logdir/tunnel-client.log"
cat "$payload" >&4

# Mid-stream, both processes still up: the client must have sourced the
# whole payload, the server must have sunk it — live goodput telemetry.
wait_counter "$p_admin_c" protoobf_payload_bytes_out_total "$payload_bytes"
wait_counter "$p_admin_s" protoobf_payload_bytes_in_total "$payload_bytes"

exec 4>&- # EOF: both stream directions complete, everything exits
for pid in "$cli_pid" "$srv_pid" "$dec_pid" "$enc_pid"; do wait "$pid"; done
cmp "$payload" "$logdir/tunnel-out.bin" || {
    echo "[smoke] tunnel output differs from the piped payload" >&2
    exit 1
}
echo "[smoke] tunnel: $payload_bytes bytes byte-identical through the covert channel"

echo "[smoke] all protocols passed"
