#!/usr/bin/env bash
# Runs the codec bench rows that match FILTER in N fresh processes of one
# bench binary and reports, per row, each process's median, the min /
# median / max of those medians and their max/min spread. A row whose
# spread is wide depends on the process that runs it, so a before/after
# comparison of it needs several processes per side.
#
#   scripts/bench_spread.sh FILTER N [--no-aslr]
#
# FILTER is a bench-name substring as `cargo bench -- FILTER` takes it
# (for example `relay/modbus`). `--no-aslr` runs each process under
# `setarch -R`, which turns address-space randomization off for that
# process only. The report goes to stdout; each process's own output is
# written under a temporary directory, removed afterwards unless a
# process failed. A filter that skips some of a group's rows leaves that
# group's BENCH_*.json trajectory alone (the harness writes whole groups
# only); a filter that selects whole groups rewrites theirs.
set -euo pipefail

usage() {
    echo "usage: $0 FILTER N [--no-aslr]" >&2
    exit 2
}
[ $# -ge 2 ] && [ $# -le 3 ] || usage
filter=$1
n=$2
[[ $n =~ ^[1-9][0-9]*$ ]] || usage
wrap=()
if [ $# -eq 3 ]; then
    [ "$3" = --no-aslr ] || usage
    wrap=(setarch "$(uname -m)" -R)
fi

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
bin=$(cargo bench --offline -p protoobf-bench --bench codec --no-run 2>&1 |
    sed -n 's/.*Executable .*(\(.*\)).*/\1/p' | tail -n 1)
[ -n "$bin" ] || {
    echo "$0: cannot find the codec bench binary" >&2
    exit 1
}
case $bin in /*) ;; *) bin=$root/$bin ;; esac

runs=$(mktemp -d)
cleanup() {
    [ -n "$failed" ] || rm -rf "$runs"
}
failed=
trap cleanup EXIT
echo "[spread] $n processes of $(basename "$bin") on '$filter'${wrap:+ (no ASLR)}" >&2

for i in $(seq 1 "$n"); do
    # As `cargo bench` runs it: from the bench package's directory.
    (cd crates/bench && "${wrap[@]}" "$bin" --bench "$filter") >"$runs/run.$i" 2>&1 || {
        failed=1
        echo "$0: process $i failed, see $runs/run.$i" >&2
        exit 1
    }
done

# Each row's median per process (`name  time: [min median max]`, times
# with a unit), in nanoseconds, then one report line per row.
for i in $(seq 1 "$n"); do
    awk -v run="$i" '/ time: \[/ {
        name = $1
        line = $0
        sub(/.* time: \[ */, "", line)
        split(line, f, " ")
        v = f[3]; u = f[4]
        scale = (u == "ns") ? 1 : (u == "ms") ? 1e6 : 1e3
        printf "%s %d %.1f\n", name, run, v * scale
    }' "$runs/run.$i"
done | awk -v n="$n" '
    function median(a, k,    s, i, j, t) {
        for (i = 1; i <= k; i++) s[i] = a[i]
        for (i = 2; i <= k; i++)
            for (j = i; j > 1 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
        lo = s[1]; hi = s[k]
        return (k % 2) ? s[(k + 1) / 2] : (s[k / 2] + s[k / 2 + 1]) / 2
    }
    {
        if (!($1 in count)) order[++rows] = $1
        vals[$1, ++count[$1]] = $3
    }
    END {
        printf "# %d processes; per-process medians, then min / median / max and max/min (us)\n", n
        for (r = 1; r <= rows; r++) {
            name = order[r]
            k = count[name]
            per = ""
            for (i = 1; i <= k; i++) { a[i] = vals[name, i]; per = per sprintf(" %.3f", a[i] / 1e3) }
            m = median(a, k)
            printf "%s\n  per process:%s\n  min %.3f  median %.3f  max %.3f  spread %.2fx\n",
                name, per, lo / 1e3, m / 1e3, hi / 1e3, hi / lo
        }
    }'
