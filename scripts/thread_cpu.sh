#!/usr/bin/env bash
# Per-thread CPU of a running process over an interval:
#
#   scripts/thread_cpu.sh <pid> <seconds>
#
# Samples /proc/<pid>/task/*/{comm,schedstat,status} twice, <seconds>
# apart, and prints one row per thread that ran in between: its id, its
# name (mcached names its threads mc-net-N, mc-assoc, mc-slab,
# mc-adapt), the on-CPU microseconds (schedstat's first field) and the
# voluntary context switches (status's voluntary_ctxt_switches) spent in
# the interval, busiest first. A last row sums every thread. Divide by
# the operations served in the interval for per-operation figures.
set -euo pipefail

if [[ $# -ne 2 || ! -d /proc/$1/task ]]; then
    echo "usage: $0 <pid> <seconds>" >&2
    exit 2
fi
pid=$1
seconds=$2

# One line per live thread: tid comm cpu_ns voluntary_switches.
sample() {
    local t comm ns vol
    for t in /proc/"$pid"/task/*; do
        comm=$(tr ' ' '_' <"$t/comm" 2>/dev/null) || continue
        read -r ns _ <"$t/schedstat" 2>/dev/null || continue
        vol=$(awk '/^voluntary_ctxt_switches/ {print $2}' "$t/status" 2>/dev/null) || continue
        echo "${t##*/} $comm $ns $vol"
    done
}

before=$(sample)
sleep "$seconds"
after=$(sample)

# A thread absent from the first sample started inside the interval and
# counts from zero; one absent from the second exited and is not shown.
rows=$(awk -v before="$before" '
BEGIN {
    n = split(before, lines, "\n")
    for (i = 1; i <= n; i++) {
        split(lines[i], f, " ")
        ns0[f[1]] = f[3]; vol0[f[1]] = f[4]
    }
}
{
    cpu = ($3 - ns0[$1]) / 1000; vol = $4 - vol0[$1]
    if (cpu > 0 || vol > 0) printf "%8d %-16s %14.0f %10d\n", $1, $2, cpu, vol
}' <<<"$after")

printf "%8s %-16s %14s %10s\n" tid name cpu_us vol_csw
sort -k3,3nr <<<"$rows"
awk '{ cpu += $3; vol += $4 } END { printf "%8s %-16s %14.0f %10d\n", "-", "total", cpu, vol }' <<<"$rows"
