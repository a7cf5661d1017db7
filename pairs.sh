#!/usr/bin/env bash
# Alternating pairs of one benchmark workload: a parent revision against
# the working tree, or (--aa) against itself.
#
# Each side is built `--release --offline --locked` from its own source
# tree into its own target dir: the parent from `git archive PARENT_REV`
# (local objects only, nothing is fetched), the change from the working
# tree as it stands. Pair i runs seed SEED_BASE + i on both sides; odd
# pairs run the parent first, even pairs the change first. Nothing under
# benchmark/ is changed: this script only runs its `zc-benchmark run`
# and reads the JSON result line it prints last.
#
# Output: one row per end-to-end metric of BENCHMARK.json with each
# side's median, the parent's inter-quartile range (IQR) and IQR/median
# (the noise floor; in --aa mode that column is the point of the run),
# the change's median delta, how many pairs the change was ahead in, and
# the claim protocol's verdict: `better` (or `worse`) when one side is
# ahead in at least 9 of every 10 pairs and the medians differ by more
# than the parent's IQR, else `noise`. Verdicts are printed, never
# gated: the exit status is non-zero only if a run fails or reports
# failed operations.
#
# Usage: ./pairs.sh [--aa] PARENT_REV WORKLOAD PAIRS SEED_BASE SECONDS
#   e.g. ./pairs.sh HEAD~1 zc_planes 10 5301 14
# Work dir: $PAIRS_DIR (default target/pairs); every run's result line
# is kept there, in WORKLOAD-SEED_BASE.runs.
set -euo pipefail
cd "$(dirname "$0")"

aa=0
[[ "${1:-}" == "--aa" ]] && { aa=1; shift; }
if [[ $# -ne 5 ]]; then
    sed -n '/^# Usage/,/^# Work dir/p' "$0" >&2
    exit 2
fi
parent_rev=$1 workload=$2 pairs=$3 seed_base=$4 seconds=$5
root=$PWD
work=${PAIRS_DIR:-$root/target/pairs}
mkdir -p "$work"

# build SRC_DIR TARGET_DIR: the benchmark binary of one source tree.
build() {
    cargo build -q --release --offline --locked \
        --manifest-path "$1/benchmark/Cargo.toml" --target-dir "$2" >&2
    echo "$2/release/zc-benchmark"
}

sha=$(git rev-parse --short "$parent_rev^{commit}")
src="$work/src-$sha"
if [[ ! -d $src ]]; then
    mkdir -p "$src.tmp"
    git archive "$sha" | tar -x -C "$src.tmp"
    mv "$src.tmp" "$src"
fi
echo "==> building parent $sha" >&2
parent_bin=$(build "$src" "$work/target-$sha")
if [[ $aa -eq 1 ]]; then
    change_bin=$parent_bin
    change_name="$sha (A/A)"
else
    echo "==> building the working tree" >&2
    change_bin=$(build "$root" "$work/target-change")
    change_name="working tree"
fi

runs="$work/$workload-$seed_base.runs"
: > "$runs"
status=0
# run SIDE PAIR SEED BIN: one run, its result line appended to $runs.
run() {
    local line
    line=$("$4" run --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1)
    echo "$1 $2 $3 $line" >> "$runs"
    case $line in
        *'"correct":true'*'"failed":0,'*) ;;
        *) echo "pairs.sh: $1 run of pair $2 (seed $3) failed: $line" >&2; status=1 ;;
    esac
}
for ((i = 1; i <= pairs; i++)); do
    seed=$((seed_base + i - 1))
    echo "==> pair $i/$pairs, seed $seed" >&2
    if ((i % 2 == 1)); then
        run parent "$i" "$seed" "$parent_bin"
        run change "$i" "$seed" "$change_bin"
    else
        run change "$i" "$seed" "$change_bin"
        run parent "$i" "$seed" "$parent_bin"
    fi
done

echo "== $workload: parent $sha vs $change_name, $pairs pairs, seeds $seed_base..$((seed_base + pairs - 1)), $seconds s, odd pairs parent first =="
# The end-to-end metrics and their directions, from BENCHMARK.json.
awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
     on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
     on && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }' BENCHMARK.json |
    awk -v pairs="$pairs" '
    function sort(a, n,    i, j, t) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    }
    # Median of a[lo..hi] (sorted).
    function med(a, lo, hi,    n) {
        n = hi - lo + 1
        return n % 2 ? a[lo + (n - 1) / 2] : (a[lo + n / 2 - 1] + a[lo + n / 2]) / 2
    }
    FNR == NR { better[$1] = $2; order[++metrics] = $1; next }
    {
        for (m in better) {
            if (match($0, "\"" m "\":\\{\"value\":[^,}]*")) {
                v = substr($0, RSTART, RLENGTH); sub(/.*:/, "", v)
                val[$1, $2, m] = v + 0
            }
        }
    }
    END {
        printf "%-14s %14s %12s %8s %14s %8s %6s  %s\n", "metric", "parent_median",
            "parent_iqr", "iqr/med", "change_median", "delta", "ahead", "verdict"
        need = pairs - int(pairs / 10)
        for (k = 1; k <= metrics; k++) {
            m = order[k]; n = 0; ahead = 0; behind = 0
            for (i = 1; i <= pairs; i++) {
                if (!(("parent", i, m) in val) || !(("change", i, m) in val)) continue
                p = val["parent", i, m]; c = val["change", i, m]
                n++; P[n] = p; C[n] = c
                if (better[m] == "higher" ? c > p : c < p) ahead++
                else if (c != p) behind++
            }
            if (n == 0) continue
            sort(P, n); sort(C, n)
            pm = med(P, 1, n); cm = med(C, 1, n)
            iqr = n < 2 ? 0 : med(P, int(n / 2) + 1 + n % 2, n) - med(P, 1, int(n / 2))
            gap = cm - pm; if (gap < 0) gap = -gap
            verdict = "noise"
            if (n == pairs && gap > iqr && ahead >= need) verdict = "better"
            if (n == pairs && gap > iqr && behind >= need) verdict = "worse"
            printf "%-14s %14.4f %12.4f %8.3f %14.4f %+7.1f%% %3d/%-2d  %s\n", m, pm, iqr,
                pm ? iqr / pm : 0, cm, pm ? 100 * (cm - pm) / pm : 0, ahead, n, verdict
        }
    }' - "$runs"
exit $status
