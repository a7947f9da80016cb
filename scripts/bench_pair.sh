#!/usr/bin/env bash
# Before/after pair of one omt-bench bench on this host.
#
#   scripts/bench_pair.sh PARENT CHANGE BENCH RUNS
#
# Exports the two revisions into separate checkouts (`git archive`, so
# nothing is registered in the repository), builds each with its own
# target directory, then runs `cargo bench -p omt-bench --bench BENCH`
# RUNS times per side, alternating which side runs first (pair i runs the
# parent first when i is odd). Every run writes its `omt-bench/v1` file
# through OMT_BENCH_DIR into a directory of its own. The script then
# writes one `omt-bench/pair-v1` file: a host block, both sides' runs,
# and per row the median over the runs of each run's median_ns, the ratio
# change/parent, the parent's interquartile range, and the number of
# pairs the change won.
#
# BENCH of the form `bin:NAME` pairs an omt-experiments binary instead:
# each run is `NAME $BIN_ARGS --out DIR` from a release build, a row's
# time is the `mean_ns` of its one run, and the run's peak RSS (the
# process `VmHWM`, from getrusage) is recorded on every row it wrote. Pick
# BIN_ARGS so one run writes one row (`--sizes 100000 --degrees 2` for
# `bin:proto`).
#
# Environment:
#   OUT   output file (default results/BENCH_<group>.json)
#   BIN_ARGS  arguments of a `bin:NAME` run
#   WORK  scratch directory (default: a fresh mktemp -d, removed on
#         success)
#
# Needs bash, git, cargo and python3. Keep the host otherwise idle: host
# speed drifts 10-20% over minutes, which is why the sides alternate.
set -euo pipefail

if [ "$#" -ne 4 ]; then
    echo "usage: $0 PARENT CHANGE BENCH RUNS" >&2
    exit 2
fi
parent_rev=$(git rev-parse --verify "$1^{commit}")
change_rev=$(git rev-parse --verify "$2^{commit}")
bench=$3
runs=$4
case "$runs" in
'' | *[!0-9]* | 0)
    echo "RUNS must be a positive integer" >&2
    exit 2
    ;;
esac

root=$(git rev-parse --show-toplevel)
cd "$root"
work=${WORK:-$(mktemp -d)}
cleanup_work=${WORK:+no}
mkdir -p "$work"

bin=${bench#bin:}
[ "$bin" = "$bench" ] && bin=

run_side() { # side rev run-index
    local dir="$work/runs/$1-$3"
    rm -rf "$dir"
    mkdir -p "$dir"
    echo "==> run $3/$runs: $1 (${2:0:9})" >&2
    if [ -n "$bin" ]; then
        # shellcheck disable=SC2086 # BIN_ARGS is a word list
        (cd "$work/$1" && python3 -c 'import resource, subprocess, sys
subprocess.run(sys.argv[2:], check=True, stdout=subprocess.DEVNULL)
kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
open(sys.argv[1], "w").write(str(kb * 1024))' "$dir/peak_rss_bytes" \
            "$work/$1/target/release/$bin" ${BIN_ARGS:-} --out "$dir")
    else
        (cd "$work/$1" && OMT_BENCH_DIR="$dir" CARGO_TARGET_DIR="$work/$1/target" \
            cargo bench --offline --quiet -p omt-bench --bench "$bench" >/dev/null)
    fi
}

for side in parent change; do
    rev=$parent_rev
    [ "$side" = change ] && rev=$change_rev
    rm -rf "${work:?}/$side"
    mkdir -p "$work/$side"
    git archive "$rev" | tar -x -C "$work/$side"
    echo "==> building $side (${rev:0:9})" >&2
    if [ -n "$bin" ]; then
        (cd "$work/$side" && CARGO_TARGET_DIR="$work/$side/target" \
            cargo build --release --offline --quiet -p omt-experiments --bin "$bin")
    else
        (cd "$work/$side" && CARGO_TARGET_DIR="$work/$side/target" \
            cargo bench --offline --quiet -p omt-bench --bench "$bench" --no-run)
    fi
done

for i in $(seq 1 "$runs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run_side parent "$parent_rev" "$i"
        run_side change "$change_rev" "$i"
    else
        run_side change "$change_rev" "$i"
        run_side parent "$parent_rev" "$i"
    fi
done

PARENT_REV=$parent_rev CHANGE_REV=$change_rev BENCH=$bench RUNS=$runs WORK=$work \
    OUT=${OUT:-} BIN_ARGS=${BIN_ARGS:-} python3 - <<'EOF'
import glob, json, os, platform, statistics, subprocess

work, runs, bench = os.environ["WORK"], int(os.environ["RUNS"]), os.environ["BENCH"]
binary = bench[4:] if bench.startswith("bin:") else None

def git(*args):
    return subprocess.run(["git", *args], capture_output=True, text=True, check=True).stdout.strip()

def load(side):
    out = []
    for i in range(1, runs + 1):
        files = glob.glob(os.path.join(work, "runs", f"{side}-{i}", "BENCH_*.json"))
        if len(files) != 1:
            raise SystemExit(f"{side} run {i}: expected one BENCH_*.json, found {len(files)}")
        with open(files[0]) as f:
            doc = json.load(f)
        rss = os.path.join(work, "runs", f"{side}-{i}", "peak_rss_bytes")
        if os.path.exists(rss):
            with open(rss) as f:
                peak = int(f.read())
            for b in doc["benches"]:
                b.setdefault("peak_rss_bytes", peak)
        out.append(doc)
    return out

def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

sides = {"parent": load("parent"), "change": load("change")}
group = sides["change"][0]["group"]
rows = [b["id"] for b in sides["change"][0]["benches"]]
summary = []
for row in rows:
    per = {}
    rss = {}
    for side, side_runs in sides.items():
        picked = [next((b for b in r["benches"] if b["id"] == row), None) for r in side_runs]
        if any(b is None for b in picked):
            break
        per[side] = [b.get("median_ns", b.get("mean_ns")) for b in picked]
        if all("peak_rss_bytes" in b for b in picked):
            rss[side] = statistics.median(b["peak_rss_bytes"] for b in picked) / 2**20
    else:
        p, c = per["parent"], per["change"]
        q1, q3 = quartiles(p)
        entry = {
            "id": row,
            "parent_median_ns": round(statistics.median(p), 1),
            "change_median_ns": round(statistics.median(c), 1),
            "change_over_parent": round(statistics.median(c) / statistics.median(p), 3),
            "parent_iqr_ns": round(q3 - q1, 1),
            "pairs_change_faster": sum(ci < pi for pi, ci in zip(p, c)),
            "pairs": runs,
        }
        if len(rss) == 2:
            entry["parent_peak_rss_mb"] = round(rss["parent"], 1)
            entry["change_peak_rss_mb"] = round(rss["change"], 1)
        summary.append(entry)

rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
if binary:
    command = f"cargo run --release --offline --bin {binary} -- {os.environ['BIN_ARGS']}".rstrip()
else:
    command = f"cargo bench --offline -p omt-bench --bench {bench}"
doc = {
    "schema": "omt-bench/pair-v1",
    "group": group,
    "command": command,
    "host": {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "rustc": rustc,
        "profile": "release + debuginfo" if binary else "bench (release + debuginfo)",
        "OMT_THREADS": os.environ.get("OMT_THREADS", "unset"),
        "RUSTFLAGS": os.environ.get("RUSTFLAGS", "unset"),
        "obs": "off",
    },
    "protocol": f"{runs} pairs of full bench runs, alternating which side runs first; "
    + ("per row, the median over the runs of each run's one-run mean_ns; peak RSS is "
       "the process VmHWM (getrusage maxrss) of the run"
       if binary else "per row, the median over the runs of each run's median_ns"),
    "parent": {
        "rev": os.environ["PARENT_REV"][:7],
        "subject": git("log", "-1", "--format=%s", os.environ["PARENT_REV"]),
        "runs": sides["parent"],
    },
    "change": {
        "rev": os.environ["CHANGE_REV"][:7],
        "subject": git("log", "-1", "--format=%s", os.environ["CHANGE_REV"]),
        "runs": sides["change"],
    },
    "summary": summary,
}


def render(v, pad=""):
    # Objects of scalars (the host block, bench rows, summary rows) take
    # one line each; everything else is indented.
    inner = pad + "  "
    if isinstance(v, dict) and any(isinstance(x, (dict, list)) for x in v.values()):
        body = ",\n".join(f"{inner}{json.dumps(k)}: {render(x, inner)}" for k, x in v.items())
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(v, list) and v and any(isinstance(x, (dict, list)) for x in v):
        return "[\n" + ",\n".join(inner + render(x, inner) for x in v) + "\n" + pad + "]"
    return json.dumps(v)


out = os.environ.get("OUT") or os.path.join("results", f"BENCH_{group}.json")
with open(out, "w") as f:
    f.write(render(doc) + "\n")
for e in summary:
    print(f"{e['id']:<24} {e['change_over_parent']:>6.3f}  "
          f"{e['pairs_change_faster']}/{e['pairs']} pairs won  "
          f"(parent IQR {e['parent_iqr_ns'] / e['parent_median_ns']:.1%})")
print(f"-> {out}")
EOF

if [ "$cleanup_work" != no ]; then
    rm -rf "$work"
fi
