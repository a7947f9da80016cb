#!/usr/bin/env bash
# Canonical tier-1 verification: hermetic build + full test suite + format
# check, entirely offline. Referenced from ROADMAP.md; CI and pre-merge
# checks should run exactly this.
set -euo pipefail

cd "$(dirname "$0")/.."

# Warnings are errors: the workspace must build clean.
export RUSTFLAGS="-D warnings"

echo "==> checking for stray proptest-regressions files"
if regressions=$(find . -path ./target -prune -o -name '*.proptest-regressions' -print | grep .); then
    echo "error: stale proptest-regressions files checked in:" >&2
    echo "$regressions" >&2
    echo "The in-repo props! harness replays via OMT_PROP_SEED instead;" >&2
    echo "fix the failure and delete the file." >&2
    exit 1
fi

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

# The churn fuzz validates the dynamic overlay after every membership
# event and proves the sharded batch engine bit-identical to it; run it
# in release so the every-event snapshot checks stay cheap, with
# OMT_THREADS=4 so the sharded phase-A speculation actually runs on
# multiple workers (output is identical for every thread count — that is
# part of what the suite asserts).
echo "==> OMT_THREADS=4 cargo test -q --release --offline -p omt-core --test churn_fuzz"
OMT_THREADS=4 cargo test -q --release --offline -p omt-core --test churn_fuzz

# Construction changes are gated on tree identity: every golden pin,
# including the release-only 100k/1M radii and 1M fingerprints (about
# 5 s in release), must stay bit-identical.
echo "==> cargo test --release --offline -p omt-core --test construction_golden -- --include-ignored"
cargo test --release --offline -p omt-core --test construction_golden -- --include-ignored

# The hierarchical capacity index must answer every best-parent search
# bit-identically to the per-cell scan; the parity suite proves it
# differentially per degree and churn schedule and audits the prune log
# against brute force. OMT_THREADS=4 matches the churn suite above.
echo "==> OMT_THREADS=4 cargo test -q --release --offline -p omt-geom --test hgrid_parity"
OMT_THREADS=4 cargo test -q --release --offline -p omt-geom --test hgrid_parity

# The decentralized protocol's acceptance suites: differential parity
# against the centralized builder, the fault-injection fuzz campaigns
# and the cross-build goldens, in release so the 10k-host legs stay
# fast, next to the event engine's own suites (the queue against its
# plain-heap oracle, the ≥64-fan-in stress tests). OMT_THREADS=4 pins
# the ambient thread count the suites assume (the protocol engine
# itself is deterministic for any value — that is part of the contract).
echo "==> OMT_THREADS=4 cargo test -q --release --offline -p omt-sim -p omt-proto"
OMT_THREADS=4 cargo test -q --release --offline -p omt-sim -p omt-proto

# API docs are part of the contract: the library crates deny
# missing_docs, and this build additionally fails on any rustdoc
# warning (broken intra-doc links, bad code fences). CI's docs job runs
# the same command plus the doctests.
echo "==> RUSTDOCFLAGS='-D warnings' cargo doc --no-deps --offline --workspace"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "==> cargo fmt --check"
cargo fmt --check

# The benchmark is a workspace of its own (so the root workspace commands
# above never compile it); build and test it against the current crates
# here, so an API change that breaks it fails verification.
echo "==> cargo test --offline --manifest-path benchmark/Cargo.toml"
cargo test --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo fmt --check --manifest-path benchmark/Cargo.toml"
cargo fmt --check --manifest-path benchmark/Cargo.toml

echo "verify: OK"
