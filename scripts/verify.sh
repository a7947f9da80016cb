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
# event and pins the golden churn trees; run it in release so the
# every-event snapshot checks stay cheap. Rebuilds run the grid builder
# at the ambient thread count, so OMT_THREADS=4 checks that the pinned
# churn trees do not depend on it.
echo "==> OMT_THREADS=4 cargo test -q --release --offline -p omt-core --test churn_fuzz"
OMT_THREADS=4 cargo test -q --release --offline -p omt-core --test churn_fuzz

# Construction changes are gated on tree identity: every golden pin,
# including the release-only 100k/1M radii and 1M fingerprints, must
# stay bit-identical. The million-scale pins run under an address-space
# cap, one test at a time so the cap applies to one build, so a memory
# regression on the million-scale path fails loudly instead of silently
# fitting.
echo "==> ulimit -v 6000000; cargo test --release --offline -p omt-core --test construction_golden -- --include-ignored --test-threads 1"
(
    ulimit -v 6000000
    cargo test --release --offline -p omt-core --test construction_golden -- --include-ignored --test-threads 1
)

# The baseline comparison's crossover test runs two 20,000-point CPT
# trials: about 100 s in a debug build, so the workspace step skips it
# (#[ignore]) and it runs here in release.
echo "==> cargo test -q --release --offline -p omt-experiments --lib -- --ignored cpt_wins_small"
cargo test -q --release --offline -p omt-experiments --lib -- --ignored cpt_wins_small

# The decentralized protocol's acceptance suites: differential parity
# against the centralized builder, the fault-injection fuzz campaigns
# and the cross-build goldens, in release so the 10k-host legs stay
# fast, next to the event engine's own suites (the queue against its
# plain-heap oracle, the ≥64-fan-in stress tests). OMT_THREADS=4 pins
# the ambient thread count the suites assume (the protocol engine
# itself is deterministic for any value — that is part of the contract).
echo "==> OMT_THREADS=4 cargo test -q --release --offline -p omt-sim -p omt-proto"
OMT_THREADS=4 cargo test -q --release --offline -p omt-sim -p omt-proto

# The differential suite's 100k leg (three 100k-host runs, 8–13 s) is
# the only test that drives the event queue at hundreds of thousands of
# pending keys.
echo "==> OMT_THREADS=4 cargo test -q --release --offline -p omt-proto --test differential -- --ignored"
OMT_THREADS=4 cargo test -q --release --offline -p omt-proto --test differential -- --ignored

# API docs are part of the contract: the library crates deny
# missing_docs, and this build additionally fails on any rustdoc
# warning (broken intra-doc links, bad code fences). The doctests ran
# with the workspace tests above.
echo "==> RUSTDOCFLAGS='-D warnings' cargo doc --no-deps --offline --workspace"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

# Lints are part of the contract too: clippy on every target, warnings as
# errors, once as built and once with the observability hooks compiled in
# (the span guards differ between the two builds).
echo "==> cargo clippy --offline --workspace --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo clippy --offline --workspace --all-targets --features omt-bench/obs -- -D warnings"
cargo clippy --offline --workspace --all-targets --features omt-bench/obs -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

# The benchmark is a workspace of its own (so the root workspace commands
# above never compile it); build and test it against the current crates
# here, so an API change that breaks it fails verification.
echo "==> cargo test --offline --manifest-path benchmark/Cargo.toml"
cargo test --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo clippy --offline --all-targets --manifest-path benchmark/Cargo.toml -- -D warnings"
cargo clippy --offline --all-targets --manifest-path benchmark/Cargo.toml -- -D warnings

echo "==> cargo fmt --check --manifest-path benchmark/Cargo.toml"
cargo fmt --check --manifest-path benchmark/Cargo.toml

echo "verify: OK"
