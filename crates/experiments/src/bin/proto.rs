//! The decentralized protocol at scale, side by side with the
//! centralized `Polar_Grid` builder on identical point sets.
//!
//! For each size and degree cap the binary samples one point set, builds
//! the centralized tree, then runs the message-driven join protocol
//! (`omt-proto`) on the same points with the same ring count and reports
//! tree quality (radius, stretch vs. the star lower bound, the
//! protocol/centralized radius factor), convergence time, and message
//! cost (total and per host). Non-quick runs add a faulty row per size —
//! loss, duplication, jitter, and a partition over the join window — to
//! show what healing costs in messages and convergence time.
//!
//! With `--out DIR` the results land in `DIR/BENCH_proto.json`
//! (`omt-bench/v1` shape, protocol columns as extra keys), `DIR/proto.md`
//! (the markdown report), and `DIR/proto.csv`.
//!
//! Repro: `cargo run --release --bin proto -- --out results`
//! (defaults to sizes 100k and 1M and degrees 2, 4 and 6; `--quick` runs
//! 1k/10k for CI smoke). `--sizes` and `--degrees` pick rows: the faulty
//! row runs at degree 6, so `--sizes 1000000 --degrees 2` is the single
//! 1M deg-2 row.

use std::time::Instant;

use omt_core::PolarGridBuilder;
use omt_experiments::cli::ExpArgs;
use omt_experiments::report::{print_metrics, write_result};
use omt_geom::{Disk, Point2, Region};
use omt_proto::{ProtoConfig, ProtoSim};
use omt_rng::rngs::SmallRng;
use omt_rng::SeedableRng;
use omt_sim::{FaultPlan, Partition};

/// One finished comparison row.
struct Row {
    n: usize,
    degree: u32,
    faulty: bool,
    proto_radius: f64,
    central_radius: f64,
    star_bound: f64,
    stretch: f64,
    convergence_time: f64,
    messages: u64,
    msgs_per_host: f64,
    orphans: usize,
    elapsed_ns: u128,
}

/// The standard fault mix for the faulty rows: 5% loss, 2% duplication,
/// jitter up to 0.3, and a partition across bit 1 of the host id during
/// the thick of the join window.
fn fault_mix() -> FaultPlan {
    FaultPlan {
        drop_p: 0.05,
        dup_p: 0.02,
        jitter: 0.3,
        fault_until: 25.0,
        partitions: vec![Partition {
            start: 5.0,
            end: 15.0,
            bit: 1,
        }],
    }
}

fn run_case(n: usize, degree: u32, seed: u64, faulty: bool) -> Row {
    let mut rng = SmallRng::seed_from_u64(seed);
    let pts = Disk::unit().sample_n(&mut rng, n);
    let (tree, crep) = PolarGridBuilder::new()
        .max_out_degree(degree)
        .build_with_report(Point2::ORIGIN, &pts)
        .expect("valid points");
    let mut cfg = ProtoConfig::for_n(n, degree);
    cfg.rings = crep.rings;
    if faulty {
        cfg.faults = fault_mix();
        cfg.quiet_after = cfg.faults.fault_until + 80.0;
        cfg.deadline = cfg.quiet_after + 340.0;
    }
    let start = Instant::now();
    let rep = ProtoSim::new(cfg, &pts, &pts, seed).run();
    let elapsed_ns = start.elapsed().as_nanos();
    assert_eq!(rep.orphans, 0, "n={n} deg={degree}: protocol did not heal");
    Row {
        n,
        degree,
        faulty,
        proto_radius: rep.radius,
        central_radius: tree.radius(),
        star_bound: rep.star_bound,
        stretch: rep.stretch,
        convergence_time: rep.convergence_time,
        messages: rep.net.sent,
        msgs_per_host: rep.net.sent as f64 / n as f64,
        orphans: rep.orphans,
        elapsed_ns,
    }
}

fn markdown(rows: &[Row]) -> String {
    let mut s = String::from(
        "| n | degree | faults | proto radius | central radius | factor | \
         stretch | convergence | messages | msgs/host |\n\
         |---|---|---|---|---|---|---|---|---|---|\n",
    );
    for r in rows {
        s.push_str(&format!(
            "| {} | {} | {} | {:.3} | {:.3} | {:.2} | {:.2} | {:.1} | {} | {:.1} |\n",
            r.n,
            r.degree,
            if r.faulty { "mixed" } else { "none" },
            r.proto_radius,
            r.central_radius,
            r.proto_radius / r.central_radius,
            r.stretch,
            r.convergence_time,
            r.messages,
            r.msgs_per_host,
        ));
    }
    s
}

fn csv(rows: &[Row]) -> String {
    let mut s = String::from(
        "n,degree,faulty,proto_radius,central_radius,factor,stretch,\
         star_bound,convergence_time,messages,msgs_per_host,elapsed_ns\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{},{},{},{:.6},{:.6},{:.4},{:.4},{:.6},{:.3},{},{:.2},{}\n",
            r.n,
            r.degree,
            r.faulty,
            r.proto_radius,
            r.central_radius,
            r.proto_radius / r.central_radius,
            r.stretch,
            r.star_bound,
            r.convergence_time,
            r.messages,
            r.msgs_per_host,
            r.elapsed_ns,
        ));
    }
    s
}

fn bench_json(rows: &[Row], quick: bool) -> String {
    let mut s = format!(
        "{{\n  \"schema\": \"omt-bench/v1\",\n  \"group\": \"proto\",\n  \
         \"quick\": {quick},\n  \"benches\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"id\": \"{}/{}-deg{}\", \"elements\": {}, \"mean_ns\": {:.1}, \
             \"proto_radius\": {:.6}, \"central_radius\": {:.6}, \"factor\": {:.4}, \
             \"stretch\": {:.4}, \"star_bound\": {:.6}, \"convergence_time\": {:.3}, \
             \"messages\": {}, \"msgs_per_host\": {:.2}, \"orphans\": {}}}{sep}\n",
            if r.faulty { "proto-faulty" } else { "proto" },
            r.n,
            r.degree,
            r.n,
            r.elapsed_ns as f64,
            r.proto_radius,
            r.central_radius,
            r.proto_radius / r.central_radius,
            r.stretch,
            r.star_bound,
            r.convergence_time,
            r.messages,
            r.msgs_per_host,
            r.orphans,
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() {
    let args = ExpArgs::from_env();
    let sizes = match &args.sizes {
        Some(s) => s.clone(),
        None if args.quick => vec![1_000, 10_000],
        None => vec![100_000, 1_000_000],
    };
    let degrees = args.degrees.clone().unwrap_or_else(|| vec![2, 4, 6]);
    if let Some(d) = degrees.iter().find(|&&d| d < 2) {
        eprintln!("error: --degrees caps must be at least 2, got {d}");
        std::process::exit(2);
    }
    let mut rows = Vec::new();
    for &n in &sizes {
        for &degree in &degrees {
            eprintln!("proto: n={n} degree={degree} faultless...");
            rows.push(run_case(n, degree, args.seed(), false));
        }
        if !args.quick && degrees.contains(&6) {
            eprintln!("proto: n={n} degree=6 fault mix...");
            rows.push(run_case(n, 6, args.seed(), true));
        }
    }
    println!("{}", markdown(&rows));
    if let Some(dir) = &args.out {
        for (name, contents) in [
            ("BENCH_proto.json", bench_json(&rows, args.quick)),
            ("proto.md", markdown(&rows)),
            ("proto.csv", csv(&rows)),
        ] {
            let p = write_result(dir, name, &contents).expect("write result");
            eprintln!("wrote {}", p.display());
        }
    }
    print_metrics("proto");
}
