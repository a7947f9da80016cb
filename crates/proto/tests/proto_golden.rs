//! Golden pins of whole protocol runs, compared across builds.
//!
//! `runs_are_bit_identical_per_seed` and the fault-fuzz replay campaign
//! only re-run a session inside one build, so a change to the event
//! engine that reorders deliveries would pass them both. The values here
//! were recorded once and must stay bit-identical: every `NetStats`
//! counter, the per-kind message counts, the `to_bits()` of the
//! convergence time, end time and radius, and an FNV-1a hash of the
//! alive-host ids and the final forest. The hash is computed here, not
//! with `DefaultHasher`, whose output may change between Rust releases.
//!
//! A pin only changes when the protocol's behaviour is meant to change;
//! the failure message prints the full actual value to re-pin from.

use omt_core::PolarGridBuilder;
use omt_geom::{Disk, Point2, Region};
use omt_net::CoordDrift;
use omt_proto::{ProtoConfig, ProtoReport, ProtoSim};
use omt_rng::rngs::SmallRng;
use omt_rng::SeedableRng;
use omt_sim::{FaultPlan, NetStats, Partition};

/// Everything a run pins.
#[derive(Debug, PartialEq)]
struct Pin {
    net: NetStats,
    msg_counts: Vec<(String, u64)>,
    convergence_time_bits: u64,
    end_time_bits: u64,
    radius_bits: u64,
    alive: usize,
    orphans: usize,
    forest_fnv: u64,
}

/// 64-bit FNV-1a over the alive ids (little-endian `u32`s) followed by
/// the forest entries (`u64::MAX` for a child of the rendezvous, else the
/// parent index as a little-endian `u64`; a missing forest hashes nothing).
fn forest_fnv(rep: &ProtoReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for id in &rep.alive_ids {
        eat(&id.to_le_bytes());
    }
    for p in rep.forest.iter().flatten() {
        eat(&p.map_or(u64::MAX, |i| i as u64).to_le_bytes());
    }
    h
}

fn pin_of(rep: &ProtoReport) -> Pin {
    Pin {
        net: rep.net,
        msg_counts: rep
            .msg_counts
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect(),
        convergence_time_bits: rep.convergence_time.to_bits(),
        end_time_bits: rep.end_time.to_bits(),
        radius_bits: rep.radius.to_bits(),
        alive: rep.alive,
        orphans: rep.orphans,
        forest_fnv: forest_fnv(rep),
    }
}

fn counts(kinds: &[(&str, u64)]) -> Vec<(String, u64)> {
    kinds.iter().map(|&(k, v)| (k.to_string(), v)).collect()
}

fn check(name: &str, rep: &ProtoReport, want: Pin) {
    let got = pin_of(rep);
    assert_eq!(got, want, "{name}: the run no longer matches its pin");
}

/// One session of the `proto_16x1500` benchmark workload: 1,500 hosts at
/// degree 6, rings from the centralized build, under its fault mix (5%
/// loss, 2% duplication, jitter 0.3, a partition over `t ∈ [5, 15)`).
#[test]
fn benchmark_fault_mix_1500_is_pinned() {
    let (n, degree, seed) = (1_500, 6, 0x1500);
    let pts = Disk::unit().sample_n(&mut SmallRng::seed_from_u64(seed), n);
    let (_, crep) = PolarGridBuilder::new()
        .max_out_degree(degree)
        .build_with_report(Point2::ORIGIN, &pts)
        .unwrap();
    let mut cfg = ProtoConfig::for_n(n, degree);
    cfg.rings = crep.rings;
    cfg.faults = FaultPlan {
        drop_p: 0.05,
        dup_p: 0.02,
        jitter: 0.3,
        fault_until: 25.0,
        partitions: vec![Partition {
            start: 5.0,
            end: 15.0,
            bit: 1,
        }],
    };
    cfg.quiet_after = cfg.faults.fault_until + 80.0;
    cfg.deadline = cfg.quiet_after + 340.0;
    let rep = ProtoSim::new(cfg, &pts, &pts, seed).run();
    check(
        "fault mix 1500",
        &rep,
        Pin {
            net: NetStats {
                sent: 95668,
                delivered: 91891,
                dropped: 990,
                severed: 3126,
                duplicated: 339,
                timers: 35856,
            },
            msg_counts: counts(&[
                ("accept", 1729),
                ("gossip", 25397),
                ("join_req", 17937),
                ("not_child", 36),
                ("ping", 25397),
                ("pong", 25113),
                ("probe", 50),
                ("probe_ok", 9),
            ]),
            convergence_time_bits: 4631736715211997970,
            end_time_bits: 4637161943018536706,
            radius_bits: 4614940784914969706,
            alive: 1500,
            orphans: 0,
            forest_fnv: 11205248194359513387,
        },
    );
}

/// A `fault_fuzz`-style kitchen-sink campaign: loss, duplication, jitter,
/// a partition, stale coordinates, crashes and graceful leaves.
#[test]
fn fuzz_style_campaign_is_pinned() {
    let (n, degree, seed) = (240, 4, 424_242);
    let truth = Disk::unit().sample_n(&mut SmallRng::seed_from_u64(seed), n);
    let advertised = CoordDrift {
        drift: 0.1,
        stale_fraction: 0.25,
    }
    .apply(&truth, seed);
    let mut cfg = ProtoConfig::for_n(n, degree);
    cfg.faults = FaultPlan {
        drop_p: 0.1,
        dup_p: 0.05,
        jitter: 0.4,
        fault_until: 35.0,
        partitions: vec![Partition {
            start: 8.0,
            end: 20.0,
            bit: 2,
        }],
    };
    cfg.quiet_after = cfg.faults.fault_until + 80.0;
    cfg.deadline = cfg.quiet_after + 340.0;
    cfg.crashes = (0..6u32)
        .map(|i| (12.0 + f64::from(i) * 0.7, 1 + (i * 13) % n as u32))
        .collect();
    cfg.leaves = (0..6u32)
        .map(|i| (14.0 + f64::from(i) * 0.9, 2 + (i * 17) % (n as u32 - 1)))
        .collect();
    let crashed: Vec<u32> = cfg.crashes.iter().map(|&(_, id)| id).collect();
    cfg.leaves.retain(|&(_, id)| !crashed.contains(&id));
    let rep = ProtoSim::new(cfg, &truth, &advertised, seed).run();
    check(
        "fuzz campaign",
        &rep,
        Pin {
            net: NetStats {
                sent: 15541,
                delivered: 14787,
                dropped: 371,
                severed: 553,
                duplicated: 170,
                timers: 6214,
            },
            msg_counts: counts(&[
                ("accept", 345),
                ("gossip", 3980),
                ("handoff", 4),
                ("join_req", 3133),
                ("leave", 5),
                ("not_child", 28),
                ("ping", 3980),
                ("pong", 3882),
                ("probe", 157),
                ("probe_ok", 27),
            ]),
            convergence_time_bits: 4632994008080085145,
            end_time_bits: 4637947240624886579,
            radius_bits: 4620240936614218408,
            alive: 229,
            orphans: 0,
            forest_fnv: 14598243598617089937,
        },
    );
}

/// A faultless 10k-host run at degree 2, the deepest in-cell chains.
#[test]
fn faultless_10k_deg2_is_pinned() {
    let (n, degree, seed) = (10_000, 2, 10_002);
    let pts = Disk::unit().sample_n(&mut SmallRng::seed_from_u64(seed), n);
    let rep = ProtoSim::new(ProtoConfig::for_n(n, degree), &pts, &pts, seed).run();
    check(
        "faultless 10k deg 2",
        &rep,
        Pin {
            net: NetStats {
                sent: 650778,
                delivered: 650778,
                dropped: 0,
                severed: 0,
                duplicated: 0,
                timers: 134597,
            },
            msg_counts: counts(&[
                ("accept", 19585),
                ("gossip", 100781),
                ("join_req", 319303),
                ("not_child", 9495),
                ("ping", 100781),
                ("pong", 100781),
                ("probe", 48),
                ("probe_ok", 4),
            ]),
            convergence_time_bits: 4630766573779905675,
            end_time_bits: 4633964289239579986,
            radius_bits: 4620864551241496738,
            alive: 10000,
            orphans: 0,
            forest_fnv: 8185963533887797199,
        },
    );
}
