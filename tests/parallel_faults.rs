//! Faults across a partition boundary under the intra-run parallel
//! engine: a fig13x-style link-flap plan on a cut link must keep the MMU
//! audit-clean and produce byte-identical telemetry at any worker count.
//!
//! The comparison holds the *engine* fixed (partitioned at 1 vs 2 vs 4
//! workers): fig13x runs DCQCN, whose ECN marking draws from the RNG, and
//! the partitioned engine deliberately gives each partition its own
//! stream — self-consistent at every worker count, but not byte-equal to
//! the serial calendar (DESIGN.md §13 documents the caveat).

use dsh_bench::fig13x::{self, FlapExperiment};
use dsh_core::Scheme;
use dsh_net::topology::{leaf_spine, LeafSpineShape};
use dsh_net::{partition, NetParams, MAX_PARTITIONS};
use dsh_simcore::{Bandwidth, Delta};

/// The flap scenario: fig13x's smoke base with a 300 µs flap period on
/// the leaf0–spine0 uplink.
fn flapped(scheme: Scheme) -> FlapExperiment {
    let mut exp = fig13x::smoke_base(scheme);
    exp.flap_period = Some(Delta::from_us(300));
    exp
}

/// The flapped link must actually cross a partition boundary, or this
/// file tests nothing: rebuild fig13x's 2×2 fabric and check the plan.
#[test]
fn the_flapped_link_is_cross_partition() {
    let ls = leaf_spine(
        NetParams::tomahawk(Scheme::Dsh),
        LeafSpineShape {
            leaves: 2,
            spines: 2,
            hosts_per_leaf: 4,
            downlink: Bandwidth::from_gbps(100),
            uplink: Bandwidth::from_gbps(100),
            link_delay: Delta::from_us(2),
        },
    );
    let (leaf0, spine0) = (ls.leaves[0], ls.spines[0]);
    let plan = partition(&ls.builder.build(), MAX_PARTITIONS).expect("2x2 must partition");
    assert_eq!(plan.parts(), 4, "four switches get four partitions");
    assert_ne!(
        plan.owner()[leaf0.0],
        plan.owner()[spine0.0],
        "the flapped uplink must be a cut link"
    );
}

#[test]
fn flap_telemetry_is_byte_identical_at_any_worker_count() {
    for scheme in [Scheme::Sih, Scheme::Dsh] {
        let exp = flapped(scheme);
        // run_flap_report audits every MMU and asserts zero admission
        // drops internally; the flap itself must have cost something.
        let (r1, t1) = fig13x::run_flap_report(&exp, 1);
        assert!(r1.link_drops > 0, "{scheme:?}: a flap under load must drain frames");
        assert!(r1.retransmissions > 0, "{scheme:?}: lost frames must be retransmitted");
        assert_eq!(r1.wedged, 0, "{scheme:?}: no flow may wedge");
        for workers in [2, 4] {
            let (rn, tn) = fig13x::run_flap_report(&exp, workers);
            assert_eq!(t1, tn, "{scheme:?}: telemetry drifted at {workers} workers");
            // FlapResult is f64-valued; Debug prints the shortest
            // round-trippable form, so equal strings mean bit-equal.
            assert_eq!(
                format!("{r1:?}"),
                format!("{rn:?}"),
                "{scheme:?}: results drifted at {workers} workers"
            );
        }
    }
}

/// The fault-free baseline must also hold across worker counts — the
/// window driver still paces (and merges) even with nothing to fault.
#[test]
fn baseline_telemetry_is_byte_identical_at_any_worker_count() {
    let exp = fig13x::smoke_base(Scheme::Dsh);
    let (r1, t1) = fig13x::run_flap_report(&exp, 1);
    assert_eq!(r1.link_drops, 0);
    let (r4, t4) = fig13x::run_flap_report(&exp, 4);
    assert_eq!(t1, t4, "baseline telemetry drifted at 4 workers");
    assert_eq!(format!("{r1:?}"), format!("{r4:?}"));
}

/// FNV-1a over the rendered output, so a golden is one `u64` literal.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Golden digests of the flapped run per scheme (telemetry JSON plus the
/// run summary), at one and two partition workers. Pinned before the
/// serial and partitioned fault executors were merged into one step
/// sequence; a refactor of the fault path must not move them.
#[test]
fn flap_runs_match_pinned_digests() {
    let goldens = [
        (Scheme::Sih, 7_531_481_892_657_442_918u64),
        (Scheme::Dsh, 12_416_648_580_528_140_841),
        (Scheme::BShare, 2_421_775_167_183_422_412),
    ];
    for (scheme, golden) in goldens {
        for workers in [1, 2] {
            let (r, telemetry) = fig13x::run_flap_report(&flapped(scheme), workers);
            let digest = fnv1a(&format!("{telemetry}{r:?}"));
            assert_eq!(digest, golden, "{scheme:?}: flap run drifted at {workers} workers");
        }
    }
}
