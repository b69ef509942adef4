//! Runtime fault injection and loss recovery, end to end: link flaps on a
//! loaded fabric must cost only retransmissions — every flow completes (or
//! is explicitly failed), the MMU stays audit-clean, and runs remain
//! bit-identical at any executor width.

mod common;

use common::{add_incast, assert_lossless, raw_params, run, star, traced_fault_losses};
use dsh_core::Scheme;
use dsh_net::topology::{leaf_spine, LeafSpine, LeafSpineShape};
use dsh_net::{FaultPlan, FlowSpec, NetParams, Network};
use dsh_simcore::{Bandwidth, ByteSize, Delta, Executor, Time};
use dsh_transport::CcKind;
use proptest::prelude::*;

/// A 2×2 leaf–spine with `hosts_per_leaf` per rack, 100 Gb/s everywhere.
fn fabric(params: NetParams, hosts_per_leaf: usize) -> LeafSpine {
    leaf_spine(
        params,
        LeafSpineShape {
            leaves: 2,
            spines: 2,
            hosts_per_leaf,
            downlink: Bandwidth::from_gbps(100),
            uplink: Bandwidth::from_gbps(100),
            link_delay: Delta::from_us(2),
        },
    )
}

/// Cross-rack incast: every rack-0 host sends `size` bytes to the first
/// rack-1 host, so all flows transit the spine layer. (`hosts` is cloned
/// out of the [`LeafSpine`] before `build()` consumes its builder.)
fn cross_rack_incast(hosts: &[Vec<dsh_net::NodeId>], net: &mut Network, size: u64, cc: CcKind) {
    for (i, &src) in hosts[0].iter().enumerate() {
        net.add_flow(FlowSpec {
            src,
            dst: hosts[1][0],
            size,
            class: 0,
            start: Time::ZERO + Delta::from_us(i as u64),
            cc,
        });
    }
}

/// The acceptance scenario: a mid-run down/up flap of a leaf–spine uplink
/// under cross-rack load. Every flow must complete via retransmission —
/// none wedged, none failed — with frames demonstrably lost and the MMU
/// audit clean afterwards.
#[test]
fn mid_run_flap_recovers_every_flow() {
    for scheme in [Scheme::Sih, Scheme::Dsh] {
        let ls = fabric(NetParams::tomahawk(scheme), 4);
        let (leaf0, spine0) = (ls.leaves[0], ls.spines[0]);
        let hosts = ls.hosts.clone();
        let mut net = ls.builder.build();
        cross_rack_incast(&hosts, &mut net, 512 * 1024, CcKind::Dcqcn);
        net.set_fault_plan(FaultPlan::new(7).flap(
            leaf0,
            spine0,
            Time::from_us(20),
            Time::from_us(120),
        ));
        let registered = net.flow_count();
        let end = Time::from_ms(4);
        let net = run(net, end);

        assert_eq!(net.fct_records().len(), registered, "{scheme}: a flow wedged or failed");
        assert_eq!(net.failed_flow_count(), 0, "{scheme}: survivable flap failed a flow");
        assert!(net.link_drops() > 0, "{scheme}: the flap lost no frames");
        assert!(net.retransmissions() > 0, "{scheme}: recovery never kicked in");
        assert_lossless(&net, end);
        for (id, audit) in net.audit_all() {
            assert!(audit.is_clean(), "{scheme}: dirty audit at {id}: {:?}", audit.violations);
        }
    }
}

/// Regression (PR 4 satellite): killing a link whose switch port holds an
/// active PFC pause ledger must clear the ledger so the surviving peers
/// unblock. A small-buffer incast guarantees the switch has paused its
/// ingress ports when one sender's access link dies mid-burst; the other
/// senders must still complete, and the dead sender's flow must finish
/// after the repair instead of inheriting a stale pause.
#[test]
fn link_down_clears_active_pause_ledger() {
    let params = raw_params(Scheme::Dsh).with_buffer(ByteSize::kib(600)).with_default_recovery();
    let (mut net, hosts) = star(params, 4);
    add_incast(&mut net, &hosts[..3], hosts[3], 512 * 1024, 0, Time::ZERO, CcKind::Uncontrolled);
    // 3:1 at full rate overflows the shared pool immediately, so ingress
    // ports are paused when the link dies at 20 us.
    let switch = dsh_net::NodeId(hosts.len()); // star() adds the hub last
    net.set_fault_plan(FaultPlan::new(3).flap(
        hosts[0],
        switch,
        Time::from_us(20),
        Time::from_us(200),
    ));
    let registered = net.flow_count();
    let end = Time::from_ms(6);
    let net = run(net, end);

    let report = net.telemetry_report(end);
    let paused_ns: u64 = report.ports.iter().map(|p| p.queue_level.as_ns()).sum();
    assert!(paused_ns > 0, "incast never triggered PFC — the regression is untested");
    assert_eq!(net.fct_records().len(), registered, "a peer stayed blocked on a stale ledger");
    assert_eq!(net.failed_flow_count(), 0);
    assert!(net.link_drops() > 0);
    assert_lossless(&net, end);
    for (id, audit) in net.audit_all() {
        assert!(audit.is_clean(), "leaked pause/headroom at {id}: {:?}", audit.violations);
    }
}

/// Random frame corruption on a spine link: lossy, but go-back-N still
/// delivers every flow.
#[test]
fn corruption_is_recovered_by_go_back_n() {
    let ls = fabric(NetParams::tomahawk(Scheme::Dsh), 2);
    let (leaf0, spine0) = (ls.leaves[0], ls.spines[0]);
    let hosts = ls.hosts.clone();
    let mut net = ls.builder.build();
    cross_rack_incast(&hosts, &mut net, 256 * 1024, CcKind::Dcqcn);
    net.set_fault_plan(FaultPlan::new(11).corrupt_link(leaf0, spine0, 0.02));
    let registered = net.flow_count();
    let end = Time::from_ms(8);
    let net = run(net, end);

    assert_eq!(net.fct_records().len(), registered, "corruption wedged a flow");
    assert!(net.link_drops() > 0, "2% corruption on a loaded link lost nothing");
    assert!(net.retransmissions() > 0);
    assert_lossless(&net, end);
}

/// One randomized fault scenario: flap schedule (non-overlapping, always
/// repaired) on a chosen uplink plus optional corruption.
#[derive(Clone, Copy, Debug)]
struct RandomFaults {
    uplink: usize,
    /// (gap before this flap, outage length) in µs; accumulated in order.
    flaps: [(u64, u64); 3],
    corruption: f64,
    seed: u64,
}

fn fault_strategy() -> impl Strategy<Value = RandomFaults> {
    (0usize..4, proptest::collection::vec((5u64..120, 5u64..70), 3..4), 0.0f64..0.02, 0u64..1000)
        .prop_map(|(uplink, flaps, corruption, seed)| RandomFaults {
            uplink,
            flaps: [flaps[0], flaps[1], flaps[2]],
            corruption,
            seed,
        })
}

/// Builds, loads and runs the property fabric under one random scenario,
/// returning the finished network plus its registered flow count.
fn run_random(scheme: Scheme, f: &RandomFaults) -> (Network, usize) {
    let ls = fabric(NetParams::tomahawk(scheme).with_seed(f.seed), 2);
    let (leaf, spine) = (ls.leaves[f.uplink / 2], ls.spines[f.uplink % 2]);
    let hosts = ls.hosts.clone();
    let mut net = ls.builder.build();
    cross_rack_incast(&hosts, &mut net, 128 * 1024, CcKind::Dcqcn);

    let mut plan = FaultPlan::new(f.seed);
    let mut t = Delta::from_us(10);
    for &(gap, outage) in &f.flaps {
        let down = t + Delta::from_us(gap);
        let up = down + Delta::from_us(outage);
        plan = plan.flap(leaf, spine, Time::ZERO + down, Time::ZERO + up);
        t = up;
    }
    if f.corruption > 0.0 {
        plan = plan.corrupt_link(leaf, spine, f.corruption);
    }
    net.set_fault_plan(plan);
    let registered = net.flow_count();
    (run(net, Time::from_ms(10)), registered)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Under *any* always-repaired fault plan: no flow wedges (each
    /// completes or is explicitly failed), the MMU audit is clean, no
    /// admission drop ever happens, and the run is byte-identical at 1
    /// and 4 executor threads.
    #[test]
    fn random_fault_plans_never_wedge_or_leak(f in fault_strategy()) {
        for scheme in [Scheme::Sih, Scheme::Dsh] {
            let [serial, four] = [Executor::new(1), Executor::new(4)].map(|ex| {
                ex.par_map(vec![f, f], move |rf| {
                    let (net, registered) = run_random(scheme, &rf);
                    let end = Time::from_ms(10);
                    let done = net.fct_records().len() as u64 + net.failed_flow_count();
                    assert_eq!(done, registered as u64, "wedged flow under {rf:?}");
                    assert_lossless(&net, end);
                    for (id, audit) in net.audit_all() {
                        assert!(
                            audit.is_clean(),
                            "dirty audit at {id} under {rf:?}: {:?}",
                            audit.violations
                        );
                    }
                    net.telemetry_report(end).to_json().to_string()
                })
            });
            prop_assert_eq!(serial, four, "thread count changed a fault run");
        }
    }
}

/// Every `link_drops` increment leaves a FAULT record. The plan flaps the
/// incast destination's access link (switches black-hole traffic toward
/// it while it is down, frames in flight die on arrival) and corrupts a
/// leaf–spine link, so all three loss records fire.
#[test]
fn every_link_drop_leaves_a_fault_record() {
    use dsh_simcore::trace::{TraceConfig, TraceEvent, TraceMask};
    let trace = TraceConfig { mask: TraceMask::FAULT, capacity: 1 << 16 };
    let ls = fabric(NetParams::tomahawk(Scheme::Dsh).with_trace(trace), 4);
    let (leaf0, leaf1, spine0) = (ls.leaves[0], ls.leaves[1], ls.spines[0]);
    let hosts = ls.hosts.clone();
    let mut net = ls.builder.build();
    cross_rack_incast(&hosts, &mut net, 256 * 1024, CcKind::Dcqcn);
    net.set_fault_plan(
        FaultPlan::new(3)
            .flap(leaf1, hosts[1][0], Time::from_us(20), Time::from_us(80))
            .corrupt_link(leaf0, spine0, 0.01),
    );
    let net = run(net, Time::from_ms(4));
    let log = net.trace_log();
    assert_eq!(log.dropped, 0, "the fault ring must not wrap");
    for kind in [TraceEvent::LinkDrain, TraceEvent::FrameCorrupt, TraceEvent::FrameLost] {
        assert!(log.records.iter().any(|r| r.kind() == Some(kind)), "no {kind:?} record");
    }
    assert_eq!(traced_fault_losses(&log), net.link_drops(), "an untraced fault loss");
}
