#![allow(dead_code)] // helpers are shared; each test file uses a subset
//! Shared helpers for the integration tests.

use dsh_core::Scheme;
use dsh_net::{FlowSpec, NetParams, Network, NetworkBuilder, NodeId};
use dsh_simcore::{Bandwidth, Delta, Time};
use dsh_transport::CcKind;

/// A single switch with `n` hosts attached at 100 Gb/s / 2 µs (the paper's
/// microbenchmark unit).
pub fn star(params: NetParams, n: usize) -> (Network, Vec<NodeId>) {
    let mut b = NetworkBuilder::new(params);
    let hosts: Vec<NodeId> = (0..n).map(|_| b.host()).collect();
    let s = b.switch();
    for &h in &hosts {
        b.link(h, s, Bandwidth::from_gbps(100), Delta::from_us(2));
    }
    (b.build(), hosts)
}

/// Tomahawk params with ECN off (uncontrolled microbenchmarks).
pub fn raw_params(scheme: Scheme) -> NetParams {
    NetParams::tomahawk(scheme).without_ecn()
}

/// Adds an incast: `senders` each ship `size` bytes to `dst` at `start`,
/// all in `class`, uncontrolled.
pub fn add_incast(
    net: &mut Network,
    senders: &[NodeId],
    dst: NodeId,
    size: u64,
    class: u8,
    start: Time,
    cc: CcKind,
) {
    for &src in senders {
        net.add_flow(FlowSpec { src, dst, size, class, start, cc });
    }
}

/// Runs until `deadline` and returns the finished model.
pub fn run(net: Network, deadline: Time) -> Network {
    let mut sim = net.into_sim();
    sim.run_until(deadline);
    sim.into_model()
}

/// Asserts the run was lossless and internally consistent. On failure the
/// message names each offending switch, port, and violated invariant
/// (from [`Network::telemetry_report`]) instead of a bare counter.
///
/// Fault-aware: frames lost to an installed [`FaultPlan`] (`link_drops`)
/// are the injected faults doing their job and are permitted; MMU
/// admission drops (`data_drops`) are hard failures either way, and
/// `link_drops` without a fault plan mean the fault path leaked into a
/// healthy run.
///
/// [`FaultPlan`]: dsh_net::FaultPlan
pub fn assert_lossless(net: &Network, now: Time) {
    let report = net.telemetry_report(now);
    let violations = report.lossless_violations();
    assert!(
        violations.is_empty() && net.data_drops() == 0,
        "losslessness violated ({} data drops):\n{}",
        net.data_drops(),
        violations.join("\n")
    );
    assert!(
        net.fault_plan_active() || net.link_drops() == 0,
        "{} link drops without an installed fault plan",
        net.link_drops()
    );
}

/// The lossy-mode sibling of [`assert_lossless`]: drop-tail admission
/// drops are expected congestion signal (bounded by `max_data_drops`),
/// but the switch must never have paused — a lossy switch sends no PFC —
/// and every MMU audit must still be clean (no headroom or insurance
/// charges, no pause ledger residue).
pub fn assert_bounded_loss(net: &Network, now: Time, max_data_drops: u64) {
    assert!(
        net.data_drops() <= max_data_drops,
        "lossy run exceeded its drop budget: {} > {max_data_drops} drops",
        net.data_drops()
    );
    let paused_ns: u64 =
        net.pause_ledgers(now).map(|l| l.queue_level.as_ns() + l.port_level.as_ns()).sum();
    assert_eq!(paused_ns, 0, "a lossy run paused for {paused_ns} ns — PFC leaked into no-PFC mode");
    for (id, audit) in net.audit_all() {
        assert!(audit.is_clean(), "dirty audit at {id} in a lossy run: {:?}", audit.violations);
    }
    assert!(
        net.fault_plan_active() || net.link_drops() == 0,
        "{} link drops without an installed fault plan",
        net.link_drops()
    );
}

/// Frames a flight-recorder log attributes to faults: every frame a dying
/// link drained, every corrupted frame, every frame lost on a dead link
/// or black-holed for want of a route. Equals `Network::link_drops` when
/// the ring did not wrap.
pub fn traced_fault_losses(log: &dsh_simcore::trace::TraceLog) -> u64 {
    use dsh_simcore::trace::TraceEvent;
    log.records
        .iter()
        .map(|r| match r.kind() {
            Some(TraceEvent::LinkDrain) => r.payload,
            Some(TraceEvent::FrameCorrupt | TraceEvent::FrameLost) => 1,
            _ => 0,
        })
        .sum()
}
