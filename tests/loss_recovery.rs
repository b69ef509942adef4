//! Loss-recovery regimes end to end: the lossy (no-PFC) switch mode must
//! drop instead of pausing and still deliver every flow through recovery,
//! selective repeat must repair exactly the lost segments (cheaper than a
//! go-back-N rewind at the same drop rate), and every regime must stay
//! bit-identical at any executor width.

mod common;

use common::{add_incast, assert_bounded_loss, assert_lossless, raw_params, run, star};
use dsh_core::Scheme;
use dsh_net::topology::{leaf_spine, LeafSpine, LeafSpineShape};
use dsh_net::{FaultPlan, FlowSpec, NetParams, Network};
use dsh_simcore::{Bandwidth, ByteSize, Delta, Executor, Time};
use dsh_transport::{CcKind, RecoveryConfig};
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
/// rack-1 host, so all flows transit the spine layer.
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

/// Selective-repeat recovery config for a fabric with the given base RTT.
fn sr_for(params: &NetParams) -> RecoveryConfig {
    RecoveryConfig::for_rtt(params.base_rtt).selective_repeat()
}

/// The lossy switch mode's defining behavior: an overloaded no-PFC switch
/// sheds load with drop-tail admission drops — never a pause frame, never
/// a headroom byte — and go-back-N still completes every flow.
#[test]
fn lossy_incast_drops_instead_of_pausing() {
    let params = raw_params(Scheme::Lossy).with_buffer(ByteSize::kib(600)).with_default_recovery();
    let (mut net, hosts) = star(params, 4);
    add_incast(&mut net, &hosts[..3], hosts[3], 256 * 1024, 0, Time::ZERO, CcKind::Uncontrolled);
    let registered = net.flow_count();
    let end = Time::from_ms(10);
    let net = run(net, end);

    assert!(net.data_drops() > 0, "a 3:1 unpaced incast into 600 KiB never overflowed");
    assert_eq!(net.fct_records().len(), registered, "a dropped flow wedged");
    assert_eq!(net.failed_flow_count(), 0, "recoverable congestion loss failed a flow");
    assert!(net.retransmissions() > 0, "drops happened but recovery never kicked in");
    assert_bounded_loss(&net, end, net.packets_delivered());
}

/// Selective repeat on a corrupted spine link: receivers buffer
/// out-of-order arrivals and NACK the gaps, the sender repairs exactly
/// the holes, and every flow completes.
#[test]
fn selective_repeat_recovers_corruption() {
    let params = NetParams::tomahawk(Scheme::Dsh);
    let params = params.clone().with_recovery(sr_for(&params));
    let ls = fabric(params, 2);
    let (leaf0, spine0) = (ls.leaves[0], ls.spines[0]);
    let hosts = ls.hosts.clone();
    let mut net = ls.builder.build();
    cross_rack_incast(&hosts, &mut net, 256 * 1024, CcKind::Dcqcn);
    net.set_fault_plan(FaultPlan::new(11).corrupt_link(leaf0, spine0, 0.02));
    let registered = net.flow_count();
    let end = Time::from_ms(8);
    let net = run(net, end);

    assert_eq!(net.fct_records().len(), registered, "corruption wedged a flow under SR");
    assert_eq!(net.failed_flow_count(), 0);
    assert!(net.link_drops() > 0, "2% corruption on a loaded link lost nothing");
    assert!(net.nacks_sent() > 0, "losses recovered without a single NACK");
    assert!(net.sr_retransmitted_bytes() > 0, "NACKs flowed but no gap repair was sent");
    assert!(net.recovery_nacks() > 0, "no loss episode was attributed to a NACK");
    assert_lossless(&net, end);
}

/// The headline claim for selective repeat: at the same drop rate (the
/// fig13x-style flap + corruption plan), SR completes every flow while
/// retransmitting strictly fewer bytes than go-back-N, whose rewind
/// replays the whole window behind one lost segment.
#[test]
fn sr_retransmits_fewer_bytes_than_gbn() {
    let run_regime = |cfg: fn(&NetParams) -> RecoveryConfig| {
        let base = NetParams::tomahawk(Scheme::Dsh);
        let params = base.clone().with_recovery(cfg(&base));
        let ls = fabric(params, 2);
        let (leaf0, spine0) = (ls.leaves[0], ls.spines[0]);
        let hosts = ls.hosts.clone();
        let mut net = ls.builder.build();
        cross_rack_incast(&hosts, &mut net, 256 * 1024, CcKind::Dcqcn);
        net.set_fault_plan(
            FaultPlan::new(7)
                .flap(leaf0, spine0, Time::from_us(20), Time::from_us(120))
                .corrupt_link(leaf0, spine0, 0.01),
        );
        let registered = net.flow_count();
        let end = Time::from_ms(10);
        let net = run(net, end);
        assert_eq!(net.fct_records().len(), registered, "a flow wedged");
        assert_eq!(net.failed_flow_count(), 0, "a survivable fault failed a flow");
        assert!(net.link_drops() > 0, "the plan lost nothing");
        assert_lossless(&net, end);
        net.retransmitted_bytes()
    };
    let gbn = run_regime(|p| RecoveryConfig::for_rtt(p.base_rtt));
    let sr = run_regime(sr_for);
    assert!(gbn > 0, "go-back-N never retransmitted under the flap plan");
    assert!(
        sr < gbn,
        "selective repeat retransmitted {sr} bytes, go-back-N {gbn}: SR should repair less"
    );
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

/// The three regimes under test: lossless PFC with go-back-N, and the
/// lossy switch mode with each recovery regime.
#[derive(Clone, Copy, Debug)]
enum RegimeCell {
    PfcGbn,
    LossyGbn,
    LossySr,
}

impl RegimeCell {
    const ALL: [RegimeCell; 3] = [RegimeCell::PfcGbn, RegimeCell::LossyGbn, RegimeCell::LossySr];

    fn params(self, seed: u64) -> NetParams {
        let (scheme, sr) = match self {
            RegimeCell::PfcGbn => (Scheme::Dsh, false),
            RegimeCell::LossyGbn => (Scheme::Lossy, false),
            RegimeCell::LossySr => (Scheme::Lossy, true),
        };
        let base = NetParams::tomahawk(scheme).with_seed(seed);
        let cfg = if sr { sr_for(&base) } else { RecoveryConfig::for_rtt(base.base_rtt) };
        base.with_recovery(cfg)
    }
}

/// Builds, loads and runs the property fabric under one random scenario,
/// returning the finished network plus its registered flow count.
fn run_random(cell: RegimeCell, f: &RandomFaults) -> (Network, usize) {
    let ls = fabric(cell.params(f.seed), 2);
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
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Under *any* always-repaired fault plan, in all three regimes
    /// (PFC+GBN, lossy+GBN, lossy+SR): every flow completes (none wedged,
    /// none failed — the plan always repairs), the MMU audit is clean,
    /// lossy cells never pause, and the run is byte-identical at 1 and 4
    /// executor threads.
    #[test]
    fn all_regimes_recover_random_fault_plans(f in fault_strategy()) {
        for cell in RegimeCell::ALL {
            let [serial, four] = [Executor::new(1), Executor::new(4)].map(|ex| {
                ex.par_map(vec![f, f], move |rf| {
                    let (net, registered) = run_random(cell, &rf);
                    let end = Time::from_ms(10);
                    let done = net.fct_records().len() as u64 + net.failed_flow_count();
                    assert_eq!(done, registered as u64, "wedged flow under {cell:?} {rf:?}");
                    match cell {
                        RegimeCell::PfcGbn => assert_lossless(&net, end),
                        RegimeCell::LossyGbn | RegimeCell::LossySr => {
                            assert_bounded_loss(&net, end, net.packets_delivered());
                        }
                    }
                    for (id, audit) in net.audit_all() {
                        assert!(
                            audit.is_clean(),
                            "dirty audit at {id} under {cell:?} {rf:?}: {:?}",
                            audit.violations
                        );
                    }
                    net.telemetry_report(end).to_json().to_string()
                })
            });
            prop_assert_eq!(serial, four, "thread count changed a {:?} fault run", cell);
        }
    }
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

/// Golden digests of fig17's smoke lossy cells (go-back-N and selective
/// repeat over a drop-tail MMU): telemetry JSON, every FCT record and
/// the event count. Pinned before the two RTO handlers were merged into
/// one; the timeout, NACK and repair paths must not move an event.
#[test]
fn lossy_smoke_cells_match_pinned_digests() {
    use dsh_bench::fig17::{self, Cell};
    for (cell, golden) in
        [(Cell::LossyGbn, 835_027_510_373_699_573u64), (Cell::LossySr, 942_866_989_386_948_121)]
    {
        let exp = fig17::smoke_base(cell);
        let (net, _) = fig17::loaded(&exp);
        let end = Time::ZERO + exp.run_until;
        let (net, events) = dsh_bench::fabric::run_net(net, end, 1);
        assert!(net.data_drops() > 0, "{cell:?}: the lossy cell must drop");
        let doc = format!("{}{:?}{events}", net.telemetry_report(end).to_json(), net.fct_records());
        assert_eq!(fnv1a(&doc), golden, "{cell:?}: lossy smoke cell drifted");
    }
}
