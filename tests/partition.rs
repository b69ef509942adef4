//! Property tests of the link partitioner behind the intra-run parallel
//! engine: any connected topology must split into non-empty,
//! host-closed blocks whose guaranteed lookahead is exactly the minimum
//! propagation delay over the cut links — and a zero-delay cut link must
//! be rejected at build time, never discovered as a hang at run time.

use dsh_core::Scheme;
use dsh_net::topology::{fat_tree, leaf_spine, LeafSpineShape};
use dsh_net::{
    partition, NetParams, Network, NetworkBuilder, NodeId, PartitionError, MAX_PARTITIONS,
};
use dsh_simcore::{Bandwidth, Delta};
use proptest::prelude::*;

const BW: Bandwidth = Bandwidth::from_gbps(100);

/// A generated topology plus the ground truth the partitioner must
/// respect: its switches, its switch–switch links (with delays), and
/// each host's uplink switch.
struct Topo {
    net: Network,
    switches: Vec<NodeId>,
    switch_links: Vec<(NodeId, NodeId, Delta)>,
    host_uplinks: Vec<(NodeId, NodeId)>,
}

/// A varied but deterministic inter-switch delay in 1–4 µs.
fn delay(seed: u64, i: usize) -> Delta {
    Delta::from_us(1 + (seed.wrapping_add(i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 61) % 4)
}

/// A chain (or ring) of `n` switches with one host each and varied
/// inter-switch delays.
fn chain_or_ring(n: usize, seed: u64, ring: bool) -> Topo {
    let mut b = NetworkBuilder::new(NetParams::tomahawk(Scheme::Dsh));
    let switches: Vec<_> = (0..n).map(|_| b.switch()).collect();
    let mut switch_links = Vec::new();
    let mut host_uplinks = Vec::new();
    for i in 0..n.saturating_sub(1) {
        let d = delay(seed, i);
        b.link(switches[i], switches[i + 1], BW, d);
        switch_links.push((switches[i], switches[i + 1], d));
    }
    if ring && n > 2 {
        let d = delay(seed, n);
        b.link(switches[n - 1], switches[0], BW, d);
        switch_links.push((switches[n - 1], switches[0], d));
    }
    for &s in &switches {
        let h = b.host();
        b.link(h, s, BW, Delta::from_us(1));
        host_uplinks.push((h, s));
    }
    Topo { net: b.build(), switches, switch_links, host_uplinks }
}

/// A leaf–spine fabric; every switch–switch link shares one delay.
fn leaf_spine_topo(leaves: usize, spines: usize, hosts_per_leaf: usize, seed: u64) -> Topo {
    let d = delay(seed, 0);
    let ls = leaf_spine(
        NetParams::tomahawk(Scheme::Dsh),
        LeafSpineShape { leaves, spines, hosts_per_leaf, downlink: BW, uplink: BW, link_delay: d },
    );
    let mut switches = ls.leaves.clone();
    switches.extend_from_slice(&ls.spines);
    let mut switch_links = Vec::new();
    for &leaf in &ls.leaves {
        for &spine in &ls.spines {
            switch_links.push((leaf, spine, d));
        }
    }
    let mut host_uplinks = Vec::new();
    for (li, rack) in ls.hosts.iter().enumerate() {
        for &h in rack {
            host_uplinks.push((h, ls.leaves[li]));
        }
    }
    Topo { net: ls.builder.build(), switches, switch_links, host_uplinks }
}

/// A k-ary fat-tree; uniform link delay, ground truth from the builder's
/// published layers.
fn fat_tree_topo(k: usize, seed: u64) -> Topo {
    let d = delay(seed, 0);
    let ft = fat_tree(NetParams::tomahawk(Scheme::Dsh), k, BW, d);
    let mut switches = Vec::new();
    switches.extend_from_slice(&ft.cores);
    for pod in 0..k {
        switches.extend_from_slice(&ft.aggs[pod]);
        switches.extend_from_slice(&ft.edges[pod]);
    }
    // The exact link list is the builder's business; all inter-switch
    // delays equal `d`, which is all the lookahead check needs.
    // hosts[pod] is edge-major: the first k/2 hosts hang off edge 0, the
    // next k/2 off edge 1, and so on (see `fat_tree`).
    let mut host_uplinks = Vec::new();
    for pod in 0..k {
        for (i, &h) in ft.hosts[pod].iter().enumerate() {
            host_uplinks.push((h, ft.edges[pod][i / (k / 2)]));
        }
    }
    Topo { net: ft.builder.build(), switches, switch_links: Vec::new(), host_uplinks }
}

/// Checks every partitioner postcondition against the ground truth.
///
/// `uniform_delay` stands in for the link list when the topology has one
/// delay everywhere (fat-tree): any cut link then yields that lookahead.
fn check_plan(topo: &Topo, max_parts: usize, uniform_delay: Option<Delta>) {
    let plan = partition(&topo.net, max_parts).expect("positive-delay topology must partition");
    let owner = plan.owner();
    let parts = plan.parts();
    assert!(parts >= 1);
    assert!(parts <= max_parts.max(1));
    assert!(parts <= topo.switches.len().max(1));

    // Non-empty: every partition id owns at least one switch.
    let mut seen = vec![false; parts];
    for &s in &topo.switches {
        let o = owner[s.0] as usize;
        assert!(o < parts, "switch {s} owned by out-of-range partition {o}");
        seen[o] = true;
    }
    assert!(seen.iter().all(|&x| x), "empty partition in {seen:?}");

    // Host-closed: every host rides with its uplink switch, so only
    // switch–switch links are ever cut.
    for &(h, s) in &topo.host_uplinks {
        assert_eq!(owner[h.0], owner[s.0], "host {h} split from its switch {s}");
    }

    // Lookahead = min propagation delay over the cut.
    let cut_min = if let Some(d) = uniform_delay {
        (parts > 1).then_some(d)
    } else {
        topo.switch_links
            .iter()
            .filter(|(a, b, _)| owner[a.0] != owner[b.0])
            .map(|&(_, _, d)| d)
            .min()
    };
    if let Some(expect) = cut_min {
        assert_eq!(plan.lookahead(), expect, "lookahead must equal the min cut delay");
    }
    if parts == 1 {
        assert!(
            topo.switch_links.iter().all(|(a, b, _)| owner[a.0] == owner[b.0]),
            "single partition cannot cut links"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    // Chains are capped at 8 switches: the builder rejects deeper routes
    // (armed frames carry at most HOP_CAPACITY telemetry stamps).
    fn chains_partition_cleanly(n in 1usize..9, seed in 0u64..1000, max_parts in 1usize..10) {
        check_plan(&chain_or_ring(n, seed, false), max_parts, None);
    }

    #[test]
    fn rings_partition_cleanly(n in 3usize..12, seed in 0u64..1000, max_parts in 1usize..10) {
        check_plan(&chain_or_ring(n, seed, true), max_parts, None);
    }

    #[test]
    fn leaf_spines_partition_cleanly(
        leaves in 2usize..5,
        spines in 2usize..5,
        hosts in 1usize..4,
        seed in 0u64..1000,
        max_parts in 1usize..10,
    ) {
        check_plan(&leaf_spine_topo(leaves, spines, hosts, seed), max_parts, Some(delay(seed, 0)));
    }

    #[test]
    fn zero_delay_cut_links_are_rejected(n in 2usize..8, max_parts in 2usize..10) {
        // All inter-switch links at zero delay: with at least two blocks
        // some consecutive pair is cut, so the partitioner must refuse.
        let mut b = NetworkBuilder::new(NetParams::tomahawk(Scheme::Dsh));
        let switches: Vec<_> = (0..n).map(|_| b.switch()).collect();
        for w in switches.windows(2) {
            b.link(w[0], w[1], BW, Delta::ZERO);
        }
        for &s in &switches {
            let h = b.host();
            b.link(h, s, BW, Delta::from_us(1));
        }
        let err = partition(&b.build(), max_parts).expect_err("zero-delay cut must be rejected");
        let PartitionError::ZeroDelayCut { a, b } = err;
        prop_assert!(a.0 < n && b.0 < n, "error must name the offending switch pair");
    }
}

/// Fat-trees at the paper's evaluation arities; plain tests (each builds
/// a sizeable fabric, so random repetition buys nothing).
#[test]
fn fat_trees_partition_cleanly() {
    for k in [4, 8] {
        for max_parts in [1, 3, MAX_PARTITIONS] {
            let topo = fat_tree_topo(k, k as u64);
            check_plan(&topo, max_parts, Some(delay(k as u64, 0)));
        }
    }
}

/// The partition layout must be a pure function of the topology — the
/// worker count never feeds into it (that is what keeps partitioned runs
/// bit-identical at any parallelism).
#[test]
fn plan_is_a_pure_function_of_topology() {
    let a = partition(&chain_or_ring(6, 9, false).net, MAX_PARTITIONS).unwrap();
    let b = partition(&chain_or_ring(6, 9, false).net, MAX_PARTITIONS).unwrap();
    assert_eq!(a, b);
}
