//! In-band network telemetry (INT) records, the feedback signal PowerTCP
//! consumes.

use dsh_simcore::{Bandwidth, Json, Time};

/// One hop's telemetry, stamped by a switch when it dequeues a data packet
/// and echoed back to the sender in the ACK.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryHop {
    /// Egress queue length (bytes) at dequeue time.
    pub qlen_bytes: u64,
    /// Cumulative bytes transmitted by the egress port (λ is derived from
    /// its difference between two ACKs).
    pub tx_bytes: u64,
    /// Switch-local timestamp of the dequeue.
    pub timestamp: Time,
    /// Egress link capacity.
    pub bandwidth: Bandwidth,
}

impl TelemetryHop {
    /// JSON form, matching the field layout of the network-level
    /// telemetry export.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("qlen_bytes", self.qlen_bytes)
            .with("tx_bytes", self.tx_bytes)
            .with("timestamp_ns", self.timestamp.as_ns())
            .with("bandwidth_gbps", self.bandwidth.as_gbps_f64())
    }
}

/// Maximum number of switch hops a packet can traverse, and therefore the
/// capacity of an armed [`HopList`]'s stamp storage.
///
/// The nominal data-path diameter of the supported fabrics is 5 egress
/// stamps: a k-ary fat-tree crosses edge→agg→core→agg→edge, and the
/// failure-rerouted leaf–spine paths of the CBD experiment (fig. 12) cross
/// leaf→spine→leaf→spine→leaf. Fault reroutes can lengthen a path past the
/// nominal diameter (a recomputed fat-tree route may detour through an
/// extra agg/core pair), so the capacity carries 3 hops of slack above it.
/// The stamps live out of line in a [`HopStamps`] block, so the constant
/// sizes that block, not the frame. `NetworkBuilder::build` checks the
/// longest computed route against this capacity at build time, and
/// [`HopList::push`] past capacity panics rather than silently dropping
/// telemetry.
pub const HOP_CAPACITY: usize = 8;

const ZERO_HOP: TelemetryHop = TelemetryHop {
    qlen_bytes: 0,
    tx_bytes: 0,
    timestamp: Time::ZERO,
    bandwidth: Bandwidth::from_bps(0),
};

/// Out-of-line storage for one packet's INT stamps: up to
/// [`HOP_CAPACITY`] records plus the live count.
///
/// Only an armed [`HopList`] owns one. The network recycles these blocks
/// through a pool, like frame boxes, so stamping never allocates in
/// steady state.
#[derive(Clone, Debug)]
pub struct HopStamps {
    hops: [TelemetryHop; HOP_CAPACITY],
    len: u8,
}

impl HopStamps {
    /// An empty block.
    #[must_use]
    pub const fn new() -> Self {
        HopStamps { hops: [ZERO_HOP; HOP_CAPACITY], len: 0 }
    }
}

impl Default for HopStamps {
    fn default() -> Self {
        HopStamps::new()
    }
}

/// A packet's INT stamps: an 8-byte handle that is either *unarmed*
/// (stores nothing, reads as empty) or *armed* with a [`HopStamps`] block.
///
/// Only flows whose transport reads INT ([`crate::CcKind::reads_int`]) send
/// armed frames, so every other frame carries one null pointer instead of
/// the stamp array. Switches stamp armed lists only, the receiver moves
/// the list into its ACK, and the sender hands the block back with
/// [`HopList::disarm`] once the ACK is consumed. Equality and `Debug` see
/// only the stamped prefix, so an unarmed list equals an armed empty one.
/// Cloning an armed list copies its block onto the heap.
#[derive(Clone, Default)]
pub struct HopList {
    stamps: Option<Box<HopStamps>>,
}

impl HopList {
    /// An unarmed list: stores nothing, and [`HopList::push`] panics.
    #[must_use]
    pub const fn new() -> Self {
        HopList { stamps: None }
    }

    /// An armed, empty list backed by `storage` (whatever it held before
    /// is discarded).
    #[must_use]
    pub fn armed(mut storage: Box<HopStamps>) -> Self {
        storage.len = 0;
        HopList { stamps: Some(storage) }
    }

    /// Whether the list owns stamp storage.
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.stamps.is_some()
    }

    /// Unarms the list and returns its storage, if it had any.
    pub fn disarm(&mut self) -> Option<Box<HopStamps>> {
        self.stamps.take()
    }

    /// Appends a hop record.
    ///
    /// # Panics
    ///
    /// Panics if the list is unarmed (a stamping path forgot to check
    /// [`HopList::is_armed`]) or already carries [`HOP_CAPACITY`] stamps
    /// (the topology's diameter exceeds the capacity contract).
    pub fn push(&mut self, hop: TelemetryHop) {
        let s = self.stamps.as_deref_mut().expect("HopList::push on an unarmed list");
        assert!(
            (s.len as usize) < HOP_CAPACITY,
            "HopList overflow: path exceeds HOP_CAPACITY ({HOP_CAPACITY}) switch hops; \
             raise dsh_transport::HOP_CAPACITY for deeper topologies"
        );
        s.hops[s.len as usize] = hop;
        s.len += 1;
    }

    /// Number of stamped hops.
    #[must_use]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether no hop has been stamped yet (always true when unarmed).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// The stamped hops, in path order.
    #[must_use]
    pub fn as_slice(&self) -> &[TelemetryHop] {
        match &self.stamps {
            Some(s) => &s.hops[..s.len as usize],
            None => &[],
        }
    }

    /// Iterates over the stamped hops in path order.
    pub fn iter(&self) -> std::slice::Iter<'_, TelemetryHop> {
        self.as_slice().iter()
    }

    /// Removes all hops; an armed list stays armed.
    pub fn clear(&mut self) {
        if let Some(s) = &mut self.stamps {
            s.len = 0;
        }
    }

    /// Builds an armed list holding `hops`, on freshly allocated storage
    /// (test/bench convenience).
    ///
    /// # Panics
    ///
    /// Panics if `hops.len() > HOP_CAPACITY`.
    #[must_use]
    pub fn from_slice(hops: &[TelemetryHop]) -> Self {
        let mut out = HopList::armed(Box::default());
        for h in hops {
            out.push(*h);
        }
        out
    }
}

impl std::ops::Deref for HopList {
    type Target = [TelemetryHop];

    fn deref(&self) -> &[TelemetryHop] {
        self.as_slice()
    }
}

impl PartialEq for HopList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for HopList {}

impl std::fmt::Debug for HopList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<'a> IntoIterator for &'a HopList {
    type Item = &'a TelemetryHop;
    type IntoIter = std::slice::Iter<'a, TelemetryHop>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(n: u64) -> TelemetryHop {
        TelemetryHop {
            qlen_bytes: n,
            tx_bytes: n * 10,
            timestamp: Time::from_us(n),
            bandwidth: Bandwidth::from_gbps(100),
        }
    }

    #[test]
    fn telemetry_is_plain_data() {
        let h = hop(1);
        let h2 = h;
        assert_eq!(h, h2);
    }

    #[test]
    fn hoplist_push_and_iterate_in_path_order() {
        let mut l = HopList::armed(Box::default());
        assert!(l.is_empty());
        for n in 0..4 {
            l.push(hop(n));
        }
        assert_eq!(l.len(), 4);
        assert_eq!(l.as_slice(), &[hop(0), hop(1), hop(2), hop(3)]);
        let via_iter: Vec<u64> = l.iter().map(|h| h.qlen_bytes).collect();
        assert_eq!(via_iter, vec![0, 1, 2, 3]);
    }

    #[test]
    fn hoplist_clones_and_compares_by_live_prefix() {
        let mut a = HopList::armed(Box::default());
        a.push(hop(7));
        let b = a.clone(); // A deep copy: the clone owns its own block.
        a.push(hop(8));
        assert_eq!(b.as_slice(), &[hop(7)]);
        assert_ne!(a, b);
        let mut c = HopList::from_slice(&[hop(7), hop(8)]);
        assert_eq!(a, c);
        c.clear();
        assert!(c.is_armed(), "clear keeps the storage");
        // Empty armed and unarmed lists compare equal: only stamps count.
        assert_eq!(c, HopList::new());
    }

    #[test]
    fn hoplist_unarmed_stores_nothing_and_disarm_returns_storage() {
        assert_eq!(std::mem::size_of::<HopList>(), 8);
        let mut u = HopList::default();
        assert!(!u.is_armed());
        assert!(u.is_empty());
        assert!(u.disarm().is_none());

        let mut a = HopList::from_slice(&[hop(1), hop(2)]);
        let storage = a.disarm().expect("armed list owns storage");
        assert!(!a.is_armed());
        assert!(a.is_empty());
        // Re-arming recycled storage starts from an empty list.
        let b = HopList::armed(storage);
        assert!(b.is_armed());
        assert!(b.is_empty());
    }

    #[test]
    #[should_panic(expected = "unarmed")]
    fn hoplist_push_on_unarmed_panics() {
        HopList::new().push(hop(1));
    }

    #[test]
    fn hoplist_derefs_to_slice() {
        let l = HopList::from_slice(&[hop(1), hop(2)]);
        // &*l is what `AckInfo { hops: &ack.hops }` relies on.
        let s: &[TelemetryHop] = &l;
        assert_eq!(s.len(), 2);
        assert_eq!(l.first(), Some(&hop(1)));
    }

    #[test]
    #[should_panic(expected = "HopList overflow")]
    fn hoplist_overflow_panics() {
        let mut l = HopList::armed(Box::default());
        for n in 0..=HOP_CAPACITY as u64 {
            l.push(hop(n));
        }
    }

    #[test]
    fn telemetry_hop_json_roundtrips() {
        let h = TelemetryHop {
            qlen_bytes: 1500,
            tx_bytes: 1_000_000,
            timestamp: Time::from_us(3),
            bandwidth: Bandwidth::from_gbps(100),
        };
        let j = h.to_json();
        assert_eq!(j.get("qlen_bytes").unwrap().as_u64(), Some(1500));
        assert_eq!(j.get("bandwidth_gbps").unwrap().as_f64(), Some(100.0));
        assert_eq!(Json::parse(&j.to_string()).unwrap(), j);
    }
}
