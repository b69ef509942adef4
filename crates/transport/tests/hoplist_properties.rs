//! Property tests pinning [`HopList`] to the semantics of the
//! `Vec<TelemetryHop>` it replaced inside data/ACK frames.
//!
//! An armed list is a hot-path optimization, not a behavior change: for
//! any trace of push/clear operations that stays within [`HOP_CAPACITY`]
//! (the topology-diameter contract), the list must observe exactly like
//! the Vec did — same order, same length, same slice, same iteration —
//! and a push past capacity must panic rather than silently drop
//! telemetry. An unarmed list observes like an empty Vec that refuses
//! pushes, and disarming hands the storage back for reuse.

use dsh_simcore::{Bandwidth, Time};
use dsh_transport::{HopList, TelemetryHop, HOP_CAPACITY};
use proptest::prelude::*;

fn hop(tag: u64) -> TelemetryHop {
    TelemetryHop {
        qlen_bytes: tag,
        tx_bytes: tag.wrapping_mul(17),
        timestamp: Time::from_ns(tag),
        bandwidth: Bandwidth::from_gbps(100),
    }
}

/// Applies one op to both representations; `0` clears, `1` disarms and
/// re-arms the list on its own storage (the pool round trip; the model
/// empties), anything else pushes (skipped when the Vec model is at
/// capacity, since that push is the defined-panic case covered
/// separately).
fn step(code: u64, list: &mut HopList, model: &mut Vec<TelemetryHop>) {
    if code == 0 {
        list.clear();
        model.clear();
    } else if code == 1 {
        let storage = list.disarm().expect("the traced list stays armed");
        prop_assert_unarmed(list);
        *list = HopList::armed(storage);
        model.clear();
    } else if model.len() < HOP_CAPACITY {
        let h = hop(code);
        list.push(h);
        model.push(h);
    }
}

fn prop_assert_unarmed(list: &HopList) {
    assert!(!list.is_armed());
    assert!(list.is_empty());
    assert_eq!(list.as_slice(), &[] as &[TelemetryHop]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hoplist_traces_match_vec_semantics(
        ops in proptest::collection::vec(0u64..100, 1..64),
    ) {
        let mut list = HopList::armed(Box::default());
        let mut model: Vec<TelemetryHop> = Vec::new();
        for &code in &ops {
            step(code, &mut list, &mut model);
            prop_assert!(list.is_armed());
            prop_assert_eq!(list.len(), model.len());
            prop_assert_eq!(list.is_empty(), model.is_empty());
            prop_assert_eq!(list.as_slice(), model.as_slice());
            // Iteration (the PowerTCP consumer's access pattern) agrees.
            prop_assert!(list.iter().eq(model.iter()));
            // Deref lets `&list` feed `AckInfo { hops: &[TelemetryHop] }`.
            let via_deref: &[TelemetryHop] = &list;
            prop_assert_eq!(via_deref, model.as_slice());
            // A clone is a deep copy that observes identically.
            let copy = list.clone();
            prop_assert_eq!(copy.as_slice(), model.as_slice());
        }
        // Round-tripping the final state through a slice is lossless.
        prop_assert_eq!(HopList::from_slice(&model), list);
    }

    #[test]
    fn unarmed_lists_refuse_pushes_and_stay_empty(tag in 2u64..100) {
        let mut list = HopList::default();
        prop_assert_unarmed(&list);
        prop_assert_eq!(list.clone(), HopList::new());
        let panicked = std::panic::catch_unwind(move || list.push(hop(tag)));
        prop_assert!(panicked.is_err(), "push on an unarmed list must panic");
    }

    #[test]
    fn hoplist_overflow_panics_exactly_at_capacity(extra in 1u64..4) {
        let mut list = HopList::armed(Box::default());
        for n in 0..HOP_CAPACITY as u64 {
            list.push(hop(n + 1)); // Filling to capacity is fine...
        }
        prop_assert_eq!(list.len(), HOP_CAPACITY);
        let panicked = std::panic::catch_unwind(move || {
            list.push(hop(extra)); // ...one more must panic, like Vec would
                                   // never do — overflow is a topology bug.
        });
        prop_assert!(panicked.is_err(), "push past HOP_CAPACITY must panic");
    }
}
