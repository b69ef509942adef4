//! Layer probes: each times one layer's public functions in isolation,
//! from outside the program, and reports nanoseconds per operation as
//! the median of several batches.

use dsh_core::{Mmu, MmuConfig, Scheme};
use dsh_net::{DataFrame, EgressPort, FlowId, Frame, NodeId, QueuedFrame};
use dsh_simcore::{Bandwidth, Delta, EventQueue, SimRng, Time};
use dsh_transport::{new_cc, AckInfo, CcKind, HopList, TelemetryHop};
use std::hint::black_box;
use std::time::Instant;

/// Batches per probe; the probe reports their median.
const BATCHES: usize = 7;

/// Median nanoseconds per operation of `batch`, which performs `ops`
/// operations per call.
fn ns_per_op(ops: u64, mut batch: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            batch();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Cost of the profiler's two `Instant::now` stamps around one event.
pub fn profiler_pair_ns() -> f64 {
    const N: u64 = 200_000;
    ns_per_op(N, || {
        for _ in 0..N {
            let t = Instant::now();
            black_box(t.elapsed());
        }
    })
}

/// One `pop` plus one `push` on an `EventQueue` holding `depth` events
/// spread over a 100 µs window (the calendar's steady state).
pub fn queue_push_pop_ns(depth: usize) -> f64 {
    const N: u64 = 200_000;
    let depth = depth.max(1);
    let mut rng = SimRng::new(11);
    let mut q = EventQueue::with_capacity(depth + 1);
    for i in 0..depth as u64 {
        q.push(Time::from_ns(rng.gen_range(100_000)), i);
    }
    ns_per_op(N, || {
        for _ in 0..N {
            let (t, e) = q.pop().expect("the probe keeps the queue at depth");
            q.push(t + Delta::from_ns(1 + rng.gen_range(100_000)), black_box(e));
        }
    })
}

/// One `enqueue` plus one `pick` on a DWRR `EgressPort` whose `classes`
/// data classes all stay backlogged.
pub fn dwrr_enqueue_pick_ns(classes: u8) -> f64 {
    const N: u64 = 100_000;
    let mut port = EgressPort::new(NodeId(1), 0, Bandwidth::from_gbps(100), Delta::from_us(2));
    let frame = |class: u8, seq: u64| QueuedFrame {
        frame: Box::new(Frame::data(
            DataFrame {
                flow: FlowId(usize::from(class)),
                src: NodeId(0),
                dst: NodeId(1),
                seq,
                payload: 1000,
                ecn: false,
                hops: HopList::default(),
            },
            class,
        )),
        ingress: None,
    };
    // Four frames per class stay queued so every pick finds work.
    for c in 0..classes {
        for s in 0..4 {
            port.enqueue(frame(c, s));
        }
    }
    let mut now = Time::ZERO;
    ns_per_op(N, || {
        for _ in 0..N {
            let qf = port.pick(now).expect("the probe keeps every class backlogged");
            now += Delta::from_ns(80);
            // The picked frame's box goes straight back in, like the
            // engine's frame pool.
            port.enqueue(black_box(qf));
        }
    })
}

/// One `on_arrival` plus the matching `on_departure` on a Tomahawk MMU
/// running `scheme`, cycling 16 ingress ports.
pub fn mmu_pair_ns(scheme: Scheme) -> f64 {
    const N: u64 = 200_000;
    let mut mmu = Mmu::new(MmuConfig::tomahawk(scheme));
    let mut now = Time::ZERO;
    ns_per_op(N, || {
        for i in 0..N {
            let port = (i % 16) as usize;
            let o = mmu.on_arrival(port, (i % 4) as usize, 1500, now);
            if let Some(region) = o.region {
                black_box(mmu.on_departure(port, (i % 4) as usize, 1500, region, now));
            }
            now += Delta::from_ns(10);
        }
    })
}

/// One `Cc::on_ack` of a `kind` sender, with a three-hop INT path whose
/// queue and counters move every ACK.
pub fn on_ack_ns(kind: CcKind) -> f64 {
    const N: u64 = 200_000;
    let link = Bandwidth::from_gbps(100);
    let mut cc = new_cc(kind, link, Delta::from_us(12));
    let mut now = Time::from_us(1);
    let mut tx = 0u64;
    ns_per_op(N, || {
        for i in 0..N {
            now += Delta::from_ns(120);
            tx += 1500;
            let hop = |k: u64| TelemetryHop {
                qlen_bytes: (i * 37 + k * 1000) % 60_000,
                tx_bytes: tx + k,
                timestamp: now,
                bandwidth: link,
            };
            let hops = [hop(0), hop(1), hop(2)];
            cc.on_ack(now, &AckInfo { acked_bytes: 1500, ecn_echo: i % 64 == 0, hops: &hops });
        }
        black_box(cc.rate());
    })
}

/// One DCQCN timer firing (`next_timer` + `on_timer`); a CNP every 32
/// firings keeps the rate-increase and α timers armed.
pub fn cc_timer_ns() -> f64 {
    const N: u64 = 200_000;
    let mut cc = new_cc(CcKind::Dcqcn, Bandwidth::from_gbps(100), Delta::from_us(12));
    let mut now = Time::from_us(1);
    cc.on_cnp(now);
    ns_per_op(N, || {
        for i in 0..N {
            match cc.next_timer() {
                Some(t) => {
                    now = now.max(t);
                    cc.on_timer(now);
                }
                None => cc.on_cnp(now),
            }
            if i % 32 == 0 {
                cc.on_cnp(now);
            }
        }
        black_box(cc.rate());
    })
}
