//! The benchmark's simulation cells: how each one is set up from a seed,
//! run, summarized and checked, all through the libraries' public API.

use dsh_analysis::fct::FctSummary;
use dsh_core::{MmuStats, Scheme};
use dsh_net::topology::{leaf_spine, LeafSpineShape};
use dsh_net::{
    FidelityMode, FidelityStats, FlowSpec, NetParams, Network, ObserveConfig, ParallelSim,
};
use dsh_simcore::{Bandwidth, ByteSize, Delta, EngineProfile, SimRng, Simulation, Time};
use dsh_transport::{CcKind, RecoveryConfig, Regime};
use dsh_workloads::{background_flows, fan_in_bursts, FlowSizeDist, PatternConfig, Workload};
use std::time::{Duration, Instant};

/// Per-host link capacity in bytes/second (100 Gb/s), the load base.
const HOST_BYTES_PER_SEC: f64 = 12.5e9;

/// One simulation cell: a fabric, a traffic mix and an engine, run from
/// time zero to a fixed simulated deadline.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Short label used in metric rows and spans.
    pub label: &'static str,
    /// MMU scheme of every switch.
    pub scheme: Scheme,
    /// Leaf–spine shape: leaves, spines, hosts per leaf.
    pub leaves: usize,
    /// Spine switches.
    pub spines: usize,
    /// Hosts per leaf.
    pub hosts_per_leaf: usize,
    /// Lossless-pool buffer per switch.
    pub buffer: ByteSize,
    /// Engine fidelity (packet or hybrid fluid/packet).
    pub fidelity: FidelityMode,
    /// Web-search background load and the classes it spreads over.
    pub bg_load: f64,
    /// Classes background flows are spread over.
    pub bg_classes: &'static [u8],
    /// Fan-in load, senders per burst (64 KB each) and class.
    pub fanin_load: f64,
    /// Senders per fan-in burst.
    pub fan_in: usize,
    /// Class of fan-in flows.
    pub fan_class: u8,
    /// Loss recovery the transports run (`None`: none, PFC guarantees
    /// delivery).
    pub recovery: Option<Regime>,
    /// Flows start within `[0, horizon)`.
    pub horizon: Delta,
    /// Simulated deadline of the run.
    pub run_until: Delta,
    /// 0 runs the serial calendar; `n >= 1` the partitioned engine on
    /// `n` worker threads.
    pub workers: usize,
}

impl Cell {
    /// Whether the cell's fabric must never drop (PFC on).
    pub fn lossless(&self) -> bool {
        self.scheme.is_lossless()
    }

    /// The cell's parameters, for provenance headers.
    pub fn describe(&self) -> dsh_simcore::Json {
        dsh_simcore::Json::object()
            .with("label", self.label)
            .with("scheme", self.scheme.to_string())
            .with(
                "fabric",
                format!(
                    "leaf-spine {}x{}x{} hosts, {} B buffer",
                    self.leaves,
                    self.spines,
                    self.hosts_per_leaf,
                    self.buffer.as_u64()
                ),
            )
            .with("fidelity", self.fidelity.spec())
            .with("bg_load", self.bg_load)
            .with("fanin_load", self.fanin_load)
            .with("fan_in", self.fan_in)
            .with("recovery", self.recovery.map_or("none", Regime::as_str))
            .with("horizon_ns", self.horizon.as_ns())
            .with("run_until_ns", self.run_until.as_ns())
            .with(
                "engine",
                if self.workers == 0 {
                    "serial".to_string()
                } else {
                    format!("partitioned:{}", self.workers)
                },
            )
    }
}

/// The engine a loaded cell runs on.
#[allow(clippy::large_enum_variant)] // one per cell, moved a handful of times
pub enum Engine {
    /// The serial calendar.
    Serial(Simulation<Network>),
    /// The link-partitioned conservative engine.
    Par(ParallelSim),
}

/// Host time of the three set-up phases of one cell.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Fabric build (`leaf_spine` + `NetworkBuilder::build`).
    pub build: Duration,
    /// Flow generation (`dsh_workloads` patterns).
    pub workloads: Duration,
    /// `add_flow` plus `into_sim` / `ParallelSim::new`.
    pub load: Duration,
    /// The `into_sim` / `ParallelSim::new` part of `load` (the latter
    /// partitions the network and pre-warms every partition's frame pool).
    pub engine: Duration,
    /// Flows generated.
    pub flows: usize,
}

impl SetupTimes {
    /// Sum of the three phases.
    pub fn total(&self) -> Duration {
        self.build + self.workloads + self.load
    }
}

/// Deliberately broken inputs, for the self-test: each makes exactly one
/// correctness check fire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Break {
    /// Lossless cells run the drop-tail scheme: drops in a lossless cell.
    Drops,
    /// The deadline falls before flows can finish: wedged flows.
    Wedged,
    /// Repeats after the first draw flows from another seed: the digest
    /// of deterministic counts differs between repeats.
    Digest,
    /// A synthetic violation is appended to the first audit report.
    Audit,
}

impl Break {
    /// Parses a `--break` operand.
    pub fn parse(s: &str) -> Option<Break> {
        match s {
            "drops" => Some(Break::Drops),
            "wedged" => Some(Break::Wedged),
            "digest" => Some(Break::Digest),
            "audit" => Some(Break::Audit),
            _ => None,
        }
    }
}

/// A cell ready to run, with the set-up cost it took.
pub struct Loaded {
    /// The engine holding the network.
    pub engine: Engine,
    /// Registered flows.
    pub registered: usize,
    /// Set-up phase times.
    pub setup: SetupTimes,
}

/// Builds the cell's fabric, generates its flows from `seed` and loads
/// them; each phase is timed. `observe` arms the pause-causality tracker
/// and metrics sampler.
pub fn load(cell: &Cell, seed: u64, observe: bool, brk: Option<Break>) -> Loaded {
    // `--break drops`: drop-tail switches with a sliver of buffer under a
    // cell that must be lossless (selective repeat keeps flows whole).
    let (scheme, buffer, recovery) = if brk == Some(Break::Drops) {
        (Scheme::Lossy, ByteSize::mib(1), Some(Regime::SelectiveRepeat))
    } else {
        (cell.scheme, cell.buffer, cell.recovery)
    };

    let t0 = Instant::now();
    let mut params = NetParams::tomahawk(scheme)
        .with_buffer(buffer)
        .with_seed(seed)
        .with_fidelity(cell.fidelity);
    if let Some(regime) = recovery {
        let cfg = RecoveryConfig::for_rtt(params.base_rtt);
        let cfg = if regime == Regime::SelectiveRepeat { cfg.selective_repeat() } else { cfg };
        params = params.with_recovery(cfg);
    }
    if observe {
        params = params.with_observability(ObserveConfig::default());
    }
    let ls = leaf_spine(
        params,
        LeafSpineShape {
            leaves: cell.leaves,
            spines: cell.spines,
            hosts_per_leaf: cell.hosts_per_leaf,
            downlink: Bandwidth::from_gbps(100),
            uplink: Bandwidth::from_gbps(100),
            link_delay: Delta::from_us(2),
        },
    );
    let hosts = ls.all_hosts();
    let mut net = ls.builder.build();
    let t1 = Instant::now();

    let flows = generate(cell, seed, hosts.len());
    let t2 = Instant::now();

    for f in &flows {
        net.add_flow(FlowSpec {
            src: hosts[f.src],
            dst: hosts[f.dst],
            size: f.size,
            class: f.class,
            start: f.start,
            cc: CcKind::Dcqcn,
        });
    }
    let registered = net.flow_count();
    let t_engine = Instant::now();
    let engine = if cell.workers == 0 {
        Engine::Serial(net.into_sim())
    } else {
        Engine::Par(ParallelSim::new(net, cell.workers).expect("leaf-spine fabrics partition"))
    };
    let t3 = Instant::now();
    Loaded {
        engine,
        registered,
        setup: SetupTimes {
            build: t1 - t0,
            workloads: t2 - t1,
            load: t3 - t2,
            engine: t3 - t_engine,
            flows: flows.len(),
        },
    }
}

/// The cell's flow list, drawn from one RNG stream seeded by `seed`:
/// web-search background flows plus 64 KB fan-in bursts, each at its
/// configured load over the nominal horizon.
///
/// Web-search sizes are heavy-tailed, so the bytes a fixed horizon offers
/// swing by tens of percent from seed to seed, and host time with them.
/// Every seed therefore offers the same input size instead: background
/// flows are taken in start order while they fit the byte budget the load
/// implies over the horizon (a flow that would overrun it is skipped)
/// until 99% of it is used, and fan-in bursts are taken in start order up
/// to the count the load implies. Both are drawn over a longer window so
/// the budget is always reached.
pub fn generate(cell: &Cell, seed: u64, hosts: usize) -> Vec<dsh_workloads::GenFlow> {
    const DRAW_WINDOW: u64 = 8;
    let mut rng = SimRng::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(7));
    let window = Time::ZERO + cell.horizon * DRAW_WINDOW;
    let dist = FlowSizeDist::from_workload(Workload::WebSearch);
    let pattern = |load| PatternConfig {
        hosts,
        host_bytes_per_sec: HOST_BYTES_PER_SEC,
        load,
        horizon: window,
    };
    let offered = |load: f64| load * hosts as f64 * HOST_BYTES_PER_SEC * cell.horizon.as_secs_f64();

    let budget = offered(cell.bg_load) as u64;
    let mut used = 0u64;
    let mut flows = Vec::new();
    for f in background_flows(&pattern(cell.bg_load), &dist, cell.bg_classes, &mut rng) {
        if used >= budget / 100 * 99 {
            break;
        }
        if used + f.size <= budget {
            used += f.size;
            flows.push(f);
        }
    }
    let burst_bytes = (cell.fan_in as u64 * 64 * 1024) as f64;
    let fan_flows = (offered(cell.fanin_load) / burst_bytes).round() as usize * cell.fan_in;
    flows.extend(
        fan_in_bursts(&pattern(cell.fanin_load), cell.fan_in, 64 * 1024, cell.fan_class, &mut rng)
            .into_iter()
            .take(fan_flows),
    );
    flows
}

/// Simulated-time slices a traced run is cut into; the calendar depth is
/// read between them.
pub const TRACE_SLICES: u32 = 64;

/// What the traced run records while a cell runs.
pub struct Tracing<'a> {
    /// Per-event-class profile (serial engine only).
    pub profile: &'a mut EngineProfile,
    /// Deepest calendar seen between slices (serial engine only: the
    /// partitioned engine exposes no calendar depth).
    pub pending_peak: usize,
}

/// Runs a loaded cell to its deadline; returns the host wall time of the
/// simulation calls alone. Untraced, that is one `run_until` call; traced,
/// [`TRACE_SLICES`] calls, profiled per event class on the serial engine.
pub fn run(engine: &mut Engine, cell: &Cell, tracing: Option<&mut Tracing<'_>>) -> Duration {
    let until = |k: u32| Time::ZERO + cell.run_until * u64::from(k) / u64::from(TRACE_SLICES);
    let t = Instant::now();
    match (engine, tracing) {
        (Engine::Serial(sim), None) => {
            sim.run_until(until(TRACE_SLICES));
        }
        (Engine::Par(par), None) => par.run_until(until(TRACE_SLICES)),
        (Engine::Serial(sim), Some(tr)) => {
            let mut spent = Duration::ZERO;
            for k in 1..=TRACE_SLICES {
                let t = Instant::now();
                sim.run_until_profiled(until(k), tr.profile);
                spent += t.elapsed();
                tr.pending_peak = tr.pending_peak.max(sim.pending());
            }
            return spent;
        }
        (Engine::Par(par), Some(_)) => par.session(|run| {
            for k in 1..=TRACE_SLICES {
                run.run_until(until(k));
            }
        }),
    }
    t.elapsed()
}

/// Everything read back from a finished cell.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Calendar events processed.
    pub events: u64,
    /// Data packets delivered.
    pub packets: u64,
    /// Registered, completed and recovery-failed flows.
    pub registered: usize,
    /// Flows that delivered every byte.
    pub completed: usize,
    /// Flows loss recovery gave up on.
    pub failed: u64,
    /// MMU admission drops.
    pub data_drops: u64,
    /// Dirty MMU audits, one line each.
    pub dirty_audits: Vec<String>,
    /// FNV-1a digest of the deterministic counts.
    pub digest: u64,
    /// FCT summary over all flows and over fan-in flows.
    pub all: Option<FctSummary>,
    /// FCT summary over the fan-in class.
    pub fan: Option<FctSummary>,
    /// Host time of taking the network back from its engine (merging the
    /// partitions of a partitioned run).
    pub take: Duration,
    /// Host time of the digest and FCT summaries.
    pub summarize: Duration,
    /// Host time of `audit_all`.
    pub audit: Duration,
    /// Simulated PFC pause time over all egress ports (queue + port level).
    pub pause: Delta,
    /// Aggregated MMU counters.
    pub mmu: MmuStats,
    /// Selective-repeat NACKs sent.
    pub nacks: u64,
    /// Bytes re-sent below flows' high-water marks.
    pub retx_bytes: u64,
    /// Payload bytes delivered as packets.
    pub packet_rx_bytes: u64,
    /// Hybrid engine counters.
    pub fluid: FidelityStats,
    /// Global metrics samples taken (observe-armed runs).
    pub observe_samples: u64,
}

impl Outcome {
    /// Flows neither completed nor failed at the deadline.
    pub fn wedged(&self) -> usize {
        self.registered.saturating_sub(self.completed + self.failed as usize)
    }
}

/// Reads a finished cell back: counts, digest, FCT summaries and audits.
pub fn finish(engine: Engine, cell: &Cell, registered: usize, brk: Option<Break>) -> Outcome {
    let t = Instant::now();
    let (net, events) = match engine {
        Engine::Serial(sim) => {
            let events = sim.events_processed();
            (sim.into_model(), events)
        }
        Engine::Par(par) => {
            let events = par.events_processed();
            (par.into_network(), events)
        }
    };
    let deadline = Time::ZERO + cell.run_until;
    let take = t.elapsed();

    let t = Instant::now();
    let mut all = Vec::with_capacity(net.fct_records().len());
    let mut fan = Vec::new();
    let mut digest = Fnv::new();
    digest.add(events);
    digest.add(net.packets_delivered());
    for r in net.fct_records() {
        digest.add(r.flow.0 as u64);
        digest.add(r.size);
        digest.add(r.start.as_ns());
        digest.add(r.finish.as_ns());
        all.push(r.fct());
        if net.flow_spec(r.flow).class == cell.fan_class {
            fan.push(r.fct());
        }
    }
    let all_summary = FctSummary::from_fcts(&all);
    let fan_summary = FctSummary::from_fcts(&fan);
    let summarize = t.elapsed();

    let t = Instant::now();
    let mut dirty_audits: Vec<String> = net
        .audit_all()
        .into_iter()
        .filter(|(_, a)| !a.is_clean())
        .map(|(id, a)| format!("switch {id:?}: {:?}", a.violations))
        .collect();
    let audit = t.elapsed();
    if brk == Some(Break::Audit) {
        dirty_audits.push("synthetic violation (--break audit)".to_string());
    }

    Outcome {
        events,
        packets: net.packets_delivered(),
        registered,
        completed: all.len(),
        failed: net.failed_flow_count(),
        data_drops: net.data_drops(),
        dirty_audits,
        digest: digest.0,
        all: all_summary,
        fan: fan_summary,
        take,
        summarize,
        audit,
        pause: net.pause_ledgers(deadline).map(|l| l.queue_level + l.port_level).sum(),
        mmu: net.mmu_stats(),
        nacks: net.nacks_sent(),
        retx_bytes: net.retransmitted_bytes(),
        packet_rx_bytes: net.packet_rx_bytes(),
        fluid: net.fidelity_stats().unwrap_or_default(),
        observe_samples: net
            .metrics_json()
            .and_then(|m| m.get("samples").and_then(dsh_simcore::Json::as_u64))
            .unwrap_or(0),
    }
}

/// The per-cell correctness checks; each failure is one line naming the
/// check.
pub fn check(cell: &Cell, o: &Outcome) -> Vec<String> {
    let mut failures = Vec::new();
    if cell.lossless() && o.data_drops > 0 {
        failures.push(format!("{}: {} data drops in a lossless cell", cell.label, o.data_drops));
    }
    for a in &o.dirty_audits {
        failures.push(format!("{}: dirty MMU audit at the deadline: {a}", cell.label));
    }
    if o.wedged() > 0 {
        failures.push(format!(
            "{}: {} wedged flows ({} registered, {} completed, {} failed)",
            cell.label,
            o.wedged(),
            o.registered,
            o.completed,
            o.failed
        ));
    }
    failures
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}
