//! The traced run (`--trace 1`): per-layer metrics from spans around the
//! calls into each layer, the engine's per-event-class profile and
//! isolated layer probes.

use crate::cells::{self, Cell, Engine, Outcome, Tracing};
use crate::spans::Spans;
use crate::workloads::Workload;
use crate::{check_digests, fits_another, jobs, mean, probes, seed_for, Args, Report};
use dsh_core::Scheme;
use dsh_net::{FidelityMode, NetEvent};
use dsh_simcore::{Delta, EngineProfile, EventClass, Json};
use dsh_transport::CcKind;
use std::time::{Duration, Instant};

/// The metric an engine event class reports as, or `None` for a class
/// the workload never dispatches: no workload injects faults, the
/// profiled runs leave the metrics sampler masked, and only hybrid cells
/// advance the fluid solver. `flow_start` builds each flow's sender and
/// congestion control in every mode (and admits it to the fluid solver
/// only under hybrid fidelity), so it is dataplane work.
fn class_metric(class: &str, hybrid: bool) -> Option<String> {
    match class {
        "fault" | "metrics_tick" => None,
        "fluid_advance" => hybrid.then(|| "fluid.advance".to_string()),
        "arrive" | "tx_done" | "apply_pause" | "host_wake" | "sample" | "flow_start" => {
            Some(format!("net.{class}"))
        }
        "cc_timer" => Some("transport.cc_timer_dispatch".to_string()),
        "rto_timer" => Some("transport.rto_timer".to_string()),
        other => Some(format!("simcore.{other}")),
    }
}

/// Per-event-class totals summed over cells and repeats.
struct ClassTotals {
    counts: Vec<u64>,
    nanos: Vec<u64>,
}

impl ClassTotals {
    fn new() -> ClassTotals {
        let n = <NetEvent as EventClass>::NAMES.len();
        ClassTotals { counts: vec![0; n], nanos: vec![0; n] }
    }

    fn add(&mut self, p: &EngineProfile) {
        for (name, count, nanos) in p.rows() {
            let i = <NetEvent as EventClass>::NAMES
                .iter()
                .position(|n| *n == name)
                .expect("profile rows use the event alphabet's names");
            self.counts[i] += count;
            self.nanos[i] += nanos;
        }
    }
}

/// The traced run: every cell runs untraced and then traced (profiled,
/// in slices), with spans around each call into the libraries; then the
/// layer probes. Reports the per-layer metrics.
pub fn traced(wl: &Workload, args: &Args) -> Report {
    let mut r = Report::default();
    let mut sp = Spans::new();
    let root = sp.open("benchmark", 0);
    let started = Instant::now();

    let mut totals = ClassTotals::new();
    let (mut untraced_s, mut traced_s, mut handler_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut last_untraced_s = Vec::new();
    let mut setup = cells::SetupTimes::default();
    let (mut summarize, mut audit) = (Duration::ZERO, Duration::ZERO);
    let mut pending_peak = 0usize;
    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut digests: Vec<Vec<u64>> = Vec::new();
    while traced_s.is_empty() || fits_another(started, traced_s.len(), args.seconds) {
        let rep = traced_s.len();
        let rep_span = sp.open("repeat", root.id());
        let (mut un, mut tr, mut hn) = (Duration::ZERO, Duration::ZERO, 0u64);
        let mut d = Vec::new();
        let jobs = jobs(wl, args, rep);
        let n_jobs = jobs.len();
        for (j, (seed, cell)) in jobs.into_iter().enumerate() {
            let cell_span = sp.open(&format!("cell.{}", cell.label), rep_span.id());

            // Untraced: one run_until call, as the end-to-end run makes.
            let mut loaded = cells::load(cell, seed, false, args.brk);
            let run_span = sp.open("run.untraced", cell_span.id());
            let t = cells::run(&mut loaded.engine, cell, None);
            sp.close(run_span, Json::object());
            un += t;
            if j + 1 == n_jobs {
                last_untraced_s.push(t.as_secs_f64());
            }
            let untraced_digest =
                cells::finish(loaded.engine, cell, loaded.registered, args.brk).digest;

            // Traced: set-up phases, profiled run in slices, summaries,
            // audit.
            let setup_span = sp.open("setup", cell_span.id());
            let setup_id = setup_span.id();
            let mut at = sp.now();
            let mut loaded = cells::load(cell, seed, false, args.brk);
            sp.close(setup_span, Json::object());
            let s = loaded.setup;
            for (name, dur, args_json) in [
                ("setup.build", s.build, Json::object()),
                ("setup.workloads", s.workloads, Json::object().with("flows", s.flows)),
                ("setup.load", s.load, Json::object().with("registered", loaded.registered)),
            ] {
                sp.record(name, setup_id, at, dur, args_json);
                at += dur;
            }
            setup.build += s.build;
            setup.workloads += s.workloads;
            setup.load += s.load;
            setup.flows += s.flows;

            let mut profile = EngineProfile::new::<NetEvent>();
            let mut tracing = Tracing { profile: &mut profile, pending_peak: 0 };
            let run_span = sp.open("run", cell_span.id());
            let run_id = run_span.id();
            let run_at = sp.now();
            let t = cells::run(&mut loaded.engine, cell, Some(&mut tracing));
            pending_peak = pending_peak.max(tracing.pending_peak);
            sp.close(run_span, Json::object().with("events", profile.total_events()));
            tr += t;
            hn += profile.total_nanos();
            totals.add(&profile);
            // Per-event-class time laid end to end inside the run span,
            // then the remainder the profile does not cover.
            let mut at = run_at;
            for (name, count, nanos) in profile.rows() {
                let dur = Duration::from_nanos(nanos);
                sp.record(
                    &format!("class.{name}"),
                    run_id,
                    at,
                    dur,
                    Json::object().with("events", count),
                );
                at += dur;
            }
            sp.record(
                "class.residual",
                run_id,
                at,
                t.saturating_sub(Duration::from_nanos(profile.total_nanos())),
                Json::object(),
            );

            // `finish` takes the network back, summarizes, then audits;
            // each step is timed inside it.
            let at = sp.now();
            let o = cells::finish(loaded.engine, cell, loaded.registered, args.brk);
            sp.record("take", cell_span.id(), at, o.take, Json::object());
            sp.record("summarize", cell_span.id(), at + o.take, o.summarize, Json::object());
            sp.record("audit", cell_span.id(), at + o.take + o.summarize, o.audit, Json::object());
            summarize += o.summarize;
            audit += o.audit;
            if o.digest != untraced_digest {
                r.failures.push(format!(
                    "{}: the profiled run's digest differs from the untraced run's",
                    cell.label
                ));
            }
            r.account(cell, seed, &o);
            d.push(o.digest);
            sp.close(cell_span, Json::object());
            if rep == 0 {
                outcomes.push(o);
            }
        }
        sp.close(rep_span, Json::object());
        untraced_s.push(un.as_secs_f64());
        traced_s.push(tr.as_secs_f64());
        handler_s.push(hn as f64 / 1e9);
        digests.push(d);
    }
    check_digests(wl, &digests, &mut r.failures);
    r.digests = digests[0].clone();
    let reps = traced_s.len() as f64;
    let last = *wl.cells.last().expect("every workload has a cell");
    let last_seed = seed_for(args, 0, wl.inputs - 1);

    // Observe armed vs masked on the workload's last cell.
    let obs_span = sp.open("observe.armed", root.id());
    let mut loaded = cells::load(&last, last_seed, true, None);
    let armed_s = cells::run(&mut loaded.engine, &last, None).as_secs_f64();
    let armed = cells::finish(loaded.engine, &last, loaded.registered, None);
    r.account(&last, last_seed, &armed);
    sp.close(obs_span, Json::object());

    // The last cell on the partitioned engine at 2 workers and at 1: its
    // set-up (partitioning and pool pre-warm), partition count and the
    // 2-worker speed-up, measured in every workload's traced run.
    let par_span = sp.open("par", root.id());
    let mut par = |workers: usize| {
        let cell = Cell { workers, ..last };
        let mut loaded = cells::load(&cell, last_seed, false, None);
        let parts = match &loaded.engine {
            Engine::Par(p) => p.plan().parts(),
            Engine::Serial(_) => unreachable!("workers >= 1 selects the partitioned engine"),
        };
        let t = cells::run(&mut loaded.engine, &cell, None).as_secs_f64();
        let o = cells::finish(loaded.engine, &cell, loaded.registered, None);
        r.account(&cell, last_seed, &o);
        (loaded.setup.engine, parts, t)
    };
    let (par_setup, partitions, t2) = par(2);
    let (_, _, t1) = par(1);
    let speedup = t1 / t2;
    sp.close(par_span, Json::object().with("partitions", partitions));

    // Layer probes.
    let probes_span = sp.open("probes", root.id());
    let pid = probes_span.id();
    let probe = |sp: &mut Spans, name: &str, f: &mut dyn FnMut() -> f64| {
        let s = sp.open(&format!("probe.{name}"), pid);
        let v = f();
        sp.close(s, Json::object().with("ns_per_op", v));
        v
    };
    let profiler_ns = probe(&mut sp, "profiler_pair", &mut probes::profiler_pair_ns);
    let depth = if pending_peak > 0 { pending_peak } else { 4096 };
    let queue_ns = probe(&mut sp, "queue_push_pop", &mut || probes::queue_push_pop_ns(depth));
    let dwrr1 = probe(&mut sp, "dwrr_1class", &mut || probes::dwrr_enqueue_pick_ns(1));
    let dwrr7 = probe(&mut sp, "dwrr_7class", &mut || probes::dwrr_enqueue_pick_ns(7));
    let mmu: Vec<(Scheme, f64)> = [Scheme::Sih, Scheme::Dsh, Scheme::BShare, Scheme::Lossy]
        .into_iter()
        .map(|s| (s, probe(&mut sp, &format!("mmu_{s}"), &mut || probes::mmu_pair_ns(s))))
        .collect();
    let ack_dcqcn = probe(&mut sp, "on_ack_dcqcn", &mut || probes::on_ack_ns(CcKind::Dcqcn));
    let ack_ptcp = probe(&mut sp, "on_ack_powertcp", &mut || probes::on_ack_ns(CcKind::PowerTcp));
    let cc_timer = probe(&mut sp, "cc_timer", &mut probes::cc_timer_ns);
    sp.close(probes_span, Json::object());
    sp.close(root, Json::object());

    // ---- metrics ---------------------------------------------------------
    let events: u64 = outcomes.iter().map(|o| o.events).sum();
    let packets: u64 = outcomes.iter().map(|o| o.packets).sum();
    let untraced_mean = mean(&untraced_s);
    let traced_mean = mean(&traced_s);
    let handler_mean = mean(&handler_s);
    let profiled_events = totals.counts.iter().sum::<u64>() as f64 / reps;
    let profiler_s = profiled_events * profiler_ns / 1e9;
    let per_event = |x: f64| if events > 0 { x / events as f64 } else { 0.0 };
    let w = "all";

    r.put(w, "simcore.events", events as f64, "count", None);
    r.put(w, "simcore.events_per_s", events as f64 / untraced_mean, "1/s", None);
    r.put(w, "simcore.pending_peak", pending_peak as f64, "count", None);
    let calendar_s =
        if profiled_events > 0.0 { traced_mean - handler_mean - profiler_s } else { 0.0 };
    r.put(w, "simcore.calendar_ns_per_event", per_event(calendar_s * 1e9), "ns", None);
    r.put(w, "simcore.queue_push_pop_ns", queue_ns, "ns", None);
    r.put(w, "simcore.run_s_untraced", untraced_mean, "s", None);
    r.put(w, "simcore.run_s_traced", traced_mean, "s", None);
    r.put(w, "simcore.trace_overhead_s", traced_mean - untraced_mean, "s", None);
    r.put(w, "simcore.handler_s", handler_mean, "s", None);
    r.put(w, "simcore.profiler_s", profiler_s, "s", None);
    r.put(w, "simcore.calendar_s", calendar_s, "s", None);
    r.put(w, "simcore.residual_frac", (traced_mean - handler_mean) / traced_mean, "ratio", None);
    r.put(w, "simcore.profiler_pair_ns", profiler_ns, "ns", None);

    let hybrid = wl.cells.iter().any(|c| matches!(c.fidelity, FidelityMode::Hybrid { .. }));
    for (i, name) in <NetEvent as EventClass>::NAMES.iter().enumerate() {
        let Some(base) = class_metric(name, hybrid) else { continue };
        let (c, ns) = (totals.counts[i], totals.nanos[i]);
        let per = if c > 0 { ns as f64 / c as f64 } else { 0.0 };
        r.put(w, &format!("{base}_ns"), per, "ns", None);
        r.put(w, &format!("{base}_events"), c as f64 / reps, "count", None);
    }
    r.put(w, "net.packets_delivered", packets as f64, "count", None);
    r.put(w, "net.host_ns_per_packet", untraced_mean * 1e9 / packets.max(1) as f64, "ns", None);
    r.put(w, "net.dwrr_enqueue_pick_ns.1class", dwrr1, "ns", None);
    r.put(w, "net.dwrr_enqueue_pick_ns.7class", dwrr7, "ns", None);
    let pause: Delta = outcomes.iter().map(|o| o.pause).sum();
    r.put(w, "net.pause_ms", pause.as_ms_f64(), "ms", None);

    for (s, v) in &mmu {
        r.put(w, &format!("core.mmu_pair_ns.{}", s.to_string().to_lowercase()), *v, "ns", None);
    }
    let sum = |f: &dyn Fn(&Outcome) -> u64| outcomes.iter().map(f).sum::<u64>() as f64;
    r.put(w, "core.admitted", sum(&|o| o.mmu.admitted_packets), "count", None);
    r.put(w, "core.queue_pauses", sum(&|o| o.mmu.queue_pauses), "count", None);
    r.put(w, "core.drops", sum(&|o| o.data_drops), "count", None);

    r.put(w, "transport.cc_timer_ns", cc_timer, "ns", None);
    r.put(w, "transport.on_ack_ns.dcqcn", ack_dcqcn, "ns", None);
    r.put(w, "transport.on_ack_ns.powertcp", ack_ptcp, "ns", None);
    r.put(w, "transport.nacks", sum(&|o| o.nacks), "count", None);
    let retx = sum(&|o| o.retx_bytes);
    r.put(w, "transport.retx_bytes", retx, "B", None);
    let delivered = sum(&|o| o.packet_rx_bytes + o.fluid.fluid_bytes);
    r.put(
        w,
        "transport.recovery_useful_ratio",
        delivered / (delivered + retx).max(1.0),
        "ratio",
        None,
    );

    // The fluid layer only runs in hybrid cells; no listed workload has
    // one (see `workloads()`), so these print for `ls64_hybrid` alone.
    if hybrid {
        let fluid_bytes = sum(&|o| o.fluid.fluid_bytes);
        r.put(w, "fluid.byte_share", fluid_bytes / delivered.max(1.0), "ratio", None);
        r.put(w, "fluid.escalations", sum(&|o| o.fluid.escalations), "count", None);
        let fluid_flows = sum(&|o| o.fluid.fluid_flows);
        let materialized = sum(&|o| o.fluid.materializations);
        r.put(w, "fluid.materialize_ratio", materialized / fluid_flows.max(1.0), "ratio", None);
    }

    r.put(w, "par.speedup_2w", speedup, "ratio", None);
    r.put(w, "par.setup_s", par_setup.as_secs_f64(), "s", None);
    r.put(w, "par.partitions", partitions as f64, "count", None);

    r.put(last.label, "observe.armed_overhead", armed_s / mean(&last_untraced_s), "ratio", None);
    r.put(last.label, "observe.samples", armed.observe_samples as f64, "count", None);

    let flows = setup.flows.max(1) as f64;
    r.put(w, "workloads.gen_ns_per_flow", setup.workloads.as_nanos() as f64 / flows, "ns", None);
    r.put(w, "workloads.flows", flows / reps, "count", None);
    r.put(w, "net.build_s", setup.build.as_secs_f64() / reps, "s", None);
    r.put(w, "net.load_s", setup.load.as_secs_f64() / reps, "s", None);

    r.put(w, "analysis.summarize_s", summarize.as_secs_f64() / reps, "s", None);
    r.put(w, "core.audit_s", audit.as_secs_f64() / reps, "s", None);
    let last_o = outcomes.last().expect("one outcome per cell");
    let us = |s: Option<f64>| s.map_or(0.0, |x| x * 1e6);
    r.put(last.label, "analysis.fct_p50_us", us(last_o.all.map(|a| a.p50_secs)), "us", None);
    r.put(last.label, "analysis.fct_p99_us", us(last_o.all.map(|a| a.p99_secs)), "us", None);
    // Mean over inputs of DSH's average fan-in FCT over SIH's (Fig. 14's
    // y-axis), where the workload runs both schemes (`ls64_packet`).
    let fan_avg = |label: &str| -> Vec<f64> {
        wl.cells
            .iter()
            .cycle()
            .zip(&outcomes)
            .filter(|(c, _)| c.label == label)
            .map(|(_, o)| o.fan.map_or(0.0, |f| f.avg_secs))
            .collect()
    };
    let ratios: Vec<f64> = fan_avg("dsh")
        .iter()
        .zip(fan_avg("sih"))
        .filter(|(_, s)| *s > 0.0)
        .map(|(d, s)| d / s)
        .collect();
    if !ratios.is_empty() {
        r.put(w, "analysis.fanin_fct_dsh_over_sih", mean(&ratios), "ratio", None);
    }

    r.spans = Some(sp);
    r
}
