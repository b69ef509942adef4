//! The benchmark's workloads: which cells each one runs, on how many
//! independent inputs, and why it was chosen.

use crate::cells::Cell;
use dsh_core::Scheme;
use dsh_net::FidelityMode;
use dsh_simcore::{ByteSize, Delta};
use dsh_transport::Regime;

/// One benchmark workload: a named list of cells run in order on one
/// seed.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Independent flow lists per repeat, each drawn from its own seed
    /// split off the invocation's seed: host time summed over several
    /// inputs varies far less from seed to seed than one input's does.
    pub inputs: u64,
    pub cells: Vec<Cell>,
}

/// The 64-host leaf–spine cell of Fig. 14 (4 leaves × 4 spines, 16 MiB
/// Tomahawk buffer, DCQCN, web-search background plus 16:1 64 KB
/// fan-in). The horizon offers ~100 MB of background bytes; the deadline
/// leaves room for DCQCN's slow recovery of the largest flows.
fn ls64(label: &'static str, scheme: Scheme, bg_load: f64, fanin_load: f64) -> Cell {
    Cell {
        label,
        scheme,
        leaves: 4,
        spines: 4,
        hosts_per_leaf: 16,
        buffer: ByteSize::mib(16),
        fidelity: FidelityMode::Packet,
        bg_load,
        bg_classes: &[0, 1, 2, 3, 4, 5],
        fanin_load,
        fan_in: 16,
        fan_class: 6,
        recovery: None,
        horizon: Delta::from_us(250),
        run_until: Delta::from_ms(80),
        workers: 0,
    }
}

/// The Fig. 17 fabric: 2×2 leaf–spine, 8 hosts, 4 MiB, load 0.9 split
/// 2:1 between background and 7:1 fan-in, drop-tail with selective
/// repeat. The deadline outlasts the longest retransmission-timeout
/// backoff ladder seen in tuning (a 64 KB flow finishing near 100 ms).
fn ls8_lossy_sr() -> Cell {
    Cell {
        label: "lossy_sr",
        scheme: Scheme::Lossy,
        leaves: 2,
        spines: 2,
        hosts_per_leaf: 4,
        buffer: ByteSize::mib(4),
        fidelity: FidelityMode::Packet,
        bg_load: 0.6,
        bg_classes: &[0, 1, 2, 3],
        fanin_load: 0.3,
        fan_in: 7,
        fan_class: 5,
        recovery: Some(Regime::SelectiveRepeat),
        horizon: Delta::from_ms(2),
        run_until: Delta::from_ms(150),
        workers: 0,
    }
}

/// Every workload the binary runs. `BENCHMARK.json` lists `ls64_dsh` and
/// `ls8_lossy_sr`. `ls64_par2` is left out because its run time is too
/// unsteady on a shared 2-vCPU host (two workers plus a coordinator;
/// interquartile spread 0.17-0.20 of the median over 5-10 seeds, against
/// 0.09-0.15 for the serial workloads); every traced run still measures
/// the partitioned engine at 1 and 2 workers. The last two fail their own
/// checks on some seeds because of defects in the program, so they run by
/// name but are not part of the benchmark until those are fixed. The
/// fluid layer (`net::fluid`, crate-private) only runs in hybrid cells,
/// so no listed workload measures it: its metrics wait for that fix.
pub fn workloads() -> Vec<Workload> {
    let hybrid = FidelityMode::Hybrid { util_threshold: 64.0, quiesce: Delta::from_us(100) };
    vec![
        Workload {
            name: "ls64_dsh",
            why: "the reference packet engine every figure uses, on the paper's scheme (DSH); \
                  arrive+tx_done dominate, fluid/par/recovery idle",
            inputs: 6,
            cells: vec![ls64("dsh", Scheme::Dsh, 0.5, 0.4)],
        },
        Workload {
            name: "ls64_par2",
            why: "the ls64_dsh cell on the partitioned engine with 2 workers, the only workload \
                  where windows, barrier and outbox merge run",
            inputs: 6,
            cells: vec![Cell { workers: 2, ..ls64("dsh_par2", Scheme::Dsh, 0.5, 0.4) }],
        },
        Workload {
            name: "ls8_lossy_sr",
            why: "drop-tail MMU with selective repeat doing PFC's job; the small fabric keeps \
                  the working set cache-resident",
            inputs: 12,
            cells: vec![ls8_lossy_sr()],
        },
        Workload {
            name: "ls64_packet",
            // Seed 1 input 1 (input seed 10451216379200822465): SIH drops
            // one fan-in frame in packet mode, and the flow wedges.
            why: "SIH then DSH on one input, the paper's comparison; not in BENCHMARK.json \
                  because SIH drops packets in some packet-mode inputs (its checks fail)",
            inputs: 5,
            cells: vec![ls64("sih", Scheme::Sih, 0.5, 0.4), ls64("dsh", Scheme::Dsh, 0.5, 0.4)],
        },
        Workload {
            name: "ls64_hybrid",
            // Seeds 4, 5, 6, 10, 14 and 16 of 1-16: one to four 64 KB
            // fan-in flows stop a few hundred bytes short of completion
            // and never finish, even with a 2 s deadline. The ls64_dsh
            // cell under hybrid:64 wedges the same way (seed 2).
            why: "the hybrid:64 cell, where the fluid solver, escalation and materialization \
                  run; not in BENCHMARK.json because some inputs wedge fan-in flows",
            inputs: 1,
            cells: vec![Cell {
                fidelity: hybrid,
                horizon: Delta::from_ms(1),
                run_until: Delta::from_ms(150),
                ..ls64("dsh_hybrid", Scheme::Dsh, 0.7, 0.2)
            }],
        },
    ]
}

/// A cell scaled down for the self-test: a 20 µs horizon, the same
/// deadline (an idle calendar costs almost nothing).
pub fn tiny(cell: Cell) -> Cell {
    Cell { horizon: Delta::from_us(20), ..cell }
}
