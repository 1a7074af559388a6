//! The paper's figures and tables as campaign definitions, plus the
//! markdown renderers that turn campaign results back into
//! paper-figure-shaped tables (what `RESULTS.md` and the thin harness
//! binaries print).
//!
//! | paper result | campaign | renderer |
//! |---|---|---|
//! | Figure 6 (round-trip latency, §5.1.1) | [`fig6_campaign`] | [`render_markdown`] |
//! | Figure 7 (bandwidth, §5.1.2)          | [`fig7_campaign`] | [`render_markdown`] |
//! | Figure 8 (macro speedups, §5.2)       | [`fig8_campaign`] | [`render_markdown`] |
//! | §5.2 bus-occupancy reduction          | [`occupancy_campaign`] | [`render_markdown`] |
//! | Epoch-planner lookahead statistics    | [`lookahead_campaign`] | [`render_markdown`] |
//! | §2.2 CQ-optimisation ablation         | [`ablation_campaign`] | [`render_markdown`] |
//! | Resilience sweep (fault injection)    | [`resilience_campaign`] | [`render_markdown`] |
//! | Tail latency (service workloads)      | [`latency_campaign`] | [`render_markdown`] |
//! | Table 1 (taxonomy, §3)                | [`taxonomy_campaign`] | [`render_markdown`] |
//!
//! Definitions and renderers share the layout functions in this module, so
//! a campaign's cell order and its table shape can never drift apart. The
//! renderers read only deterministic simulated numbers — never wall-clock,
//! cache state or host properties — which is what lets CI regenerate
//! `RESULTS.md` on any machine and diff it byte-for-byte.

use std::collections::HashMap;

use cni_core::machine::LookaheadMode;
use cni_core::micro::local_queue_max_bandwidth_mbps;
use cni_mem::system::DeviceLocation;
use cni_nic::cq_model::CqOptimizations;
use cni_nic::taxonomy::NiKind;
use cni_workloads::{ParamsTier, Workload, WorkloadClass};

use super::{Campaign, CampaignRun, CampaignSetRun, ExperimentSpec};
use crate::json::Json;
use crate::{ni_set_for, FIG6_SIZES, FIG7_SIZES};

/// The alternate-buses comparison of Figures 6c/7c/8c: `NI2w` on the cache
/// bus, `CNI16Qm` on the memory bus, `CNI512Q` on the I/O bus.
pub const ALTERNATE_BUSES: [(NiKind, DeviceLocation); 3] = [
    (NiKind::Ni2w, DeviceLocation::CacheBus),
    (NiKind::Cni16Qm, DeviceLocation::MemoryBus),
    (NiKind::Cni512Q, DeviceLocation::IoBus),
];

/// One series of a microbenchmark panel (one NI on one bus, optionally with
/// snarfing).
#[derive(Debug, Clone, Copy, PartialEq)]
struct SeriesDef {
    ni: NiKind,
    location: DeviceLocation,
    snarfing: bool,
}

impl SeriesDef {
    fn label(&self) -> String {
        let base = format!("{} ({})", self.ni, self.location);
        if self.snarfing {
            format!("{base} + snarf")
        } else {
            base
        }
    }
}

/// One microbenchmark panel: a title and its series.
struct MicroPanel {
    title: &'static str,
    series: Vec<SeriesDef>,
}

fn plain(ni: NiKind, location: DeviceLocation) -> SeriesDef {
    SeriesDef {
        ni,
        location,
        snarfing: false,
    }
}

fn micro_panels(with_snarf: bool) -> Vec<MicroPanel> {
    let mut mem: Vec<SeriesDef> = ni_set_for(DeviceLocation::MemoryBus)
        .into_iter()
        .map(|ni| plain(ni, DeviceLocation::MemoryBus))
        .collect();
    if with_snarf {
        mem.push(SeriesDef {
            ni: NiKind::Cni16Qm,
            location: DeviceLocation::MemoryBus,
            snarfing: true,
        });
    }
    vec![
        MicroPanel {
            title: "(a) memory bus",
            series: mem,
        },
        MicroPanel {
            title: "(b) I/O bus",
            series: ni_set_for(DeviceLocation::IoBus)
                .into_iter()
                .map(|ni| plain(ni, DeviceLocation::IoBus))
                .collect(),
        },
        MicroPanel {
            title: "(c) alternate buses",
            series: ALTERNATE_BUSES
                .into_iter()
                .map(|(ni, loc)| plain(ni, loc))
                .collect(),
        },
    ]
}

// ---------------------------------------------------------------------------
// Figure 6
// ---------------------------------------------------------------------------

fn fig6_layout(tier: ParamsTier) -> (Vec<usize>, usize, Vec<MicroPanel>) {
    let (sizes, iterations) = match tier {
        ParamsTier::Quick => (vec![8, 64, 256], 6),
        ParamsTier::Scaled | ParamsTier::Paper => (FIG6_SIZES.to_vec(), 24),
    };
    (sizes, iterations, micro_panels(false))
}

/// Figure 6 (§5.1.1): process-to-process round-trip latency versus message
/// size, for every NI on the memory bus (a), the I/O bus (b) and the
/// alternate-buses comparison (c). One cell per (series, size) point.
pub fn fig6_campaign(tier: ParamsTier) -> Campaign {
    let (sizes, iterations, panels) = fig6_layout(tier);
    let mut cells = Vec::new();
    for panel in &panels {
        for series in &panel.series {
            for &message_bytes in &sizes {
                cells.push(ExperimentSpec::Latency {
                    ni: series.ni,
                    location: series.location,
                    message_bytes,
                    iterations,
                    opts: CqOptimizations::default(),
                });
            }
        }
    }
    Campaign {
        name: "fig6",
        title: "Figure 6 — round-trip message latency (µs)".to_owned(),
        tier,
        workloads: vec![],
        cells,
    }
}

// ---------------------------------------------------------------------------
// Figure 7
// ---------------------------------------------------------------------------

fn fig7_layout(tier: ParamsTier) -> (Vec<usize>, usize, Vec<MicroPanel>) {
    let (sizes, messages) = match tier {
        ParamsTier::Quick => (vec![64, 512, 4096], 24),
        ParamsTier::Scaled | ParamsTier::Paper => (FIG7_SIZES.to_vec(), 96),
    };
    (sizes, messages, micro_panels(true))
}

/// Figure 7 (§5.1.2): process-to-process bandwidth versus message size,
/// relative to the two-processor local-queue maximum, including the
/// `CNI16Qm + snarf` series of panel (a). One cell per (series, size).
pub fn fig7_campaign(tier: ParamsTier) -> Campaign {
    let (sizes, messages, panels) = fig7_layout(tier);
    let mut cells = Vec::new();
    for panel in &panels {
        for series in &panel.series {
            for &message_bytes in &sizes {
                cells.push(ExperimentSpec::Bandwidth {
                    ni: series.ni,
                    location: series.location,
                    snarfing: series.snarfing,
                    message_bytes,
                    messages,
                    opts: CqOptimizations::default(),
                });
            }
        }
    }
    Campaign {
        name: "fig7",
        title: "Figure 7 — relative process-to-process bandwidth".to_owned(),
        tier,
        workloads: vec![],
        cells,
    }
}

// ---------------------------------------------------------------------------
// Figure 8
// ---------------------------------------------------------------------------

struct MacroPanel {
    title: &'static str,
    columns: Vec<(NiKind, DeviceLocation)>,
}

fn fig8_panels() -> Vec<MacroPanel> {
    vec![
        MacroPanel {
            title: "(a) memory bus",
            columns: ni_set_for(DeviceLocation::MemoryBus)
                .into_iter()
                .map(|ni| (ni, DeviceLocation::MemoryBus))
                .collect(),
        },
        MacroPanel {
            title: "(b) I/O bus",
            columns: ni_set_for(DeviceLocation::IoBus)
                .into_iter()
                .map(|ni| (ni, DeviceLocation::IoBus))
                .collect(),
        },
        MacroPanel {
            title: "(c) alternate buses",
            columns: ALTERNATE_BUSES.to_vec(),
        },
    ]
}

/// A fault-free run of `workload` on a `tier`-sized machine under the epoch
/// driver's `lookahead` mode. With fixed lookahead this is a Figure 8 cell,
/// which the occupancy, lookahead and tail-latency panels reuse.
fn run_cell(
    workload: Workload,
    ni: NiKind,
    location: DeviceLocation,
    tier: ParamsTier,
    lookahead: LookaheadMode,
) -> ExperimentSpec {
    ExperimentSpec::Run {
        workload,
        ni,
        location,
        nodes: tier.nodes(),
        tier,
        fault_ppm: 0,
        lookahead,
    }
}

/// Every workload under every NI on the memory bus, workload-major: Figure
/// 8 panel (a)'s runs when `lookahead` is fixed.
fn memory_bus_runs(
    tier: ParamsTier,
    workloads: &[Workload],
    lookahead: LookaheadMode,
) -> Vec<ExperimentSpec> {
    workloads
        .iter()
        .flat_map(|&workload| {
            NiKind::ALL.map(|ni| run_cell(workload, ni, DeviceLocation::MemoryBus, tier, lookahead))
        })
        .collect()
}

/// The Figure 8 normalisation baseline for one workload at one tier:
/// `NI2w` on the memory bus.
fn fig8_baseline_spec(workload: Workload, tier: ParamsTier) -> ExperimentSpec {
    run_cell(
        workload,
        NiKind::Ni2w,
        DeviceLocation::MemoryBus,
        tier,
        LookaheadMode::Fixed,
    )
}

/// Figure 8 (§5.2): macrobenchmark speedups over `NI2w` on the memory bus,
/// for every NI on the memory bus (a), the I/O bus (b) and the
/// alternate-buses comparison (c). One cell per (panel, workload, NI) run;
/// the engine deduplicates the runs panels share (the baseline appears in
/// every panel's normalisation, and panel (c) overlaps panel (a)).
pub fn fig8_campaign(tier: ParamsTier, workloads: &[Workload]) -> Campaign {
    let mut cells = Vec::new();
    for panel in fig8_panels() {
        for &workload in workloads {
            for &(ni, location) in &panel.columns {
                cells.push(run_cell(workload, ni, location, tier, LookaheadMode::Fixed));
            }
        }
    }
    // The baseline is already a panel (a) column, but keep the campaign
    // self-contained even if a caller filters the NI set someday.
    for &workload in workloads {
        cells.push(fig8_baseline_spec(workload, tier));
    }
    Campaign {
        name: "fig8",
        title: "Figure 8 — macrobenchmark speedups over NI2w on the memory bus".to_owned(),
        tier,
        workloads: workloads.to_vec(),
        cells,
    }
}

// ---------------------------------------------------------------------------
// Occupancy, ablation, taxonomy
// ---------------------------------------------------------------------------

/// §5.2's memory-bus occupancy comparison: every workload under every NI on
/// the memory bus. The cells are **the same runs** as Figure 8's panel (a)
/// — the engine executes them once and both renderers read them.
pub fn occupancy_campaign(tier: ParamsTier, workloads: &[Workload]) -> Campaign {
    Campaign {
        name: "occupancy",
        title: "§5.2 — memory-bus occupancy reduction vs NI2w".to_owned(),
        tier,
        workloads: workloads.to_vec(),
        cells: memory_bus_runs(tier, workloads, LookaheadMode::Fixed),
    }
}

/// Epoch-planner statistics: every workload under every NI on the memory
/// bus, reporting the sharded driver's schedule — epochs executed, mean/max
/// epoch length, and (from the paired speculative-lookahead runs) the
/// speculative planner's commit/rollback record. The fixed-lookahead half
/// of the cells are **the same runs** as the occupancy campaign (and
/// Figure 8 panel (a)), so a report run executes those once and only the
/// speculative half costs extra.
pub fn lookahead_campaign(tier: ParamsTier, workloads: &[Workload]) -> Campaign {
    // The speculative twins follow as one block, so the renderer can pair
    // row `i` with row `i + workloads × NIs`.
    let mut cells = memory_bus_runs(tier, workloads, LookaheadMode::Fixed);
    cells.extend(memory_bus_runs(tier, workloads, LookaheadMode::Speculative));
    Campaign {
        name: "lookahead",
        title: "Epoch planner — lookahead and speculation statistics".to_owned(),
        tier,
        workloads: workloads.to_vec(),
        cells,
    }
}

/// The CQ ablation variants, in render order.
fn ablation_variants() -> Vec<(&'static str, CqOptimizations)> {
    let all = CqOptimizations::default();
    let mut no_lazy = all;
    no_lazy.lazy_pointers = false;
    let mut no_valid = all;
    no_valid.valid_bits = false;
    let mut no_sense = all;
    no_sense.sense_reverse = false;
    vec![
        ("all optimisations", all),
        ("no lazy pointers", no_lazy),
        ("no valid bits", no_valid),
        ("no sense reverse", no_sense),
        ("none", CqOptimizations::none()),
    ]
}

/// §2.2's cachable-queue optimisation ablation: lazy pointers, valid bits
/// and sense reverse disabled in turn on `CNI512Q` (memory bus), measured on
/// the 64-byte round trip and the 2 KB stream. Two cells per variant, a
/// latency and a bandwidth point; at the scaled and paper tiers the
/// all-optimisations pair is the Figure 6 and Figure 7 `CNI512Q` point.
pub fn ablation_campaign(tier: ParamsTier) -> Campaign {
    let (iterations, messages) = match tier {
        ParamsTier::Quick => (8, 32),
        ParamsTier::Scaled | ParamsTier::Paper => (24, 96),
    };
    Campaign {
        name: "ablation",
        title: "§2.2 — cachable-queue optimisation ablation (CNI512Q, memory bus)".to_owned(),
        tier,
        workloads: vec![],
        cells: ablation_variants()
            .into_iter()
            .flat_map(|(_, opts)| {
                [
                    ExperimentSpec::Latency {
                        ni: NiKind::Cni512Q,
                        location: DeviceLocation::MemoryBus,
                        message_bytes: 64,
                        iterations,
                        opts,
                    },
                    ExperimentSpec::Bandwidth {
                        ni: NiKind::Cni512Q,
                        location: DeviceLocation::MemoryBus,
                        snarfing: false,
                        message_bytes: 2048,
                        messages,
                        opts,
                    },
                ]
            })
            .collect(),
    }
}

/// Table 1 (§3): the NI taxonomy, plus the qualitative Table 4 comparison
/// notes. A single pure cell.
pub fn taxonomy_campaign(tier: ParamsTier) -> Campaign {
    Campaign {
        name: "taxonomy",
        title: "Table 1 — summary of network interface devices".to_owned(),
        tier,
        workloads: vec![],
        cells: vec![ExperimentSpec::Taxonomy],
    }
}

// ---------------------------------------------------------------------------
// Resilience
// ---------------------------------------------------------------------------

/// The workload subset the resilience sweep covers: one fine-grain paper
/// benchmark (em3d), one block-transfer benchmark (gauss) and one
/// communication-heavy particle code (dsmc) — enough to see whether an NI's
/// advantage survives a lossy fabric without sweeping all thirteen.
pub const RESILIENCE_WORKLOADS: [Workload; 3] = [Workload::Em3d, Workload::Gauss, Workload::Dsmc];

/// The loss intensities (in parts per million) the resilience sweep applies
/// through [`cni_net::faults::FaultConfig::lossy`].
fn resilience_rates(tier: ParamsTier) -> Vec<u32> {
    match tier {
        ParamsTier::Quick => vec![0, 20_000, 100_000],
        ParamsTier::Scaled | ParamsTier::Paper => vec![0, 5_000, 20_000, 50_000, 100_000],
    }
}

/// The resilience sweep: every NI on the memory bus under increasing
/// deterministic fault intensity, recovered by the reliable-delivery
/// protocol — the figure the paper couldn't draw. One cell per
/// (workload, NI, rate); the zero-rate column doubles as the goodput
/// baseline, and is the Figure 8 run itself.
pub fn resilience_campaign(tier: ParamsTier) -> Campaign {
    let mut cells = Vec::new();
    for &workload in &RESILIENCE_WORKLOADS {
        for ni in NiKind::ALL {
            for &fault_ppm in &resilience_rates(tier) {
                cells.push(ExperimentSpec::Run {
                    workload,
                    ni,
                    location: DeviceLocation::MemoryBus,
                    nodes: tier.nodes(),
                    tier,
                    fault_ppm,
                    lookahead: LookaheadMode::Fixed,
                });
            }
        }
    }
    Campaign {
        name: "resilience",
        title: "Resilience — goodput under deterministic fault injection".to_owned(),
        tier,
        workloads: RESILIENCE_WORKLOADS.to_vec(),
        cells,
    }
}

// ---------------------------------------------------------------------------
// Tail latency
// ---------------------------------------------------------------------------

/// The workloads the tail-latency sweep covers: every
/// [`WorkloadClass::Service`] entry in the registry, so a new RPC variant
/// joins the campaign (and `RESULTS.md`) the moment it is registered.
pub fn latency_workloads() -> Vec<Workload> {
    Workload::ALL
        .into_iter()
        .filter(|w| w.class() == WorkloadClass::Service)
        .collect()
}

/// The tail-latency sweep: every service workload × every NI on the memory
/// bus, reporting deterministic integer p50/p99/p99.9/max from the merged
/// per-node request-latency histograms — the figure of merit the paper's
/// throughput benchmarks don't expose. One cell per (workload, NI), each
/// the Figure 8 panel (a) run of that service workload.
pub fn latency_campaign(tier: ParamsTier) -> Campaign {
    let workloads = latency_workloads();
    Campaign {
        name: "latency",
        title: "Tail latency — RPC service workloads, deterministic histograms".to_owned(),
        tier,
        cells: memory_bus_runs(tier, &workloads, LookaheadMode::Fixed),
        workloads,
    }
}

/// Every campaign `report` runs, in `RESULTS.md` order.
pub fn report_campaigns(tier: ParamsTier, workloads: &[Workload]) -> Vec<Campaign> {
    vec![
        fig6_campaign(tier),
        fig7_campaign(tier),
        fig8_campaign(tier, workloads),
        occupancy_campaign(tier, workloads),
        lookahead_campaign(tier, workloads),
        ablation_campaign(tier),
        resilience_campaign(tier),
        latency_campaign(tier),
        taxonomy_campaign(tier),
    ]
}

// ---------------------------------------------------------------------------
// Markdown rendering
// ---------------------------------------------------------------------------

fn parsed_cells(run: &CampaignRun) -> Vec<Json> {
    run.cells
        .iter()
        .map(|cell| {
            Json::parse(&cell.json).unwrap_or_else(|err| {
                panic!("cell {} produced invalid JSON: {err}", cell.spec.label())
            })
        })
        .collect()
}

fn md_table(out: &mut String, header: &[String], rows: &[Vec<String>]) {
    out.push_str(&format!("| {} |\n", header.join(" | ")));
    out.push_str(&format!(
        "|{}\n",
        header.iter().map(|_| "---:|").collect::<String>()
    ));
    for row in rows {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
}

/// Renders a microbenchmark campaign (fig6/fig7): one table per panel,
/// sizes down, series across.
fn render_micro(
    run: &CampaignRun,
    sizes: &[usize],
    panels: &[MicroPanel],
    value_key: &str,
    precision: usize,
) -> String {
    let cells = parsed_cells(run);
    let mut out = String::new();
    let mut index = 0;
    for panel in panels {
        out.push_str(&format!("\n### {}\n\n", panel.title));
        let mut header = vec!["bytes".to_owned()];
        header.extend(panel.series.iter().map(SeriesDef::label));
        // Cells are laid out series-major; the table wants size-major rows.
        let mut columns: Vec<Vec<f64>> = Vec::new();
        for _ in &panel.series {
            columns.push(
                (0..sizes.len())
                    .map(|_| {
                        let v = cells[index].num(value_key);
                        index += 1;
                        v
                    })
                    .collect(),
            );
        }
        let rows: Vec<Vec<String>> = sizes
            .iter()
            .enumerate()
            .map(|(row, &size)| {
                let mut cols = vec![size.to_string()];
                cols.extend(columns.iter().map(|c| format!("{:.precision$}", c[row])));
                cols
            })
            .collect();
        md_table(&mut out, &header, &rows);
    }
    out
}

fn render_fig6(run: &CampaignRun) -> String {
    let (sizes, iterations, panels) = fig6_layout(run.tier);
    let mut out = format!(
        "Process-to-process round-trip latency in microseconds (§5.1.1), {iterations} \
         iterations per point.\n"
    );
    out.push_str(&render_micro(run, &sizes, &panels, "round_trip_micros", 2));
    out
}

fn render_fig7(run: &CampaignRun) -> String {
    let (sizes, messages, panels) = fig7_layout(run.tier);
    let mut out = format!(
        "Bandwidth relative to the two-processor local cachable queue maximum of \
         {:.1} MB/s (§5.1.2), {messages} messages per point.\n",
        local_queue_max_bandwidth_mbps()
    );
    out.push_str(&render_micro(run, &sizes, &panels, "relative", 3));
    out
}

fn render_fig8(run: &CampaignRun) -> String {
    let cells = parsed_cells(run);
    let by_digest: HashMap<u64, &Json> = run
        .cells
        .iter()
        .zip(&cells)
        .map(|(cell, json)| (cell.digest, json))
        .collect();
    let baseline_cycles = |workload: Workload| -> f64 {
        by_digest[&fig8_baseline_spec(workload, run.tier).digest()].num("cycles")
    };
    let mut out = format!(
        "Execution-time speedup over `NI2w` on the memory bus (§5.2), {} nodes, \
         `{}` inputs.\n",
        run.tier.nodes(),
        run.tier
    );
    let mut index = 0;
    // Track the improvement ranges the paper quotes in §5.2.
    let mut qm_range = (f64::MAX, f64::MIN);
    let mut io512_range = (f64::MAX, f64::MIN);
    for panel in fig8_panels() {
        out.push_str(&format!("\n### {}\n\n", panel.title));
        let mut header = vec!["benchmark".to_owned()];
        header.extend(panel.columns.iter().map(|&(ni, loc)| {
            if panel.title.contains("alternate") {
                format!("{ni} ({loc})")
            } else {
                ni.to_string()
            }
        }));
        let mut rows = Vec::new();
        for &workload in &run.workloads {
            let mut cols = vec![workload.to_string()];
            for &(ni, location) in &panel.columns {
                let cycles = cells[index].num("cycles");
                index += 1;
                let speedup = baseline_cycles(workload) / cycles;
                // The §5.2 ranges the paper quotes cover its application
                // suite; keep the synthetic patterns out of the comparison.
                let gain = (speedup - 1.0) * 100.0;
                if workload.class() == WorkloadClass::Paper {
                    if ni == NiKind::Cni16Qm && location == DeviceLocation::MemoryBus {
                        qm_range = (qm_range.0.min(gain), qm_range.1.max(gain));
                    }
                    if ni == NiKind::Cni512Q && location == DeviceLocation::IoBus {
                        io512_range = (io512_range.0.min(gain), io512_range.1.max(gain));
                    }
                }
                cols.push(format!("{speedup:.2}"));
            }
            rows.push(cols);
        }
        md_table(&mut out, &header, &rows);
    }
    if run
        .workloads
        .iter()
        .any(|w| w.class() == WorkloadClass::Paper)
    {
        out.push_str(&format!(
            "\nCNI16Qm improvement over NI2w on the memory bus (paper suite only): \
             {:.0}%..{:.0}% \
             (paper: 17–53%). CNI512Q on the I/O bus vs NI2w on the memory bus: \
             {:.0}%..{:.0}%.\n",
            qm_range.0, qm_range.1, io512_range.0, io512_range.1
        ));
    }
    out
}

fn render_occupancy(run: &CampaignRun) -> String {
    let cells = parsed_cells(run);
    let mut out = format!(
        "Memory-bus busy cycles per unit time under each NI, and the reduction \
         relative to `NI2w` (§5.2; the paper reports ~23% for CNI4 and up to ~66% \
         for the CQ-based CNIs), {} nodes, `{}` inputs.\n\n",
        run.tier.nodes(),
        run.tier
    );
    let header: Vec<String> = ["benchmark", "NI", "busy cycles", "run cycles", "vs NI2w"]
        .map(str::to_owned)
        .to_vec();
    let mut rows = Vec::new();
    let mut reductions: Vec<(NiKind, Vec<f64>)> =
        NiKind::ALL.into_iter().map(|ni| (ni, Vec::new())).collect();
    let mut index = 0;
    for &workload in &run.workloads {
        let mut baseline_rate = None;
        for (slot, ni) in NiKind::ALL.into_iter().enumerate() {
            let cell = &cells[index];
            index += 1;
            let busy = cell.num("memory_bus_busy");
            let total = cell.num("cycles").max(1.0);
            let rate = busy / total;
            let baseline = *baseline_rate.get_or_insert(rate);
            let reduction = 1.0 - rate / baseline;
            // The average compares against the paper's §5.2 figures, so —
            // like the Figure 8 range note — it covers the paper suite
            // only; the synthetic patterns keep their per-workload rows.
            if workload.class() == WorkloadClass::Paper {
                reductions[slot].1.push(reduction);
            }
            rows.push(vec![
                workload.to_string(),
                ni.to_string(),
                format!("{busy:.0}"),
                format!("{total:.0}"),
                format!("{:.0}%", reduction * 100.0),
            ]);
        }
    }
    md_table(&mut out, &header, &rows);
    out.push_str("\nAverage occupancy reduction vs NI2w (paper suite only):\n\n");
    let avg_rows: Vec<Vec<String>> = reductions
        .iter()
        .filter(|(_, values)| !values.is_empty())
        .map(|(ni, values)| {
            let avg = values.iter().sum::<f64>() / values.len() as f64;
            vec![ni.to_string(), format!("{:.0}%", avg * 100.0)]
        })
        .collect();
    md_table(
        &mut out,
        &["NI".to_owned(), "average reduction".to_owned()],
        &avg_rows,
    );
    out
}

fn render_lookahead(run: &CampaignRun) -> String {
    let cells = parsed_cells(run);
    let mut out = format!(
        "The sharded epoch driver's schedule under the default fixed \
         lookahead and under speculative execution (`--lookahead \
         fixed|speculative` on the harnesses): epochs executed and their \
         lengths in cycles on the fixed `network_latency` grid, and the \
         speculative planner's gamble record — rounds committed, rounds \
         rolled back, the simulated cycles re-executed paying for the \
         rollbacks, and what the dirty-tracked incremental checkpoints paid \
         for the gambles (bytes captured, and the fraction of node state \
         actually copied). The simulated results are bit-identical in both \
         modes (determinism invariant 7 — the campaign asserts the digests \
         match), so only the schedule shape varies. {} nodes, `{}` inputs, \
         memory bus.\n\n",
        run.tier.nodes(),
        run.tier
    );
    let header: Vec<String> = [
        "benchmark",
        "NI",
        "epochs",
        "mean epoch",
        "max epoch",
        "spec epochs",
        "commits",
        "rollbacks",
        "rb rate",
        "re-exec cycles",
        "ckpt bytes",
        "dirty frac",
    ]
    .map(str::to_owned)
    .to_vec();
    // The fixed-lookahead block comes first, the speculative twins second (see
    // `lookahead_campaign`).
    let half = run.workloads.len() * NiKind::ALL.len();
    let mut rows = Vec::new();
    let mut index = 0;
    for &workload in &run.workloads {
        for ni in NiKind::ALL {
            let cell = &cells[index];
            let spec = &cells[index + half];
            index += 1;
            let epochs = cell.num("epochs");
            let spec_epochs = spec.num("epochs");
            let commits = spec.num("spec_commits");
            let rollbacks = spec.num("spec_rollbacks");
            let resolved = commits + rollbacks;
            fn digest(c: &Json) -> &str {
                c.get("report_digest")
                    .and_then(Json::as_str)
                    .expect("run cells carry report digests")
            }
            assert_eq!(
                digest(cell),
                digest(spec),
                "{workload}/{ni}: speculation changed the simulated result \
                 (determinism invariant 7 violated)"
            );
            rows.push(vec![
                workload.to_string(),
                ni.to_string(),
                format!("{epochs:.0}"),
                format!("{:.1}", cell.num("mean_epoch_len")),
                format!("{:.0}", cell.num("max_epoch_len")),
                format!("{spec_epochs:.0}"),
                format!("{commits:.0}"),
                format!("{rollbacks:.0}"),
                format!("{:.1}%", 100.0 * rollbacks / resolved.max(1.0)),
                format!("{:.0}", spec.num("spec_reexec_cycles")),
                format!("{:.0}", spec.num("ckpt_bytes")),
                format!("{:.3}", spec.num("dirty_fraction")),
            ]);
        }
    }
    md_table(&mut out, &header, &rows);
    out.push_str(
        "\nFixed lookahead pays one barrier for every grid slot that holds \
         an event. Speculation gambles past the horizon, validates against \
         the traffic that actually arrived, and re-executes the round \
         conservatively when the gamble loses. The rollback rate and re-executed cycles are the price; the \
         epoch-count reduction (`epochs` vs `spec epochs`) is the win; the \
         results columns of every other table are untouched either way.\n",
    );
    out
}

fn render_ablation(run: &CampaignRun) -> String {
    let cells = parsed_cells(run);
    let mut out = "Each §2.2 optimisation disabled in turn; latency of the 64-byte \
         round trip and relative bandwidth of the 2 KB stream.\n\n"
        .to_owned();
    let header: Vec<String> = ["variant", "64B round trip (µs)", "2KB stream (rel bw)"]
        .map(str::to_owned)
        .to_vec();
    // Each variant is a latency cell followed by a bandwidth cell.
    let rows: Vec<Vec<String>> = ablation_variants()
        .iter()
        .zip(cells.chunks(2))
        .map(|((name, _), pair)| {
            vec![
                (*name).to_owned(),
                format!("{:.2}", pair[0].num("round_trip_micros")),
                format!("{:.3}", pair[1].num("relative")),
            ]
        })
        .collect();
    md_table(&mut out, &header, &rows);
    out.push_str(
        "\nExpected shape: disabling lazy pointers or sense reverse costs latency \
         and/or bandwidth; valid bits matter most for empty-poll cost (§2.2), which \
         these two metrics only partially expose.\n",
    );
    out
}

fn render_resilience(run: &CampaignRun) -> String {
    let cells = parsed_cells(run);
    let rates = resilience_rates(run.tier);
    let mut out = format!(
        "Goodput under deterministic fault injection (drop / corrupt / duplicate / \
         delay via the `lossy` preset, recovered by the reliable-delivery NI \
         protocol), relative to the same NI's fault-free run — every NI on the \
         memory bus, {} nodes, `{}` inputs. 1.00 means losses cost nothing; lower \
         means retransmission latency and duplicate traffic ate into delivered \
         throughput.\n",
        run.tier.nodes(),
        run.tier
    );
    // Cells are (workload, ni, rate)-major; each workload's table wants
    // rates down, NIs across.
    let mut index = 0;
    let mut accounting: Vec<Vec<String>> = Vec::new();
    for &workload in &run.workloads {
        out.push_str(&format!("\n### {workload}\n\n"));
        let mut header = vec!["loss rate".to_owned()];
        header.extend(NiKind::ALL.iter().map(ToString::to_string));
        let mut columns: Vec<Vec<f64>> = Vec::new();
        for ni in NiKind::ALL {
            let per_rate: Vec<&Json> = rates
                .iter()
                .map(|_| {
                    let cell = &cells[index];
                    index += 1;
                    cell
                })
                .collect();
            let baseline = per_rate[0].num("cycles").max(1.0);
            columns.push(
                per_rate
                    .iter()
                    .map(|c| baseline / c.num("cycles").max(1.0))
                    .collect(),
            );
            // The top-rate cell feeds the fault-accounting table below.
            let top = per_rate.last().expect("at least one rate per series");
            accounting.push(vec![
                workload.to_string(),
                ni.to_string(),
                format!("{:.0}", top.num("messages")),
                format!("{:.0}", top.num("faults_dropped")),
                format!("{:.0}", top.num("corruptions_detected")),
                format!("{:.0}", top.num("dup_discards")),
                format!("{:.0}", top.num("retransmits")),
                format!("{:.0}", top.num("timeouts")),
            ]);
        }
        let rows: Vec<Vec<String>> = rates
            .iter()
            .enumerate()
            .map(|(row, &ppm)| {
                let mut cols = vec![format!("{:.1}%", ppm as f64 / 10_000.0)];
                cols.extend(columns.iter().map(|c| format!("{:.3}", c[row])));
                cols
            })
            .collect();
        md_table(&mut out, &header, &rows);
    }
    out.push_str(&format!(
        "\n### Fault accounting at the top rate ({:.1}% loss)\n\n",
        *rates.last().unwrap_or(&0) as f64 / 10_000.0
    ));
    let header: Vec<String> = [
        "benchmark",
        "NI",
        "wire msgs",
        "dropped",
        "corrupted",
        "dup discards",
        "retransmits",
        "timeouts",
    ]
    .map(str::to_owned)
    .to_vec();
    md_table(&mut out, &header, &accounting);
    out.push_str(
        "\nEvery number above is deterministic: fault verdicts are a pure function \
         of `(seed, origin, net_seq)`, so the sweep is bit-identical across shard \
         policies, executor modes and hosts.\n",
    );
    out
}

fn render_latency(run: &CampaignRun) -> String {
    let cells = parsed_cells(run);
    let mut out = format!(
        "End-to-end request latency of the RPC service workloads — every NI on \
         the memory bus, {} nodes, `{}` inputs. Quantiles are integer cycle \
         counts read from the machine-total log-bucketed histogram (power-of-two \
         buckets, nearest-rank, clamped to the exact recorded maximum), merged \
         from the per-node histograms with the associative `Merge` — so every \
         number is bit-identical across shard counts, executor modes and \
         lookahead modes.\n",
        run.tier.nodes(),
        run.tier
    );
    // Cells are (workload, ni)-major; one table per workload, NIs down.
    let mut index = 0;
    for &workload in &run.workloads {
        out.push_str(&format!("\n### {workload}\n\n"));
        let header: Vec<String> = ["NI", "requests", "p50", "p99", "p99.9", "max", "run cycles"]
            .map(str::to_owned)
            .to_vec();
        let rows: Vec<Vec<String>> = NiKind::ALL
            .iter()
            .map(|ni| {
                let cell = &cells[index];
                index += 1;
                vec![
                    ni.to_string(),
                    format!("{:.0}", cell.num("requests")),
                    format!("{:.0}", cell.num("p50")),
                    format!("{:.0}", cell.num("p99")),
                    format!("{:.0}", cell.num("p999")),
                    format!("{:.0}", cell.num("max")),
                    format!("{:.0}", cell.num("cycles")),
                ]
            })
            .collect();
        md_table(&mut out, &header, &rows);
    }
    out.push_str(
        "\nLatencies are in simulated cycles (5 ns at the paper's 200 MHz). \
         `rpc-closed` is a closed loop (fixed clients, think time between \
         requests); `rpc-open` is an open loop (deterministic Poisson-like \
         arrivals), so its tail also pays queueing delay when service is slower \
         than the arrival rate.\n",
    );
    out
}

fn render_taxonomy(run: &CampaignRun) -> String {
    let cells = parsed_cells(run);
    let rows_json = cells[0].get("rows").and_then(Json::as_array).unwrap_or(&[]);
    let mut out = String::new();
    let header: Vec<String> = ["NI/CNI", "exposed queue size", "pointers", "home"]
        .map(str::to_owned)
        .to_vec();
    let rows: Vec<Vec<String>> = rows_json
        .iter()
        .map(|row| {
            let exposed = if let Some(words) = row.get("exposed_words").and_then(Json::as_u64) {
                format!("{words} words")
            } else if let Some(blocks) = row.get("exposed_blocks").and_then(Json::as_u64) {
                format!("{blocks} cache blocks")
            } else {
                "-".to_owned()
            };
            let pointers = match row.get("pointers").and_then(Json::as_str) {
                Some("explicit") => "explicit",
                _ => "-",
            };
            vec![
                row.get("label")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_owned(),
                exposed,
                pointers.to_owned(),
                row.get("home")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_owned(),
            ]
        })
        .collect();
    md_table(&mut out, &header, &rows);
    out.push_str(
        "\nTable 4 (qualitative): CNIs are coherent, cache their queues and reuse the \
         memory interface. TMC CM-5 / Alewife / FUGU use uncached NIs; Typhoon, FLASH \
         and Meiko CS2 allow coherence; StarT-NG's L2-coprocessor NI is cachable but \
         not coherent (explicit flush); SHRIMP is coherent via write-through; AP1000 \
         does sender-side cache DMA only; the DI multicomputer standardises the \
         *network* interface rather than the memory interface.\n",
    );
    out
}

/// Renders one campaign's results as a markdown section body (no heading).
///
/// # Panics
///
/// Panics on an unknown campaign name or a result-shape mismatch — both are
/// bugs in this crate, not user error.
pub fn render_markdown(run: &CampaignRun) -> String {
    match run.name {
        "fig6" => render_fig6(run),
        "fig7" => render_fig7(run),
        "fig8" => render_fig8(run),
        "occupancy" => render_occupancy(run),
        "lookahead" => render_lookahead(run),
        "ablation" => render_ablation(run),
        "resilience" => render_resilience(run),
        "latency" => render_latency(run),
        "taxonomy" => render_taxonomy(run),
        other => panic!("no renderer for campaign {other:?}"),
    }
}

/// Renders the complete generated `RESULTS.md` for a report run: a
/// provenance header plus one section per campaign. Contains **only
/// deterministic simulated numbers** — no wall-clock, no cache state — so
/// the file is byte-identical on every host and CI can diff it.
pub fn render_results_markdown(set: &CampaignSetRun) -> String {
    let tier = set
        .campaigns
        .first()
        .map_or(ParamsTier::Scaled, |run| run.tier);
    let mut out = String::new();
    out.push_str("# RESULTS — generated by the campaign runner\n\n");
    out.push_str(
        "<!-- GENERATED FILE — do not edit by hand.\n     \
         Regenerate with: cargo run --release -p cni-bench --bin report -- --cold\n     \
         (--cold re-executes every cell: the result cache is keyed by experiment\n     \
         config, so after a simulator code change a warm run would faithfully\n     \
         rewrite the stale numbers.)\n     \
         CI regenerates this file and fails if the committed copy is stale. -->\n\n",
    );
    out.push_str(&format!(
        "Every table below is regenerated from the campaign engine \
         (`cni_bench::campaign`) at the `{tier}` input tier. Simulated results are \
         deterministic and machine-independent — bit-identical across hosts, shard \
         policies and executor worker counts — so this file is reproducible \
         byte-for-byte. See `ARCHITECTURE.md` for the pipeline and \
         `README.md` for cache controls.\n"
    ));
    for run in &set.campaigns {
        out.push_str(&format!("\n## {}\n\n", run.title));
        out.push_str(&render_markdown(run));
    }
    out
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    #[test]
    fn campaigns_have_the_expected_shapes() {
        let fig6 = fig6_campaign(ParamsTier::Quick);
        // 3 sizes × (5 mem + 4 io + 3 alternate) series.
        assert_eq!(fig6.cells.len(), 3 * 12);
        let fig7 = fig7_campaign(ParamsTier::Quick);
        // 3 sizes × (6 mem incl. snarf + 4 io + 3 alternate) series.
        assert_eq!(fig7.cells.len(), 3 * 13);
        let workloads = Workload::ALL.len();
        assert!(
            workloads >= 15,
            "8 paper benchmarks + 5 synthetic patterns + 2 service workloads"
        );
        let fig8 = fig8_campaign(ParamsTier::Quick, &Workload::ALL);
        // Every workload × (5 + 4 + 3) panel columns + one explicit
        // baseline per workload.
        assert_eq!(fig8.cells.len(), workloads * 12 + workloads);
        let occupancy = occupancy_campaign(ParamsTier::Quick, &Workload::ALL);
        assert_eq!(occupancy.cells.len(), workloads * 5);
        let lookahead = lookahead_campaign(ParamsTier::Quick, &Workload::ALL);
        // Conservative block + the speculative twins.
        assert_eq!(lookahead.cells.len(), workloads * 5 * 2);
        // A latency and a bandwidth cell per variant.
        assert_eq!(ablation_campaign(ParamsTier::Quick).cells.len(), 5 * 2);
        // 3 workloads × 5 NIs × 3 quick rates (5 rates at scaled/paper).
        assert_eq!(
            resilience_campaign(ParamsTier::Quick).cells.len(),
            3 * 5 * 3
        );
        assert_eq!(
            resilience_campaign(ParamsTier::Scaled).cells.len(),
            3 * 5 * 5
        );
        // Every registered service workload × 5 NIs.
        let service = latency_workloads();
        assert_eq!(service.len(), 2, "two RPC disciplines registered");
        assert_eq!(
            latency_campaign(ParamsTier::Quick).cells.len(),
            service.len() * 5
        );
        assert_eq!(taxonomy_campaign(ParamsTier::Quick).cells.len(), 1);
    }

    #[test]
    fn occupancy_cells_are_a_subset_of_fig8s() {
        // The dedup story: every occupancy run, every fixed-lookahead
        // lookahead run, every tail-latency run and every zero-rate
        // resilience run is already a Figure 8 panel (a) run, so a report
        // run executes them once. Only the speculative twins and the lossy
        // runs are new work.
        let fig8 = fig8_campaign(ParamsTier::Scaled, &Workload::ALL);
        let fig8_digests: HashSet<u64> = fig8.cells.iter().map(ExperimentSpec::digest).collect();
        for campaign in [
            occupancy_campaign(ParamsTier::Scaled, &Workload::ALL),
            lookahead_campaign(ParamsTier::Scaled, &Workload::ALL),
            latency_campaign(ParamsTier::Scaled),
            resilience_campaign(ParamsTier::Scaled),
        ] {
            for cell in &campaign.cells {
                let ExperimentSpec::Run {
                    fault_ppm,
                    lookahead,
                    ..
                } = *cell
                else {
                    panic!("{} cell {} is not a run", campaign.name, cell.label());
                };
                let shared = fault_ppm == 0 && lookahead == LookaheadMode::Fixed;
                assert_eq!(
                    fig8_digests.contains(&cell.digest()),
                    shared,
                    "{} cell {} must {}be a Figure 8 run",
                    campaign.name,
                    cell.label(),
                    if shared { "" } else { "not " }
                );
            }
        }
    }

    #[test]
    fn no_simulation_runs_twice_in_a_report() {
        // Two run cells with different digests but the same (workload,
        // machine, tier) would simulate the same thing twice; two with the
        // same digest but different setups would serve one result for two
        // simulations. Either way the mapping is not one-to-one.
        for tier in [ParamsTier::Quick, ParamsTier::Scaled] {
            let mut setup_of: HashMap<u64, String> = HashMap::new();
            let mut digest_of: HashMap<String, u64> = HashMap::new();
            for campaign in report_campaigns(tier, &Workload::ALL) {
                for cell in &campaign.cells {
                    let Some((workload, cfg, cell_tier)) = cell.run_setup() else {
                        continue;
                    };
                    let setup = format!("{workload} {cfg:?} {cell_tier}");
                    let digest = cell.digest();
                    assert_eq!(
                        setup_of.entry(digest).or_insert_with(|| setup.clone()),
                        &setup,
                        "{}: one digest, two simulations",
                        cell.label()
                    );
                    assert_eq!(
                        *digest_of.entry(setup).or_insert(digest),
                        digest,
                        "{}: one simulation under two digests",
                        cell.label()
                    );
                }
            }
        }
    }

    #[test]
    fn taxonomy_renders_without_running_a_simulation() {
        let campaign = taxonomy_campaign(ParamsTier::Quick);
        let run = super::super::run_campaign(&campaign, &super::super::RunOptions::default());
        let md = render_markdown(&run.campaigns[0]);
        assert!(md.contains("| NI/CNI |"), "{md}");
        assert!(md.contains("CNI16Qm"), "{md}");
        assert!(md.contains("main memory"), "{md}");
    }
}
