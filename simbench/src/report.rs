//! Output checks and the metrics a run reports.

use std::collections::{BTreeMap, HashMap};

use ndp_common::stats::CacheStats;
use ndp_core::RunResult;

use crate::spans::{self_by_name, Span};
use crate::stats::{median, percentile, trimmed_mean};
use crate::suite::{Outcome, Pass, RoundTrip};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Share of set-up samples dropped at each end before `setup_s` averages
/// the rest: a trimmed mean, because the samples fall into two modes and a
/// median would jump between them from one run to the next.
const SETUP_TRIM: f64 = 0.1;

/// Pipeline stages of `System::enable_perf`, by the module they model.
pub const STAGES: [(&str, &str); 20] = [
    ("tick:sms", "gpu"),
    ("edge:sm_out", "gpu"),
    ("tick:slices", "gpu"),
    ("edge:slice_to_mem", "gpu"),
    ("edge:slice_to_sm", "gpu"),
    ("tick:uplinks", "link"),
    ("edge:up_link", "link"),
    ("tick:downlinks", "link"),
    ("edge:down_link", "link"),
    ("tick:stacks", "hmc"),
    ("edge:stack_to_memnet", "hmc"),
    ("edge:stack_to_nsu", "hmc"),
    ("edge:stack_to_gpu", "hmc"),
    ("tick:net", "memnet"),
    ("edge:net_delivered", "memnet"),
    ("tick:nsus", "nsu"),
    ("edge:nsu_out", "nsu"),
    ("side:credits", "nsu"),
    ("side:ctrl", "offload"),
    ("side:sample", "offload"),
];

/// Each cell's `Debug` rendering, the byte-exact form results are
/// compared in (`None` for a failed cell).
pub fn renderings(cells: &[Outcome]) -> Vec<Option<String>> {
    cells
        .iter()
        .map(|c| c.as_ref().ok().map(|r| format!("{r:?}")))
        .collect()
}

/// Fail every cell whose result differs from the expected rendering.
pub fn check_against(cells: &mut [Outcome], expected: &[Option<String>], what: &str) {
    for (c, want) in cells.iter_mut().zip(expected) {
        if let (Ok(r), Some(want)) = (&*c, want) {
            if format!("{r:?}") != *want {
                *c = Err(format!("{}/{}: differs from {what}", r.config, r.workload));
            }
        }
    }
}

/// Fail every cell whose result differs from an earlier cell with the same
/// (config, kernel) fingerprints.
pub fn check_duplicates(cells: &mut [Outcome], keys: &[(u64, u64)]) {
    let mut first: HashMap<(u64, u64), String> = HashMap::new();
    for (c, key) in cells.iter_mut().zip(keys) {
        let Ok(r) = &*c else { continue };
        let text = format!("{r:?}");
        match first.get(key) {
            Some(want) if *want != text => {
                *c = Err(format!(
                    "{}/{}: differs from an identical earlier cell",
                    r.config, r.workload
                ));
            }
            Some(_) => {}
            None => {
                first.insert(*key, text);
            }
        }
    }
}

/// Share of cells that repeat an earlier cell's fingerprints.
pub fn dup_frac(keys: &[(u64, u64)]) -> f64 {
    let mut seen = keys.to_vec();
    seen.sort_unstable();
    seen.dedup();
    share((keys.len() - seen.len()) as u64, keys.len() as u64)
}

/// FNV-1a over the renderings: one number to diff two builds' simulated
/// output by.
pub fn digest(renderings: &[Option<String>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in renderings {
        for b in r.as_deref().unwrap_or("<failed>").bytes().chain([b'\n']) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Simulated totals over a pass's cells.
#[derive(Debug, Default, PartialEq)]
pub struct Totals {
    pub cycles: u64,
    pub gpu_instrs: u64,
    pub exec_busy: u64,
    pub dep_stall: u64,
    pub l1: CacheStats,
    pub l2: CacheStats,
    pub gpu_link_bytes: u64,
    pub ndp_bytes: u64,
    pub inval_bytes: u64,
    pub intra_hmc_bytes: u64,
    pub activations: u64,
    pub memnet_bytes: u64,
    pub nsu_instrs: u64,
    pub nsu_occupancy_sum: f64,
    pub cells: u64,
    pub offered: u64,
    pub offloaded: u64,
}

impl Totals {
    pub fn of(cells: &[Outcome]) -> Totals {
        let mut t = Totals::default();
        for r in cells.iter().flatten() {
            t.add(r);
        }
        t
    }

    fn add(&mut self, r: &RunResult) {
        self.cycles += r.cycles;
        self.gpu_instrs += r.issue.issued;
        self.exec_busy += r.issue.exec_unit_busy;
        self.dep_stall += r.issue.dependency_stall;
        self.l1.merge(&r.l1);
        self.l2.merge(&r.l2);
        self.gpu_link_bytes += r.gpu_link_bytes;
        self.ndp_bytes += r.gpu_link_ndp_bytes;
        self.inval_bytes += r.inval_bytes;
        self.intra_hmc_bytes += r.intra_hmc_bytes;
        self.activations += r.dram.activations;
        self.memnet_bytes += r.memnet_bytes;
        self.nsu_instrs += r.nsu_instrs;
        self.nsu_occupancy_sum += r.nsu_occupancy;
        self.cells += 1;
        self.offered += r.offered;
        self.offloaded += r.offloaded;
    }

    /// Warp instructions issued by SMs plus those run on NSUs.
    pub fn warp_instrs(&self) -> u64 {
        self.gpu_instrs + self.nsu_instrs
    }
}

/// The end-to-end metrics, from untraced passes only.
pub fn end_to_end(
    passes: &[Pass],
    setup_s: &[f64],
    trips: &[RoundTrip],
    rss_mib: f64,
) -> Vec<Metric> {
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let per_s = |work: fn(&Totals) -> u64| -> Vec<f64> {
        passes
            .iter()
            .map(|p| work(&Totals::of(&p.cells)) as f64 / p.wall_s)
            .collect()
    };
    let save: Vec<f64> = trips.iter().map(|t| t.save_ms).collect();
    let restore: Vec<f64> = trips.iter().map(|t| t.restore_ms).collect();
    let image: Vec<f64> = trips
        .iter()
        .map(|t| t.image_bytes as f64 / 1024.0)
        .collect();
    let or0 = |x: Option<f64>| x.unwrap_or(0.0);
    vec![
        metric("wall_s", "s", or0(median(&walls))),
        metric("sim_cycles_per_s", "1/s", or0(median(&per_s(|t| t.cycles)))),
        metric(
            "sim_warp_instrs_per_s",
            "1/s",
            or0(median(&per_s(Totals::warp_instrs))),
        ),
        metric("setup_s", "s", or0(trimmed_mean(setup_s, SETUP_TRIM))),
        metric("peak_rss_mib", "MiB", rss_mib),
        metric("ckpt_save_p50_ms", "ms", or0(percentile(&save, 50.0))),
        metric("ckpt_save_p90_ms", "ms", or0(percentile(&save, 90.0))),
        metric("ckpt_restore_p50_ms", "ms", or0(percentile(&restore, 50.0))),
        metric("ckpt_restore_p90_ms", "ms", or0(percentile(&restore, 90.0))),
        metric("ckpt_image_kib", "KiB", or0(median(&image))),
    ]
}

/// The per-layer metrics: medians over the traced passes, with the
/// untraced passes as the reference for the tracing overhead. `threads` is
/// the pool size the cells ran on; `keys` the cells' fingerprints.
pub fn per_layer(
    traced: &[Pass],
    untraced: &[Pass],
    threads: usize,
    keys: &[(u64, u64)],
) -> Vec<Metric> {
    let per_pass: Vec<Vec<Metric>> = traced.iter().map(|p| traced_pass(p, threads)).collect();
    let mut out: Vec<Metric> = per_pass
        .first()
        .map(|first| {
            first
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    let vals: Vec<f64> = per_pass.iter().map(|ms| ms[i].value).collect();
                    metric(m.name.clone(), m.unit, median(&vals).unwrap_or(0.0))
                })
                .collect()
        })
        .unwrap_or_default();
    out.push(metric("experiments.dup_cell_frac", "frac", dup_frac(keys)));
    let untraced_wall =
        median(&untraced.iter().map(|p| p.wall_s).collect::<Vec<_>>()).unwrap_or(0.0);
    let traced_wall = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>()).unwrap_or(0.0);
    out.push(metric(
        "trace.overhead_frac",
        "frac",
        if untraced_wall > 0.0 {
            traced_wall / untraced_wall - 1.0
        } else {
            0.0
        },
    ));
    out
}

/// Per-layer metrics of one traced pass. Pool use compares the cells'
/// summed span time with `threads` times the pass's own span.
fn traced_pass(p: &Pass, threads: usize) -> Vec<Metric> {
    let ms = |ns: u64| ns as f64 / 1e6;
    let selfs = self_by_name(&p.spans);
    let self_ns = |name: &str| selfs.get(name).copied().unwrap_or(0);
    let span_ns = |name: &str| -> Vec<u64> {
        p.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    };
    let cells_ns = span_ns("cell");
    let pass_ns: u64 = span_ns("workload").iter().sum();

    let mut out = vec![
        metric("workloads.build_ms", "ms", ms(self_ns("build"))),
        metric("compiler.compile_ms", "ms", ms(self_ns("compile"))),
        metric("core.construct_ms", "ms", ms(self_ns("construct"))),
        metric("core.run_ms", "ms", ms(self_ns("run"))),
        metric("core.snapshot_ms", "ms", ms(self_ns("snapshot"))),
        metric("core.restore_ms", "ms", ms(self_ns("restore"))),
        metric(
            "core.ckpt_host_frac",
            "frac",
            share(self_ns("snapshot") + self_ns("restore"), pass_ns),
        ),
        metric(
            "bench.self_ms",
            "ms",
            ms(self_ns("workload") + self_ns("cell")),
        ),
        metric(
            "experiments.pool_util",
            "frac",
            ratio(
                cells_ns.iter().sum::<u64>() as f64,
                threads as f64 * pass_ns as f64,
            ),
        ),
        metric(
            "experiments.longest_cell_frac",
            "frac",
            share(cells_ns.iter().copied().max().unwrap_or(0), pass_ns),
        ),
    ];

    let mut stages: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for perf in p.cells.iter().flatten().filter_map(|r| r.perf.as_ref()) {
        for s in &perf.stages {
            let e = stages.entry(s.name.as_str()).or_default();
            e.0 += s.est_wall_ns;
            e.1 += s.skipped;
            e.2 += s.invocations + s.gated + s.skipped;
        }
    }
    for (stage, module) in STAGES {
        let (ns, skipped, total) = stages.get(stage).copied().unwrap_or_default();
        let stem = format!("{module}.{}", stage.replace(':', "_"));
        out.push(metric(format!("{stem}.host_s"), "s", ns as f64 / 1e9));
        out.push(metric(
            format!("{stem}.skip_frac"),
            "frac",
            share(skipped, total),
        ));
    }

    let t = Totals::of(&p.cells);
    let count = |name: &str, v: u64| metric(name, "count", v as f64);
    out.extend([
        count("core.sim_cycles", t.cycles),
        count("gpu.warp_instrs", t.gpu_instrs),
        count("gpu.exec_busy", t.exec_busy),
        count("gpu.dep_stall", t.dep_stall),
        metric("gpu.l1_hit_rate", "frac", t.l1.read_hit_rate()),
        metric("gpu.l2_hit_rate", "frac", t.l2.read_hit_rate()),
        metric("link.gpu_bytes", "B", t.gpu_link_bytes as f64),
        metric("link.ndp_bytes", "B", t.ndp_bytes as f64),
        metric("link.inval_bytes", "B", t.inval_bytes as f64),
        metric("hmc.intra_bytes", "B", t.intra_hmc_bytes as f64),
        count("dram.activations", t.activations),
        metric("memnet.bytes", "B", t.memnet_bytes as f64),
        count("nsu.warp_instrs", t.nsu_instrs),
        metric(
            "nsu.occupancy",
            "frac",
            ratio(t.nsu_occupancy_sum, t.cells as f64),
        ),
        metric("offload.fraction", "frac", share(t.offloaded, t.offered)),
    ]);
    out
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn share(part: u64, whole: u64) -> f64 {
    ratio(part as f64, whole as f64)
}

/// The result line: one JSON object with the outcome counts and every
/// metric with its unit.
pub fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
