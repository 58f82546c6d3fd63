//! The four benchmark workloads and the code that runs one pass of each.
//!
//! Every workload is closed-loop: a fixed set of (config, kernel) cells,
//! run from one process, each on a machine whose caches start empty. The
//! simulator is reached only through its public calls — `Workload::
//! try_build`, `ndp_compiler::compile`, `System::try_with_kernel`,
//! `System::run` / `run_until`, `System::snapshot` / `try_restore` and
//! `experiments::run_matrix` — and the spans of a traced pass sit around
//! exactly those calls.

use std::collections::HashMap;
use std::fmt::Display;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ndp_common::config::SystemConfig;
use ndp_common::obs::perf::PerfConfig;
use ndp_compiler::{compile, CompilerConfig};
use ndp_core::checkpoint::{config_fingerprint, kernel_fingerprint};
use ndp_core::experiments::{
    fig10_configs, fig7_configs, fig9_configs, run_matrix, DEFAULT_MAX_CYCLES,
};
use ndp_core::{RunResult, System};
use ndp_workloads::{Scale, Workload, WORKLOADS};

use crate::spans::{Span, Tracer};

/// `SystemConfig::seed` the simulator ships with: the page→stack
/// placement every committed figure was made with.
pub const DEFAULT_SEED: u64 = 0x5C17_2017;
/// A placement seed kept out of tuning, for re-checking a claim on a data
/// placement it was not developed against.
pub const HELD_OUT_SEED: u64 = 0xC0DA;
/// Cycles between checkpoint round trips in `ckpt_resume`. A multiple of
/// the 256-cycle completion check, so the resumed run stops on exactly the
/// cycle the uninterrupted one does.
pub const CKPT_INTERVAL: u64 = 256;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// Baseline (no offload) on BFS, FWT, BPROP: SM issue path, L1/L2
    /// MSHRs and DRAM; no NSU or memory-network work.
    GpuDivergent,
    /// NDP(1.0) on six streaming kernels: every block instance crosses the
    /// CMD/RDF/WTA/ACK protocol, so the NSU, memnet and stack paths work
    /// and the SMs never hit a busy execution unit.
    NdpStream,
    /// The fig7, fig8, fig9 and fig10 matrices through `run_matrix`, as the
    /// figure binaries run them: per-cell set-up, the cell pool and
    /// repeated cells.
    FigSweep,
    /// NDP(Dyn)_Cache on STCL with a snapshot/restore round trip every
    /// [`CKPT_INTERVAL`] cycles: the checkpoint codecs.
    CkptResume,
}

impl Bench {
    pub const ALL: [Bench; 4] = [
        Bench::GpuDivergent,
        Bench::NdpStream,
        Bench::FigSweep,
        Bench::CkptResume,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Bench::GpuDivergent => "gpu_divergent",
            Bench::NdpStream => "ndp_stream",
            Bench::FigSweep => "fig_sweep",
            Bench::CkptResume => "ckpt_resume",
        }
    }

    pub fn parse(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }

    /// Algorithm 1 epoch (cycles) for every config, fixed here rather than
    /// read from `NDP_EPOCH`. The hill climber first moves the offload
    /// ratio at the end of its second epoch, so the epoch is short enough
    /// for every NDP(Dyn) cell to take several steps: on the default seed
    /// `fig_sweep`'s Dyn cells run 768–4352 cycles (6–34 epochs of 128),
    /// `ckpt_resume`'s about 15 k (7 epochs of 2000). Static configs ignore
    /// it.
    pub fn epoch_cycles(self) -> u64 {
        match self {
            Bench::FigSweep => 128,
            _ => 2_000,
        }
    }

    /// Problem size: reduced so that one pass takes about a second and a
    /// run holds enough passes for a steady median.
    pub fn scale(self) -> Scale {
        match self {
            Bench::GpuDivergent => Scale {
                warps: 512,
                iters: 4,
            },
            Bench::NdpStream => Scale {
                warps: 512,
                iters: 8,
            },
            Bench::FigSweep => Scale {
                warps: 64,
                iters: 2,
            },
            Bench::CkptResume => Scale {
                warps: 512,
                iters: 8,
            },
        }
    }

    /// The config × kernel matrices one pass runs, in order.
    fn matrices(self) -> Vec<Matrix> {
        use Workload::*;
        match self {
            Bench::GpuDivergent => vec![Matrix::new(
                vec![("Baseline", SystemConfig::baseline())],
                &[Bfs, Fwt, Bprop],
            )],
            Bench::NdpStream => vec![Matrix::new(
                vec![("NDP(1.0)", SystemConfig::ndp_static(1.0))],
                &[Vadd, Sp, MiniFe, Kmn, Bicg, Stcl],
            )],
            Bench::FigSweep => [
                fig7_configs(),
                fig7_configs(),
                fig9_configs(),
                fig10_configs(),
            ]
            .into_iter()
            .map(|configs| Matrix::new(configs, &WORKLOADS))
            .collect(),
            Bench::CkptResume => vec![Matrix::new(
                vec![("NDP(Dyn)_Cache", SystemConfig::ndp_dynamic_cache())],
                &[Stcl],
            )],
        }
    }
}

/// One `run_matrix` call's worth of cells.
struct Matrix {
    configs: Vec<(&'static str, SystemConfig)>,
    kernels: Vec<Workload>,
}

impl Matrix {
    fn new(configs: Vec<(&'static str, SystemConfig)>, kernels: &[Workload]) -> Self {
        Matrix {
            configs,
            kernels: kernels.to_vec(),
        }
    }

    /// Cells in `run_matrix`'s result order (config-major).
    fn cells(&self) -> Vec<Cell> {
        self.configs
            .iter()
            .flat_map(|(name, cfg)| {
                self.kernels.iter().map(|&kernel| Cell {
                    config: name,
                    cfg: cfg.clone(),
                    kernel,
                })
            })
            .collect()
    }
}

/// One simulation: a kernel under a named configuration.
#[derive(Clone)]
pub(crate) struct Cell {
    pub config: &'static str,
    pub cfg: SystemConfig,
    pub kernel: Workload,
}

impl Cell {
    fn fail(&self, e: impl Display) -> String {
        format!("{}/{}: {e}", self.config, self.kernel.name())
    }
}

/// A cell's outcome: its result, or why it failed.
pub type Outcome = Result<RunResult, String>;

/// One timed checkpoint round trip.
#[derive(Debug, Clone, Copy)]
pub struct RoundTrip {
    pub save_ms: f64,
    pub restore_ms: f64,
    pub image_bytes: usize,
}

/// What one pass over a workload's cells produced.
pub struct Pass {
    /// Host seconds for the whole pass, set-up included.
    pub wall_s: f64,
    /// One outcome per cell, in [`Suite::cells`] order.
    pub cells: Vec<Outcome>,
    pub trips: Vec<RoundTrip>,
    /// Spans of a traced pass (empty otherwise).
    pub spans: Vec<Span>,
}

/// A workload bound to a placement seed.
pub struct Suite {
    pub bench: Bench,
    pub scale: Scale,
    matrices: Vec<Matrix>,
}

impl Suite {
    pub fn new(bench: Bench, seed: u64) -> Self {
        Suite::at_scale(bench, seed, bench.scale())
    }

    /// The workload at another problem size (the self-tests use tiny ones).
    pub fn at_scale(bench: Bench, seed: u64, scale: Scale) -> Self {
        let mut matrices = bench.matrices();
        for m in &mut matrices {
            for (_, cfg) in &mut m.configs {
                cfg.seed = seed;
                cfg.hill_climb.epoch_cycles = bench.epoch_cycles();
            }
        }
        Suite {
            bench,
            scale,
            matrices,
        }
    }

    pub(crate) fn cells(&self) -> Vec<Cell> {
        self.matrices.iter().flat_map(Matrix::cells).collect()
    }

    /// Threads the pass runs cells on: `run_matrix`'s pool size for the
    /// sweep, one for the others.
    pub fn threads(&self) -> usize {
        match self.bench {
            Bench::FigSweep => pool_threads(),
            _ => 1,
        }
    }

    /// (config, kernel) fingerprints per cell; equal keys mean the same
    /// simulation.
    pub fn cell_keys(&self) -> Vec<(u64, u64)> {
        let mut kernels: HashMap<Workload, u64> = HashMap::new();
        self.cells()
            .iter()
            .map(|c| {
                let k = *kernels.entry(c.kernel).or_insert_with(|| {
                    kernel_fingerprint(&compile(
                        &c.kernel.build(&self.scale),
                        &CompilerConfig::default(),
                    ))
                });
                (config_fingerprint(&c.cfg), k)
            })
            .collect()
    }

    /// Host seconds to build, compile and construct every cell of a pass.
    pub fn setup_all(&self) -> Result<f64, String> {
        let mut tr = Tracer::new(false);
        let t0 = Instant::now();
        for c in self.cells() {
            setup(&mut tr, &c, &self.scale)?;
        }
        Ok(t0.elapsed().as_secs_f64())
    }

    /// Every cell run to completion without checkpoints: the results a
    /// checkpointed pass must reproduce.
    pub fn uninterrupted(&self) -> Vec<Outcome> {
        let mut tr = Tracer::new(false);
        self.cells()
            .iter()
            .map(|c| run_cell(&mut tr, c, &self.scale))
            .collect()
    }

    /// One pass over every cell. With `tr` on, the pass records spans and
    /// arms the simulator's per-stage profiler on every machine that runs
    /// to the end uninterrupted; tracing never changes a result.
    pub fn pass(&self, tr: &mut Tracer) -> Pass {
        let traced = tr.is_on();
        let mut trips = Vec::new();
        let t0 = Instant::now();
        let cells = tr.span("workload", |tr| match self.bench {
            Bench::FigSweep if traced => self.replay_pool(tr),
            Bench::FigSweep => self.sweep(),
            Bench::CkptResume => self
                .cells()
                .iter()
                .map(|c| run_ckpt_cell(tr, c, &self.scale, &mut trips))
                .collect(),
            Bench::GpuDivergent | Bench::NdpStream => self
                .cells()
                .iter()
                .map(|c| run_cell(tr, c, &self.scale))
                .collect(),
        });
        Pass {
            wall_s: t0.elapsed().as_secs_f64(),
            cells,
            trips,
            spans: tr.take_spans(),
        }
    }

    /// A machine for checkpoint round trips: the first cell, paused at
    /// cycle `at`.
    pub fn probe(&self, at: u64) -> Result<Probe, String> {
        let cell = self.cells().swap_remove(0);
        let mut sys = setup(&mut Tracer::new(false), &cell, &self.scale)?;
        sys.run_until(at).map_err(|e| cell.fail(e))?;
        Ok(Probe {
            cell,
            sys,
            last: None,
        })
    }

    /// The figure matrices through `run_matrix`, exactly as the figure
    /// binaries call it. A panicking matrix fails all of its cells.
    fn sweep(&self) -> Vec<Outcome> {
        let mut out = Vec::new();
        for m in &self.matrices {
            let run = panic::catch_unwind(AssertUnwindSafe(|| {
                run_matrix(&m.configs, &m.kernels, &self.scale, DEFAULT_MAX_CYCLES)
            }));
            match run {
                Ok(mx) => out.extend(
                    m.cells()
                        .iter()
                        .zip(mx.results.into_iter().flatten())
                        .map(|(c, r)| finished(c, r)),
                ),
                Err(_) => out.extend(m.cells().iter().map(|c| Err(c.fail("run_matrix panicked")))),
            }
        }
        out
    }

    /// The sweep's cells in `run_matrix`'s job order on a pool of the same
    /// size, each cell instrumented: `run_matrix` itself has no hook for
    /// per-cell spans.
    fn replay_pool(&self, tr: &mut Tracer) -> Vec<Outcome> {
        let mut out = Vec::new();
        for m in &self.matrices {
            let cells = m.cells();
            let next = AtomicUsize::new(0);
            let forks: Vec<Tracer> = (1..=pool_threads().min(cells.len()))
                .map(|t| tr.fork(t as u32))
                .collect();
            let workers: Vec<(Tracer, Vec<(usize, Outcome)>)> = std::thread::scope(|s| {
                let handles: Vec<_> = forks
                    .into_iter()
                    .map(|mut wt| {
                        let (cells, next) = (&cells, &next);
                        s.spawn(move || {
                            let mut done = Vec::new();
                            loop {
                                // A job counter that publishes nothing else.
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                let Some(c) = cells.get(i) else { break };
                                done.push((i, run_cell(&mut wt, c, &self.scale)));
                            }
                            (wt, done)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("a replay worker panicked"))
                    .collect()
            });
            let mut done: Vec<(usize, Outcome)> = Vec::new();
            for (wt, cells_done) in workers {
                tr.join(wt);
                done.extend(cells_done);
            }
            done.sort_unstable_by_key(|(i, _)| *i);
            out.extend(done.into_iter().map(|(_, r)| r));
        }
        out
    }
}

/// Checkpoint round trips on one paused machine, for workloads whose
/// passes take none: every workload reports the codecs' cost on its own
/// machine state.
pub struct Probe {
    cell: Cell,
    sys: System,
    last: Option<Vec<u8>>,
}

impl Probe {
    /// Take round trips until `trips` holds `want`, each on the machine the
    /// previous one restored; every image must re-serialise unchanged.
    pub fn top_up(&mut self, want: usize, trips: &mut Vec<RoundTrip>) -> Result<(), String> {
        let mut tr = Tracer::new(false);
        while trips.len() < want {
            let (restored, image) = round_trip(&mut tr, &self.cell, &self.sys, trips)?;
            if self.last.as_ref().is_some_and(|l| *l != image) {
                return Err(self
                    .cell
                    .fail("a restored machine re-serialised differently"));
            }
            (self.sys, self.last) = (restored, Some(image));
        }
        Ok(())
    }
}

/// `run_matrix`'s pool size.
fn pool_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Build, compile and construct one cell (the ndp-lint passes run inside
/// construction).
fn setup(tr: &mut Tracer, cell: &Cell, scale: &Scale) -> Result<System, String> {
    let program = tr
        .span("build", |_| cell.kernel.try_build(scale))
        .map_err(|e| cell.fail(e))?;
    let kernel = tr.span("compile", |_| {
        Arc::new(compile(&program, &CompilerConfig::default()))
    });
    tr.span("construct", |_| {
        System::try_with_kernel(cell.cfg.clone(), kernel)
    })
    .map_err(|e| cell.fail(e))
}

/// Set up and run one cell to completion.
fn run_cell(tr: &mut Tracer, cell: &Cell, scale: &Scale) -> Outcome {
    tr.span("cell", |tr| {
        let mut sys = setup(tr, cell, scale)?;
        if tr.is_on() {
            sys.enable_perf(PerfConfig::on());
        }
        let r = tr
            .span("run", |_| sys.run(DEFAULT_MAX_CYCLES))
            .map_err(|e| cell.fail(e))?;
        finished(cell, r)
    })
}

/// Run one cell with a checkpoint round trip every [`CKPT_INTERVAL`]
/// cycles, always continuing on the restored machine. The profiler is not
/// armed: a restored machine starts a fresh one, so it would cover only
/// the last interval.
fn run_ckpt_cell(
    tr: &mut Tracer,
    cell: &Cell,
    scale: &Scale,
    trips: &mut Vec<RoundTrip>,
) -> Outcome {
    tr.span("cell", |tr| {
        let mut sys = setup(tr, cell, scale)?;
        while !sys.is_done() && sys.cycle() < DEFAULT_MAX_CYCLES {
            let target = sys.cycle() + CKPT_INTERVAL;
            tr.span("run", |_| sys.run_until(target))
                .map_err(|e| cell.fail(e))?;
            sys = round_trip(tr, cell, &sys, trips)?.0;
        }
        let r = tr
            .span("run", |_| sys.run(DEFAULT_MAX_CYCLES))
            .map_err(|e| cell.fail(e))?;
        finished(cell, r)
    })
}

/// Snapshot `sys` and restore the image into a new machine, timing both.
fn round_trip(
    tr: &mut Tracer,
    cell: &Cell,
    sys: &System,
    trips: &mut Vec<RoundTrip>,
) -> Result<(System, Vec<u8>), String> {
    let t0 = Instant::now();
    let image = tr.span("snapshot", |_| sys.snapshot());
    let t1 = Instant::now();
    let restored = tr
        .span("restore", |_| {
            System::try_restore(sys.cfg.clone(), Arc::clone(&sys.kernel), &image)
        })
        .map_err(|e| cell.fail(e))?;
    trips.push(RoundTrip {
        save_ms: (t1 - t0).as_secs_f64() * 1e3,
        restore_ms: t1.elapsed().as_secs_f64() * 1e3,
        image_bytes: image.len(),
    });
    Ok((restored, image))
}

/// A run that hit the cycle cap or stalled is a failed cell.
fn finished(cell: &Cell, r: RunResult) -> Outcome {
    if r.timed_out {
        Err(cell.fail(format_args!("timed out at cycle {}", r.cycles)))
    } else {
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// At the benchmark's scale and epoch, Algorithm 1 must move the offload
    /// ratio in every NDP(Dyn) cell; otherwise the Dyn cells would all run
    /// on their initial ratio and the hill climber would go unmeasured.
    #[test]
    fn every_dyn_cell_takes_hill_climb_steps() {
        for bench in [Bench::FigSweep, Bench::CkptResume] {
            let suite = Suite::new(bench, DEFAULT_SEED);
            let mut dyn_cells = 0;
            for c in suite.cells().iter().filter(|c| c.config.contains("Dyn")) {
                let mut sys = setup(&mut Tracer::new(false), c, &suite.scale).unwrap();
                while !sys.is_done() {
                    let target = sys.cycle() + CKPT_INTERVAL;
                    sys.run_until(target).unwrap();
                }
                let ratio = sys.ctrl.current_ratio();
                assert_ne!(
                    ratio,
                    c.cfg.hill_climb.initial_ratio,
                    "{} ended on its initial offload ratio after {} cycles",
                    c.fail("hill climber"),
                    sys.cycle()
                );
                dyn_cells += 1;
            }
            assert!(dyn_cells > 0, "{} has no Dyn cell", bench.name());
        }
    }
}
