//! `simbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Runs passes of one workload for `--seconds` of host time (time spent on
//! checkpoint probes not counted), checks every simulated result, prints
//! one `metric <name> <value> <unit>` line per metric and,
//! as the last line, one JSON object with the outcome counts and metrics.
//! `--trace 0` reports the end-to-end metrics from untraced passes;
//! `--trace 1` alternates untraced and traced passes and reports the
//! per-layer metrics, writing the traced passes' spans to
//! `out/spans-<workload>-<seed>.json` in this package. Exits 1 when a check
//! failed and 2 on bad arguments or environment.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use simbench::report::{self, Metric};
use simbench::spans::{chrome_json, Tracer};
use simbench::stats::{beyond, failed_frac, highest_supported};
use simbench::suite::{Bench, Pass, Probe, RoundTrip, Suite, DEFAULT_SEED, HELD_OUT_SEED};

/// After each untraced pass, set-up is timed repeatedly for this share of
/// the pass's own time (at least once), so that the samples are spread
/// over the run like the passes. One set-up of a few cells takes under a
/// millisecond and its time swings between two modes for seconds at a
/// time, so it needs many samples taken at many moments.
const SETUP_SHARE: f64 = 0.125;
/// Fewest untraced passes a run makes, however long they take.
const MIN_PASSES: usize = 3;
/// Checkpoint round trips a run times at least, so that the 90th
/// percentile has ten samples beyond it.
const MIN_TRIPS: usize = 100;

struct Args {
    bench: Bench,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn main() -> ExitCode {
    match parse_args().and_then(|a| refuse_ndp_env().map(|()| a)) {
        Ok(args) => run(&args),
        Err(msg) => {
            eprintln!("simbench: {msg}");
            ExitCode::from(2)
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let names: Vec<&str> = Bench::ALL.iter().map(|b| b.name()).collect();
    let mut args = Args {
        bench: Bench::GpuDivergent,
        seed: DEFAULT_SEED,
        seconds: 20,
        trace: false,
    };
    let mut bench = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => {
                bench = Some(Bench::parse(&val).ok_or(format!(
                    "unknown workload {val:?}; choose one of {}",
                    names.join(", ")
                ))?)
            }
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?.max(1),
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    args.bench = bench.ok_or(format!(
        "--workload is required; one of {}",
        names.join(", ")
    ))?;
    Ok(args)
}

/// `NDP_*` variables (resume, no-skip, parallel ticking, race detection,
/// watchdog, profiling, fault injection, …) would silently change the
/// program being measured.
fn refuse_ndp_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("NDP_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: NDP_* variables change the simulator being measured",
            set.join(", ")
        ))
    }
}

fn run(args: &Args) -> ExitCode {
    let suite = Suite::new(args.bench, args.seed);
    let keys = suite.cell_keys();
    println!(
        "# simbench workload={} seed={} (default {DEFAULT_SEED}, held-out {HELD_OUT_SEED}) \
         warps={} iters={} cells={} threads={} trace={}",
        args.bench.name(),
        args.seed,
        suite.scale.warps,
        suite.scale.iters,
        keys.len(),
        suite.threads(),
        u8::from(args.trace),
    );
    let mut problems: Vec<String> = Vec::new();

    // A checkpointed pass must reproduce the uninterrupted run; every
    // other pass must reproduce the first.
    let reference = (args.bench == Bench::CkptResume).then(|| suite.uninterrupted());

    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut setup_s: Vec<f64> = Vec::new();
    let mut trips: Vec<RoundTrip> = Vec::new();
    let mut probe: Option<Result<Probe, String>> = None;
    let (mut off, mut on) = (Tracer::new(false), Tracer::new(true));
    let start = Instant::now();
    // Time spent on probe round trips, which the run's length leaves out.
    let mut probe_time = Duration::ZERO;
    let mut rss_mib = None;
    loop {
        let pass = suite.pass(&mut off);
        trips.extend_from_slice(&pass.trips);
        untraced.push(pass);
        // The memory one pass needs, read before the probe's machine and
        // images exist; later passes reuse it.
        rss_mib.get_or_insert_with(peak_rss_mib);
        if args.trace {
            traced.push(suite.pass(&mut on));
        } else {
            let slice = Instant::now();
            let length = untraced.last().map_or(0.0, |p| p.wall_s) * SETUP_SHARE;
            while setup_s.len() < untraced.len() || slice.elapsed().as_secs_f64() < length {
                match suite.setup_all() {
                    Ok(s) => setup_s.push(s),
                    Err(e) => {
                        problems.push(format!("set-up: {e}"));
                        break;
                    }
                }
            }
        }
        let progress = (start.elapsed() - probe_time).as_secs_f64() / args.seconds as f64;
        let done = progress >= 1.0 && (args.trace || untraced.len() >= MIN_PASSES);
        // Probe round trips are paced over the whole run, so that a brief
        // host slowdown cannot skew them all.
        let due = if done { 1.0 } else { progress.min(1.0) };
        let due = (MIN_TRIPS as f64 * due).ceil() as usize;
        if !args.trace && trips.len() < due {
            let t0 = Instant::now();
            // A quarter of the way in, every warp is still resident, so the
            // image hardly depends on the seed.
            let at = untraced[0].cells[0].as_ref().map_or(0, |r| r.cycles / 4);
            let p = probe.get_or_insert_with(|| suite.probe(at));
            if let Ok(pr) = p {
                if let Err(e) = pr.top_up(due, &mut trips) {
                    *p = Err(e);
                }
            }
            probe_time += t0.elapsed();
        }
        if done {
            break;
        }
    }

    let expected = report::renderings(match &reference {
        Some(r) => r,
        None => &untraced[0].cells,
    });
    let digest = report::digest(&report::renderings(&untraced[0].cells));
    let (mut attempted, mut failed) = (0u64, 0u64);
    if let Some(p) = &probe {
        attempted += 1;
        if let Err(e) = p {
            failed += 1;
            problems.push(format!("checkpoint probe: {e}"));
        }
    }
    for r in reference.iter().flatten() {
        attempted += 1;
        if let Err(e) = r {
            failed += 1;
            problems.push(format!("uninterrupted reference: {e}"));
        }
    }
    let what = if reference.is_some() {
        "the same cell run without checkpoints"
    } else {
        "the first pass"
    };
    for p in untraced.iter_mut().chain(traced.iter_mut()) {
        report::check_duplicates(&mut p.cells, &keys);
        report::check_against(&mut p.cells, &expected, what);
        attempted += p.cells.len() as u64;
        for e in p.cells.iter().filter_map(|c| c.as_ref().err()) {
            failed += 1;
            problems.push(e.clone());
        }
    }

    let metrics: Vec<Metric> = if args.trace {
        let spans: Vec<_> = traced
            .iter()
            .flat_map(|p| p.spans.iter().cloned())
            .collect();
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let file = dir.join(format!("spans-{}-{}.json", args.bench.name(), args.seed));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&file, chrome_json(&spans)))
        {
            Ok(()) => println!("# {} spans written to {}", spans.len(), file.display()),
            Err(e) => problems.push(format!("writing {}: {e}", file.display())),
        }
        report::per_layer(&traced, &untraced, suite.threads(), &keys)
    } else {
        let p = highest_supported(trips.len(), &[50.0, 90.0, 99.0, 99.9], 10);
        println!(
            "# checkpoint round trips: {} (90th percentile has {} beyond it; highest percentile \
             with >= 10 beyond: {})",
            trips.len(),
            beyond(trips.len(), 90.0),
            p.map_or("none".to_string(), |p| format!("p{p}")),
        );
        let rss = rss_mib.and_then(|r| r.map_err(|e| problems.push(e)).ok());
        report::end_to_end(&untraced, &setup_s, &trips, rss.unwrap_or(0.0))
    };

    for m in &metrics {
        if !m.value.is_finite() {
            problems.push(format!("metric {} is not a finite number", m.name));
        }
    }
    let correct = problems.is_empty();
    for p in problems.iter().take(20) {
        eprintln!("simbench: FAILED {p}");
    }
    let walls: Vec<String> = untraced
        .iter()
        .map(|p| format!("{:.3}", p.wall_s))
        .collect();
    println!(
        "# passes: {} traced; {} untraced, wall s: {}",
        traced.len(),
        untraced.len(),
        walls.join(" ")
    );
    println!("sim_digest {} {:016x}", args.bench.name(), digest);
    println!("failed_frac {}", failed_frac(failed, attempted));
    for m in &metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<Metric> = metrics
        .into_iter()
        .filter(|m| m.value.is_finite())
        .collect();
    println!("{}", report::json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
