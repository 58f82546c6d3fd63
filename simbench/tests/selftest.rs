//! Self-tests of the benchmark: its statistics, its span arithmetic, its
//! output checks, and the exact repeatability its per-layer counts rely on.
//! Run with `cargo test --release --manifest-path simbench/Cargo.toml`.

use ndp_core::RunResult;
use ndp_workloads::Scale;
use simbench::report::{check_against, check_duplicates, digest, dup_frac, renderings, Totals};
use simbench::spans::{self_by_name, self_times, Span, Tracer};
use simbench::stats::{beyond, failed_frac, highest_supported, median, percentile, trimmed_mean};
use simbench::suite::{Bench, Outcome, Suite, DEFAULT_SEED, HELD_OUT_SEED};

#[test]
fn percentiles_are_nearest_rank_with_their_tail_counts() {
    let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(percentile(&xs, 50.0), Some(50.0));
    assert_eq!(percentile(&xs, 90.0), Some(90.0));
    assert_eq!(percentile(&xs, 100.0), Some(100.0));
    assert_eq!(percentile(&xs[..10], 50.0), Some(95.0));
    assert_eq!(percentile(&[], 50.0), None);
    assert_eq!(percentile(&[7.0], 99.0), Some(7.0));

    assert_eq!(beyond(100, 90.0), 10);
    assert_eq!(beyond(99, 90.0), 9);
    assert_eq!(beyond(0, 50.0), 0);
    let ladder = [50.0, 90.0, 99.0];
    assert_eq!(highest_supported(100, &ladder, 10), Some(90.0));
    assert_eq!(highest_supported(99, &ladder, 10), Some(50.0));
    assert_eq!(highest_supported(1000, &ladder, 10), Some(99.0));
    assert_eq!(highest_supported(19, &ladder, 10), None);
}

#[test]
fn medians_and_failure_ratios() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
    assert_eq!(failed_frac(0, 0), 0.0);
    assert_eq!(failed_frac(0, 190), 0.0);
    assert_eq!(failed_frac(19, 190), 0.1);
}

#[test]
fn trimmed_means_drop_both_tails() {
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(trimmed_mean(&xs, 0.0), Some(5.5));
    // One sample cut from each end: mean of 2..=9.
    assert_eq!(trimmed_mean(&xs, 0.1), Some(5.5));
    assert_eq!(trimmed_mean(&[1.0, 2.0, 3.0, 1000.0], 0.25), Some(2.5));
    assert_eq!(trimmed_mean(&[], 0.1), None);
    // A bimodal sample: the median sits on one mode, the trimmed mean
    // between them in proportion to their shares.
    let mut two_modes = vec![0.4; 45];
    two_modes.extend([0.7; 55]);
    assert_eq!(median(&two_modes), Some(0.7));
    let t = trimmed_mean(&two_modes, 0.1).unwrap();
    assert!((t - (35.0 * 0.4 + 45.0 * 0.7) / 80.0).abs() < 1e-12, "{t}");
}

fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        name: if parent.is_none() { "workload" } else { "cell" },
        tid: 0,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    // Two workers' cells overlap inside the parent; one child runs past
    // the parent's end. Covered: [10, 60) ∪ [70, 100) = 80 of 100.
    let spans = [
        span(0, None, 0, 100),
        span(1, Some(0), 10, 50),
        span(2, Some(0), 30, 60),
        span(3, Some(0), 70, 120),
        span(4, Some(1), 20, 25),
    ];
    let selfs = self_times(&spans);
    assert_eq!(selfs[&0], 20);
    assert_eq!(selfs[&1], 35);
    assert_eq!(selfs[&2], 30);
    assert_eq!(selfs[&3], 50);
    assert_eq!(selfs[&4], 5);
    let by_name = self_by_name(&spans);
    assert_eq!(by_name["workload"], 20);
    assert_eq!(by_name["cell"], 120);
}

#[test]
fn tracer_nests_spans_across_forks() {
    let mut tr = Tracer::new(true);
    tr.span("workload", |tr| {
        let mut worker = tr.fork(1);
        worker.span("cell", |w| w.span("run", |_| ()));
        tr.join(worker);
        tr.span("cell", |_| ());
    });
    let spans = tr.take_spans();
    let id = |name: &str, tid: u32| {
        spans
            .iter()
            .find(|s| s.name == name && s.tid == tid)
            .expect("span recorded")
            .id
    };
    let root = id("workload", 0);
    let parent =
        |name: &str, tid: u32| spans.iter().find(|s| s.id == id(name, tid)).unwrap().parent;
    assert_eq!(parent("workload", 0), None);
    assert_eq!(parent("cell", 1), Some(root));
    assert_eq!(parent("cell", 0), Some(root));
    assert_eq!(parent("run", 1), Some(id("cell", 1)));
    let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), spans.len(), "span ids are unique across forks");

    let mut off = Tracer::new(false);
    assert_eq!(off.span("cell", |_| 7), 7);
    assert!(off.take_spans().is_empty());
}

fn result(workload: &str, cycles: u64) -> Outcome {
    Ok(RunResult {
        workload: workload.to_string(),
        config: "Never".to_string(),
        cycles,
        ..Default::default()
    })
}

#[test]
fn output_checks_fail_the_cells_that_differ() {
    let keys = [(1, 1), (1, 2), (1, 1), (1, 2)];
    let mut cells = vec![
        result("A", 10),
        result("B", 20),
        result("A", 10),
        result("B", 21),
    ];
    check_duplicates(&mut cells, &keys);
    assert!(cells[..3].iter().all(Result::is_ok));
    assert!(
        cells[3].is_err(),
        "a repeated cell with another result fails"
    );
    assert_eq!(dup_frac(&keys), 0.5);

    let expected = renderings(&[result("A", 10), result("B", 20)]);
    let mut again = vec![result("A", 10), result("B", 22)];
    check_against(&mut again, &expected, "the first pass");
    assert!(again[0].is_ok() && again[1].is_err());
    let failed = cells.iter().chain(&again).filter(|c| c.is_err()).count() as u64;
    assert_eq!(failed_frac(failed, 6), 2.0 / 6.0);
}

#[test]
fn the_sweep_repeats_ninety_of_its_cells() {
    let keys = Suite::new(Bench::FigSweep, DEFAULT_SEED).cell_keys();
    assert_eq!(keys.len(), 190);
    assert_eq!(dup_frac(&keys), 90.0 / 190.0);
}

/// Two passes of one seed give byte-identical results and identical
/// counts, traced or not; another seed places pages differently.
#[test]
fn exact_counts_repeat_for_one_seed() {
    let tiny = Scale {
        warps: 32,
        iters: 1,
    };
    let suite = Suite::at_scale(Bench::NdpStream, DEFAULT_SEED, tiny);
    let a = suite.pass(&mut Tracer::new(false));
    let b = suite.pass(&mut Tracer::new(true));
    assert!(a.cells.iter().all(Result::is_ok), "every cell completes");
    assert_eq!(renderings(&a.cells), renderings(&b.cells));
    let (ta, tb) = (Totals::of(&a.cells), Totals::of(&b.cells));
    assert_eq!(ta, tb);
    assert!(ta.nsu_instrs > 0 && ta.exec_busy == 0);
    assert!(b.cells.iter().flatten().all(|r| r.perf.is_some()));

    let other =
        Suite::at_scale(Bench::NdpStream, HELD_OUT_SEED, tiny).pass(&mut Tracer::new(false));
    assert_ne!(
        digest(&renderings(&a.cells)),
        digest(&renderings(&other.cells))
    );
}

#[test]
fn a_checkpointed_pass_reproduces_the_uninterrupted_run() {
    let suite = Suite::at_scale(
        Bench::CkptResume,
        DEFAULT_SEED,
        Scale {
            warps: 32,
            iters: 2,
        },
    );
    let pass = suite.pass(&mut Tracer::new(true));
    assert!(!pass.trips.is_empty());
    assert_eq!(renderings(&pass.cells), renderings(&suite.uninterrupted()));
    assert!(pass.spans.iter().any(|s| s.name == "restore"));
}
