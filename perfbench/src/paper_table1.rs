//! `paper_table1`: the paper's Table I analysis end to end — measure the
//! 16 placements of the FEM-extended Table I experiment, cluster them into
//! performance classes, and pick the least-energy placement of class 1.

use crate::common::{repeated_setup, stopwatch, timed_loop};
use crate::trace::{self, Layer};
use crate::{run_phases, Outcome};
use relperf_core::{ClusterConfig, PairSchedule, Parallelism, ScoreTable};
use relperf_measure::compare::BootstrapConfig;
use relperf_measure::{stream_seed, BootstrapComparator, ScratchThreeWayComparator};
use relperf_workloads::experiment::{cluster_measurements_seeded, measure_all_seeded};
use relperf_workloads::{profiles, Experiment, MeasuredAlgorithm};
use std::time::Duration;

/// State builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Measurements per placement (the paper's N).
const N: usize = 30;
/// Shuffled-sort repetitions (the paper's Rep).
const REPS: usize = 100;
/// Bootstrap rounds per comparison.
const ROUNDS: usize = 30;

/// What one op produced.
struct OpResult {
    measured: Vec<MeasuredAlgorithm>,
    table: ScoreTable,
    /// Label of the least-`device_energy_j` placement in class 1.
    pick: String,
}

fn config(parallelism: Parallelism) -> ClusterConfig {
    ClusterConfig {
        repetitions: REPS,
        parallelism,
        schedule: PairSchedule::OnDemand,
    }
}

/// The op's measurement and clustering seeds, fresh per op.
fn op_seeds(seed: u64, i: u64) -> (u64, u64) {
    (stream_seed(seed, 2 * i), stream_seed(seed, 2 * i + 1))
}

fn op<C: ScratchThreeWayComparator + Sync>(
    exp: &Experiment,
    comparator: &C,
    seeds: (u64, u64),
    parallelism: Parallelism,
) -> OpResult {
    let measured = trace::span(Layer::Measure, 0, || {
        measure_all_seeded(exp, N, seeds.0, parallelism)
    });
    let table = trace::span(Layer::Score, 0, || {
        cluster_measurements_seeded(&measured, comparator, config(parallelism), seeds.1)
    });
    let clustering = table.final_assignment();
    let pick = profiles(&measured, &clustering)
        .into_iter()
        .filter(|p| p.rank == 1)
        .min_by(|a, b| a.device_energy_j.total_cmp(&b.device_energy_j))
        .map(|p| p.label)
        .unwrap_or_default();
    OpResult {
        measured,
        table,
        pick,
    }
}

/// Output checks of one op, each against a property of the method or a
/// computation made apart from the program.
fn check(r: &OpResult, problems: &mut Vec<String>) {
    for (alg, row) in r.table.score_rows().iter().enumerate() {
        let sum: f64 = row.iter().sum();
        if (sum - 1.0).abs() > 1e-9 {
            problems.push(format!("score row {alg} sums to {sum}, not 1"));
        }
    }
    // The energy pick, by a direct scan of the simulator's noiseless
    // records over the class-1 members.
    let clustering = r.table.final_assignment();
    let direct = clustering
        .assignments()
        .iter()
        .filter(|a| a.rank == 1)
        .map(|a| &r.measured[a.algorithm])
        .min_by(|a, b| {
            a.record
                .energy
                .device_j
                .total_cmp(&b.record.energy.device_j)
        })
        .map(|m| m.label.clone())
        .unwrap_or_default();
    if direct.is_empty() || direct != r.pick {
        problems.push(format!(
            "energy pick {:?} differs from the direct scan {direct:?}",
            r.pick
        ));
    }
}

fn bits(t: &ScoreTable) -> Vec<Vec<u64>> {
    t.score_rows()
        .iter()
        .map(|row| row.iter().map(|x| x.to_bits()).collect())
        .collect()
}

pub fn run(seed: u64, seconds: f64, trace_mode: bool) -> Result<Outcome, String> {
    let comparator = BootstrapComparator::with_config(
        seed,
        BootstrapConfig {
            reps: ROUNDS,
            ..Default::default()
        },
    );
    let (exp, setup_s) = repeated_setup(SETUP_REPS, || {
        let exp = Experiment::table1_fem(10);
        if exp.placements.len() != 16 {
            return Err(format!(
                "Table I experiment has {} placements, not 16",
                exp.placements.len()
            ));
        }
        // One untimed warm-up op.
        op(
            &exp,
            &comparator,
            op_seeds(seed, u64::MAX / 2),
            Parallelism::serial(),
        );
        Ok(exp)
    })?;
    let mut problems = Vec::new();
    let traced_cmp = trace::Traced(&comparator, Layer::Compare);
    let (untraced, traced) = run_phases(seconds, trace_mode, |secs, traced| {
        timed_loop(secs, |i| {
            let seeds = op_seeds(seed, i);
            let (r, d): (OpResult, Duration) = if traced {
                stopwatch(|| op(&exp, &traced_cmp, seeds, Parallelism::serial()))
            } else {
                stopwatch(|| op(&exp, &comparator, seeds, Parallelism::serial()))
            };
            check(&r, &mut problems);
            Ok(d)
        })
    })?;
    // The table is the same at one and at two threads.
    let seeds = op_seeds(seed, 0);
    let one = op(&exp, &comparator, seeds, Parallelism::serial());
    let two = op(&exp, &comparator, seeds, Parallelism::with_threads(2));
    if bits(&one.table) != bits(&two.table) || one.pick != two.pick {
        problems.push("score table differs between 1 and 2 threads".into());
    }
    Ok(Outcome {
        setup_s,
        untraced,
        traced,
        layers: Vec::new(),
        problems,
    })
}
