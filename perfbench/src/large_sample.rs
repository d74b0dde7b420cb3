//! `large_sample`: scoring at large n. Each op opens a fresh 4-algorithm
//! session and feeds it four waves of 5,000 measurements per algorithm,
//! scoring after every wave, up to n = 20,000 per algorithm.

use crate::common::{repeated_setup, timed_loop};
use crate::trace::{self, Layer};
use crate::{run_phases, Outcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relperf_core::{ClusterConfig, ClusterSession, PairSchedule, Parallelism, ScoreTable};
use relperf_measure::compare::BootstrapConfig;
use relperf_measure::{stream_seed, BootstrapComparator, ScratchThreeWayComparator};
use std::time::{Duration, Instant};

/// State builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

const ALGS: usize = 4;
const WAVES: usize = 4;
const WAVE_LEN: usize = 5_000;
/// Timer resolution the measurements are quantized to (1 µs, in ms).
const RESOLUTION: f64 = 1e-3;

/// One op's inputs: `waves[alg][wave]`.
type Inputs = Vec<Vec<Vec<f64>>>;

/// Algorithm 0 is planted fastest: uniform in [0.60, 0.90) ms. The other
/// three share one right-skewed distribution, 1 ms plus a lognormal tail.
/// All values are quantized to the timer resolution, so ties occur.
fn inputs(seed: u64, i: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, i));
    let quantize = |x: f64| (x / RESOLUTION).round() * RESOLUTION;
    (0..ALGS)
        .map(|alg| {
            (0..WAVES)
                .map(|_| {
                    (0..WAVE_LEN)
                        .map(|_| {
                            if alg == 0 {
                                quantize(rng.random_range(0.60..0.90))
                            } else {
                                // Box-Muller standard normal.
                                let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
                                let u2: f64 = rng.random_range(0.0..1.0);
                                let z =
                                    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                                quantize(1.0 + 0.3 * (0.6 * z).exp())
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

fn config() -> ClusterConfig {
    ClusterConfig {
        repetitions: 50,
        parallelism: Parallelism::serial(),
        schedule: PairSchedule::OnDemand,
    }
}

/// One op: a fresh session, four ingest-then-score waves. Returns the
/// session (for the checks) and the op's duration.
fn op<'a, C: ScratchThreeWayComparator + Sync>(
    comparator: &'a C,
    seed: u64,
    waves: &Inputs,
) -> Result<(ClusterSession<&'a C>, Duration), String> {
    let t = Instant::now();
    let mut session = ClusterSession::new(ALGS, comparator, config(), seed);
    for w in 0..WAVES {
        for (alg, alg_waves) in waves.iter().enumerate() {
            let values = &alg_waves[w];
            trace::span(Layer::Ingest, values.len() as u64, || {
                session.extend(alg, values)
            })
            .map_err(|e| format!("extend: {e:?}"))?;
        }
        trace::span(Layer::Score, 0, || {
            session.score();
        });
    }
    Ok((session, t.elapsed()))
}

fn check<C: ScratchThreeWayComparator + Sync>(
    session: &ClusterSession<&C>,
    waves: &Inputs,
    problems: &mut Vec<String>,
) {
    let table: &ScoreTable = match session.table() {
        Some(t) => t,
        None => {
            problems.push("session was never scored".into());
            return;
        }
    };
    // The planted fastest algorithm is alone in class 1, with certainty.
    let class1 = table.final_assignment().class(1);
    if class1.len() != 1 || class1[0].algorithm != 0 || class1[0].score != 1.0 {
        problems.push(format!(
            "class 1 is {class1:?}, not algorithm 0 alone with score 1.0"
        ));
    }
    // Each sample's median equals the median of a plain sorted copy.
    for (alg, alg_waves) in waves.iter().enumerate() {
        let mut all: Vec<f64> = alg_waves.concat();
        all.sort_by(f64::total_cmp);
        let n = all.len();
        let expect = if n % 2 == 1 {
            all[n / 2]
        } else {
            (all[n / 2 - 1] + all[n / 2]) / 2.0
        };
        let got = session.sample(alg).map(|s| s.median());
        if got != Some(expect) {
            problems.push(format!(
                "algorithm {alg}: median {got:?}, sorted copy says {expect}"
            ));
        }
    }
}

pub fn run(seed: u64, seconds: f64, trace_mode: bool) -> Result<Outcome, String> {
    let comparator = BootstrapComparator::with_config(
        seed,
        BootstrapConfig {
            reps: 30,
            ..Default::default()
        },
    );
    let session_seed = |i: u64| stream_seed(seed ^ 0x5e55_1011, i);
    let (_, setup_s) = repeated_setup(SETUP_REPS, || {
        // Inputs plus one untimed warm-up op.
        let waves = inputs(seed, u64::MAX / 2);
        op(&comparator, session_seed(u64::MAX / 2), &waves).map(|_| ())
    })?;
    let traced_cmp = trace::Traced(&comparator, Layer::Compare);
    let mut problems = Vec::new();
    let (untraced, traced) = run_phases(seconds, trace_mode, |secs, traced| {
        timed_loop(secs, |i| {
            let waves = inputs(seed, i);
            let d = if traced {
                let (session, d) = op(&traced_cmp, session_seed(i), &waves)?;
                check(&session, &waves, &mut problems);
                d
            } else {
                let (session, d) = op(&comparator, session_seed(i), &waves)?;
                check(&session, &waves, &mut problems);
                d
            };
            Ok(d)
        })
    })?;
    Ok(Outcome {
        setup_s,
        untraced,
        traced,
        layers: Vec::new(),
        problems,
    })
}
