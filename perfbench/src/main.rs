//! The relative-performance pipeline's benchmark: four workloads, each run
//! in its own process, timed single-threaded and checked against
//! computations made apart from the program.
//!
//! ```text
//! perfbench --workload <paper_table1|large_sample|service_mixed|real_kernels>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` the run measures an untraced half and a traced half
//! and the last line carries the per-layer metrics. See `README.md`.

mod common;
mod large_sample;
mod paper_table1;
mod real_kernels;
mod service_mixed;
mod trace;

use common::{median, peak_rss_mib, HostNoise, Metric, Phase};
use std::process::ExitCode;
use trace::{Layer, Snapshot};

/// What one workload run produced.
pub struct Outcome {
    /// Duration of every state build, in seconds.
    pub setup_s: Vec<f64>,
    /// The untraced timed phase.
    pub untraced: Phase,
    /// The traced timed phase and its span totals (trace mode only).
    pub traced: Option<(Phase, Snapshot)>,
    /// Per-layer values no span yields (service counters, FLOP counts);
    /// their names are disjoint from the span-derived ones.
    pub layers: Vec<(&'static str, f64)>,
    /// Output checks that failed; empty means correct.
    pub problems: Vec<String>,
}

/// The per-layer metrics every traced run prints, with their units. A
/// layer a workload does not exercise reads 0.
const LAYERS: [(&str, &str); 35] = [
    ("sim.measure_ms", "ms"),
    ("core.score_ms", "ms"),
    ("core.self_ms", "ms"),
    ("measure.compare_calls", "count"),
    ("measure.compare_ms", "ms"),
    ("measure.compare_us_per_call", "us"),
    ("measure.ingest_ms", "ms"),
    ("measure.ingest_mvals_per_s", "1e6/s"),
    ("workloads.draw_wave_ms", "ms"),
    ("service.submit_ms", "ms"),
    ("service.await_ms", "ms"),
    ("service.retries", "count"),
    ("service.journal_append_ms", "ms"),
    ("service.journal_bytes", "bytes"),
    ("service.spills", "count"),
    ("service.rehydrations", "count"),
    ("service.hard_evictions", "count"),
    ("service.compactions", "count"),
    ("service.replayed_ops", "count"),
    ("service.replay_compare_ms", "ms"),
    ("wire.frames", "count"),
    ("wire.bytes", "bytes"),
    ("linalg.rls128_ms", "ms"),
    ("linalg.rls256_ms", "ms"),
    ("linalg.rls512_ms", "ms"),
    ("linalg.gemm128_gflops", "GFLOP/s"),
    ("linalg.gemm256_gflops", "GFLOP/s"),
    ("linalg.gemm512_gflops", "GFLOP/s"),
    ("linalg.fem_assembly_ms", "ms"),
    ("linalg.cg_ms", "ms"),
    ("linalg.spmv_gbs_computed", "GB/s"),
    ("linalg.flops_per_op", "count"),
    ("e2e.op_tail_ms", "ms"),
    ("e2e.recover_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// Runs `phase(seconds, traced)` untraced — and, in trace mode, a second
/// time traced — splitting `seconds` between the two in trace mode.
pub fn run_phases(
    seconds: f64,
    trace_mode: bool,
    mut phase: impl FnMut(f64, bool) -> Result<Phase, String>,
) -> Result<(Phase, Option<(Phase, Snapshot)>), String> {
    if !trace_mode {
        return Ok((phase(seconds, false)?, None));
    }
    let untraced = phase(seconds / 2.0, false)?;
    let start = Snapshot::take();
    trace::enable(true);
    let traced = phase(seconds / 2.0, true);
    trace::enable(false);
    let spans = Snapshot::take().since(&start);
    Ok((untraced, Some((traced?, spans))))
}

fn per(x: f64, n: f64) -> f64 {
    if n > 0.0 {
        x / n
    } else {
        0.0
    }
}

fn layer_metrics(out: &Outcome, traced: &Phase, s: &Snapshot) -> Vec<Metric> {
    let ops = traced.op_ms.len() as f64;
    let compare = s[Layer::Compare];
    let mut v: Vec<(&'static str, f64)> = vec![
        ("sim.measure_ms", per(s[Layer::Measure].ms(), ops)),
        ("core.score_ms", per(s[Layer::Score].ms(), ops)),
        // Comparator time inside the score spans is the only child span.
        (
            "core.self_ms",
            per(s[Layer::Score].ms() - compare.ms(), ops).max(0.0),
        ),
        ("measure.compare_calls", per(compare.calls as f64, ops)),
        ("measure.compare_ms", per(compare.ms(), ops)),
        (
            "measure.compare_us_per_call",
            per(compare.ms() * 1e3, compare.calls as f64),
        ),
        ("measure.ingest_ms", per(s[Layer::Ingest].ms(), ops)),
        (
            "measure.ingest_mvals_per_s",
            per(
                s[Layer::Ingest].units as f64 / 1e6,
                s[Layer::Ingest].ms() / 1e3,
            ),
        ),
        (
            "workloads.draw_wave_ms",
            per(s[Layer::DrawWave].ms(), s[Layer::DrawWave].calls as f64),
        ),
        ("service.submit_ms", per(s[Layer::Submit].ms(), ops)),
        ("service.await_ms", per(s[Layer::Await].ms(), ops)),
        ("service.journal_append_ms", s[Layer::Journal].ms()),
        (
            "service.journal_bytes",
            per(s[Layer::Journal].units as f64, ops),
        ),
        ("wire.frames", per(s[Layer::Wire].calls as f64, ops)),
        ("wire.bytes", per(s[Layer::Wire].units as f64, ops)),
        ("linalg.fem_assembly_ms", per(s[Layer::Assembly].ms(), ops)),
        ("linalg.cg_ms", per(s[Layer::Cg].ms(), ops)),
        (
            "linalg.spmv_gbs_computed",
            per(
                s[Layer::Spmv].units as f64 / 1e9,
                s[Layer::Spmv].nanos as f64 / 1e9,
            ),
        ),
        (
            "e2e.op_tail_ms",
            out.untraced.tail_ms().map_or(0.0, |t| t.1),
        ),
        ("e2e.recover_s", median(&out.untraced.recover_s)),
        (
            "trace.overhead_pct",
            (per(out.untraced.ops_per_s(), traced.ops_per_s()) - 1.0) * 100.0,
        ),
    ];
    let rls = ["linalg.rls128_ms", "linalg.rls256_ms", "linalg.rls512_ms"];
    let gemm = [
        "linalg.gemm128_gflops",
        "linalg.gemm256_gflops",
        "linalg.gemm512_gflops",
    ];
    for (k, &n) in real_kernels::SIZES.iter().enumerate() {
        let g = s[Layer::GEMM[k]];
        let flops = relperf_linalg::flops::gemm(n, n, n) as f64 * g.calls as f64;
        v.push((rls[k], per(s[Layer::RLS[k]].ms(), ops)));
        v.push((gemm[k], per(flops / 1e9, g.nanos as f64 / 1e9)));
    }
    v.extend(out.layers.iter().copied());
    LAYERS
        .iter()
        .map(|&(name, unit)| {
            let value = v.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, x)| x);
            Metric::new(name, value, unit)
        })
        .collect()
}

fn e2e_metrics(out: &Outcome, phase: &Phase) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", median(&out.setup_s), "s"),
        Metric::new("ops_per_s", phase.ops_per_s(), "1/s"),
        Metric::new("op_p50_ms", phase.p50_ms(), "ms"),
        Metric::new("peak_rss_mib", peak_rss_mib(), "MiB"),
    ]
}

fn describe(label: &str, out: &Outcome, phase: &Phase) -> String {
    let tail = match phase.tail_ms() {
        Some((p, v)) => format!("p{p}={v:.3}ms"),
        None => "none (fewer than 40 ops)".to_string(),
    };
    let recover = if phase.recover_s.is_empty() {
        String::new()
    } else {
        format!(
            " recover_s={:.4} (median of {})",
            median(&phase.recover_s),
            phase.recover_s.len()
        )
    };
    format!(
        "{label}: ops={} ops_per_s={:.4} op_p50_ms={:.4} tail={tail}{recover} setup_s={:.4}",
        phase.op_ms.len(),
        phase.ops_per_s(),
        phase.p50_ms(),
        median(&out.setup_s),
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(15.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let noise = HostNoise::start();
    let run = match args.workload.as_str() {
        "paper_table1" => paper_table1::run(args.seed, args.seconds, args.trace),
        "large_sample" => large_sample::run(args.seed, args.seconds, args.trace),
        "service_mixed" => service_mixed::run(args.seed, args.seconds, args.trace),
        "real_kernels" => real_kernels::run(args.seed, args.seconds, args.trace),
        other => Err(format!("unknown workload {other}")),
    };
    let out = match run {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for p in &out.problems {
        println!("check failed: {p}");
    }
    println!("{}", describe("untraced", &out, &out.untraced));
    let (attempted, failed, metrics) = match &out.traced {
        None => (
            out.untraced.attempted,
            out.untraced.failed,
            e2e_metrics(&out, &out.untraced),
        ),
        Some((traced, spans)) => {
            println!("{}", describe("traced", &out, traced));
            (
                out.untraced.attempted + traced.attempted,
                out.untraced.failed + traced.failed,
                layer_metrics(&out, traced, spans),
            )
        }
    };
    println!("noise {}", noise.finish());
    println!(
        "{}",
        common::result_line(out.problems.is_empty(), attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}
