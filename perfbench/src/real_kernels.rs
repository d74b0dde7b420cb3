//! `real_kernels`: the real linear-algebra workloads on this machine — one
//! Procedure-5 run (three chained `MathTask`s at 128/256/512, one
//! iteration each) followed by a real FEM Poisson solve.

use crate::common::{repeated_setup, stopwatch, timed_loop};
use crate::trace::{self, Layer};
use crate::{run_phases, Outcome};
use rand::rngs::StdRng;
use rand::SeedableRng;
use relperf_linalg::random::random_matrix;
use relperf_linalg::rls::{rls_penalty_with, solve_rls_with, RlsMethod};
use relperf_linalg::{flops, CsrMatrix, KernelEngine, Matrix};
use relperf_measure::stream_seed;
use relperf_workloads::fem::assembly_flops;
use relperf_workloads::scientific_code::run_real_custom_with;
use relperf_workloads::FemScenario;

/// State builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// The Procedure-5 task sizes.
pub const SIZES: [usize; 3] = [128, 256, 512];
const ENGINE: KernelEngine = KernelEngine::Blocked;
const FEM: FemScenario = FemScenario {
    nx: 64,
    ny: 64,
    cg_iters: 300,
};
/// Relative normwise residual an RLS solve must reach on its normal
/// equations: a backward-stable Cholesky solve lands near n·ε ≈ 1e-13.
const RLS_RESIDUAL: f64 = 1e-10;
/// ∫u for −Δu = 1 on the unit square with u = 0 on the boundary, to the
/// series' last printed digit; the check recomputes it from the series.
const INTEGRAL_U: f64 = 0.035144;
/// O(h²) bound on the FEM integral's relative error: C·h² with C = 4.
const FEM_ERR_C: f64 = 4.0;

fn rng_for(seed: u64, i: u64) -> StdRng {
    StdRng::seed_from_u64(stream_seed(seed, i))
}

/// The untraced op: the program's own Procedure-5 and FEM entry points.
fn op(seed: u64, i: u64) -> Result<(f64, f64), String> {
    let mut rng = rng_for(seed, i);
    let penalty = run_real_custom_with(&mut rng, &SIZES, 1, ENGINE).map_err(|e| format!("{e}"))?;
    let fem = FEM.run_real_with(ENGINE).map_err(|e| format!("{e}"))?;
    Ok((penalty, fem.integral_u))
}

/// The traced op: the same calls, made one layer down so each can carry
/// a span. Produces the same numbers as [`op`] (checked on op 0), and
/// hands back the assembled operator and the solution for the SpMV probe
/// the caller times outside the op.
fn op_traced(seed: u64, i: u64) -> Result<(f64, f64, CsrMatrix, Vec<f64>), String> {
    let mut rng = rng_for(seed, i);
    let mut penalty = 0.0f64;
    for (k, &n) in SIZES.iter().enumerate() {
        let a = random_matrix(&mut rng, n, n);
        let b = random_matrix(&mut rng, n, n);
        let lambda = penalty.max(1e-6);
        penalty = trace::span(Layer::RLS[k], 0, || -> Result<f64, String> {
            let z = solve_rls_with(&a, &b, lambda, RlsMethod::NormalCholesky, ENGINE)
                .map_err(|e| format!("{e}"))?;
            let az = trace::span(Layer::GEMM[k], 0, || ENGINE.gemm(&a, &z))
                .map_err(|e| format!("{e}"))?;
            let norm = az.try_sub(&b).map_err(|e| format!("{e}"))?.frobenius_norm();
            Ok(norm * norm)
        })?;
    }
    let (mat, load) = trace::span(Layer::Assembly, 0, || FEM.assemble_with(ENGINE))
        .map_err(|e| format!("{e}"))?;
    let solve = trace::span(Layer::Cg, 0, || mat.cg_fixed(&load, FEM.cg_iters))
        .map_err(|e| format!("{e}"))?;
    let (hx, hy) = (1.0 / FEM.nx as f64, 1.0 / FEM.ny as f64);
    let integral_u: f64 = solve.x.iter().map(|&u| u * hx * hy).sum();
    Ok((penalty, integral_u, mat, solve.x))
}

/// One SpMV on the assembled operator, spanned with its computed bytes.
fn spmv_probe(mat: &CsrMatrix, x: &[f64]) -> Result<(), String> {
    let bytes = flops::spmv_bytes(mat.rows(), mat.cols(), mat.nnz());
    trace::span(Layer::Spmv, bytes, || mat.spmv(x)).map_err(|e| format!("{e}"))?;
    Ok(())
}

/// FLOPs of one op, from the shared formulas.
pub fn flops_per_op() -> f64 {
    let rls: u64 = SIZES.iter().map(|&n| flops::rls_task(n, 1)).sum();
    let cg = FEM.cg_iters as u64 * flops::cg_iter(FEM.unknowns(), FEM.nnz());
    (rls + assembly_flops(FEM.nx, FEM.ny) + cg) as f64
}

/// `(AᵀA + λI)z − Aᵀb`, normwise and relative, computed with plain loops.
fn normal_equations_residual(a: &Matrix, b: &Matrix, z: &Matrix, lambda: f64) -> f64 {
    let (m, n, k) = (a.rows(), a.cols(), b.cols());
    let at = |i: usize, j: usize| a.row(i)[j];
    let mut gram = vec![0.0; n * n];
    for r in 0..m {
        let row = a.row(r);
        for i in 0..n {
            for j in 0..n {
                gram[i * n + j] += row[i] * row[j];
            }
        }
    }
    for i in 0..n {
        gram[i * n + i] += lambda;
    }
    let (mut r2, mut g2, mut z2, mut c2) = (0.0, 0.0, 0.0, 0.0);
    for v in &gram {
        g2 += v * v;
    }
    for v in z.as_slice() {
        z2 += v * v;
    }
    for i in 0..n {
        for c in 0..k {
            let lhs: f64 = (0..n).map(|j| gram[i * n + j] * z.row(j)[c]).sum();
            let rhs: f64 = (0..m).map(|r| at(r, i) * b.row(r)[c]).sum();
            r2 += (lhs - rhs) * (lhs - rhs);
            c2 += rhs * rhs;
        }
    }
    r2.sqrt() / (g2.sqrt() * z2.sqrt() + c2.sqrt())
}

/// ∫u for −Δu = 1 on the unit square from its Fourier series,
/// (64/π⁶) Σ_{m,n odd} 1 / (m² n² (m² + n²)).
fn integral_u_series() -> f64 {
    let mut sum = 0.0;
    for m in (1..2000).step_by(2) {
        for n in (1..2000).step_by(2) {
            let (m2, n2) = ((m * m) as f64, (n * n) as f64);
            sum += 1.0 / (m2 * n2 * (m2 + n2));
        }
    }
    64.0 / std::f64::consts::PI.powi(6) * sum
}

fn checks(seed: u64, problems: &mut Vec<String>) -> Result<(), String> {
    // Op 0's RLS solves, each checked on its normal equations.
    let mut rng = rng_for(seed, 0);
    let mut penalty = 0.0f64;
    for &n in &SIZES {
        let a = random_matrix(&mut rng, n, n);
        let b = random_matrix(&mut rng, n, n);
        let lambda = penalty.max(1e-6);
        let z = solve_rls_with(&a, &b, lambda, RlsMethod::NormalCholesky, ENGINE)
            .map_err(|e| format!("{e}"))?;
        let res = normal_equations_residual(&a, &b, &z, lambda);
        if res.is_nan() || res > RLS_RESIDUAL {
            problems.push(format!(
                "RLS n={n}: normal-equation residual {res:e} > {RLS_RESIDUAL:e}"
            ));
        }
        penalty = rls_penalty_with(&a, &z, &b, ENGINE).map_err(|e| format!("{e}"))?;
    }
    if !(penalty.is_finite() && penalty > 0.0) {
        problems.push(format!(
            "chained penalty {penalty} is not finite and positive"
        ));
    }
    // The traced decomposition computes what the program's entry points do.
    let (penalty, integral) = op(seed, 0)?;
    let (traced_penalty, traced_integral, _, _) = op_traced(seed, 0)?;
    if penalty.to_bits() != traced_penalty.to_bits() {
        problems
            .push("traced Procedure-5 decomposition disagrees with run_real_custom_with".into());
    }
    if integral.to_bits() != traced_integral.to_bits() {
        problems.push("traced FEM decomposition disagrees with FemScenario::run_real_with".into());
    }
    let series = integral_u_series();
    if (series - INTEGRAL_U).abs() > 5e-7 {
        problems.push(format!("series ∫u = {series}, expected {INTEGRAL_U}"));
    }
    let h = 1.0 / FEM.nx as f64;
    let rel = (integral - series).abs() / series;
    if rel > FEM_ERR_C * h * h {
        problems.push(format!(
            "FEM ∫u = {integral}: relative error {rel:e} > {:e}",
            FEM_ERR_C * h * h
        ));
    }
    Ok(())
}

pub fn run(seed: u64, seconds: f64, trace_mode: bool) -> Result<Outcome, String> {
    let (_, setup_s) = repeated_setup(SETUP_REPS, || op(seed, u64::MAX / 2).map(|_| ()))?;
    let mut problems = Vec::new();
    let (untraced, traced) = run_phases(seconds, trace_mode, |secs, traced| {
        timed_loop(secs, |i| {
            let ((penalty, integral), d) = if traced {
                let (r, d) = stopwatch(|| op_traced(seed, i));
                let (penalty, integral, mat, x) = r?;
                spmv_probe(&mat, &x)?;
                ((penalty, integral), d)
            } else {
                let (r, d) = stopwatch(|| op(seed, i));
                (r?, d)
            };
            if !(penalty.is_finite() && penalty > 0.0 && integral.is_finite()) {
                problems.push(format!("op {i}: penalty {penalty}, ∫u {integral}"));
            }
            Ok(d)
        })
    })?;
    checks(seed, &mut problems)?;
    Ok(Outcome {
        setup_s,
        untraced,
        traced,
        layers: vec![("linalg.flops_per_op", flops_per_op())],
        problems,
    })
}
