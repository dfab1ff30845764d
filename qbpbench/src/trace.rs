//! The traced run's per-layer numbers. The workload's own rounds feed
//! [`Layers`] through the program's `CountersObserver`s and the
//! benchmark's clock around each call; [`probe`] then times standalone
//! calls into each layer's public functions on the workload's instances,
//! and stands in for any solver layer the workload's rounds do not reach
//! with a short solve on ckta, so every traced run reports every layer.

use crate::check::check;
use crate::workloads::{
    eco_config, edit_stream, probe_instance, replay, Instance, RoundLog, Workload,
};
use qbp_core::{PartitionProfile, QMatrix};
use qbp_eco::{ApplyReport, EcoSession};
use qbp_multilevel::{build_solver, coarsen, CoarsenOptions, MlqbpConfig};
use qbp_observe::{CountersObserver, SolveObserver};
use qbp_solver::{greedy_first_fit, CommonOpts, QbpConfig, QbpSolver};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Iteration budget (Burkard iterations, FM passes, KL loops) of a probe
/// solve that stands in for a method the workload does not run.
const PROBE_ITERATIONS: usize = 4;
/// Edits of the ECO probe: one quality refresh included.
const PROBE_EDITS: usize = 32;
/// Iteration budget of the standalone `find_feasible` call, as `qbp solve`
/// uses when it derives a start for the interchange baselines.
const FIND_FEASIBLE_ITERATIONS: usize = 60;
/// Attempts of the standalone `greedy_first_fit` call, as `qbp solve` uses.
const GREEDY_ATTEMPTS: usize = 200;

/// Per-layer accumulators of the traced run.
#[derive(Default)]
pub struct Layers {
    solver: CountersObserver,
    baselines: CountersObserver,
    multilevel: CountersObserver,
    pub eco: CountersObserver,
    /// Attached to `anneal`, which no per-layer metric covers.
    other: CountersObserver,
    qbp: Duration,
    qbp_solves: usize,
    qbp_iterations: usize,
    gfm: Duration,
    gfm_solves: usize,
    gkl: Duration,
    gkl_solves: usize,
    mlqbp: Duration,
    mlqbp_solves: usize,
    apply: Duration,
    resolve_local: Duration,
    resolve_refresh: Duration,
    edits: usize,
    patched_rows: usize,
    rebuilds: usize,
}

impl Layers {
    /// The counters a solve of `method` reports to.
    pub fn observer(&mut self, method: &str) -> &mut dyn SolveObserver {
        match method {
            "qbp" => &mut self.solver,
            "gfm" | "gkl" => &mut self.baselines,
            "mlqbp" => &mut self.multilevel,
            _ => &mut self.other,
        }
    }

    pub fn solved(&mut self, method: &str, wall: Duration, iterations: usize) {
        match method {
            "qbp" => {
                self.qbp += wall;
                self.qbp_solves += 1;
                self.qbp_iterations += iterations;
            }
            "gfm" => (self.gfm, self.gfm_solves) = (self.gfm + wall, self.gfm_solves + 1),
            "gkl" => (self.gkl, self.gkl_solves) = (self.gkl + wall, self.gkl_solves + 1),
            "mlqbp" => (self.mlqbp, self.mlqbp_solves) = (self.mlqbp + wall, self.mlqbp_solves + 1),
            _ => {}
        }
    }

    pub fn edited(
        &mut self,
        report: &ApplyReport,
        apply: Duration,
        resolve: Duration,
        refresh: bool,
    ) {
        self.apply += apply;
        if refresh {
            self.resolve_refresh += resolve;
        } else {
            self.resolve_local += resolve;
        }
        self.edits += 1;
        self.patched_rows += report.patched_rows;
        self.rebuilds += usize::from(report.rebuilt);
    }
}

/// One per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn time<T>(total: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = black_box(f());
    *total += t0.elapsed();
    out
}

/// Runs a probe solve of `method` from the witness of `inst` into `layers`.
fn probe_solve(
    method: &str,
    inst: &Instance,
    opts: &CommonOpts,
    layers: &mut Layers,
) -> Result<(), String> {
    let opts = CommonOpts {
        iterations: Some(PROBE_ITERATIONS),
        ..*opts
    };
    let solver = build_solver(method, &opts).expect("registered method");
    let t0 = Instant::now();
    let report = solver
        .solve(&inst.problem, Some(&inst.witness), layers.observer(method))
        .map_err(|e| format!("{method} probe on {}: {e}", inst.name))?;
    layers.solved(method, t0.elapsed(), report.iterations);
    Ok(())
}

/// Completes the traced run: divides what `rounds` rounds accumulated in
/// `layers` down to one round, probes every layer standalone on the
/// workload's instances, and returns every per-layer metric. `read` is the
/// `read_problem` time of one set-up.
pub fn probe(
    workload: &dyn Workload,
    mut layers: Layers,
    rounds: usize,
    read: Duration,
    log: &mut RoundLog,
) -> Result<Vec<Metric>, String> {
    let instances = workload.instances();
    let opts = workload.opts();
    let first = probe_instance(opts.seed)?;

    // Solver layers the rounds did not reach run once, as probes on
    // ckta; the per-round division below leaves them as measured.
    let r = rounds.max(1) as f64;
    let solver_per = if layers.qbp_solves == 0 { 1.0 } else { r };
    let gfm_per = if layers.gfm_solves == 0 { 1.0 } else { r };
    let gkl_per = if layers.gkl_solves == 0 { 1.0 } else { r };
    let ml_per = if layers.mlqbp_solves == 0 { 1.0 } else { r };
    let eco_per = if layers.edits == 0 { 1.0 } else { r };
    for (method, solves) in [
        ("qbp", layers.qbp_solves),
        ("gfm", layers.gfm_solves),
        ("gkl", layers.gkl_solves),
        ("mlqbp", layers.mlqbp_solves),
    ] {
        if solves == 0 {
            probe_solve(method, &first, &opts, &mut layers)?;
        }
    }
    if layers.edits == 0 {
        let mut session = EcoSession::with_assignment(
            first.problem.clone(),
            first.witness.clone(),
            eco_config(opts.seed),
        )
        .map_err(|e| format!("ECO probe on {}: {e}", first.name))?;
        let edits = edit_stream(&first.problem, PROBE_EDITS, opts.seed);
        let mut probe_log = RoundLog::default();
        replay(
            &mut session,
            &first,
            &edits,
            Some(&mut layers),
            &mut probe_log,
        );
        log.errors.append(&mut probe_log.errors);
        if let Some(op) = probe_log.ops.iter().find(|op| op.result.is_err()) {
            return Err(format!("ECO probe on {}: {} failed", first.name, op.label));
        }
    }

    let ml = MlqbpConfig::default();
    let coarsen_options = CoarsenOptions {
        max_levels: ml.max_levels,
        min_size: ml.min_size,
        threads: opts.threads,
    };
    let feasible_config = QbpConfig {
        iterations: FIND_FEASIBLE_ITERATIONS,
        seed: opts.seed,
        threads: opts.threads,
        ..QbpConfig::default()
    };
    let (mut qmatrix, mut profile, mut feasible, mut coarsening, mut open) = Default::default();
    let (mut feasible_found, mut greedy_found) = (0usize, 0usize);
    for inst in &instances {
        let q = time(&mut qmatrix, || QMatrix::with_auto_penalty(&inst.problem))
            .map_err(|e| format!("{}: {e}", inst.name))?;
        time(&mut profile, || {
            PartitionProfile::embedded(&q, &inst.witness)
        });
        let found = time(&mut feasible, || {
            QbpSolver::new(feasible_config).find_feasible(&inst.problem)
        })
        .map_err(|e| format!("{}: {e}", inst.name))?;
        feasible_found +=
            usize::from(found.is_some_and(|a| check(&inst.problem, a.as_slice()).feasible()));
        let greedy = greedy_first_fit(&inst.problem, opts.seed, GREEDY_ATTEMPTS);
        greedy_found +=
            usize::from(greedy.is_some_and(|a| check(&inst.problem, a.as_slice()).feasible()));
        time(&mut coarsening, || coarsen(&inst.problem, &coarsen_options));
        let (problem, witness) = (inst.problem.clone(), inst.witness.clone());
        time(&mut open, || {
            EcoSession::with_assignment(problem, witness, eco_config(opts.seed))
        })
        .map_err(|e| format!("{}: {e}", inst.name))?;
    }

    let solver = layers.solver.snapshot();
    let baselines = layers.baselines.snapshot();
    let multilevel = layers.multilevel.snapshot();
    let eco = layers.eco.snapshot();
    if eco.eco_patched_rows != layers.patched_rows as u64
        || eco.eco_rebuilds != layers.rebuilds as u64
    {
        log.errors.push(format!(
            "ECO counters ({} patched rows, {} rebuilds) disagree with the apply reports ({}, {})",
            eco.eco_patched_rows, eco.eco_rebuilds, layers.patched_rows, layers.rebuilds
        ));
    }
    let moves = (baselines.moves_accepted + baselines.moves_rejected).max(1);
    let qbp_s = layers.qbp.as_secs_f64();
    Ok(vec![
        ("core.read_problem_s", read.as_secs_f64(), "s"),
        ("core.qmatrix_build_s", qmatrix.as_secs_f64(), "s"),
        ("core.profile_build_s", profile.as_secs_f64(), "s"),
        ("solver.find_feasible_s", feasible.as_secs_f64(), "s"),
        ("solver.find_feasible_found", feasible_found as f64, "count"),
        (
            "solver.greedy_first_fit_found",
            greedy_found as f64,
            "count",
        ),
        ("solver.qbp_solve_s", qbp_s / solver_per, "s"),
        (
            "solver.ms_per_iteration",
            1e3 * qbp_s / layers.qbp_iterations.max(1) as f64,
            "ms",
        ),
        (
            "solver.iterations",
            solver.iterations as f64 / solver_per,
            "count",
        ),
        (
            "solver.eta_full",
            solver.eta_full as f64 / solver_per,
            "count",
        ),
        (
            "solver.profile_rebuilds",
            solver.profile_rebuilds as f64 / solver_per,
            "count",
        ),
        (
            "solver.repairs",
            solver.repairs as f64 / solver_per,
            "count",
        ),
        (
            "baselines.gfm_solve_s",
            layers.gfm.as_secs_f64() / gfm_per,
            "s",
        ),
        (
            "baselines.gkl_solve_s",
            layers.gkl.as_secs_f64() / gkl_per,
            "s",
        ),
        (
            "baselines.move_accept_ratio",
            baselines.moves_accepted as f64 / moves as f64,
            "ratio",
        ),
        ("multilevel.coarsen_s", coarsening.as_secs_f64(), "s"),
        (
            "multilevel.solve_s",
            layers.mlqbp.as_secs_f64() / ml_per,
            "s",
        ),
        (
            "multilevel.parallel_tasks",
            multilevel.parallel_tasks as f64 / ml_per,
            "count",
        ),
        ("eco.session_open_s", open.as_secs_f64(), "s"),
        ("eco.apply_s", layers.apply.as_secs_f64() / eco_per, "s"),
        (
            "eco.resolve_local_s",
            layers.resolve_local.as_secs_f64() / eco_per,
            "s",
        ),
        (
            "eco.resolve_refresh_s",
            layers.resolve_refresh.as_secs_f64() / eco_per,
            "s",
        ),
        (
            "eco.patched_rows",
            layers.patched_rows as f64 / eco_per,
            "count",
        ),
        ("eco.rebuilds", layers.rebuilds as f64 / eco_per, "count"),
    ])
}
