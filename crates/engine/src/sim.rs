//! The backend contract: how a prepared scenario turns trial blocks
//! into statistics.
//!
//! The sweep runner is backend-generic. Everything scheduling-related —
//! the fixed block partition, counter-based per-trial seeds, in-order
//! merging — lives in [`crate::run`]; everything simulation-related
//! lives behind [`Simulator`]. A backend receives the trial range and
//! the scenario's content-hash ID, derives each trial's RNG stream with
//! [`crate::seed::trial_seed`], and folds results into a
//! [`PipelineBlockStats`]. Because seeds are a pure function of
//! `(scenario_id, trial_index)`, any backend inherits the engine's
//! worker-count-independence for free.
//!
//! Two simulators ship:
//!
//! * [`MvnSim`] — joint-Gaussian stage-delay sampling for moment-form
//!   scenarios (the `pipeline` backend on a moments pipeline).
//! * [`GateLevelSim`] — gate-level trials on the allocation-free
//!   prepared path ([`vardelay_mc::PreparedPipelineMc`]): per-worker
//!   [`TrialWorkspace`] scratch buffers, loads and nominal delays
//!   precomputed at prepare time, **zero heap allocation per trial**.
//!   Both the `pipeline` and the `netlist` backend run netlist-form
//!   scenarios through it.
//!
//! The closed-form `analytic` backend needs no simulator at all — it
//! contributes no trial blocks.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vardelay_circuit::StagedPipeline;
use vardelay_mc::{
    PipelineBlockStats, PipelineMc, PlanSampler, PreparedPipelineMc, TrialKernel, TrialPlan,
    TrialWorkspace,
};
use vardelay_stats::MultivariateNormal;

use crate::seed::trial_seed;
use crate::spec::BackendSpec;

/// Builds the gate-level simulator a scenario's `backend` keyword
/// selects for `staged` — the one place the spec-level backend choice
/// is mapped onto an executable [`Simulator`]. Both sampling backends
/// run gate-level trials on the one prepared runner.
///
/// # Panics
///
/// Panics on [`BackendSpec::Analytic`]: the closed-form backend runs no
/// trials, so scenario preparation must never ask for a simulator for
/// it (it rejects `trials > 0` first).
pub(crate) fn gate_level_backend(
    backend: BackendSpec,
    mc: PipelineMc,
    staged: StagedPipeline,
    plan: TrialPlan,
) -> Box<dyn Simulator> {
    match backend {
        BackendSpec::Pipeline | BackendSpec::Netlist => {
            Box::new(GateLevelSim::new(&mc, &staged).with_plan(plan))
        }
        BackendSpec::Analytic => unreachable!("the analytic backend rejects trials"),
    }
}

/// A scenario's simulation backend, prepared and ready to run trial
/// blocks.
///
/// Implementations must be deterministic functions of
/// `(scenario_id, trial range)`: the same arguments must fold the same
/// numbers into `stats` regardless of which worker calls, in what
/// order, or what the workspace previously held. In particular, a
/// backend that uses the workspace must size it itself (grow-only) —
/// the runner hands every block an arbitrary previously-used `ws`.
pub trait Simulator: Send + Sync {
    /// Runs trials `trials.start..trials.end`, each seeded
    /// `trial_seed(scenario_id, t)`, folding every trial into `stats`.
    fn run_block(
        &self,
        ws: &mut TrialWorkspace,
        scenario_id: u64,
        trials: Range<u64>,
        stats: &mut PipelineBlockStats,
    );
}

/// Joint-Gaussian stage-delay trials for moment-form scenarios.
pub struct MvnSim {
    mvn: MultivariateNormal,
    kernel: TrialKernel,
    plan: TrialPlan,
}

impl MvnSim {
    /// Wraps a stage-delay joint distribution (v1 trial kernel, plain
    /// trial plan).
    pub fn new(mvn: MultivariateNormal) -> Self {
        MvnSim {
            mvn,
            kernel: TrialKernel::default(),
            plan: TrialPlan::plain(),
        }
    }

    /// Selects the trial-kernel contract. `v2`/`v3` draw their iid
    /// normals through batch fills and fold statistics through the
    /// kernel's lanes ([`TrialKernel::fold_trials`]) — same seeds,
    /// different (frozen) bytes.
    pub fn with_kernel(mut self, kernel: TrialKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Selects the trial-plan contract shaping the draws: each plan
    /// shapes the leading stage dimensions per its own frozen contract,
    /// and the plain plan is the identity overlay (its bytes are the
    /// historical plain bytes).
    pub fn with_plan(mut self, plan: TrialPlan) -> Self {
        self.plan = plan;
        self
    }
}

impl Simulator for MvnSim {
    fn run_block(
        &self,
        _ws: &mut TrialWorkspace,
        scenario_id: u64,
        trials: Range<u64>,
        stats: &mut PipelineBlockStats,
    ) {
        let mut ps = PlanSampler::new(self.plan, self.mvn.dim(), trial_seed(scenario_id, 0));
        let weighted = self.plan.is_weighted();
        let kernel = self.kernel;
        let mut z = Vec::new();
        let mut x = Vec::new();
        kernel.fold_trials(stats, trials, |t, acc| {
            let (seed_index, sign) = ps.prepare_trial(t);
            let mut rng = StdRng::seed_from_u64(trial_seed(scenario_id, seed_index));
            let (lead, shift) = (ps.lead(), ps.shift());
            // v2 draws through the batch pair-producing Box–Muller fill,
            // v3 through the batch inverse-CDF fill (the wide kernel's
            // normal source).
            let w = match kernel {
                TrialKernel::V1 => self
                    .mvn
                    .sample_into_plan(&mut rng, sign, lead, shift, &mut z, &mut x),
                TrialKernel::V2 => self
                    .mvn
                    .sample_into_v2_plan(&mut rng, sign, lead, shift, &mut z, &mut x),
                TrialKernel::V3 => self
                    .mvn
                    .sample_into_v3_plan(&mut rng, sign, lead, shift, &mut z, &mut x),
            };
            let maxd = x.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            if weighted {
                acc.record_weighted(&x, maxd, w);
            } else {
                acc.record(&x, maxd);
            }
        });
    }
}

/// Gate-level trials on the allocation-free prepared path.
pub struct GateLevelSim {
    prepared: PreparedPipelineMc,
    plan: TrialPlan,
}

impl GateLevelSim {
    /// Compiles `staged` for workspace-reusing trials (plain plan).
    pub fn new(mc: &PipelineMc, staged: &StagedPipeline) -> Self {
        GateLevelSim {
            prepared: PreparedPipelineMc::new(mc, staged),
            plan: TrialPlan::plain(),
        }
    }

    /// Selects the trial-plan contract (the plain plan is the identity
    /// overlay on the one prepared runner).
    pub fn with_plan(mut self, plan: TrialPlan) -> Self {
        self.plan = plan;
        self
    }
}

impl Simulator for GateLevelSim {
    // PreparedPipelineMc::run_block sizes the workspace itself
    // (grow-only), so any previously-used `ws` is acceptable here.
    fn run_block(
        &self,
        ws: &mut TrialWorkspace,
        scenario_id: u64,
        trials: Range<u64>,
        stats: &mut PipelineBlockStats,
    ) {
        self.prepared
            .run_block_plan(ws, trials, |t| trial_seed(scenario_id, t), self.plan, stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vardelay_circuit::{CellLibrary, LatchParams};
    use vardelay_process::VariationConfig;

    #[test]
    fn gate_level_workspace_reuse_spans_blocks() {
        let staged = StagedPipeline::inverter_grid(2, 5, 1.0, LatchParams::ideal());
        let mc = PipelineMc::new(
            CellLibrary::default(),
            VariationConfig::random_only(35.0),
            None,
        );
        let sim = GateLevelSim::new(&mc, &staged);
        let mut ws = TrialWorkspace::new();
        let mut stats = PipelineBlockStats::new(2, &[]);
        for b in 0..4u64 {
            sim.run_block(&mut ws, 1, b * 64..(b + 1) * 64, &mut stats);
        }
        assert_eq!(ws.reuses(), 256, "no buffer may reallocate across blocks");
    }
}
