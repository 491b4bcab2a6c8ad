//! Monte-Carlo timing engine — the workspace's substitute for the paper's
//! SPICE Monte-Carlo runs.
//!
//! Each trial draws one die's shared variation (inter-die shift + correlated
//! region values), then per-gate random shifts, evaluates every gate's
//! delay through the **nonlinear** alpha-power slowdown factor, and runs
//! deterministic timing. Because the nonlinearity and the exact max are
//! retained, the MC results contain exactly the effects the paper's
//! Gaussian/Clark model approximates — which is what makes the Fig. 2/3 and
//! Table I comparisons meaningful.
//!
//! * [`results`] — streaming block statistics (moments, yield counts,
//!   optional fixed-range histogram, weighted tail) and yield estimates
//!   with confidence intervals.
//! * [`pipeline_mc`] — the experiment (library, variation, output load,
//!   trial kernel) and the scalar v1 reference trial.
//! * [`prepared`] — the allocation-free prepared/workspace runner: the
//!   one implementation of gate-level trial blocks, under every kernel
//!   and trial plan (the sweep engine's gate-level hot path).
//! * [`kernel`] — the versioned trial-kernel contract: v1 (scalar
//!   Box–Muller + exact `powf`), v2 (batch sampling + frozen polynomial
//!   slowdown) and v3 (wide lane-major passes + FMA-fused inverse-CDF
//!   fill), with the lane-folded statistics of v2/v3 in one
//!   [`LaneFold`].
//! * [`strategy`] — the versioned trial-plan contracts (plain as the
//!   identity plan, antithetic, stratified, Sobol QMC, statistical
//!   blockade): how the counter-based streams are shaped into draws,
//!   orthogonal to the kernel.
//!
//! # Example
//!
//! ```
//! use vardelay_circuit::{LatchParams, StagedPipeline};
//! use vardelay_circuit::CellLibrary;
//! use vardelay_mc::{PipelineBlockStats, PipelineMc, PreparedPipelineMc};
//! use vardelay_process::VariationConfig;
//! use vardelay_stats::counter_seed;
//!
//! let mc = PipelineMc::new(CellLibrary::default(), VariationConfig::random_only(35.0), None);
//! let pipeline = StagedPipeline::inverter_grid(3, 8, 1.0, LatchParams::ideal());
//! let prepared = PreparedPipelineMc::new(&mc, &pipeline);
//! let mut stats = PipelineBlockStats::new(pipeline.stage_count(), &[]);
//! prepared.run_block(&mut prepared.workspace(), 0..2_000, |t| counter_seed(1, t), &mut stats);
//! assert!(stats.pipeline().mean() > 0.0);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod kernel;
pub mod pipeline_mc;
pub mod prepared;
pub mod results;
pub mod strategy;

pub use kernel::{LaneFold, TrialKernel, V2_LANES, V3_LANES, V3_WIDTH};
pub use pipeline_mc::PipelineMc;
pub use prepared::{PreparedPipelineMc, TrialWorkspace};
pub use results::{HistogramSpec, PipelineBlockStats, YieldEstimate};
pub use strategy::{PlanSampler, TrialPlan, TrialStrategy, DEFAULT_SHIFT_SIGMAS, STRATA_BLOCK};
