//! Allocation-free gate-level Monte-Carlo: the one runner behind every
//! gate-level trial block (both sweep backends, the sizing loop's
//! Monte-Carlo yield evaluator and campaign verification).
//!
//! [`PipelineMc::sample_trial`] — the scalar v1 reference — allocates
//! several vectors per trial (the die's region values, the per-gate
//! slowdowns, the arrival-time array, the stage-delay vector) and
//! re-evaluates every gate's load-dependent nominal delay from scratch.
//! [`PreparedPipelineMc`] splits a trial into the parts that never change
//! (topological order, loads, per-gate nominal delays, per-gate Pelgrom
//! sigmas, stage regions — all precomputed once in `new`) and the parts
//! that do (one [`TrialWorkspace`] of scratch buffers, reused across
//! every trial a worker runs).
//!
//! Each kernel has exactly one trial implementation, and every trial
//! plan runs through it: a [`PlanSampler`] hands each trial its seed
//! index, sign, lead overrides and mean shift, and plain Monte-Carlo is
//! the identity overlay (sign `1.0`, no overrides, shift `0`), which
//! changes no bit of the unmodified stream. Under the v1 kernel and the
//! plain plan the RNG consumption order and floating-point arithmetic
//! are **identical** to [`PipelineMc::sample_trial`], so for the same
//! per-trial seeds a block produces the same statistics as recording
//! `sample_trial` trial by trial — a property the test suite asserts.
//! The v2 and v3 kernels are their own frozen contracts (see
//! [`crate::kernel`]), folded through a [`LaneFold`].

use rand::rngs::StdRng;
use rand::SeedableRng;
use vardelay_circuit::{CellLibrary, LatchParams, Netlist, StagedPipeline};
use vardelay_process::spatial::DiePosition;
use vardelay_process::{pelgrom_sigma, DieSample, ProcessSampler};
use vardelay_ssta::sta::{arrival_times_into, nominal_gate_delays};
use vardelay_stats::batch::{
    fill_standard_normals_inv_cdf, fill_standard_normals_inv_cdf_fma_multi,
    sample_standard_normal_inv_cdf,
};
use vardelay_stats::normal::sample_standard_normal;

use crate::kernel::{LaneFold, TrialKernel, V3_LANES, V3_WIDTH};
use crate::pipeline_mc::PipelineMc;
use crate::results::PipelineBlockStats;
use crate::strategy::{PlanSampler, TrialPlan};

/// One stage's precomputed timing data.
#[derive(Debug, Clone)]
struct PreparedStage {
    netlist: Netlist,
    /// Per-gate nominal delay under the stage's static loads (ps).
    nominal: Vec<f64>,
    /// Per-gate Pelgrom-scaled random σVth (V); empty when the variation
    /// config has no random component (in which case no RNG is drawn per
    /// gate, matching [`ProcessSampler::sample_gate_random`]).
    rand_sigma: Vec<f64>,
    /// Spatial region of the stage on the die.
    region: usize,
}

/// Reusable per-worker scratch buffers for [`PreparedPipelineMc`].
///
/// Create one per worker thread with
/// [`PreparedPipelineMc::workspace`] (or [`TrialWorkspace::new`] plus
/// [`PreparedPipelineMc::prepare_workspace`], which is grow-only and may
/// be re-used across scenarios). After the first trial warms the
/// buffers, running further trials performs **no heap allocation** — the
/// block runner debug-asserts that every buffer's storage is stable
/// across a block.
#[derive(Debug, Clone, Default)]
pub struct TrialWorkspace {
    /// iid standard normals for the spatial regions (the v2 kernel also
    /// uses one extra slot for the inter-die draw).
    z: Vec<f64>,
    /// The die sample (its region vector is reused).
    die: DieSample,
    /// Per-gate standard normals of the stage currently being timed
    /// (v2 kernel only — v1 draws them inline).
    normals: Vec<f64>,
    /// Per-gate slowdown factors of the stage currently being timed.
    slowdown: Vec<f64>,
    /// Arrival times of the stage currently being timed.
    at: Vec<f64>,
    /// Per-stage delays of the current trial.
    stage_delays: Vec<f64>,
    /// Structure-of-arrays buffers of the v3 wide kernel (empty under
    /// v1/v2 — they are sized only when a v3 runner prepares the
    /// workspace).
    wide: WideScratch,
    /// Trials served since the buffers were last (re)allocated — the
    /// observable half of the zero-allocation contract.
    reuses: u64,
}

/// Structure-of-arrays scratch of the v3 wide kernel: every buffer holds
/// one `f64` per lane per item. The per-pass buffers (`dvth`, `slow`,
/// `at`) are packed at the pass's own width `w` (`item * w + lane`) so a
/// ragged final pass stays dense; the cross-pass buffers (`shared`,
/// `latch`, `sd`) keep the fixed `item * V3_WIDTH + lane` stride the
/// fill and record phases index by. Each lane's values are a pure
/// function of its own trial, so pass width cannot leak into result
/// bytes.
#[derive(Debug, Clone, Default)]
struct WideScratch {
    /// Fill-phase gate normals, per-lane contiguous
    /// (`lane * rand_total + g`): each lane's counter stream fills its
    /// own row in one batch inverse-CDF call.
    z_rows: Vec<f64>,
    /// Per-gate per-lane total ΔVth shifts (`shared + sigma·z`) of the
    /// stage currently being timed (`g * w + lane`), built while
    /// transposing `z_rows` so one wide polynomial call covers the
    /// stage.
    dvth: Vec<f64>,
    /// Per-stage per-lane shared die ΔVth (`s * V3_WIDTH + lane`).
    shared: Vec<f64>,
    /// Per-stage per-lane latch-jitter normals (`s * V3_WIDTH + lane`),
    /// drawn up front in the fill phase (only when the latch has
    /// jitter).
    latch: Vec<f64>,
    /// Per-gate per-lane slowdown factors of the stage currently being
    /// timed (`g * w + lane`).
    slow: Vec<f64>,
    /// Per-signal per-lane arrival times of the stage currently being
    /// timed (`signal * w + lane`).
    at: Vec<f64>,
    /// Per-stage per-lane stage delays (`s * V3_WIDTH + lane`).
    sd: Vec<f64>,
    /// Per-lane pipeline delays (max over stages).
    maxd: [f64; V3_WIDTH],
    /// Per-lane importance weights (1.0 unless the plan reweights).
    weight: [f64; V3_WIDTH],
    /// Per-lane generators parked after the die/latch draws so the
    /// gate-normal rows can be filled with interleaved streams
    /// (independent lanes hide each other's serial generator latency).
    rngs: Vec<StdRng>,
}

impl TrialWorkspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        TrialWorkspace::default()
    }

    /// Trials served since the scratch buffers last (re)grew. A long
    /// block run keeping this counter monotone is direct evidence the
    /// hot path allocated nothing.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }
}

/// A [`StagedPipeline`] compiled for repeated zero-allocation trials.
#[derive(Debug, Clone)]
pub struct PreparedPipelineMc {
    lib: CellLibrary,
    sampler: ProcessSampler,
    stages: Vec<PreparedStage>,
    /// Total per-gate random-σ count across all stages: the length of
    /// the single up-front normal fill the v2 kernel performs per trial.
    rand_total: usize,
    latch: LatchParams,
    output_load: f64,
    kernel: TrialKernel,
}

impl PreparedPipelineMc {
    /// Compiles `pipeline` against the runner's library, variation and
    /// output load: loads and per-gate nominal delays are evaluated once
    /// here, never again per trial.
    pub fn new(mc: &PipelineMc, pipeline: &StagedPipeline) -> Self {
        let lib = mc.library().clone();
        let sampler = mc.sampler().clone();
        let output_load = mc.output_load();
        let stages = pipeline
            .stages()
            .iter()
            .zip(pipeline.positions())
            .map(|(netlist, pos)| Self::prepare_stage(&lib, &sampler, output_load, netlist, *pos))
            .collect::<Vec<PreparedStage>>();
        let rand_total = stages.iter().map(|s| s.rand_sigma.len()).sum();
        PreparedPipelineMc {
            lib,
            sampler,
            stages,
            rand_total,
            latch: pipeline.latch(),
            output_load,
            kernel: mc.kernel(),
        }
    }

    /// The trial-kernel contract this runner executes (inherited from
    /// the [`PipelineMc`] it was compiled from).
    pub fn kernel(&self) -> TrialKernel {
        self.kernel
    }

    /// Compiles one stage: the per-gate precomputation `new` and
    /// `reprepare` share.
    fn prepare_stage(
        lib: &CellLibrary,
        sampler: &ProcessSampler,
        output_load: f64,
        netlist: &Netlist,
        pos: DiePosition,
    ) -> PreparedStage {
        let variation = sampler.variation();
        let nominal = nominal_gate_delays(netlist, lib, output_load);
        let rand_sigma = if variation.has_random() {
            netlist
                .gates()
                .iter()
                .map(|g| {
                    pelgrom_sigma(
                        variation.sigma_vth_rand_v(),
                        g.size * g.kind.mismatch_area(),
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        PreparedStage {
            netlist: netlist.clone(),
            nominal,
            rand_sigma,
            region: sampler.region_of(pos),
        }
    }

    /// Re-prepares against `pipeline`, recompiling **only the stages
    /// whose netlist changed** since the last (re)prepare — the
    /// change-driven path for callers like the Fig. 9 sizing loop, which
    /// queries Monte-Carlo yield on a pipeline that differs from the
    /// previous query in at most a few stages. Stages that compare equal
    /// keep their precomputed loads, nominal delays and Pelgrom sigmas
    /// (which are pure functions of the netlist, so the reuse is
    /// bit-exact); a stage-count change falls back to a full rebuild.
    pub fn reprepare(&mut self, pipeline: &StagedPipeline) {
        self.latch = pipeline.latch();
        if self.stages.len() != pipeline.stage_count() {
            self.stages = pipeline
                .stages()
                .iter()
                .zip(pipeline.positions())
                .map(|(netlist, pos)| {
                    Self::prepare_stage(&self.lib, &self.sampler, self.output_load, netlist, *pos)
                })
                .collect();
            self.rand_total = self.stages.iter().map(|s| s.rand_sigma.len()).sum();
            return;
        }
        for (i, (netlist, pos)) in pipeline
            .stages()
            .iter()
            .zip(pipeline.positions())
            .enumerate()
        {
            let region = self.sampler.region_of(*pos);
            if self.stages[i].netlist != *netlist {
                self.stages[i] =
                    Self::prepare_stage(&self.lib, &self.sampler, self.output_load, netlist, *pos);
            } else if self.stages[i].region != region {
                self.stages[i].region = region;
            }
        }
        self.rand_total = self.stages.iter().map(|s| s.rand_sigma.len()).sum();
    }

    /// Number of pipeline stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Grows `ws` to fit this pipeline (no-op when already large
    /// enough). Grow-only, so one workspace can serve interleaved blocks
    /// of different scenarios without reallocating per block.
    pub fn prepare_workspace(&self, ws: &mut TrialWorkspace) {
        let grow = |v: &mut Vec<f64>, n: usize| {
            if v.capacity() < n {
                v.reserve(n - v.len());
            }
        };
        let max_gates = self
            .stages
            .iter()
            .map(|s| s.netlist.gate_count())
            .max()
            .unwrap_or(0);
        let max_signals = self
            .stages
            .iter()
            .map(|s| s.netlist.input_count() + s.netlist.gate_count())
            .max()
            .unwrap_or(0);
        let regions = self.sampler.region_value_count();
        let caps = |ws: &TrialWorkspace| {
            (
                (
                    ws.z.capacity(),
                    ws.die.region_dvth.capacity(),
                    ws.normals.capacity(),
                    ws.slowdown.capacity(),
                    ws.at.capacity(),
                    ws.stage_delays.capacity(),
                ),
                (
                    ws.wide.z_rows.capacity(),
                    ws.wide.dvth.capacity(),
                    ws.wide.shared.capacity(),
                    ws.wide.latch.capacity(),
                    ws.wide.slow.capacity(),
                    ws.wide.at.capacity(),
                    ws.wide.sd.capacity(),
                ),
            )
        };
        let before = caps(ws);
        // +1: the v2 kernel shares the buffer between the inter-die draw
        // and the region draws.
        grow(&mut ws.z, regions + 1);
        grow(&mut ws.die.region_dvth, regions);
        grow(&mut ws.normals, max_gates.max(self.rand_total));
        grow(&mut ws.slowdown, max_gates);
        grow(&mut ws.at, max_signals);
        grow(&mut ws.stage_delays, self.stages.len());
        ws.stage_delays.resize(self.stages.len(), 0.0);
        if self.kernel == TrialKernel::V3 {
            // The wide buffers are indexed, not pushed, so they carry
            // their working length (grow-only in capacity: `resize` never
            // shrinks a Vec's allocation).
            let stages = self.stages.len();
            ws.wide.z_rows.resize(self.rand_total * V3_WIDTH, 0.0);
            ws.wide.dvth.resize(max_gates * V3_WIDTH, 0.0);
            ws.wide.shared.resize(stages * V3_WIDTH, 0.0);
            ws.wide.latch.resize(stages * V3_WIDTH, 0.0);
            ws.wide.slow.resize(max_gates * V3_WIDTH, 0.0);
            ws.wide.at.resize(max_signals * V3_WIDTH, 0.0);
            ws.wide.sd.resize(stages * V3_WIDTH, 0.0);
        }
        if before != caps(ws) {
            ws.reuses = 0;
        }
    }

    /// A fresh workspace sized for this pipeline.
    pub fn workspace(&self) -> TrialWorkspace {
        let mut ws = TrialWorkspace::new();
        self.prepare_workspace(&mut ws);
        ws
    }

    /// Number of die-level standard-normal dims one trial draws (the
    /// inter-die normal plus the correlated-region normals) — the dims a
    /// stratified or Sobol trial plan overrides.
    pub fn die_dims(&self) -> usize {
        usize::from(self.sampler.variation().has_inter()) + self.sampler.region_value_count()
    }

    /// One **v1-kernel** trial into the workspace under a trial plan's
    /// overlay (antithetic `sign` on every produced normal, `lead`
    /// overrides on the die-level dims, inter-die mean `shift`). Returns
    /// `(pipeline delay, importance weight)`; the per-stage delays are
    /// left in the workspace's stage buffer. Under the identity overlay
    /// `(1.0, &[], 0.0)` the RNG consumption order and the arithmetic
    /// are those of [`PipelineMc::sample_trial`], bit for bit.
    fn sample_trial(
        &self,
        ws: &mut TrialWorkspace,
        rng: &mut StdRng,
        sign: f64,
        lead: &[f64],
        shift: f64,
    ) -> (f64, f64) {
        let weight =
            self.sampler
                .sample_die_into_plan(rng, sign, lead, shift, &mut ws.z, &mut ws.die);
        let mut max_d = f64::NEG_INFINITY;
        for (s, stage) in self.stages.iter().enumerate() {
            let shared = ws.die.shared_dvth(if ws.die.region_dvth.is_empty() {
                0
            } else {
                stage.region
            });
            ws.slowdown.clear();
            if stage.rand_sigma.is_empty() {
                let f = self.lib.vth_slowdown_factor(shared);
                ws.slowdown.resize(stage.netlist.gate_count(), f);
            } else {
                ws.slowdown.extend(stage.rand_sigma.iter().map(|&sig| {
                    let rand = sig * (sign * sample_standard_normal(rng));
                    self.lib.vth_slowdown_factor(shared + rand)
                }));
            }
            arrival_times_into(
                &stage.netlist,
                &stage.nominal,
                Some(&ws.slowdown),
                &mut ws.at,
            );
            let comb = stage
                .netlist
                .outputs()
                .iter()
                .map(|o| ws.at[o.0])
                .fold(0.0, f64::max);
            let overhead = self.latch.overhead_ps()
                + self.latch.overhead_sigma_ps() * (sign * sample_standard_normal(rng));
            let sd = comb + overhead;
            max_d = max_d.max(sd);
            ws.stage_delays[s] = sd;
        }
        ws.reuses += 1;
        (max_d, weight)
    }

    /// One **v2-kernel** trial into the workspace under a trial plan's
    /// overlay; returns `(pipeline delay, importance weight)`. Same spec
    /// semantics as [`Self::sample_trial`] — same seed derivation, same
    /// component model, same deterministic timing — but batch-shaped
    /// arithmetic: the die's normals come from one pair-producing
    /// Box–Muller fill, every stage's per-gate normals from one up-front
    /// structure-of-arrays inverse-CDF fill (one uniform per gate), the
    /// slowdown factor from the frozen polynomial kernels, and the latch
    /// overhead normal is drawn **only when the latch has jitter** (v1
    /// draws and discards it when sigma is zero).
    fn sample_trial_v2(
        &self,
        ws: &mut TrialWorkspace,
        rng: &mut StdRng,
        sign: f64,
        lead: &[f64],
        shift: f64,
    ) -> (f64, f64) {
        let weight =
            self.sampler
                .sample_die_into_v2_plan(rng, sign, lead, shift, &mut ws.z, &mut ws.die);
        // One up-front inverse-CDF fill covers every stage's per-gate
        // normals (one u64 each, stage order). Each normal depends only
        // on its own u64, so the values are identical to per-stage fills
        // — batching just amortizes the fill's fixed costs. Latch
        // overhead draws (below) consume the RNG *after* this block.
        ws.normals.resize(self.rand_total, 0.0);
        fill_standard_normals_inv_cdf(rng, &mut ws.normals);
        if sign != 1.0 {
            for n in ws.normals.iter_mut() {
                *n *= sign;
            }
        }
        let latch_sigma = self.latch.overhead_sigma_ps();
        let mut max_d = f64::NEG_INFINITY;
        let mut rand_off = 0usize;
        for (s, stage) in self.stages.iter().enumerate() {
            let shared = ws.die.shared_dvth(if ws.die.region_dvth.is_empty() {
                0
            } else {
                stage.region
            });
            if stage.rand_sigma.is_empty() {
                ws.slowdown.clear();
                let f = self.lib.vth_slowdown_factor_v2(shared);
                ws.slowdown.resize(stage.netlist.gate_count(), f);
            } else {
                let gates = stage.rand_sigma.len();
                let z = &ws.normals[rand_off..rand_off + gates];
                rand_off += gates;
                ws.slowdown.resize(gates, 0.0);
                self.lib.vth_slowdown_factors_v2_into(
                    shared,
                    &stage.rand_sigma,
                    z,
                    &mut ws.slowdown,
                );
            }
            arrival_times_into(
                &stage.netlist,
                &stage.nominal,
                Some(&ws.slowdown),
                &mut ws.at,
            );
            let comb = stage
                .netlist
                .outputs()
                .iter()
                .map(|o| ws.at[o.0])
                .fold(0.0, f64::max);
            let mut overhead = self.latch.overhead_ps();
            if latch_sigma != 0.0 {
                overhead += latch_sigma * (sign * sample_standard_normal_inv_cdf(rng));
            }
            let sd = comb + overhead;
            max_d = max_d.max(sd);
            ws.stage_delays[s] = sd;
        }
        ws.reuses += 1;
        (max_d, weight)
    }

    /// Fill phase of one **v3-kernel** pass over trials
    /// `start..start + w` (`w <= V3_WIDTH`) under a trial plan's overlay
    /// (antithetic `sign` on every produced normal, `lead` overrides on
    /// the die-level dims, inter-die mean `shift`), then the shared
    /// compute phase. Leaves lane `i`'s stage delays in
    /// `ws.wide.sd[s * V3_WIDTH + i]`, its pipeline delay in
    /// `ws.wide.maxd[i]` and its importance weight in
    /// `ws.wide.weight[i]`. `ps` is advanced in ascending trial order,
    /// as the [`PlanSampler`] contract requires.
    ///
    /// The v3 RNG consumption order per trial is part of the contract
    /// and deliberately differs from v2: die draws (batch inverse-CDF,
    /// not Box–Muller), then **all** latch-jitter normals up front (one
    /// per stage, only when the latch has jitter; v2 interleaves them
    /// after each stage), then every gate normal in one FMA-fused batch
    /// inverse-CDF fill ([`fill_standard_normals_inv_cdf_fma_multi`]).
    /// The fused fill consumes the RNG exactly like the v2 fill (one
    /// `u64` per normal, tail fixups re-rolling per element) but
    /// evaluates the quantile through `mul_add`-fused Acklam polynomials
    /// — correctly rounded on every target, so its bytes are stable
    /// across dispatch targets yet never interchangeable with v2's. Each
    /// lane consumes only its own seeded RNG, so a trial's values are a
    /// pure function of its index — pass grouping (including the ragged
    /// final pass) cannot reach the result bytes.
    fn sample_pass_v3(
        &self,
        ws: &mut TrialWorkspace,
        ps: &mut PlanSampler,
        start: u64,
        w: usize,
        seed_of: &impl Fn(u64) -> u64,
    ) {
        debug_assert!(w <= V3_WIDTH);
        let latch_sigma = self.latch.overhead_sigma_ps();
        let mut signs = [1.0f64; V3_WIDTH];
        ws.wide.rngs.clear();
        for (lane, sign_slot) in signs.iter_mut().enumerate().take(w) {
            let (seed_index, sign) = ps.prepare_trial(start + lane as u64);
            *sign_slot = sign;
            let mut rng = StdRng::seed_from_u64(seed_of(seed_index));
            ws.wide.weight[lane] = self.sampler.sample_die_into_v3_plan(
                &mut rng,
                sign,
                ps.lead(),
                ps.shift(),
                &mut ws.z,
                &mut ws.die,
            );
            for (s, stage) in self.stages.iter().enumerate() {
                ws.wide.shared[s * V3_WIDTH + lane] =
                    ws.die.shared_dvth(if ws.die.region_dvth.is_empty() {
                        0
                    } else {
                        stage.region
                    });
            }
            if latch_sigma != 0.0 {
                for s in 0..self.stages.len() {
                    ws.wide.latch[s * V3_WIDTH + lane] =
                        sign * sample_standard_normal_inv_cdf(&mut rng);
                }
            }
            ws.wide.rngs.push(rng);
        }
        let wide = &mut ws.wide;
        fill_standard_normals_inv_cdf_fma_multi(
            &mut wide.rngs,
            &mut wide.z_rows[..w * self.rand_total],
        );
        for (lane, &sign) in signs.iter().enumerate().take(w) {
            if sign != 1.0 {
                let row = &mut wide.z_rows[lane * self.rand_total..(lane + 1) * self.rand_total];
                for zi in row.iter_mut() {
                    *zi *= sign;
                }
            }
        }
        self.compute_pass_v3(ws, w);
    }

    /// Lane-major compute phase of one v3 pass over `w` filled lanes,
    /// visiting each stage and gate **once for the whole pass**: the
    /// per-gate normal rows are transposed out of `z_rows` directly into
    /// total ΔVth shifts (`shared + sigma·z`, fusing the transpose with
    /// the shift build), one wide polynomial call turns a whole stage's
    /// `gates × w` shift block into slowdown factors, then wide
    /// arrival-time propagation (the fanin metadata of each gate is
    /// loaded once per pass instead of once per trial) and per-lane
    /// combinational max / latch overhead / stage delay. The per-pass
    /// buffers are packed at width `w`; the per-lane arithmetic is
    /// element-wise throughout, so a lane's bits never depend on its
    /// pass-mates.
    fn compute_pass_v3(&self, ws: &mut TrialWorkspace, w: usize) {
        const W: usize = V3_WIDTH;
        let WideScratch {
            z_rows,
            dvth,
            shared,
            latch,
            slow,
            at,
            sd,
            maxd,
            weight: _,
            rngs: _,
        } = &mut ws.wide;
        let latch_base = self.latch.overhead_ps();
        let latch_sigma = self.latch.overhead_sigma_ps();
        maxd[..w].fill(f64::NEG_INFINITY);
        let mut rand_off = 0usize;
        for (s, stage) in self.stages.iter().enumerate() {
            let gates = stage.netlist.gate_count();
            let sh = &shared[s * W..s * W + w];
            if stage.rand_sigma.is_empty() {
                // No per-gate randomness: one slowdown factor per lane
                // covers the stage (same fused polynomial kernels as the
                // wide helper, so the bits match the per-gate form —
                // and stay on the v3 kernel family even when no stage
                // draws per-gate normals).
                let mut f = [0.0f64; W];
                for (lane, fl) in f[..w].iter_mut().enumerate() {
                    *fl = self.lib.vth_slowdown_factor_v3(sh[lane]);
                }
                for g in 0..gates {
                    slow[g * w..(g + 1) * w].copy_from_slice(&f[..w]);
                }
            } else {
                for (g, &sig) in stage.rand_sigma.iter().enumerate() {
                    let row = &mut dvth[g * w..(g + 1) * w];
                    for (lane, dv) in row.iter_mut().enumerate() {
                        *dv = sh[lane] + sig * z_rows[lane * self.rand_total + rand_off + g];
                    }
                }
                self.lib
                    .vth_slowdown_factors_v3_shift_into(&dvth[..gates * w], &mut slow[..gates * w]);
                rand_off += gates;
            }
            // Wide arrival times: inputs arrive at 0, each gate takes
            // `max(fanin arrivals) + nominal * slowdown` per lane — the
            // same operations in the same order as `arrival_times_into`,
            // so each lane's bits match the scalar propagation.
            let inputs = stage.netlist.input_count();
            at[..inputs * w].fill(0.0);
            for (i, g) in stage.netlist.gates().iter().enumerate() {
                let out_off = (inputs + i) * w;
                let (pre, rest) = at.split_at_mut(out_off);
                let row = &mut rest[..w];
                row.fill(f64::NEG_INFINITY);
                for f in &g.fanins {
                    let fr = &pre[f.0 * w..(f.0 + 1) * w];
                    for (r, &a) in row.iter_mut().zip(fr) {
                        *r = r.max(a);
                    }
                }
                let nom = stage.nominal[i];
                let srow = &slow[i * w..(i + 1) * w];
                for (r, &sl) in row.iter_mut().zip(srow) {
                    *r += nom * sl;
                }
            }
            let mut comb = [0.0f64; W];
            for o in stage.netlist.outputs() {
                let orow = &at[o.0 * w..(o.0 + 1) * w];
                for (c, &a) in comb[..w].iter_mut().zip(orow) {
                    *c = c.max(a);
                }
            }
            for (lane, &c) in comb[..w].iter().enumerate() {
                let mut overhead = latch_base;
                if latch_sigma != 0.0 {
                    overhead += latch_sigma * latch[s * W + lane];
                }
                let sdv = c + overhead;
                maxd[lane] = maxd[lane].max(sdv);
                sd[s * W + lane] = sdv;
            }
        }
    }

    /// Monte-Carlo pipeline yield at one target delay: runs the given
    /// trial range and returns the fraction of trials whose pipeline
    /// delay met `target_ps`, with its 95% Wilson interval. This is the
    /// yield-at-target-delay evaluation the optimization campaigns use
    /// both as a pluggable sizing-loop backend and to cross-check the
    /// analytic yield prediction (the paper's Table II "actual yield"
    /// column) — same hot path, same bit-reproducibility, as a sweep's
    /// netlist backend.
    ///
    /// # Panics
    ///
    /// Panics if `trials` is empty.
    pub fn yield_at_target(
        &self,
        ws: &mut TrialWorkspace,
        target_ps: f64,
        trials: std::ops::Range<u64>,
        seed_of: impl Fn(u64) -> u64,
    ) -> crate::results::YieldEstimate {
        assert!(!trials.is_empty(), "yield estimate needs trials");
        let mut stats = PipelineBlockStats::new(self.stage_count(), &[target_ps]);
        self.run_block(ws, trials, seed_of, &mut stats);
        stats.yield_estimate(0)
    }

    /// Runs trials `trials.start..trials.end` under the plain plan:
    /// [`Self::run_block_plan`] with [`TrialPlan::plain`].
    ///
    /// # Panics
    ///
    /// Panics if `stats` was built for a different stage count or with a
    /// weighted tail.
    pub fn run_block(
        &self,
        ws: &mut TrialWorkspace,
        trials: std::ops::Range<u64>,
        seed_of: impl Fn(u64) -> u64,
        stats: &mut PipelineBlockStats,
    ) {
        self.run_block_plan(ws, trials, seed_of, TrialPlan::plain(), stats);
    }

    /// Runs trials `trials.start..trials.end` under `plan`, with per-trial
    /// seeds `seed_of(trial_index)`, folding each trial into `stats`.
    ///
    /// Every trial gets a fresh [`StdRng`] from its own seed (or, under
    /// the antithetic plan, its pair's seed), so each trial's samples are
    /// identical however the campaign's trial range is split into
    /// blocks. The trial's modifications come from a [`PlanSampler`]
    /// keyed on `seed_of(0)` — a pure function of the spec, so all
    /// workers, shards and resumed runs agree; the plain plan is the
    /// identity overlay. Under the v1 kernel each trial is recorded
    /// straight into `stats` — under the plain plan bit-identical to
    /// recording [`PipelineMc::sample_trial`] for the same seeds. Under
    /// v2/v3 trial `t` accumulates into lane `t % L` of a [`LaneFold`]
    /// whose lanes fold into `stats` in ascending order at the end of the
    /// call (weighted sums merging by addition per lane), so the output
    /// is a pure function of the trial range — identical however the
    /// campaign splits ranges across workers or shards, as long as the
    /// block boundaries themselves are fixed.
    ///
    /// Weighted plans ([`TrialPlan::is_weighted`]) require `stats` built
    /// with [`PipelineBlockStats::with_weighted_tail`]; unweighted plans
    /// require it absent.
    ///
    /// # Panics
    ///
    /// Panics if `stats` was built for a different stage count or its
    /// weighted-tail configuration does not match the plan.
    pub fn run_block_plan(
        &self,
        ws: &mut TrialWorkspace,
        trials: std::ops::Range<u64>,
        seed_of: impl Fn(u64) -> u64,
        plan: TrialPlan,
        stats: &mut PipelineBlockStats,
    ) {
        assert_eq!(
            stats.has_weighted_tail(),
            plan.is_weighted(),
            "stats weighted-tail configuration does not match the plan"
        );
        self.prepare_workspace(ws);
        // The zero-allocation contract, made checkable: after the
        // workspace is warm, no buffer may move for the rest of the
        // block.
        let fingerprint = |ws: &TrialWorkspace| {
            (
                (
                    ws.z.as_ptr(),
                    ws.die.region_dvth.as_ptr(),
                    ws.normals.as_ptr(),
                    ws.slowdown.as_ptr(),
                    ws.at.as_ptr(),
                    ws.stage_delays.as_ptr(),
                ),
                (
                    ws.wide.z_rows.as_ptr(),
                    ws.wide.dvth.as_ptr(),
                    ws.wide.shared.as_ptr(),
                    ws.wide.latch.as_ptr(),
                    ws.wide.slow.as_ptr(),
                    ws.wide.at.as_ptr(),
                    ws.wide.sd.as_ptr(),
                ),
            )
        };
        let warm = fingerprint(ws);
        let mut ps = PlanSampler::new(plan, self.die_dims(), seed_of(0));
        let weighted = plan.is_weighted();
        match self.kernel {
            TrialKernel::V1 | TrialKernel::V2 => {
                self.kernel.fold_trials(stats, trials, |t, acc| {
                    let (seed_index, sign) = ps.prepare_trial(t);
                    let mut rng = StdRng::seed_from_u64(seed_of(seed_index));
                    let (lead, shift) = (ps.lead(), ps.shift());
                    let (maxd, w) = if self.kernel == TrialKernel::V1 {
                        self.sample_trial(ws, &mut rng, sign, lead, shift)
                    } else {
                        self.sample_trial_v2(ws, &mut rng, sign, lead, shift)
                    };
                    if weighted {
                        acc.record_weighted(&ws.stage_delays, maxd, w);
                    } else {
                        acc.record(&ws.stage_delays, maxd);
                    }
                    debug_assert_eq!(
                        fingerprint(ws),
                        warm,
                        "hot-path buffer reallocated mid-block"
                    );
                })
            }
            TrialKernel::V3 => {
                let mut lanes = LaneFold::<V3_LANES>::new(stats);
                let mut t = trials.start;
                while t < trials.end {
                    let w = ((trials.end - t) as usize).min(V3_WIDTH);
                    self.sample_pass_v3(ws, &mut ps, t, w, &seed_of);
                    for i in 0..w {
                        for s in 0..self.stages.len() {
                            ws.stage_delays[s] = ws.wide.sd[s * V3_WIDTH + i];
                        }
                        let lane = lanes.lane(t + i as u64);
                        if weighted {
                            lane.record_weighted(
                                &ws.stage_delays,
                                ws.wide.maxd[i],
                                ws.wide.weight[i],
                            );
                        } else {
                            lane.record(&ws.stage_delays, ws.wide.maxd[i]);
                        }
                    }
                    ws.reuses += w as u64;
                    t += w as u64;
                    debug_assert_eq!(
                        fingerprint(ws),
                        warm,
                        "hot-path buffer reallocated mid-block"
                    );
                }
                lanes.merge_into(stats);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vardelay_circuit::LatchParams;
    use vardelay_process::VariationConfig;

    fn pipe(ns: usize, nl: usize) -> StagedPipeline {
        StagedPipeline::inverter_grid(ns, nl, 1.0, LatchParams::tg_msff_70nm())
    }

    fn seed_of(t: u64) -> u64 {
        t.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(17)
    }

    /// The v1 reference block: [`PipelineMc::sample_trial`] recorded
    /// trial by trial, each from its own seeded generator.
    fn reference_block(
        mc: &PipelineMc,
        p: &StagedPipeline,
        trials: std::ops::Range<u64>,
        stats: &mut PipelineBlockStats,
    ) {
        for t in trials {
            let mut rng = StdRng::seed_from_u64(seed_of(t));
            let (stages, maxd) = mc.sample_trial(p, &mut rng);
            stats.record(&stages, maxd);
        }
    }

    /// The runner's load-bearing property: a v1 prepared block is a pure
    /// optimization of the scalar `PipelineMc::sample_trial` loop — same
    /// seeds, same bits — under every variation mode.
    #[test]
    fn prepared_matches_pipeline_mc_bit_for_bit() {
        for var in [
            VariationConfig::none(),
            VariationConfig::random_only(35.0),
            VariationConfig::inter_only(40.0),
            VariationConfig::combined(20.0, 35.0, 15.0),
        ] {
            let mc = PipelineMc::new(CellLibrary::default(), var, None);
            let p = pipe(4, 6);
            let prepared = PreparedPipelineMc::new(&mc, &p);

            let targets = [150.0, 200.0];
            let mut a = PipelineBlockStats::new(p.stage_count(), &targets);
            reference_block(&mc, &p, 0..300, &mut a);

            let mut b = PipelineBlockStats::new(p.stage_count(), &targets);
            let mut ws = prepared.workspace();
            prepared.run_block(&mut ws, 0..300, seed_of, &mut b);

            assert_eq!(a, b, "prepared path diverged under {var:?}");
        }
    }

    #[test]
    fn yield_at_target_matches_block_stats() {
        let mc = PipelineMc::new(
            CellLibrary::default(),
            VariationConfig::random_only(35.0),
            None,
        );
        let p = pipe(3, 6);
        let prepared = PreparedPipelineMc::new(&mc, &p);
        let mut ws = prepared.workspace();
        let target = 200.0;
        let est = prepared.yield_at_target(&mut ws, target, 0..500, seed_of);
        let mut want = PipelineBlockStats::new(p.stage_count(), &[target]);
        reference_block(&mc, &p, 0..500, &mut want);
        assert_eq!(est, want.yield_estimate(0));
        assert!(est.lo <= est.value && est.value <= est.hi);
    }

    /// `reprepare` is a pure optimization of building a fresh prepared
    /// pipeline: after mutating some stages, the re-prepared runner
    /// produces bit-identical statistics to a from-scratch compile.
    #[test]
    fn reprepare_matches_fresh_compile_bit_for_bit() {
        let mc = PipelineMc::new(
            CellLibrary::default(),
            VariationConfig::combined(20.0, 35.0, 15.0),
            None,
        );
        let p0 = pipe(4, 6);
        let mut prepared = PreparedPipelineMc::new(&mc, &p0);

        // Resize one stage; leave the rest untouched.
        let mut p1 = p0.clone();
        let mut s2 = p1.stages()[2].clone();
        s2.scale_sizes(1.7);
        p1.set_stage(2, s2);
        prepared.reprepare(&p1);

        let fresh = PreparedPipelineMc::new(&mc, &p1);
        let mut a = PipelineBlockStats::new(4, &[150.0]);
        let mut b = PipelineBlockStats::new(4, &[150.0]);
        prepared.run_block(&mut prepared.workspace(), 0..200, seed_of, &mut a);
        fresh.run_block(&mut fresh.workspace(), 0..200, seed_of, &mut b);
        assert_eq!(a, b, "reprepared stage diverged from fresh compile");

        // A stage-count change falls back to a full rebuild.
        let p5 = pipe(5, 6);
        prepared.reprepare(&p5);
        assert_eq!(prepared.stage_count(), 5);
        let fresh5 = PreparedPipelineMc::new(&mc, &p5);
        let mut a = PipelineBlockStats::new(5, &[150.0]);
        let mut b = PipelineBlockStats::new(5, &[150.0]);
        prepared.run_block(&mut prepared.workspace(), 0..200, seed_of, &mut a);
        fresh5.run_block(&mut fresh5.workspace(), 0..200, seed_of, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn workspace_is_reused_across_blocks() {
        let mc = PipelineMc::new(
            CellLibrary::default(),
            VariationConfig::combined(20.0, 35.0, 15.0),
            None,
        );
        let p = pipe(3, 5);
        let prepared = PreparedPipelineMc::new(&mc, &p);
        let mut ws = prepared.workspace();
        let mut stats = PipelineBlockStats::new(p.stage_count(), &[]);
        prepared.run_block(&mut ws, 0..64, seed_of, &mut stats);
        prepared.run_block(&mut ws, 64..128, seed_of, &mut stats);
        assert_eq!(
            ws.reuses(),
            128,
            "every trial after warm-up must reuse the buffers"
        );
        assert_eq!(stats.trials(), 128);
    }

    /// The v2 contract in miniature: a block's v2 bytes are a pure
    /// function of its trial range — fresh or reused workspace, the same
    /// range produces identical bits.
    #[test]
    fn v2_block_bytes_are_a_pure_function_of_the_range() {
        for var in [
            VariationConfig::none(),
            VariationConfig::random_only(35.0),
            VariationConfig::inter_only(40.0),
            VariationConfig::combined(20.0, 35.0, 15.0),
        ] {
            let mc =
                PipelineMc::new(CellLibrary::default(), var, None).with_kernel(TrialKernel::V2);
            let p = pipe(4, 6);
            let prepared = PreparedPipelineMc::new(&mc, &p);
            assert_eq!(prepared.kernel(), TrialKernel::V2);

            let targets = [150.0, 200.0];
            let mut a = PipelineBlockStats::new(p.stage_count(), &targets);
            let mut ws = prepared.workspace();
            prepared.run_block(&mut ws, 256..512, seed_of, &mut a);

            // Same range again, same (now warm) workspace.
            let mut b = PipelineBlockStats::new(p.stage_count(), &targets);
            prepared.run_block(&mut ws, 256..512, seed_of, &mut b);
            assert_eq!(a, b, "v2 block not reproducible under {var:?}");
        }
    }

    /// v1 and v2 are different byte streams drawn from the same
    /// distributions: means and sigmas must agree within Monte-Carlo
    /// error at matched trial counts, and the bytes must differ (if they
    /// didn't, v2 would not need to be a separate contract).
    #[test]
    fn v2_statistically_matches_v1() {
        let var = VariationConfig::combined(20.0, 35.0, 15.0);
        let mc1 = PipelineMc::new(CellLibrary::default(), var, None);
        let mc2 = PipelineMc::new(CellLibrary::default(), var, None).with_kernel(TrialKernel::V2);
        let p = pipe(4, 6);
        let p1 = PreparedPipelineMc::new(&mc1, &p);
        let p2 = PreparedPipelineMc::new(&mc2, &p);
        let n = 40_000u64;
        let target = [115.0];
        let mut s1 = PipelineBlockStats::new(p.stage_count(), &target);
        let mut s2 = PipelineBlockStats::new(p.stage_count(), &target);
        p1.run_block(&mut p1.workspace(), 0..n, seed_of, &mut s1);
        p2.run_block(&mut p2.workspace(), 0..n, seed_of, &mut s2);
        assert_ne!(s1, s2, "the kernels must be distinct byte streams");

        let (m1, m2) = (s1.pipeline().mean(), s2.pipeline().mean());
        let (d1, d2) = (s1.pipeline().sample_sd(), s2.pipeline().sample_sd());
        // Means of two independent n-trial estimates differ by
        // ~sd·sqrt(2/n); allow 5 of those.
        let tol = 5.0 * d1 * (2.0 / n as f64).sqrt();
        assert!((m1 - m2).abs() < tol, "means {m1} vs {m2} (tol {tol})");
        assert!((d1 - d2).abs() / d1 < 0.05, "sds {d1} vs {d2}");
        let (y1, y2) = (s1.yield_estimate(0), s2.yield_estimate(0));
        assert!(
            y1.lo <= y2.hi && y2.lo <= y1.hi,
            "yield CIs disjoint: {y1:?} vs {y2:?}"
        );
        for (a, b) in s1.stage_stats().iter().zip(s2.stage_stats()) {
            assert!((a.mean() - b.mean()).abs() < 5.0 * a.sample_sd() * (2.0 / n as f64).sqrt());
        }
    }

    #[test]
    fn v2_workspace_is_reused_across_blocks() {
        let mc = PipelineMc::new(
            CellLibrary::default(),
            VariationConfig::combined(20.0, 35.0, 15.0),
            None,
        )
        .with_kernel(TrialKernel::V2);
        let p = pipe(3, 5);
        let prepared = PreparedPipelineMc::new(&mc, &p);
        let mut ws = prepared.workspace();
        let mut stats = PipelineBlockStats::new(p.stage_count(), &[]);
        prepared.run_block(&mut ws, 0..64, seed_of, &mut stats);
        prepared.run_block(&mut ws, 64..128, seed_of, &mut stats);
        assert_eq!(ws.reuses(), 128, "v2 hot path must not reallocate");
        assert_eq!(stats.trials(), 128);
    }

    /// The v3 contract in miniature: a block's v3 bytes are a pure
    /// function of its trial range — fresh or reused workspace, aligned
    /// or ragged range (a final pass narrower than [`V3_WIDTH`] must not
    /// perturb any lane's bits).
    #[test]
    fn v3_block_bytes_are_a_pure_function_of_the_range() {
        for var in [
            VariationConfig::none(),
            VariationConfig::random_only(35.0),
            VariationConfig::inter_only(40.0),
            VariationConfig::combined(20.0, 35.0, 15.0),
        ] {
            let mc =
                PipelineMc::new(CellLibrary::default(), var, None).with_kernel(TrialKernel::V3);
            let p = pipe(4, 6);
            let prepared = PreparedPipelineMc::new(&mc, &p);
            assert_eq!(prepared.kernel(), TrialKernel::V3);

            let targets = [150.0, 200.0];
            // 256..517 ends on a ragged 5-wide pass.
            let range = 256..517u64;
            let mut a = PipelineBlockStats::new(p.stage_count(), &targets);
            let mut ws = prepared.workspace();
            prepared.run_block(&mut ws, range.clone(), seed_of, &mut a);
            assert_eq!(a.trials(), 261);

            // Same range again, same (now warm) workspace.
            let mut b = PipelineBlockStats::new(p.stage_count(), &targets);
            prepared.run_block(&mut ws, range, seed_of, &mut b);
            assert_eq!(a, b, "v3 block not reproducible under {var:?}");
        }
    }

    /// v3 draws from the same distributions as v1 and v2 but is a third
    /// distinct byte stream: moments and yields agree within Monte-Carlo
    /// error at matched trial counts, bytes never coincide.
    #[test]
    fn v3_statistically_matches_v1_and_v2() {
        let var = VariationConfig::combined(20.0, 35.0, 15.0);
        let p = pipe(4, 6);
        let n = 40_000u64;
        let target = [115.0];
        let stats_for = |kernel: TrialKernel| {
            let mc = PipelineMc::new(CellLibrary::default(), var, None).with_kernel(kernel);
            let prepared = PreparedPipelineMc::new(&mc, &p);
            let mut s = PipelineBlockStats::new(p.stage_count(), &target);
            prepared.run_block(&mut prepared.workspace(), 0..n, seed_of, &mut s);
            s
        };
        let s3 = stats_for(TrialKernel::V3);
        for kernel in [TrialKernel::V1, TrialKernel::V2] {
            let s = stats_for(kernel);
            assert_ne!(s, s3, "v3 must not reproduce {kernel:?} bytes");
            let (m, m3) = (s.pipeline().mean(), s3.pipeline().mean());
            let (d, d3) = (s.pipeline().sample_sd(), s3.pipeline().sample_sd());
            let tol = 5.0 * d * (2.0 / n as f64).sqrt();
            assert!(
                (m - m3).abs() < tol,
                "{kernel:?} means {m} vs {m3} (tol {tol})"
            );
            assert!((d - d3).abs() / d < 0.05, "{kernel:?} sds {d} vs {d3}");
            let (y, y3) = (s.yield_estimate(0), s3.yield_estimate(0));
            assert!(
                y.lo <= y3.hi && y3.lo <= y.hi,
                "yield CIs disjoint: {y:?} vs {y3:?}"
            );
            for (a, b) in s.stage_stats().iter().zip(s3.stage_stats()) {
                assert!(
                    (a.mean() - b.mean()).abs() < 5.0 * a.sample_sd() * (2.0 / n as f64).sqrt()
                );
            }
        }
    }

    #[test]
    fn v3_workspace_is_reused_across_blocks() {
        let mc = PipelineMc::new(
            CellLibrary::default(),
            VariationConfig::combined(20.0, 35.0, 15.0),
            None,
        )
        .with_kernel(TrialKernel::V3);
        let p = pipe(3, 5);
        let prepared = PreparedPipelineMc::new(&mc, &p);
        let mut ws = prepared.workspace();
        let mut stats = PipelineBlockStats::new(p.stage_count(), &[]);
        prepared.run_block(&mut ws, 0..64, seed_of, &mut stats);
        prepared.run_block(&mut ws, 64..128, seed_of, &mut stats);
        assert_eq!(ws.reuses(), 128, "v3 hot path must not reallocate");
        assert_eq!(stats.trials(), 128);
    }

    /// The trial-plan contract in miniature: for every strategy × kernel,
    /// a block's bytes are a pure function of the trial range, and they
    /// are never the plain bytes.
    #[test]
    fn plan_blocks_are_reproducible_and_never_plain_bytes() {
        use crate::strategy::{TrialPlan, TrialStrategy};
        let var = VariationConfig::combined(30.0, 15.0, 10.0);
        for strategy in [
            TrialStrategy::Antithetic,
            TrialStrategy::Stratified,
            TrialStrategy::Sobol,
            TrialStrategy::Blockade,
        ] {
            for kernel in TrialKernel::ALL {
                let mc = PipelineMc::new(CellLibrary::default(), var, None).with_kernel(kernel);
                let p = pipe(3, 5);
                let prepared = PreparedPipelineMc::new(&mc, &p);
                let plan = TrialPlan::of(strategy);
                let targets = [150.0];
                let make = || {
                    let s = PipelineBlockStats::new(p.stage_count(), &targets);
                    if plan.is_weighted() {
                        s.with_weighted_tail()
                    } else {
                        s
                    }
                };
                let mut a = make();
                let mut ws = prepared.workspace();
                prepared.run_block_plan(&mut ws, 0..256, seed_of, plan, &mut a);
                // Same range, warm workspace: identical bytes.
                let mut b = make();
                prepared.run_block_plan(&mut ws, 0..256, seed_of, plan, &mut b);
                assert_eq!(a, b, "{strategy:?}/{kernel:?} not reproducible");
                // Never the plain bytes.
                let mut plain = PipelineBlockStats::new(p.stage_count(), &targets);
                prepared.run_block(&mut prepared.workspace(), 0..256, seed_of, &mut plain);
                assert_ne!(
                    a.pipeline(),
                    plain.pipeline(),
                    "{strategy:?}/{kernel:?} produced plain bytes"
                );
            }
        }
    }

    /// Every strategy estimates the same distribution as plain MC:
    /// yields agree at matched confidence intervals, and the weighted
    /// (blockade) estimator reports its effective sample size.
    #[test]
    fn plan_statistics_agree_with_plain_at_matched_cis() {
        use crate::strategy::{TrialPlan, TrialStrategy};
        let var = VariationConfig::combined(30.0, 15.0, 0.0);
        let mc = PipelineMc::new(CellLibrary::default(), var, None).with_kernel(TrialKernel::V2);
        let p = pipe(3, 5);
        let prepared = PreparedPipelineMc::new(&mc, &p);
        let n = 8192u64;
        let mut plain = PipelineBlockStats::new(p.stage_count(), &[]);
        prepared.run_block(&mut prepared.workspace(), 0..n, seed_of, &mut plain);
        // Variance reduction compares at a ~90% target; the blockade
        // (whose shift targets the deep tail) compares at mean + 3σ,
        // the regime it exists for.
        let targets = [
            plain.pipeline().mean() + 1.3 * plain.pipeline().sample_sd(),
            plain.pipeline().mean() + 3.0 * plain.pipeline().sample_sd(),
        ];
        let mut plain = PipelineBlockStats::new(p.stage_count(), &targets);
        prepared.run_block(&mut prepared.workspace(), 0..n, seed_of, &mut plain);
        for strategy in [
            TrialStrategy::Antithetic,
            TrialStrategy::Stratified,
            TrialStrategy::Sobol,
            TrialStrategy::Blockade,
        ] {
            let plan = TrialPlan::of(strategy);
            let mut s = PipelineBlockStats::new(p.stage_count(), &targets);
            if plan.is_weighted() {
                s = s.with_weighted_tail();
            }
            prepared.run_block_plan(&mut prepared.workspace(), 0..n, seed_of, plan, &mut s);
            let idx = usize::from(plan.is_weighted());
            let py = plain.yield_estimate(idx);
            let y = if plan.is_weighted() {
                s.weighted_yield_estimate(idx)
            } else {
                s.yield_estimate(idx)
            };
            assert!(
                y.lo <= py.hi && py.lo <= y.hi,
                "{strategy:?} yield CI {y:?} disjoint from plain {py:?}"
            );
            if plan.is_weighted() {
                let ess = s.effective_samples();
                assert!(ess > 0.0 && ess < n as f64, "blockade ESS {ess}");
            } else {
                assert_eq!(s.effective_samples(), s.trials() as f64);
            }
        }
    }

    #[test]
    fn workspace_grows_across_scenarios_without_losing_validity() {
        let mc = PipelineMc::new(
            CellLibrary::default(),
            VariationConfig::random_only(35.0),
            None,
        );
        let small = PreparedPipelineMc::new(&mc, &pipe(2, 3));
        let large = PreparedPipelineMc::new(&mc, &pipe(5, 9));
        let mut ws = small.workspace();
        let mut s1 = PipelineBlockStats::new(2, &[]);
        small.run_block(&mut ws, 0..32, seed_of, &mut s1);
        // Re-using the same workspace for a bigger pipeline must grow it
        // and still produce the reference numbers.
        let mut s2 = PipelineBlockStats::new(5, &[]);
        large.run_block(&mut ws, 0..32, seed_of, &mut s2);
        let p = pipe(5, 9);
        let mut want = PipelineBlockStats::new(5, &[]);
        reference_block(&mc, &p, 0..32, &mut want);
        assert_eq!(s2, want);
    }
}
