//! Block-based SSTA over netlists and whole pipelines.
//!
//! [`SstaEngine::stage_delay`] reproduces the paper's "SPICE Monte-Carlo
//! gives (μᵢ, σᵢ) per stage" step analytically: arrival times in canonical
//! form are propagated through the stage netlist (exact sums, Clark max at
//! multi-fanin joins). [`SstaEngine::analyze_pipeline`] times every stage,
//! adds the latch overhead of eq. (1), and extracts the stage-to-stage
//! correlation matrix from the shared canonical factors — precisely the
//! `(μᵢ, σᵢ, ρᵢⱼ)` inputs of the paper's pipeline model.
//!
//! Every canonical analysis (arrivals, stage max and min delay, the
//! incremental [`crate::StageSsta`]) runs one in-place forward pass on
//! reused scratch, built from the bit-identical in-place twins
//! (`gate_delay_into`, `copy_from`, `max_assign`, `add_assign`).
//!
//! **Stage de-duplication.** The paper's `ns × nl` pipelines repeat one
//! netlist, so [`SstaEngine::analyze_pipeline`] times each distinct
//! (netlist, spatial region) pair once, scanning only the distinct
//! representatives so far, and reuses that canonical delay for every
//! equal stage. This is bit-identical: the canonical delay is a pure
//! function of engine, region and netlist, and netlist `==` compares
//! all of its inputs (gate sizes are finite and positive, so `f64`
//! equality there is bit equality).

use vardelay_circuit::{CellLibrary, LatchParams, Netlist, StagedPipeline};
use vardelay_process::spatial::SpatialGrid;
use vardelay_process::VariationConfig;
use vardelay_stats::{CorrelationMatrix, Normal, SymMatrix};

use crate::canonical::CanonicalDelay;
use crate::gate_delay::FactorBasis;
use crate::sta::DEFAULT_OUTPUT_LOAD;

/// Statistical timing results for a whole pipeline.
#[derive(Debug, Clone)]
pub struct PipelineTiming {
    /// Per-stage delay distributions (including latch overhead).
    pub stage_delays: Vec<Normal>,
    /// Per-stage canonical forms (for covariance queries).
    pub canonical: Vec<CanonicalDelay>,
    /// Stage-to-stage correlation matrix.
    pub correlation: CorrelationMatrix,
}

impl PipelineTiming {
    /// Per-stage means (ps).
    pub fn means(&self) -> Vec<f64> {
        self.stage_delays.iter().map(Normal::mean).collect()
    }

    /// Per-stage standard deviations (ps).
    pub fn sds(&self) -> Vec<f64> {
        self.stage_delays.iter().map(Normal::sd).collect()
    }

    /// Per-stage yields `Φ((T − μᵢ)/σᵢ)` at a target delay — the
    /// yield-at-target evaluation the sizing flow (and the Table II/III
    /// reports) read per stage.
    pub fn stage_yields(&self, target_ps: f64) -> Vec<f64> {
        self.stage_delays.iter().map(|n| n.cdf(target_ps)).collect()
    }

    /// Recombines per-stage *combinational* canonical delays into the
    /// pipeline timing: adds the latch overhead of eq. (1) to each stage
    /// as an independent term, then takes the stage marginals and the
    /// correlation matrix of the shared factors.
    pub(crate) fn from_combinational<'a>(
        latch: LatchParams,
        comb: impl Iterator<Item = &'a CanonicalDelay>,
    ) -> PipelineTiming {
        let canonical: Vec<CanonicalDelay> = comb
            .map(|c| c.add_independent(latch.overhead_ps(), latch.overhead_sigma_ps()))
            .collect();
        let stage_delays: Vec<Normal> = canonical.iter().map(CanonicalDelay::to_normal).collect();
        let n = canonical.len();
        let corr = SymMatrix::from_fn(n, |i, j| {
            if i == j {
                1.0
            } else {
                canonical[i].correlation(&canonical[j])
            }
        });
        let correlation = CorrelationMatrix::from_matrix(corr)
            .expect("canonical correlations are valid by construction");
        PipelineTiming {
            stage_delays,
            canonical,
            correlation,
        }
    }
}

/// The SSTA engine: a cell library, a variation model, and a spatial grid.
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct SstaEngine {
    lib: CellLibrary,
    variation: VariationConfig,
    grid: Option<SpatialGrid>,
    basis: FactorBasis,
    output_load: f64,
}

impl SstaEngine {
    /// Creates an engine. When the variation config has a systematic
    /// component and no grid is given, a default 4×4 grid is used.
    pub fn new(lib: CellLibrary, variation: VariationConfig, grid: Option<SpatialGrid>) -> Self {
        let grid = if variation.has_systematic() {
            Some(grid.unwrap_or_else(|| SpatialGrid::new(4, 4, variation.correlation_length())))
        } else {
            grid
        };
        let basis = FactorBasis::new(&variation, grid.as_ref());
        SstaEngine {
            lib,
            variation,
            grid,
            basis,
            output_load: DEFAULT_OUTPUT_LOAD,
        }
    }

    /// Sets the primary-output load (min-inverter units).
    ///
    /// # Panics
    ///
    /// Panics if `load < 0`.
    pub fn with_output_load(mut self, load: f64) -> Self {
        assert!(load >= 0.0, "output load must be non-negative");
        self.output_load = load;
        self
    }

    /// The cell library.
    pub fn library(&self) -> &CellLibrary {
        &self.lib
    }

    /// The variation configuration.
    pub fn variation(&self) -> &VariationConfig {
        &self.variation
    }

    /// The spatial grid, if any.
    pub fn grid(&self) -> Option<&SpatialGrid> {
        self.grid.as_ref()
    }

    /// The configured output load.
    pub fn output_load(&self) -> f64 {
        self.output_load
    }

    /// The shared factor basis (for the incremental analyzer).
    pub(crate) fn basis(&self) -> &FactorBasis {
        &self.basis
    }

    /// Canonical arrival time of every signal in a stage netlist placed in
    /// spatial region `region`.
    ///
    /// # Panics
    ///
    /// Panics if `region` is out of range for the configured grid.
    pub fn arrival_canonical(&self, netlist: &Netlist, region: usize) -> Vec<CanonicalDelay> {
        let loads = netlist.loads(self.output_load);
        self.forward_pass(netlist, &loads, region, CanonicalDelay::max_assign, |_| {})
    }

    /// The forward pass of every canonical analysis: per gate, its delay
    /// under `loads` (shown to `on_gate`) plus the left-to-right `join`
    /// of its fanin arrivals. Allocates only the returned arrivals.
    pub(crate) fn forward_pass(
        &self,
        netlist: &Netlist,
        loads: &[f64],
        region: usize,
        join: impl Fn(&mut CanonicalDelay, &CanonicalDelay),
        mut on_gate: impl FnMut(&CanonicalDelay),
    ) -> Vec<CanonicalDelay> {
        let ni = netlist.input_count();
        let mut at: Vec<CanonicalDelay> = Vec::with_capacity(ni + netlist.gate_count());
        at.resize(ni, self.basis.zero());
        let mut d = self.basis.zero();
        let mut t_in = self.basis.zero();
        for (i, g) in netlist.gates().iter().enumerate() {
            self.basis.gate_delay_into(
                &mut d,
                &self.lib,
                &self.variation,
                g.kind,
                g.size,
                loads[ni + i],
                region,
            );
            let mut fanins = g.fanins.iter();
            let first = fanins.next().expect("gates have at least one fanin");
            t_in.copy_from(&at[first.0]);
            for f in fanins {
                join(&mut t_in, &at[f.0]);
            }
            t_in.add_assign(&d);
            at.push(t_in.clone());
            on_gate(&d);
        }
        at
    }

    /// Canonical combinational delay of a stage: Clark max over primary
    /// outputs.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has no outputs or `region` is out of range.
    pub fn stage_delay_canonical(&self, netlist: &Netlist, region: usize) -> CanonicalDelay {
        assert!(
            !netlist.outputs().is_empty(),
            "stage delay requires at least one primary output"
        );
        let at = self.arrival_canonical(netlist, region);
        CanonicalDelay::max_of(netlist.outputs().iter().map(|o| &at[o.0]))
    }

    /// Marginal stage delay distribution (combinational only).
    ///
    /// # Panics
    ///
    /// See [`Self::stage_delay_canonical`].
    pub fn stage_delay(&self, netlist: &Netlist, region: usize) -> Normal {
        self.stage_delay_canonical(netlist, region).to_normal()
    }

    /// Statistical **contamination (min) delay** of a stage: Clark-min of
    /// the earliest arrival over primary outputs. This is the quantity a
    /// hold-time check races against the clock edge — under variation a
    /// fast path on a fast die can violate hold even when the nominal
    /// design is safe.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has no outputs or `region` is out of range.
    pub fn stage_min_delay(&self, netlist: &Netlist, region: usize) -> Normal {
        assert!(
            !netlist.outputs().is_empty(),
            "min delay requires at least one primary output"
        );
        let loads = netlist.loads(self.output_load);
        let at = self.forward_pass(netlist, &loads, region, |a, x| *a = a.min(x), |_| {});
        CanonicalDelay::min_of(netlist.outputs().iter().map(|o| &at[o.0])).to_normal()
    }

    /// Probability that a stage meets a hold requirement: its
    /// contamination delay (plus the launching latch's clock-to-Q) exceeds
    /// `t_hold_ps`.
    ///
    /// # Panics
    ///
    /// See [`Self::stage_min_delay`].
    pub fn hold_yield(&self, netlist: &Netlist, region: usize, tcq_ps: f64, t_hold_ps: f64) -> f64 {
        let min_d = self.stage_min_delay(netlist, region);
        // Pr{tcq + min_delay >= t_hold}.
        1.0 - min_d.cdf(t_hold_ps - tcq_ps)
    }

    /// Full-pipeline analysis: per-stage delay (combinational + latch
    /// overhead, eq. 1) and the stage correlation matrix.
    ///
    /// # Panics
    ///
    /// Panics if any stage has no outputs.
    pub fn analyze_pipeline(&self, pipeline: &StagedPipeline) -> PipelineTiming {
        let stages = pipeline.stages();
        // Distinct (stage index, region, combinational canonical delay)
        // representatives; `pick[i]` is stage i's representative (see the
        // module docs for why reuse is bit-identical).
        let mut reps: Vec<(usize, usize, CanonicalDelay)> = Vec::new();
        let mut pick = Vec::with_capacity(stages.len());
        for (i, (stage, pos)) in stages.iter().zip(pipeline.positions()).enumerate() {
            let region = self.grid.as_ref().map_or(0, |g| g.region_of(*pos));
            let k = reps
                .iter()
                .position(|(j, r, _)| *r == region && stages[*j] == *stage)
                .unwrap_or_else(|| {
                    reps.push((i, region, self.stage_delay_canonical(stage, region)));
                    reps.len() - 1
                });
            pick.push(k);
        }
        PipelineTiming::from_combinational(pipeline.latch(), pick.iter().map(|&k| &reps[k].2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vardelay_circuit::generators::inverter_chain;
    use vardelay_circuit::LatchParams;

    fn engine(var: VariationConfig) -> SstaEngine {
        SstaEngine::new(CellLibrary::default(), var, None).with_output_load(1.0)
    }

    #[test]
    fn chain_mean_is_nominal_sum() {
        let e = engine(VariationConfig::random_only(35.0));
        let c = inverter_chain(8, 1.0);
        let d = e.stage_delay(&c, 0);
        let nominal = crate::sta::nominal_delay(&c, e.library(), 1.0);
        assert!((d.mean() - nominal).abs() < 1e-9);
    }

    #[test]
    fn random_variability_falls_with_depth() {
        // Fig. 5(a): σ/μ of a stage shrinks as 1/sqrt(NL) under purely
        // random intra-die variation.
        let e = engine(VariationConfig::random_only(35.0));
        let v10 = e.stage_delay(&inverter_chain(10, 1.0), 0).variability();
        let v40 = e.stage_delay(&inverter_chain(40, 1.0), 0).variability();
        assert!(
            (v40 - v10 / 2.0).abs() < 0.1 * v10,
            "v10={v10} v40={v40} (expected 1/sqrt(4) scaling)"
        );
    }

    #[test]
    fn inter_variability_flat_with_depth() {
        // Fig. 5(a): under inter-die-only variation σ/μ is depth-independent.
        let e = engine(VariationConfig::inter_only(40.0));
        let v10 = e.stage_delay(&inverter_chain(10, 1.0), 0).variability();
        let v40 = e.stage_delay(&inverter_chain(40, 1.0), 0).variability();
        assert!(
            (v40 - v10).abs() < 1e-9 * v10.max(1.0),
            "v10={v10} v40={v40}"
        );
    }

    #[test]
    fn pipeline_correlation_matches_variation_mode() {
        let stages = |_n: usize| StagedPipeline::inverter_grid(4, 8, 1.0, LatchParams::ideal());
        // Random-only: stages independent.
        let t = engine(VariationConfig::random_only(35.0)).analyze_pipeline(&stages(4));
        assert!(t.correlation.get(0, 1).abs() < 1e-12);
        // Inter-only: stages perfectly correlated.
        let t = engine(VariationConfig::inter_only(40.0)).analyze_pipeline(&stages(4));
        assert!((t.correlation.get(0, 3) - 1.0).abs() < 1e-9);
        // Combined: partial correlation.
        let t = engine(VariationConfig::combined(20.0, 35.0, 15.0)).analyze_pipeline(&stages(4));
        let rho = t.correlation.get(0, 1);
        assert!(rho > 0.1 && rho < 0.999, "rho={rho}");
    }

    #[test]
    fn systematic_correlation_decays_along_pipeline() {
        let grid = SpatialGrid::new(1, 8, 0.25);
        let e = SstaEngine::new(
            CellLibrary::default(),
            VariationConfig::combined(0.0, 10.0, 30.0),
            Some(grid),
        );
        let p = StagedPipeline::inverter_grid(8, 8, 1.0, LatchParams::ideal());
        let t = e.analyze_pipeline(&p);
        assert!(
            t.correlation.get(0, 1) > t.correlation.get(0, 7),
            "near stages more correlated: {} vs {}",
            t.correlation.get(0, 1),
            t.correlation.get(0, 7)
        );
    }

    #[test]
    fn min_delay_bounds_max_delay() {
        let e = engine(VariationConfig::random_only(35.0));
        let c = inverter_chain(8, 1.0);
        // Single-path circuit: min == max.
        let mn = e.stage_min_delay(&c, 0);
        let mx = e.stage_delay(&c, 0);
        assert!((mn.mean() - mx.mean()).abs() < 1e-9);
        // Multi-path circuit: min strictly below max.
        use vardelay_circuit::generators::{random_logic, RandomLogicConfig};
        let n = random_logic(&RandomLogicConfig::new("hold", 41));
        let mn = e.stage_min_delay(&n, 0);
        let mx = e.stage_delay(&n, 0);
        assert!(
            mn.mean() < mx.mean(),
            "min {} !< max {}",
            mn.mean(),
            mx.mean()
        );
        assert!(mn.mean() > 0.0);
    }

    #[test]
    fn hold_yield_monotone_in_requirement() {
        let e = engine(VariationConfig::random_only(35.0));
        let c = inverter_chain(4, 1.0);
        let y_easy = e.hold_yield(&c, 0, 5.0, 10.0);
        let y_hard = e.hold_yield(&c, 0, 5.0, 45.0);
        assert!(y_easy > y_hard, "easier hold target, higher yield");
        assert!(y_easy > 0.999, "4 FO1 gates + tcq easily beat 10 ps hold");
    }

    /// `analyze_pipeline` must equal, bit for bit, a reference that
    /// times every stage on its own (no de-duplication).
    fn assert_matches_per_stage_reference(e: &SstaEngine, p: &StagedPipeline) {
        let latch = p.latch();
        let reference: Vec<CanonicalDelay> = p
            .stages()
            .iter()
            .zip(p.positions())
            .map(|(stage, pos)| {
                let region = e.grid().map_or(0, |g| g.region_of(*pos));
                e.stage_delay_canonical(stage, region)
                    .add_independent(latch.overhead_ps(), latch.overhead_sigma_ps())
            })
            .collect();
        let t = e.analyze_pipeline(p);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let canon_bits = |c: &CanonicalDelay| bits(&[&[c.mean(), c.indep()], c.shared()].concat());
        let want_means: Vec<f64> = reference.iter().map(|c| c.to_normal().mean()).collect();
        let want_sds: Vec<f64> = reference.iter().map(|c| c.to_normal().sd()).collect();
        assert_eq!(bits(&t.means()), bits(&want_means));
        assert_eq!(bits(&t.sds()), bits(&want_sds));
        let n = reference.len();
        for i in 0..n {
            assert_eq!(canon_bits(&t.canonical[i]), canon_bits(&reference[i]));
            for j in 0..n {
                let want = if i == j {
                    1.0
                } else {
                    reference[i].correlation(&reference[j])
                };
                assert_eq!(
                    t.correlation.get(i, j).to_bits(),
                    want.to_bits(),
                    "correlation ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn dedup_homogeneous_grid_is_bit_exact() {
        let e = engine(VariationConfig::random_only(35.0));
        let p = StagedPipeline::inverter_grid(6, 12, 1.3, LatchParams::tg_msff_70nm());
        assert_matches_per_stage_reference(&e, &p);
    }

    #[test]
    fn dedup_across_spatial_regions_is_bit_exact() {
        let e = engine(VariationConfig::combined(20.0, 35.0, 15.0));
        let p = StagedPipeline::inverter_grid(10, 9, 1.0, LatchParams::tg_msff_70nm());
        // The default 4x4 grid puts the stages in several regions, so
        // equal netlists in different regions must not share a result.
        let grid = e.grid().expect("systematic variation implies a grid");
        let mut regions: Vec<usize> = p.positions().iter().map(|q| grid.region_of(*q)).collect();
        regions.dedup();
        assert!(regions.len() >= 3, "stages span regions {regions:?}");
        assert_matches_per_stage_reference(&e, &p);
    }

    #[test]
    fn dedup_mixed_repeated_and_distinct_stages_is_bit_exact() {
        use vardelay_circuit::generators::{random_logic, RandomLogicConfig};
        let rand = |seed| random_logic(&RandomLogicConfig::new("mix", seed));
        // Under the 4x4 grid, stages 2k and 2k+1 share a region: equal
        // pairs there are reused, equal stages elsewhere are not.
        let stages = vec![
            inverter_chain(9, 1.0),
            inverter_chain(9, 1.0),
            rand(5),
            rand(5),
            inverter_chain(12, 1.0),
            inverter_chain(9, 1.0),
            rand(7),
            inverter_chain(12, 2.0),
        ];
        let p = StagedPipeline::new("mix", stages, LatchParams::tg_msff_70nm());
        for var in [
            VariationConfig::random_only(35.0),
            VariationConfig::combined(20.0, 35.0, 15.0),
        ] {
            assert_matches_per_stage_reference(&engine(var), &p);
        }
    }

    #[test]
    fn latch_overhead_added_per_stage() {
        let e = engine(VariationConfig::none());
        let with_latch = StagedPipeline::inverter_grid(2, 8, 1.0, LatchParams::tg_msff_70nm());
        let without = StagedPipeline::inverter_grid(2, 8, 1.0, LatchParams::ideal());
        let a = e.analyze_pipeline(&with_latch);
        let b = e.analyze_pipeline(&without);
        let diff = a.stage_delays[0].mean() - b.stage_delays[0].mean();
        assert!((diff - 8.0).abs() < 1e-9, "latch overhead 8 ps, got {diff}");
        assert!(a.stage_delays[0].sd() > b.stage_delays[0].sd());
    }
}
