//! Shared experiment fixtures: the calibrated setups every binary uses.

use vardelay_circuit::CellLibrary;
use vardelay_core::{Pipeline, StageDelay};
use vardelay_process::Technology;
use vardelay_ssta::PipelineTiming;

/// The standard cell library (BPTM-70nm-like).
pub fn library() -> CellLibrary {
    CellLibrary::new(Technology::bptm70())
}

/// The Tables II/III pipeline as a campaign spec: the four synthetic
/// ISCAS85 profiles, biggest first (the same stages and order as
/// [`vardelay_circuit::generators::iscas::table2_stages`]), behind the
/// paper's TG-MSFF — shared by the `table2`/`table3` campaign drivers.
pub fn iscas_pipeline_spec() -> vardelay_engine::PipelineSpec {
    vardelay_engine::PipelineSpec::Circuits {
        stages: ["c3540", "c2670", "c1908", "c432"]
            .iter()
            .map(|name| vardelay_engine::CircuitSpec::Iscas {
                name: (*name).to_owned(),
            })
            .collect(),
        latch: vardelay_engine::LatchSpec::TgMsff70nm,
    }
}

/// Converts an SSTA pipeline analysis into the core pipeline model.
pub fn to_core_pipeline(timing: &PipelineTiming) -> Pipeline {
    let stages: Vec<StageDelay> = timing
        .stage_delays
        .iter()
        .map(|n| StageDelay::from_normal(*n))
        .collect();
    Pipeline::new(stages, timing.correlation.clone())
        .expect("SSTA timing dimensions are consistent")
}

#[cfg(test)]
mod tests {
    use super::*;
    use vardelay_circuit::{LatchParams, StagedPipeline};
    use vardelay_mc::{PipelineBlockStats, PipelineMc, PreparedPipelineMc};
    use vardelay_process::VariationConfig;
    use vardelay_ssta::SstaEngine;
    use vardelay_stats::{counter_seed, Normal};

    #[test]
    fn iscas_spec_matches_table2_stages() {
        use vardelay_circuit::generators::iscas;
        let built = iscas_pipeline_spec().build("iscas4").unwrap();
        let want = iscas::table2_stages();
        assert_eq!(built.stage_count(), want.len());
        for (b, w) in built.stages().iter().zip(&want) {
            assert_eq!(b.gate_count(), w.gate_count());
        }
    }

    /// An `ns × nl` inverter-chain pipeline with the paper's flip-flops.
    fn inverter_pipeline(ns: usize, nl: usize) -> StagedPipeline {
        StagedPipeline::inverter_grid(ns, nl, 1.0, LatchParams::tg_msff_70nm())
    }

    #[test]
    fn comparison_row_errors_match_paper_bounds() {
        // The Table I methodology on a small 4x6 pipeline: per-stage
        // moments measured by Monte-Carlo plus the SSTA stage correlations
        // feed the Clark model, which must track the same Monte-Carlo
        // within the paper's reported error envelope (mean < ~1%,
        // sd < ~10% incl. MC noise).
        let var = VariationConfig::random_only(35.0);
        let p = inverter_pipeline(4, 6);
        let target_ps = 230.0;
        let prepared = PreparedPipelineMc::new(&PipelineMc::new(library(), var, None), &p);
        let mut mc = PipelineBlockStats::new(p.stage_count(), &[target_ps]);
        prepared.run_block(
            &mut prepared.workspace(),
            0..8_000,
            |t| counter_seed(42, t),
            &mut mc,
        );
        let correlation = SstaEngine::new(library(), var, None)
            .analyze_pipeline(&p)
            .correlation;
        let stages: Vec<StageDelay> = mc
            .stage_stats()
            .iter()
            .map(|s| StageDelay::from_moments(s.mean(), s.sample_sd()).unwrap())
            .collect();
        let model = Pipeline::new(stages, correlation).unwrap();
        let analytic = model.delay_distribution();
        let (mc_mean, mc_sd) = (mc.pipeline().mean(), mc.pipeline().sample_sd());
        let mean_error_pct = 100.0 * (analytic.mean() - mc_mean).abs() / mc_mean;
        let sd_error_pct = 100.0 * (analytic.sd() - mc_sd).abs() / mc_sd;
        assert!(mean_error_pct < 1.0, "mean err {mean_error_pct}");
        assert!(sd_error_pct < 12.0, "sd err {sd_error_pct}");
        assert!((mc.yield_estimate(0).value - model.yield_at(target_ps)).abs() < 0.05);
    }

    #[test]
    fn analytic_delay_exceeds_slowest_stage() {
        let p = inverter_pipeline(5, 8);
        let timing = SstaEngine::new(library(), VariationConfig::random_only(35.0), None)
            .analyze_pipeline(&p);
        let d = to_core_pipeline(&timing).delay_distribution();
        let slowest = timing
            .stage_delays
            .iter()
            .map(Normal::mean)
            .fold(0.0, f64::max);
        assert!(d.mean() >= slowest);
    }
}
