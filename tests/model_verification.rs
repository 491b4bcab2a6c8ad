//! Integration tests spanning crates: the §2.4 model-verification loop
//! (SSTA stage moments + Clark model vs full Monte-Carlo).

use vardelay::circuit::{CellLibrary, LatchParams, StagedPipeline};
use vardelay::core::{Pipeline, StageDelay};
use vardelay::mc::{PipelineBlockStats, PipelineMc, PreparedPipelineMc};
use vardelay::process::VariationConfig;
use vardelay::ssta::SstaEngine;
use vardelay::stats::counter_seed;

fn analytic_pipeline(var: VariationConfig, pipe: &StagedPipeline) -> Pipeline {
    let timing = SstaEngine::new(CellLibrary::default(), var, None).analyze_pipeline(pipe);
    let stages: Vec<StageDelay> = timing
        .stage_delays
        .iter()
        .map(|n| StageDelay::from_normal(*n))
        .collect();
    Pipeline::new(stages, timing.correlation).expect("consistent dims")
}

/// Monte-Carlo of `pipe` over trials `0..trials`, seeded
/// `counter_seed(seed, t)`, counting yield at each of `targets`.
fn monte_carlo(
    var: VariationConfig,
    pipe: &StagedPipeline,
    trials: u64,
    seed: u64,
    targets: &[f64],
) -> PipelineBlockStats {
    let mc = PipelineMc::new(CellLibrary::default(), var, None);
    let prepared = PreparedPipelineMc::new(&mc, pipe);
    let mut stats = PipelineBlockStats::new(pipe.stage_count(), targets);
    prepared.run_block(
        &mut prepared.workspace(),
        0..trials,
        |t| counter_seed(seed, t),
        &mut stats,
    );
    stats
}

fn run_case(var: VariationConfig, ns: usize, nl: usize, seed: u64) {
    let pipe = StagedPipeline::inverter_grid(ns, nl, 1.0, LatchParams::tg_msff_70nm());
    let model = analytic_pipeline(var, &pipe).delay_distribution();
    let mc = monte_carlo(var, &pipe, 15_000, seed, &[]);
    let (mc_mean, mc_sd) = (mc.pipeline().mean(), mc.pipeline().sample_sd());
    let mean_err = (model.mean() - mc_mean).abs() / mc_mean;
    let sd_err = (model.sd() - mc_sd).abs() / mc_sd;
    assert!(
        mean_err < 0.01,
        "{ns}x{nl}: mean error {:.3}% too large (model {} vs MC {})",
        100.0 * mean_err,
        model.mean(),
        mc_mean
    );
    assert!(
        sd_err < 0.25,
        "{ns}x{nl}: sd error {:.1}% too large (model {} vs MC {})",
        100.0 * sd_err,
        model.sd(),
        mc_sd
    );
}

#[test]
fn model_tracks_mc_random_intra() {
    run_case(VariationConfig::random_only(35.0), 5, 8, 11);
}

#[test]
fn model_tracks_mc_inter_only() {
    run_case(VariationConfig::inter_only(40.0), 5, 8, 12);
}

#[test]
fn model_tracks_mc_combined() {
    run_case(VariationConfig::combined(20.0, 35.0, 15.0), 5, 8, 13);
}

#[test]
fn model_tracks_mc_wide_shallow() {
    run_case(VariationConfig::random_only(35.0), 8, 5, 14);
}

#[test]
fn yield_model_tracks_mc_across_targets() {
    let var = VariationConfig::combined(20.0, 35.0, 15.0);
    let pipe = StagedPipeline::inverter_grid(5, 8, 1.0, LatchParams::tg_msff_70nm());
    let model = analytic_pipeline(var, &pipe);
    let d = model.delay_distribution();
    let qs = [0.25, 0.5, 0.75, 0.9];
    let targets = qs.map(|q| d.quantile(q));
    let mc = monte_carlo(var, &pipe, 20_000, 15, &targets);
    for (i, (q, t)) in qs.into_iter().zip(targets).enumerate() {
        let y_model = model.yield_at(t);
        let y_mc = mc.yield_estimate(i).value;
        assert!(
            (y_model - y_mc).abs() < 0.06,
            "q={q}: model {y_model} vs mc {y_mc}"
        );
    }
}

#[test]
fn inter_die_dominance_correlates_stages() {
    // Correlation matrix from SSTA should reflect the variation mix.
    let pipe = StagedPipeline::inverter_grid(4, 8, 1.0, LatchParams::ideal());
    let lib = CellLibrary::default;
    let rho_of = |var: VariationConfig| {
        SstaEngine::new(lib(), var, None)
            .analyze_pipeline(&pipe)
            .correlation
            .get(0, 1)
    };
    let rho_rand = rho_of(VariationConfig::random_only(35.0));
    let rho_mix = rho_of(VariationConfig::combined(20.0, 35.0, 0.0));
    let rho_inter = rho_of(VariationConfig::inter_only(40.0));
    assert!(rho_rand < 1e-9);
    assert!(rho_mix > 0.3 && rho_mix < 0.999, "rho_mix = {rho_mix}");
    assert!((rho_inter - 1.0).abs() < 1e-9);
}
