//! Golden byte identity. Each checked-in result file was generated
//! **before** a timing-path optimization landed, so these tests are the
//! optimization's contract made executable: it must reproduce the JSON
//! byte for byte, at any worker count, or it is not a pure optimization.
//!
//! * `campaign_result.json` predates the incremental timing kernel.
//! * `sweep_result.json` predates the per-pipeline stage
//!   de-duplication of the SSTA analysis: an analytic grid under both
//!   variation modes (random-only, and combined with systematic, where
//!   equal stages sit in different spatial regions), pipelines with
//!   repeated chain depths and a repeated random-logic stage, and one
//!   small gate-level Monte-Carlo scenario.
//! * `gate_level_result.json` predates the single gate-level
//!   Monte-Carlo runner: both gate-level backends (`pipeline` and
//!   `netlist`) under every trial kernel (v1/v2/v3) and every trial plan
//!   (plain, antithetic, stratified, Sobol, blockade), on inverter-stage
//!   and mixed random-logic pipelines under combined variation.
//! * `moments_result.json` predates the single trial-plan path (plain
//!   Monte-Carlo run as the identity plan): correlated moment-form
//!   pipelines on the joint-Gaussian sampler under every trial kernel
//!   (v1/v2/v3) and every trial plan.
//!
//! To regenerate after an *intentional* experiment change (new spec
//! fields, different defaults — anything that legitimately changes the
//! bytes), run:
//!
//! ```text
//! cargo run --release -- optimize crates/engine/tests/golden/campaign_spec.json \
//!     --out crates/engine/tests/golden/campaign_result.json
//! cargo run --release -- sweep crates/engine/tests/golden/sweep_spec.json \
//!     --out crates/engine/tests/golden/sweep_result.json
//! cargo run --release -- sweep crates/engine/tests/golden/gate_level_spec.json \
//!     --out crates/engine/tests/golden/gate_level_result.json
//! cargo run --release -- sweep crates/engine/tests/golden/moments_spec.json \
//!     --out crates/engine/tests/golden/moments_result.json
//! ```
//!
//! and say so in the PR — a diff in these fixtures is an experiment
//! change, never a by-product.

use vardelay_engine::optimize::{run_campaign, OptimizationCampaign};
use vardelay_engine::{run_sweep, Sweep, SweepOptions};

const SPEC: &str = include_str!("golden/campaign_spec.json");
const GOLDEN: &str = include_str!("golden/campaign_result.json");
const SWEEP_SPEC: &str = include_str!("golden/sweep_spec.json");
const SWEEP_GOLDEN: &str = include_str!("golden/sweep_result.json");
const GATE_LEVEL_SPEC: &str = include_str!("golden/gate_level_spec.json");
const GATE_LEVEL_GOLDEN: &str = include_str!("golden/gate_level_result.json");
const MOMENTS_SPEC: &str = include_str!("golden/moments_spec.json");
const MOMENTS_GOLDEN: &str = include_str!("golden/moments_result.json");

#[test]
fn campaign_result_bytes_are_frozen() {
    let campaign = OptimizationCampaign::from_json(SPEC).expect("golden spec parses");
    // Covers both yield backends (the spec has one run on each), the
    // frontier-quantile target resolution, and MC verification.
    for workers in [1usize, 4] {
        let res = run_campaign(&campaign, &SweepOptions::sequential().with_workers(workers))
            .expect("golden campaign runs");
        assert_eq!(
            res.to_json(),
            GOLDEN,
            "campaign bytes drifted at {workers} workers — the timing kernel is no longer \
             a pure optimization (see this test's module docs before regenerating)"
        );
    }
}

#[test]
fn sweep_result_bytes_are_frozen() {
    for (spec, golden) in [
        (SWEEP_SPEC, SWEEP_GOLDEN),
        (GATE_LEVEL_SPEC, GATE_LEVEL_GOLDEN),
        (MOMENTS_SPEC, MOMENTS_GOLDEN),
    ] {
        let sweep = Sweep::from_json(spec).expect("golden sweep spec parses");
        for workers in [1usize, 3] {
            let res = run_sweep(&sweep, &SweepOptions::sequential().with_workers(workers))
                .expect("golden sweep runs");
            assert_eq!(
                res.to_json(),
                golden,
                "sweep '{}' bytes drifted at {workers} workers — the SSTA analysis or a \
                 Monte-Carlo sampler is no longer a pure optimization (see this test's \
                 module docs before regenerating)",
                sweep.name
            );
        }
    }
}
