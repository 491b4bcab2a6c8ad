//! The versioned trial-plan (sampling-strategy) contracts.
//!
//! A *trial plan* selects how the counter-based per-trial streams are
//! turned into variation draws, orthogonally to the [`crate::kernel`]
//! contract (which pins the arithmetic). Every plan is a determinism
//! contract exactly like `kernel: v2`: for a fixed spec and plan, result
//! bytes are invariant across worker counts, shard splits, resume
//! splices, tracing, and caching — and a non-plain plan is **never**
//! byte-identical to plain Monte-Carlo (it agrees statistically, at
//! matched confidence intervals, in fewer trials).
//!
//! The plan modifies only the *leading die-level* draws of each trial
//! (the inter-die normal, then the correlated-region normals, or the
//! stage normals of the moments backend) and leaves the rest of the
//! stream to the plain counter-based RNG:
//!
//! * **plain** — the identity plan: every trial replays its own seed
//!   with sign `1.0`, no lead overrides and no mean shift. Every
//!   sampler runs plain Monte-Carlo through the same plan-aware code as
//!   the other plans; the identity overlay changes no bit of the
//!   unmodified stream, so plain bytes are the historical bytes.
//! * **antithetic** — trial `2k+1` replays trial `2k`'s stream with
//!   every produced standard normal negated. Pairs never straddle the
//!   engine's 256-trial blocks (the block size is even), so block
//!   scheduling cannot split a pair.
//! * **stratified** — within each aligned 256-trial block, the leading
//!   dims are replaced by jittered stratified quantiles under a keyed
//!   per-`(block, dim)` permutation (Latin-hypercube across dims).
//! * **sobol** — the leading dims are replaced by quantile-transformed
//!   digitally-shifted Sobol points addressed by the *global* trial
//!   index, so shards stay coordination-free.
//! * **blockade** — the inter-die normal is mean-shifted toward the
//!   failure region by `shift_sigmas` and every trial carries the
//!   likelihood-ratio weight; yields come from the self-normalized
//!   reweighted estimator with a delta-method confidence interval.
//!
//! Like the kernel, the plan is **excluded from scenario identity**:
//! identity pins what is simulated and the per-trial seed derivation
//! (shared by all plans), while the plan pins how draws are shaped.
//! Results land in distinct journal/cache entries per plan.

use vardelay_stats::sobol::{sobol_shift, SobolSequence, SOBOL_MAX_DIMS};
use vardelay_stats::strata::{permute256, stratified_uniform, stratum_key};
use vardelay_stats::{inv_cap_phi, splitmix64_mix, uniform_open_from_u64};

/// Stratified plans partition trials into aligned blocks of this many
/// strata. Equal to the sweep engine's scheduling block (`BLOCK_TRIALS`)
/// so a scheduled block covers every stratum exactly once, but frozen
/// here as part of the stratified contract: the stratum of a trial is a
/// pure function of its global index, never of scheduling.
pub const STRATA_BLOCK: u64 = 256;

/// Domain-separation salt for plan stream keys (scrambles, permutation
/// keys, jitters) so they never collide with trial seeds.
const PLAN_SALT: u64 = 0x7121_A150_0B0C_0001;

/// Default mean shift (in sigmas of the inter-die normal) for the
/// blockade plan.
pub const DEFAULT_SHIFT_SIGMAS: f64 = 3.0;

/// Which sampling-plan contract a Monte-Carlo runner executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TrialStrategy {
    /// Plain Monte-Carlo: the unmodified counter-based streams. Every
    /// result byte produced before plans were versioned is a plain byte.
    #[default]
    Plain,
    /// Antithetic pairs: odd trials replay their even partner reflected.
    Antithetic,
    /// Jittered stratified / Latin-hypercube sampling of the leading
    /// die-level dims per 256-trial block.
    Stratified,
    /// Digitally-shifted Sobol quasi-Monte-Carlo on the leading dims.
    Sobol,
    /// Statistical blockade: mean-shifted importance sampling of the
    /// inter-die normal with reweighted tail estimation.
    Blockade,
}

impl TrialStrategy {
    /// Stable lowercase name, used in specs, spans and reports.
    pub fn name(self) -> &'static str {
        match self {
            TrialStrategy::Plain => "plain",
            TrialStrategy::Antithetic => "antithetic",
            TrialStrategy::Stratified => "stratified",
            TrialStrategy::Sobol => "sobol",
            TrialStrategy::Blockade => "blockade",
        }
    }
}

/// A fully-resolved trial plan: the strategy plus its parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialPlan {
    /// The sampling-strategy contract.
    pub strategy: TrialStrategy,
    /// Mean shift in sigmas for [`TrialStrategy::Blockade`] (ignored by
    /// every other strategy).
    pub shift_sigmas: f64,
}

impl TrialPlan {
    /// The plain plan — the identity plan, whose bytes are the frozen
    /// pre-plan behavior.
    pub fn plain() -> Self {
        TrialPlan {
            strategy: TrialStrategy::Plain,
            shift_sigmas: DEFAULT_SHIFT_SIGMAS,
        }
    }

    /// A plan for `strategy` with default parameters.
    pub fn of(strategy: TrialStrategy) -> Self {
        TrialPlan {
            strategy,
            shift_sigmas: DEFAULT_SHIFT_SIGMAS,
        }
    }

    /// Whether this is the plain plan (the identity plan: samplers run
    /// it like any other plan, and it modifies nothing).
    pub fn is_plain(&self) -> bool {
        self.strategy == TrialStrategy::Plain
    }

    /// Whether trials under this plan carry importance weights.
    pub fn is_weighted(&self) -> bool {
        self.strategy == TrialStrategy::Blockade
    }
}

impl Default for TrialPlan {
    fn default() -> Self {
        TrialPlan::plain()
    }
}

/// Per-block driver deriving each trial's stream modifications under a
/// plan: the seed index to replay, the global sign, the leading-dim
/// overrides, and the mean shift. Under the plain plan these are the
/// identity (`(t, 1.0)`, no overrides, shift `0`).
///
/// Everything it produces is a pure function of
/// `(plan, stream key, global trial index)` — the stream key itself is
/// derived from the scenario's counter seed at trial 0 — so any worker,
/// shard, or resumed run derives identical modifications without
/// coordination.
#[derive(Debug, Clone)]
pub struct PlanSampler {
    plan: TrialPlan,
    dims: usize,
    stream_key: u64,
    sobol: Option<SobolSequence>,
    shifts: Vec<u32>,
    lead: Vec<f64>,
}

impl PlanSampler {
    /// Builds the driver for one runner.
    ///
    /// `dims` is the number of leading die-level standard-normal dims the
    /// runner draws per trial (inter-die + correlated regions, or the
    /// moments dimension); stratified/sobol overrides are capped at
    /// [`SOBOL_MAX_DIMS`]. `seed0` must be the runner's counter seed for
    /// trial index 0 (`seed_of(0)`), from which the plan's scramble /
    /// permutation / jitter streams are derived.
    pub fn new(plan: TrialPlan, dims: usize, seed0: u64) -> Self {
        let dims = match plan.strategy {
            TrialStrategy::Stratified | TrialStrategy::Sobol => dims.min(SOBOL_MAX_DIMS),
            _ => 0,
        };
        let stream_key = splitmix64_mix(seed0 ^ PLAN_SALT);
        let sobol = (plan.strategy == TrialStrategy::Sobol).then(|| SobolSequence::new(dims));
        let shifts = if plan.strategy == TrialStrategy::Sobol {
            (0..dims).map(|d| sobol_shift(stream_key, d)).collect()
        } else {
            Vec::new()
        };
        PlanSampler {
            plan,
            dims,
            stream_key,
            sobol,
            shifts,
            lead: Vec::new(),
        }
    }

    /// The plan being driven.
    pub fn plan(&self) -> TrialPlan {
        self.plan
    }

    /// Derives trial `t`'s modifications. Returns `(seed_index, sign)`:
    /// seed the trial RNG from `seed_of(seed_index)` and multiply every
    /// produced standard normal by `sign`. The leading-dim overrides are
    /// left in [`PlanSampler::lead`] and the mean shift in
    /// [`PlanSampler::shift`].
    pub fn prepare_trial(&mut self, t: u64) -> (u64, f64) {
        match self.plan.strategy {
            TrialStrategy::Plain | TrialStrategy::Blockade => {
                self.lead.clear();
                (t, 1.0)
            }
            TrialStrategy::Antithetic => {
                // Pair (2k, 2k+1): the odd trial replays the even seed
                // reflected. STRATA_BLOCK-aligned scheduling blocks are
                // even-sized, so a pair never straddles a block.
                self.lead.clear();
                (t & !1, if t & 1 == 0 { 1.0 } else { -1.0 })
            }
            TrialStrategy::Stratified => {
                let block = t / STRATA_BLOCK;
                let slot = (t % STRATA_BLOCK) as u8;
                self.lead.clear();
                for d in 0..self.dims {
                    let key = stratum_key(self.stream_key, block, d);
                    let stratum = u64::from(permute256(key, slot));
                    let jitter = uniform_open_from_u64(splitmix64_mix(
                        key ^ u64::from(slot).wrapping_mul(0xff51_afd7_ed55_8ccd),
                    ));
                    let u = stratified_uniform(stratum, jitter, STRATA_BLOCK);
                    self.lead.push(inv_cap_phi(u));
                }
                (t, 1.0)
            }
            TrialStrategy::Sobol => {
                let seq = self.sobol.as_ref().expect("sobol plan has a sequence");
                self.lead.clear();
                for d in 0..self.dims {
                    let u = seq.scrambled_uniform(d, t, self.shifts[d]);
                    self.lead.push(inv_cap_phi(u));
                }
                (t, 1.0)
            }
        }
    }

    /// Leading-dim standard-normal overrides for the trial last passed
    /// to [`PlanSampler::prepare_trial`] (empty when the plan overrides
    /// nothing).
    pub fn lead(&self) -> &[f64] {
        &self.lead
    }

    /// Mean shift applied to the inter-die (first) normal, in sigmas
    /// (0 for unweighted plans).
    pub fn shift(&self) -> f64 {
        match self.plan.strategy {
            TrialStrategy::Blockade => self.plan.shift_sigmas,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_default() {
        assert_eq!(TrialStrategy::default(), TrialStrategy::Plain);
        assert_eq!(TrialStrategy::Plain.name(), "plain");
        assert_eq!(TrialStrategy::Antithetic.name(), "antithetic");
        assert_eq!(TrialStrategy::Stratified.name(), "stratified");
        assert_eq!(TrialStrategy::Sobol.name(), "sobol");
        assert_eq!(TrialStrategy::Blockade.name(), "blockade");
        assert!(TrialPlan::default().is_plain());
        assert!(!TrialPlan::default().is_weighted());
        assert!(TrialPlan::of(TrialStrategy::Blockade).is_weighted());
    }

    #[test]
    fn antithetic_pairs_share_seed_index_and_reflect() {
        let mut ps = PlanSampler::new(TrialPlan::of(TrialStrategy::Antithetic), 5, 42);
        let (s0, g0) = ps.prepare_trial(10);
        let (s1, g1) = ps.prepare_trial(11);
        assert_eq!(s0, 10);
        assert_eq!(s1, 10, "odd trial must replay its even partner");
        assert_eq!(g0, 1.0);
        assert_eq!(g1, -1.0);
        assert!(ps.lead().is_empty());
        // Pairs never straddle a block boundary: the pair of the last
        // even trial of a block is in the same block.
        assert_eq!((STRATA_BLOCK - 1) & !1, STRATA_BLOCK - 2);
    }

    #[test]
    fn stratified_block_covers_every_stratum_once() {
        let mut ps = PlanSampler::new(TrialPlan::of(TrialStrategy::Stratified), 2, 7);
        for d in 0..2usize {
            let mut seen = [false; STRATA_BLOCK as usize];
            for t in 0..STRATA_BLOCK {
                ps.prepare_trial(t);
                let u = vardelay_stats::cap_phi(ps.lead()[d]);
                let cell = ((u * STRATA_BLOCK as f64) as usize).min(STRATA_BLOCK as usize - 1);
                assert!(!seen[cell], "dim {d}: stratum {cell} hit twice");
                seen[cell] = true;
            }
        }
    }

    #[test]
    fn sobol_overrides_are_index_addressed() {
        let mut a = PlanSampler::new(TrialPlan::of(TrialStrategy::Sobol), 3, 99);
        let mut b = PlanSampler::new(TrialPlan::of(TrialStrategy::Sobol), 3, 99);
        a.prepare_trial(5000);
        b.prepare_trial(5000);
        assert_eq!(a.lead(), b.lead(), "same index must give same point");
        b.prepare_trial(5001);
        assert_ne!(a.lead(), b.lead());
        // A different stream key re-scrambles the points.
        let mut c = PlanSampler::new(TrialPlan::of(TrialStrategy::Sobol), 3, 100);
        c.prepare_trial(5000);
        assert_ne!(a.lead(), c.lead());
    }

    #[test]
    fn blockade_shifts_without_overriding() {
        let mut ps = PlanSampler::new(TrialPlan::of(TrialStrategy::Blockade), 4, 1);
        let (s, g) = ps.prepare_trial(33);
        assert_eq!((s, g), (33, 1.0));
        assert!(ps.lead().is_empty());
        assert_eq!(ps.shift(), DEFAULT_SHIFT_SIGMAS);
        let mut st = PlanSampler::new(TrialPlan::of(TrialStrategy::Stratified), 4, 1);
        st.prepare_trial(33);
        assert_eq!(st.shift(), 0.0);
    }

    /// The plain plan is the identity: every trial replays its own
    /// seed unreflected, with no overrides and no shift — inside a block
    /// and across block boundaries alike.
    #[test]
    fn plain_plan_is_the_identity() {
        let mut ps = PlanSampler::new(TrialPlan::plain(), 5, 42);
        for t in (0..3 * STRATA_BLOCK).chain([u64::MAX - 1, u64::MAX]) {
            assert_eq!(ps.prepare_trial(t), (t, 1.0), "trial {t}");
            assert!(ps.lead().is_empty(), "trial {t} has lead overrides");
            assert_eq!(ps.shift(), 0.0);
        }
    }
}
