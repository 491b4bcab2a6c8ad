//! The versioned Monte-Carlo trial-kernel contract.
//!
//! A *trial kernel* is the complete recipe that turns a per-trial seed
//! into recorded statistics: how uniforms become normals, how slowdown
//! factors are evaluated, and in what order partial statistics merge.
//! Each kernel version is a **determinism contract**: for a fixed spec
//! and version, result bytes are invariant across worker counts, shard
//! splits, resume splices, and tracing. A faster kernel is therefore a
//! *new version* — never a silent change to an existing one — and two
//! versions agree only statistically (same distributions within Monte-
//! Carlo error), not byte-for-byte.
//!
//! The kernel version is deliberately **excluded from scenario identity
//! hashes**, exactly like the execution backend: identity pins *what is
//! simulated* (and the per-trial seed derivation, which all kernels
//! share), while the kernel pins *how the arithmetic runs*. Results land
//! in distinct journal entries per kernel, but a spec's seeds never move
//! when the kernel changes.

use std::ops::Range;

use crate::results::PipelineBlockStats;

/// Which trial-kernel contract a Monte-Carlo runner executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TrialKernel {
    /// The original scalar kernel: one Box–Muller normal at a time
    /// (cosine half only), exact `powf` slowdown factors, sequential
    /// statistics accumulation. Every result byte produced before
    /// kernels were versioned is a V1 byte.
    #[default]
    V1,
    /// The batch kernel: structure-of-arrays sampling with pair-
    /// producing Box–Muller for die-level normals, one-uniform
    /// inverse-CDF normals per gate, frozen polynomial
    /// `exp(α·ln(od/(od−ΔVth)))` slowdown factors, and statistics
    /// folded through [`V2_LANES`] lanes in a fixed merge order.
    V2,
    /// The wide kernel: the loop order flips from trial-major to
    /// lane-major. Up to [`V3_WIDTH`] trials are processed per pass —
    /// every trial's normals (inverse-CDF, die draws included) are
    /// generated up front into structure-of-arrays buffers, then each
    /// stage and gate is visited **once per pass** over contiguous
    /// per-lane `f64` rows, so slowdown evaluation and arrival-time
    /// propagation amortize their per-gate bookkeeping across the whole
    /// pass and vectorize. Statistics fold through [`V3_LANES`] lanes in
    /// a fixed merge order.
    V3,
}

impl TrialKernel {
    /// Every kernel contract, oldest first — the one list the CLI help,
    /// spec parser and validators derive the valid keyword set from, so
    /// a new kernel version cannot leave stale `v1|v2` strings behind.
    pub const ALL: [TrialKernel; 3] = [TrialKernel::V1, TrialKernel::V2, TrialKernel::V3];

    /// Stable lowercase name (`"v1"` / `"v2"` / `"v3"`), used in specs,
    /// spans and reports.
    pub fn name(self) -> &'static str {
        match self {
            TrialKernel::V1 => "v1",
            TrialKernel::V2 => "v2",
            TrialKernel::V3 => "v3",
        }
    }
}

impl TrialKernel {
    /// Calls `trial(t, acc)` for every `t` in `trials`, in ascending
    /// order, where `trial` records trial `t` into `acc`: the kernel's
    /// merge tree. v1 records straight into `stats`; v2 and v3 record
    /// into a [`LaneFold`] of [`V2_LANES`] / [`V3_LANES`] lanes that
    /// folds into `stats` at the end.
    pub fn fold_trials(
        self,
        stats: &mut PipelineBlockStats,
        trials: Range<u64>,
        mut trial: impl FnMut(u64, &mut PipelineBlockStats),
    ) {
        match self {
            TrialKernel::V1 => trials.for_each(|t| trial(t, stats)),
            TrialKernel::V2 => LaneFold::<V2_LANES>::run(stats, trials, trial),
            TrialKernel::V3 => LaneFold::<V3_LANES>::run(stats, trials, trial),
        }
    }
}

/// Number of statistics lanes in the v2 kernel's fixed merge tree.
///
/// v2 accumulates trial `t` into lane `t % V2_LANES` and folds the lanes
/// in ascending lane order at the end of every block. The lane count and
/// fold order are **part of the v2 contract**: floating-point merging is
/// order-sensitive, so freezing the tree is what makes v2 byte-identical
/// to itself at any worker count, shard split, or resume point (all of
/// which preserve block boundaries).
pub const V2_LANES: usize = 8;

/// Trials processed per v3 pass — the width of every structure-of-
/// arrays buffer in the wide kernel.
///
/// A pass generates all normals for up to `V3_WIDTH` trials up front
/// (die, latch, then gate draws, each lane from its own counter-seeded
/// RNG), transposes the gate draws into `W`-wide rows, and then walks
/// the pipeline lane-major: one slowdown evaluation and one arrival-
/// time propagation per gate covers the whole pass. Per-trial values
/// are pure functions of the trial index, so pass grouping (including
/// the ragged final pass of a block) never changes result bytes.
pub const V3_WIDTH: usize = 16;

/// Number of statistics lanes in the v3 kernel's fixed merge tree.
///
/// Identical in role to [`V2_LANES`]: trial `t` accumulates into lane
/// `t % V3_LANES` and lanes fold in ascending order at the end of every
/// block. Equal to [`V3_WIDTH`] so one pass feeds each lane exactly
/// once, but frozen independently — both are part of the v3 contract.
pub const V3_LANES: usize = 16;

/// The fixed merge tree of a lane-folded kernel: v2 with
/// `L = V2_LANES`, v3 with `L = V3_LANES`.
///
/// Trial `t` accumulates into lane `t % L` (through
/// [`PipelineBlockStats::record`] or, under a weighted trial plan,
/// [`PipelineBlockStats::record_weighted`]), and
/// [`LaneFold::merge_into`] folds the lanes into the block's statistics
/// in ascending lane order. The lane is a pure function of the global
/// trial index, so with the runner's fixed block partition the tree —
/// and with it the result bytes — is the same for any worker count,
/// shard split or resume point.
#[derive(Debug, Clone)]
pub struct LaneFold<const L: usize> {
    lanes: Vec<PipelineBlockStats>,
}

impl<const L: usize> LaneFold<L> {
    /// `L` empty lanes shaped like `stats` (see
    /// [`PipelineBlockStats::fresh_like`]).
    pub fn new(stats: &PipelineBlockStats) -> Self {
        LaneFold {
            lanes: (0..L).map(|_| stats.fresh_like()).collect(),
        }
    }

    /// The lane trial `t` records into.
    pub fn lane(&mut self, t: u64) -> &mut PipelineBlockStats {
        &mut self.lanes[(t % L as u64) as usize]
    }

    /// Folds every lane into `stats`, in ascending lane order.
    pub fn merge_into(self, stats: &mut PipelineBlockStats) {
        for lane in &self.lanes {
            stats.merge(lane);
        }
    }

    /// Calls `trial(t, lane)` for every `t` in `trials`, in ascending
    /// order, then folds the lanes into `stats`.
    pub fn run(
        stats: &mut PipelineBlockStats,
        trials: Range<u64>,
        mut trial: impl FnMut(u64, &mut PipelineBlockStats),
    ) {
        let mut fold = Self::new(stats);
        for t in trials {
            trial(t, fold.lane(t));
        }
        fold.merge_into(stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fold is exactly the hand-built tree: lane `t % L`, ascending
    /// merge, weighted tails carried through.
    #[test]
    fn lane_fold_matches_a_hand_built_merge_tree() {
        let make = || PipelineBlockStats::new(2, &[10.0]).with_weighted_tail();
        let trial = |t: u64| {
            let d = (t as f64 * 0.37).sin() * 3.0 + 9.0;
            ([d - 1.0, d], d, 1.0 + (t % 5) as f64 * 0.1)
        };
        let mut got = make();
        LaneFold::<3>::run(&mut got, 5..40, |t, lane| {
            let (stages, maxd, w) = trial(t);
            lane.record_weighted(&stages, maxd, w);
        });
        let mut lanes: Vec<PipelineBlockStats> = (0..3).map(|_| make()).collect();
        for t in 5..40u64 {
            let (stages, maxd, w) = trial(t);
            lanes[(t % 3) as usize].record_weighted(&stages, maxd, w);
        }
        let mut want = make();
        for lane in &lanes {
            want.merge(lane);
        }
        assert_eq!(got, want);
        assert_eq!(got.trials(), 35);
    }

    #[test]
    fn names_and_default() {
        assert_eq!(TrialKernel::default(), TrialKernel::V1);
        assert_eq!(TrialKernel::V1.name(), "v1");
        assert_eq!(TrialKernel::V2.name(), "v2");
        assert_eq!(TrialKernel::V3.name(), "v3");
        assert_eq!(TrialKernel::ALL.len(), 3);
        assert_eq!(TrialKernel::ALL[0], TrialKernel::default());
    }
}
