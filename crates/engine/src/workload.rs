//! The unified workload layer: one execution pipeline for every batch
//! experiment the engine runs.
//!
//! The paper's experiments all share one shape — expand a spec into
//! independent, content-hash-identified **units**, run them
//! deterministically, merge the per-unit results into a report. Scenario
//! sweeps and optimization campaigns used to implement that shape twice;
//! [`Workload`] implements it once, and both plug in:
//!
//! | workload | unit | step | unit result |
//! |---|---|---|---|
//! | [`crate::Sweep`] | a prepared scenario | one 256-trial MC block | [`crate::ScenarioResult`] |
//! | [`crate::OptimizationCampaign`] | a prepared run | the whole sizing flow | [`crate::OptimizationRunResult`] |
//!
//! A unit expands into **steps** — the worker pool's scheduling grain —
//! whose outputs are folded strictly in step order (the floating-point
//! merge-tree half of the determinism contract). When a unit's last step
//! folds, the unit finishes into its serializable result.
//!
//! ## Lazy preparation
//!
//! Preparation has two halves. [`Workload::expand_units`] is cheap: it
//! expands the spec into sub-specs and runs every validity check on
//! every one of them. [`Workload::prepare_unit`] is expensive: it builds
//! the netlist, runs SSTA and sets up the simulator — for a closed-form
//! unit, that build *is* the computation. [`run_units`] therefore works
//! in the order expand → key → decide → prepare: it keys each sub-spec,
//! decides between resume journal, cache, another shard and execution,
//! and only then prepares the units it will execute, on the worker pool.
//! A warm-cache run, a full resume or a small shard builds (almost)
//! nothing. Validation still covers every unit, and any error is
//! returned before the first unit sinks, exactly as if everything had
//! been prepared up front.
//!
//! ## Sharding, checkpointing, resume
//!
//! Because every unit result is a pure function of `(spec, seed)` — via
//! content-hash unit IDs and counter-based per-trial seeds — three
//! production features fall out of the one pipeline **byte-exactly**:
//!
//! * **Sharding** ([`Shard`]): shard `i/n` owns exactly the units whose
//!   journal key ([`Workload::spec_key`], a content hash of the unit's
//!   full sub-spec) satisfies `key % n == i - 1`. The partition depends
//!   only on the spec, so disjoint machines can run disjoint shards and
//!   the merged union of their outputs is bitwise identical to a single
//!   unsharded run.
//! * **Checkpointing**: every completed unit result can be streamed out
//!   as one JSONL line ([`checkpoint_line`]) the moment it completes.
//! * **Resume** ([`Checkpoint`]): a run handed a checkpoint skips every
//!   unit whose ID appears in it and splices the stored result into the
//!   final report. Since the stored JSON round-trips floats bit-exactly
//!   (shortest-roundtrip printing), a killed-then-resumed run's output
//!   is byte-identical to an uninterrupted one — and resuming from the
//!   concatenated checkpoints of `n` shard runs **is** the shard merge.

use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize, Value};
use vardelay_mc::TrialWorkspace;

use crate::journal;
use crate::run::{dispatch, EngineError};

/// A batch experiment the engine can execute: how to expand a spec into
/// identified units, run each unit in deterministic steps, and fold
/// everything back into a report.
///
/// Implementations must keep the determinism contract: every method
/// must be a pure function of the spec (`self`) and its arguments, so
/// scheduling, sharding and resume can never leak into results.
pub trait Workload: Sync {
    /// One validated sub-spec — what a unit is prepared from, and what
    /// its journal key hashes.
    type Spec: Send + Sync;
    /// A prepared, validated unit of work (shared read-only with the
    /// worker pool).
    type Unit: Send + Sync;
    /// Output of one step of one unit.
    type StepOut: Send;
    /// Per-unit accumulator step outputs fold into, in step order.
    type Acc;
    /// A completed unit's serializable result — the checkpoint /
    /// stream / resume currency.
    type UnitResult: Serialize + Deserialize + Clone + PartialEq + Send;
    /// The aggregate report assembled from unit results in expansion
    /// order.
    type Report;
    /// One validated unit's footprint row (the `validate` lint).
    type UnitPlan;
    /// The aggregate plan assembled from footprint rows.
    type Plan;

    /// Workload name (reported in results and logs).
    fn name(&self) -> &str;
    /// Base seed namespacing every unit's RNG streams.
    fn seed(&self) -> u64;
    /// What a unit is called in user-facing text (`"scenario"`,
    /// `"run"`).
    fn unit_noun(&self) -> &'static str;

    /// Expands the spec into sub-specs, in expansion order, running
    /// **every** spec check on **every** sub-spec — a sub-spec that
    /// passes here must prepare. Cheap: builds no netlist and runs no
    /// timing analysis.
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] naming the first invalid unit.
    fn expand_units(&self) -> Result<Vec<Self::Spec>, EngineError>;
    /// The sub-spec's stable content hash over its **full** contents —
    /// the shard partition and checkpoint key.
    ///
    /// This may be broader than the unit's RNG identity: a sweep
    /// scenario's ID deliberately excludes execution-strategy fields
    /// (`backend`, `histogram_bins`) so flipping them replays the same
    /// trial streams, but two such twins still produce different
    /// *result bytes* (the spec is echoed in the result). The journal
    /// key must distinguish any two units whose results could differ,
    /// so it hashes everything.
    fn spec_key(&self, spec: &Self::Spec) -> u64;
    /// The sub-spec a prepared unit was built from.
    fn unit_spec<'a>(&self, unit: &'a Self::Unit) -> &'a Self::Spec;
    /// Builds one validated sub-spec into an executable unit (netlist,
    /// timing analysis, targets, simulator) — the expensive half of
    /// preparation, run only for units a run will execute.
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] naming the unit.
    fn prepare_unit(&self, spec: &Self::Spec) -> Result<Self::Unit, EngineError>;

    /// Expands, validates and prepares every unit, in expansion order
    /// (serially; [`prepare_units`] is the pooled form).
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] naming the first invalid unit.
    fn prepare(&self) -> Result<Vec<Self::Unit>, EngineError> {
        self.expand_units()?
            .iter()
            .map(|spec| self.prepare_unit(spec))
            .collect()
    }
    /// The unit's journal key: [`Workload::spec_key`] of its sub-spec.
    fn unit_key(&self, unit: &Self::Unit) -> u64 {
        self.spec_key(self.unit_spec(unit))
    }
    /// How many scheduling steps the unit expands into (0 finishes the
    /// unit from its empty accumulator, running nothing).
    fn unit_steps(&self, unit: &Self::Unit) -> usize;
    /// Approximate Monte-Carlo trials one step will execute — feeds
    /// progress/ETA display only and must never affect results.
    /// Defaults to 0 (unknown).
    fn step_trials(&self, _unit: &Self::Unit, _step: usize) -> u64 {
        0
    }
    /// A fresh accumulator for the unit.
    fn init_acc(&self, unit: &Self::Unit) -> Self::Acc;
    /// Runs one step. Must be a pure function of `(unit, step)`; the
    /// workspace is arbitrary reusable scratch, and the context carries
    /// execution knobs (worker count) that must never affect results.
    fn run_step(
        &self,
        unit: &Self::Unit,
        step: usize,
        ws: &mut TrialWorkspace,
        ctx: StepContext,
    ) -> Self::StepOut;
    /// Folds a step output into the accumulator. Called strictly in
    /// step order — this *is* the fixed floating-point merge tree.
    fn fold_step(&self, unit: &Self::Unit, acc: &mut Self::Acc, out: Self::StepOut);
    /// Turns a fully folded unit into its result.
    fn finish_unit(&self, unit: &Self::Unit, acc: Self::Acc) -> Self::UnitResult;
    /// Assembles the report from unit results in expansion order.
    fn assemble(&self, results: Vec<Self::UnitResult>) -> Self::Report;
    /// Measures one unit's footprint without running it.
    fn plan_unit(&self, unit: &Self::Unit) -> Self::UnitPlan;
    /// Assembles the plan from footprint rows in expansion order.
    fn assemble_plan(&self, rows: Vec<Self::UnitPlan>) -> Self::Plan;
}

/// The CLI-facing hooks of a workload's aggregate report.
pub trait WorkloadReport {
    /// Serializes as pretty JSON (the `--out` file format).
    fn to_json(&self) -> String;
    /// A compact fixed-width text summary, one unit per row.
    fn summary_table(&self) -> String;
    /// Number of unit results in the report.
    fn unit_count(&self) -> usize;
}

/// The CLI-facing hook of a workload's validation plan.
pub trait WorkloadPlan {
    /// A fixed-width text report, one unit per row plus totals.
    fn render(&self) -> String;
}

/// One shard of a deterministically partitioned workload.
///
/// Shard `i/n` (1-based in user syntax) owns exactly the units whose
/// journal key ([`Workload::spec_key`]) satisfies `key % n == i - 1`.
/// The rule uses only the spec-derived key, so every shard computes the
/// same partition independently, and the union of all shards is exactly
/// the unsharded unit set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// 0-based shard index (`i - 1`).
    index: u64,
    /// Total shard count `n`.
    count: u64,
}

impl Shard {
    /// Builds shard `index1/count` from the 1-based user syntax.
    ///
    /// # Errors
    ///
    /// Rejects `count == 0` and `index1` outside `1..=count`.
    pub fn new(index1: u64, count: u64) -> Result<Self, String> {
        if count == 0 {
            return Err("shard count must be positive".to_owned());
        }
        if index1 == 0 || index1 > count {
            return Err(format!("shard index {index1} is not in 1..={count}"));
        }
        Ok(Shard {
            index: index1 - 1,
            count,
        })
    }

    /// Parses the CLI syntax `i/n` (e.g. `--shard 2/3`).
    ///
    /// # Errors
    ///
    /// Returns a message describing the expected syntax or range.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (i, n) = s
            .split_once('/')
            .ok_or_else(|| format!("shard '{s}' is not of the form i/n"))?;
        let parse = |what: &str, v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("invalid shard {what} '{v}'"))
        };
        Shard::new(parse("index", i)?, parse("count", n)?)
    }

    /// Whether this shard owns the unit with the given content-hash ID.
    pub fn owns(&self, unit_id: u64) -> bool {
        unit_id % self.count == self.index
    }

    /// The 1-based `i/n` display form.
    pub fn label(&self) -> String {
        format!("{}/{}", self.index + 1, self.count)
    }
}

/// Formats one completed unit as a checkpoint / stream line:
/// `{"unit":"<016x id>","result":<compact result JSON>}`.
///
/// Compact serialization uses shortest-roundtrip float printing, so
/// parsing the line back yields bit-identical numbers — the property
/// that makes resume byte-exact.
pub fn checkpoint_line<R: Serialize>(id: u64, result: &R) -> String {
    let line = Value::Object(vec![
        ("unit".to_owned(), Value::String(format!("{id:016x}"))),
        ("result".to_owned(), result.to_value()),
    ]);
    serde_json::to_string(&line).expect("unit results are finite")
}

/// A parsed checkpoint: completed unit results keyed by content-hash
/// unit ID, as written by [`checkpoint_line`] (one JSON object per
/// line).
#[derive(Debug, Clone, Default)]
pub struct Checkpoint<R> {
    map: HashMap<u64, R>,
    torn_tail: bool,
}

impl<R> Checkpoint<R> {
    /// An empty checkpoint (resuming from it runs everything).
    pub fn new() -> Self {
        Checkpoint {
            map: HashMap::new(),
            torn_tail: false,
        }
    }

    /// Number of distinct completed units recorded.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no completed units are recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether the final line was unparseable and skipped — the
    /// signature of a process killed mid-write. Earlier malformed lines
    /// are corruption and fail the parse instead.
    pub fn torn_tail(&self) -> bool {
        self.torn_tail
    }

    /// The stored result for a unit, if it completed.
    pub fn get(&self, unit_id: u64) -> Option<&R> {
        self.map.get(&unit_id)
    }
}

impl<R: Deserialize> Checkpoint<R> {
    /// Parses checkpoint text (one [`checkpoint_line`] per line; blank
    /// lines ignored; duplicate IDs keep the last occurrence).
    ///
    /// A malformed **final** line is tolerated and flagged via
    /// [`Checkpoint::torn_tail`]: a killed process may have died
    /// mid-append, and losing that one unit merely re-runs it.
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] naming the first malformed non-final
    /// line — corruption anywhere else must not silently drop work.
    pub fn parse(text: &str) -> Result<Self, EngineError> {
        let scan = journal::scan_jsonl(text, |line| {
            parse_checkpoint_line(line).map_err(|e| e.to_string())
        })
        .map_err(|e| EngineError::new(format!("checkpoint {e}")))?;
        let mut ckpt = Checkpoint::new();
        ckpt.torn_tail = scan.torn_tail;
        for line in scan.lines {
            let (id, result) = line.value;
            ckpt.map.insert(id, result);
        }
        Ok(ckpt)
    }
}

fn parse_checkpoint_line<R: Deserialize>(line: &str) -> Result<(u64, R), serde::Error> {
    let v: Value = serde_json::from_str(line)?;
    let id_hex: String = Deserialize::from_value(v.field("unit")?)?;
    let id = u64::from_str_radix(&id_hex, 16)
        .map_err(|_| serde::Error::new(format!("invalid unit id '{id_hex}'")))?;
    let result = R::from_value(v.field("result")?)?;
    Ok((id, result))
}

/// Version of the engine's determinism contract.
///
/// Result bytes are a pure function of `(unit_key, contract version)`:
/// the key fixes the spec and seeds, the contract version fixes the
/// algorithms behind them (counter-based seeding, the fixed fold tree,
/// kernel numerics). Any change that alters result bytes for an
/// existing key — however small — **must** bump this constant; the
/// persistent result cache stores it with every record and treats a
/// mismatch as a miss, so a bump invalidates every cached result at
/// once without touching the store.
pub const CONTRACT_VERSION: u32 = 1;

/// A persistent, content-addressed store of completed unit results,
/// keyed by [`Workload::unit_key`] — the hook `--cache DIR` plugs into
/// [`run_units`].
///
/// Unlike a resume [`Checkpoint`] (per-run, typed, fully parsed up
/// front), a cache is global and queried per unit: before scheduling a
/// unit the pipeline calls [`ResultCache::fetch`] and splices a hit
/// exactly like a resumed unit; after executing a unit it calls
/// [`ResultCache::store`]. Implementations must only return results
/// recorded under the current [`CONTRACT_VERSION`] — both methods take
/// `&self`, so a read-write store needs interior mutability.
pub trait ResultCache<R> {
    /// The stored result for a unit, if present and valid.
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] for store corruption (a missing unit
    /// is `Ok(None)`, never an error).
    fn fetch(&self, key: u64) -> Result<Option<R>, EngineError>;
    /// Records an executed unit's result.
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] when the record cannot be durably
    /// appended.
    fn store(&self, key: u64, result: &R) -> Result<(), EngineError>;
}

/// Where a completed unit's result came from — the sink's provenance
/// tag, which is all that distinguishes a unit that ran from one that
/// was spliced (the bytes never differ).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitOrigin {
    /// The unit was executed by this run.
    Executed,
    /// The unit was spliced from the resume journal ([`Checkpoint`]).
    Journal,
    /// The unit was spliced from the persistent result cache.
    Cache,
}

/// Live progress observer for [`run_units`] — called on the calling
/// thread after each unit disposition and step completion. Strictly
/// observational: implementations must not feed anything back into
/// execution.
pub trait Progress {
    /// Receives the latest cumulative progress snapshot.
    fn update(&self, p: &ProgressUpdate);
}

/// A cumulative progress snapshot (totals are fixed for the run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressUpdate {
    /// Units completed so far (resumed, zero-step, or executed).
    pub units_done: usize,
    /// Units this run is responsible for.
    pub units_total: usize,
    /// Scheduled steps completed so far.
    pub steps_done: usize,
    /// Scheduled steps in the whole run (excludes resumed units).
    pub steps_total: usize,
    /// Estimated Monte-Carlo trials completed ([`Workload::step_trials`]).
    pub trials_done: u64,
    /// Estimated trials the scheduled steps will run in total.
    pub trials_total: u64,
}

/// Per-step execution context handed to [`Workload::run_step`].
///
/// Carries the runner's execution knobs down into a step without
/// threading them through every workload struct. Everything here is
/// strictly *how* to execute — a step's result bytes must be identical
/// for every possible context (that is the determinism contract).
#[derive(Debug, Clone, Copy)]
pub struct StepContext {
    /// The worker count the runner was launched with. A step that fans
    /// nested work back out to the pool (the v3 kernel's chunked
    /// verification) sizes its dispatch with this; steps that are
    /// wholly sequential ignore it.
    pub workers: usize,
}

/// Execution options for [`run_workload`] / [`run_units`].
#[derive(Clone, Copy)]
pub struct WorkloadOptions<'a, R> {
    /// Worker threads; 1 runs everything on the calling thread. Never
    /// affects results, only wall-clock time.
    pub workers: usize,
    /// Run only the units this shard owns (`None` runs all).
    pub shard: Option<Shard>,
    /// Completed units to splice in instead of re-running.
    pub resume: Option<&'a Checkpoint<R>>,
    /// Persistent result cache consulted for units the resume journal
    /// lacks; executed units are recorded back into it.
    pub cache: Option<&'a dyn ResultCache<R>>,
    /// Live progress observer (display only; never affects results).
    pub progress: Option<&'a dyn Progress>,
}

impl<R> std::fmt::Debug for WorkloadOptions<'_, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadOptions")
            .field("workers", &self.workers)
            .field("shard", &self.shard)
            .field("resume_units", &self.resume.map(Checkpoint::len))
            .field("cache", &self.cache.is_some())
            .field("progress", &self.progress.is_some())
            .finish()
    }
}

impl<R> WorkloadOptions<'_, R> {
    /// Sequential execution of every unit, no resume.
    pub fn sequential() -> Self {
        WorkloadOptions {
            workers: 1,
            shard: None,
            resume: None,
            cache: None,
            progress: None,
        }
    }

    /// Sets the worker count (clamped to at least 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Restricts execution to one shard.
    #[must_use]
    pub fn with_shard(mut self, shard: Shard) -> Self {
        self.shard = Some(shard);
        self
    }
}

impl<'a, R> WorkloadOptions<'a, R> {
    /// Splices in previously completed units from a checkpoint.
    #[must_use]
    pub fn with_resume(mut self, checkpoint: &'a Checkpoint<R>) -> Self {
        self.resume = Some(checkpoint);
        self
    }

    /// Consults (and records into) a persistent result cache.
    #[must_use]
    pub fn with_cache(mut self, cache: &'a dyn ResultCache<R>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches a live progress observer.
    #[must_use]
    pub fn with_progress(mut self, progress: &'a dyn Progress) -> Self {
        self.progress = Some(progress);
        self
    }
}

/// What a [`run_units`] call did: unit counts by disposition, plus the
/// expansion-order IDs needed to reassemble a report from streamed
/// lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadStats {
    /// Units this run was responsible for (after shard selection).
    pub units: usize,
    /// Units spliced from the resume checkpoint (not re-run).
    pub resumed: usize,
    /// Units spliced from the persistent result cache (not re-run).
    pub cached: usize,
    /// Units actually executed.
    pub executed: usize,
    /// Scheduling steps dispatched to the worker pool.
    pub steps: usize,
    /// Journal keys ([`Workload::unit_key`]) of this run's units, in
    /// expansion order — what reassembles a report from streamed lines.
    pub keys: Vec<u64>,
}

/// In-step-order folding of one unit's step outputs, buffering
/// out-of-order arrivals — the streaming half of the determinism
/// contract, shared by every workload.
struct Folding<A, S> {
    acc: A,
    next: usize,
    total: usize,
    pending: BTreeMap<usize, S>,
}

/// Where [`run_units`] takes a unit's result from, decided before
/// anything is prepared or sunk.
enum Source<'a, R> {
    /// Spliced from the resume journal.
    Journal(&'a R),
    /// Spliced from the persistent result cache.
    Cache(R),
    /// Prepared and executed by this run.
    Execute,
}

/// A unit prepared on the pool: either still to step, or — a zero-step
/// unit — already finished, its prepared form dropped in the worker.
enum Built<U, R> {
    Steps(U),
    Done(R),
}

/// Runs `build` for every index in `0..n` on the worker pool and returns
/// the outputs in index order, or the failure with the lowest index.
///
/// A failure cancels the pool. That still finds the lowest failing
/// index: the pool's cursor hands indices out in order, so every index
/// below a failed one was claimed first, and claimed items always
/// finish.
fn build_on_pool<T: Send>(
    n: usize,
    workers: usize,
    build: impl Fn(usize) -> Result<T, EngineError> + Sync,
) -> Result<Vec<T>, EngineError> {
    let mut slots: Vec<Option<Result<T, EngineError>>> =
        std::iter::repeat_with(|| None).take(n).collect();
    dispatch(
        n,
        workers,
        |k, _ws| build(k),
        |k, built| {
            let ok = built.is_ok();
            slots[k] = Some(built);
            ok
        },
    );
    // `collect` stops at the first failure, before any unfilled slot.
    slots
        .into_iter()
        .map(|slot| slot.expect("every slot before the first failure is filled"))
        .collect()
}

/// Expands, validates and prepares every unit on `workers` pool threads,
/// in expansion order — [`Workload::prepare`] on the pool, each unit
/// under a `unit/prepare` span.
///
/// # Errors
///
/// Returns the error of the first invalid unit in expansion order.
pub fn prepare_units<W: Workload>(w: &W, workers: usize) -> Result<Vec<W::Unit>, EngineError> {
    let specs = w.expand_units()?;
    build_on_pool(specs.len(), workers, |i| {
        let _sp = vardelay_obs::span("unit", "prepare");
        w.prepare_unit(&specs[i])
    })
}

/// The unified execution pipeline: expands a workload into units,
/// applies shard selection, resume and cache splicing, prepares and
/// schedules the rest over the shared worker pool, folds step outputs
/// in order, and hands every completed unit — spliced or executed — to
/// `sink` exactly once.
///
/// The stages run in a fixed order:
///
/// 1. **Expand** ([`Workload::expand_units`]): every sub-spec is
///    validated, including units another shard owns or a cache serves,
///    so whether a spec is accepted never depends on how it is run.
/// 2. **Key** each sub-spec ([`Workload::spec_key`]) and keep the ones
///    the shard owns.
/// 3. **Decide** each unit in strict precedence order — resume journal,
///    then cache, then execution — so a unit present in both journal
///    and cache is spliced exactly once, from the journal.
/// 4. **Prepare** ([`Workload::prepare_unit`]) only the units to
///    execute, on the pool, each under a `unit/prepare` span. A
///    zero-step unit finishes inside the same pool item.
/// 5. If any preparation failed, return the first failure in expansion
///    order. Nothing has sunk yet.
/// 6. **Sink** spliced and zero-step units in expansion order.
/// 7. **Dispatch** the remaining units' steps; each executed unit sinks
///    when its last step folds, in completion order.
///
/// `sink(slot, unit_key, result, origin)` is called on the calling
/// thread; `slot` is the unit's index in (sharded) expansion order. A
/// sink error cancels the pool — workers stop claiming new steps, steps
/// already executing finish and are folded but no further unit sinks —
/// and the error is returned once the pool drains. Every *executed*
/// unit is recorded into the cache ([`WorkloadOptions::cache`]) before
/// it sinks; spliced units are not re-recorded.
///
/// This function retains **no** unit results — callers stream them out
/// (checkpoint files, `--out` JSONL) or collect them ([`run_workload`]).
///
/// # Errors
///
/// Returns the first validation, cache lookup or preparation error
/// (before any unit sinks), or the first cache-record or sink error.
pub fn run_units<W: Workload>(
    w: &W,
    opts: &WorkloadOptions<'_, W::UnitResult>,
    mut sink: impl FnMut(usize, u64, W::UnitResult, UnitOrigin) -> Result<(), EngineError>,
) -> Result<WorkloadStats, EngineError> {
    let mut specs: Vec<(W::Spec, u64)> = w
        .expand_units()?
        .into_iter()
        .map(|spec| {
            let key = w.spec_key(&spec);
            (spec, key)
        })
        .collect();
    if let Some(shard) = opts.shard {
        specs.retain(|&(_, key)| shard.owns(key));
    }
    let keys: Vec<u64> = specs.iter().map(|&(_, key)| key).collect();

    let mut sources = Vec::with_capacity(keys.len());
    for &key in &keys {
        let source = if let Some(result) = opts.resume.and_then(|c| c.get(key)) {
            Source::Journal(result)
        } else if let Some(result) = opts.cache.map(|c| c.fetch(key)).transpose()?.flatten() {
            Source::Cache(result)
        } else {
            Source::Execute
        };
        sources.push(source);
    }

    let to_prepare: Vec<usize> = (0..keys.len())
        .filter(|&i| matches!(sources[i], Source::Execute))
        .collect();
    let built = build_on_pool(to_prepare.len(), opts.workers, |j| {
        let (spec, key) = &specs[to_prepare[j]];
        let unit = {
            let _sp = vardelay_obs::span("unit", "prepare").key(*key);
            w.prepare_unit(spec)?
        };
        Ok(if w.unit_steps(&unit) == 0 {
            let _finish = vardelay_obs::span("unit", "finish").key(*key);
            Built::Done(w.finish_unit(&unit, w.init_acc(&unit)))
        } else {
            Built::Steps(unit)
        })
    })?;
    drop(specs);

    let mut stats = WorkloadStats {
        units: keys.len(),
        resumed: 0,
        cached: 0,
        executed: to_prepare.len(),
        steps: 0,
        keys,
    };
    struct Item {
        unit: usize,
        step: usize,
        trials: u64,
    }
    let mut items: Vec<Item> = Vec::new();
    let mut units: Vec<Option<W::Unit>> =
        std::iter::repeat_with(|| None).take(stats.units).collect();
    let mut foldings: Vec<Option<Folding<W::Acc, W::StepOut>>> =
        std::iter::repeat_with(|| None).take(stats.units).collect();
    let mut units_done = 0usize;
    let mut built = built.into_iter();
    for (i, source) in sources.into_iter().enumerate() {
        let key = stats.keys[i];
        let (result, origin) = match source {
            Source::Journal(result) => {
                stats.resumed += 1;
                vardelay_obs::instant("unit", "resumed", Some(key));
                (result.clone(), UnitOrigin::Journal)
            }
            Source::Cache(result) => {
                stats.cached += 1;
                vardelay_obs::instant("unit", "cached", Some(key));
                (result, UnitOrigin::Cache)
            }
            Source::Execute => match built.next().expect("one built unit per executed unit") {
                Built::Done(result) => {
                    if let Some(cache) = opts.cache {
                        cache.store(key, &result)?;
                    }
                    (result, UnitOrigin::Executed)
                }
                Built::Steps(unit) => {
                    let total = w.unit_steps(&unit);
                    stats.steps += total;
                    items.extend((0..total).map(|step| Item {
                        unit: i,
                        step,
                        trials: w.step_trials(&unit, step),
                    }));
                    foldings[i] = Some(Folding {
                        acc: w.init_acc(&unit),
                        next: 0,
                        total,
                        pending: BTreeMap::new(),
                    });
                    units[i] = Some(unit);
                    continue;
                }
            },
        };
        units_done += 1;
        sink(i, key, result, origin)?;
    }

    let trials_total: u64 = items.iter().map(|it| it.trials).sum();
    let mut steps_done = 0usize;
    let mut trials_done = 0u64;
    let report_progress = |units_done: usize, steps_done: usize, trials_done: u64| {
        if let Some(p) = opts.progress {
            p.update(&ProgressUpdate {
                units_done,
                units_total: stats.units,
                steps_done,
                steps_total: stats.steps,
                trials_done,
                trials_total,
            });
        }
    };
    report_progress(units_done, steps_done, trials_done);

    let mut sink_err: Option<EngineError> = None;
    let ctx = StepContext {
        workers: opts.workers,
    };
    let unit = |i: usize| units[i].as_ref().expect("scheduled units are prepared");
    dispatch(
        items.len(),
        opts.workers,
        |k, ws| {
            let item = &items[k];
            let _sp = vardelay_obs::span("step", w.unit_noun())
                .key(stats.keys[item.unit])
                .value(item.step as f64);
            w.run_step(unit(item.unit), item.step, ws, ctx)
        },
        |k, out| {
            let item = &items[k];
            let f = foldings[item.unit].as_mut().expect("scheduled units fold");
            f.pending.insert(item.step, out);
            {
                let _fold = vardelay_obs::span("pool", "fold");
                while let Some(out) = f.pending.remove(&f.next) {
                    w.fold_step(unit(item.unit), &mut f.acc, out);
                    f.next += 1;
                }
            }
            steps_done += 1;
            trials_done += item.trials;
            if f.next == f.total {
                let f = foldings[item.unit].take().expect("folded once");
                assert!(f.pending.is_empty(), "steps beyond the unit's total");
                let key = stats.keys[item.unit];
                let result = {
                    let _finish = vardelay_obs::span("unit", "finish").key(key);
                    w.finish_unit(unit(item.unit), f.acc)
                };
                units_done += 1;
                if sink_err.is_none() {
                    let recorded = match opts.cache {
                        Some(cache) => cache.store(key, &result),
                        None => Ok(()),
                    };
                    if let Err(e) =
                        recorded.and_then(|()| sink(item.unit, key, result, UnitOrigin::Executed))
                    {
                        sink_err = Some(e);
                    }
                }
            }
            report_progress(units_done, steps_done, trials_done);
            // `false` after a sink failure cancels unclaimed steps —
            // their results would have nowhere to go.
            sink_err.is_none()
        },
    );
    match sink_err {
        Some(e) => Err(e),
        None => Ok(stats),
    }
}

/// Runs a workload to completion and assembles its aggregate report.
///
/// The report is bit-identical for any `opts.workers`, and — because
/// unit results are pure functions of the spec — splicing resumed units
/// or restricting to a shard changes *which* units appear, never their
/// bytes.
///
/// # Errors
///
/// Returns an [`EngineError`] naming the first invalid unit.
pub fn run_workload<W: Workload>(
    w: &W,
    opts: &WorkloadOptions<'_, W::UnitResult>,
) -> Result<W::Report, EngineError> {
    let mut slots: Vec<Option<W::UnitResult>> = Vec::new();
    run_units(w, opts, |slot, _id, result, _origin| {
        if slots.len() <= slot {
            slots.resize_with(slot + 1, || None);
        }
        slots[slot] = Some(result);
        Ok(())
    })?;
    Ok(w.assemble(
        slots
            .into_iter()
            .map(|s| s.expect("every unit sinks exactly once"))
            .collect(),
    ))
}

/// The footprint plan of already prepared units, in their order.
pub fn plan_units<W: Workload>(w: &W, units: &[W::Unit]) -> W::Plan {
    w.assemble_plan(units.iter().map(|u| w.plan_unit(u)).collect())
}

/// Validates a workload end to end and reports its footprint, running
/// nothing — the engine half of `sweep validate` / `optimize validate`,
/// shared by both spellings. Units are prepared on a pool of one worker
/// per available core.
///
/// # Errors
///
/// Returns the same [`EngineError`] a real run would return for the
/// first invalid unit.
pub fn plan_workload<W: Workload>(w: &W) -> Result<W::Plan, EngineError> {
    let units = prepare_units(w, crate::run::SweepOptions::default().workers)?;
    Ok(plan_units(w, &units))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_syntax_roundtrips_and_validates() {
        let s = Shard::parse("2/3").unwrap();
        assert_eq!(s.label(), "2/3");
        assert!(s.owns(1) && !s.owns(0) && !s.owns(2));
        assert_eq!(Shard::parse("1/1").unwrap(), Shard::new(1, 1).unwrap());
        for bad in ["0/3", "4/3", "2", "a/b", "1/0", "/", ""] {
            assert!(Shard::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn shards_partition_every_id() {
        for n in 1..=5u64 {
            let shards: Vec<Shard> = (1..=n).map(|i| Shard::new(i, n).unwrap()).collect();
            for id in (0..1000u64).chain([u64::MAX, u64::MAX - 7]) {
                let owners = shards.iter().filter(|s| s.owns(id)).count();
                assert_eq!(owners, 1, "id {id} must have exactly one owner among {n}");
            }
        }
    }

    #[test]
    fn checkpoint_lines_roundtrip_bit_exactly() {
        // f64 fields must survive the line format with identical bits —
        // the property resume's byte-identity rests on.
        let result = vec![
            1.0f64,
            -0.0,
            1e-300,
            12_345.678_901_234_5,
            f64::MIN_POSITIVE,
        ];
        let line = checkpoint_line(0xDEAD_BEEF_0123_4567, &result);
        assert!(line.starts_with("{\"unit\":\"deadbeef01234567\""), "{line}");
        assert!(!line.contains('\n'), "one line per unit");
        let ckpt: Checkpoint<Vec<f64>> = Checkpoint::parse(&line).unwrap();
        let back = ckpt.get(0xDEAD_BEEF_0123_4567).unwrap();
        assert_eq!(result.len(), back.len());
        for (a, b) in result.iter().zip(back) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} round-tripped as {b}");
        }
    }

    #[test]
    fn checkpoint_tolerates_a_torn_tail_only() {
        let full = checkpoint_line(1, &1.5f64);
        let torn = format!("{full}\n{}", &checkpoint_line(2, &2.5f64)[..10]);
        let ckpt: Checkpoint<f64> = Checkpoint::parse(&torn).unwrap();
        assert_eq!(ckpt.len(), 1);
        assert!(ckpt.torn_tail());
        assert!(ckpt.get(1).is_some() && ckpt.get(2).is_none());

        // The same damage mid-file is corruption, not a kill signature.
        let corrupt = format!("{}\n{}", &full[..10], checkpoint_line(2, &2.5f64));
        let err = Checkpoint::<f64>::parse(&corrupt).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");

        // Blank lines and duplicate IDs (last wins) are fine.
        let dup = format!("{full}\n\n{}\n", checkpoint_line(1, &9.5f64));
        let ckpt: Checkpoint<f64> = Checkpoint::parse(&dup).unwrap();
        assert_eq!(ckpt.len(), 1);
        assert!(!ckpt.torn_tail());
        assert_eq!(*ckpt.get(1).unwrap(), 9.5);
        assert!(Checkpoint::<f64>::parse("").unwrap().is_empty());
    }
}
