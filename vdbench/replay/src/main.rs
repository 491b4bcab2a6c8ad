//! In-process replay of one `vardelay sweep|optimize` spec through the
//! public API, timing every layer call from outside.
//!
//! ```text
//! vdbench-replay --kind sweep|optimize --spec spec.json --journal fill.jsonl \
//!                --workers N --seconds S --out replay.json
//! ```
//!
//! Each repetition makes four passes over the spec:
//!
//! 1. **Ledger pass** (sequential, under a `vardelay_obs::Session`): parse,
//!    expand, `Workload::prepare`, `unit_key`, `Checkpoint::parse` of the
//!    journal, then per unit `run_step`/`fold_step`/`finish_unit`, the
//!    journal line (`checkpoint_line` + write) and the cache append
//!    (`UnitCache::store` over `ResultStore`), then a cache reopen and one
//!    lookup per unit, then `assemble` + `to_json` + write. Every call is
//!    timed; the share of the pass wall outside all timed calls is
//!    `ledger.unattributed_frac`. The program's own obs spans split the
//!    step time (`opt/*`, `mc/*`).
//! 2. **In-process pass** (untraced): parse + `run_workload` at `--workers`
//!    + `to_json` + write — the CLI's cold run without the process.
//! 3. **Pool pass** (traced): the same `run_workload`, read for pool
//!    utilisation and `pool/recv_wait`.
//! 4. **Model and primitive pass**: the closed-form model of every unit
//!    (circuit build, SSTA, Clark max, yield) and per-call timings of the
//!    MC primitives on the workload's first gate-level pipeline.
//!
//! Repetitions continue until `--seconds` have passed; the last stdout
//! line is one JSON object of per-metric medians.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use vardelay_cache::{ResultStore, UnitCache};
use vardelay_circuit::{CellLibrary, StagedPipeline};
use vardelay_core::{Pipeline, StageDelay};
use vardelay_engine::{
    checkpoint_line, run_workload, trial_seed, Checkpoint, OptimizationCampaign, PipelineSpec,
    ResultCache, StepContext, Sweep, VariationSpec, Workload, WorkloadOptions, WorkloadReport,
};
use vardelay_mc::{
    PipelineBlockStats, PipelineMc, PreparedPipelineMc, TrialKernel, TrialWorkspace,
};
use vardelay_process::{slowdown_factors_approx_into, DieSample, ProcessSampler};
use vardelay_ssta::{SstaEngine, StageTimer};
use vardelay_stats::batch::fill_standard_normals_inv_cdf_fma;
use vardelay_stats::max_of;

/// Wall time spent on each micro-timing loop.
const MICRO_BUDGET: Duration = Duration::from_millis(40);
/// Trials per `PreparedPipelineMc::run_block` call in the kernel timing.
const MICRO_BLOCK: u64 = 4096;

struct Args {
    kind: String,
    spec: PathBuf,
    journal: PathBuf,
    workers: usize,
    seconds: f64,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let v = it.next().ok_or(format!("{k} needs a value"))?;
        kv.insert(k, v);
    }
    let mut get = |k: &str| kv.remove(k).ok_or(format!("missing {k}"));
    Ok(Args {
        kind: get("--kind")?,
        spec: get("--spec")?.into(),
        journal: get("--journal")?.into(),
        workers: get("--workers")?
            .parse()
            .map_err(|e| format!("--workers: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        out: get("--out")?.into(),
    })
}

/// Named layer totals for one pass: seconds for `*_s`/`*_ns` entries,
/// plain numbers for counts. `timed` sums every top-level timed call.
#[derive(Default)]
struct Ledger {
    v: BTreeMap<&'static str, f64>,
    timed: f64,
}

impl Ledger {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let dt = t.elapsed().as_secs_f64();
        *self.v.entry(name).or_default() += dt;
        self.timed += dt;
        out
    }

    fn add(&mut self, name: &'static str, x: f64) {
        *self.v.entry(name).or_default() += x;
    }

    fn set(&mut self, name: &'static str, x: f64) {
        self.v.insert(name, x);
    }
}

/// One unit's closed-form model inputs.
struct Model {
    label: String,
    pipeline: PipelineSpec,
    variation: VariationSpec,
}

/// Expands a spec into its units' closed-form model inputs; `Sweep` and
/// `OptimizationCampaign` expand to scenario/run types with the same fields.
macro_rules! models_of {
    ($w:expr) => {
        $w.expand()
            .into_iter()
            .map(|s| Model {
                label: s.label,
                pipeline: s.pipeline,
                variation: s.variation,
            })
            .collect::<Vec<Model>>()
    };
}

fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Sums span totals (seconds) over every `cat/name` phase accepted by `pick`.
fn phase_s(agg: &vardelay_obs::Aggregate, pick: impl Fn(&str) -> bool) -> f64 {
    agg.phases
        .iter()
        .filter(|(k, _)| pick(k))
        .map(|(_, p)| p.total_ns as f64 * 1e-9)
        .fold(0.0, |a, b| a + b)
}

/// Pass 1: every layer call of one sequential run, timed from outside.
fn ledger_pass<W>(
    args: &Args,
    text: &str,
    journal: &str,
    parse: fn(&str) -> W,
    expand: fn(&W) -> Vec<Model>,
) -> (Ledger, String)
where
    W: Workload,
    W::Report: WorkloadReport,
{
    let mut l = Ledger::default();
    let cache_dir = args.out.with_extension("cache");
    let _ = fs::remove_dir_all(&cache_dir);
    let session = vardelay_obs::Session::start();
    let t0 = Instant::now();

    let w = l.time("engine.parse_s", || parse(text));
    let n_models = l.time("engine.expand_s", || expand(&w).len());
    let units = l.time("engine.prepare_s", || {
        w.prepare().expect("the spec prepares")
    });
    assert_eq!(
        units.len(),
        n_models,
        "prepare yields one unit per sub-spec"
    );
    l.set("engine.units", units.len() as f64);
    let keys: Vec<u64> = l.time("engine.key_s", || {
        units.iter().map(|u| w.unit_key(u)).collect()
    });
    let ckpt: Checkpoint<W::UnitResult> = l.time("engine.journal_parse_s", || {
        Checkpoint::parse(journal).expect("the CLI's journal parses")
    });

    let cache = l.time("cache.open_s", || {
        UnitCache::new(ResultStore::open(&cache_dir).expect("cache opens"))
    });
    let mut jf = fs::File::create(args.out.with_extension("jsonl")).expect("journal file");
    let mut journal_bytes = 0usize;
    let mut ws = TrialWorkspace::new();
    let ctx = StepContext { workers: 1 };
    let mut results = Vec::with_capacity(units.len());
    for (u, &key) in units.iter().zip(&keys) {
        let steps = w.unit_steps(u);
        let mut acc = l.time("engine.fold_s", || w.init_acc(u));
        for s in 0..steps {
            let out = l.time("engine.step_s", || w.run_step(u, s, &mut ws, ctx));
            l.time("engine.fold_s", || w.fold_step(u, &mut acc, out));
        }
        l.add("engine.steps", steps as f64);
        let r = l.time("engine.finish_s", || w.finish_unit(u, acc));
        l.time("engine.journal_append_s", || {
            let line = checkpoint_line(key, &r);
            journal_bytes += line.len() + 1;
            writeln!(jf, "{line}")
                .and_then(|()| jf.flush())
                .expect("journal write");
        });
        l.time("cache.append_s", || {
            cache.store(key, &r).expect("cache append")
        });
        // Resume correctness: the CLI journaled the same bytes.
        assert!(
            ckpt.get(key) == Some(&r),
            "journaled result differs for unit {key:016x}"
        );
        results.push(r);
    }
    l.set("cache.appends", units.len() as f64);
    l.set("engine.journal_bytes", journal_bytes as f64);
    drop(cache);
    l.set("cache.bytes", dir_bytes(&cache_dir) as f64);

    let cache = l.time("cache.open_s", || {
        UnitCache::new(ResultStore::open(&cache_dir).expect("cache reopens"))
    });
    let mut hits = 0usize;
    for &key in &keys {
        let got: Option<W::UnitResult> =
            l.time("cache.lookup_s", || cache.fetch(key).expect("cache lookup"));
        hits += usize::from(got.is_some());
    }
    l.set("cache.lookups", keys.len() as f64);
    l.set("cache.hit_rate", hits as f64 / keys.len().max(1) as f64);

    let json = l.time("engine.render_s", || {
        let json = w.assemble(results).to_json();
        fs::write(&args.out, &json).expect("write --out");
        json
    });
    l.set("engine.out_bytes", json.len() as f64);
    let wall = t0.elapsed().as_secs_f64();
    let agg = vardelay_obs::aggregate(&session.finish());
    drop(cache);
    let _ = fs::remove_dir_all(&cache_dir);

    l.set("ledger.wall_s", wall);
    l.set("ledger.unattributed_frac", (wall - l.timed).abs() / wall);
    l.set("mc.block_s", phase_s(&agg, |k| k.starts_with("mc/block")));
    l.set(
        "mc.trials",
        ["trials", "trials_v2", "trials_v3"]
            .iter()
            .map(|c| agg.counter(c) as f64)
            .sum(),
    );
    l.set(
        "opt.criticality_s",
        phase_s(&agg, |k| k.starts_with("opt/criticality")),
    );
    l.set("opt.size_stage_s", phase_s(&agg, |k| k == "opt/size_stage"));
    l.set(
        "opt.size_stage_calls",
        agg.phases.get("opt/size_stage").map_or(0, |p| p.count) as f64,
    );
    l.set(
        "opt.yield_eval_s",
        phase_s(&agg, |k| k.starts_with("opt/yield_eval")),
    );
    l.set(
        "opt.verify_s",
        phase_s(&agg, |k| {
            k.starts_with("mc/verify") && k != "mc/verify_block"
        }),
    );
    // How much of the step time the program's own spans name.
    let step_s = l.v.get("engine.step_s").copied().unwrap_or(0.0);
    let named = [
        "mc.block_s",
        "opt.criticality_s",
        "opt.size_stage_s",
        "opt.yield_eval_s",
        "opt.verify_s",
    ]
    .iter()
    .map(|k| l.v[k])
    .sum::<f64>();
    l.set(
        "ledger.step_unattributed_frac",
        if step_s > 0.0 {
            (step_s - named).abs() / step_s
        } else {
            0.0
        },
    );
    (l, json)
}

/// Pass 2/3: the CLI's cold run in-process (`run_workload` at `--workers`).
fn pooled_pass<W>(args: &Args, text: &str, parse: fn(&str) -> W) -> String
where
    W: Workload,
    W::Report: WorkloadReport,
{
    let w = parse(text);
    let opts = WorkloadOptions::sequential().with_workers(args.workers);
    let json = run_workload(&w, &opts).expect("the spec runs").to_json();
    fs::write(&args.out, &json).expect("write --out");
    json
}

/// Pass 4a: the closed-form model of every unit, call by call.
fn model_pass(models: &[Model], l: &mut Ledger) {
    let mut clark_s = 0.0;
    let mut clark_calls = 0usize;
    let mut yield_s = 0.0;
    let mut yield_calls = 0usize;
    let mut ssta_calls = 0usize;
    for m in models {
        let pipe = match &m.pipeline {
            PipelineSpec::Moments { stages, rho } => {
                let delays: Vec<StageDelay> = stages
                    .iter()
                    .map(|s| StageDelay::from_moments(s.mu_ps, s.sigma_ps).expect("valid moments"))
                    .collect();
                Pipeline::equicorrelated(delays, *rho).expect("valid pipeline")
            }
            spec => {
                let staged = l.time("circuit.build_s", || spec.build(&m.label).expect("builds"));
                let engine = SstaEngine::new(CellLibrary::default(), m.variation.to_config(), None);
                // `stage_delay` per stage is the timed layer; the pipeline
                // analysis (stage delays plus their correlation) feeds the
                // Clark and yield calls below and is not timed.
                for (stage, pos) in staged.stages().iter().zip(staged.positions()) {
                    let region = engine.grid().map_or(0, |g| g.region_of(*pos));
                    let d = l.time("ssta.stage_delay_s", || engine.stage_delay(stage, region));
                    std::hint::black_box(d);
                    ssta_calls += 1;
                }
                let timing = engine.analyze_pipeline(&staged);
                let delays = timing
                    .stage_delays
                    .iter()
                    .map(|n| StageDelay::from_normal(*n))
                    .collect();
                Pipeline::new(delays, timing.correlation).expect("valid pipeline")
            }
        };
        let normals: Vec<_> = pipe.stages().iter().map(StageDelay::as_normal).collect();
        let t = Instant::now();
        let d = max_of(&normals, pipe.correlation());
        clark_s += t.elapsed().as_secs_f64();
        clark_calls += 1;
        let target = d.mean() + 1.2 * d.sd();
        let t = Instant::now();
        let y = pipe.yield_at(target);
        yield_s += t.elapsed().as_secs_f64();
        yield_calls += 1;
        assert!((0.0..=1.0).contains(&y), "yield {y} out of range");
    }
    l.set("ssta.stage_delay_calls", ssta_calls as f64);
    l.set("stats.clark_calls", clark_calls as f64);
    l.set(
        "stats.clark_max_ns",
        clark_s * 1e9 / clark_calls.max(1) as f64,
    );
    l.set(
        "core.yield_at_ns",
        yield_s * 1e9 / yield_calls.max(1) as f64,
    );
}

/// Nanoseconds per call of `f`, over at least `MICRO_BUDGET`.
fn per_call_ns(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut n = 0u64;
    loop {
        f();
        n += 1;
        if n.is_multiple_of(8) && t.elapsed() >= MICRO_BUDGET {
            break;
        }
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// Pass 4b: per-call timings of the MC primitives on one gate-level
/// pipeline of the workload.
fn primitive_pass(m: &Model, l: &mut Ledger) {
    let staged: StagedPipeline = m.pipeline.build(&m.label).expect("gate-level pipeline");
    let variation = m.variation.to_config();
    let lib = CellLibrary::default();
    let gates = staged.total_gates().max(1);
    let mut rng = StdRng::seed_from_u64(0x5eed);

    let mut z = vec![0.0; gates];
    let ns = per_call_ns(|| fill_standard_normals_inv_cdf_fma(&mut rng, &mut z));
    l.set("stats.normal_fill_ns", ns / gates as f64);

    let tech = lib.tech();
    let sigmas = vec![tech.sigma_vth_rand_min_v(); gates];
    let mut slow = vec![0.0; gates];
    let ns = per_call_ns(|| {
        slowdown_factors_approx_into(tech.overdrive(), tech.alpha(), 0.0, &sigmas, &z, &mut slow);
    });
    l.set("process.slowdown_ns", ns / gates as f64);

    let sampler = ProcessSampler::new(variation, None);
    let mut scratch = Vec::new();
    let mut die = DieSample::default();
    let ns = per_call_ns(|| sampler.sample_die_into_v3(&mut rng, &mut scratch, &mut die));
    l.set("process.sample_die_ns", ns);

    let stages = staged.stages().len();
    for (kernel, name) in [
        (TrialKernel::V1, "mc.trials_per_s.v1"),
        (TrialKernel::V2, "mc.trials_per_s.v2"),
        (TrialKernel::V3, "mc.trials_per_s.v3"),
    ] {
        let mc = PipelineMc::new(lib.clone(), variation, None).with_kernel(kernel);
        let t = Instant::now();
        let prepared = PreparedPipelineMc::new(&mc, &staged);
        if kernel == TrialKernel::V3 {
            l.set("mc.prepare_s", t.elapsed().as_secs_f64());
        }
        let mut ws = TrialWorkspace::new();
        let targets = [f64::MAX];
        let t = Instant::now();
        let mut done = 0u64;
        while done == 0 || t.elapsed() < MICRO_BUDGET {
            let mut stats = PipelineBlockStats::new(stages, &targets);
            prepared.run_block(
                &mut ws,
                done..done + MICRO_BLOCK,
                |i| trial_seed(7, i),
                &mut stats,
            );
            done += MICRO_BLOCK;
        }
        l.set(name, done as f64 / t.elapsed().as_secs_f64());
    }

    let engine = SstaEngine::new(lib.clone(), variation, None);
    let mut probes = 0u64;
    let t = Instant::now();
    for netlist in staged.stages() {
        let mut timer = StageTimer::new(netlist.clone(), &lib, engine.output_load());
        for g in 0..netlist.gate_count() {
            timer.try_size(g, timer.size_of(g) * 1.25);
            std::hint::black_box(timer.delay());
            timer.rollback();
            probes += 1;
        }
    }
    l.set(
        "ssta.retime_probe_ns",
        t.elapsed().as_nanos() as f64 / probes.max(1) as f64,
    );
}

fn replay<W>(args: &Args, parse: fn(&str) -> W, expand: fn(&W) -> Vec<Model>)
where
    W: Workload,
    W::Report: WorkloadReport,
{
    let text = fs::read_to_string(&args.spec).expect("read --spec");
    let journal = fs::read_to_string(&args.journal).expect("read --journal");
    let models = expand(&parse(&text));
    let gate_level = models
        .iter()
        .find(|m| !matches!(m.pipeline, PipelineSpec::Moments { .. }))
        .expect("every workload has a gate-level pipeline");

    let mut reps: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let start = Instant::now();
    while reps.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let (mut l, ledger_json) = ledger_pass(args, &text, &journal, parse, expand);

        let t = Instant::now();
        let json = pooled_pass(args, &text, parse);
        l.set("inproc_wall_s", t.elapsed().as_secs_f64());
        assert!(
            json == ledger_json,
            "sequential and pooled output bytes differ"
        );

        let session = vardelay_obs::Session::start();
        pooled_pass(args, &text, parse);
        let agg = vardelay_obs::aggregate(&session.finish());
        let (busy, life) = agg
            .workers
            .iter()
            .fold((0u64, 0u64), |(b, t), w| (b + w.busy_ns, t + w.lifetime_ns));
        l.set("engine.pool_busy_frac", busy as f64 / life.max(1) as f64);
        l.set(
            "engine.pool_wait_s",
            agg.phase_ns("pool/recv_wait") as f64 * 1e-9,
        );

        model_pass(&models, &mut l);
        primitive_pass(gate_level, &mut l);
        reps.push(l.v);
    }

    let mut fields = Vec::new();
    for k in reps[0].keys() {
        let mut xs: Vec<f64> = reps.iter().map(|r| r[k]).collect();
        xs.sort_by(f64::total_cmp);
        let n = xs.len();
        let med = if n % 2 == 1 {
            xs[n / 2]
        } else {
            (xs[n / 2 - 1] + xs[n / 2]) / 2.0
        };
        assert!(med.is_finite(), "{k} is not finite");
        fields.push(format!("\"{k}\":{med:?}"));
    }
    fields.push(format!("\"replay.reps\":{}", reps.len()));
    println!("{{{}}}", fields.join(","));
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vdbench-replay: {e}");
            std::process::exit(2);
        }
    };
    match args.kind.as_str() {
        "sweep" => replay(
            &args,
            |t| Sweep::from_json(t).expect("sweep spec parses"),
            |w| models_of!(w),
        ),
        "optimize" => replay(
            &args,
            |t| OptimizationCampaign::from_json(t).expect("campaign spec parses"),
            |w| models_of!(w),
        ),
        other => {
            eprintln!("vdbench-replay: unknown --kind {other}");
            std::process::exit(2);
        }
    }
}
