"""Seeded spec generators, one per benchmark workload.

Each generator is a pure function of its seed. The seed namespaces
every RNG stream through the spec's own `seed` and, in the sweeps, moves
physical parameters by a few percent (sizes, variation sigmas, target
placement). It never changes the shape of the work: unit counts, stage
counts, logic depths and trial budgets are fixed per workload, so runs
with different seeds measure the same amount of work on different
inputs.
"""

import itertools
import random

LATCH = "TgMsff70nm"


def _jit(rng, x, rel):
    """`x` moved by up to ±`rel` of itself, rounded to 4 significant digits."""
    return float(f"{x * (1.0 + rng.uniform(-rel, rel)):.4g}")


def _random_only(rng, sigma):
    return {"RandomOnly": {"sigma_mv": _jit(rng, sigma, 0.05)}}


def _combined(rng, inter, rand, sys_):
    return {
        "Combined": {
            "inter_mv": _jit(rng, inter, 0.05),
            "random_mv": _jit(rng, rand, 0.05),
            "systematic_mv": _jit(rng, sys_, 0.05),
        }
    }


# ---------------------------------------------------------------------------
# analytic_grid: 1000 deep closed-form units plus a few MC spot checks
# ---------------------------------------------------------------------------

# Units are deep (60-204 gates per stage) rather than many: every cache
# record is fsynced, and fsync latency on a shared disk drifts severalfold
# from minute to minute, so with many light units cache_fill_s measures
# the disk more than the program.
GRID_STAGES = list(range(4, 23, 2))  # 10 stage counts
GRID_DEPTHS = list(range(60, 205, 36))  # 5 logic depths
GRID_SIZES = 10
SPOT_TRIALS = 8192
# Stage depths of the MC spot checks; each runs under both variations.
SPOT_PIPELINES = [[8, 10, 12, 9], [6, 14, 7, 10, 9], [12] * 6, [7, 9, 11, 13, 6, 8, 10]]
TARGET_SIGMAS = 1.2  # yield target at mean + 1.2 sd of the analytic delay


def analytic_grid(seed):
    rng = random.Random(seed)
    sizes = sorted({round(1.0 + 0.1 * i + rng.uniform(-0.03, 0.03), 3) for i in range(GRID_SIZES)})
    assert len(sizes) == GRID_SIZES
    variations = [_random_only(rng, 35.0), _combined(rng, 20.0, 35.0, 15.0)]
    grid = {
        "stage_counts": GRID_STAGES,
        "logic_depths": GRID_DEPTHS,
        "sizes": sizes,
        "variations": variations,
        "latch": LATCH,
        "trials": 0,
        "yield_targets": [],
        "auto_target_sigmas": [TARGET_SIGMAS],
        "backend": "analytic",
    }
    # MC spot checks: gate-level pipelines under the grid's two
    # variations, so the grid's closed-form answers are checked against
    # Monte-Carlo (model_err_pp). Their structure is fixed: the Clark
    # error depends mostly on it, and a seed-drawn structure would make
    # the worst-case error jump between seeds. They are a few percent of
    # the cold wall.
    spots = []
    for i, (depths, variation) in enumerate(itertools.product(SPOT_PIPELINES, variations)):
        spots.append({
            "label": f"spot {i} {len(depths)}stg",
            "pipeline": {"InverterStages": {"depths": depths, "size": 1.0, "latch": LATCH}},
            "variation": variation,
            "trials": SPOT_TRIALS,
            "yield_targets": [],
            "auto_target_sigmas": [TARGET_SIGMAS],
            "backend": "netlist",
            "kernel": "v3",
        })
    return {"name": f"analytic-grid-{seed}", "seed": seed, "scenarios": spots, "grid": grid}


def analytic_grid_size():
    return {
        "units": len(GRID_STAGES) * len(GRID_DEPTHS) * GRID_SIZES * 2 + 2 * len(SPOT_PIPELINES),
        "trials": 2 * len(SPOT_PIPELINES) * SPOT_TRIALS,
    }


# ---------------------------------------------------------------------------
# mc_sweep: a few dozen Monte-Carlo scenarios, every kernel and plan
# ---------------------------------------------------------------------------

MC_KERNELS = ["v1", "v2", "v3"]
MC_PLANS = ["plain", "antithetic", "stratified", "sobol"]
# Trial budgets per (pipeline kind, kernel): v1 is several times slower
# than v2/v3, so it gets fewer trials to keep every kernel's share of
# the wall comparable.
MOMENTS_TRIALS = {"v1": 30_000, "v2": 100_000, "v3": 100_000}
GATE_TRIALS = {"v1": 10_000, "v2": 20_000, "v3": 40_000}
CHAIN_DEPTHS = [6, 7, 8, 9, 10]  # one gate-level pipeline's stage depths, shuffled per scenario


def _trials(count, plan):
    return count if plan == "plain" else {"count": count, "strategy": plan}


def mc_sweep(seed):
    rng = random.Random(seed)
    scenarios = []
    for kernel, plan in itertools.product(MC_KERNELS, MC_PLANS):
        n = 4 + len(scenarios) % 3
        stages = [{"mu_ps": _jit(rng, 195.0, 0.03), "sigma_ps": _jit(rng, 8.0, 0.15)} for _ in range(n)]
        scenarios.append({
            "label": f"moments {n}stg {kernel} {plan}",
            "pipeline": {"Moments": {"stages": stages, "rho": round(rng.uniform(0.2, 0.5), 3)}},
            "variation": "Nominal",
            "trials": _trials(MOMENTS_TRIALS[kernel], plan),
            "yield_targets": [],
            "auto_target_sigmas": [1.2],
            "kernel": kernel,
        })
        # Gate-level twin: alternate the staged-pipeline and the netlist
        # backend (bit-identical results, different code paths).
        backend = "netlist" if len(scenarios) % 4 == 1 else "pipeline"
        scenarios.append({
            "label": f"chains 5stg {kernel} {plan} {backend}",
            "pipeline": {"InverterStages": {
                "depths": rng.sample(CHAIN_DEPTHS, len(CHAIN_DEPTHS)),
                "size": _jit(rng, 1.0, 0.1),
                "latch": LATCH,
            }},
            "variation": _combined(rng, 30.0, 25.0, 10.0),
            "trials": _trials(GATE_TRIALS[kernel], plan),
            "yield_targets": [],
            "auto_target_sigmas": [1.2],
            "backend": backend,
            "kernel": kernel,
        })
    return {"name": f"mc-sweep-{seed}", "seed": seed, "scenarios": scenarios, "grid": None}


def mc_sweep_size():
    return {
        "units": 2 * len(MC_KERNELS) * len(MC_PLANS),
        "trials": len(MC_PLANS) * sum(MOMENTS_TRIALS[k] + GATE_TRIALS[k] for k in MC_KERNELS),
    }


# ---------------------------------------------------------------------------
# campaign: yield-aware sizing runs (paper §4)
# ---------------------------------------------------------------------------

CAMPAIGN_VERIFY = 2048
BLOCKADE_VERIFY = 16384
# In-loop MC trials of netlist-backend runs: with 256, their area answer
# flips between 0% and ~23% from seed to seed.
EVAL_TRIALS = 8192
# Two fixed designs of each kind (stage depths / random-logic netlist seeds).
CHAIN_DESIGNS = [(12, 9, 7, 10), (8, 11, 6, 9, 10)]
RANDOM_DESIGNS = [(101, 202, 303), (404, 505, 606)]
YIELD_TARGETS = [0.8, 0.85, 0.9]  # cycled over runs
# Sizing effort and the area answer jump between design problems (a
# chain run either recovers ~20% area or none), so campaign designs are
# fixed: the seed reseeds the Monte-Carlo streams (verification and the
# netlist yield backend) and nothing else.


def _chain_pipeline(design):
    return {
        "Circuits": {
            "stages": [{"Chain": {"depth": d, "size": 1.0}} for d in CHAIN_DESIGNS[design]],
            "latch": LATCH,
        }
    }


def _random_pipeline(design):
    return {
        "Circuits": {
            "stages": [
                {"Random": {"seed": s, "inputs": 8, "gates": 40, "depth": 8, "outputs": 4}}
                for s in RANDOM_DESIGNS[design]
            ],
            "latch": LATCH,
        }
    }


def campaign(seed):
    runs = []
    axes = itertools.product(["chain", "random"], [0, 1], ["analytic", "netlist"], ["v1", "v3"],
                             ["EnsureYield", "MinimizeArea"])
    for kind, design, yield_backend, kernel, goal in axes:
        # Every other run stops verification early once the 95% CI
        # half-width reaches 1 pp (antithetic plan).
        ci = len(runs) % 2 == 1
        verify = {"count": CAMPAIGN_VERIFY, "strategy": "plain"}
        if ci:
            verify = {"count": CAMPAIGN_VERIFY, "strategy": "antithetic", "ci_half_width": 0.01}
        run = {
            "label": f"{kind}{design} {yield_backend} {kernel} {goal}{' ci' if ci else ''}",
            "pipeline": _chain_pipeline(design) if kind == "chain" else _random_pipeline(design),
            "variation": {"RandomOnly": {"sigma_mv": 35.0}},
            "yield_target": YIELD_TARGETS[len(runs) % len(YIELD_TARGETS)],
            "target_delay": {"FrontierQuantile": {"q": 0.88, "refine": 1}},
            "goal": goal,
            "rounds": 2,
            "kernel": kernel,
            "verify_trials": verify,
        }
        if yield_backend == "netlist":
            run["yield_backend"] = "netlist"
            run["eval_trials"] = EVAL_TRIALS
        runs.append(run)
    runs.append({
        "label": "chain blockade-verified 99.9%",
        "pipeline": _chain_pipeline(0),
        "variation": {"Combined": {"inter_mv": 40.0, "random_mv": 10.0, "systematic_mv": 0.0}},
        "yield_target": 0.999,
        "target_delay": {"FrontierQuantile": {"q": 0.9995, "refine": 1}},
        "goal": "EnsureYield",
        "rounds": 2,
        "kernel": "v3",
        "verify_trials": {"count": BLOCKADE_VERIFY, "strategy": "blockade", "ci_half_width": 0.001},
    })
    return {"name": f"campaign-{seed}", "seed": seed, "runs": runs, "grid": None}


def campaign_size():
    # Each run verifies both the optimized and the baseline design.
    return {"units": 33, "trials": 2 * (32 * CAMPAIGN_VERIFY + BLOCKADE_VERIFY)}


WORKLOADS = {
    "analytic_grid": ("sweep", analytic_grid, analytic_grid_size),
    "mc_sweep": ("sweep", mc_sweep, mc_sweep_size),
    "campaign": ("optimize", campaign, campaign_size),
}
