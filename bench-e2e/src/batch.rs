//! The closed batch workloads: every driver solves the workload's seed set,
//! one solve per driver per repetition, until the run's time is spent.

use crate::inputs;
use crate::metrics::{Record, DRIVERS};
use crate::solve::{self, kernel_replay, plain_solve, run_config, traced_solve, Solve};
use crate::stats::median;
use crate::{Outcome, Workload, RECONCILE_SLACK};
use std::sync::Arc;
use std::time::Instant;
use streamline_field::dataset::Dataset;
use streamline_field::seeds::SeedSet;
use streamline_integrate::StepLimits;
use streamline_iosim::{BlockStore, FieldStore, MemoryStore};

/// Sparse astro seeds. Cost follows the ~400 blocks these touch, not the
/// seed count.
const COLD_SEEDS: usize = 1000;
/// Dense fusion seeds; each orbits the torus for the full 1500-step budget.
const WARM_SEEDS: usize = 500;
/// Set-ups per plain run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Seeds of the warm-up solve that ends each set-up.
const WARM_UP_SEEDS: usize = 8;
/// Kernel replays per traced run; `integrate.ns_per_step` is their median,
/// so one host stall does not fail the reconciliation.
const REPLAYS: usize = 3;

/// Everything a batch run needs, built by one set-up.
struct Setup {
    ds: Dataset,
    seeds: SeedSet,
    /// A few fixed seeds for the warm-up solve, the same for every
    /// workload seed so set-up time does not follow it.
    warm_up: SeedSet,
    limits: StepLimits,
    /// The prebuilt store of the warm workload; `None` means every solve
    /// gets a fresh lazy `FieldStore`.
    warm: Option<Arc<dyn BlockStore>>,
}

impl Setup {
    fn new(w: Workload, seed: u64) -> Setup {
        match w {
            Workload::AstroSparseCold => {
                let ds = inputs::astro();
                let seeds = inputs::astro_sparse(&ds, COLD_SEEDS, seed);
                let warm_up = inputs::astro_sparse(&ds, WARM_UP_SEEDS, 0);
                Setup { ds, seeds, warm_up, limits: inputs::astro_limits(), warm: None }
            }
            Workload::FusionDenseWarm => {
                let ds = inputs::fusion();
                let seeds = inputs::fusion_dense(WARM_SEEDS, seed);
                let warm_up = inputs::fusion_dense(WARM_UP_SEEDS, 0);
                let warm: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&ds));
                Setup { ds, seeds, warm_up, limits: inputs::fusion_limits(), warm: Some(warm) }
            }
            _ => unreachable!("{} is not a batch workload", w.name()),
        }
    }

    /// One small solve per driver on its own store, so the first measured
    /// solve does not pay for the process's first allocations and page
    /// faults. The measured solves still start cold.
    fn warm_up(&self) {
        for (alg, _) in DRIVERS {
            plain_solve(&self.ds, &self.warm_up, &run_config(alg, self.limits), self.store().0);
        }
    }

    fn store(&self) -> (Arc<dyn BlockStore>, Option<Arc<FieldStore>>) {
        store_for(&self.ds, &self.warm)
    }
}

/// The store for one solve, and the lazy store inside it if any: the
/// prebuilt `warm` store, or a fresh lazy `FieldStore` when there is none.
fn store_for(
    ds: &Dataset,
    warm: &Option<Arc<dyn BlockStore>>,
) -> (Arc<dyn BlockStore>, Option<Arc<FieldStore>>) {
    match warm {
        Some(s) => (Arc::clone(s), None),
        None => {
            let f = Arc::new(FieldStore::new(ds.clone()));
            (Arc::clone(&f) as Arc<dyn BlockStore>, Some(f))
        }
    }
}

/// Checks one solve against the answer the first solve of the run gave.
pub struct AnswerCheck {
    n_seeds: usize,
    reference: Option<u64>,
    pub attempted: u64,
    pub failed: u64,
}

impl AnswerCheck {
    pub fn new(n_seeds: usize) -> Self {
        AnswerCheck { n_seeds, reference: None, attempted: 0, failed: 0 }
    }

    /// A check whose expected digest is already known.
    pub fn against(n_seeds: usize, digest: u64) -> Self {
        AnswerCheck { n_seeds, reference: Some(digest), attempted: 0, failed: 0 }
    }

    /// A solve fails when it did not complete every seed, or when its
    /// digest disagrees with the other drivers'.
    pub fn check(&mut self, s: &Solve) -> bool {
        self.attempted += 1;
        let digest = solve::solve_digest(&s.streamlines);
        let ok = s.completed(self.n_seeds) && *self.reference.get_or_insert(digest) == digest;
        if !ok {
            self.failed += 1;
        }
        ok
    }
}

/// Runs one repetition after another until `seconds` would be exceeded
/// by the next one (always at least one).
fn repeat_for(seconds: f64, mut rep: impl FnMut()) -> usize {
    let start = Instant::now();
    let mut reps = 0;
    loop {
        let t = Instant::now();
        rep();
        reps += 1;
        let last = t.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + last > seconds {
            return reps;
        }
    }
}

/// The plain run: end-to-end metrics only.
pub fn run_plain(w: Workload, seed: u64, seconds: f64, rec: &mut Record) -> Outcome {
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let s = Setup::new(w, seed);
        s.warm_up();
        setup_s.push(t.elapsed().as_secs_f64());
        setup = Some(s);
    }
    rec.median("setup_s", &setup_s);
    let setup = setup.expect("at least one set-up");

    let mut check = AnswerCheck::new(setup.seeds.len());
    let mut solves = Vec::new();
    repeat_for(seconds, || {
        let mut total = 0.0;
        for (alg, _) in DRIVERS {
            let s = plain_solve(
                &setup.ds,
                &setup.seeds,
                &run_config(alg, setup.limits),
                setup.store().0,
            );
            check.check(&s);
            total += s.seconds;
        }
        solves.push(total);
    });
    rec.median("solve_s", &solves);
    let n = DRIVERS.len() * solves.len();
    rec.set("max_rps", n as f64 / solves.iter().sum::<f64>(), n);
    Outcome {
        attempted: check.attempted,
        failed: check.failed,
        wrong: check.failed,
        reconciled: true,
    }
}

/// Per-driver samples of the traced run.
#[derive(Default)]
struct DriverTrace {
    plain_s: Vec<f64>,
    whole_s: Vec<f64>,
    build_procs_s: Vec<f64>,
    dispatch_self_s: Vec<f64>,
    handler_self_s: Vec<f64>,
    events: u64,
    last_plain: Option<Solve>,
}

/// The traced run: per-layer metrics.
pub fn run_traced(w: Workload, seed: u64, seconds: f64, rec: &mut Record) -> Outcome {
    let setup = Setup::new(w, seed);
    setup.warm_up();
    let mut check = AnswerCheck::new(setup.seeds.len());
    let traced = trace_solves(
        &setup.ds,
        &setup.seeds,
        setup.limits,
        setup.warm.clone(),
        seconds,
        &mut check,
        rec,
    );
    record_store(rec, &traced.store);
    rec.set("bench.trace_overhead_frac", traced.overhead_frac, traced.reps);
    rec.set("bench.unattributed_frac", traced.unattributed_frac, traced.reps);
    rec.set("bench.generator_late_p99_ms", 0.0, 0);
    Outcome {
        attempted: check.attempted,
        failed: check.failed,
        wrong: check.failed,
        reconciled: traced.reconciled,
    }
}

/// What [`trace_solves`] leaves for its caller to record.
pub struct SolveTraces {
    /// Store time per repetition (one solve by each driver).
    pub store: Vec<solve::StoreTimes>,
    pub reps: usize,
    /// Traced over plain solve time, minus one.
    pub overhead_frac: f64,
    /// Time outside `build_procs` and `Simulation::run` (simulation set-up
    /// and result collection), over the traced whole.
    pub unattributed_frac: f64,
    /// No traced solve left more than [`RECONCILE_SLACK`] unattributed, no
    /// driver's kernel estimate exceeded its handler self-time by more than
    /// the slack, and the kernel replay took exactly the drivers' steps.
    pub reconciled: bool,
}

/// Solve `seeds` once plain and once traced per driver per repetition for
/// `seconds` (at least once), checking that each traced answer equals the
/// plain one bit for bit, then replay the kernel. Records the `integrate`,
/// `desim`, `core` and `paper` metrics and `bench.kernel_excess_frac`.
/// `warm` is the prebuilt store; without one every solve gets a fresh lazy
/// `FieldStore`.
///
/// `unattributed_frac` and `dispatch_self_s`/`handler_self_s` are residuals
/// of the same clock readings, so they add up to the whole by construction.
/// The kernel estimate is not: it comes from the replay, and
/// `driver_self_s` = handler self-time − kernel estimate. The reconciliation
/// checks that this estimate fits inside the handler time it is taken from,
/// within the slack; `bench.kernel_excess_frac` is the worst driver's
/// (kernel estimate − handler self-time) / traced whole, negative when it
/// fits.
pub fn trace_solves(
    ds: &Dataset,
    seeds: &SeedSet,
    limits: StepLimits,
    warm: Option<Arc<dyn BlockStore>>,
    seconds: f64,
    check: &mut AnswerCheck,
    rec: &mut Record,
) -> SolveTraces {
    let mut traces: Vec<DriverTrace> = DRIVERS.iter().map(|_| DriverTrace::default()).collect();
    let mut store_reps: Vec<solve::StoreTimes> = Vec::new();
    let (mut whole_total, mut unattributed_total, mut worst_unattributed) = (0.0, 0.0, 0.0f64);
    let mut last_field: Option<Arc<FieldStore>> = None;
    let reps = repeat_for(seconds, || {
        let mut rep = solve::StoreTimes::default();
        for (i, (alg, _)) in DRIVERS.iter().enumerate() {
            let cfg = run_config(*alg, limits);
            let plain = plain_solve(ds, seeds, &cfg, store_for(ds, &warm).0);
            check.check(&plain);
            let (store, field) = store_for(ds, &warm);
            let traced = traced_solve(ds, seeds, &cfg, store, field.clone());
            check.attempted += 1;
            if traced.streamlines != plain.streamlines {
                check.failed += 1;
            }
            let t = &mut traces[i];
            t.plain_s.push(plain.seconds);
            t.whole_s.push(traced.whole_s);
            t.build_procs_s.push(traced.build_procs_s);
            t.dispatch_self_s.push(traced.dispatch_self_s());
            t.handler_self_s.push(traced.handler_self_s());
            t.events = traced.events;
            t.last_plain = Some(plain);
            rep.loads += traced.store.loads;
            rep.load_s += traced.store.load_s;
            rep.built += traced.store.built;
            rep.build_s += traced.store.build_s;
            rep.failures += traced.store.failures;
            whole_total += traced.whole_s;
            unattributed_total += traced.unattributed_s();
            worst_unattributed =
                worst_unattributed.max(traced.unattributed_s().abs() / traced.whole_s);
            if field.is_some() {
                last_field = field;
            }
        }
        store_reps.push(rep);
    });

    // The replay reads blocks the traced solves already built or prebuilt.
    let replay_store: Arc<dyn BlockStore> = match (&warm, last_field) {
        (Some(s), _) => Arc::clone(s),
        (None, Some(f)) => f,
        (None, None) => unreachable!("a cold run keeps its last lazy store"),
    };
    let lanes = run_config(DRIVERS[0].0, limits).batch.resolve();
    let replays: Vec<_> =
        (0..REPLAYS).map(|_| kernel_replay(ds, seeds, &limits, lanes, &*replay_store)).collect();
    let replay = &replays[0];
    let ns_per_step = median(&replays.iter().map(|r| r.ns_per_step()).collect::<Vec<_>>());

    let mut steps_agree = true;
    let mut kernel_excess = f64::NEG_INFINITY;
    let mut occupancy = 0.0;
    for (t, (_, d)) in traces.iter().zip(DRIVERS) {
        let r = &t.last_plain.as_ref().expect("one repetition ran").report;
        steps_agree &= r.total_steps == replay.steps;
        let kernel_s = r.total_steps as f64 * ns_per_step * 1e-9;
        let driver_self: Vec<f64> = t.handler_self_s.iter().map(|h| h - kernel_s).collect();
        let excess = -median(&driver_self) / median(&t.whole_s);
        if excess > RECONCILE_SLACK {
            eprintln!(
                "{d}: the kernel estimate exceeds handler self-time by {excess:.3} of the whole"
            );
        }
        kernel_excess = kernel_excess.max(excess);
        rec.median(format!("core.{d}.solve_s"), &t.plain_s);
        rec.set(format!("desim.{d}.events"), t.events as f64, 1);
        rec.median(format!("desim.{d}.dispatch_self_s"), &t.dispatch_self_s);
        rec.median(format!("core.{d}.build_procs_s"), &t.build_procs_s);
        rec.median(format!("core.{d}.handler_self_s"), &t.handler_self_s);
        rec.median(format!("core.{d}.driver_self_s"), &driver_self);
        rec.set(format!("core.{d}.msgs"), r.msgs as f64, 1);
        rec.set(format!("core.{d}.bytes_sent"), r.bytes_sent as f64, 1);
        rec.set(format!("core.{d}.pingpong"), r.pingpong_streamlines as f64, 1);
        rec.set(format!("paper.{d}.wall_s"), r.wall, 1);
        rec.set(format!("paper.{d}.io_s"), r.io_time, 1);
        rec.set(format!("paper.{d}.comm_s"), r.comm_time, 1);
        rec.set(format!("paper.{d}.E"), r.block_efficiency(), 1);
        rec.set(format!("paper.{d}.blocks_loaded"), r.blocks_loaded as f64, 1);
        occupancy += r.batch_occupancy / DRIVERS.len() as f64;
    }
    let first = &traces[0].last_plain.as_ref().expect("one repetition ran").report;
    rec.set("integrate.steps", replay.steps as f64, 1);
    rec.set("integrate.ns_per_step", ns_per_step, REPLAYS);
    rec.set("integrate.sampler_hit_frac", first.sampler_hit_rate(), 1);
    rec.set("integrate.batch_occupancy", occupancy, DRIVERS.len());
    rec.set("bench.kernel_excess_frac", kernel_excess, DRIVERS.len());
    if !steps_agree {
        eprintln!("kernel replay took {} steps; a driver reported otherwise", replay.steps);
    }

    let plain: f64 = traces.iter().map(|t| median(&t.plain_s)).sum();
    let traced: f64 = traces.iter().map(|t| median(&t.whole_s)).sum();
    SolveTraces {
        store: store_reps,
        reps,
        overhead_frac: traced / plain - 1.0,
        unattributed_frac: unattributed_total / whole_total,
        reconciled: worst_unattributed <= RECONCILE_SLACK
            && kernel_excess <= RECONCILE_SLACK
            && steps_agree,
    }
}

/// The `field` and `iosim` metrics from per-repetition store times.
pub fn record_store(rec: &mut Record, reps: &[solve::StoreTimes]) {
    let med = |f: fn(&solve::StoreTimes) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let n = reps.len();
    let built = med(|s| s.built as f64);
    let build_s = med(|s| s.build_s);
    rec.set("field.blocks_built", built, n);
    rec.set("field.build_s", build_s, n);
    rec.set("field.build_ms_per_block", if built > 0.0 { build_s * 1e3 / built } else { 0.0 }, n);
    let loads = med(|s| s.loads as f64);
    let load_s = med(|s| s.load_s);
    rec.set("iosim.store_loads", loads, n);
    rec.set("iosim.store_load_s", load_s, n);
    rec.set("iosim.store_load_us", if loads > 0.0 { load_s * 1e6 / loads } else { 0.0 }, n);
    rec.set("iosim.load_failures", med(|s| s.failures as f64), n);
}
