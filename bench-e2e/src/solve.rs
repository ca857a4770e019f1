//! Closed driver solves: the plain call, the traced call with its layer
//! boundaries, the kernel replay, and the answer digests.
//!
//! The traced solve rebuilds what `run_simulated_detailed_with_store` does
//! from the public pieces (`build_procs`, `Simulation`) so it can wrap the
//! store and every rank. The wrappers only read the clock: a traced solve
//! returns streamlines bit-identical to the plain one, which the traced
//! run checks on every solve.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use streamline_core::advance::{advance_batch_in_block, StreamlineBatch};
use streamline_core::{
    build_procs, run_simulated_detailed_with_store, AnyProc, BlockExit, Msg, RunConfig, RunOutcome,
    RunReport,
};
use streamline_desim::{Context, Event, Process, Simulation};
use streamline_field::block::{Block, BlockId};
use streamline_field::dataset::Dataset;
use streamline_field::seeds::SeedSet;
use streamline_integrate::{StepLimits, Streamline, StreamlineId, StreamlineStatus};
use streamline_iosim::{BlockStore, FieldStore, StoreError};

/// Ranks every batch solve runs on (the paper's mid-size configuration).
pub const RANKS: usize = 128;

/// The run configuration of every solve: the driver's defaults, including
/// `--batch auto`, with the dataset's integration limits.
pub fn run_config(algorithm: streamline_core::Algorithm, limits: StepLimits) -> RunConfig {
    let mut cfg = RunConfig::new(algorithm, RANKS);
    cfg.limits = limits;
    cfg
}

/// One plain (untraced) solve.
pub struct Solve {
    pub seconds: f64,
    pub report: RunReport,
    pub streamlines: Vec<Streamline>,
}

impl Solve {
    /// The run finished every seed with no fault of any kind.
    pub fn completed(&self, n_seeds: usize) -> bool {
        self.report.outcome == RunOutcome::Completed
            && self.report.terminated == n_seeds as u64
            && self.streamlines.len() == n_seeds
    }
}

pub fn plain_solve(
    ds: &Dataset,
    seeds: &SeedSet,
    cfg: &RunConfig,
    store: Arc<dyn BlockStore>,
) -> Solve {
    let t = Instant::now();
    let (report, streamlines) = run_simulated_detailed_with_store(ds, seeds, cfg, store);
    Solve { seconds: t.elapsed().as_secs_f64(), report, streamlines }
}

/// Store time seen through [`TimedStore`], split into block synthesis
/// (loads that made a lazy `FieldStore` build the block) and the rest.
#[derive(Debug, Default, Clone, Copy)]
pub struct StoreTimes {
    pub loads: u64,
    pub load_s: f64,
    pub built: u64,
    pub build_s: f64,
    pub failures: u64,
}

/// A store wrapper that times every `try_load`. The simulation runs on one
/// thread, so a change in the wrapped `FieldStore`'s build count across
/// one call means that call built the block.
pub struct TimedStore {
    inner: Arc<dyn BlockStore>,
    field: Option<Arc<FieldStore>>,
    loads: AtomicU64,
    load_ns: AtomicU64,
    built: AtomicU64,
    build_ns: AtomicU64,
    failures: AtomicU64,
}

impl TimedStore {
    pub fn new(inner: Arc<dyn BlockStore>, field: Option<Arc<FieldStore>>) -> Self {
        TimedStore {
            inner,
            field,
            loads: AtomicU64::new(0),
            load_ns: AtomicU64::new(0),
            built: AtomicU64::new(0),
            build_ns: AtomicU64::new(0),
            failures: AtomicU64::new(0),
        }
    }

    pub fn times(&self) -> StoreTimes {
        StoreTimes {
            loads: self.loads.load(Ordering::Relaxed),
            load_s: self.load_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            built: self.built.load(Ordering::Relaxed),
            build_s: self.build_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            failures: self.failures.load(Ordering::Relaxed),
        }
    }
}

impl BlockStore for TimedStore {
    fn try_load(&self, id: BlockId) -> Result<Arc<Block>, StoreError> {
        let builds_before = self.field.as_ref().map(|f| f.builds());
        let t = Instant::now();
        let result = self.inner.try_load(id);
        let ns = t.elapsed().as_nanos() as u64;
        let built = match (&self.field, builds_before) {
            (Some(f), Some(before)) => f.builds() > before,
            _ => false,
        };
        if built {
            self.built.fetch_add(1, Ordering::Relaxed);
            self.build_ns.fetch_add(ns, Ordering::Relaxed);
        } else {
            self.load_ns.fetch_add(ns, Ordering::Relaxed);
        }
        self.loads.fetch_add(1, Ordering::Relaxed);
        if result.is_err() {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn num_blocks(&self) -> usize {
        self.inner.num_blocks()
    }
}

/// A rank wrapper that times every event handler.
struct TimedProc {
    inner: AnyProc,
    busy_ns: u64,
}

impl Process<Msg> for TimedProc {
    fn on_event(&mut self, ev: Event<Msg>, ctx: &mut dyn Context<Msg>) {
        let t = Instant::now();
        self.inner.on_event(ev, ctx);
        self.busy_ns += t.elapsed().as_nanos() as u64;
    }
}

/// One traced solve, broken down at the layer boundaries.
pub struct TracedSolve {
    /// Build ranks → simulate → collect, end to end.
    pub whole_s: f64,
    pub build_procs_s: f64,
    /// `Simulation::run`, dispatch and handlers together.
    pub run_s: f64,
    /// Summed handler time, store calls included.
    pub handlers_s: f64,
    pub store: StoreTimes,
    pub events: u64,
    pub streamlines: Vec<Streamline>,
}

impl TracedSolve {
    /// DES dispatch self-time: the run minus the handlers it called.
    pub fn dispatch_self_s(&self) -> f64 {
        self.run_s - self.handlers_s
    }

    /// Handler self-time: handlers minus the store calls they made.
    pub fn handler_self_s(&self) -> f64 {
        self.handlers_s - self.store.load_s - self.store.build_s
    }

    /// Time no boundary covers (simulation set-up and result collection).
    pub fn unattributed_s(&self) -> f64 {
        self.whole_s - self.build_procs_s - self.run_s
    }
}

/// [`plain_solve`] with the store and every rank wrapped in timers.
/// `field` is the lazy store inside `store`, when there is one.
pub fn traced_solve(
    ds: &Dataset,
    seeds: &SeedSet,
    cfg: &RunConfig,
    store: Arc<dyn BlockStore>,
    field: Option<Arc<FieldStore>>,
) -> TracedSolve {
    let timed = Arc::new(TimedStore::new(store, field));
    let t0 = Instant::now();
    let procs = build_procs(ds, seeds, cfg, Arc::clone(&timed) as Arc<dyn BlockStore>);
    let build_procs_s = t0.elapsed().as_secs_f64();
    let procs: Vec<TimedProc> =
        procs.into_iter().map(|inner| TimedProc { inner, busy_ns: 0 }).collect();
    let sim = Simulation::new(cfg.cost.net, procs);
    let t1 = Instant::now();
    let (report, mut procs) = sim.run();
    let run_s = t1.elapsed().as_secs_f64();
    let mut streamlines: Vec<Streamline> =
        procs.iter_mut().flat_map(|p| p.inner.take_finished()).collect();
    streamlines.sort_by_key(|s| s.id);
    let whole_s = t0.elapsed().as_secs_f64();
    TracedSolve {
        whole_s,
        build_procs_s,
        run_s,
        handlers_s: procs.iter().map(|p| p.busy_ns).sum::<u64>() as f64 * 1e-9,
        store: timed.times(),
        events: report.events,
        streamlines,
    }
}

/// The kernel replay: advance `seeds` block by block with the public batch
/// advance, `lanes` streamlines per call, timing only the advance calls.
/// Every lane is bit-identical to the drivers' integration, so the step
/// count must equal each driver's `RunReport::total_steps`.
pub struct Replay {
    pub steps: u64,
    pub seconds: f64,
}

impl Replay {
    pub fn ns_per_step(&self) -> f64 {
        self.seconds * 1e9 / self.steps.max(1) as f64
    }
}

pub fn kernel_replay(
    ds: &Dataset,
    seeds: &SeedSet,
    limits: &StepLimits,
    lanes: usize,
    store: &dyn BlockStore,
) -> Replay {
    let mut queues: BTreeMap<BlockId, Vec<Streamline>> = BTreeMap::new();
    for (i, &p) in seeds.points.iter().enumerate() {
        if let Some(b) = ds.decomp.locate(p) {
            queues.entry(b).or_default().push(Streamline::new_lean(
                StreamlineId(i as u32),
                p,
                limits.h0,
            ));
        }
    }
    let mut blocks: BTreeMap<BlockId, Arc<Block>> = BTreeMap::new();
    let mut batch = StreamlineBatch::new();
    let (mut steps, mut ns) = (0u64, 0u128);
    while let Some((id, mut group)) = queues.pop_first() {
        let block = Arc::clone(blocks.entry(id).or_insert_with(|| store.load(id)));
        for chunk in group.chunks_mut(lanes.max(1)) {
            let t = Instant::now();
            let (exits, stats) =
                advance_batch_in_block(chunk, &block, &ds.decomp, limits, &mut batch);
            ns += t.elapsed().as_nanos();
            steps += stats.steps;
            for (sl, exit) in chunk.iter().zip(exits) {
                if let BlockExit::MovedTo(next) = exit {
                    queues.entry(next).or_default().push(sl.clone());
                }
            }
        }
    }
    Replay { steps, seconds: ns as f64 * 1e-9 }
}

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Digest of one streamline's answer: seed, final solver state and
/// termination, bit for bit. Ids and stored geometry are left out, so a
/// served streamline compares with the batch one for the same seed.
pub fn answer_digest(s: &Streamline) -> u64 {
    let st = &s.state;
    let status = match s.status {
        StreamlineStatus::Active => 0,
        StreamlineStatus::Terminated(t) => 1 + t as u64,
    };
    fnv([
        s.seed.x.to_bits(),
        s.seed.y.to_bits(),
        s.seed.z.to_bits(),
        st.position.x.to_bits(),
        st.position.y.to_bits(),
        st.position.z.to_bits(),
        st.time.to_bits(),
        st.h.to_bits(),
        st.steps,
        st.arc_length.to_bits(),
        status,
    ])
}

/// Digest of a whole solve: every streamline's id and answer, in id order.
pub fn solve_digest(streamlines: &[Streamline]) -> u64 {
    fnv(streamlines.iter().flat_map(|s| [u64::from(s.id.0), answer_digest(s)]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::DRIVERS;
    use streamline_field::dataset::DatasetConfig;
    use streamline_iosim::MemoryStore;

    fn small() -> (Dataset, SeedSet, StepLimits) {
        let ds = Dataset::astrophysics(DatasetConfig {
            blocks_per_axis: [4, 4, 4],
            cells_per_block: [6, 6, 6],
            ghost: 1,
            seed: 42,
        });
        let seeds = crate::inputs::astro_sparse(&ds, 48, 5);
        let limits = StepLimits { max_steps: 300, ..crate::inputs::astro_limits() };
        (ds, seeds, limits)
    }

    /// The timing wrappers are transparent: on every driver, a traced solve
    /// returns streamlines bit-identical to the plain solve, and the kernel
    /// replay takes exactly the drivers' steps.
    #[test]
    fn traced_solve_is_bit_identical_to_plain() {
        let (ds, seeds, limits) = small();
        let mut cfg = RunConfig::new(streamline_core::Algorithm::StaticAllocation, 8);
        cfg.limits = limits;
        for (alg, _) in DRIVERS {
            cfg.algorithm = alg;
            let plain = plain_solve(&ds, &seeds, &cfg, Arc::new(FieldStore::new(ds.clone())));
            assert!(plain.completed(seeds.len()));
            let field = Arc::new(FieldStore::new(ds.clone()));
            let traced = traced_solve(
                &ds,
                &seeds,
                &cfg,
                Arc::clone(&field) as Arc<dyn BlockStore>,
                Some(Arc::clone(&field)),
            );
            assert_eq!(traced.streamlines, plain.streamlines, "{alg:?}");
            assert_eq!(traced.events, plain.report.events);
            assert_eq!(traced.store.built, field.builds());
            assert!(traced.store.built > 0 && traced.store.loads >= traced.store.built);
            assert!(traced.handler_self_s() > 0.0 && traced.dispatch_self_s() > 0.0);
            assert!(traced.unattributed_s() >= 0.0);
            let replay = kernel_replay(&ds, &seeds, &cfg.limits, cfg.batch.resolve(), &*field);
            assert_eq!(replay.steps, plain.report.total_steps, "{alg:?}");
        }
    }

    #[test]
    fn digests_see_every_answer_bit() {
        let (ds, seeds, limits) = small();
        let mut cfg = RunConfig::new(streamline_core::Algorithm::LoadOnDemand, 4);
        cfg.limits = limits;
        let plain = plain_solve(&ds, &seeds, &cfg, Arc::new(MemoryStore::build(&ds)));
        let base = solve_digest(&plain.streamlines);
        let mut bent = plain.streamlines.clone();
        bent[7].state.arc_length = f64::from_bits(bent[7].state.arc_length.to_bits() ^ 1);
        assert_ne!(solve_digest(&bent), base);
        assert_ne!(answer_digest(&bent[7]), answer_digest(&plain.streamlines[7]));
        let mut renumbered = plain.streamlines[3].clone();
        renumbered.id = StreamlineId(99);
        assert_eq!(answer_digest(&renumbered), answer_digest(&plain.streamlines[3]));
    }
}
