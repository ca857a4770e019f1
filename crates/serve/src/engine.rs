//! The serving engine behind both front ends: replicas that each own a
//! shard of the blocks on a consistent-hash [`Ring`], with one or more
//! workers per replica draining that replica's per-block queues.
//! [`Service`](crate::Service) is a cluster of one — one replica with
//! `workers` workers — and [`ClusterService`](crate::cluster::ClusterService)
//! is `replicas` replicas with one worker each.
//!
//! # Life of a request
//!
//! 1. [`Engine::submit`] locates every seed, routes it to the replica
//!    owning its block, and reserves an admission seat there; any replica
//!    over capacity rejects the whole request with the typed
//!    [`SubmitError::Overloaded`], without enqueuing anything. Seeds get
//!    [`StreamlineId`]s in seed order, exactly like the single-shot driver.
//! 2. A worker claims the *entire queue* of the block with the most parked
//!    items on its replica (ties toward the lowest block id), acquires the
//!    block once through the replica's [`SharedBlockCache`] (retries,
//!    per-block circuit breakers), and advances every parked streamline
//!    through it with [`advance_batch_in_block`] — the same kernel the
//!    batch drivers use, so answers are bit-identical to single-shot runs.
//! 3. A streamline that exits into a block its replica does not serve is
//!    handed to the owner replica with its geometry, the serving analogue
//!    of the paper's rank hand-off. Blocks globally hot (top-k by access
//!    count) may instead be advanced by up to `replication` ring successors
//!    locally, trading cache residency for hand-off traffic.
//! 4. When the last seed of a request resolves, the [`Response`] is sent
//!    and the client's [`Ticket`] unblocks.
//!
//! With more than one replica, death is fail-stop: a killed replica stops
//! heartbeating, the monitor declares it dead after `suspect_after`,
//! re-routes its shard to ring successors and re-dispatches its parked
//! streamlines intact. In-flight tickets resolve typed (an answer or
//! [`crate::ServiceGone`]), never a hang, and `completed + gone ==
//! admitted` stays exact. A single replica has no successor to fail over
//! to, so it runs no heartbeat or monitor thread and cannot be killed.

use crate::breaker::{Admit, BlockBreakers, RetryPolicy};
use crate::cache::SharedBlockCache;
use crate::cluster::ClusterConfig;
use crate::metrics::LatencyHistogram;
use crate::ring::Ring;
use crate::service::{Outcome, Request, Response, SubmitError, Ticket};
use crossbeam::channel::{bounded, Sender};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use streamline_core::advance::advance_batch_in_block;
use streamline_core::workspace::BlockExit;
use streamline_field::block::{Block, BlockId};
use streamline_field::decomp::BlockDecomposition;
use streamline_integrate::{StepLimits, Streamline, StreamlineBatch, StreamlineId, Termination};
use streamline_iosim::BlockStore;
use streamline_obs::{names, Counter, MetricsRegistry, Phase, WallTimeline};

/// The engine's event counters. Every engine counts all of them; a front
/// end's [`Series`] table decides which are exported, and under what name.
#[derive(Clone, Copy)]
pub(crate) enum Stat {
    Submitted,
    Completed,
    Rejected,
    RequestsGone,
    StreamlinesCompleted,
    StreamlinesUnavailable,
    Steps,
    WorkerPanics,
    DeadlineExpired,
    Partial,
    LoadRetries,
    LoadFailures,
    SamplerHits,
    SamplerMisses,
    BatchedLanes,
    Handoffs,
    HandoffBytes,
    Redispatches,
    RedispatchBytes,
    ReplicaDeaths,
    HotLocalHits,
}

const STATS: usize = Stat::HotLocalHits as usize + 1;

/// A front end's registry layout. Each front end passes one constant
/// table, so every series keeps its name and meaning.
pub(crate) struct Series {
    /// The exported counters; the rest are counted but never exported.
    pub stats: &'static [(Stat, &'static str)],
    pub latency: &'static str,
    /// Per-replica `[streamlines completed, hand-offs out, latency]`
    /// bases, suffixed by [`names::per_replica`].
    pub per_replica: Option<[&'static str; 3]>,
}

/// One streamline parked on a replica, plus its parent request and the
/// replica holding its admission seat (seats stay home even when the
/// trajectory is handed off, so conservation is exact per replica).
struct WorkItem {
    sl: Streamline,
    req: Arc<RequestState>,
    home: usize,
}

/// Shared, mostly-atomic state of one in-flight request.
struct RequestState {
    id: u64,
    limits: StepLimits,
    deadline: Option<Instant>,
    submitted: Instant,
    /// Replica charged with this request's latency sample (owner of the
    /// first in-domain seed).
    home: usize,
    /// Set once the deadline is observed expired; later items short-circuit.
    expired: AtomicBool,
    /// Set when a worker panic (or a replica kill) destroyed part of this
    /// request's state. Completion then resolves the ticket as
    /// [`crate::ServiceGone`] (the sender is dropped without an answer)
    /// instead of sending a partial lie.
    poisoned: AtomicBool,
    /// Seeds not yet resolved; the item that drops this to zero completes
    /// the request.
    remaining: AtomicUsize,
    /// Seeds abandoned because the deadline passed.
    dropped: AtomicUsize,
    /// Seeds terminated `BlockUnavailable` by store faults.
    unavailable: AtomicUsize,
    finished: Mutex<Vec<Streamline>>,
    tx: Sender<Response>,
}

impl RequestState {
    fn new(id: u64, req: &Request, home: usize, tx: Sender<Response>) -> Self {
        let n = req.seeds.len();
        RequestState {
            id,
            limits: req.limits,
            deadline: req.deadline,
            submitted: Instant::now(),
            home,
            expired: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            remaining: AtomicUsize::new(n),
            dropped: AtomicUsize::new(0),
            unavailable: AtomicUsize::new(0),
            finished: Mutex::new(Vec::with_capacity(n)),
            tx,
        }
    }
}

/// One replica's batch former.
#[derive(Default)]
struct ReplicaSched {
    queues: BTreeMap<BlockId, Vec<WorkItem>>,
    /// Set by the monitor when this replica is declared dead; nothing may
    /// park here afterwards (parkers re-route to the ring successor).
    dead: bool,
}

pub(crate) struct Replica {
    pub cache: SharedBlockCache,
    pub breakers: BlockBreakers,
    sched: Mutex<ReplicaSched>,
    /// Signalled when work is parked here, on a kill, and on drain.
    work_ready: Condvar,
    /// Admission seats taken on this replica (seeds admitted, unresolved).
    pub pending_seeds: AtomicUsize,
    /// Fail-stop injection flag: the replica's workers and heartbeat stop
    /// cooperating at their next safe point.
    killed: AtomicBool,
    /// Nanoseconds since engine start of the last heartbeat.
    heartbeat: AtomicU64,
    pub streamlines_completed: Counter,
    pub handoffs_out: Counter,
    pub latency: LatencyHistogram,
}

/// Everything the workers, the front ends and the monitor share.
pub(crate) struct Shared {
    pub decomp: BlockDecomposition,
    pub store: Arc<dyn BlockStore>,
    pub ring: Ring,
    pub replicas: Vec<Replica>,
    alive: Vec<AtomicBool>,
    /// Worker threads per replica.
    pub workers: usize,
    replication: usize,
    retry: RetryPolicy,
    /// Batch width for the advection kernel (≥ 1).
    pub batch: usize,
    hot_k: usize,
    pub queue_capacity: usize,
    heartbeat_every: Duration,
    suspect_after: Duration,
    shutting_down: AtomicBool,
    /// Streamlines parked or checked out anywhere in the engine; workers
    /// may exit only when shutting down *and* this is zero (a hand-off can
    /// land on any replica until the last item resolves).
    outstanding: AtomicUsize,
    next_request_id: AtomicU64,
    pub started: Instant,
    /// Per-block access counts feeding the hot-set selection.
    access: Vec<AtomicU64>,
    /// Per-block "currently replicated" flags, recomputed by the monitor.
    pub hot: RwLock<Vec<bool>>,
    /// The unified metric store. Exported counters are registered handles
    /// into it, so the hot path is one relaxed atomic increment; gauges are
    /// mirrored in by the front end at snapshot/dump time.
    pub registry: Arc<MetricsRegistry>,
    stats: [Counter; STATS],
    pub latency: LatencyHistogram,
    /// Wall-clock phase timeline, one rank per worker, present only when
    /// [`ClusterConfig::trace_bucket`] was set.
    pub trace: Option<WallTimeline>,
    /// Hand-off wall times (secs since start) — the schedule trace's
    /// ping-pong series. Only collected while tracing.
    pub handoff_times: Mutex<Vec<f64>>,
    /// Detected replica deaths as `(rank of the replica's first worker,
    /// secs since start)`.
    pub deaths: Mutex<Vec<(usize, f64)>>,
    /// Test-only fault injection (see [`ClusterConfig::panic_on_block`]).
    panic_on_block: Option<BlockId>,
    panic_fired: AtomicBool,
}

/// A running engine: the shared state plus every thread it spawned.
/// Dropping it drains: pending tickets still get answers.
pub(crate) struct Engine {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Deref for Engine {
    type Target = Shared;

    fn deref(&self) -> &Shared {
        &self.shared
    }
}

impl Engine {
    /// Spawn `cfg.replicas` replicas with `workers` worker threads each,
    /// plus — when there is more than one replica — a heartbeat per
    /// replica and the failure-detection monitor.
    pub fn start(
        decomp: BlockDecomposition,
        store: Arc<dyn BlockStore>,
        cfg: &ClusterConfig,
        workers: usize,
        series: &Series,
    ) -> Engine {
        let n = cfg.replicas.max(1);
        let workers = workers.max(1);
        let registry = Arc::new(MetricsRegistry::new());
        let replicas = (0..n)
            .map(|r| {
                let named = |i: usize| series.per_replica.map(|b| names::per_replica(b[i], r));
                Replica {
                    cache: SharedBlockCache::new(cfg.cache_blocks, cfg.cache_shards),
                    breakers: BlockBreakers::new(cfg.breaker),
                    sched: Mutex::new(ReplicaSched::default()),
                    work_ready: Condvar::new(),
                    pending_seeds: AtomicUsize::new(0),
                    killed: AtomicBool::new(false),
                    heartbeat: AtomicU64::new(0),
                    streamlines_completed: named(0)
                        .map_or_else(Counter::standalone, |n| registry.counter(&n)),
                    handoffs_out: named(1)
                        .map_or_else(Counter::standalone, |n| registry.counter(&n)),
                    latency: named(2).map_or_else(LatencyHistogram::new, |n| {
                        LatencyHistogram::in_registry(&registry, &n)
                    }),
                }
            })
            .collect();
        let n_blocks = decomp.num_blocks();
        let shared = Arc::new(Shared {
            decomp,
            store,
            ring: Ring::new(n, cfg.vnodes),
            replicas,
            alive: (0..n).map(|_| AtomicBool::new(true)).collect(),
            workers,
            replication: cfg.replication.max(1),
            retry: cfg.retry,
            batch: cfg.batch.max(1),
            hot_k: cfg.hot_k,
            queue_capacity: cfg.queue_capacity.max(1),
            heartbeat_every: cfg.heartbeat_every.max(Duration::from_micros(100)),
            suspect_after: cfg.suspect_after.max(cfg.heartbeat_every * 4),
            shutting_down: AtomicBool::new(false),
            outstanding: AtomicUsize::new(0),
            next_request_id: AtomicU64::new(0),
            started: Instant::now(),
            access: (0..n_blocks).map(|_| AtomicU64::new(0)).collect(),
            hot: RwLock::new(vec![false; n_blocks]),
            stats: std::array::from_fn(|i| {
                match series.stats.iter().find(|(stat, _)| *stat as usize == i) {
                    Some((_, name)) => registry.counter(name),
                    None => Counter::standalone(),
                }
            }),
            latency: LatencyHistogram::in_registry(&registry, series.latency),
            trace: cfg.trace_bucket.map(|w| WallTimeline::new(n * workers, w)),
            handoff_times: Mutex::new(Vec::new()),
            deaths: Mutex::new(Vec::new()),
            panic_on_block: cfg.panic_on_block,
            panic_fired: AtomicBool::new(false),
            registry,
        });
        let mut threads = Vec::new();
        for r in 0..n {
            for w in 0..workers {
                let rank = r * workers + w;
                threads.push(spawn(&shared, format!("serve-worker-{rank}"), move |s| {
                    worker_loop(s, r, rank)
                }));
            }
        }
        if n > 1 {
            for r in 0..n {
                threads.push(spawn(&shared, format!("serve-heartbeat-{r}"), move |s| {
                    heartbeat_loop(s, r)
                }));
            }
            threads.push(spawn(&shared, "serve-monitor".into(), monitor_loop));
        }
        Engine { shared, threads }
    }

    /// Submit a request: seeds are routed to their owner replicas, one
    /// admission seat each. Any target replica over capacity rejects the
    /// whole request (typed, without enqueuing anything anywhere).
    pub fn submit(&self, req: Request) -> Result<Ticket, SubmitError> {
        let inner: &Shared = self;
        let n = req.seeds.len();
        if n == 0 {
            return Err(SubmitError::Empty);
        }
        if inner.shutting_down.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }
        let alive = inner.alive_mask();

        // Route every seed before touching any shared state.
        let mut routed: Vec<(usize, BlockId, usize)> = Vec::with_capacity(n); // (seed, block, replica)
        let mut out_of_domain: Vec<usize> = Vec::new();
        for (i, &p) in req.seeds.iter().enumerate() {
            match inner.decomp.locate(p).and_then(|b| inner.ring.owner(b, &alive).map(|r| (b, r))) {
                Some((b, r)) => routed.push((i, b, r)),
                None => out_of_domain.push(i),
            }
        }

        // Optimistic per-replica admission: reserve seats in replica order,
        // roll back everything on the first refusal.
        let mut want = vec![0usize; inner.replicas.len()];
        for &(_, _, r) in &routed {
            want[r] += 1;
        }
        let mut reserved: Vec<(usize, usize)> = Vec::new();
        for (r, &k) in want.iter().enumerate() {
            if k == 0 {
                continue;
            }
            let prev = inner.replicas[r].pending_seeds.fetch_add(k, Ordering::AcqRel);
            reserved.push((r, k));
            if prev + k > inner.queue_capacity {
                for &(rr, kk) in &reserved {
                    inner.replicas[rr].pending_seeds.fetch_sub(kk, Ordering::AcqRel);
                }
                inner.stat(Stat::Rejected).inc();
                return Err(SubmitError::Overloaded {
                    queue_depth: prev,
                    capacity: inner.queue_capacity,
                    requested: n,
                });
            }
        }

        // Claim the outstanding slots, then re-check the drain flag:
        // workers exit only when `shutting_down && outstanding == 0`, so
        // once this add is visible no worker exits under us — and if the
        // drain began first, we roll everything back untouched.
        inner.outstanding.fetch_add(routed.len(), Ordering::SeqCst);
        if inner.shutting_down.load(Ordering::SeqCst) {
            for &(rr, kk) in &reserved {
                inner.replicas[rr].pending_seeds.fetch_sub(kk, Ordering::AcqRel);
            }
            release_outstanding_n(inner, routed.len());
            return Err(SubmitError::ShuttingDown);
        }

        let id = inner.next_request_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = bounded(1);
        let home = routed.first().map(|&(_, _, r)| r).unwrap_or(0);
        let state = Arc::new(RequestState::new(id, &req, home, tx));

        // Seed-order ids, exactly like the batch drivers — the invariant
        // every bit-identity test leans on.
        let mut parked: BTreeMap<(usize, BlockId), Vec<WorkItem>> = BTreeMap::new();
        for (i, block, r) in routed {
            let sl = Streamline::new_lean(StreamlineId(i as u32), req.seeds[i], req.limits.h0);
            let item = WorkItem { sl, req: Arc::clone(&state), home: r };
            parked.entry((r, block)).or_default().push(item);
        }
        inner.stat(Stat::Submitted).inc();
        for ((r, block), items) in parked {
            park(inner, r, block, items);
        }

        // Out-of-domain seeds terminate instantly (possibly completing the
        // whole request right here on the client thread).
        for i in out_of_domain {
            let mut sl = Streamline::new_lean(StreamlineId(i as u32), req.seeds[i], req.limits.h0);
            sl.terminate(Termination::ExitedDomain);
            finish_item(inner, home, &state, Some(sl), false);
        }

        Ok(Ticket { request_id: id, rx })
    }

    /// Fail-stop injection: replica `r` stops heartbeating and cooperating.
    /// Returns `false` if `r` was already killed or out of range, or if it
    /// is the only replica (there is no successor to fail over to).
    pub fn kill_replica(&self, r: usize) -> bool {
        if self.replicas.len() < 2 {
            return false;
        }
        let Some(rep) = self.replicas.get(r) else { return false };
        if rep.killed.swap(true, Ordering::AcqRel) {
            return false;
        }
        // Wake the workers so they observe the kill instead of idling.
        let _st = rep.sched.lock();
        rep.work_ready.notify_all();
        true
    }

    /// Stop admitting; workers drain every parked and in-flight streamline
    /// (hand-offs included) and then exit.
    pub fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        for rep in &self.replicas {
            let _st = rep.sched.lock();
            rep.work_ready.notify_all();
        }
    }

    /// Join every thread (after [`Engine::begin_shutdown`]).
    pub fn join(&mut self) {
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.begin_shutdown();
            self.join();
        }
    }
}

fn spawn(
    shared: &Arc<Shared>,
    name: String,
    body: impl FnOnce(&Shared) + Send + 'static,
) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(name)
        .spawn(move || body(&shared))
        .expect("spawn serve engine thread")
}

impl Shared {
    pub fn stat(&self, stat: Stat) -> &Counter {
        &self.stats[stat as usize]
    }

    pub fn alive_mask(&self) -> Vec<bool> {
        self.alive.iter().map(|a| a.load(Ordering::Acquire)).collect()
    }
}

/// Milliseconds at quantile `p` of `h`, 0 before any sample.
pub(crate) fn quantile_ms(h: &LatencyHistogram, p: f64) -> f64 {
    h.quantile(p).map(|d| d.as_secs_f64() * 1e3).unwrap_or(0.0)
}

/// Park `items` in `target`'s queue for `block`. If `target` was declared
/// dead in the meantime, re-route to the block's current owner; if no
/// replica is alive at all, the items terminate `BlockUnavailable` — typed,
/// never a hang.
fn park(inner: &Shared, mut target: usize, block: BlockId, mut items: Vec<WorkItem>) {
    loop {
        let rep = &inner.replicas[target];
        let mut st = rep.sched.lock();
        if !st.dead {
            st.queues.entry(block).or_default().append(&mut items);
            rep.work_ready.notify_one();
            return;
        }
        drop(st);
        match inner.ring.owner(block, &inner.alive_mask()) {
            Some(next) if next != target => target = next,
            _ => {
                for item in items {
                    resolve_unavailable(inner, item);
                }
                return;
            }
        }
    }
}

/// Resolve one seed whose block cannot be produced (retries exhausted,
/// breaker open, or no live owner): it terminates `BlockUnavailable` —
/// typed, with the curve computed so far — instead of wedging its request.
fn resolve_unavailable(inner: &Shared, mut item: WorkItem) {
    item.sl.terminate(Termination::BlockUnavailable);
    item.req.unavailable.fetch_add(1, Ordering::Relaxed);
    inner.stat(Stat::StreamlinesUnavailable).inc();
    finish_item(inner, item.home, &item.req, Some(item.sl), true);
}

/// Resolve one seed: record the streamline (unless dropped), release its
/// `home` admission seat and outstanding slot (skipped for out-of-domain
/// seeds, which reserved neither), and complete the request if it was the
/// last. `home` is also the replica credited with the completion.
fn finish_item(
    inner: &Shared,
    home: usize,
    req: &Arc<RequestState>,
    sl: Option<Streamline>,
    parked: bool,
) {
    match sl {
        Some(sl) => {
            inner.stat(Stat::StreamlinesCompleted).inc();
            inner.replicas[home].streamlines_completed.inc();
            req.finished.lock().push(sl);
        }
        None => {
            req.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
    if parked {
        inner.replicas[home].pending_seeds.fetch_sub(1, Ordering::AcqRel);
        release_outstanding_n(inner, 1);
    }
    if req.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        complete_request(inner, req);
    }
}

/// Resolve one seed whose streamline was destroyed by a worker panic or a
/// replica kill: poison the request so its completion resolves the ticket
/// as [`crate::ServiceGone`], release the seat, and complete if last. Every
/// admitted seed releases its seat exactly once, panic or not.
fn abandon_item(inner: &Shared, home: usize, req: &Arc<RequestState>) {
    req.poisoned.store(true, Ordering::Release);
    inner.replicas[home].pending_seeds.fetch_sub(1, Ordering::AcqRel);
    release_outstanding_n(inner, 1);
    if req.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        complete_request(inner, req);
    }
}

fn release_outstanding_n(inner: &Shared, n: usize) {
    if inner.outstanding.fetch_sub(n, Ordering::SeqCst) == n
        && inner.shutting_down.load(Ordering::SeqCst)
    {
        // Fully drained: wake every worker so it can exit.
        for rep in &inner.replicas {
            let _st = rep.sched.lock();
            rep.work_ready.notify_all();
        }
    }
}

fn complete_request(inner: &Shared, req: &Arc<RequestState>) {
    if req.poisoned.load(Ordering::Acquire) {
        // Part of this request's state was destroyed; there is no honest
        // answer to send. Dropping the sender (with the last
        // `Arc<RequestState>`) resolves the ticket as the typed
        // `ServiceGone` — never a hang, never a partial lie.
        inner.stat(Stat::RequestsGone).inc();
        return;
    }
    let latency = req.submitted.elapsed();
    let dropped = req.dropped.load(Ordering::Relaxed);
    let unavailable = req.unavailable.load(Ordering::Relaxed);
    let outcome = if dropped > 0 || req.expired.load(Ordering::Relaxed) {
        inner.stat(Stat::DeadlineExpired).inc();
        Outcome::DeadlineExceeded { dropped }
    } else if unavailable > 0 {
        inner.stat(Stat::Partial).inc();
        Outcome::Partial { unavailable }
    } else {
        Outcome::Completed
    };
    let mut streamlines = std::mem::take(&mut *req.finished.lock());
    streamlines.sort_by_key(|sl| sl.id);
    inner.latency.record(latency);
    inner.replicas[req.home].latency.record(latency);
    inner.stat(Stat::Completed).inc();
    // The client may have dropped its ticket; that's fine.
    let _ = req.tx.send(Response { request_id: req.id, outcome, streamlines, latency });
}

/// Claim the fullest queue of `replica` (ties toward the lowest block id).
/// Returns `None` when the replica is killed, or when shutting down and the
/// engine is fully drained.
fn claim_batch(inner: &Shared, replica: usize) -> Option<(BlockId, Vec<WorkItem>)> {
    let rep = &inner.replicas[replica];
    let mut st = rep.sched.lock();
    loop {
        if rep.killed.load(Ordering::Acquire) {
            return None;
        }
        if let Some(block) = st
            .queues
            .iter()
            .min_by_key(|(id, items)| (std::cmp::Reverse(items.len()), **id))
            .map(|(id, _)| *id)
        {
            let items = st.queues.remove(&block).expect("queue just observed");
            return Some((block, items));
        }
        if inner.shutting_down.load(Ordering::SeqCst)
            && inner.outstanding.load(Ordering::SeqCst) == 0
        {
            // Fully drained: wake any sibling still waiting so it can exit.
            rep.work_ready.notify_all();
            return None;
        }
        rep.work_ready.wait(&mut st);
    }
}

/// Test-only fault injection: panic the first batch claiming the
/// configured block. Fires once, so recovery — not the injection —
/// dominates everything after.
fn maybe_inject_panic(inner: &Shared, block_id: BlockId) {
    if inner.panic_on_block == Some(block_id) && !inner.panic_fired.swap(true, Ordering::AcqRel) {
        panic!("injected worker panic on {block_id:?}");
    }
}

fn worker_loop(inner: &Shared, replica: usize, rank: usize) {
    // One reusable batch-kernel scratch per worker: the SoA arrays are
    // allocated once and recycled across every batch this worker drains.
    let mut scratch = StreamlineBatch::new();
    loop {
        // Time spent inside claim_batch is overwhelmingly condvar waiting:
        // the worker is starved for parked work — the serving analogue of
        // the paper's §8 processor starvation.
        let wait_start = inner.trace.as_ref().map(|_| Instant::now());
        let claimed = claim_batch(inner, replica);
        if let (Some(tl), Some(ws)) = (inner.trace.as_ref(), wait_start) {
            tl.record(rank, Phase::Idle, ws, ws.elapsed());
        }
        let Some((block_id, items)) = claimed else { break };
        process_batch(inner, replica, rank, block_id, items, &mut scratch);
    }
}

/// Acquire `block_id` through `rep`'s cache with the configured retry
/// budget (one attempt only for a half-open probe). Each retry sleeps the
/// deterministic backoff schedule salted by the block id.
fn load_with_retry(
    inner: &Shared,
    rep: &Replica,
    block_id: BlockId,
    probe: bool,
) -> Option<Arc<Block>> {
    let attempts = if probe { 1 } else { inner.retry.max_attempts.max(1) };
    for attempt in 1..=attempts {
        match rep.cache.get_or_load(block_id, inner.store.as_ref()) {
            Ok((b, _hit)) => return Some(b),
            Err(_) if attempt < attempts => {
                inner.stat(Stat::LoadRetries).inc();
                std::thread::sleep(inner.retry.backoff(attempt, u64::from(block_id.0)));
            }
            Err(_) => {}
        }
    }
    None
}

fn process_batch(
    inner: &Shared,
    replica: usize,
    rank: usize,
    block_id: BlockId,
    items: Vec<WorkItem>,
    scratch: &mut StreamlineBatch,
) {
    let rep = &inner.replicas[replica];
    let trace = inner.trace.as_ref();
    if let Some(a) = inner.access.get(block_id.0 as usize) {
        a.fetch_add(items.len() as u64, Ordering::Relaxed);
    }

    // A kill between claim and processing is the fail-stop window: the
    // claimed items were checked out by a worker that died with them. They
    // resolve typed as `ServiceGone` — conservation stays exact.
    if rep.killed.load(Ordering::Acquire) {
        for item in items {
            abandon_item(inner, item.home, &item.req);
        }
        return;
    }

    // Block acquisition (cache probe, store load, retry sleeps) is the
    // I/O phase of this batch.
    let io_start = trace.map(|_| Instant::now());
    let block = match rep.breakers.admit(block_id) {
        Admit::FastFail => None,
        admit => {
            let b = load_with_retry(inner, rep, block_id, admit == Admit::Probe);
            match &b {
                Some(_) => rep.breakers.on_success(block_id),
                None => {
                    inner.stat(Stat::LoadFailures).inc();
                    rep.breakers.on_failure(block_id);
                }
            }
            b
        }
    };
    if let (Some(tl), Some(t0)) = (trace, io_start) {
        tl.record(rank, Phase::Io, t0, t0.elapsed());
    }
    let Some(block) = block else {
        // Degraded mode: the block cannot be produced. Already-expired
        // items are dropped as usual; the rest resolve `BlockUnavailable`.
        let comm_start = trace.map(|_| Instant::now());
        for item in items {
            if item.req.expired.load(Ordering::Relaxed) {
                finish_item(inner, item.home, &item.req, None, true);
            } else {
                resolve_unavailable(inner, item);
            }
        }
        if let (Some(tl), Some(t0)) = (trace, comm_start) {
            tl.record(rank, Phase::Comm, t0, t0.elapsed());
        }
        return;
    };

    let mut finished: Vec<(usize, Arc<RequestState>, Option<Streamline>)> = Vec::new();
    let compute_start = trace.map(|_| Instant::now());
    let now = Instant::now();
    // Deadline check first: expired requests stop consuming compute before
    // any batch forms.
    let mut live: Vec<WorkItem> = Vec::with_capacity(items.len());
    for item in items {
        let expired = item.req.expired.load(Ordering::Relaxed)
            || item.req.deadline.is_some_and(|d| {
                let hit = now >= d;
                if hit {
                    item.req.expired.store(true, Ordering::Relaxed);
                }
                hit
            });
        if expired {
            finished.push((item.home, item.req, None));
        } else {
            live.push(item);
        }
    }
    // Batched advance: runs of items sharing the same limits coalesce into
    // batch-kernel calls chunked to the configured width. Per-streamline
    // results are bit-identical to the scalar path at any width — and
    // regardless of *which replica* advances them, which is why hand-off
    // and replication placement never show up in the answers. The whole
    // phase runs under `catch_unwind`: a panicking kernel (or the test
    // injection hook) must not take the worker thread — and with it every
    // admission seat this batch holds — down with it.
    let homes_reqs: Vec<(usize, Arc<RequestState>)> =
        live.iter().map(|it| (it.home, Arc::clone(&it.req))).collect();
    let advanced = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        maybe_inject_panic(inner, block_id);
        let mut cmoved: BTreeMap<BlockId, Vec<WorkItem>> = BTreeMap::new();
        let mut cdone: Vec<(usize, Arc<RequestState>, Option<Streamline>)> = Vec::new();
        let mut rest = live;
        while !rest.is_empty() {
            let limits = rest[0].req.limits;
            let run_len = rest.iter().take_while(|it| it.req.limits == limits).count();
            let tail = rest.split_off(run_len);
            let (mut sls, tags): (Vec<Streamline>, Vec<(usize, Arc<RequestState>)>) =
                rest.into_iter().map(|it| (it.sl, (it.home, it.req))).unzip();
            let mut exits = Vec::with_capacity(sls.len());
            for chunk in sls.chunks_mut(inner.batch) {
                let (ex, stats) =
                    advance_batch_in_block(chunk, &block, &inner.decomp, &limits, scratch);
                inner.stat(Stat::Steps).add(stats.steps);
                inner.stat(Stat::SamplerHits).add(stats.sampler_hits);
                inner.stat(Stat::SamplerMisses).add(stats.sampler_misses);
                inner.stat(Stat::BatchedLanes).add(stats.batched_lanes);
                exits.extend(ex);
            }
            for ((sl, (home, req)), exit) in sls.into_iter().zip(tags).zip(exits) {
                match exit {
                    BlockExit::MovedTo(next) => {
                        cmoved.entry(next).or_default().push(WorkItem { sl, req, home })
                    }
                    BlockExit::Done(_) => cdone.push((home, req, Some(sl))),
                }
            }
            rest = tail;
        }
        (cmoved, cdone)
    }));
    if let (Some(tl), Some(t0)) = (trace, compute_start) {
        tl.record(rank, Phase::Compute, t0, t0.elapsed());
    }
    let Ok((moved, mut cdone)) = advanced else {
        // Contain the panic: the unwind destroyed this batch's live
        // streamlines, so resolve the expired items collected before the
        // advance as usual and abandon the rest — their requests resolve
        // `ServiceGone`, their seats are released, and the worker goes
        // back to claiming work.
        inner.stat(Stat::WorkerPanics).inc();
        *scratch = StreamlineBatch::new();
        for (home, req, sl) in finished {
            finish_item(inner, home, &req, sl, true);
        }
        for (home, req) in homes_reqs {
            abandon_item(inner, home, &req);
        }
        return;
    };
    finished.append(&mut cdone);

    // Routing moved streamlines and completing responses is this design's
    // communication: blocks this replica serves re-park locally; everything
    // else is a hand-off to the ring owner, geometry and all.
    let comm_start = trace.map(|_| Instant::now());
    let alive = inner.alive_mask();
    let self_alive = alive.get(replica).copied().unwrap_or(false);
    for (next, batch) in moved {
        let owner = inner.ring.owner(next, &alive);
        let keep_local = self_alive
            && match owner {
                Some(o) if o == replica => true,
                Some(_)
                    if inner.replication > 1
                        && inner.hot.read().get(next.0 as usize) == Some(&true) =>
                {
                    inner.ring.successors(next, &alive, inner.replication).contains(&replica)
                }
                _ => false,
            };
        // With no live owner at all, parking here lets `park` resolve the
        // items typed.
        let target = if keep_local { replica } else { owner.unwrap_or(replica) };
        if target != replica {
            inner.stat(Stat::Handoffs).add(batch.len() as u64);
            rep.handoffs_out.add(batch.len() as u64);
            // The "network" is a queue move; the cost model is the paper's
            // geometry-dominated rank hand-off (§8), the same bytes
            // `Msg::Handoff` charges the batch drivers.
            let bytes: usize = batch.iter().map(|it| it.sl.comm_bytes_full()).sum();
            inner.stat(Stat::HandoffBytes).add(bytes as u64);
            if trace.is_some() {
                let t = inner.started.elapsed().as_secs_f64();
                inner.handoff_times.lock().extend(std::iter::repeat_n(t, batch.len()));
            }
        } else if keep_local && owner != Some(replica) {
            inner.stat(Stat::HotLocalHits).add(batch.len() as u64);
        }
        park(inner, target, next, batch);
    }
    for (home, req, sl) in finished {
        finish_item(inner, home, &req, sl, true);
    }
    if let (Some(tl), Some(t0)) = (trace, comm_start) {
        tl.record(rank, Phase::Comm, t0, t0.elapsed());
    }
}

/// Each replica's liveness beat: bump the heartbeat stamp every
/// `heartbeat_every` until the replica is killed or the engine drains.
/// Fail-stop kills the beat with the replica — staleness *is* the failure
/// signal, exactly like the batch drivers' rank heartbeats.
fn heartbeat_loop(inner: &Shared, replica: usize) {
    let rep = &inner.replicas[replica];
    loop {
        // Keep beating through the shutdown drain: a live replica falling
        // silent mid-drain would read as a death and trigger a spurious
        // re-route. The beat stops with the kill, or once fully drained.
        if rep.killed.load(Ordering::Acquire)
            || (inner.shutting_down.load(Ordering::SeqCst)
                && inner.outstanding.load(Ordering::SeqCst) == 0)
        {
            return;
        }
        let nanos = inner.started.elapsed().as_nanos() as u64;
        rep.heartbeat.store(nanos, Ordering::Release);
        std::thread::sleep(inner.heartbeat_every);
    }
}

/// The failure detector and hot-set maintainer. A replica whose heartbeat
/// is staler than `suspect_after` is declared dead exactly once.
fn monitor_loop(inner: &Shared) {
    loop {
        // The monitor outlives the drain: if a killed-but-undetected
        // replica still holds parked work when shutdown begins, only the
        // monitor's re-dispatch can resolve it.
        if inner.shutting_down.load(Ordering::SeqCst)
            && inner.outstanding.load(Ordering::SeqCst) == 0
        {
            return;
        }
        let now = inner.started.elapsed();
        for (r, rep) in inner.replicas.iter().enumerate() {
            if !inner.alive[r].load(Ordering::Acquire) {
                continue;
            }
            let beat = Duration::from_nanos(rep.heartbeat.load(Ordering::Acquire));
            if now <= beat || now - beat < inner.suspect_after {
                continue;
            }
            declare_dead(inner, r);
        }
        if inner.replication > 1 {
            refresh_hot_set(inner);
        }
        std::thread::sleep(inner.heartbeat_every);
    }
}

/// Flip `r`'s alive bit (the router skips it from then on), seal its
/// sched, and re-dispatch every parked streamline intact to the ring
/// successor — recovery traffic counted apart from steady-state hand-offs.
fn declare_dead(inner: &Shared, r: usize) {
    inner.alive[r].store(false, Ordering::Release);
    inner.stat(Stat::ReplicaDeaths).inc();
    let rank = r * inner.workers;
    inner.deaths.lock().push((rank, inner.started.elapsed().as_secs_f64()));
    let rep = &inner.replicas[r];
    // Seal the sched first (under its lock) so every later parker sees
    // `dead` and re-routes — no hand-off can slip in after the drain.
    let drained = {
        let mut st = rep.sched.lock();
        st.dead = true;
        rep.work_ready.notify_all();
        std::mem::take(&mut st.queues)
    };
    let comm_start = inner.trace.as_ref().map(|_| Instant::now());
    for (block, batch) in drained {
        inner.stat(Stat::Redispatches).add(batch.len() as u64);
        let bytes: usize = batch.iter().map(|it| it.sl.comm_bytes_full()).sum();
        inner.stat(Stat::RedispatchBytes).add(bytes as u64);
        // Parking on the sealed replica re-routes to the ring successor.
        park(inner, r, block, batch);
    }
    if let (Some(tl), Some(t0)) = (inner.trace.as_ref(), comm_start) {
        tl.record(rank, Phase::Comm, t0, t0.elapsed());
    }
}

/// Recompute the replicated hot set: the `hot_k` most-accessed blocks.
fn refresh_hot_set(inner: &Shared) {
    let mut counts: Vec<(u64, usize)> = inner
        .access
        .iter()
        .enumerate()
        .map(|(b, a)| (a.load(Ordering::Relaxed), b))
        .filter(|&(c, _)| c > 0)
        .collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    counts.truncate(inner.hot_k);
    let mut hot = vec![false; inner.access.len()];
    for &(_, b) in &counts {
        hot[b] = true;
    }
    *inner.hot.write() = hot;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster;
    use streamline_field::dataset::{Dataset, DatasetConfig, Seeding};
    use streamline_iosim::{FaultPlan, FaultStore, MemoryStore};

    #[test]
    fn expired_handoff_on_an_unloadable_block_releases_its_home_seat() {
        let mut dcfg = DatasetConfig::tiny();
        dcfg.blocks_per_axis = [2, 2, 2];
        let dataset = Dataset::thermal_hydraulics(dcfg);
        let seed = dataset.seeds_with_count(Seeding::Sparse, 1).points[0];
        let block = dataset.decomp.locate(seed).expect("seed in domain");
        let memory: Arc<dyn BlockStore> = Arc::new(MemoryStore::build(&dataset));
        let store = Arc::new(FaultStore::new(memory, FaultPlan::new().permanent(block)));
        let cfg = ClusterConfig {
            replicas: 2,
            retry: RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
            ..ClusterConfig::default()
        };
        let mut engine = Engine::start(dataset.decomp, store, &cfg, 1, &cluster::SERIES);

        // An already-expired item admitted on replica 0 (its home), handed
        // off to replica 1, which cannot load the block.
        let (tx, rx) = bounded(1);
        let req = Arc::new(RequestState::new(0, &Request::new(vec![seed]), 0, tx));
        req.expired.store(true, Ordering::Relaxed);
        engine.replicas[0].pending_seeds.fetch_add(1, Ordering::AcqRel);
        engine.outstanding.fetch_add(1, Ordering::SeqCst);
        engine.stat(Stat::Submitted).inc();
        let sl = Streamline::new_lean(StreamlineId(0), seed, StepLimits::default().h0);
        park(&engine, 1, block, vec![WorkItem { sl, req, home: 0 }]);

        let resp = rx.recv().expect("the expired request is answered");
        assert_eq!(resp.outcome, Outcome::DeadlineExceeded { dropped: 1 });
        engine.begin_shutdown();
        engine.join();
        let m = cluster::snapshot(&engine);
        for r in &m.per_replica {
            assert_eq!(r.queue_depth, 0, "replica {} kept or lost a seat", r.replica);
        }
        assert!(m.conservation_holds());
    }
}
