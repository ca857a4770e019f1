//! The sharded replica cluster: the serve engine with `replicas` replicas
//! of one worker each behind the consistent-hash
//! [`Ring`](crate::ring::Ring). Each replica caches and serves only its
//! shard; hand-offs, hot-block replication and fail-stop replica recovery
//! are described in the [crate docs](crate).

use crate::breaker::{BreakerConfig, RetryPolicy};
use crate::engine::{quantile_ms, Engine, Series, Shared, Stat};
use crate::warm::WarmStartManifest;
use crate::{Request, SubmitError, Ticket};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;
use streamline_field::block::BlockId;
use streamline_field::decomp::BlockDecomposition;
use streamline_iosim::BlockStore;
use streamline_obs::{names, MetricsRegistry, ScheduleTrace, TraceFile};

/// Tuning knobs for [`ClusterService::start`]. Per-replica knobs mirror
/// [`crate::ServiceConfig`]; each replica runs one worker thread
/// (the replica is the unit of parallelism, like a rank in the paper).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of service replicas behind the router.
    pub replicas: usize,
    /// Replicas allowed to serve a *hot* block locally: the owner plus
    /// `replication - 1` ring successors. 1 disables replication.
    pub replication: usize,
    /// Virtual nodes per replica on the hash ring.
    pub vnodes: usize,
    /// How many globally hottest blocks (by access count) are replicated.
    pub hot_k: usize,
    /// Per-replica block cache capacity.
    pub cache_blocks: usize,
    /// Lock shards per replica cache.
    pub cache_shards: usize,
    /// Per-replica admission bound (seeds admitted but unresolved).
    pub queue_capacity: usize,
    pub retry: RetryPolicy,
    pub breaker: BreakerConfig,
    /// Batch width for the advection kernel (bit-identical at any width).
    pub batch: usize,
    /// Record a wall-clock per-replica phase timeline at this resolution.
    pub trace_bucket: Option<Duration>,
    /// Heartbeat cadence of each replica's liveness beat.
    pub heartbeat_every: Duration,
    /// Heartbeat staleness after which the monitor declares a replica dead.
    pub suspect_after: Duration,
    /// Fault injection for tests: the first worker batch claiming this
    /// block panics, exercising the panic-containment path. Fires once.
    #[doc(hidden)]
    pub panic_on_block: Option<BlockId>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            replicas: 2,
            replication: 1,
            vnodes: 64,
            hot_k: 8,
            cache_blocks: 64,
            cache_shards: 8,
            queue_capacity: 4096,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            batch: 16,
            trace_bucket: None,
            heartbeat_every: Duration::from_millis(5),
            // Generous by default: on a loaded single-core host the beat
            // thread can starve for tens of milliseconds without the
            // replica being dead.
            suspect_after: Duration::from_millis(250),
            panic_on_block: None,
        }
    }
}

/// Point-in-time health snapshot of one replica.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ReplicaMetrics {
    pub replica: usize,
    pub alive: bool,
    pub streamlines_completed: u64,
    pub handoffs_out: u64,
    pub queue_depth: usize,
    pub cache_resident: usize,
    pub cache_loaded: u64,
    pub cache_hits: u64,
    pub cache_hit_rate: f64,
    pub blocks_quarantined: usize,
    pub latency_p50_ms: f64,
    pub latency_p95_ms: f64,
    pub latency_p99_ms: f64,
}

/// Point-in-time health snapshot of the whole cluster.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ClusterMetrics {
    pub replicas: usize,
    pub replicas_alive: usize,
    pub submitted: u64,
    pub completed: u64,
    pub rejected: u64,
    pub requests_gone: u64,
    pub streamlines_completed: u64,
    pub streamlines_unavailable: u64,
    pub total_steps: u64,
    pub handoffs: u64,
    pub handoff_bytes: u64,
    pub redispatches: u64,
    pub redispatch_bytes: u64,
    pub replica_deaths: u64,
    pub hot_local_hits: u64,
    pub worker_panics: u64,
    pub latency_p50_ms: f64,
    pub latency_p95_ms: f64,
    pub latency_p99_ms: f64,
    pub per_replica: Vec<ReplicaMetrics>,
}

impl ClusterMetrics {
    /// Exact durable-completion conservation: every admitted request is
    /// answered or typed gone — under replica kills included.
    pub fn conservation_holds(&self) -> bool {
        self.completed + self.requests_gone == self.submitted
    }
}

/// The cluster's registry series: the `streamline_cluster_*` namespace.
pub(crate) const SERIES: Series = Series {
    stats: &[
        (Stat::Submitted, names::CLUSTER_SUBMITTED_TOTAL),
        (Stat::Completed, names::CLUSTER_COMPLETED_TOTAL),
        (Stat::Rejected, names::CLUSTER_REJECTED_TOTAL),
        (Stat::RequestsGone, names::CLUSTER_REQUESTS_GONE_TOTAL),
        (Stat::StreamlinesCompleted, names::CLUSTER_STREAMLINES_COMPLETED_TOTAL),
        (Stat::StreamlinesUnavailable, names::CLUSTER_STREAMLINES_UNAVAILABLE_TOTAL),
        (Stat::Steps, names::CLUSTER_STEPS_TOTAL),
        (Stat::WorkerPanics, names::CLUSTER_WORKER_PANICS_TOTAL),
        (Stat::Handoffs, names::CLUSTER_HANDOFFS_TOTAL),
        (Stat::HandoffBytes, names::CLUSTER_HANDOFF_BYTES_TOTAL),
        (Stat::Redispatches, names::CLUSTER_REDISPATCHES_TOTAL),
        (Stat::RedispatchBytes, names::CLUSTER_REDISPATCH_BYTES_TOTAL),
        (Stat::ReplicaDeaths, names::CLUSTER_REPLICA_DEATHS_TOTAL),
        (Stat::HotLocalHits, names::CLUSTER_HOT_LOCAL_HITS_TOTAL),
    ],
    latency: names::CLUSTER_LATENCY_NANOSECONDS,
    per_replica: Some([
        names::CLUSTER_REPLICA_STREAMLINES_COMPLETED_TOTAL,
        names::CLUSTER_REPLICA_HANDOFFS_OUT_TOTAL,
        names::CLUSTER_REPLICA_LATENCY_NANOSECONDS,
    ]),
};

/// A running sharded serve cluster. See the [module docs](self).
pub struct ClusterService {
    inner: Engine,
}

impl ClusterService {
    /// Spawn `cfg.replicas` replicas (one worker, one heartbeat each) plus
    /// the failure-detection monitor, and start routing requests.
    pub fn start(
        decomp: BlockDecomposition,
        store: Arc<dyn BlockStore>,
        cfg: ClusterConfig,
    ) -> Self {
        ClusterService { inner: Engine::start(decomp, store, &cfg, 1, &SERIES) }
    }

    /// Submit a request: seeds are routed to their owner replicas, one
    /// admission seat each. Any target replica over capacity rejects the
    /// whole request (typed, without enqueuing anything anywhere).
    pub fn submit(&self, req: Request) -> Result<Ticket, SubmitError> {
        self.inner.submit(req)
    }

    /// Fail-stop injection: replica `r` stops heartbeating and cooperating.
    /// The monitor will declare it dead after `suspect_after` and re-route
    /// its shard. Returns `false` if `r` was already killed or out of
    /// range, or if it is the only replica.
    pub fn kill_replica(&self, r: usize) -> bool {
        self.inner.kill_replica(r)
    }

    /// Bootstrap every replica's cache from its shard: each replica
    /// prefetches (up to cache capacity) the blocks it owns on the ring via
    /// a [`WarmStartManifest`] — the same warm-start path the single
    /// service uses on restart. Returns total blocks prefetched.
    pub fn bootstrap(&self) -> usize {
        let inner = &self.inner;
        let alive = inner.alive_mask();
        let n_blocks = inner.decomp.num_blocks();
        let mut total = 0;
        for (r, rep) in inner.replicas.iter().enumerate() {
            if !alive[r] {
                continue;
            }
            let mut blocks = inner.ring.shard(r, &alive, n_blocks);
            blocks.truncate(rep.cache.capacity());
            let manifest = WarmStartManifest { blocks, shards: rep.cache.shard_count() };
            total += manifest.prefetch(&rep.cache, inner.store.as_ref());
        }
        total
    }

    /// Residency manifest of one replica's cache (for persistence across
    /// instances, exactly like [`crate::Service`]).
    pub fn residency_manifest(&self, r: usize) -> Option<WarmStartManifest> {
        self.inner.replicas.get(r).map(|rep| WarmStartManifest::of(&rep.cache))
    }

    /// Point-in-time health snapshot.
    pub fn metrics(&self) -> ClusterMetrics {
        snapshot(&self.inner)
    }

    /// The unified metric store (aggregate `streamline_cluster_*` series
    /// plus per-replica series named via [`names::per_replica`]).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.inner.registry
    }

    /// Refresh gauges and render every metric in Prometheus text format.
    pub fn dump_metrics(&self) -> String {
        snapshot(&self.inner);
        self.inner.registry.render_prometheus()
    }

    /// The per-replica wall-clock phase timeline with its schedule section
    /// (hand-offs as the ping-pong series, replica deaths marked), or
    /// `None` when started without [`ClusterConfig::trace_bucket`].
    pub fn timeline(&self) -> Option<TraceFile> {
        let tl = self.inner.trace.as_ref()?;
        let snap = tl.snapshot();
        let mut tf = snap.to_trace("wall");
        let pingpong = self.inner.handoff_times.lock().clone();
        let deaths = self.inner.deaths.lock().clone();
        tf.schedule =
            Some(ScheduleTrace::from_timeline(&snap, &pingpong).with_rank_deaths(&snap, &deaths));
        Some(tf)
    }

    /// Stop admitting, drain every parked and in-flight streamline across
    /// all replicas (hand-offs included), join every thread, and return the
    /// final metrics. Every pending ticket resolves before this returns.
    pub fn shutdown(mut self) -> ClusterMetrics {
        self.inner.begin_shutdown();
        self.inner.join();
        snapshot(&self.inner)
    }
}

/// Snapshot the cluster and mirror its gauges into the registry, so a
/// [`MetricsRegistry::render_prometheus`] right after is a consistent
/// scrape.
pub(crate) fn snapshot(inner: &Shared) -> ClusterMetrics {
    let reg = &inner.registry;
    let alive = inner.alive_mask();
    let replicas_alive = alive.iter().filter(|a| **a).count();
    reg.set_gauge(names::CLUSTER_REPLICAS, inner.replicas.len() as f64);
    reg.set_gauge(names::CLUSTER_REPLICAS_ALIVE, replicas_alive as f64);
    reg.set_gauge(
        names::CLUSTER_HOT_BLOCKS,
        inner.hot.read().iter().filter(|h| **h).count() as f64,
    );
    let per_replica: Vec<ReplicaMetrics> = inner
        .replicas
        .iter()
        .enumerate()
        .map(|(r, rep)| {
            let stats = rep.cache.stats();
            let gets = stats.hits + stats.loaded;
            ReplicaMetrics {
                replica: r,
                alive: alive[r],
                streamlines_completed: rep.streamlines_completed.get(),
                handoffs_out: rep.handoffs_out.get(),
                queue_depth: rep.pending_seeds.load(Ordering::Acquire),
                cache_resident: rep.cache.len(),
                cache_loaded: stats.loaded,
                cache_hits: stats.hits,
                cache_hit_rate: if gets == 0 { 0.0 } else { stats.hits as f64 / gets as f64 },
                blocks_quarantined: rep.breakers.quarantined(),
                latency_p50_ms: quantile_ms(&rep.latency, 0.50),
                latency_p95_ms: quantile_ms(&rep.latency, 0.95),
                latency_p99_ms: quantile_ms(&rep.latency, 0.99),
            }
        })
        .collect();
    for m in &per_replica {
        let gauge = |base: &str, v: f64| reg.set_gauge(&names::per_replica(base, m.replica), v);
        gauge(names::CLUSTER_REPLICA_ALIVE, if m.alive { 1.0 } else { 0.0 });
        gauge(names::CLUSTER_REPLICA_QUEUE_DEPTH, m.queue_depth as f64);
        gauge(names::CLUSTER_REPLICA_CACHE_HIT_RATE, m.cache_hit_rate);
        gauge(names::CLUSTER_REPLICA_CACHE_RESIDENT_BLOCKS, m.cache_resident as f64);
        gauge(names::CLUSTER_REPLICA_BLOCKS_QUARANTINED, m.blocks_quarantined as f64);
    }
    ClusterMetrics {
        replicas: inner.replicas.len(),
        replicas_alive,
        submitted: inner.stat(Stat::Submitted).get(),
        completed: inner.stat(Stat::Completed).get(),
        rejected: inner.stat(Stat::Rejected).get(),
        requests_gone: inner.stat(Stat::RequestsGone).get(),
        streamlines_completed: inner.stat(Stat::StreamlinesCompleted).get(),
        streamlines_unavailable: inner.stat(Stat::StreamlinesUnavailable).get(),
        total_steps: inner.stat(Stat::Steps).get(),
        handoffs: inner.stat(Stat::Handoffs).get(),
        handoff_bytes: inner.stat(Stat::HandoffBytes).get(),
        redispatches: inner.stat(Stat::Redispatches).get(),
        redispatch_bytes: inner.stat(Stat::RedispatchBytes).get(),
        replica_deaths: inner.stat(Stat::ReplicaDeaths).get(),
        hot_local_hits: inner.stat(Stat::HotLocalHits).get(),
        worker_panics: inner.stat(Stat::WorkerPanics).get(),
        latency_p50_ms: quantile_ms(&inner.latency, 0.50),
        latency_p95_ms: quantile_ms(&inner.latency, 0.95),
        latency_p99_ms: quantile_ms(&inner.latency, 0.99),
        per_replica,
    }
}
