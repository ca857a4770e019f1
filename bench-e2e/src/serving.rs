//! The serving workloads: one `Service` (`serve-zipf`) or a two-replica
//! `ClusterService` (`cluster-uniform`) over astro blocks on a `DiskStore`,
//! driven by one generator thread with no sockets.
//!
//! `max_rps` is the saturation throughput: the generator keeps a fixed
//! number of requests in flight and counts answers per second. Latency
//! (traced run only) counts from when a request was *due* on an open-loop
//! schedule, so a stalled generator or a growing queue shows in it. Every
//! answer is digest-compared with a single-shot driver solve of the same
//! seed made during set-up.
//!
//! An open-loop bisection for the highest rate meeting a p99 limit was
//! tried first: on a shared two-core host its result moved by 25-30%
//! between processes of one build (a single host stall fails a probe),
//! while the saturation throughput moved by ~5%.

use crate::batch::{record_store, trace_solves, AnswerCheck};
use crate::inputs::{self, Arrival, Popularity};
use crate::metrics::{Record, DRIVERS};
use crate::solve::{self, answer_digest, plain_solve, run_config, TimedStore};
use crate::stats::percentile;
use crate::{Outcome, Workload, RECONCILE_SLACK};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use streamline_cluster::{ClusterConfig, ClusterService};
use streamline_core::Algorithm;
use streamline_field::dataset::Dataset;
use streamline_field::seeds::SeedSet;
use streamline_integrate::StepLimits;
use streamline_iosim::{BlockStore, DiskStore};
use streamline_serve::{Outcome as Answer, Request, Service, ServiceConfig, SubmitError, Ticket};

/// Distinct seeds requests draw from.
const POOL: usize = 256;
/// Seeds per request.
const PER_REQUEST: usize = 4;
/// Set-ups per plain run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Rounds of a plain run, each a saturation stretch and one closed solve
/// of the pool by every driver, so both metrics sample the whole run and
/// not one stretch of a shared host's varying speed.
const ROUNDS: usize = 6;
/// Requests the generator keeps in flight while saturating: enough to keep
/// every worker busy, far below the admission bound (4096 seeds).
const IN_FLIGHT: usize = 64;
/// The request pool and its popularity ranking are part of the workload,
/// drawn from this fixed seed; the workload seed drives the arrival
/// process and which pool entries each request asks for. A 256-seed pool
/// is small enough that its cost would otherwise follow the seed.
const POOL_SEED: u64 = 0;
/// Wall-clock timeline resolution of the traced run.
const TRACE_BUCKET: Duration = Duration::from_millis(5);

/// The shape of one serving workload.
struct Shape {
    popularity: Popularity,
    /// Offered rate of the traced run's open-loop phase, requests per
    /// second: about a tenth of the saturation throughput, where p99 stays
    /// several times above the generator's own p99 lateness.
    fixed_rps: f64,
}

fn shape(w: Workload) -> Shape {
    match w {
        // Cheap, mostly cache-hit requests; 15-20k req/s saturate two
        // workers on a 2-vCPU host.
        Workload::ServeZipf => Shape { popularity: Popularity::Zipf(1.1), fixed_rps: 1500.0 },
        // Misses and ~30 hand-offs per request; 2-3k req/s saturate two
        // replicas.
        Workload::ClusterUniform => Shape { popularity: Popularity::Uniform, fixed_rps: 250.0 },
        _ => unreachable!("{} is not a serving workload", w.name()),
    }
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(8)
}

/// The request targets the generator can drive.
enum Target {
    Single(Service),
    Cluster(ClusterService),
}

impl Target {
    fn submit(&self, req: Request) -> Result<Ticket, SubmitError> {
        match self {
            Target::Single(s) => s.submit(req),
            Target::Cluster(c) => c.submit(req),
        }
    }

    fn start(w: Workload, ds: &Dataset, store: Arc<dyn BlockStore>, traced: bool) -> Target {
        let trace_bucket = traced.then_some(TRACE_BUCKET);
        match w {
            Workload::ServeZipf => Target::Single(Service::start(
                ds.decomp,
                store,
                ServiceConfig { workers: workers(), trace_bucket, ..ServiceConfig::default() },
            )),
            _ => Target::Cluster(ClusterService::start(
                ds.decomp,
                store,
                ClusterConfig {
                    replicas: workers().min(2),
                    trace_bucket,
                    ..ClusterConfig::default()
                },
            )),
        }
    }

    /// Per-worker `[compute, io, comm, idle]` seconds, bucket by bucket.
    fn timeline(&self) -> Vec<Vec<[f64; 4]>> {
        let tf = match self {
            Target::Single(s) => s.timeline(),
            Target::Cluster(c) => c.timeline(),
        };
        tf.map(|t| t.ranks.into_iter().map(|r| r.buckets).collect()).unwrap_or_default()
    }
}

/// Removes the workload's block directory when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(w: Workload, k: usize) -> WorkDir {
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.work")).join(format!(
            "{}-{}-{k}",
            w.name(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One complete set-up: blocks on disk, the pool and its reference
/// answers, and a started, warmed-up service.
struct Setup {
    ds: Dataset,
    pool: SeedSet,
    /// Answer digest of each pool seed from the single-shot solve.
    reference: Vec<u64>,
    /// Digest of the whole single-shot solve.
    reference_solve: u64,
    limits: StepLimits,
    store: Arc<dyn BlockStore>,
    target: Target,
    _dir: WorkDir,
}

impl Setup {
    fn new(w: Workload, k: usize) -> Result<Setup, String> {
        let ds = inputs::astro();
        let pool = match w {
            Workload::ServeZipf => inputs::astro_dense(POOL, POOL_SEED),
            _ => inputs::astro_sparse(&ds, POOL, POOL_SEED),
        };
        let limits = inputs::astro_limits();
        let dir = WorkDir::new(w, k);
        let store: Arc<dyn BlockStore> =
            Arc::new(DiskStore::create(&ds, &dir.0).map_err(|e| format!("writing blocks: {e}"))?);
        let cfg = run_config(Algorithm::LoadOnDemand, limits);
        let single = plain_solve(&ds, &pool, &cfg, Arc::clone(&store));
        if !single.completed(pool.len()) {
            return Err("the single-shot reference solve did not complete".into());
        }
        let reference = single.streamlines.iter().map(answer_digest).collect();
        let reference_solve = solve::solve_digest(&single.streamlines);
        let target = Target::start(w, &ds, Arc::clone(&store), false);
        let setup =
            Setup { ds, pool, reference, reference_solve, limits, store, target, _dir: dir };
        let warm = setup.warm_up(&setup.target);
        if warm.failed() > 0 {
            return Err(format!("{} of {} warm-up requests failed", warm.failed(), warm.sent));
        }
        Ok(setup)
    }

    /// Every pool seed once, all submitted at once: fills the caches and
    /// checks the service's answers before anything is timed.
    fn warm_up(&self, target: &Target) -> Phase {
        let schedule: Vec<Arrival> = (0..POOL)
            .step_by(PER_REQUEST)
            .map(|i| Arrival { due: 0.0, picks: (i..i + PER_REQUEST).collect() })
            .collect();
        self.run_phase(target, &schedule)
    }

    /// Send `schedule` open loop and collect every answer.
    fn run_phase(&self, target: &Target, schedule: &[Arrival]) -> Phase {
        let mut ph = Phase::default();
        let start = Instant::now();
        let mut outstanding: Vec<(usize, f64, Ticket)> = Vec::new();
        for (k, a) in schedule.iter().enumerate() {
            outstanding = outstanding
                .into_iter()
                .filter_map(|(i, late, t)| match t.try_wait() {
                    Ok(resp) => {
                        ph.answered(self, &schedule[i].picks, late, Ok(resp));
                        None
                    }
                    Err(streamline_serve::TryWait::Pending(t)) => Some((i, late, t)),
                    Err(streamline_serve::TryWait::Gone(_)) => {
                        ph.answered(self, &schedule[i].picks, late, Err(()));
                        None
                    }
                })
                .collect();
            let due = start + Duration::from_secs_f64(a.due);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent_at = Instant::now();
            let late = sent_at.saturating_duration_since(due).as_secs_f64();
            let submitted = target.submit(self.request(&a.picks));
            ph.submit_us.push(sent_at.elapsed().as_secs_f64() * 1e6);
            ph.late_ms.push(late * 1e3);
            ph.sent += 1;
            match submitted {
                Ok(t) => outstanding.push((k, late, t)),
                Err(_) => {
                    ph.rejected += 1;
                    ph.latency_ms.push(f64::INFINITY);
                }
            }
            ph.last_sent = sent_at;
        }
        for (i, late, t) in outstanding {
            ph.answered(self, &schedule[i].picks, late, t.wait().map_err(|_| ()));
        }
        ph.start = start;
        ph
    }

    /// Closed loop: keep [`IN_FLIGHT`] requests outstanding for `seconds`,
    /// refilling as the oldest is answered. Returns the phase and the
    /// answers per second while the loop was full.
    fn saturate(&self, target: &Target, requests: &[Vec<usize>], seconds: f64) -> (Phase, f64) {
        let mut ph = Phase::default();
        let start = Instant::now();
        let mut in_flight: VecDeque<(usize, Ticket)> = VecDeque::new();
        let mut next = 0;
        let mut answered_in_window = 0u64;
        loop {
            let open = start.elapsed().as_secs_f64() < seconds;
            if open && in_flight.len() < IN_FLIGHT {
                let i = next % requests.len();
                next += 1;
                ph.sent += 1;
                match target.submit(self.request(&requests[i])) {
                    Ok(t) => in_flight.push_back((i, t)),
                    Err(_) => ph.rejected += 1,
                }
                continue;
            }
            let Some((i, t)) = in_flight.pop_front() else { break };
            ph.answered(self, &requests[i], 0.0, t.wait().map_err(|_| ()));
            if open {
                answered_in_window += 1;
            }
        }
        (ph, answered_in_window as f64 / seconds)
    }

    fn request(&self, picks: &[usize]) -> Request {
        Request::new(picks.iter().map(|&p| self.pool.points[p]).collect()).with_limits(self.limits)
    }
}

/// What one phase of requests saw.
struct Phase {
    start: Instant,
    last_sent: Instant,
    sent: u64,
    ok: u64,
    /// Refused at admission.
    rejected: u64,
    /// Gone, not completed, or an answer differing from the reference.
    wrong: u64,
    /// Per answered request, ms from due to answer (failures: infinite;
    /// closed-loop phases count from submission).
    latency_ms: Vec<f64>,
    /// Per request, ms the generator sent it after it was due.
    late_ms: Vec<f64>,
    submit_us: Vec<f64>,
}

impl Default for Phase {
    fn default() -> Self {
        let now = Instant::now();
        Phase {
            start: now,
            last_sent: now,
            sent: 0,
            ok: 0,
            rejected: 0,
            wrong: 0,
            latency_ms: Vec::new(),
            late_ms: Vec::new(),
            submit_us: Vec::new(),
        }
    }
}

impl Phase {
    /// A request fails when it is rejected or gone, does not complete, or
    /// any of its answers differs from the single-shot reference.
    fn answered(
        &mut self,
        setup: &Setup,
        picks: &[usize],
        late_s: f64,
        resp: Result<streamline_serve::Response, ()>,
    ) {
        let Ok(resp) = resp else {
            self.wrong += 1;
            self.latency_ms.push(f64::INFINITY);
            return;
        };
        let ok = resp.outcome == Answer::Completed
            && resp.streamlines.len() == picks.len()
            && resp
                .streamlines
                .iter()
                .zip(picks)
                .all(|(s, &p)| answer_digest(s) == setup.reference[p]);
        if ok {
            self.ok += 1;
            self.latency_ms.push((late_s + resp.latency.as_secs_f64()) * 1e3);
        } else {
            self.wrong += 1;
            self.latency_ms.push(f64::INFINITY);
        }
    }

    fn failed(&self) -> u64 {
        self.rejected + self.wrong
    }

    fn p(&self, q: f64) -> f64 {
        percentile(&self.latency_ms, q)
    }

    fn report(&self, name: &str) {
        eprintln!(
            "  phase {name:<16} sent {:>6}  succeeded {:>6}  failed {:>3}",
            self.sent,
            self.ok,
            self.failed(),
        );
    }
}

/// Sums of `[compute, io, comm, idle]` over all workers inside the phase
/// window, and the worker-seconds the window holds.
fn window_totals(buckets: &[Vec<[f64; 4]>], epoch: Instant, ph: &Phase) -> ([f64; 4], f64) {
    let w = TRACE_BUCKET.as_secs_f64();
    let b0 = (ph.start.saturating_duration_since(epoch).as_secs_f64() / w).ceil() as usize;
    let b1 = (ph.last_sent.saturating_duration_since(epoch).as_secs_f64() / w).floor() as usize;
    let mut sums = [0.0; 4];
    for row in buckets {
        for b in row.iter().take(b1).skip(b0) {
            for k in 0..4 {
                sums[k] += b[k];
            }
        }
    }
    (sums, buckets.len() as f64 * b1.saturating_sub(b0) as f64 * w)
}

fn fixed_schedule(w: Workload, seed: u64, seconds: f64) -> Vec<Arrival> {
    let s = shape(w);
    inputs::schedule(seed, 0, s.fixed_rps, 0.25 * seconds, POOL, PER_REQUEST, s.popularity)
}

/// The plain run: end-to-end metrics only.
pub fn run_plain(
    w: Workload,
    seed: u64,
    seconds: f64,
    rec: &mut Record,
) -> Result<Outcome, String> {
    let sh = shape(w);
    let mut setup_s = Vec::new();
    let mut setup = None;
    for k in 0..SETUPS {
        drop(setup.take());
        let t = Instant::now();
        setup = Some(Setup::new(w, k)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    rec.median("setup_s", &setup_s);
    let setup = setup.expect("at least one set-up");
    let mut out = Outcome { attempted: 0, failed: 0, wrong: 0, reconciled: true };
    let mut check = AnswerCheck::against(setup.pool.len(), setup.reference_solve);

    let (mut rates, mut solves) = (Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        let requests = inputs::requests(seed, round as u64, POOL, PER_REQUEST, sh.popularity);
        let (ph, rate) = setup.saturate(&setup.target, &requests, 0.1 * seconds);
        ph.report(&format!("saturate {}", round + 1));
        out.add(&ph);
        rates.push(rate);

        let mut total = 0.0;
        for (alg, _) in DRIVERS {
            let cfg = run_config(alg, setup.limits);
            let s = plain_solve(&setup.ds, &setup.pool, &cfg, Arc::clone(&setup.store));
            check.check(&s);
            total += s.seconds;
        }
        solves.push(total);
    }
    rec.median("max_rps", &rates);
    rec.median("solve_s", &solves);
    out.attempted += check.attempted;
    out.failed += check.failed;
    out.wrong += check.failed;
    Ok(out)
}

impl Outcome {
    fn add(&mut self, ph: &Phase) {
        self.attempted += ph.sent;
        self.failed += ph.failed();
        self.wrong += ph.wrong;
    }
}

/// Counter deltas of a service or cluster across the traced phase.
struct Counters {
    admitted: u64,
    rejected: u64,
    gone: u64,
    steps: u64,
    hits: u64,
    loaded: u64,
    handoffs: u64,
    handoff_bytes: u64,
    hot_local_hits: u64,
    per_replica: Vec<u64>,
    /// The service's interpolation-sampler hit rate over its life; the
    /// cluster does not report one.
    sampler_hit_frac: Option<f64>,
}

impl Counters {
    fn of(target: &Target) -> Counters {
        match target {
            Target::Single(s) => {
                let m = s.metrics();
                Counters {
                    admitted: m.submitted,
                    rejected: m.rejected,
                    gone: m.requests_gone,
                    steps: m.total_steps,
                    hits: m.cache.hits,
                    loaded: m.cache.loaded,
                    handoffs: 0,
                    handoff_bytes: 0,
                    hot_local_hits: 0,
                    per_replica: Vec::new(),
                    sampler_hit_frac: Some(m.sampler_hit_rate),
                }
            }
            Target::Cluster(c) => {
                let m = c.metrics();
                Counters {
                    admitted: m.submitted,
                    rejected: m.rejected,
                    gone: m.requests_gone,
                    steps: m.total_steps,
                    hits: m.per_replica.iter().map(|r| r.cache_hits).sum(),
                    loaded: m.per_replica.iter().map(|r| r.cache_loaded).sum(),
                    handoffs: m.handoffs,
                    handoff_bytes: m.handoff_bytes,
                    hot_local_hits: m.hot_local_hits,
                    per_replica: m.per_replica.iter().map(|r| r.streamlines_completed).collect(),
                    sampler_hit_frac: None,
                }
            }
        }
    }
}

/// The traced run: per-layer metrics. The fixed-rate phase runs once on
/// the plain service and once on a traced one (wall-clock timeline on, the
/// store timed, every `submit` timed); then the pool is solved plain and
/// traced by every driver, as on the batch workloads.
pub fn run_traced(
    w: Workload,
    seed: u64,
    seconds: f64,
    rec: &mut Record,
) -> Result<Outcome, String> {
    let setup = Setup::new(w, 0)?;
    let schedule = fixed_schedule(w, seed, seconds);
    let mut out = Outcome { attempted: 0, failed: 0, wrong: 0, reconciled: true };

    let plain = setup.run_phase(&setup.target, &schedule);
    plain.report("fixed (plain)");
    out.add(&plain);

    let timed = Arc::new(TimedStore::new(Arc::clone(&setup.store), None));
    let epoch = Instant::now();
    let target = Target::start(w, &setup.ds, Arc::clone(&timed) as Arc<dyn BlockStore>, true);
    out.add(&setup.warm_up(&target));
    let (c0, s0) = (Counters::of(&target), timed.times());
    let traced = setup.run_phase(&target, &schedule);
    traced.report("fixed (traced)");
    out.add(&traced);
    let (c1, s1) = (Counters::of(&target), timed.times());
    let timeline = target.timeline();
    let (phases, capacity) = window_totals(&timeline, epoch, &traced);
    drop(target);

    let layer = if w == Workload::ServeZipf { "serve" } else { "cluster" };
    rec.set(format!("{layer}.p50_ms"), plain.p(0.5), plain.latency_ms.len());
    rec.set(format!("{layer}.p99_ms"), plain.p(0.99), plain.latency_ms.len());
    let n = traced.submit_us.len();
    rec.set(format!("{layer}.submit_us_p50"), percentile(&traced.submit_us, 0.5), n);
    rec.set(format!("{layer}.worker_compute_s"), phases[0], 1);
    rec.set(format!("{layer}.worker_io_s"), phases[1], 1);
    rec.set(format!("{layer}.worker_idle_s"), phases[3], 1);
    let lookups = (c1.hits - c0.hits) + (c1.loaded - c0.loaded);
    let hit_frac = (c1.hits - c0.hits) as f64 / lookups.max(1) as f64;
    rec.set(format!("{layer}.cache_hit_frac"), hit_frac, 1);
    if w == Workload::ServeZipf {
        rec.set("serve.submit_us_p99", percentile(&traced.submit_us, 0.99), n);
        rec.set("serve.admitted", (c1.admitted - c0.admitted) as f64, 1);
        rec.set("serve.rejected", (c1.rejected - c0.rejected) as f64, 1);
        rec.set("serve.gone", (c1.gone - c0.gone) as f64, 1);
        rec.set("serve.steps", (c1.steps - c0.steps) as f64, 1);
    } else {
        rec.set("cluster.handoffs", (c1.handoffs - c0.handoffs) as f64, 1);
        rec.set("cluster.handoff_bytes", (c1.handoff_bytes - c0.handoff_bytes) as f64, 1);
        rec.set("cluster.hot_local_hits", (c1.hot_local_hits - c0.hot_local_hits) as f64, 1);
        let done: Vec<f64> =
            c1.per_replica.iter().zip(&c0.per_replica).map(|(a, b)| (a - b) as f64).collect();
        let mean = done.iter().sum::<f64>() / done.len().max(1) as f64;
        let skew = done.iter().cloned().fold(0.0, f64::max) / mean.max(1e-12);
        rec.set("cluster.replica_skew", skew, done.len());
    }
    let phase_store = solve::StoreTimes {
        loads: s1.loads - s0.loads,
        load_s: s1.load_s - s0.load_s,
        built: 0,
        build_s: 0.0,
        failures: s1.failures - s0.failures,
    };
    record_store(rec, &[phase_store]);
    rec.set("bench.generator_late_p99_ms", percentile(&plain.late_ms, 0.99), plain.late_ms.len());
    rec.set("bench.trace_overhead_frac", traced.p(0.5) / plain.p(0.5) - 1.0, n);
    let unattributed = 1.0 - phases.iter().sum::<f64>() / capacity;
    rec.set("bench.unattributed_frac", unattributed, 1);

    let mut check = AnswerCheck::against(setup.pool.len(), setup.reference_solve);
    let solves = trace_solves(
        &setup.ds,
        &setup.pool,
        setup.limits,
        Some(Arc::clone(&setup.store)),
        0.25 * seconds,
        &mut check,
        rec,
    );
    // The kernel figures of a serving workload are the service's own: its
    // steps and its workers' compute time per step over the traced
    // service's whole life (warm-up and fixed-rate phase), not the batch
    // replay of the pool that `trace_solves` recorded; so is the sampler
    // hit rate where the service reports one. Batch occupancy stays that
    // of the pool's batch solves.
    let compute_s: f64 = timeline.iter().flatten().map(|b| b[0]).sum();
    rec.set("integrate.steps", c1.steps as f64, 1);
    rec.set("integrate.ns_per_step", compute_s * 1e9 / c1.steps.max(1) as f64, 1);
    if let Some(hit) = c1.sampler_hit_frac {
        rec.set("integrate.sampler_hit_frac", hit, 1);
    }
    out.attempted += check.attempted;
    out.failed += check.failed;
    out.wrong += check.failed;
    out.reconciled = unattributed.abs() <= RECONCILE_SLACK && solves.reconciled;
    if unattributed.abs() > RECONCILE_SLACK {
        eprintln!("worker phases cover {:.1}% of the traced window", (1.0 - unattributed) * 100.0);
    }
    Ok(out)
}
