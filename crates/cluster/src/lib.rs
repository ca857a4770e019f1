//! Sharded multi-replica serving of streamline queries.
//!
//! The paper parallelizes over data: blocks are assigned to ranks and a
//! streamline crossing a block boundary is handed to the rank owning the
//! destination block. The serving tier applies the same design with one
//! engine, which lives in [`streamline_serve`]: N replicas sit behind a
//! consistent-hash block router ([`Ring`]); each replica caches and serves
//! only its shard, and trajectories crossing shard boundaries move to the
//! owner replica with their geometry, their wire bytes charged exactly
//! like the rank hand-offs of the batch drivers.
//!
//! [`ClusterService`] runs that engine with one worker per replica (the
//! replica is the unit of parallelism, like a rank);
//! [`streamline_serve::Service`] is the same engine as a cluster of one,
//! with a worker pool on its single replica. On top of the steady-state
//! path a cluster of several replicas adds:
//! - **hot-block replication** — the top-k most-accessed blocks may be
//!   advanced locally by up to `replication` ring successors, trading cache
//!   residency for hand-off traffic;
//! - **warm-start bootstrap** — [`ClusterService::bootstrap`] prefetches
//!   each replica's shard through the serve crate's warm-start manifests;
//! - **fail-stop replica recovery** — heartbeat staleness declares a
//!   replica dead, the router skips it, and its parked streamlines are
//!   re-dispatched intact to ring successors; in-flight tickets resolve
//!   typed, and `completed + gone == admitted` stays exact.
//!
//! This crate re-exports the cluster front end and the serve vocabulary
//! it speaks at their established paths. A cluster of one is
//! observationally identical to a single [`streamline_serve::Service`] — a
//! property the integration tests pin down to the bit.

pub use streamline_serve::cluster::{
    ClusterConfig, ClusterMetrics, ClusterService, ReplicaMetrics,
};
pub use streamline_serve::ring::Ring;
pub use streamline_serve::{cluster, ring};

// One-stop re-exports of the serve vocabulary the cluster speaks.
pub use streamline_serve::{Outcome, Request, Response, ServiceGone, SubmitError, Ticket, TryWait};
