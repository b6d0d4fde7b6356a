//! Remote executors: bolt tasks whose code runs in another process.
//!
//! A remote task keeps what the runtime gives every bolt task — its place
//! in the routing tables, its credit pool, its counters — but no thread or
//! channel in this process: its [`Outlet`](super::batch::Outlet) hands each
//! flushed batch to a [`RemoteSink`] (in the distributed runtime, the queue
//! of the connection to the worker hosting the task).  Results come back
//! through [`RemoteTasks`], which turns them into the acker ops a local
//! bolt would queue and routes the task's emissions through the task's own
//! [`Router`].  Spouts, replay, timeouts, metrics and the report cannot
//! tell a remote task from a local one.
//!
//! The result path never waits: the routers of [`RemoteTasks`] take no
//! credits and only ever flush into remote sinks, which queue without
//! bounds, because the thread that reads a worker's socket must not wait
//! on anything that only a socket write can release (DESIGN.md §15.4).
//! Credits still gate the spouts, so the credit window bounds memory, not
//! liveness.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::Sender;

use crate::acker::RootId;
use crate::component::Emission;
use crate::topology::{TaskId, Topology};

use super::batch::{AckMsg, AckOp, AckOps, Batch, Outlet};
use super::config::RtConfig;
use super::router::Router;
use super::task::apply_and_deliver;
use super::Shared;

/// Where the batches flushed toward a remote task go: called with the
/// task's global id and the batch, from whichever thread flushes it.  Must
/// not block.
pub(crate) type RemoteSink = Arc<dyn Fn(usize, Batch) + Send + Sync>;

/// What the distributed runtime holds on to of a running topology: enough
/// to complete remote tasks' deliveries from its connection threads.
#[derive(Clone)]
pub(crate) struct RemoteCtx {
    pub(super) shared: Arc<Shared>,
    pub(super) topology: Arc<Topology>,
    pub(super) outlets: Vec<Outlet>,
    pub(super) ack_senders: Arc<Vec<Option<Sender<Vec<AckMsg>>>>>,
    pub(super) rt_cfg: RtConfig,
}

impl RemoteCtx {
    /// The runtime state (journal, tracer, acker, checkpoint store).
    pub(crate) fn shared(&self) -> &Shared {
        &self.shared
    }

    /// A completion handle for the remote `tasks` served by one connection.
    /// Each handle builds fresh routers, so a reconnect starts with fresh
    /// grouping state, exactly like a restarted local task.
    pub(crate) fn tasks(&self, tasks: &[usize]) -> RemoteTasks {
        let routers = tasks
            .iter()
            .map(|&tid| {
                let comp = self
                    .topology
                    .component(self.topology.component_of_task(TaskId(tid)));
                Router::new(
                    &self.topology,
                    comp,
                    tid - comp.base_task.0,
                    tid,
                    self.outlets.clone(),
                    Arc::clone(&self.shared),
                    &self.rt_cfg,
                    false,
                )
            })
            .collect();
        RemoteTasks {
            shared: Arc::clone(&self.shared),
            ack_senders: Arc::clone(&self.ack_senders),
            tasks: tasks.to_vec(),
            routers,
            ops: AckOps::new(self.shared.ackers.num_shards()),
            // A remote task has no thread of its own recording latency, so
            // the first served task's slot is free for this handle.
            lat_slot: tasks
                .first()
                .copied()
                .unwrap_or(self.shared.metrics_lat_slot()),
        }
    }
}

/// Completes deliveries of remote tasks: results become acker ops, emissions
/// go through the producing task's router.  Ops queue until
/// [`flush`](Self::flush), which applies them (apply-before-send holds
/// inside the routers) and delivers completed trees to their spouts.
pub(crate) struct RemoteTasks {
    shared: Arc<Shared>,
    ack_senders: Arc<Vec<Option<Sender<Vec<AckMsg>>>>>,
    tasks: Vec<usize>,
    routers: Vec<Router>,
    ops: AckOps,
    lat_slot: usize,
}

impl RemoteTasks {
    /// Routes one emission of `task`, anchored to `root` when set.  Unknown
    /// tasks (not served by this handle) are ignored.
    pub(crate) fn emit(&mut self, task: usize, emission: &Emission, root: Option<RootId>) {
        if let Some(i) = self.tasks.iter().position(|&t| t == task) {
            self.routers[i].route(emission, root, &mut self.ops);
        }
    }

    /// Acks one delivered edge.
    pub(crate) fn ack(&mut self, root: RootId, edge: u64) {
        let now_s = self.shared.now_s();
        self.ops.push(AckOp::Ack { root, edge, now_s });
    }

    /// Fails the tree of one delivered tuple.
    pub(crate) fn fail(&mut self, root: RootId) {
        let now_s = self.shared.now_s();
        self.ops.push(AckOp::Fail { root, now_s });
    }

    /// Accounts one batch of `task` whose results came back (`executed`
    /// inputs, `failed` of them failed), returning its credit if it took
    /// one.
    pub(crate) fn processed(&self, task: usize, executed: u64, failed: u64, credited: bool) {
        let s = &self.shared.task_stats[task];
        s.received.fetch_add(executed, Ordering::Relaxed);
        s.executed.fetch_add(executed, Ordering::Relaxed);
        if failed > 0 {
            s.failed.fetch_add(failed, Ordering::Relaxed);
        }
        self.return_credit(task, credited);
    }

    /// Returns the credit of a batch of `task` that will never be
    /// processed (its anchored trees are failed separately).
    pub(crate) fn return_credit(&self, task: usize, credited: bool) {
        if let Some(credits) = self.shared.credits.as_ref().filter(|_| credited) {
            credits.grant(task, 1);
        }
    }

    /// Records one checkpoint of `task` deposited by its worker.
    pub(crate) fn checkpoint_taken(&self, task: usize, bytes: u64) {
        let s = &self.shared.task_stats[task];
        s.checkpoints_taken.fetch_add(1, Ordering::Relaxed);
        s.snapshot_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one state restore of `task` confirmed by its worker.
    pub(crate) fn restored(&self, task: usize, latency_us: u64) {
        self.shared.task_stats[task]
            .restores
            .fetch_add(1, Ordering::Relaxed);
        self.shared
            .restore_last_us
            .store(latency_us, Ordering::Relaxed);
    }

    /// True while emissions wait in the routers' buffers for their linger
    /// deadline.
    pub(crate) fn has_pending(&self) -> bool {
        self.routers.iter().any(Router::has_pending)
    }

    /// Flushes the routers' buffers — those past their linger deadline, or
    /// all of them — then applies the queued ops and delivers completed
    /// trees.
    pub(crate) fn flush(&mut self, all: bool) {
        let now = Instant::now();
        for router in &mut self.routers {
            if all {
                router.flush_all(&mut self.ops);
            } else {
                router.flush_expired(now, &mut self.ops);
            }
        }
        apply_and_deliver(
            &self.shared,
            &self.ack_senders,
            &mut self.ops,
            self.lat_slot,
        );
    }
}
