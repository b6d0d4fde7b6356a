//! Routing of emissions to downstream task buffers.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use crate::acker::RootId;
use crate::component::{Emission, MessageId};
use crate::grouping::{make_grouping, Grouping, GroupingSpec};
use crate::stream::StreamId;
use crate::topology::{Component, Topology};
use crate::tuple::Fields;

use super::batch::{AckOp, AckOps, Delivered, Outlet, OutputBuffers};
use super::config::RtConfig;
use super::Shared;

/// One outbound route owned by a task thread.
struct OutRoute {
    stream: StreamId,
    fields: Fields,
    subscriber_base: usize,
    grouping: Box<dyn Grouping>,
    is_direct: bool,
}

/// Routes emissions from one task into per-destination output buffers.
pub(super) struct Router {
    routes: Vec<OutRoute>,
    out: OutputBuffers,
    shared: Arc<Shared>,
    select_buf: Vec<usize>,
    task: usize,
    /// Cached `shared.tracer.enabled()`: one branch per emission decides
    /// whether to stamp send timestamps for queue-wait measurement.
    trace_on: bool,
    /// Spout message id stamped on the next routed emission's deliveries so
    /// the receiving bolt can deduplicate replays (exactly-once-effect
    /// recovery).  Set by the spout loop before each tracked `route` call;
    /// bolts leave it `None`.
    pub(super) dedup_next: Option<MessageId>,
}

impl Router {
    /// Builds the router for global task `tid` of `component` (whose local
    /// index is `task_index`).  `gated` routers pass the credit gate; see
    /// [`OutputBuffers`].
    #[allow(clippy::too_many_arguments)]
    pub(super) fn new(
        topology: &Topology,
        component: &Component,
        task_index: usize,
        tid: usize,
        outlets: Vec<Outlet>,
        shared: Arc<Shared>,
        rt_cfg: &RtConfig,
        gated: bool,
    ) -> Self {
        let mut routes = Vec::new();
        for decl in &component.outputs {
            for (sub, spec) in topology.subscribers_of(component.id, &decl.id) {
                let handle = match spec {
                    GroupingSpec::Dynamic(_) => {
                        topology.dynamic_handle(&component.name, &decl.id, &sub.name)
                    }
                    _ => None,
                };
                routes.push(OutRoute {
                    stream: decl.id.clone(),
                    fields: decl.fields.clone(),
                    subscriber_base: sub.base_task.0,
                    grouping: make_grouping(
                        spec,
                        sub.parallelism,
                        &decl.fields,
                        task_index,
                        handle,
                    ),
                    is_direct: matches!(spec, GroupingSpec::Direct),
                });
            }
        }
        let out = OutputBuffers::new(rt_cfg.batch_size, rt_cfg.linger, outlets, tid, gated);
        let trace_on = shared.tracer.enabled();
        Self {
            routes,
            out,
            shared,
            select_buf: Vec::new(),
            task: tid,
            trace_on,
            dedup_next: None,
        }
    }

    /// Routes one emission into the output buffers; returns the number of
    /// tuple instances produced.  Buffers that reach `batch_size` flush
    /// inline (with `batch_size == 1` this degenerates to one blocking send
    /// per instance, exactly the unbatched behavior).
    pub(super) fn route(
        &mut self,
        emission: &Emission,
        root: Option<RootId>,
        ops: &mut AckOps,
    ) -> usize {
        let mut delivered = 0;
        // Stamped once per emission, only for traced trees; untraced tuples
        // carry 0 and the consumer skips queue-wait math entirely.
        let sent_at_us = match root {
            Some(root) if self.trace_on && self.shared.tracer.sampled(root) => self.shared.now_us(),
            _ => 0,
        };
        for r in 0..self.routes.len() {
            {
                let route = &self.routes[r];
                if route.stream != emission.stream {
                    continue;
                }
                match (emission.direct_task, route.is_direct) {
                    (Some(_), false) | (None, true) => continue,
                    _ => {}
                }
            }
            self.select_buf.clear();
            match emission.direct_task {
                Some(idx) => self.select_buf.push(idx),
                None => {
                    let mut buf = std::mem::take(&mut self.select_buf);
                    self.routes[r].grouping.select(&emission.tuple, &mut buf);
                    self.select_buf = buf;
                }
            }
            if self.select_buf.is_empty() {
                continue;
            }
            // Rekey once per route, not once per destination: every
            // destination of a route shares the stream's (interned) schema,
            // and when the tuple already carries it — the common case, since
            // schemas come from the same declaration `Arc` — no new tuple is
            // built at all.
            let rekeyed = {
                let route = &self.routes[r];
                if emission.tuple.fields().ptr_eq(&route.fields) {
                    emission.tuple.clone()
                } else {
                    emission.tuple.rekeyed(route.fields.clone())
                }
            };
            for i in 0..self.select_buf.len() {
                let local = self.select_buf[i];
                let dest = self.routes[r].subscriber_base + local;
                let tuple = rekeyed.clone();
                let anchor = root.map(|root| {
                    let edge = self.shared.new_edge_id();
                    ops.push(AckOp::Emit { root, edge });
                    (root, edge)
                });
                self.out.push(
                    dest,
                    Delivered {
                        tuple,
                        anchor,
                        sent_at_us,
                        dedup: self.dedup_next,
                    },
                    &self.shared,
                    ops,
                );
                delivered += 1;
            }
        }
        if delivered > 0 {
            self.shared.task_stats[self.task]
                .emitted
                .fetch_add(delivered as u64, Ordering::Relaxed);
        }
        delivered
    }

    /// Flushes buffers whose linger deadline has passed.
    pub(super) fn flush_expired(&mut self, now: Instant, ops: &mut AckOps) {
        let shared = self.shared.clone();
        self.out.flush_expired(now, &shared, ops);
    }

    /// Flushes every non-empty buffer (drain / shutdown).
    pub(super) fn flush_all(&mut self, ops: &mut AckOps) {
        let shared = self.shared.clone();
        self.out.flush_all(&shared, ops);
    }

    /// Earliest linger deadline across buffered output, if any.
    pub(super) fn next_deadline(&self) -> Option<Instant> {
        self.out.next_deadline()
    }

    pub(super) fn has_pending(&self) -> bool {
        self.out.has_pending()
    }
}
