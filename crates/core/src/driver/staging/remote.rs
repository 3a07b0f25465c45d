//! The remote staging backend: ship intermediates to a staging service
//! — a member list of one or more `sitra-staged` space servers, reached
//! through one [`ClusterClient`] — where external bucket workers
//! aggregate them.
//!
//! Flow control runs end to end: at most
//! [`crate::PipelineConfig::staging_max_inflight`] tasks ride the wire
//! at once (submission blocks collecting the oldest first), the
//! server's admission policy can refuse or shed tasks, and any task the
//! staging path fails — deadline missed, admission refused, endpoint
//! unreachable — retires as [`Retired::Degraded`]: its aggregation
//! re-runs in-situ from the retained intermediates and the run
//! continues with zero lost steps.

use super::{BackendCaps, BackendStats, RetireCtx, Retired, StagedTask, StagingBackend};
use crate::driver::StagingOutputHook;
use crate::remote::{await_output, encode_task, intermediate_var, rank_bbox, RemoteTask};
use bytes::Bytes;
use sitra_cluster::ClusterClient;
use sitra_dataspaces::remote::RemoteError;
use sitra_dataspaces::{Admission, TenantSpec, DEFAULT_TENANT};
use sitra_mesh::BBox3;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

const CAPS: BackendCaps = BackendCaps {
    name: "remote",
    placement: "hybrid-remote",
    in_transit: true,
    ships_data: true,
};

/// A task shipped to the remote staging area whose output has not been
/// collected yet. `parts` retains the in-situ intermediates so the
/// aggregation can re-run locally if the staging path fails — memory
/// bounded by `staging_max_inflight` retained steps (`Bytes` clones
/// share the underlying buffers with the staged puts).
struct PendingRemote {
    analysis_idx: usize,
    step: u64,
    /// Scheduler sequence number of the submitted task; `u64::MAX` when
    /// the task never made it into the remote queue. Sequence numbers
    /// are per-member, so shed-victim lookup also matches `member`.
    seq: u64,
    /// Index of the member whose scheduler admitted the task.
    member: usize,
    issued: Instant,
    parts: Vec<(usize, Bytes)>,
}

/// Hybrid aggregation on a remote staging service, with a bounded
/// in-flight window and graceful degradation.
pub struct RemoteBackend {
    ctx: RetireCtx,
    client: ClusterClient,
    pending: Vec<PendingRemote>,
    /// Every version (step) that had intermediates put remotely, for
    /// eviction at close time.
    versions: BTreeSet<u64>,
    deadline: Duration,
    max_inflight: usize,
    n_ranks: u32,
    hook: Option<StagingOutputHook>,
    submitted: usize,
    /// The driver is one tenant among several on a shared staging
    /// service, so closing the scheduler at end-of-run would retire
    /// every other tenant's workers too. Set when a non-default tenant
    /// is configured; the legacy sole-owner deployment (no tenant, or
    /// explicitly the default one) keeps its close-on-exit semantics.
    shared_tenant: bool,
}

impl RemoteBackend {
    /// Stage through the member list `endpoints` (one entry for a
    /// single server), which must already be validated (non-empty,
    /// parseable) — [`crate::run_pipeline`] checks them before
    /// construction. Connections are dialed lazily: an unreachable
    /// member does not fail the run, the tasks routed to it degrade to
    /// in-situ aggregation.
    pub fn new(
        ctx: RetireCtx,
        endpoints: Vec<String>,
        deadline: Duration,
        max_inflight: usize,
        n_ranks: u32,
        hook: Option<StagingOutputHook>,
        tenant: Option<TenantSpec>,
    ) -> Self {
        let mut client = ClusterClient::new(
            sitra_cluster::DEFAULT_SEED,
            sitra_cluster::DEFAULT_VNODES,
            endpoints,
            sitra_net::Backoff::default(),
        )
        .expect("endpoints validated by run_pipeline");
        let shared_tenant = tenant.as_ref().is_some_and(|t| t.name != DEFAULT_TENANT);
        if let Some(spec) = tenant {
            client = client.with_tenant(spec);
        }
        RemoteBackend {
            ctx,
            client,
            pending: Vec::new(),
            versions: BTreeSet::new(),
            deadline,
            max_inflight,
            n_ranks,
            hook,
            submitted: 0,
            shared_tenant,
        }
    }

    /// Re-run a task's aggregation in-situ through the shared
    /// retirement path; returns the wall seconds burned.
    fn degrade(&self, p: PendingRemote, reason: &'static str) -> f64 {
        self.ctx.retire(Retired::Degraded {
            analysis_idx: p.analysis_idx,
            step: p.step,
            issued: p.issued,
            parts: p.parts,
            reason,
        })
    }

    /// Await the oldest in-flight remote output; any failure (deadline
    /// missed, endpoint lost) degrades that task to in-situ
    /// aggregation. Returns the wall seconds spent waiting and/or
    /// aggregating locally.
    fn collect_oldest(&mut self) -> f64 {
        let p = self.pending.remove(0);
        let label = self.ctx.analyses()[p.analysis_idx].label.clone();
        let step = p.step;
        let t0 = Instant::now();
        let deadline = t0 + self.deadline;
        let res = await_output(&self.client, &label, step, deadline);
        sitra_obs::histogram("driver.staging.backpressure_wait_ns").observe(t0.elapsed());
        match res {
            Ok(output) => {
                self.ctx.retire(Retired::Collected {
                    analysis_idx: p.analysis_idx,
                    step,
                    output,
                });
                if let Some(h) = &self.hook {
                    h(&label, step);
                }
                t0.elapsed().as_secs_f64()
            }
            Err(e) => {
                let reason = match &e {
                    RemoteError::Timeout(_) => "deadline",
                    RemoteError::Net(_) => "endpoint-lost",
                    _ => "error",
                };
                t0.elapsed().as_secs_f64() + self.degrade(p, reason)
            }
        }
    }

    /// Put this step's intermediates into the staging space and submit
    /// the task through the admission-aware verb, recording it as
    /// in-flight. `Err(reason)` means the staging path refused (or
    /// lost) the task and the caller must degrade it immediately. An
    /// `AcceptedShed` verdict returns the evicted older task — it will
    /// never run remotely, so the caller re-runs its aggregation
    /// locally right away.
    fn try_ship(
        &mut self,
        analysis_idx: usize,
        step: u64,
        issued: Instant,
        parts: &[(usize, Bytes)],
    ) -> Result<Option<PendingRemote>, &'static str> {
        // Every member's last dial failed: the staging area is gone,
        // degrade at once instead of paying a connect per operation.
        if !self.client.alive() {
            return Err("endpoint-lost");
        }
        let label = self.ctx.analyses()[analysis_idx].label.clone();
        let var = intermediate_var(&label);
        self.versions.insert(step);
        for (r, payload) in parts {
            let bb = rank_bbox(*r);
            if self.client.put(&var, step, bb, payload.clone()).is_err() {
                return Err("endpoint-lost");
            }
        }
        let task = encode_task(&RemoteTask {
            analysis_idx: analysis_idx as u32,
            step,
            n_ranks: self.n_ranks,
        });
        // Where the task's input bytes now live, for the scheduler's
        // locality placement: the ring owner of each rank piece.
        let sized: Vec<(BBox3, u64)> = parts
            .iter()
            .map(|(r, payload)| (rank_bbox(*r), payload.len() as u64))
            .collect();
        let hint = self.client.residency_hint(&var, step, &sized);
        let verdict = self
            .client
            .submit_task_routed_hinted(&label, step, task, hint);
        let (member, seq, shed_seq) = match verdict {
            Ok((member, Admission::Accepted { seq })) => (member, seq, None),
            Ok((member, Admission::AcceptedShed { seq, shed_seq })) => {
                (member, seq, Some(shed_seq))
            }
            Ok((_, Admission::Rejected)) => return Err("rejected"),
            Ok((_, Admission::TimedOut)) => return Err("admission-timeout"),
            Ok((_, Admission::Closed)) => return Err("sched-closed"),
            Err(_) => return Err("endpoint-lost"),
        };
        self.pending.push(PendingRemote {
            analysis_idx,
            step,
            seq,
            member,
            issued,
            parts: parts.to_vec(),
        });
        // The server evicted an older queued task to admit this one
        // (ShedOldest policy): hand it back for immediate local
        // re-aggregation. Sequence numbers are per member scheduler, so
        // the victim must have been admitted by the same member.
        let victim = shed_seq.and_then(|victim_seq| {
            self.pending
                .iter()
                .position(|p| p.seq == victim_seq && p.member == member)
                .map(|pos| self.pending.remove(pos))
        });
        Ok(victim)
    }
}

impl StagingBackend for RemoteBackend {
    fn caps(&self) -> BackendCaps {
        CAPS
    }

    fn submit(&mut self, task: StagedTask) -> f64 {
        self.submitted += 1;
        // Producer-side backpressure: bound the in-flight window by
        // collecting the oldest output first.
        let mut blocked = 0.0;
        while self.pending.len() >= self.max_inflight.max(1) {
            blocked += self.collect_oldest();
        }
        let shipped = self.try_ship(task.analysis_idx, task.step, task.issued, &task.parts);
        self.ctx.record_insitu(&task, &CAPS, shipped.is_ok());
        match shipped {
            Ok(None) => {}
            Ok(Some(victim)) => blocked += self.degrade(victim, "shed"),
            Err(reason) => {
                blocked += self.degrade(
                    PendingRemote {
                        analysis_idx: task.analysis_idx,
                        step: task.step,
                        seq: u64::MAX,
                        member: 0,
                        issued: task.issued,
                        parts: task.parts,
                    },
                    reason,
                );
            }
        }
        blocked
    }

    fn collect_ready(&mut self) -> f64 {
        if self.pending.is_empty() {
            return 0.0;
        }
        let t0 = Instant::now();
        // Oldest-first, zero-deadline probes: collect outputs that are
        // already in the space, stop at the first that is not. Failures
        // are left pending — the blocking window/drain paths own
        // degradation, so a transient hiccup here never degrades a task
        // that would have made its real deadline.
        while let Some(p) = self.pending.first() {
            let (label, step) = (self.ctx.analyses()[p.analysis_idx].label.clone(), p.step);
            let res = await_output(&self.client, &label, step, Instant::now());
            match res {
                Ok(output) => {
                    let p = self.pending.remove(0);
                    self.ctx.retire(Retired::Collected {
                        analysis_idx: p.analysis_idx,
                        step,
                        output,
                    });
                    if let Some(h) = &self.hook {
                        h(&label, step);
                    }
                }
                Err(_) => break,
            }
        }
        t0.elapsed().as_secs_f64()
    }

    fn drain(&mut self) -> f64 {
        // Collect every in-flight output; anything the staging path
        // lost is re-aggregated in-situ — zero lost steps.
        let mut blocked = 0.0;
        while !self.pending.is_empty() {
            blocked += self.collect_oldest();
        }
        blocked
    }

    fn close(&mut self) -> BackendStats {
        // Reclaim the staging memory (scoped to this tenant's namespace
        // when one is bound), then close the remote scheduler so
        // external bucket workers retire — unless the service is shared
        // with other tenants, in which case its lifetime belongs to the
        // operator, not to whichever driver finishes first.
        for v in &self.versions {
            self.client.evict_version(*v);
        }
        if !self.shared_tenant {
            self.client.close_sched();
        }
        BackendStats {
            submitted: self.submitted,
            max_queue_depth: 0,
        }
    }
}
