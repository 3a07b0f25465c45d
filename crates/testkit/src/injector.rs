//! The bridge from a [`FaultPlan`] to the `sitra-net` fault seam: a
//! [`PlanInjector`] implements [`sitra_net::FaultInjector`], tracking a
//! virtual clock (one tick per observed frame) and a per-connection
//! frame index, and recording every non-`Deliver` decision so a test
//! can assert that identical seed + plan reproduce an identical fault
//! schedule.
//!
//! Raw connection ids are process-global and monotonically increasing,
//! so they differ from run to run; the injector therefore numbers
//! connections *densely in order of first frame*. Given the same
//! traffic trace, the dense numbering — and hence the schedule — is
//! identical across runs and processes.

use crate::plan::FaultPlan;
use parking_lot::Mutex;
use sitra_net::{FaultAction, FaultInjector, Frame};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// One recorded fault decision: frame `op` of dense connection `conn`
/// got `action`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleEntry {
    /// Dense connection index (order of first observed frame).
    pub conn: u64,
    /// Per-connection frame index.
    pub op: u64,
    /// What happened to the frame.
    pub action: FaultAction,
}

struct ConnState {
    dense: u64,
    ops: u64,
}

/// A [`FaultInjector`] executing a [`FaultPlan`].
pub struct PlanInjector {
    plan: FaultPlan,
    tick: AtomicU64,
    conns: Mutex<HashMap<u64, ConnState>>,
    schedule: Mutex<Vec<ScheduleEntry>>,
}

impl PlanInjector {
    /// An injector executing `plan`, starting at tick 0.
    pub fn new(plan: FaultPlan) -> PlanInjector {
        PlanInjector {
            plan,
            tick: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            schedule: Mutex::new(Vec::new()),
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Current virtual-clock value (frames observed so far).
    pub fn tick(&self) -> u64 {
        self.tick.load(Ordering::Relaxed)
    }

    /// Every non-`Deliver` decision taken so far, in decision order.
    pub fn schedule(&self) -> Vec<ScheduleEntry> {
        self.schedule.lock().clone()
    }
}

impl FaultInjector for PlanInjector {
    fn on_frame(&self, conn: u64, _peer: &str, _frame: &Frame) -> FaultAction {
        self.tick.fetch_add(1, Ordering::Relaxed);
        let (dense, op) = {
            let mut conns = self.conns.lock();
            let next_dense = conns.len() as u64;
            let state = conns.entry(conn).or_insert(ConnState {
                dense: next_dense,
                ops: 0,
            });
            let op = state.ops;
            state.ops += 1;
            (state.dense, op)
        };
        let action = self.plan.decide(dense, op);
        if action != FaultAction::Deliver {
            self.schedule.lock().push(ScheduleEntry {
                conn: dense,
                op,
                action,
            });
        }
        action
    }

    fn allow_connect(&self, _addr: &str) -> bool {
        !self.plan.partitioned_at(self.tick())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reproducibility contract the chaos suite leans on: two
    /// injectors for the same plan, fed the same traffic trace, take
    /// identical decisions — even though the raw connection ids differ
    /// between the two runs (as they do between real runs).
    #[test]
    fn identical_plan_and_trace_reproduce_identical_schedule() {
        let plan = FaultPlan::from_seed(0x5EED);
        let run = |conn_base: u64| {
            let inj = PlanInjector::new(plan.clone());
            let mut actions = Vec::new();
            // Three interleaved connections, 120 frames each, in a
            // fixed round-robin trace.
            for op in 0..120u64 {
                for c in 0..3u64 {
                    actions.push(inj.on_frame(conn_base + c, "peer", &Frame::new()));
                }
                let _ = op;
            }
            (actions, inj.schedule())
        };
        let (actions_a, schedule_a) = run(1);
        let (actions_b, schedule_b) = run(901); // different raw ids
        assert_eq!(actions_a, actions_b);
        assert_eq!(schedule_a, schedule_b);
        assert!(
            !schedule_a.is_empty(),
            "from_seed(0x5EED) should fault at least once in 360 frames"
        );
    }

    #[test]
    fn partition_follows_the_virtual_clock() {
        let plan = FaultPlan {
            partitions: vec![crate::plan::PartitionWindow {
                from_tick: 2,
                until_tick: 4,
            }],
            ..FaultPlan::fault_free(3)
        };
        let inj = PlanInjector::new(plan);
        assert!(inj.allow_connect("inproc://x"));
        inj.on_frame(1, "p", &Frame::new());
        inj.on_frame(1, "p", &Frame::new());
        assert!(!inj.allow_connect("inproc://x")); // tick 2: partitioned
        inj.on_frame(1, "p", &Frame::new());
        inj.on_frame(1, "p", &Frame::new());
        assert!(inj.allow_connect("inproc://x")); // tick 4: healed
    }
}
