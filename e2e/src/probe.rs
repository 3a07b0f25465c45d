//! The benchmark's view into a running pipeline: an [`Analysis`]
//! wrapper that stamps every call the driver, the buckets and the
//! workers make into the wrapped analysis, and the board the stamps
//! land on.
//!
//! The untraced run keeps three stamps per task — the earliest
//! `in_situ` entry of the step, the last `in_situ` return, and the
//! delivery (the `staging_output_hook` call, or on the local backend
//! the return of the aggregation). The traced run adds the aggregation
//! entry and return and one record per call.

use crate::trace::Span;
use bytes::Bytes;
use sitra_core::{Aggregator, Analysis, AnalysisOutput, InSituCtx};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Stamps of one `(analysis, step)`. Times are nanoseconds since the
/// board's epoch; 0 (or `u64::MAX` for the entry) means not stamped.
struct Slot {
    first_entry: AtomicU64,
    last_return: AtomicU64,
    bytes: AtomicU64,
    agg_entry: AtomicU64,
    agg_return: AtomicU64,
    agg_calls: AtomicU32,
    delivered: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            first_entry: AtomicU64::new(u64::MAX),
            last_return: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            agg_entry: AtomicU64::new(0),
            agg_return: AtomicU64::new(0),
            agg_calls: AtomicU32::new(0),
            delivered: AtomicU64::new(0),
        }
    }
}

/// Keep the first stamp: a degraded task is aggregated a second time
/// on the driver, and that re-run must not move the task's times.
fn stamp_once(cell: &AtomicU64, t: u64) {
    // Relaxed: the stamps are read only after every pipeline thread
    // has been joined.
    let _ = cell.compare_exchange(0, t, Ordering::Relaxed, Ordering::Relaxed);
}

/// One call into a wrapped analysis, recorded only by the traced run.
#[derive(Debug, Clone, Copy)]
struct Call {
    name: &'static str,
    analysis: usize,
    step: u64,
    start_ns: u64,
    end_ns: u64,
}

/// One analysis of the roster as the board knows it.
#[derive(Debug, Clone)]
pub struct Entry {
    pub label: String,
    /// The kernel crate its stages run in.
    pub layer: &'static str,
    pub hybrid: bool,
    pub interval: usize,
}

/// Where the stamps of one `run_pipeline` call land.
pub struct Board {
    epoch: Instant,
    entries: Vec<Entry>,
    steps: usize,
    /// The aggregation's return is the delivery (local backend: there
    /// is no hook, the bucket retires the task itself).
    deliver_on_aggregate: bool,
    traced: bool,
    slots: Vec<Slot>,
    calls: Mutex<Vec<Call>>,
}

/// The times of one staged task, all stamped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskTimes {
    pub last_return: u64,
    pub agg_entry: u64,
    pub agg_return: u64,
    pub delivered: u64,
}

/// `insight` cut at the aggregation's entry and return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Split {
    pub ship_wait_ns: u64,
    pub aggregate_ns: u64,
    pub collect_wait_ns: u64,
    pub insight_ns: u64,
}

impl TaskTimes {
    /// The three-way split; `None` when the stamps are not in causal
    /// order (which would make a part negative).
    pub fn split(&self) -> Option<Split> {
        let ordered = self.last_return <= self.agg_entry
            && self.agg_entry <= self.agg_return
            && self.agg_return <= self.delivered;
        ordered.then(|| Split {
            ship_wait_ns: self.agg_entry - self.last_return,
            aggregate_ns: self.agg_return - self.agg_entry,
            collect_wait_ns: self.delivered - self.agg_return,
            insight_ns: self.delivered - self.last_return,
        })
    }
}

impl Split {
    /// The parts sum to the whole within 1 %.
    pub fn identity_holds(&self) -> bool {
        let parts = self.ship_wait_ns + self.aggregate_ns + self.collect_wait_ns;
        parts.abs_diff(self.insight_ns) as f64 <= 0.01 * self.insight_ns as f64
    }
}

impl Board {
    pub fn new(
        entries: Vec<Entry>,
        steps: usize,
        deliver_on_aggregate: bool,
        traced: bool,
    ) -> Arc<Self> {
        let slots = (0..entries.len() * (steps + 1))
            .map(|_| Slot::new())
            .collect();
        Arc::new(Board {
            epoch: Instant::now(),
            entries,
            steps,
            deliver_on_aggregate,
            traced,
            slots,
            calls: Mutex::new(Vec::new()),
        })
    }

    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    pub fn steps(&self) -> usize {
        self.steps
    }

    pub fn now_ns(&self) -> u64 {
        (self.epoch.elapsed().as_nanos() as u64).max(1)
    }

    /// When the board was created; stamps count from here.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// The slot of `(analysis, step)`; `None` for a step the run was
    /// not sized for, which is ignored instead of trusted.
    fn slot(&self, analysis: usize, step: u64) -> Option<&Slot> {
        (analysis < self.entries.len() && step as usize <= self.steps)
            .then(|| &self.slots[analysis * (self.steps + 1) + step as usize])
    }

    fn record(&self, name: &'static str, analysis: usize, step: u64, start_ns: u64, end_ns: u64) {
        if self.traced {
            self.calls
                .lock()
                .expect("no thread panics while recording a call")
                .push(Call {
                    name,
                    analysis,
                    step,
                    start_ns,
                    end_ns,
                });
        }
    }

    fn in_situ_done(&self, analysis: usize, step: u64, start_ns: u64, end_ns: u64, bytes: usize) {
        if let Some(s) = self.slot(analysis, step) {
            s.first_entry.fetch_min(start_ns, Ordering::Relaxed);
            s.last_return.fetch_max(end_ns, Ordering::Relaxed);
            s.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        }
        self.record("in_situ", analysis, step, start_ns, end_ns);
    }

    fn aggregate_entered(&self, analysis: usize, step: u64, t: u64) {
        if let Some(s) = self.slot(analysis, step) {
            s.agg_calls.fetch_add(1, Ordering::Relaxed);
            if self.traced {
                stamp_once(&s.agg_entry, t);
            }
        }
    }

    fn aggregate_returned(&self, analysis: usize, step: u64, t: u64) {
        if let Some(s) = self.slot(analysis, step) {
            if self.traced {
                stamp_once(&s.agg_return, t);
            }
            if self.deliver_on_aggregate {
                stamp_once(&s.delivered, t);
            }
        }
    }

    /// The `staging_output_hook`: output `(label, step)` reached the
    /// driver. Deliveries may come in any order.
    pub fn delivered(&self, label: &str, step: u64) {
        let t = self.now_ns();
        if let Some(analysis) = self.entries.iter().position(|e| e.label == label) {
            if let Some(s) = self.slot(analysis, step) {
                stamp_once(&s.delivered, t);
            }
        }
    }

    /// Whether `analysis` runs at `step` (the rule of `AnalysisSpec::due`).
    pub fn due(&self, analysis: usize, step: u64) -> bool {
        step > 0 && step.is_multiple_of(self.entries[analysis].interval as u64)
    }

    /// Earliest `in_situ` entry of `step` over all analyses.
    pub fn step_entry(&self, step: u64) -> Option<u64> {
        (0..self.entries.len())
            .filter_map(|a| self.slot(a, step))
            .map(|s| s.first_entry.load(Ordering::Relaxed))
            .filter(|&t| t != u64::MAX)
            .min()
    }

    /// Wall time of the in-situ stages of `step`, summed over analyses.
    pub fn insitu_ns(&self, step: u64) -> u64 {
        (0..self.entries.len())
            .filter_map(|a| self.slot(a, step))
            .filter_map(|s| {
                let first = s.first_entry.load(Ordering::Relaxed);
                (first != u64::MAX).then(|| s.last_return.load(Ordering::Relaxed) - first)
            })
            .sum()
    }

    /// Intermediate bytes the hybrid analyses produced at `step`.
    pub fn moved_bytes(&self, step: u64) -> u64 {
        (0..self.entries.len())
            .filter(|&a| self.entries[a].hybrid)
            .filter_map(|a| self.slot(a, step))
            .map(|s| s.bytes.load(Ordering::Relaxed))
            .sum()
    }

    /// Time-to-insight of a staged task: last `in_situ` return to
    /// delivery. `None` when it was never delivered.
    pub fn insight_ns(&self, analysis: usize, step: u64) -> Option<u64> {
        let s = self.slot(analysis, step)?;
        let (ret, del) = (
            s.last_return.load(Ordering::Relaxed),
            s.delivered.load(Ordering::Relaxed),
        );
        (ret != 0 && del >= ret).then(|| del - ret)
    }

    /// How often the task was aggregated: more than once means the
    /// driver re-ran it (degraded).
    pub fn aggregate_calls(&self, analysis: usize, step: u64) -> u32 {
        self.slot(analysis, step)
            .map_or(0, |s| s.agg_calls.load(Ordering::Relaxed))
    }

    /// All four times of a task (traced run only).
    pub fn task_times(&self, analysis: usize, step: u64) -> Option<TaskTimes> {
        let s = self.slot(analysis, step)?;
        let t = TaskTimes {
            last_return: s.last_return.load(Ordering::Relaxed),
            agg_entry: s.agg_entry.load(Ordering::Relaxed),
            agg_return: s.agg_return.load(Ordering::Relaxed),
            delivered: s.delivered.load(Ordering::Relaxed),
        };
        (t.last_return != 0 && t.agg_entry != 0 && t.agg_return != 0 && t.delivered != 0)
            .then_some(t)
    }

    /// The traced run as spans: per step one `step` span with the
    /// in-situ stages and their per-rank calls below it, per staged
    /// task one `task` span cut into ship wait, aggregation (with the
    /// calls into the analysis below it) and collect wait.
    pub fn spans(&self, from_step: u64) -> Vec<Span> {
        let mut out = SpanList::default();
        let calls = self
            .calls
            .lock()
            .expect("pipeline threads are joined")
            .clone();
        let steps = from_step..=self.steps as u64;
        for step in steps.clone() {
            let (Some(start), Some(end)) = (self.step_entry(step), self.step_entry(step + 1))
            else {
                continue;
            };
            let step_id = out.push(None, "step", "driver", (start, end), "", step);
            for (a, e) in self.entries.iter().enumerate() {
                let Some(s) = self.slot(a, step) else {
                    continue;
                };
                let first = s.first_entry.load(Ordering::Relaxed);
                if first == u64::MAX {
                    continue;
                }
                let last = s.last_return.load(Ordering::Relaxed);
                let stage = out.push(
                    Some(step_id),
                    "insitu",
                    "core",
                    (first, last),
                    &e.label,
                    step,
                );
                for c in calls
                    .iter()
                    .filter(|c| c.analysis == a && c.step == step && c.name == "in_situ")
                {
                    out.push(
                        Some(stage),
                        c.name,
                        e.layer,
                        (c.start_ns, c.end_ns),
                        &e.label,
                        step,
                    );
                }
            }
        }
        for (a, e) in self.entries.iter().enumerate().filter(|(_, e)| e.hybrid) {
            for step in steps.clone() {
                let Some(t) = self.task_times(a, step).filter(|t| t.split().is_some()) else {
                    continue;
                };
                let l = &e.label;
                let task = out.push(None, "task", "core", (t.last_return, t.delivered), l, step);
                let task = Some(task);
                out.push(
                    task,
                    "ship_wait",
                    "core",
                    (t.last_return, t.agg_entry),
                    l,
                    step,
                );
                let agg = out.push(
                    task,
                    "aggregate",
                    "core",
                    (t.agg_entry, t.agg_return),
                    l,
                    step,
                );
                out.push(
                    task,
                    "collect_wait",
                    "core",
                    (t.agg_return, t.delivered),
                    l,
                    step,
                );
                for c in calls.iter().filter(|c| {
                    c.analysis == a
                        && c.step == step
                        && c.name != "in_situ"
                        && c.start_ns >= t.agg_entry
                        && c.end_ns <= t.agg_return
                }) {
                    out.push(Some(agg), c.name, e.layer, (c.start_ns, c.end_ns), l, step);
                }
            }
        }
        out.0
    }
}

/// Spans in the order they were made; a span's id is its position.
#[derive(Default)]
struct SpanList(Vec<Span>);

impl SpanList {
    fn push(
        &mut self,
        parent: Option<u64>,
        name: &'static str,
        layer: &'static str,
        (start_ns, end_ns): (u64, u64),
        label: &str,
        step: u64,
    ) -> u64 {
        let id = self.0.len() as u64 + 1;
        self.0.push(Span {
            id,
            parent,
            name,
            layer,
            start_ns,
            end_ns,
            label: label.to_string(),
            step,
        });
        id
    }
}

/// An analysis seen from outside: every call is forwarded unchanged
/// and stamped on the board.
pub struct Probe {
    pub inner: Arc<dyn Analysis>,
    pub index: usize,
    pub board: Arc<Board>,
}

impl Analysis for Probe {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn in_situ(&self, ctx: &InSituCtx<'_>) -> Bytes {
        let start = self.board.now_ns();
        let payload = self.inner.in_situ(ctx);
        let end = self.board.now_ns();
        self.board
            .in_situ_done(self.index, ctx.step, start, end, payload.len());
        payload
    }

    fn aggregate(&self, step: u64, parts: &[(usize, Bytes)]) -> AnalysisOutput {
        let start = self.board.now_ns();
        self.board.aggregate_entered(self.index, step, start);
        let out = self.inner.aggregate(step, parts);
        let end = self.board.now_ns();
        self.board
            .record("aggregate_call", self.index, step, start, end);
        self.board.aggregate_returned(self.index, step, end);
        out
    }

    fn streaming_aggregator(&self, step: u64) -> Option<Box<dyn Aggregator>> {
        let entered = self.board.now_ns();
        let inner = self.inner.streaming_aggregator(step)?;
        self.board.aggregate_entered(self.index, step, entered);
        Some(Box::new(ProbeAggregator {
            inner,
            index: self.index,
            step,
            board: Arc::clone(&self.board),
        }))
    }
}

struct ProbeAggregator {
    inner: Box<dyn Aggregator>,
    index: usize,
    step: u64,
    board: Arc<Board>,
}

impl Aggregator for ProbeAggregator {
    fn feed(&mut self, rank: usize, payload: Bytes) {
        let start = self.board.now_ns();
        self.inner.feed(rank, payload);
        let end = self.board.now_ns();
        self.board.record("feed", self.index, self.step, start, end);
    }

    fn finish(self: Box<Self>) -> AnalysisOutput {
        let this = *self;
        let start = this.board.now_ns();
        let out = this.inner.finish();
        let end = this.board.now_ns();
        this.board
            .record("finish", this.index, this.step, start, end);
        this.board.aggregate_returned(this.index, this.step, end);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn board(traced: bool) -> Arc<Board> {
        let entry = |label: &str, hybrid| Entry {
            label: label.into(),
            layer: "stats",
            hybrid,
            interval: 1,
        };
        Board::new(vec![entry("a", true), entry("b", true)], 4, false, traced)
    }

    #[test]
    fn split_parts_sum_to_insight() {
        let t = TaskTimes {
            last_return: 1_000,
            agg_entry: 1_400,
            agg_return: 2_100,
            delivered: 5_000,
        };
        let s = t.split().unwrap();
        assert_eq!(
            (s.ship_wait_ns, s.aggregate_ns, s.collect_wait_ns),
            (400, 700, 2_900)
        );
        assert_eq!(s.insight_ns, 4_000);
        assert!(s.identity_holds());
        // A part that went missing breaks the identity.
        let broken = Split {
            collect_wait_ns: 2_000,
            ..s
        };
        assert!(!broken.identity_holds());
    }

    #[test]
    fn stamps_out_of_causal_order_give_no_split() {
        let t = TaskTimes {
            last_return: 1_000,
            agg_entry: 900,
            agg_return: 2_000,
            delivered: 3_000,
        };
        assert_eq!(t.split(), None);
    }

    #[test]
    fn deliveries_in_any_order_land_on_their_own_task() {
        let b = board(true);
        for step in 1..=4u64 {
            for a in 0..2 {
                b.in_situ_done(a, step, 10 * step, 10 * step + 5, 64);
                b.aggregate_entered(a, step, 10 * step + 6);
                b.aggregate_returned(a, step, 10 * step + 8);
            }
        }
        // Later steps and the second label are delivered first.
        for (label, step) in [("b", 4), ("a", 3), ("b", 1), ("a", 1), ("a", 4), ("b", 3)] {
            b.delivered(label, step);
        }
        for (a, step) in [(0, 1), (0, 3), (0, 4), (1, 1), (1, 3), (1, 4)] {
            let t = b.task_times(a, step).unwrap();
            assert_eq!(t.last_return, 10 * step + 5);
            assert_eq!(t.agg_return, 10 * step + 8);
            assert!(t.split().unwrap().identity_holds());
        }
        // Undelivered tasks have no insight; unknown labels and steps
        // the run was not sized for are ignored.
        assert_eq!(b.insight_ns(0, 2), None);
        assert_eq!(b.insight_ns(1, 2), None);
        b.delivered("nobody", 2);
        b.delivered("a", 99);
        assert_eq!(b.insight_ns(0, 2), None);
    }

    #[test]
    fn a_second_delivery_or_aggregation_does_not_move_the_first() {
        let b = board(true);
        b.in_situ_done(0, 1, 10, 20, 8);
        b.aggregate_entered(0, 1, 30);
        b.aggregate_returned(0, 1, 40);
        b.delivered("a", 1);
        let first = b.task_times(0, 1).unwrap();
        b.aggregate_entered(0, 1, 1_000_000_000_000);
        b.aggregate_returned(0, 1, 1_000_000_000_001);
        b.delivered("a", 1);
        assert_eq!(b.task_times(0, 1).unwrap(), first);
        assert_eq!(b.aggregate_calls(0, 1), 2);
    }

    #[test]
    fn step_entry_is_the_earliest_rank_of_any_analysis() {
        let b = board(false);
        b.in_situ_done(1, 2, 50, 60, 8);
        b.in_situ_done(0, 2, 40, 45, 8);
        b.in_situ_done(0, 2, 42, 70, 8);
        assert_eq!(b.step_entry(2), Some(40));
        assert_eq!(b.step_entry(3), None);
        assert_eq!(b.insitu_ns(2), 30 + 10);
        assert_eq!(b.moved_bytes(2), 24);
    }

    #[test]
    fn the_untraced_board_keeps_no_aggregation_stamps() {
        let b = board(false);
        b.in_situ_done(0, 1, 10, 20, 8);
        b.aggregate_entered(0, 1, 30);
        b.aggregate_returned(0, 1, 40);
        b.delivered("a", 1);
        assert_eq!(b.task_times(0, 1), None);
        assert!(b.insight_ns(0, 1).is_some());
        assert!(b.spans(1).iter().all(|s| s.name != "task"));
    }
}
