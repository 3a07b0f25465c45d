//! The elastic bucket pool: per-bucket lifecycle state, the one task
//! placement rule, and the pure autoscaling policy.
//!
//! The paper's scheduler treats staging buckets as an anonymous FCFS
//! free list — enough for a fixed-size staging partition, but a service
//! that grows under backlog and shrinks when idle needs to know *which*
//! buckets exist, what state each is in, and where each one runs:
//!
//! * `BucketPool` (crate-internal) replaces the scheduler's bare
//!   free-bucket queue. It keeps the parked (idle) buckets in arrival
//!   order plus a metadata row per bucket: lifecycle [`BucketState`]
//!   and an optional *location* label (the endpoint or cluster member
//!   the bucket is co-resident with).
//! * Placement is one rule, `BucketPool::take_for`: the parked bucket
//!   whose location holds the most of the task's input bytes (named by
//!   a [`ResidencyHint`]) gets the task, and those bytes are credited
//!   to the scheduler's `locality_bytes_saved`. Ties, tasks with no
//!   hint, and unlocated buckets fall back to the head of the parked
//!   list — the paper's FCFS order. A deployment that registers no
//!   bucket location is therefore byte-identical to the plain free
//!   list: the pinned chaos corpus and `backend_equivalence` hold
//!   bit-for-bit.
//! * The capacity controller, [`Scheduler::autoscale`], is the one
//!   loop every elastic pool runs: each tick it reads a
//!   [`PoolSnapshot`] (queue depth, bucket counts, p99 task
//!   queue-wait), asks the pure policy (`Autoscaler`, driven by a
//!   latency SLO) for a verdict, drains buckets itself on a shrink and
//!   hands growth to the caller, who alone knows how to start a worker
//!   — the local staging backend spawns threads, `sitra-staged` only
//!   publishes the desired count, the `buckets_scenario` bench spawns
//!   its bench buckets. Keeping the policy pure makes every scaling
//!   trajectory unit-testable with synthetic snapshots.
//!
//! Lifecycle: a worker registers and leases tasks (Idle ⇄ Busy); a
//! shrink decision marks it Draining — it finishes its current task,
//! and its next lease request retires it (Retired) instead of parking.
//! A draining bucket killed mid-task loses nothing: the two-phase
//! hand-off requeues the unacknowledged task exactly as for any other
//! lost consumer.

use crate::sched::{BucketId, Scheduler};
use crossbeam::channel::{RecvTimeoutError, Sender};
use std::collections::{HashMap, VecDeque};
use std::time::Duration;

/// What [`BucketPool::take_for`] hands back: the chosen bucket, its
/// task channel, and the input bytes resident at its location.
pub(crate) type TakenBucket<T> = (BucketId, Sender<(u64, T)>, u64);

/// Lifecycle state of one staging bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BucketState {
    /// Parked on the free list, waiting for a task.
    Idle,
    /// Leased a task (or between lease requests).
    Busy,
    /// Marked for retirement: finishes its current task, then its next
    /// lease request returns the retire signal instead of a task.
    Draining,
    /// Done: the bucket observed the retire signal and exited.
    Retired,
}

/// Where a task's input bytes currently live, as `(location, bytes)`
/// rows. Locations are whatever label the deployment registers buckets
/// under — a server endpoint in single-space mode, a cluster member's
/// endpoint when the consistent-hash ring decides residency.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResidencyHint {
    /// Resident input bytes per location.
    pub bytes_at: Vec<(String, u64)>,
}

impl ResidencyHint {
    /// A hint placing all `bytes` at one `location` (the single-space
    /// case: everything is resident with the one server).
    pub fn single(location: impl Into<String>, bytes: u64) -> Self {
        ResidencyHint {
            bytes_at: vec![(location.into(), bytes)],
        }
    }

    /// Add `bytes` to `location`'s row, creating it if absent.
    pub fn add(&mut self, location: &str, bytes: u64) {
        match self.bytes_at.iter_mut().find(|(l, _)| l == location) {
            Some((_, b)) => *b += bytes,
            None => self.bytes_at.push((location.to_string(), bytes)),
        }
    }

    /// Total input bytes across all locations.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_at.iter().map(|(_, b)| b).sum()
    }

    /// Bytes resident at `location`.
    pub fn bytes_at(&self, location: &str) -> u64 {
        self.bytes_at
            .iter()
            .find(|(l, _)| l == location)
            .map_or(0, |(_, b)| *b)
    }

    /// Whether the hint carries no information.
    pub fn is_empty(&self) -> bool {
        self.bytes_at.iter().all(|(_, b)| *b == 0)
    }
}

struct BucketMeta {
    state: BucketState,
    location: Option<String>,
}

/// The scheduler's bucket roster: parked buckets in FCFS order plus
/// per-bucket lifecycle state and capacity target. Owned by the
/// scheduler's lock; every method is called with that lock held.
pub(crate) struct BucketPool<T> {
    /// Parked (idle) buckets in arrival order, each with the one-shot
    /// channel its blocked lease request is waiting on.
    parked: VecDeque<(BucketId, Sender<(u64, T)>)>,
    meta: HashMap<BucketId, BucketMeta>,
    /// Desired bucket count, when a capacity controller has set one.
    /// `None` = legacy fixed pool: no retirement ever fires.
    target: Option<usize>,
}

impl<T> BucketPool<T> {
    pub(crate) fn new() -> Self {
        BucketPool {
            parked: VecDeque::new(),
            meta: HashMap::new(),
            target: None,
        }
    }

    pub(crate) fn set_target(&mut self, target: Option<usize>) {
        self.target = target;
    }

    pub(crate) fn target(&self) -> Option<usize> {
        self.target
    }

    /// Record (or update) a bucket's location label.
    pub(crate) fn set_location(&mut self, id: BucketId, location: Option<String>) {
        let m = self.meta.entry(id).or_insert(BucketMeta {
            state: BucketState::Busy,
            location: None,
        });
        if location.is_some() {
            m.location = location;
        }
    }

    /// Note that `id` exists and is active (registration, or taken off
    /// the free list by an assignment).
    pub(crate) fn note_busy(&mut self, id: BucketId) {
        let m = self.meta.entry(id).or_insert(BucketMeta {
            state: BucketState::Busy,
            location: None,
        });
        if m.state != BucketState::Draining {
            m.state = BucketState::Busy;
        }
    }

    /// Park `id` on the free list.
    pub(crate) fn park(&mut self, id: BucketId, tx: Sender<(u64, T)>) {
        self.parked.push_back((id, tx));
        let m = self.meta.entry(id).or_insert(BucketMeta {
            state: BucketState::Idle,
            location: None,
        });
        m.state = BucketState::Idle;
    }

    /// Withdraw a timed-out bucket from the free list (it may already
    /// have been taken by a racing assignment — that is fine, the
    /// caller rescues the task from its channel).
    pub(crate) fn withdraw(&mut self, id: BucketId) {
        self.parked.retain(|(b, _)| *b != id);
        if let Some(m) = self.meta.get_mut(&id) {
            if m.state == BucketState::Idle {
                m.state = BucketState::Busy;
            }
        }
    }

    pub(crate) fn has_parked(&self) -> bool {
        !self.parked.is_empty()
    }

    pub(crate) fn parked_len(&self) -> usize {
        self.parked.len()
    }

    /// Buckets not yet retired (the live pool size).
    pub(crate) fn active_len(&self) -> usize {
        self.meta
            .values()
            .filter(|m| m.state != BucketState::Retired)
            .count()
    }

    /// The placement rule: take the parked bucket whose location holds
    /// the most of `hint`'s bytes off the free list, the head of the
    /// list when none holds any (ties keep the earlier-parked bucket).
    /// Returns the bucket, its channel, and the bytes resident at its
    /// location — the movement the choice avoided.
    pub(crate) fn take_for(&mut self, hint: Option<&ResidencyHint>) -> Option<TakenBucket<T>> {
        let (mut idx, mut saved) = (0, 0);
        if let Some(hint) = hint {
            for (i, (id, _)) in self.parked.iter().enumerate() {
                let location = self.meta.get(id).and_then(|m| m.location.as_deref());
                let here = location.map_or(0, |loc| hint.bytes_at(loc));
                if here > saved {
                    (idx, saved) = (i, here);
                }
            }
        }
        let (id, tx) = self.parked.remove(idx)?;
        self.note_busy(id);
        Some((id, tx, saved))
    }

    /// Mark `id` Draining. If it is parked, it is removed from the free
    /// list and its channel dropped, waking the blocked lease request
    /// with the retire signal; if busy, it finishes its current task
    /// and retires on its next lease request.
    pub(crate) fn begin_drain(&mut self, id: BucketId) -> bool {
        let Some(m) = self.meta.get_mut(&id) else {
            return false;
        };
        if matches!(m.state, BucketState::Retired | BucketState::Draining) {
            return false;
        }
        m.state = BucketState::Draining;
        self.parked.retain(|(b, _)| *b != id);
        true
    }

    /// Pick an idle bucket to drain (the most recently parked, so the
    /// longest-idle buckets keep serving FCFS), else any busy one.
    pub(crate) fn drain_one(&mut self) -> Option<BucketId> {
        let id = self.parked.back().map(|(id, _)| *id).or_else(|| {
            self.meta
                .iter()
                .filter(|(_, m)| m.state == BucketState::Busy)
                .map(|(id, _)| *id)
                .max()
        })?;
        self.begin_drain(id).then_some(id)
    }

    /// Consume a pending retirement: when `id` is Draining this flips
    /// it to Retired and returns true — the caller answers the lease
    /// request with the retire signal instead of a task.
    pub(crate) fn take_retirement(&mut self, id: BucketId) -> bool {
        match self.meta.get_mut(&id) {
            Some(m) if m.state == BucketState::Draining => {
                m.state = BucketState::Retired;
                true
            }
            Some(m) if m.state == BucketState::Retired => true,
            _ => false,
        }
    }

    /// Drop every parked bucket's channel (scheduler close).
    pub(crate) fn clear_parked(&mut self) {
        self.parked.clear();
    }
}

// --------------------------------------------------------------------
// Autoscaler
// --------------------------------------------------------------------

/// Configuration of the capacity controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoscaleConfig {
    /// Never drain below this many buckets.
    pub min_buckets: usize,
    /// Never grow past this many buckets.
    pub max_buckets: usize,
    /// The p99 task queue-wait objective. Sustained breaches grow the
    /// pool; a comfortably met SLO with idle buckets shrinks it.
    pub slo: Duration,
    /// Consecutive breached ticks before a grow fires, and consecutive
    /// idle ticks before a shrink fires — hysteresis against flapping
    /// on a single noisy sample.
    pub sustain_ticks: u32,
}

impl AutoscaleConfig {
    /// A controller holding the pool between `min` and `max` buckets
    /// against a p99 queue-wait `slo`.
    pub fn new(min: usize, max: usize, slo: Duration) -> Self {
        AutoscaleConfig {
            min_buckets: min.max(1),
            max_buckets: max.max(min.max(1)),
            slo,
            sustain_ticks: 2,
        }
    }
}

/// What the controller reads each tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// Live (non-retired) buckets.
    pub buckets: usize,
    /// Of those, currently parked idle.
    pub idle: usize,
    /// Tasks queued (not yet assigned).
    pub queue_depth: usize,
    /// p99 of recent task queue-waits.
    pub p99_wait: Duration,
}

/// One tick's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScaleDecision {
    /// Capacity is right (or a change is still sustaining).
    Hold,
    /// Add this many buckets.
    Grow(usize),
    /// Drain-then-retire this many buckets.
    Shrink(usize),
}

/// The pure autoscaling policy: feed it a [`PoolSnapshot`] per control
/// tick, apply whatever it decides. Deterministic — identical snapshot
/// sequences produce identical decision sequences, which is what makes
/// scale trajectories unit-testable.
#[derive(Debug, Clone)]
pub(crate) struct Autoscaler {
    cfg: AutoscaleConfig,
    hot_ticks: u32,
    cold_ticks: u32,
}

impl Autoscaler {
    /// A controller with `cfg`.
    pub(crate) fn new(cfg: AutoscaleConfig) -> Self {
        Autoscaler {
            cfg,
            hot_ticks: 0,
            cold_ticks: 0,
        }
    }

    /// One control tick.
    pub(crate) fn decide(&mut self, s: &PoolSnapshot) -> ScaleDecision {
        let buckets = s.buckets.max(1);
        // Hot: backlog waiting with nobody idle, or the SLO breached.
        let hot = (s.queue_depth > 0 && s.idle == 0) || s.p99_wait > self.cfg.slo;
        // Cold: empty queue, comfortably under the SLO, spare capacity.
        let cold = s.queue_depth == 0 && s.idle > 0 && s.p99_wait <= self.cfg.slo / 2;
        if hot {
            self.cold_ticks = 0;
            self.hot_ticks += 1;
            if self.hot_ticks >= self.cfg.sustain_ticks && buckets < self.cfg.max_buckets {
                self.hot_ticks = 0;
                // Step proportionally to the backlog per live bucket,
                // but at least one and never past the ceiling.
                let step = (s.queue_depth / buckets).clamp(1, self.cfg.max_buckets - buckets);
                return ScaleDecision::Grow(step);
            }
        } else if cold {
            self.hot_ticks = 0;
            self.cold_ticks += 1;
            // Shrinking is deliberately slower than growing (one bucket
            // per sustained-cold window, double the sustain): capacity
            // mistakes under backlog cost SLO, mistakes when idle only
            // cost a warm thread.
            if self.cold_ticks >= self.cfg.sustain_ticks * 2 && buckets > self.cfg.min_buckets {
                self.cold_ticks = 0;
                return ScaleDecision::Shrink(1);
            }
        } else {
            self.hot_ticks = 0;
            self.cold_ticks = 0;
        }
        ScaleDecision::Hold
    }
}

/// A running capacity controller ([`Scheduler::autoscale`]). Dropping
/// it stops the loop and joins its thread, so no grow callback runs
/// after the drop returns.
pub struct AutoscaleHandle {
    stop: Sender<()>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for AutoscaleHandle {
    fn drop(&mut self) {
        let _ = self.stop.send(());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl<T: Send + 'static> Scheduler<T> {
    /// Run the capacity controller on its own thread. The pool target
    /// starts at `cfg.min_buckets`; every `cfg.slo / 4` (at least 1 ms)
    /// the loop snapshots the pool and applies the policy's verdict.
    /// `Grow(k)` calls `grow(k)` — starting workers is the caller's
    /// business — and raises the target; `Shrink(k)` drains up to `k`
    /// buckets (each retires at its next lease) and lowers the target
    /// if any was drained. Each action is journalled as one
    /// `pool.scale` event.
    pub fn autoscale(
        &self,
        cfg: AutoscaleConfig,
        mut grow: impl FnMut(usize) + Send + 'static,
    ) -> AutoscaleHandle {
        self.set_pool_target(Some(cfg.min_buckets));
        let tick = (cfg.slo / 4).max(Duration::from_millis(1));
        let (stop, stopped) = crossbeam::channel::bounded::<()>(1);
        let sched = self.clone();
        let thread = std::thread::Builder::new()
            .name("bucket-autoscaler".into())
            .spawn(move || {
                let mut scaler = Autoscaler::new(cfg);
                while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(tick) {
                    let snap = sched.pool_snapshot();
                    let (action, delta, buckets) = match scaler.decide(&snap) {
                        ScaleDecision::Hold => continue,
                        ScaleDecision::Grow(k) => {
                            grow(k);
                            ("grow", k, snap.buckets + k)
                        }
                        ScaleDecision::Shrink(k) => {
                            let drained = (0..k)
                                .filter(|_| sched.drain_one_bucket().is_some())
                                .count();
                            if drained == 0 {
                                continue;
                            }
                            ("shrink", drained, snap.buckets.saturating_sub(drained))
                        }
                    };
                    sched.set_pool_target(Some(buckets));
                    sitra_obs::emit(
                        "sched",
                        "pool.scale",
                        &[
                            ("action", action.to_string()),
                            ("delta", delta.to_string()),
                            ("buckets", buckets.to_string()),
                            ("queue_depth", snap.queue_depth.to_string()),
                            ("p99_us", snap.p99_wait.as_micros().to_string()),
                        ],
                    );
                }
            })
            .expect("spawn autoscaler");
        AutoscaleHandle {
            stop,
            thread: Some(thread),
        }
    }

    /// Record the controller's desired bucket count, published through
    /// [`Scheduler::pool_target`] and the wire's pool stats so a worker
    /// fleet (or its supervisor) can reconcile toward it.
    pub(crate) fn set_pool_target(&self, target: Option<usize>) {
        self.with_pool(|pool| pool.set_target(target));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::Lease;

    #[test]
    fn residency_hint_accumulates_and_sums() {
        let mut h = ResidencyHint::default();
        assert!(h.is_empty());
        h.add("a", 10);
        h.add("b", 5);
        h.add("a", 7);
        assert_eq!(h.bytes_at("a"), 17);
        assert_eq!(h.bytes_at("b"), 5);
        assert_eq!(h.bytes_at("c"), 0);
        assert_eq!(h.total_bytes(), 22);
        assert!(!h.is_empty());
    }

    #[test]
    fn autoscaler_grows_under_sustained_backlog_only() {
        let mut a = Autoscaler::new(AutoscaleConfig::new(1, 8, Duration::from_millis(50)));
        let hot = PoolSnapshot {
            buckets: 2,
            idle: 0,
            queue_depth: 6,
            p99_wait: Duration::from_millis(200),
        };
        // First hot tick sustains, second fires, proportional step.
        assert_eq!(a.decide(&hot), ScaleDecision::Hold);
        assert_eq!(a.decide(&hot), ScaleDecision::Grow(3));
        // A single hot tick interleaved with recovery never fires.
        let ok = PoolSnapshot {
            buckets: 5,
            idle: 2,
            queue_depth: 0,
            p99_wait: Duration::from_millis(1),
        };
        assert_eq!(a.decide(&hot), ScaleDecision::Hold);
        assert_eq!(a.decide(&ok), ScaleDecision::Hold);
        assert_eq!(a.decide(&hot), ScaleDecision::Hold);
    }

    #[test]
    fn autoscaler_respects_bounds_and_shrinks_slowly() {
        let mut a = Autoscaler::new(AutoscaleConfig::new(2, 4, Duration::from_millis(50)));
        let hot = PoolSnapshot {
            buckets: 4,
            idle: 0,
            queue_depth: 100,
            p99_wait: Duration::from_secs(1),
        };
        // At the ceiling: never grows.
        for _ in 0..10 {
            assert_eq!(a.decide(&hot), ScaleDecision::Hold);
        }
        let cold = PoolSnapshot {
            buckets: 4,
            idle: 3,
            queue_depth: 0,
            p99_wait: Duration::ZERO,
        };
        // Shrink needs 2× the grow sustain.
        assert_eq!(a.decide(&cold), ScaleDecision::Hold);
        assert_eq!(a.decide(&cold), ScaleDecision::Hold);
        assert_eq!(a.decide(&cold), ScaleDecision::Hold);
        assert_eq!(a.decide(&cold), ScaleDecision::Shrink(1));
        // At the floor: never shrinks.
        let floor = PoolSnapshot {
            buckets: 2,
            idle: 2,
            queue_depth: 0,
            p99_wait: Duration::ZERO,
        };
        for _ in 0..10 {
            assert_eq!(a.decide(&floor), ScaleDecision::Hold);
        }
    }

    /// Wait up to 5 s for `cond`.
    fn eventually(mut cond: impl FnMut() -> bool) -> bool {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !cond() {
            if std::time::Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    #[test]
    fn controller_starts_at_min_and_holds_an_empty_pool() {
        let s: Scheduler<u32> = Scheduler::new();
        let (tx, rx) = crossbeam::channel::unbounded();
        let ctl = s.autoscale(
            AutoscaleConfig::new(2, 4, Duration::from_millis(4)),
            move |k| tx.send(k).unwrap(),
        );
        assert_eq!(s.pool_target(), Some(2));
        // No backlog and no idle bucket: neither hot nor cold.
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
        drop(ctl);
        assert_eq!(s.pool_target(), Some(2));
    }

    #[test]
    fn controller_grows_a_backlogged_pool_through_the_callback() {
        let s: Scheduler<u32> = Scheduler::new();
        // Registered but never parked: busy, so nobody is idle.
        let _busy = s.register_bucket(0);
        s.submit(1);
        s.submit(2);
        let (tx, rx) = crossbeam::channel::unbounded();
        let _ctl = s.autoscale(
            AutoscaleConfig::new(1, 4, Duration::from_millis(20)),
            move |k| tx.send(k).unwrap(),
        );
        let k = rx.recv_timeout(Duration::from_secs(5)).expect("grow");
        assert_eq!(k, 2, "two queued tasks per live bucket");
        // The callback starts no worker here, so the pool stays one
        // bucket and every grow targets `1 + k`.
        assert!(eventually(|| s.pool_target() == Some(1 + k)));
    }

    #[test]
    fn controller_retires_an_idle_bucket_above_min() {
        let s: Scheduler<u32> = Scheduler::new();
        let (leases, lease_rx) = crossbeam::channel::unbounded();
        let parked: Vec<_> = (0..3)
            .map(|id| {
                let bucket = s.register_bucket(id);
                let leases = leases.clone();
                std::thread::spawn(move || leases.send(bucket.poll_task(None)).unwrap())
            })
            .collect();
        assert!(eventually(|| s.pool_snapshot().idle == 3));
        let ctl = s.autoscale(
            AutoscaleConfig::new(1, 4, Duration::from_millis(20)),
            |_| panic!("an idle pool must not grow"),
        );
        let lease = lease_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("lease");
        assert_eq!(lease, Lease::Retire);
        drop(ctl);
        s.close();
        for t in parked {
            t.join().unwrap();
        }
    }

    #[test]
    fn dropping_the_controller_joins_and_stops_the_callback() {
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        let s: Scheduler<u32> = Scheduler::new();
        let _busy = s.register_bucket(0);
        s.submit(1);
        let calls = std::sync::Arc::new(AtomicUsize::new(0));
        let slo = Duration::from_millis(400);
        let tick = slo / 4;
        let counter = std::sync::Arc::clone(&calls);
        let ctl = s.autoscale(AutoscaleConfig::new(1, 8, slo), move |_| {
            counter.fetch_add(1, SeqCst);
        });
        assert!(eventually(|| calls.load(SeqCst) > 0));
        let t = std::time::Instant::now();
        drop(ctl);
        assert!(t.elapsed() < 3 * tick, "drop took {:?}", t.elapsed());
        let after = calls.load(SeqCst);
        std::thread::sleep(3 * tick);
        assert_eq!(calls.load(SeqCst), after);
    }

    #[test]
    fn pool_take_for_fcfs_matches_pop_front_order() {
        let mut pool: BucketPool<u32> = BucketPool::new();
        let chans: Vec<_> = (0..3)
            .map(|i| {
                let (tx, rx) = crossbeam::channel::bounded(1);
                pool.park(i, tx);
                rx
            })
            .collect();
        for want in 0..3u32 {
            let (id, _tx, saved) = pool.take_for(None).unwrap();
            assert_eq!(id, want);
            assert_eq!(saved, 0);
        }
        assert!(pool.take_for(None).is_none());
        drop(chans);
    }

    #[test]
    fn pool_take_for_prefers_the_heaviest_location() {
        let mut pool: BucketPool<u32> = BucketPool::new();
        let park_all = |pool: &mut BucketPool<u32>, ids: &[BucketId]| -> Vec<_> {
            ids.iter()
                .map(|&id| {
                    let (tx, rx) = crossbeam::channel::bounded(1);
                    pool.park(id, tx);
                    rx
                })
                .collect()
        };
        for (id, loc) in [(0, "m0"), (1, "m1"), (2, "m2")] {
            pool.set_location(id, Some(loc.to_string()));
        }
        let _rxs = park_all(&mut pool, &[0, 1, 2, 7]);
        let mut hint = ResidencyHint::default();
        hint.add("m1", 300);
        hint.add("m2", 900);
        hint.add("m0", 100);
        let (id, _, saved) = pool.take_for(Some(&hint)).unwrap();
        assert_eq!((id, saved), (2, 900));
        // Ties keep FCFS order among equals.
        let tie = ResidencyHint {
            bytes_at: vec![("m1".into(), 500), ("m0".into(), 500)],
        };
        let (id, _, saved) = pool.take_for(Some(&tie)).unwrap();
        assert_eq!((id, saved), (0, 500));
        // A hint naming no parked bucket's location, or no hint at
        // all: the head of the list, nothing saved.
        let (id, _, saved) = pool
            .take_for(Some(&ResidencyHint::single("m9", 64)))
            .unwrap();
        assert_eq!((id, saved), (1, 0));
        let _more = park_all(&mut pool, &[2]);
        // Unlocated bucket 7 is the head; located bucket 2 behind it
        // wins on its bytes.
        let (id, _, saved) = pool.take_for(Some(&hint)).unwrap();
        assert_eq!((id, saved), (2, 900));
        let (id, _, saved) = pool.take_for(None).unwrap();
        assert_eq!((id, saved), (7, 0));
    }

    #[test]
    fn pool_drain_lifecycle_idle_and_busy() {
        let mut pool: BucketPool<u32> = BucketPool::new();
        let (tx, rx) = crossbeam::channel::bounded(1);
        pool.park(7, tx);
        assert_eq!(pool.meta[&7].state, BucketState::Idle);
        // Draining a parked bucket removes it from the free list and
        // drops its sender, waking the parked lease request empty.
        assert!(pool.begin_drain(7));
        assert!(!pool.has_parked());
        assert!(rx.recv().is_err());
        assert!(pool.take_retirement(7));
        assert_eq!(pool.meta[&7].state, BucketState::Retired);
        // Busy bucket: drains on its next lease request.
        pool.note_busy(9);
        assert!(pool.begin_drain(9));
        assert_eq!(pool.meta[&9].state, BucketState::Draining);
        assert!(pool.take_retirement(9));
        // Retirement is idempotent; draining an already-retired bucket
        // is a no-op.
        assert!(pool.take_retirement(9));
        assert!(!pool.begin_drain(9));
        assert_eq!(pool.active_len(), 0);
    }

    #[test]
    fn pool_drain_one_prefers_the_most_recently_parked() {
        let mut pool: BucketPool<u32> = BucketPool::new();
        let rxs: Vec<_> = (0..3)
            .map(|i| {
                let (tx, rx) = crossbeam::channel::bounded(1);
                pool.park(i, tx);
                rx
            })
            .collect();
        assert_eq!(pool.drain_one(), Some(2));
        assert_eq!(pool.parked_len(), 2);
        // The head of the FCFS list is untouched.
        let (id, _, _) = pool.take_for(None).unwrap();
        assert_eq!(id, 0);
        drop(rxs);
    }
}
