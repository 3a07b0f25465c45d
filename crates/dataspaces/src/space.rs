//! The versioned, bbox-indexed shared space, sharded over servers.

use crate::codec::WireError;
use crate::tenant::tenant_of_var;
use bytes::Bytes;
use parking_lot::{Condvar, Mutex, RwLock};
use serde::{Deserialize, Serialize};
use sitra_mesh::{BBox3, ScalarField};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// Metadata of one stored object.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjectMeta {
    /// Variable name.
    pub var: String,
    /// Version (timestep).
    pub version: u64,
    /// Region covered.
    pub bbox: BBox3,
}

struct Stored {
    bbox: BBox3,
    data: Bytes,
}

/// One server shard: a map from `(var, version)` to the objects stored
/// under it.
#[derive(Default)]
struct Server {
    objects: RwLock<HashMap<(String, u64), Vec<Stored>>>,
}

/// Per-space counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpaceStats {
    /// Objects stored per server (RPC balance diagnostic).
    pub objects_per_server: Vec<u64>,
    /// Total bytes resident.
    pub resident_bytes: u64,
}

/// A [`DataSpaces::put_quota`] was refused: admitting the object would
/// push the tenant past its resident-byte quota.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuotaExceeded {
    /// The tenant that was refused.
    pub tenant: String,
    /// Its byte quota.
    pub quota: u64,
    /// Bytes resident when the put arrived.
    pub used: u64,
    /// Size of the refused object.
    pub requested: u64,
}

impl std::fmt::Display for QuotaExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tenant `{}` byte quota exceeded: {} resident + {} requested > {} quota",
            self.tenant, self.used, self.requested, self.quota
        )
    }
}

/// One tenant's resident-byte account.
struct TenantBytes {
    quota: Option<u64>,
    used: i64,
    gauge: sitra_obs::Gauge,
}

/// Per-tenant resident-byte ledger, keyed by the tenant prefix of each
/// stored variable name. Kept in its own lock, taken only briefly and
/// never while a shard lock is held (and vice versa): reservation is
/// check-and-add *before* the store, so a racing put may be refused
/// conservatively but resident bytes can never exceed the quota.
#[derive(Default)]
struct TenantLedger {
    by_name: Mutex<HashMap<String, TenantBytes>>,
}

impl TenantLedger {
    fn with<R>(&self, tenant: &str, f: impl FnOnce(&mut TenantBytes) -> R) -> R {
        let mut g = self.by_name.lock();
        let e = g.entry(tenant.to_string()).or_insert_with(|| TenantBytes {
            quota: None,
            used: 0,
            gauge: sitra_obs::global()
                .gauge(&format!("space.tenant.resident_bytes{{tenant={tenant}}}")),
        });
        f(e)
    }

    fn add(&self, tenant: &str, delta: i64) {
        self.with(tenant, |e| {
            e.used += delta;
            e.gauge.set(e.used);
        });
    }

    /// Check-and-reserve `delta` net bytes (`requested` is the object
    /// size, reported on refusal); `Err` carries the refusal detail. A
    /// non-positive delta (a replace that shrinks) always succeeds.
    fn reserve(&self, tenant: &str, delta: i64, requested: u64) -> Result<(), QuotaExceeded> {
        self.with(tenant, |e| {
            if delta > 0 {
                if let Some(quota) = e.quota {
                    if e.used.max(0) + delta > quota as i64 {
                        return Err(QuotaExceeded {
                            tenant: tenant.to_string(),
                            quota,
                            used: e.used.max(0) as u64,
                            requested,
                        });
                    }
                }
            }
            e.used += delta;
            e.gauge.set(e.used);
            Ok(())
        })
    }
}

/// Live observability handles for one space, resolved once at
/// construction: per-shard put latency (`space.shard.put_ns{shard=i}`),
/// whole-query get latency (`space.get_ns`), and residency gauges.
struct SpaceObs {
    put_ns: Vec<sitra_obs::Histogram>,
    get_ns: sitra_obs::Histogram,
    resident_bytes: sitra_obs::Gauge,
    objects: sitra_obs::Gauge,
}

impl SpaceObs {
    fn resolve(shards: usize) -> Self {
        let reg = sitra_obs::global();
        SpaceObs {
            put_ns: (0..shards)
                .map(|i| reg.histogram(&format!("space.shard.put_ns{{shard={i}}}")))
                .collect(),
            get_ns: reg.histogram("space.get_ns"),
            resident_bytes: reg.gauge("space.resident_bytes"),
            objects: reg.gauge("space.objects"),
        }
    }
}

/// The shared space: `n` server shards addressed by hashing, exactly as
/// the paper describes ("the hashing used to balance the RPC messages
/// over multiple DataSpaces servers").
pub struct DataSpaces {
    servers: Vec<Server>,
    obs: SpaceObs,
    tenants: TenantLedger,
    /// The `(var, version)` of every [`Self::get_wait`] caller parked on
    /// `arrived`. Every store takes this lock after its shard write, so
    /// a waiter that checked the space under it either saw the object
    /// or is notified; a store nobody waits for skips the notify.
    waiters: Mutex<Vec<(String, u64)>>,
    arrived: Condvar,
}

impl DataSpaces {
    /// Bring up a space with `servers` shards.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "need at least one server");
        Self {
            servers: (0..servers).map(|_| Server::default()).collect(),
            obs: SpaceObs::resolve(servers),
            tenants: TenantLedger::default(),
            waiters: Mutex::new(Vec::new()),
            arrived: Condvar::new(),
        }
    }

    /// Bound (or unbound, with `None`) the bytes `tenant` may keep
    /// resident. Applies to future [`Self::put_quota`] calls; already
    /// resident bytes are never evicted by a quota change.
    pub fn set_tenant_byte_quota(&self, tenant: &str, quota: Option<u64>) {
        self.tenants.with(tenant, |e| e.quota = quota);
    }

    /// Per-tenant residency snapshot: `(tenant, resident_bytes, quota)`
    /// in tenant-name order.
    pub fn tenant_usage(&self) -> Vec<(String, u64, Option<u64>)> {
        let g = self.tenants.by_name.lock();
        let mut out: Vec<_> = g
            .iter()
            .map(|(name, e)| (name.clone(), e.used.max(0) as u64, e.quota))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The shard responsible for an object: hash of name, version, and
    /// the region's lower corner (so different blocks of the same
    /// timestep spread over servers).
    fn shard(&self, var: &str, version: u64, bbox: &BBox3) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        var.hash(&mut h);
        version.hash(&mut h);
        bbox.lo.hash(&mut h);
        (h.finish() % self.servers.len() as u64) as usize
    }

    /// Store an object. Returns the shard index it landed on.
    ///
    /// Idempotent per `(var, version, bbox)`: a re-put of the same
    /// region replaces the stored piece instead of appending a
    /// duplicate. The transport delivers at-least-once (a retried or
    /// duplicated `Put` frame executes twice on the server), and
    /// consumers that stream pieces into order-sensitive aggregators
    /// must never see the same block twice.
    pub fn put(&self, var: &str, version: u64, bbox: BBox3, data: Bytes) -> usize {
        let len = data.len() as i64;
        let (s, replaced) = self.store(var, version, bbox, data);
        self.tenants
            .add(tenant_of_var(var).0, len - replaced.unwrap_or(0));
        s
    }

    /// Store an object with the tenant's resident-byte quota enforced:
    /// the tenant is parsed off the variable-name prefix and the put is
    /// refused if admitting it would exceed the quota. This is the verb
    /// the remote server applies to every client put; producers turn the
    /// refusal into in-situ degradation, same as a shed task.
    pub fn put_quota(
        &self,
        var: &str,
        version: u64,
        bbox: BBox3,
        data: Bytes,
    ) -> Result<usize, QuotaExceeded> {
        let tenant = tenant_of_var(var).0.to_string();
        let len = data.len() as i64;
        // An at-least-once redelivery replaces the stored piece, so only
        // the *net* growth counts against the quota — peek the existing
        // piece's size first, and square up against the actual replaced
        // size after the store (a racing same-region put may change it).
        let s = self.shard(var, version, &bbox);
        let old_peek = {
            let guard = self.servers[s].objects.read();
            guard
                .get(&(var.to_string(), version))
                .and_then(|objs| objs.iter().find(|o| o.bbox == bbox))
                .map(|o| o.data.len() as i64)
        };
        if let Err(e) = self
            .tenants
            .reserve(&tenant, len - old_peek.unwrap_or(0), len as u64)
        {
            sitra_obs::emit(
                "space",
                "tenant.quota_reject",
                &[
                    ("tenant", tenant.clone()),
                    ("requested", len.to_string()),
                    ("quota", e.quota.to_string()),
                ],
            );
            return Err(e);
        }
        let (s2, replaced) = self.store(var, version, bbox, data);
        debug_assert_eq!(s, s2);
        let adjust = old_peek.unwrap_or(0) - replaced.unwrap_or(0);
        if adjust != 0 {
            self.tenants.add(&tenant, adjust);
        }
        Ok(s2)
    }

    /// The storage core shared by [`Self::put`] and [`Self::put_quota`]:
    /// returns the shard and, when the piece replaced an existing one,
    /// the replaced length. No tenant-ledger accounting happens here.
    fn store(&self, var: &str, version: u64, bbox: BBox3, data: Bytes) -> (usize, Option<i64>) {
        let s = self.shard(var, version, &bbox);
        let len = data.len() as i64;
        let t0 = std::time::Instant::now();
        let replaced = {
            let mut guard = self.servers[s].objects.write();
            let objs = guard.entry((var.to_string(), version)).or_default();
            match objs.iter_mut().find(|o| o.bbox == bbox) {
                Some(o) => {
                    let old = o.data.len() as i64;
                    o.data = data;
                    Some(old)
                }
                None => {
                    objs.push(Stored { bbox, data });
                    None
                }
            }
        };
        self.obs.put_ns[s].observe(t0.elapsed());
        if self
            .waiters
            .lock()
            .iter()
            .any(|(v, ver)| v == var && *ver == version)
        {
            self.arrived.notify_all();
        }
        match replaced {
            Some(old) => self.obs.resident_bytes.add(len - old),
            None => {
                self.obs.resident_bytes.add(len);
                self.obs.objects.add(1);
            }
        }
        (s, replaced)
    }

    /// Store a field (serializing its values).
    pub fn put_field(&self, var: &str, version: u64, field: &ScalarField) -> usize {
        self.put(
            var,
            version,
            field.bbox(),
            crate::codec::field_to_bytes(field),
        )
    }

    /// Spatial query: every stored piece of `(var, version)` intersecting
    /// `query`, clipped metadata included. Pieces are returned whole (the
    /// caller clips during assembly), matching the RDMA-pull model where
    /// the consumer reads whole exported blocks.
    pub fn get(&self, var: &str, version: u64, query: &BBox3) -> Vec<(BBox3, Bytes)> {
        let t0 = std::time::Instant::now();
        let key = (var.to_string(), version);
        let mut out = Vec::new();
        for server in &self.servers {
            let guard = server.objects.read();
            if let Some(objs) = guard.get(&key) {
                for o in objs {
                    if o.bbox.intersect(query).is_some() {
                        out.push((o.bbox, o.data.clone()));
                    }
                }
            }
        }
        // Deterministic order regardless of sharding.
        out.sort_by_key(|(b, _)| b.lo);
        self.obs.get_ns.observe(t0.elapsed());
        out
    }

    /// Data-ready read: [`Self::get`], blocking until at least one piece
    /// of `(var, version)` intersects `query` or `timeout` lapses (then
    /// empty). Woken by the store itself, never by a timer: a waiter
    /// sleeps on a condvar that every put to its `(var, version)`
    /// signals. Eviction does not end the wait — an evicted version can
    /// be put again.
    pub fn get_wait(
        &self,
        var: &str,
        version: u64,
        query: &BBox3,
        timeout: Duration,
    ) -> Vec<(BBox3, Bytes)> {
        let deadline = Instant::now() + timeout;
        let mut waiters = self.waiters.lock();
        waiters.push((var.to_string(), version));
        let pieces = loop {
            let pieces = self.get(var, version, query);
            let left = deadline.saturating_duration_since(Instant::now());
            if !pieces.is_empty() || left.is_zero() {
                break pieces;
            }
            self.arrived.wait_for(&mut waiters, left);
        };
        let me = waiters
            .iter()
            .position(|(v, ver)| v == var && *ver == version)
            .expect("registered above");
        waiters.swap_remove(me);
        pieces
    }

    /// Spatial query assembled into one field over `query`; uncovered
    /// points become `fill`. The space stores whatever bytes were put,
    /// so a piece that is not one `f64` per point of its box is an
    /// error ([`crate::codec::assemble`]).
    pub fn get_assembled(
        &self,
        var: &str,
        version: u64,
        query: &BBox3,
        fill: f64,
    ) -> Result<ScalarField, WireError> {
        crate::codec::assemble(query, &self.get(var, version, query), fill)
    }

    /// The highest version stored under `var`, if any (the "query
    /// version" RPC of the staging service: consumers discover the most
    /// recent timestep without polling specific versions).
    pub fn latest_version(&self, var: &str) -> Option<u64> {
        self.servers
            .iter()
            .flat_map(|s| {
                s.objects
                    .read()
                    .keys()
                    .filter(|(v, _)| v == var)
                    .map(|(_, ver)| *ver)
                    .collect::<Vec<_>>()
            })
            .max()
    }

    /// Drop every object of a version (staging memory reclamation once a
    /// timestep's analyses are done). See [`Self::evict_version_scoped`]
    /// for the tenant-restricted variant.
    pub fn evict_version(&self, version: u64) {
        self.evict_where(|_, v| v == version);
    }

    /// Drop every object of `version` belonging to `tenant` only — the
    /// eviction a tenant-bound connection performs, so one tenant
    /// finishing a timestep cannot reclaim a neighbour's pieces that
    /// happen to share the version number.
    pub fn evict_version_scoped(&self, tenant: &str, version: u64) {
        self.evict_where(|var, v| v == version && tenant_of_var(var).0 == tenant);
    }

    fn evict_where(&self, mut pred: impl FnMut(&str, u64) -> bool) {
        let mut freed_bytes = 0i64;
        let mut freed_objects = 0i64;
        let mut freed_by_tenant: HashMap<String, i64> = HashMap::new();
        for server in &self.servers {
            server.objects.write().retain(|(var, v), objs| {
                if pred(var, *v) {
                    let bytes: i64 = objs.iter().map(|o| o.data.len() as i64).sum();
                    freed_objects += objs.len() as i64;
                    freed_bytes += bytes;
                    *freed_by_tenant
                        .entry(tenant_of_var(var).0.to_string())
                        .or_default() += bytes;
                    false
                } else {
                    true
                }
            });
        }
        self.obs.resident_bytes.add(-freed_bytes);
        self.obs.objects.add(-freed_objects);
        for (tenant, bytes) in freed_by_tenant {
            self.tenants.add(&tenant, -bytes);
        }
    }

    /// Remove and return every object for which `disown` answers true,
    /// as `(var, version, bbox, data)` tuples. This is the shard-handoff
    /// primitive: when cluster membership changes, the losing member
    /// drains the pieces it no longer owns and re-puts them on the new
    /// owner. Gauges are adjusted as if each piece had been evicted.
    pub fn drain_matching<F>(&self, mut disown: F) -> Vec<(String, u64, BBox3, Bytes)>
    where
        F: FnMut(&str, u64, &BBox3) -> bool,
    {
        let mut out = Vec::new();
        let mut freed_bytes = 0i64;
        let mut freed_by_tenant: HashMap<String, i64> = HashMap::new();
        for server in &self.servers {
            let mut guard = server.objects.write();
            for ((var, version), objs) in guard.iter_mut() {
                let mut i = 0;
                while i < objs.len() {
                    if disown(var, *version, &objs[i].bbox) {
                        let o = objs.swap_remove(i);
                        freed_bytes += o.data.len() as i64;
                        *freed_by_tenant
                            .entry(tenant_of_var(var).0.to_string())
                            .or_default() += o.data.len() as i64;
                        out.push((var.clone(), *version, o.bbox, o.data));
                    } else {
                        i += 1;
                    }
                }
            }
            guard.retain(|_, objs| !objs.is_empty());
        }
        self.obs.resident_bytes.add(-freed_bytes);
        self.obs.objects.add(-(out.len() as i64));
        for (tenant, bytes) in freed_by_tenant {
            self.tenants.add(&tenant, -bytes);
        }
        // Deterministic handoff order regardless of map iteration.
        out.sort_by(|a, b| (&a.0, a.1, a.2.lo).cmp(&(&b.0, b.1, b.2.lo)));
        out
    }

    /// Current statistics.
    pub fn stats(&self) -> SpaceStats {
        let mut per = Vec::with_capacity(self.servers.len());
        let mut bytes = 0u64;
        for server in &self.servers {
            let guard = server.objects.read();
            let count: u64 = guard.values().map(|v| v.len() as u64).sum();
            bytes += guard
                .values()
                .flat_map(|v| v.iter().map(|o| o.data.len() as u64))
                .sum::<u64>();
            per.push(count);
        }
        SpaceStats {
            objects_per_server: per,
            resident_bytes: bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitra_mesh::Decomposition;

    fn coord_field(b: BBox3) -> ScalarField {
        ScalarField::from_fn(b, |p| (p[0] * 10_000 + p[1] * 100 + p[2]) as f64)
    }

    #[test]
    fn put_get_exact_union() {
        let ds = DataSpaces::new(4);
        let g = BBox3::from_dims([12, 8, 6]);
        let whole = coord_field(g);
        let d = Decomposition::new(g, [3, 2, 2]);
        for r in 0..d.rank_count() {
            ds.put_field("T", 7, &whole.extract(&d.block(r)));
        }
        // Any query assembles to exactly the source data.
        for q in [
            g,
            BBox3::new([2, 2, 2], [9, 6, 5]),
            BBox3::new([0, 0, 0], [1, 1, 1]),
        ] {
            let got = ds.get_assembled("T", 7, &q, f64::NAN).unwrap();
            assert_eq!(got, whole.extract(&q), "query {q:?}");
        }
    }

    #[test]
    fn reput_replaces_instead_of_appending() {
        // At-least-once delivery: a duplicated Put frame executes
        // twice. The second put must replace the piece, not append a
        // same-region duplicate that order-sensitive consumers (the
        // streaming merge-tree aggregation) would panic on.
        let ds = DataSpaces::new(2);
        let b = BBox3::from_dims([4, 4, 4]);
        ds.put_field("T", 1, &ScalarField::new_fill(b, 1.0));
        ds.put_field("T", 1, &ScalarField::new_fill(b, 2.0));
        let pieces = ds.get("T", 1, &b);
        assert_eq!(pieces.len(), 1, "re-put must not duplicate the piece");
        assert_eq!(
            ds.get_assembled("T", 1, &b, 0.0).unwrap().get([0, 0, 0]),
            2.0
        );
        let stats = ds.stats();
        assert_eq!(stats.objects_per_server.iter().sum::<u64>(), 1);
    }

    #[test]
    fn versions_are_isolated() {
        let ds = DataSpaces::new(2);
        let b = BBox3::from_dims([4, 4, 4]);
        ds.put_field("T", 1, &ScalarField::new_fill(b, 1.0));
        ds.put_field("T", 2, &ScalarField::new_fill(b, 2.0));
        assert_eq!(
            ds.get_assembled("T", 1, &b, 0.0).unwrap().get([0, 0, 0]),
            1.0
        );
        assert_eq!(
            ds.get_assembled("T", 2, &b, 0.0).unwrap().get([0, 0, 0]),
            2.0
        );
        assert!(ds.get("T", 3, &b).is_empty());
    }

    #[test]
    fn variables_are_isolated() {
        let ds = DataSpaces::new(2);
        let b = BBox3::from_dims([2, 2, 2]);
        ds.put_field("T", 1, &ScalarField::new_fill(b, 300.0));
        ds.put_field("P", 1, &ScalarField::new_fill(b, 1.0));
        assert_eq!(ds.get("T", 1, &b).len(), 1);
        assert_eq!(
            ds.get_assembled("P", 1, &b, 0.0).unwrap().get([1, 1, 1]),
            1.0
        );
    }

    #[test]
    fn get_assembled_refuses_a_piece_that_does_not_fill_its_box() {
        // The space stores opaque bytes: a short piece is an error for
        // the reader, not a panic.
        let ds = DataSpaces::new(1);
        let b = BBox3::from_dims([2, 2, 2]);
        ds.put("T", 1, b, Bytes::from_static(b"7 bytes"));
        assert!(ds.get_assembled("T", 1, &b, f64::NAN).is_err());
    }

    #[test]
    fn uncovered_regions_get_fill() {
        let ds = DataSpaces::new(2);
        let stored = BBox3::new([0, 0, 0], [2, 2, 2]);
        ds.put_field("T", 1, &ScalarField::new_fill(stored, 5.0));
        let q = BBox3::from_dims([4, 2, 2]);
        let f = ds.get_assembled("T", 1, &q, -1.0).unwrap();
        assert_eq!(f.get([1, 1, 1]), 5.0);
        assert_eq!(f.get([3, 1, 1]), -1.0);
    }

    #[test]
    fn disjoint_query_returns_nothing() {
        let ds = DataSpaces::new(2);
        ds.put_field(
            "T",
            1,
            &ScalarField::new_fill(BBox3::from_dims([2, 2, 2]), 1.0),
        );
        let far = BBox3::new([10, 10, 10], [12, 12, 12]);
        assert!(ds.get("T", 1, &far).is_empty());
    }

    #[test]
    fn hashing_balances_servers() {
        let ds = DataSpaces::new(8);
        let g = BBox3::from_dims([32, 32, 32]);
        let d = Decomposition::new(g, [4, 4, 4]); // 64 blocks
        let whole = coord_field(g);
        for v in 0..4u64 {
            for r in 0..d.rank_count() {
                ds.put_field("T", v, &whole.extract(&d.block(r)));
            }
        }
        let stats = ds.stats();
        let total: u64 = stats.objects_per_server.iter().sum();
        assert_eq!(total, 256);
        // No server holds more than 3x the fair share, none is empty.
        let fair = total / 8;
        for &c in &stats.objects_per_server {
            assert!(
                c > 0,
                "a server got nothing: {:?}",
                stats.objects_per_server
            );
            assert!(c <= 3 * fair, "imbalanced: {:?}", stats.objects_per_server);
        }
    }

    #[test]
    fn eviction_reclaims_memory() {
        let ds = DataSpaces::new(2);
        let b = BBox3::from_dims([8, 8, 8]);
        ds.put_field("T", 1, &ScalarField::new_fill(b, 1.0));
        ds.put_field("T", 2, &ScalarField::new_fill(b, 2.0));
        let before = ds.stats().resident_bytes;
        ds.evict_version(1);
        let after = ds.stats().resident_bytes;
        assert_eq!(after, before / 2);
        assert!(ds.get("T", 1, &b).is_empty());
        assert!(!ds.get("T", 2, &b).is_empty());
    }

    #[test]
    fn get_wait_returns_on_a_matching_put_and_empty_at_its_timeout() {
        let ds = DataSpaces::new(3);
        let b = BBox3::from_dims([2, 2, 2]);
        // Nothing ever arrives: empty, at the timeout and not before.
        let t0 = Instant::now();
        assert!(ds
            .get_wait("out", 1, &b, Duration::from_millis(30))
            .is_empty());
        assert!(t0.elapsed() >= Duration::from_millis(30));
        // Already there: no wait at all.
        ds.put("out", 1, b, Bytes::from_static(b"early"));
        assert_eq!(ds.get_wait("out", 1, &b, Duration::from_secs(30)).len(), 1);

        // Parked, then woken by the one put that matches. The writer
        // starts once the waiter is registered, so every put below is
        // a wake-up of a parked waiter (a put that raced ahead would
        // be found by the waiter's own look instead).
        std::thread::scope(|s| {
            let waiter = s.spawn(|| ds.get_wait("out", 2, &b, Duration::from_secs(30)));
            while ds.waiters.lock().is_empty() {
                std::thread::yield_now();
            }
            let far = BBox3::new([10, 10, 10], [11, 11, 11]);
            ds.put("other", 2, b, Bytes::from_static(b"wrong var"));
            ds.put("out", 3, b, Bytes::from_static(b"wrong version"));
            ds.put("out", 2, far, Bytes::from_static(b"wrong region"));
            assert!(!waiter.is_finished(), "a non-matching put ended the wait");
            ds.put("out", 2, b, Bytes::from_static(b"match"));
            let got = waiter.join().unwrap();
            assert_eq!(got, vec![(b, Bytes::from_static(b"match"))]);
        });
        assert!(t0.elapsed() < Duration::from_secs(10));
        assert!(ds.waiters.lock().is_empty());
    }

    #[test]
    fn get_wait_is_not_confused_by_eviction() {
        let ds = DataSpaces::new(2);
        let b = BBox3::from_dims([2, 2, 2]);
        // A version evicted before the wait does not satisfy it, and
        // evicting the awaited version under a parked waiter neither
        // ends the wait nor loses the put that follows.
        ds.put("out", 5, b, Bytes::from_static(b"stale"));
        ds.evict_version(5);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| ds.get_wait("out", 5, &b, Duration::from_secs(30)));
            while ds.waiters.lock().is_empty() {
                std::thread::yield_now();
            }
            ds.evict_version(5);
            ds.evict_version_scoped(crate::tenant::DEFAULT_TENANT, 5);
            assert!(!waiter.is_finished(), "an eviction ended the wait");
            ds.put("out", 5, b, Bytes::from_static(b"fresh"));
            assert_eq!(
                waiter.join().unwrap(),
                vec![(b, Bytes::from_static(b"fresh"))]
            );
        });
        // Evicting what a finished wait returned leaves no waiter behind.
        ds.evict_version(5);
        assert!(ds
            .get_wait("out", 5, &b, Duration::from_millis(10))
            .is_empty());
        assert!(ds.waiters.lock().is_empty());
    }

    #[test]
    fn drain_matching_extracts_exactly_the_disowned_pieces() {
        let ds = DataSpaces::new(4);
        let g = BBox3::from_dims([8, 4, 4]);
        let d = Decomposition::new(g, [2, 1, 1]);
        let whole = coord_field(g);
        for v in 1..=2u64 {
            for r in 0..d.rank_count() {
                ds.put_field("T", v, &whole.extract(&d.block(r)));
            }
        }
        let before = ds.stats();
        // Disown everything of version 1.
        let drained = ds.drain_matching(|_, version, _| version == 1);
        assert_eq!(drained.len(), 2);
        assert!(drained.iter().all(|(var, v, _, _)| var == "T" && *v == 1));
        // Deterministic order by (var, version, lo).
        assert!(drained.windows(2).all(|w| w[0].2.lo <= w[1].2.lo));
        assert!(ds.get("T", 1, &g).is_empty(), "disowned pieces are gone");
        assert_eq!(ds.get("T", 2, &g).len(), 2, "kept pieces are untouched");
        let after = ds.stats();
        assert_eq!(after.resident_bytes, before.resident_bytes / 2);
        // Re-putting the drained pieces restores the original contents.
        for (var, v, bbox, data) in drained {
            ds.put(&var, v, bbox, data);
        }
        assert_eq!(ds.get_assembled("T", 1, &g, f64::NAN).unwrap(), whole);
    }

    #[test]
    fn byte_quota_refuses_put_and_eviction_refunds() {
        use crate::tenant::scoped_var;
        let ds = DataSpaces::new(2);
        let b = BBox3::from_dims([4, 4, 4]); // 64 points = 512 bytes
        let var = scoped_var("small", "T");
        ds.set_tenant_byte_quota("small", Some(600));
        let f = ScalarField::new_fill(b, 1.0);
        let data = crate::codec::field_to_bytes(&f);
        assert!(ds.put_quota(&var, 1, b, data.clone()).is_ok());
        // A second version would exceed 600 bytes: refused, with detail.
        let err = ds.put_quota(&var, 2, b, data.clone()).unwrap_err();
        assert_eq!(err.tenant, "small");
        assert_eq!(err.quota, 600);
        assert!(ds.get(&var, 2, &b).is_empty(), "refused put stored nothing");
        // Another tenant (and the default) are unaffected.
        assert!(ds
            .put_quota(&scoped_var("big", "T"), 2, b, data.clone())
            .is_ok());
        assert!(ds.put_quota("T", 2, b, data.clone()).is_ok());
        // Evicting version 1 refunds small's bytes; the put now fits.
        ds.evict_version_scoped("small", 1);
        assert!(ds.put_quota(&var, 2, b, data.clone()).is_ok());
        let usage = ds.tenant_usage();
        let small = usage.iter().find(|(t, _, _)| t == "small").unwrap();
        assert_eq!((small.1, small.2), (data.len() as u64, Some(600)));
    }

    #[test]
    fn quota_replace_refunds_old_bytes() {
        use crate::tenant::scoped_var;
        let ds = DataSpaces::new(2);
        let b = BBox3::from_dims([4, 4, 4]);
        let var = scoped_var("t", "T");
        let f = ScalarField::new_fill(b, 1.0);
        let data = crate::codec::field_to_bytes(&f);
        ds.set_tenant_byte_quota("t", Some(data.len() as u64 + 8));
        assert!(ds.put_quota(&var, 1, b, data.clone()).is_ok());
        // Re-putting the same region replaces; usage must not double, so
        // repeated at-least-once deliveries keep fitting in the quota.
        for _ in 0..3 {
            assert!(ds.put_quota(&var, 1, b, data.clone()).is_ok());
        }
        let usage = ds.tenant_usage();
        assert_eq!(
            usage.iter().find(|(t, _, _)| t == "t").unwrap().1,
            data.len() as u64
        );
    }

    #[test]
    fn scoped_eviction_spares_other_tenants() {
        use crate::tenant::scoped_var;
        let ds = DataSpaces::new(2);
        let b = BBox3::from_dims([2, 2, 2]);
        let f = ScalarField::new_fill(b, 1.0);
        ds.put_field(&scoped_var("a", "T"), 1, &f);
        ds.put_field(&scoped_var("b", "T"), 1, &f);
        ds.put_field("T", 1, &f);
        ds.evict_version_scoped("a", 1);
        assert!(ds.get(&scoped_var("a", "T"), 1, &b).is_empty());
        assert_eq!(ds.get(&scoped_var("b", "T"), 1, &b).len(), 1);
        assert_eq!(ds.get("T", 1, &b).len(), 1, "default tenant untouched");
        // Unscoped eviction still reclaims across tenants.
        ds.evict_version(1);
        assert!(ds.get(&scoped_var("b", "T"), 1, &b).is_empty());
        assert!(ds.get("T", 1, &b).is_empty());
        for (_, used, _) in ds.tenant_usage() {
            assert_eq!(used, 0);
        }
    }

    #[test]
    fn concurrent_puts_and_gets() {
        let ds = std::sync::Arc::new(DataSpaces::new(4));
        let g = BBox3::from_dims([16, 16, 4]);
        let d = Decomposition::new(g, [4, 4, 1]);
        let whole = coord_field(g);
        std::thread::scope(|s| {
            for r in 0..d.rank_count() {
                let ds = &ds;
                let blk = whole.extract(&d.block(r));
                s.spawn(move || {
                    ds.put_field("T", 1, &blk);
                });
            }
        });
        assert_eq!(ds.get_assembled("T", 1, &g, f64::NAN).unwrap(), whole);
    }
}
