//! Deterministic UDF result memoization: an arg-bytes → result LRU
//! cache with a hard byte budget.
//!
//! Safety argument (see DESIGN.md §13): only `Volatility::Immutable`
//! UDFs are consulted here. Immutable promises the same arguments
//! produce the same result *forever*, so a cached result is valid
//! across statements, engines, and backends — which is also why the
//! key does not include the trust design: all four designs are
//! byte-identical by contract, so a hit produced under `Vm` may serve
//! a query running `IsolatedVm`. Errors are never cached (a trap is
//! re-raised by re-invoking, keeping error text and breaker accounting
//! on the normal path).
//!
//! Layout: one slab of slots. A slot holds the only copy of its key, the
//! result, and three indices — the next slot of its hash chain and its two
//! neighbours in the recency list — so a hit relinks a few integers under
//! the mutex and allocates nothing. Keys come from outside the program (they
//! are UDF arguments), so they are hashed with a per-cache random SipHash.
//!
//! Budget accounting charges each entry its key bytes + the result's
//! heap footprint + `ENTRY_OVERHEAD`, which is derived from the slot
//! layout so that the accounted size is an upper bound on the bytes the
//! entry really occupies, and evicts least-recently-used entries until the
//! total fits. An entry larger than the whole budget is simply not admitted
//! (it would otherwise flush the entire cache for one unlikely-to-repeat
//! value).
//!
//! Metrics: `opt.memo.{hits,misses,evictions}` counters and an
//! `opt.memo.bytes` gauge in the process-wide registry.

use std::collections::hash_map::RandomState;
#[cfg(test)]
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::mem::size_of;
use std::sync::Arc;

use jaguar_common::obs::{self, Counter, Gauge};
use jaguar_common::stream::write_value;
use jaguar_common::Value;
use parking_lot::Mutex;

/// Per-entry bytes charged on top of the key and the result: the slot and
/// its share of the bucket array — both twice, because a growing `Vec` may
/// hold double what it uses — plus the allocator's header on the key's own
/// heap chunk. A flood of tiny entries therefore cannot blow past the
/// budget, in accounted or in real bytes.
const ENTRY_OVERHEAD: usize = 2 * (size_of::<Slot>() + size_of::<u32>()) + 16;

/// "No slot": the end of a chain or of the recency list.
const NIL: u32 = u32::MAX;

struct Slot {
    key: Box<[u8]>,
    value: Value,
    hash: u64,
    /// Next slot in the same hash bucket (or, for a vacant slot, the next
    /// vacant one).
    chain: u32,
    /// Recency-list neighbours.
    newer: u32,
    older: u32,
}

impl Slot {
    fn cost(&self) -> usize {
        self.key.len() + self.value.heap_size() + ENTRY_OVERHEAD
    }
}

struct Inner {
    slots: Vec<Slot>,
    /// Head of each hash chain; the length is zero or a power of two.
    buckets: Vec<u32>,
    /// Vacant slots, chained through `Slot::chain`.
    vacant: u32,
    newest: u32,
    oldest: u32,
    len: usize,
    bytes: usize,
}

impl Default for Inner {
    fn default() -> Inner {
        Inner {
            slots: Vec::new(),
            buckets: Vec::new(),
            vacant: NIL,
            newest: NIL,
            oldest: NIL,
            len: 0,
            bytes: 0,
        }
    }
}

impl Inner {
    fn bucket(&self, hash: u64) -> usize {
        hash as usize & (self.buckets.len() - 1)
    }

    fn find(&self, key: &[u8], hash: u64) -> Option<u32> {
        if self.buckets.is_empty() {
            return None;
        }
        let mut at = self.buckets[self.bucket(hash)];
        while at != NIL {
            let slot = &self.slots[at as usize];
            if slot.hash == hash && *slot.key == *key {
                return Some(at);
            }
            at = slot.chain;
        }
        None
    }

    /// Take `at` out of the recency list.
    fn unlink(&mut self, at: u32) {
        let (newer, older) = (self.slots[at as usize].newer, self.slots[at as usize].older);
        match newer {
            NIL => self.newest = older,
            n => self.slots[n as usize].older = older,
        }
        match older {
            NIL => self.oldest = newer,
            o => self.slots[o as usize].newer = newer,
        }
    }

    /// Put `at` at the recent end of the recency list.
    fn link_newest(&mut self, at: u32) {
        let was = std::mem::replace(&mut self.newest, at);
        self.slots[at as usize].newer = NIL;
        self.slots[at as usize].older = was;
        match was {
            NIL => self.oldest = at,
            w => self.slots[w as usize].newer = at,
        }
    }

    /// Double the bucket array once every chain would average above one
    /// slot, relinking the slots (no key is touched).
    fn grow_buckets(&mut self) {
        if self.len < self.buckets.len() {
            return;
        }
        self.buckets = vec![NIL; (self.buckets.len() * 2).max(16)];
        let mut at = self.newest;
        while at != NIL {
            let b = self.bucket(self.slots[at as usize].hash);
            self.slots[at as usize].chain = std::mem::replace(&mut self.buckets[b], at);
            at = self.slots[at as usize].older;
        }
    }

    fn push(&mut self, key: Box<[u8]>, value: Value, hash: u64) {
        self.grow_buckets();
        let b = self.bucket(hash);
        let slot = Slot {
            key,
            value,
            hash,
            chain: self.buckets[b],
            newer: NIL,
            older: NIL,
        };
        self.bytes += slot.cost();
        self.len += 1;
        let at = match self.vacant {
            NIL => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
            v => {
                self.vacant = self.slots[v as usize].chain;
                self.slots[v as usize] = slot;
                v
            }
        };
        self.buckets[b] = at;
        self.link_newest(at);
    }

    fn remove(&mut self, at: u32) {
        self.unlink(at);
        let b = self.bucket(self.slots[at as usize].hash);
        let next = self.slots[at as usize].chain;
        if self.buckets[b] == at {
            self.buckets[b] = next;
        } else {
            let mut prev = self.buckets[b];
            while self.slots[prev as usize].chain != at {
                prev = self.slots[prev as usize].chain;
            }
            self.slots[prev as usize].chain = next;
        }
        self.bytes -= self.slots[at as usize].cost();
        self.len -= 1;
        let slot = &mut self.slots[at as usize];
        (slot.key, slot.value) = (Box::default(), Value::Null);
        slot.chain = std::mem::replace(&mut self.vacant, at);
    }
}

/// The shared memo cache. One per engine, wired through every
/// execution context (serial, parallel workers, DML).
pub struct MemoCache {
    inner: Mutex<Inner>,
    hasher: RandomState,
    budget: usize,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    bytes_gauge: Arc<Gauge>,
}

impl MemoCache {
    /// Create a cache with the given byte budget (`Config::udf_memo_bytes`).
    pub fn new(budget: usize) -> MemoCache {
        let reg = obs::global();
        MemoCache {
            inner: Mutex::new(Inner::default()),
            hasher: RandomState::new(),
            budget,
            hits: reg.counter("opt.memo.hits"),
            misses: reg.counter("opt.memo.misses"),
            evictions: reg.counter("opt.memo.evictions"),
            bytes_gauge: reg.gauge("opt.memo.bytes"),
        }
    }

    /// Build the cache key for one invocation: the UDF name plus each
    /// argument in the tagged wire serialization (self-delimiting, so
    /// concatenation is unambiguous).
    pub fn key(udf_name: &str, args: &[Value]) -> Vec<u8> {
        let mut k = Vec::with_capacity(udf_name.len() + 1 + args.len() * 12);
        k.extend_from_slice(udf_name.as_bytes());
        k.push(0);
        for a in args {
            write_value(&mut k, a).expect("writing to a Vec cannot fail");
        }
        k
    }

    /// Look up a prior result, refreshing its recency on a hit.
    pub fn get(&self, key: &[u8]) -> Option<Value> {
        let hash = self.hasher.hash_one(key);
        let mut inner = self.inner.lock();
        let hit = inner.find(key, hash).map(|at| {
            inner.unlink(at);
            inner.link_newest(at);
            inner.slots[at as usize].value.clone()
        });
        drop(inner);
        match &hit {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        hit
    }

    /// Record a freshly computed result, evicting LRU entries as needed
    /// to stay within the byte budget.
    pub fn insert(&self, key: impl AsRef<[u8]> + Into<Box<[u8]>>, value: Value) {
        let cost = key.as_ref().len() + value.heap_size() + ENTRY_OVERHEAD;
        if cost > self.budget {
            return;
        }
        let hash = self.hasher.hash_one(key.as_ref());
        let mut inner = self.inner.lock();
        if let Some(old) = inner.find(key.as_ref(), hash) {
            inner.remove(old);
        }
        inner.push(key.into(), value, hash);
        let mut evicted = 0u64;
        while inner.bytes > self.budget {
            let oldest = inner.oldest;
            inner.remove(oldest);
            evicted += 1;
        }
        let bytes_now = inner.bytes;
        drop(inner);
        if evicted > 0 {
            self.evictions.add(evicted);
        }
        self.bytes_gauge.set(bytes_now as i64);
    }

    /// Current resident bytes (for tests and plan notes).
    pub fn bytes(&self) -> usize {
        self.inner.lock().bytes
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.inner.lock().len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Drop every entry — and the slab and bucket array with them —
    /// returning the bytes reclaimed. The overload path uses this to hand
    /// memoization memory back when the server is saturated; the cache
    /// refills naturally once pressure drains.
    pub fn clear(&self) -> usize {
        let dropped = std::mem::take(&mut *self.inner.lock());
        if dropped.len > 0 {
            self.evictions.add(dropped.len as u64);
        }
        self.bytes_gauge.set(0);
        dropped.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaguar_common::ByteArray;
    use proptest::prelude::*;

    #[test]
    fn hit_after_insert_and_distinct_keys() {
        let c = MemoCache::new(1 << 16);
        let k1 = MemoCache::key("f", &[Value::Int(1)]);
        let k2 = MemoCache::key("f", &[Value::Int(2)]);
        let kg = MemoCache::key("g", &[Value::Int(1)]);
        assert!(c.get(&k1).is_none());
        c.insert(k1.clone(), Value::Int(10));
        assert_eq!(c.get(&k1), Some(Value::Int(10)));
        assert!(c.get(&k2).is_none(), "different args, different key");
        assert!(c.get(&kg).is_none(), "different udf, different key");
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        // Budget fits roughly 3 small entries.
        let c = MemoCache::new(3 * (ENTRY_OVERHEAD + 16));
        let keys: Vec<Vec<u8>> = (0..4)
            .map(|i| MemoCache::key("f", &[Value::Int(i)]))
            .collect();
        for (i, k) in keys.iter().take(3).enumerate() {
            c.insert(k.clone(), Value::Int(i as i64));
        }
        // Touch key 0 so key 1 is now the LRU victim.
        assert!(c.get(&keys[0]).is_some());
        c.insert(keys[3].clone(), Value::Int(3));
        assert!(c.bytes() <= c.budget());
        assert!(c.get(&keys[1]).is_none(), "LRU entry evicted");
        assert!(c.get(&keys[0]).is_some(), "recently used entry survives");
    }

    #[test]
    fn oversized_entry_not_admitted() {
        let c = MemoCache::new(128);
        let k = MemoCache::key("f", &[Value::Int(1)]);
        c.insert(k.clone(), Value::Bytes(ByteArray::zeroed(4096)));
        assert!(c.get(&k).is_none());
        assert_eq!(c.bytes(), 0);
    }

    proptest! {
        /// The cache never returns a wrong value and never exceeds its
        /// byte budget, under random insert/get/overwrite sequences.
        #[test]
        fn never_wrong_never_over_budget(ops in proptest::collection::vec((0u8..3, 0i64..32, -1000i64..1000), 1..200)) {
            let budget = 6 * (ENTRY_OVERHEAD + 16);
            let c = MemoCache::new(budget);
            let mut model: HashMap<Vec<u8>, Value> = HashMap::new();
            for (op, karg, varg) in ops {
                let key = MemoCache::key("p", &[Value::Int(karg)]);
                match op {
                    0 => {
                        let v = Value::Int(varg);
                        c.insert(key.clone(), v.clone());
                        model.insert(key, v);
                    }
                    _ => {
                        if let Some(got) = c.get(&key) {
                            prop_assert_eq!(Some(&got), model.get(&key), "stale or wrong value");
                        }
                    }
                }
                prop_assert!(c.bytes() <= budget, "{} > {}", c.bytes(), budget);
            }
        }
    }
}
