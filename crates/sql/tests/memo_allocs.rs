//! What the UDF memo cache allocates.
//!
//! The cache's budget is an honest one: every entry is charged at least
//! the bytes it really occupies, so a cache filled to its budget holds no
//! more live memory than that (the bound checked here leaves 25 % for the
//! allocator-independent slack of a doubling `Vec`), and a hit — the
//! operation a cache exists for — relinks a few integers and allocates
//! nothing. Before the cache was one slab with an intrusive recency list,
//! an entry was charged 88 bytes and occupied about 280, and every hit
//! copied its key and rebalanced a B-tree.

use jaguar_common::Value;
use jaguar_sql::memo::MemoCache;

#[path = "../../../tests/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, live_bytes};

/// Keys of `len` bytes after the `"f\0"` prefix a real key carries.
fn keys(n: usize, len: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            let mut k = b"f\0".to_vec();
            k.extend((0..len).map(|j| (i >> (8 * (j % 4))) as u8));
            k
        })
        .collect()
}

#[test]
fn a_full_cache_holds_no_more_live_bytes_than_its_budget_allows() {
    for (budget, key_len, result_len) in [
        (1usize << 20, 22, 0), // the size of an `lb(tag)` entry
        (1 << 20, 200, 64),
        (64 << 10, 8, 0),
        (64 << 10, 1_000, 3_000),
    ] {
        // Three budgets' worth of distinct keys: the cache fills, then
        // evicts on every insert.
        let keys = keys(3 * budget / (key_len + result_len + 64), key_len);
        let result = |i: usize| match result_len {
            0 => Value::Int(i as i64),
            n => Value::Str("r".repeat(n)),
        };
        let base = live_bytes();
        let cache = MemoCache::new(budget);
        let mut peak = 0;
        for (i, key) in keys.iter().enumerate() {
            cache.insert(&key[..], result(i));
            peak = peak.max(live_bytes() - base);
            assert!(cache.bytes() <= budget);
        }
        let live = live_bytes() - base;
        let limit = (budget + budget / 4) as i64;
        assert!(
            peak <= limit && live <= cache.bytes() as i64,
            "budget {budget}, {key_len}-byte keys: {live} live bytes (peak {peak}) \
             for {} accounted, {} entries",
            cache.bytes(),
            cache.len()
        );
        assert!(cache.len() < keys.len(), "the fill must have evicted");
        // Dropping the cache hands all of its memory back.
        drop(cache);
        assert!(live_bytes() - base < 1_024, "{}", live_bytes() - base);
    }
}

#[test]
fn a_hit_allocates_nothing() {
    let cache = MemoCache::new(1 << 20);
    let keys = keys(1_000, 22);
    for (i, key) in keys.iter().enumerate() {
        cache.insert(&key[..], Value::Int(i as i64));
    }
    let (allocs, hits) = allocations(|| {
        let mut hits = 0u64;
        for i in 0..100_000usize {
            let at = (i * 7) % keys.len();
            hits += u64::from(cache.get(&keys[at]) == Some(Value::Int(at as i64)));
        }
        hits
    });
    assert_eq!((allocs, hits), (0, 100_000));
}
