//! Allocation guard for the single-key ops: a node is a flat slab record,
//! so ripple inserts and `extract_min`s on a pre-sized pool make no heap
//! allocation per node. Only two vectors may grow, each by doubling: the
//! root array `H` and the slab's free list. That is `O(log n)` allocations
//! in all, where one allocation per linked node would be `Θ(n)`. The §4
//! lazy heap keeps the same node in its own slab, so its unmetered build is
//! bounded the same way (there the slab itself grows by doubling). A
//! counting global allocator sees every allocation this test's thread
//! makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use meldpq::lazy::LazyBinomialHeap;
use meldpq::HeapPool;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

#[test]
fn single_key_ops_allocate_only_root_array_growth() {
    for log_n in [10u32, 16] {
        let n = 1usize << log_n;
        let keys: Vec<i64> = (0..n as i64)
            .map(|i| (i * 2_654_435_761) % 100_003)
            .collect();
        let mut pool: HeapPool<i64> = HeapPool::with_capacity(n);
        let mut h = pool.new_heap();
        let before = allocs();
        for &k in &keys {
            pool.insert(&mut h, k);
        }
        let mut last = i64::MIN;
        for _ in 0..n / 2 {
            let k = pool.extract_min(&mut h).expect("heap holds n/2 keys");
            assert!(k >= last);
            last = k;
        }
        let used = allocs() - before;
        assert!(
            used <= 2 * u64::from(log_n),
            "{used} heap allocations for {n} inserts and {} extracts",
            n / 2
        );
        assert_eq!(h.len(), n - n / 2);
        pool.validate_heap(&h).expect("valid heap");

        // The lazy heap's unmetered build: the same node, in a slab that
        // starts empty and doubles.
        let before = allocs();
        let lazy = LazyBinomialHeap::from_keys_fast(2, keys.iter().copied());
        let used = allocs() - before;
        assert!(
            used <= 2 * u64::from(log_n),
            "{used} heap allocations for a {n}-key lazy build"
        );
        lazy.validate().expect("valid lazy heap");
    }
}

#[test]
fn multi_insert_keeps_the_slab_at_its_high_water_mark() {
    // A batch ripples through `Arena::alloc`, which takes a free slot before
    // it grows the slab. Filling and draining 4096 keys a thousand times
    // therefore keeps the slab at the live high-water mark, and after the
    // first round a batch makes no heap allocation at all.
    const N: usize = 4096;
    let keys: Vec<i64> = (0..N as i64)
        .map(|i| (i * 2_654_435_761) % 100_003)
        .collect();
    let mut pool: HeapPool<i64> = HeapPool::new();
    let mut h = pool.new_heap();
    for round in 0..1000 {
        let before = allocs();
        pool.multi_insert(&mut h, &keys).expect("fits the id space");
        if round > 0 {
            assert_eq!(allocs(), before, "round {round} allocated");
        }
        assert_eq!(pool.arena().slab_len(), N, "round {round}");
        assert_eq!(pool.multi_extract_min(&mut h, N).len(), N);
    }
    assert!(h.is_empty());
    assert_eq!(pool.stats().allocs, 1000 * N as u64);
}
