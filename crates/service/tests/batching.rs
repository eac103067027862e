//! Deterministic proof that admission batching actually coalesces: requests
//! deposited through the pipelined [`QueueService::enqueue`] path sit in the
//! shard's Waiting buffer until one combine serves them all, and the batch
//! counters ([`service::ShardStats`]) plus the pool's arena counters
//! (`meldpq::ArenaStats`) pin down *which* kernel ran.
//!
//! [`QueueService::enqueue`]: service::QueueService::enqueue
#![allow(clippy::unwrap_used)] // test code: panics are the failure mode

use service::{Request, Response, ServiceBuilder};

#[test]
fn pipelined_inserts_coalesce_into_one_bulk_build() {
    let svc = ServiceBuilder::new().shards(1).build();
    let q = svc.create_queue();
    let tickets: Vec<_> = (0..64)
        .map(|k| svc.enqueue(Request::Insert { queue: q, key: k }).unwrap())
        .collect();
    svc.flush();
    for t in tickets {
        assert_eq!(t.wait(), Response::Done);
    }
    let stats = svc.shard_stats(0);
    assert_eq!(stats.batches, 1, "one drain served all 64 deposits");
    assert_eq!(stats.max_batch, 64);
    assert_eq!(
        stats.coalesced_inserts, 64,
        "all 64 keys went through one multi_insert"
    );
    assert_eq!(stats.single_inserts, 0, "no lone inserts");
    let arena = svc.arena_stats(0);
    assert_eq!(arena.allocs, 64, "one node per key");
    assert_eq!(arena.copies, 0, "multi_insert is zero-copy");
    assert_eq!(svc.len(q).unwrap(), 64);
}

#[test]
fn below_threshold_batches_use_ripple_inserts() {
    // One batch, three queues, one key each: every queue's group is below
    // the two keys a `multi_insert` takes, so each key runs `insert`.
    let svc = ServiceBuilder::new().shards(1).build();
    let queues: Vec<_> = (0..3).map(|_| svc.create_queue()).collect();
    let tickets: Vec<_> = queues
        .iter()
        .zip(0..)
        .map(|(&q, key)| svc.enqueue(Request::Insert { queue: q, key }).unwrap())
        .collect();
    svc.flush();
    for t in tickets {
        assert_eq!(t.wait(), Response::Done);
    }
    let stats = svc.shard_stats(0);
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.single_inserts, 3);
    assert_eq!(stats.coalesced_inserts, 0);
}

#[test]
fn pipelined_pops_coalesce_into_one_multi_extract() {
    let svc = ServiceBuilder::new().shards(1).build();
    let q = svc.create_queue();
    svc.multi_insert(q, (0..32).rev().collect()).unwrap();
    let pops: Vec<_> = (0..8)
        .map(|_| svc.enqueue(Request::ExtractMin { queue: q }).unwrap())
        .collect();
    let tk = svc.enqueue(Request::ExtractK { queue: q, k: 8 }).unwrap();
    svc.flush();
    for (i, t) in pops.into_iter().enumerate() {
        assert_eq!(t.wait(), Response::Key(Some(i as i64)));
    }
    assert_eq!(tk.wait(), Response::Keys((8..16).collect()));
    let stats = svc.shard_stats(0);
    assert_eq!(stats.multi_extracts, 1, "whole pop demand was one pull");
    assert_eq!(stats.coalesced_pops, 16);
    assert_eq!(svc.len(q).unwrap(), 16);
}

#[test]
fn one_batch_serves_many_queues_independently() {
    let svc = ServiceBuilder::new().shards(1).build();
    let a = svc.create_queue();
    let b = svc.create_queue();
    let ta: Vec<_> = [5i64, 1, 3]
        .iter()
        .map(|&key| svc.enqueue(Request::Insert { queue: a, key }).unwrap())
        .collect();
    let pop_b = svc.enqueue(Request::ExtractMin { queue: b }).unwrap();
    let peek_a = svc.enqueue(Request::PeekMin { queue: a }).unwrap();
    svc.flush();
    for t in ta {
        assert_eq!(t.wait(), Response::Done);
    }
    assert_eq!(pop_b.wait(), Response::Key(None), "b stays empty");
    assert_eq!(peek_a.wait(), Response::Key(Some(1)));
    let stats = svc.shard_stats(0);
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.max_batch, 5);
}

#[test]
fn ticket_wait_drives_pending_batches() {
    // No flush: the waiter itself must become the combiner, so progress
    // never depends on another thread.
    let svc = ServiceBuilder::new().shards(1).build();
    let q = svc.create_queue();
    let t1 = svc.enqueue(Request::Insert { queue: q, key: 3 }).unwrap();
    let t2 = svc.enqueue(Request::ExtractMin { queue: q }).unwrap();
    assert_eq!(t2.wait(), Response::Key(Some(3)));
    assert_eq!(t1.wait(), Response::Done);
}
