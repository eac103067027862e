//! Stress and differential coverage for the sharded service.
//!
//! * [`concurrent_multiset_conservation`] — N producer threads and M
//!   consumer threads hammer one [`QueueService`] through the sync API with
//!   globally unique keys (`tid << 32 | i`). No interleaving can be
//!   predicted, but the multiset must be conserved: everything the consumers
//!   extracted plus everything left after a full meld-and-drain must be
//!   exactly the produced key set. `SERVICE_STRESS_MULT` scales the thread
//!   counts (CI runs 4×).
//! * [`sequential_programs_match_oracle`] — a seeded, shrinkable proptest:
//!   random single-threaded programs over a dynamic set of queues (create /
//!   destroy / insert / bulk ops / meld, including cross-shard) run against
//!   per-queue sorted-vector oracles, so failures reduce to a minimal op
//!   list with a replayable seed.
//!
//! [`QueueService`]: service::QueueService
#![allow(clippy::unwrap_used)] // test code: panics are the failure mode

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;

use proptest::prelude::*;
use service::{QueueId, ServiceBuilder};

fn stress_mult() -> usize {
    std::env::var("SERVICE_STRESS_MULT")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
        .max(1)
}

#[test]
fn concurrent_multiset_conservation() {
    let m = stress_mult();
    let producers = 4 * m;
    let consumers = 2 * m;
    let keys_per_producer: i64 = 512;
    let svc = Arc::new(ServiceBuilder::new().shards(4).build());
    let queues: Arc<Vec<QueueId>> = Arc::new((0..8).map(|_| svc.create_queue()).collect());
    let barrier = Arc::new(Barrier::new(producers + consumers));
    let extracted = Arc::new(Mutex::new(Vec::<i64>::new()));
    let done = Arc::new(AtomicBool::new(false));

    let mut handles = Vec::new();
    for tid in 0..producers {
        let (svc, queues, barrier) = (Arc::clone(&svc), Arc::clone(&queues), Arc::clone(&barrier));
        handles.push(thread::spawn(move || {
            barrier.wait();
            let keys: Vec<i64> = (0..keys_per_producer)
                .map(|i| ((tid as i64) << 32) | i)
                .collect();
            // Alternate chunk-wise between multi-key and single inserts so
            // both insert kernels run under contention.
            for (c, chunk) in keys.chunks(5).enumerate() {
                let q = queues[(tid + c) % queues.len()];
                if c % 2 == 0 {
                    svc.multi_insert(q, chunk.to_vec()).unwrap();
                } else {
                    for &k in chunk {
                        svc.insert(q, k).unwrap();
                    }
                }
            }
        }));
    }
    for tid in 0..consumers {
        let (svc, queues, barrier) = (Arc::clone(&svc), Arc::clone(&queues), Arc::clone(&barrier));
        let (extracted, done) = (Arc::clone(&extracted), Arc::clone(&done));
        handles.push(thread::spawn(move || {
            barrier.wait();
            let mut local = Vec::new();
            loop {
                let mut got = 0usize;
                for (j, &q) in queues.iter().enumerate() {
                    if (j + tid) % 3 == 0 {
                        let v = svc.extract_k(q, 4).unwrap();
                        got += v.len();
                        local.extend(v);
                    } else if let Some(k) = svc.extract_min(q).unwrap() {
                        got += 1;
                        local.push(k);
                    }
                }
                if got == 0 {
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    thread::yield_now();
                }
            }
            extracted.lock().unwrap().extend(local);
        }));
    }
    // Join producers (spawned first), then release the consumers' exit path.
    for h in handles.drain(..producers) {
        h.join().unwrap();
    }
    done.store(true, Ordering::Release);
    for h in handles {
        h.join().unwrap();
    }

    svc.validate().unwrap();
    // Every key was admitted once, alone or in a multi_insert group, and
    // the multi-key requests took the multi_insert kernel.
    let (single, coalesced) = (0..4)
        .map(|i| svc.shard_stats(i))
        .fold((0, 0), |(s, c), st| {
            (s + st.single_inserts, c + st.coalesced_inserts)
        });
    assert_eq!(
        single + coalesced,
        producers as u64 * keys_per_producer as u64
    );
    assert!(coalesced > 0, "no group reached multi_insert");
    // Meld every queue into the first (same- and cross-shard paths), then
    // drain what the consumers left behind.
    let sink = queues[0];
    for &q in &queues[1..] {
        svc.meld(sink, q).unwrap();
        assert!(svc.len(q).is_err(), "melded-away queue must be stale");
    }
    let rest = svc.extract_k(sink, usize::MAX).unwrap();
    assert!(rest.windows(2).all(|w| w[0] <= w[1]), "drain is ascending");
    assert_eq!(svc.len(sink).unwrap(), 0);

    let mut got = extracted.lock().unwrap().clone();
    got.extend(&rest);
    got.sort_unstable();
    let mut want: Vec<i64> = (0..producers as i64)
        .flat_map(|t| (0..keys_per_producer).map(move |i| (t << 32) | i))
        .collect();
    want.sort_unstable();
    if got != want {
        // Conservation broke somewhere in the shard executor: drain the
        // flight recorder so the panic carries the ops the shards were
        // serving when keys went missing (full dump for the CI artifact,
        // tail inline for the log).
        obs::flight::dump(std::path::Path::new("target/service-stress-flight.json"));
        panic!(
            "multiset conservation broken across {producers}p/{consumers}c: \
             got {} keys, want {} (full flight dump in target/service-stress-flight.json)\n\
             last flight events:\n{}",
            got.len(),
            want.len(),
            obs::flight::render(&obs::flight::tail(64)),
        );
    }
    svc.validate().unwrap();
}

/// One step of a random service program. Queue indices resolve modulo the
/// current live-queue count at execution time.
#[derive(Debug, Clone)]
enum SvcOp {
    Create,
    Destroy(usize),
    Insert(usize, i64),
    MultiInsert(usize, Vec<i64>),
    ExtractMin(usize),
    ExtractK(usize, usize),
    Peek(usize),
    Len(usize),
    Meld(usize, usize),
}

fn svc_op_strategy() -> impl Strategy<Value = SvcOp> {
    let key = -64i64..64;
    prop_oneof![
        1 => Just(SvcOp::Create),
        1 => any::<usize>().prop_map(SvcOp::Destroy),
        5 => (any::<usize>(), key.clone()).prop_map(|(q, k)| SvcOp::Insert(q, k)),
        2 => (any::<usize>(), proptest::collection::vec(key, 0..12))
            .prop_map(|(q, ks)| SvcOp::MultiInsert(q, ks)),
        3 => any::<usize>().prop_map(SvcOp::ExtractMin),
        1 => (any::<usize>(), 0usize..6).prop_map(|(q, k)| SvcOp::ExtractK(q, k)),
        1 => any::<usize>().prop_map(SvcOp::Peek),
        1 => any::<usize>().prop_map(SvcOp::Len),
        2 => (any::<usize>(), any::<usize>()).prop_map(|(d, s)| SvcOp::Meld(d, s)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sequential_programs_match_oracle(
        ops in proptest::collection::vec(svc_op_strategy(), 1..64),
    ) {
        let svc = ServiceBuilder::new().shards(2).build();
        // (handle, sorted oracle) per live queue.
        let mut queues: Vec<(QueueId, Vec<i64>)> = vec![(svc.create_queue(), Vec::new())];
        for (step, op) in ops.into_iter().enumerate() {
            let n = queues.len();
            match op {
                SvcOp::Create => queues.push((svc.create_queue(), Vec::new())),
                SvcOp::Destroy(raw) => {
                    let (q, oracle) = queues.remove(raw % n);
                    prop_assert_eq!(svc.destroy_queue(q).unwrap(), oracle.len(),
                        "destroy count at step {}", step);
                    prop_assert!(svc.insert(q, 0).is_err(),
                        "destroyed handle live at step {}", step);
                }
                SvcOp::Insert(raw, k) => {
                    let (q, oracle) = &mut queues[raw % n];
                    svc.insert(*q, k).unwrap();
                    let at = oracle.partition_point(|&x| x <= k);
                    oracle.insert(at, k);
                }
                SvcOp::MultiInsert(raw, ks) => {
                    let (q, oracle) = &mut queues[raw % n];
                    svc.multi_insert(*q, ks.clone()).unwrap();
                    oracle.extend(ks);
                    oracle.sort_unstable();
                }
                SvcOp::ExtractMin(raw) => {
                    let (q, oracle) = &mut queues[raw % n];
                    let want = if oracle.is_empty() { None } else { Some(oracle.remove(0)) };
                    prop_assert_eq!(svc.extract_min(*q).unwrap(), want,
                        "extract at step {}", step);
                }
                SvcOp::ExtractK(raw, k) => {
                    let (q, oracle) = &mut queues[raw % n];
                    let take = k.min(oracle.len());
                    let want: Vec<i64> = oracle.drain(..take).collect();
                    prop_assert_eq!(svc.extract_k(*q, k).unwrap(), want,
                        "extract_k at step {}", step);
                }
                SvcOp::Peek(raw) => {
                    let (q, oracle) = &mut queues[raw % n];
                    prop_assert_eq!(svc.peek_min(*q).unwrap(), oracle.first().copied(),
                        "peek at step {}", step);
                }
                SvcOp::Len(raw) => {
                    let (q, oracle) = &mut queues[raw % n];
                    prop_assert_eq!(svc.len(*q).unwrap(), oracle.len(),
                        "len at step {}", step);
                }
                SvcOp::Meld(draw, sraw) => {
                    let (d, s) = (draw % n, sraw % n);
                    if d == s {
                        svc.meld(queues[d].0, queues[s].0).unwrap();
                        continue;
                    }
                    let (sq, soracle) = queues.remove(s);
                    let d = if s < d { d - 1 } else { d };
                    let (dq, doracle) = &mut queues[d];
                    svc.meld(*dq, sq).unwrap();
                    doracle.extend(soracle);
                    doracle.sort_unstable();
                    prop_assert!(svc.len(sq).is_err(),
                        "melded-away handle live at step {}", step);
                }
            }
            if queues.is_empty() {
                queues.push((svc.create_queue(), Vec::new()));
            }
        }
        svc.validate().unwrap();
        for (q, oracle) in queues {
            prop_assert_eq!(svc.extract_k(q, usize::MAX).unwrap(), oracle, "final drain");
        }
    }
}
