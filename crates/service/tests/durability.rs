//! Durable service integration: build → mutate → drop → rebuild from the
//! same root recovers every tenant queue from its shard's last checkpoint
//! plus the WAL suffix.
#![allow(clippy::unwrap_used)] // test code: panics are the failure mode

use std::path::PathBuf;

use meldpq::wal::{self, CheckpointCadence};
use meldpq::{Engine, WalOp};
use service::{BuildError, QueueId, ServiceBuilder};

struct TmpRoot(PathBuf);

impl TmpRoot {
    fn new(tag: &str) -> TmpRoot {
        let dir =
            std::env::temp_dir().join(format!("meldpq-svc-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TmpRoot(dir)
    }
}

impl Drop for TmpRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn builder(root: &TmpRoot) -> ServiceBuilder {
    ServiceBuilder::new().shards(2).durable(root.0.clone())
}

#[test]
fn durable_service_survives_restart_pooled() {
    let root = TmpRoot::new("pooled");
    let (a, b, c);
    {
        let svc = builder(&root).try_build().expect("build");
        a = svc.create_queue(); // shard 0
        b = svc.create_queue(); // shard 1
        c = svc.create_queue(); // shard 0
        svc.multi_insert(a, vec![5, 1, 9, 3]).unwrap();
        svc.insert(b, 7).unwrap();
        svc.multi_insert(c, vec![2, 8]).unwrap();
        assert_eq!(svc.extract_min(a).unwrap(), Some(1));
        svc.meld(a, c).unwrap(); // same shard: one logged Meld record
        svc.destroy_queue(b).unwrap(); // logged FreeHeap
        let stats = svc.shard_stats(0);
        assert!(stats.wal_appends >= 5, "ops were logged: {stats:?}");
        assert_eq!(stats.wal_errors, 0);
    } // drop = crash (records are flushed before every mutation)

    // A lone key logs `Insert`, a multi-key group one `FromKeys`.
    let log = |shard: usize| -> Vec<WalOp> {
        let path = root.0.join(format!("shard{shard}")).join(wal::WAL_FILE);
        let log = wal::read_wal(&path).expect("readable log");
        log.records.into_iter().map(|(_, op)| op).collect()
    };
    assert_eq!(
        log(0),
        [
            WalOp::CreateHeap { slot: 0, gen: 0 },
            WalOp::CreateHeap { slot: 1, gen: 0 },
            WalOp::FromKeys {
                slot: 0,
                keys: vec![5, 1, 9, 3]
            },
            WalOp::FromKeys {
                slot: 1,
                keys: vec![2, 8]
            },
            WalOp::ExtractMin { slot: 0 },
            WalOp::Meld { dst: 0, src: 1 },
        ]
    );
    assert_eq!(
        log(1),
        [
            WalOp::CreateHeap { slot: 0, gen: 0 },
            WalOp::Insert { slot: 0, key: 7 },
            WalOp::FreeHeap { slot: 0 },
        ]
    );

    let svc = builder(&root).try_build().expect("recover");
    svc.validate().expect("recovered state validates");
    assert_eq!(
        svc.extract_k(a, 10).unwrap(),
        vec![2, 3, 5, 8, 9],
        "queue a recovered with the melded keys, minus the extracted 1"
    );
    assert!(
        svc.len(b).is_err(),
        "destroyed queue stays destroyed after recovery"
    );
    assert!(svc.len(c).is_err(), "melded-away queue stays stale");
    // The recovered service keeps serving and logging.
    svc.insert(a, 42).unwrap();
    assert_eq!(svc.peek_min(a).unwrap(), Some(42));
}

#[test]
fn cross_shard_meld_is_durable() {
    let root = TmpRoot::new("xshard");
    let (a, b);
    {
        let svc = builder(&root).try_build().expect("build");
        a = svc.create_queue(); // shard 0
        b = svc.create_queue(); // shard 1
        svc.multi_insert(a, vec![4, 6]).unwrap();
        svc.multi_insert(b, vec![1, 9]).unwrap();
        // src FreeHeap lands in shard 1's log, the moved keys as FromKeys
        // in shard 0's — both flushed before the mutation.
        svc.meld(a, b).unwrap();
    }
    let svc = builder(&root).try_build().expect("recover");
    assert_eq!(svc.extract_k(a, 10).unwrap(), vec![1, 4, 6, 9]);
    assert!(svc.len(b).is_err(), "melded-away source is stale");
}

#[test]
fn explicit_checkpoint_bounds_replay() {
    let root = TmpRoot::new("ckpt");
    let q;
    {
        let svc = builder(&root).try_build().expect("build");
        q = svc.create_queue();
        svc.multi_insert(q, (0..32).collect()).unwrap();
        svc.checkpoint();
        let stats = svc.shard_stats((q.shard()) as usize);
        assert_eq!(stats.wal_checkpoints, 1);
        // Post-checkpoint ops land in the WAL suffix.
        svc.insert(q, -1).unwrap();
    }
    let svc = builder(&root).try_build().expect("recover");
    assert_eq!(svc.extract_min(q).unwrap(), Some(-1));
    assert_eq!(svc.len(q).unwrap(), 32);
}

#[test]
fn single_key_inserts_survive_recovery() {
    let root = TmpRoot::new("single");
    let q;
    {
        let svc = builder(&root).try_build().expect("build");
        q = svc.create_queue();
        assert_eq!(svc.insert(q, 3), Ok(()));
        assert_eq!(svc.insert(q, 1), Ok(()));
    }
    let svc = builder(&root).try_build().expect("recover");
    assert_eq!(svc.extract_k(q, 4).unwrap(), vec![1, 3]);
}

#[test]
fn legacy_json_checkpoint_is_ignored() {
    // A directory written before checkpoints became binary words holds a
    // `checkpoint.json`. It is never read: the shard replays its WAL from
    // genesis, which loses nothing because the WAL is never truncated.
    let root = TmpRoot::new("legacy");
    let (a, b);
    {
        let svc = builder(&root).try_build().expect("build");
        a = svc.create_queue(); // shard 0
        b = svc.create_queue(); // shard 1
        svc.multi_insert(a, vec![8, 3, 5, 1]).unwrap();
        svc.multi_insert(b, vec![20, 10]).unwrap();
        svc.insert(b, 15).unwrap();
        assert_eq!(svc.extract_min(a).unwrap(), Some(1));
    }
    for shard in ["shard0", "shard1"] {
        let dir = root.0.join(shard);
        assert!(dir.join("wal.log").exists(), "{shard} has a populated log");
        assert!(
            !dir.join("checkpoint.bin").exists(),
            "{shard} never checkpointed"
        );
        // Were this trusted, seq 1e6 would skip every WAL record.
        std::fs::write(
            dir.join("checkpoint.json"),
            "42\n{\"seq\":1000000,\"nodes\":[],\"free\":[],\"heaps\":[],\"free_slots\":[]}",
        )
        .unwrap();
    }
    let svc = builder(&root).try_build().expect("recover");
    svc.validate().expect("recovered state validates");
    assert_eq!(svc.extract_k(a, 10).unwrap(), vec![3, 5, 8]);
    assert_eq!(svc.extract_k(b, 10).unwrap(), vec![10, 15, 20]);
}

#[test]
fn automatic_checkpoints_are_paced_by_the_image_size() {
    let root = TmpRoot::new("cadence");
    let dir = root.0.join("shard0");
    let one_shard = || {
        ServiceBuilder::new()
            .shards(1)
            .durable(root.0.clone())
            .try_build()
            .expect("build")
    };
    let file_len = |name: &str| std::fs::metadata(dir.join(name)).map_or(0, |m| m.len());
    let svc = one_shard();
    let checkpoints = || svc.shard_stats(0).wal_checkpoints;
    let q = svc.create_queue();
    svc.multi_insert(q, (0..1 << 16).collect()).unwrap();

    // No image exists yet, so the op floor alone times the first
    // checkpoint; the next waits for the log to grow by that image.
    let mut at = None; // (log length, image length) at the first checkpoint
    for i in 0..4096 {
        if i % 2 == 0 {
            svc.insert(q, -i).unwrap();
        } else {
            svc.extract_min(q).unwrap();
        }
        if at.is_none() && checkpoints() == 1 {
            at = Some((file_len("wal.log"), file_len("checkpoint.bin")));
        }
    }
    assert_eq!(checkpoints(), 1, "one automatic checkpoint in 4096 ops");
    let (mark, image) = at.expect("the op floor was reached");
    assert!(image > 48 * 4096, "image {image} outweighs 4096 ops of log");

    // Grow the log in 64-key records until it has gained one image.
    let mut key = 1 << 16;
    loop {
        let grown = file_len("wal.log") - mark;
        if grown >= image {
            break;
        }
        assert_eq!(checkpoints(), 1, "checkpoint after {grown} < {image} B");
        svc.multi_insert(q, (key..key + 64).collect()).unwrap();
        key += 64;
    }
    assert_eq!(checkpoints(), 2, "due once the log grew by the image");
    let (mark, image) = (file_len("wal.log"), file_len("checkpoint.bin"));
    for i in 0..2000 {
        svc.insert(q, i).unwrap();
    }
    drop(svc);

    // Reopen: the shard resumes the cadence and keeps serving.
    let svc = one_shard();
    svc.validate().expect("recovered state validates");
    for i in 0..48 {
        svc.insert(q, i).unwrap();
    }
    assert_eq!(
        svc.shard_stats(0).wal_checkpoints,
        0,
        "the replayed suffix is past the op floor but short of the image"
    );
    drop(svc);
    let state = wal::recover_dir(&dir, Engine::Sequential).expect("recover");
    assert_eq!(state.replayed, 2048, "every op past the second checkpoint");
    let suffix = file_len("wal.log") - mark;
    assert!(
        state.replayed < CheckpointCadence::MIN_OPS as usize || suffix < image,
        "replayed {} records ({suffix} B) past a {image} B image",
        state.replayed
    );
}

#[test]
fn io_error_closes_the_log_and_the_snapshot_says_so() {
    // After the first WAL I/O error a shard keeps answering `Ok` from
    // memory, but what it acknowledges is no longer recoverable:
    // `durable == false` with `wal_errors > 0` says so (DESIGN.md §15).
    let root = TmpRoot::new("ioerr");
    let dir = root.0.join("shard0");
    let away = root.0.join("shard0.away");
    let one_shard = || {
        ServiceBuilder::new()
            .shards(1)
            .durable(root.0.clone())
            .try_build()
            .expect("build")
    };
    let svc = one_shard();
    let q = svc.create_queue();
    svc.multi_insert(q, vec![5, 1, 3]).unwrap();
    assert!(svc.snapshot().shards[0].durable);
    // With the directory moved away the checkpoint cannot create its
    // temp file.
    std::fs::rename(&dir, &away).unwrap();
    svc.checkpoint();
    std::fs::rename(&away, &dir).unwrap();
    let shard = &svc.snapshot().shards[0];
    assert!(!shard.durable, "the error closed the log");
    assert_eq!(shard.stats.wal_errors, 1);
    assert_eq!(shard.stats.wal_checkpoints, 0);
    assert!(svc
        .snapshot()
        .render()
        .lines()
        .nth(1)
        .unwrap()
        .ends_with(" no"));
    let json = svc.snapshot().to_json().to_string();
    assert!(json.contains("\"durable\":false"), "{json}");
    // Later ops still succeed, from memory only.
    svc.insert(q, 0).unwrap();
    assert_eq!(svc.extract_min(q).unwrap(), Some(0));
    svc.insert(q, 2).unwrap();
    assert_eq!(svc.len(q).unwrap(), 4);
    drop(svc);
    // Reopening recovers exactly the state at the error.
    let svc = one_shard();
    assert!(svc.snapshot().shards[0].durable);
    assert_eq!(svc.extract_k(q, 10).unwrap(), vec![1, 3, 5]);
}

/// A 4-shard root with one queue per shard, each holding `[10 * s, 10 * s + 1]`.
fn four_shard_root(root: &TmpRoot) -> Vec<QueueId> {
    let svc = ServiceBuilder::new()
        .shards(4)
        .durable(root.0.clone())
        .try_build()
        .expect("build");
    (0..4)
        .map(|s| {
            let q = svc.create_queue();
            assert_eq!(q.shard(), s);
            svc.multi_insert(q, vec![10 * s as i64 + 1, 10 * s as i64])
                .unwrap();
            q
        })
        .collect()
}

#[test]
fn default_reopen_keeps_every_shard_the_root_holds() {
    let root = TmpRoot::new("reopen-default");
    let queues = four_shard_root(&root);
    // The default count depends on the host; the root's count wins.
    let svc = ServiceBuilder::new()
        .durable(root.0.clone())
        .try_build()
        .expect("reopen");
    assert_eq!(svc.shard_count(), 4);
    svc.validate().expect("recovered state validates");
    for (s, q) in queues.into_iter().enumerate() {
        let lo = 10 * s as i64;
        assert_eq!(svc.extract_k(q, 10).unwrap(), vec![lo, lo + 1]);
    }
}

#[test]
fn fewer_shards_than_the_root_holds_is_an_error() {
    let root = TmpRoot::new("reopen-fewer");
    four_shard_root(&root);
    let reopen = |n| {
        ServiceBuilder::new()
            .shards(n)
            .durable(root.0.clone())
            .try_build()
    };
    match reopen(2) {
        Err(BuildError::TooFewShards { held, requested }) => {
            assert_eq!((held, requested), (4, 2));
        }
        other => panic!("2 of 4 shards must be refused, got {other:?}"),
    }
    assert_eq!(reopen(4).expect("same count").shard_count(), 4);
    // A gap loses a shard's queues too.
    std::fs::remove_dir_all(root.0.join("shard1")).unwrap();
    match reopen(4) {
        Err(BuildError::MissingShard { missing }) => assert_eq!(missing, 1),
        other => panic!("a missing shard1 must be refused, got {other:?}"),
    }
}

#[test]
fn more_shards_than_the_root_holds_keeps_old_queue_ids() {
    let root = TmpRoot::new("reopen-more");
    let queues = four_shard_root(&root);
    {
        let svc = ServiceBuilder::new()
            .shards(6)
            .durable(root.0.clone())
            .try_build()
            .expect("grow");
        assert_eq!(svc.shard_count(), 6);
        for (s, &q) in queues.iter().enumerate() {
            assert_eq!(svc.peek_min(q).unwrap(), Some(10 * s as i64));
            assert_eq!(svc.len(q).unwrap(), 2);
        }
        // The added shards are empty and take new queues.
        let fresh: Vec<QueueId> = (0..6).map(|_| svc.create_queue()).collect();
        assert!(fresh.iter().any(|q| q.shard() == 5));
        svc.insert(fresh[5], 99).unwrap();
    }
    // The grown root now holds six shards.
    let svc = ServiceBuilder::new()
        .durable(root.0.clone())
        .try_build()
        .expect("reopen");
    assert_eq!(svc.shard_count(), 6);
    svc.validate().expect("recovered state validates");
    for (s, q) in queues.into_iter().enumerate() {
        let lo = 10 * s as i64;
        assert_eq!(svc.extract_k(q, 10).unwrap(), vec![lo, lo + 1]);
    }
}
