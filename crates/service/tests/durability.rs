//! Durable service integration: build → mutate → drop → rebuild from the
//! same root recovers every tenant queue from its shard's last checkpoint
//! plus the WAL suffix.
#![allow(clippy::unwrap_used)] // test code: panics are the failure mode

use std::path::PathBuf;

use meldpq::wal::{self, CheckpointCadence};
use meldpq::{Engine, WalOp};
use service::ServiceBuilder;

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
