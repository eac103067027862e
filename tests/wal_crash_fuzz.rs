//! WAL crash fuzzer: `wal::DurablePool`, the store every service shard
//! runs, driven under hundreds of seeded crash plans — kills at arbitrary
//! byte offsets, torn tail records, bit-flipped logs and checkpoints, torn
//! checkpoints, double recovery, an I/O error at a checkpoint, and the
//! post-panic reset — against a sorted-vec oracle.
//!
//! Contract under crashes:
//!
//! * **prefix recovery** — cutting the log at byte `X` recovers exactly the
//!   ops whose records end at or before `X`; a record torn mid-frame is
//!   discarded whole (all-or-nothing per record);
//! * **corruption stops the log, not the process** — a bit flip anywhere in
//!   a record fails its CRC and ends replay *before* that record; a bit
//!   flip in the checkpoint — or a checkpoint torn mid-write, with its temp
//!   file left behind, or a CRC-valid image with one node link rewritten —
//!   discards the checkpoint and recovery falls back to full-log replay;
//! * **idempotence** — recovering twice from the same directory yields the
//!   identical state (the first recovery's truncation is convergent);
//! * **structural integrity** — every recovered pool passes `check_pool`
//!   and keeps serving (the reopened WAL continues the sequence);
//! * **an I/O error closes the log, not the store** — it is counted once,
//!   the store reports itself not durable and keeps applying ops in
//!   memory, and reopening recovers exactly the ops logged before it;
//! * **a reset restarts history** — after the post-panic reset a cut log
//!   recovers a prefix of the ops issued since; a reset stopped after its
//!   first file step (image deleted, old log intact) recovers the state
//!   before it, never a mix of the two.
//!
//! Plan count defaults to 414, 46 per kind (`WAL_CRASH_PLANS` raises it;
//! the soak job sets `SOAK_STEPS`). A failing plan's seed is written to
//! `target/wal-failing-seed.txt` so CI uploads it as the repro artifact.

use std::path::{Path, PathBuf};

use meldpq::wal::{DurablePool, HeapId, WalCounts, CHECKPOINT_FILE, WAL_FILE};

fn plan_count() -> u64 {
    let explicit = std::env::var("WAL_CRASH_PLANS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok());
    let soak = std::env::var("SOAK_STEPS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .map(|steps| steps.max(256) / 16);
    explicit.or(soak).unwrap_or(414).max(414)
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// What a seed's plan injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Truncate the log at an arbitrary byte offset (power loss mid-write).
    KillAtOffset,
    /// Cut strictly inside the final record (the classic torn tail).
    TornTail,
    /// Flip one bit somewhere in the log body.
    BitFlipWal,
    /// Write a checkpoint mid-run, then flip one bit in it.
    BitFlipCheckpoint,
    /// Truncate, recover, recover again: both recoveries must agree.
    DoubleRecover,
    /// Write a checkpoint mid-run, then cut it at a random byte offset and
    /// leave a stray `.tmp` beside it (a crash mid-checkpoint).
    TornCheckpoint,
    /// Write a checkpoint mid-run, then rewrite one link word of one slab
    /// slot and reseal the trailer: an image only the structural checks
    /// can reject.
    CorruptLinkCheckpoint,
    /// Move the directory away so an explicit checkpoint cannot create its
    /// temp file, move it back, keep issuing ops, then reopen.
    IoErrorAtCheckpoint,
    /// Checkpoint, then run the post-panic reset mid-run. Either more ops
    /// follow and the fresh log is cut at an arbitrary offset, or the
    /// reset is stopped after its first file step (image deleted, old log
    /// intact).
    ResetAfterDamage,
}

const KINDS: u64 = 9;

fn kind_for(seed: u64) -> Kind {
    match seed % KINDS {
        0 => Kind::KillAtOffset,
        1 => Kind::TornTail,
        2 => Kind::BitFlipWal,
        3 => Kind::BitFlipCheckpoint,
        4 => Kind::DoubleRecover,
        5 => Kind::TornCheckpoint,
        6 => Kind::CorruptLinkCheckpoint,
        7 => Kind::IoErrorAtCheckpoint,
        _ => Kind::ResetAfterDamage,
    }
}

/// The oracle: per slot, its occupant's generation and key multiset, plus
/// the free-slot stack, mirroring `DurablePool`'s slot assignment exactly.
#[derive(Debug, Clone, Default)]
struct Model {
    slots: Vec<(u32, Option<Vec<i64>>)>,
    free: Vec<u32>,
}

/// One logical op, as issued to the durable pool and replayed on models.
#[derive(Debug, Clone)]
enum Op {
    Create,
    Insert { slot: u32, key: i64 },
    FromKeys { slot: u32, keys: Vec<i64> },
    ExtractMin { slot: u32 },
    MultiExtractMin { slot: u32, k: usize },
    Meld { dst: u32, src: u32 },
    Free { slot: u32 },
}

impl Model {
    fn live(&self) -> Vec<u32> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, (_, s))| s.as_ref().map(|_| i as u32))
            .collect()
    }

    /// The address of the heap in `slot`.
    fn id(&self, slot: u32) -> HeapId {
        HeapId {
            slot,
            gen: self.slots[slot as usize].0,
        }
    }

    /// The address the next `Create` gets: the last freed slot, else a new
    /// one.
    fn next_id(&self) -> HeapId {
        match self.free.last() {
            Some(&slot) => self.id(slot),
            None => HeapId {
                slot: self.slots.len() as u32,
                gen: 0,
            },
        }
    }

    fn keys(&mut self, slot: u32) -> &mut Vec<i64> {
        self.slots[slot as usize].1.as_mut().unwrap()
    }

    /// Empty `slot` and free it for its next occupant's generation.
    fn release(&mut self, slot: u32) -> Vec<i64> {
        let (gen, keys) = &mut self.slots[slot as usize];
        *gen = gen.wrapping_add(1);
        self.free.push(slot);
        keys.take().unwrap()
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::Create => {
                let slot = match self.free.pop() {
                    Some(s) => s,
                    None => {
                        self.slots.push((0, None));
                        (self.slots.len() - 1) as u32
                    }
                };
                self.slots[slot as usize].1 = Some(Vec::new());
            }
            Op::Insert { slot, key } => self.keys(*slot).push(*key),
            Op::FromKeys { slot, keys } => self.keys(*slot).extend_from_slice(keys),
            Op::ExtractMin { slot } => {
                let v = self.keys(*slot);
                if let Some(i) = v
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, k)| **k)
                    .map(|(i, _)| i)
                {
                    v.swap_remove(i);
                }
            }
            Op::MultiExtractMin { slot, k } => {
                let v = self.keys(*slot);
                v.sort_unstable();
                let take = (*k).min(v.len());
                v.drain(..take);
            }
            Op::Meld { dst, src } => {
                let moved = self.release(*src);
                self.keys(*dst).extend(moved);
            }
            Op::Free { slot } => {
                self.release(*slot);
            }
        }
    }
}

/// Generate the next valid op for the current model state.
fn gen_op(s: &mut u64, model: &Model) -> Op {
    let live = model.live();
    if live.is_empty() {
        return Op::Create;
    }
    let r = splitmix(s);
    let slot = live[(splitmix(s) % live.len() as u64) as usize];
    let key = (splitmix(s) % 100_000) as i64 - 50_000;
    match r % 10 {
        0 => Op::Create,
        1..=3 => Op::Insert { slot, key },
        4 | 5 => {
            let n = 1 + (splitmix(s) % 24) as usize;
            let keys = (0..n)
                .map(|_| (splitmix(s) % 100_000) as i64 - 50_000)
                .collect();
            Op::FromKeys { slot, keys }
        }
        6 => Op::ExtractMin { slot },
        7 => Op::MultiExtractMin {
            slot,
            k: (splitmix(s) % 8) as usize,
        },
        8 if live.len() >= 2 => {
            let src = live[(splitmix(s) % live.len() as u64) as usize];
            if src == slot {
                Op::Insert { slot, key }
            } else {
                Op::Meld { dst: slot, src }
            }
        }
        9 if live.len() >= 2 => Op::Free { slot },
        _ => Op::Insert { slot, key },
    }
}

/// Issue `op` to the store, addressing heaps as `model` (the state before
/// `op`) does.
fn issue(store: &mut DurablePool, model: &Model, op: &Op, c: &mut WalCounts) {
    let r = match op {
        Op::Create => {
            let id = store.create_heap(c);
            assert_eq!(id, model.next_id(), "create picked another slot");
            Ok(())
        }
        Op::Insert { slot, key } => store.insert(model.id(*slot), *key, c),
        Op::FromKeys { slot, keys } => store.multi_insert(model.id(*slot), keys, c),
        Op::ExtractMin { slot } => store.extract_min(model.id(*slot), c).map(drop),
        Op::MultiExtractMin { slot, k } => {
            store.multi_extract_min(model.id(*slot), *k, c).map(drop)
        }
        Op::Meld { dst, src } => store.meld(model.id(*dst), model.id(*src), c),
        Op::Free { slot } => store.free_heap(model.id(*slot), c).map(drop),
    };
    r.unwrap_or_else(|e| panic!("live op {op:?} failed: {e}"));
}

/// Assert the store is exactly the model: same live heaps under the same
/// generations, same key multiset per heap, structurally valid.
fn assert_matches(store: &DurablePool, model: &Model, ctx: &str) {
    store
        .validate()
        .unwrap_or_else(|e| panic!("{ctx}: store structurally invalid: {e}"));
    let live: Vec<HeapId> = model.live().into_iter().map(|s| model.id(s)).collect();
    let got: Vec<HeapId> = store.heaps().map(|(id, _)| id).collect();
    assert_eq!(got, live, "{ctx}: live heaps diverged");
    for id in live {
        let mut want = model.slots[id.slot as usize].1.clone().unwrap();
        want.sort_unstable();
        let mut got = store
            .keys_unsorted(id)
            .unwrap_or_else(|| panic!("{ctx}: {id:?} missing"));
        got.sort_unstable();
        assert_eq!(got, want, "{ctx}: {id:?} keys diverged");
    }
}

struct TmpDir(PathBuf);

impl TmpDir {
    fn new(seed: u64) -> TmpDir {
        let dir =
            std::env::temp_dir().join(format!("meldpq-crashfuzz-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        TmpDir(dir)
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Rewrite one link word of one slab slot of a checkpoint image and reseal
/// its trailer. The image is little-endian `u64` words: a 7-word header
/// whose word 3 is the slot count, then 3 words per slot (`key`,
/// `parent | child << 32`, `sibling | degree << 32`), and a trailing
/// word-folded FNV-1a over every word before it.
fn corrupt_link(path: &Path, r: u64) {
    let bytes = std::fs::read(path).expect("read checkpoint");
    let mut words: Vec<u64> = bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect();
    let n_slots = words[3];
    assert!(n_slots > 0, "the plan's checkpoint holds nodes");
    let word = 7 + 3 * (r % n_slots) as usize + 1 + (r >> 40 & 1) as usize;
    let half = 32 * (r >> 41 & 1);
    let flip = 1 + (r >> 8) % 0xFFFF_FFFF;
    words[word] ^= flip << half;
    let body = words.len() - 1;
    words[body] = words[..body]
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        });
    let out: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    std::fs::write(path, out).expect("write corrupted checkpoint");
}

fn flip_bit(path: &Path, r: u64) {
    let mut bytes = std::fs::read(path).expect("read for bit flip");
    assert!(!bytes.is_empty(), "cannot flip a bit in an empty file");
    let at = (r % bytes.len() as u64) as usize;
    bytes[at] ^= 1 << (r % 8);
    std::fs::write(path, bytes).expect("write flipped file");
}

/// Close `store`'s log with an I/O error at an explicit checkpoint: with
/// the directory moved away, the checkpoint cannot create its temp file.
fn fail_checkpoint(store: &mut DurablePool, dir: &Path, c: &mut WalCounts) {
    let away = PathBuf::from(format!("{}.away", dir.display()));
    std::fs::rename(dir, &away).expect("move the directory away");
    store.checkpoint(c);
    std::fs::rename(&away, dir).expect("move the directory back");
    assert_eq!(c.errors, 1, "the failed checkpoint counts one error");
    assert!(!store.is_durable(), "the error closed the log");
}

/// Run the post-panic reset but stop it after its first file step: with a
/// directory standing where the log is recreated, the image is deleted
/// and the truncation fails, leaving the old log intact.
fn stop_reset_after_first_step(store: &mut DurablePool, dir: &Path, c: &mut WalCounts) {
    let (wal, moved) = (dir.join(WAL_FILE), dir.join("wal.moved"));
    std::fs::rename(&wal, &moved).expect("move the log aside");
    std::fs::create_dir(&wal).expect("block the log's path");
    store.reset(c);
    std::fs::remove_dir(&wal).expect("unblock the log's path");
    std::fs::rename(&moved, &wal).expect("put the old log back");
    assert!(!dir.join(CHECKPOINT_FILE).exists(), "image deleted first");
    assert_eq!(c.errors, 1, "the failed truncation counts one error");
    assert!(!store.is_durable(), "the error closed the log");
}

/// One seeded crash plan, end to end. Panics on contract violation.
fn run_plan(seed: u64) {
    let kind = kind_for(seed);
    let tmp = TmpDir::new(seed);
    let dir = tmp.0.clone();
    let wal_path = dir.join(WAL_FILE);
    let mut s = seed ^ 0xC0FFEE;
    // Half the reset plans stop the reset after its first file step.
    let stop_mid_reset = kind == Kind::ResetAfterDamage && (seed / KINDS) % 2 == 1;

    // Phase 1 — live run: issue ops, tracking each op's model delta and the
    // WAL byte offset its record ends at (`u64::MAX` once the log is
    // closed: such an op is never recoverable).
    let n_ops = 24 + (splitmix(&mut s) % 40) as usize;
    let mut store = DurablePool::open(&dir).expect("fresh open");
    // No automatic checkpoints: a checkpoint is written *after* its WAL
    // prefix is durable, so cutting the log before an auto-checkpoint's
    // position would simulate a crash that cannot happen. Plans that want a
    // checkpoint write one explicitly and only cut after it.
    store.set_checkpoint_every(u64::MAX);
    let mut c = WalCounts::default();
    let mut model = Model::default();
    let mut ops: Vec<(Op, u64)> = Vec::new(); // op + offset its record ends at
    let mut checkpoint_cut_floor = 0u64; // earliest legal cut offset
    for i in 0..n_ops {
        if i == n_ops / 2 {
            match kind {
                Kind::IoErrorAtCheckpoint => fail_checkpoint(&mut store, &dir, &mut c),
                Kind::ResetAfterDamage if stop_mid_reset => {
                    stop_reset_after_first_step(&mut store, &dir, &mut c);
                    break; // crash
                }
                Kind::ResetAfterDamage => {
                    store.reset(&mut c);
                    assert!(!dir.join(CHECKPOINT_FILE).exists(), "image deleted");
                    // The fresh log holds only what follows.
                    model = Model::default();
                    ops.clear();
                }
                _ => {}
            }
        }
        let op = gen_op(&mut s, &model);
        issue(&mut store, &model, &op, &mut c);
        model.apply(&op);
        let end = if store.is_durable() {
            store.wal_bytes()
        } else {
            u64::MAX
        };
        ops.push((op, end));
        if kind == Kind::ResetAfterDamage && i == n_ops / 4 {
            // An image older than the reset: recovering it would mix states.
            store.checkpoint(&mut c);
        }
        if matches!(
            kind,
            Kind::BitFlipCheckpoint | Kind::TornCheckpoint | Kind::CorruptLinkCheckpoint
        ) && i == n_ops / 2
        {
            store.checkpoint(&mut c);
            checkpoint_cut_floor = store.wal_bytes();
        }
    }
    if kind == Kind::IoErrorAtCheckpoint {
        assert_matches(&store, &model, &format!("seed {seed}: ops after the error"));
    } else if !stop_mid_reset {
        assert_eq!(c.errors, 0, "seed {seed} ({kind:?}): no I/O error expected");
    }
    let total = store.wal_bytes();
    drop(store); // crash: the BufWriter flushes, then we mutilate the files

    // Phase 2 — crash injection + expected surviving prefix.
    let survived_prefix = |cut: u64| -> Model {
        let mut m = Model::default();
        for (op, end) in &ops {
            if *end <= cut {
                m.apply(op);
            }
        }
        m
    };
    let r = splitmix(&mut s);
    let expect = match kind {
        // The closed log holds exactly the ops issued before the error.
        Kind::IoErrorAtCheckpoint => survived_prefix(u64::MAX - 1),
        Kind::ResetAfterDamage if stop_mid_reset => survived_prefix(u64::MAX - 1),
        Kind::KillAtOffset | Kind::DoubleRecover | Kind::ResetAfterDamage => {
            let cut = r % (total + 1);
            std::fs::OpenOptions::new()
                .write(true)
                .open(&wal_path)
                .and_then(|f| f.set_len(cut))
                .expect("truncate wal");
            survived_prefix(cut)
        }
        Kind::TornTail => {
            // Cut strictly inside the final record.
            let last_start = ops[ops.len() - 2].1;
            let cut = last_start + 1 + r % (total - last_start - 1).max(1);
            let cut = cut.min(total - 1);
            std::fs::OpenOptions::new()
                .write(true)
                .open(&wal_path)
                .and_then(|f| f.set_len(cut))
                .expect("truncate wal");
            survived_prefix(last_start)
        }
        Kind::BitFlipWal => {
            let at = r % total;
            flip_bit(&wal_path, at);
            // The flipped byte lives in some record; that record and
            // everything after it must be discarded.
            let flipped_in = ops
                .iter()
                .map(|(_, end)| *end)
                .position(|end| at < end)
                .expect("offset inside the log");
            let keep = if flipped_in == 0 {
                0
            } else {
                ops[flipped_in - 1].1
            };
            survived_prefix(keep)
        }
        Kind::BitFlipCheckpoint => {
            let ckpt = dir.join(CHECKPOINT_FILE);
            assert!(ckpt.exists(), "plan wrote a checkpoint");
            flip_bit(&ckpt, r);
            // Checkpoint discarded, WAL intact: full-log replay, full model.
            survived_prefix(checkpoint_cut_floor.max(total))
        }
        Kind::TornCheckpoint => {
            let ckpt = dir.join(CHECKPOINT_FILE);
            let bytes = std::fs::read(&ckpt).expect("plan wrote a checkpoint");
            let cut = (r % bytes.len() as u64) as usize;
            std::fs::write(&ckpt, &bytes[..cut]).expect("tear checkpoint");
            let stray = dir.join(format!("{CHECKPOINT_FILE}.tmp"));
            std::fs::write(&stray, &bytes[..bytes.len() - cut]).expect("stray tmp");
            // Torn checkpoint discarded, WAL intact: full-log replay.
            survived_prefix(checkpoint_cut_floor.max(total))
        }
        Kind::CorruptLinkCheckpoint => {
            let ckpt = dir.join(CHECKPOINT_FILE);
            assert!(ckpt.exists(), "plan wrote a checkpoint");
            corrupt_link(&ckpt, r);
            // The trailer still matches, the links do not: the image is
            // discarded and the WAL replays in full.
            survived_prefix(checkpoint_cut_floor.max(total))
        }
    };

    // Phase 3 — recover and compare against the oracle.
    let mut recovered =
        DurablePool::open(&dir).unwrap_or_else(|e| panic!("recovery failed ({kind:?}): {e}"));
    assert_matches(&recovered, &expect, &format!("seed {seed} ({kind:?})"));

    // Phase 4 — the recovered pool keeps serving: issue one more op through
    // the reopened log and recover again.
    let mut expect = expect;
    let more = gen_op(&mut s, &expect);
    issue(&mut recovered, &expect, &more, &mut c);
    expect.apply(&more);
    assert_matches(
        &recovered,
        &expect,
        &format!("seed {seed} ({kind:?}) post-recovery op"),
    );
    drop(recovered);
    let again = DurablePool::open(&dir)
        .unwrap_or_else(|e| panic!("second recovery failed ({kind:?}): {e}"));
    assert_matches(
        &again,
        &expect,
        &format!("seed {seed} ({kind:?}) re-recovery"),
    );
}

fn record_failing_seed(seed: u64, why: &str) {
    let _ = std::fs::create_dir_all("target");
    let _ = std::fs::write(
        "target/wal-failing-seed.txt",
        format!("seed={seed}\nreason={why}\n"),
    );
}

#[test]
fn wal_crash_fuzz_seeded_plans_vs_oracle() {
    let n = plan_count();
    let mut by_kind = std::collections::BTreeMap::new();
    for seed in 0..n {
        let kind = kind_for(seed);
        match std::panic::catch_unwind(|| run_plan(seed)) {
            Ok(()) => *by_kind.entry(format!("{kind:?}")).or_insert(0u64) += 1,
            Err(payload) => {
                let why = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "non-string panic payload".into());
                record_failing_seed(seed, &why);
                panic!("seed {seed} ({kind:?}) failed: {why}");
            }
        }
    }
    // Every crash kind must actually have been exercised.
    assert_eq!(
        by_kind.len() as u64,
        KINDS,
        "all plan kinds covered: {by_kind:?}"
    );
}
