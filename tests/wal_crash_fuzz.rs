//! WAL crash fuzzer: the durable pool driven under hundreds of seeded
//! crash plans — kills at arbitrary byte offsets, torn tail records,
//! bit-flipped logs and checkpoints, torn checkpoints, double recovery —
//! against a sorted-vec oracle.
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
//!   and keeps serving (the reopened WAL continues the sequence).
//!
//! Plan count defaults to 320, about 46 per kind (`WAL_CRASH_PLANS` raises
//! it; the soak job
//! sets `SOAK_STEPS`). A failing plan's seed is written to
//! `target/wal-failing-seed.txt` so CI uploads it as the repro artifact.

use std::path::{Path, PathBuf};

use meldpq::wal::{DurablePool, CHECKPOINT_FILE, WAL_FILE};
use meldpq::HeapPool;

fn plan_count() -> u64 {
    let explicit = std::env::var("WAL_CRASH_PLANS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok());
    let soak = std::env::var("SOAK_STEPS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .map(|steps| steps.max(256) / 16);
    explicit.or(soak).unwrap_or(320).max(320)
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
}

const KINDS: u64 = 7;

fn kind_for(seed: u64) -> Kind {
    match seed % KINDS {
        0 => Kind::KillAtOffset,
        1 => Kind::TornTail,
        2 => Kind::BitFlipWal,
        3 => Kind::BitFlipCheckpoint,
        4 => Kind::DoubleRecover,
        5 => Kind::TornCheckpoint,
        _ => Kind::CorruptLinkCheckpoint,
    }
}

/// The oracle: per-slot key multisets plus the free-slot stack, mirroring
/// `DurablePool`'s slot assignment exactly.
#[derive(Debug, Clone, Default)]
struct Model {
    slots: Vec<Option<Vec<i64>>>,
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
            .filter_map(|(i, s)| s.as_ref().map(|_| i as u32))
            .collect()
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::Create => {
                let slot = match self.free.pop() {
                    Some(s) => s,
                    None => {
                        self.slots.push(None);
                        (self.slots.len() - 1) as u32
                    }
                };
                self.slots[slot as usize] = Some(Vec::new());
            }
            Op::Insert { slot, key } => {
                self.slots[*slot as usize].as_mut().unwrap().push(*key);
            }
            Op::FromKeys { slot, keys } => {
                self.slots[*slot as usize]
                    .as_mut()
                    .unwrap()
                    .extend_from_slice(keys);
            }
            Op::ExtractMin { slot } => {
                let v = self.slots[*slot as usize].as_mut().unwrap();
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
                let v = self.slots[*slot as usize].as_mut().unwrap();
                v.sort_unstable();
                let take = (*k).min(v.len());
                v.drain(..take);
            }
            Op::Meld { dst, src } => {
                let moved = self.slots[*src as usize].take().unwrap();
                self.free.push(*src);
                self.slots[*dst as usize].as_mut().unwrap().extend(moved);
            }
            Op::Free { slot } => {
                self.slots[*slot as usize] = None;
                self.free.push(*slot);
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

fn issue(pool: &mut DurablePool, op: &Op) {
    let r = match op {
        Op::Create => pool.create_heap().map(|_| ()),
        Op::Insert { slot, key } => pool.insert(*slot, *key),
        Op::FromKeys { slot, keys } => pool.from_keys(*slot, keys),
        Op::ExtractMin { slot } => pool.extract_min(*slot).map(|_| ()),
        Op::MultiExtractMin { slot, k } => pool.multi_extract_min(*slot, *k).map(|_| ()),
        Op::Meld { dst, src } => pool.meld(*dst, *src),
        Op::Free { slot } => pool.free_heap(*slot),
    };
    r.unwrap_or_else(|e| panic!("live op {op:?} failed: {e}"));
}

/// Assert the recovered pool is exactly the model: same live slots, same
/// key multiset per slot, structurally valid.
fn assert_matches(pool: &DurablePool, model: &Model, ctx: &str) {
    pool.validate()
        .unwrap_or_else(|e| panic!("{ctx}: recovered pool structurally invalid: {e}"));
    assert_eq!(
        pool.live_slots(),
        model.live(),
        "{ctx}: live slots diverged"
    );
    for slot in model.live() {
        let mut want = model.slots[slot as usize].clone().unwrap();
        want.sort_unstable();
        let mut got = pool
            .keys_unsorted(slot)
            .unwrap_or_else(|| panic!("{ctx}: slot {slot} missing"));
        got.sort_unstable();
        assert_eq!(got, want, "{ctx}: slot {slot} keys diverged");
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

/// One seeded crash plan, end to end. Panics on contract violation.
fn run_plan(seed: u64) {
    let kind = kind_for(seed);
    let tmp = TmpDir::new(seed);
    let dir = tmp.0.clone();
    let wal_path = dir.join(WAL_FILE);
    let mut s = seed ^ 0xC0FFEE;

    // Phase 1 — live run: issue ops, tracking each op's model delta and the
    // WAL byte offset its record ends at.
    let n_ops = 24 + (splitmix(&mut s) % 40) as usize;
    let mut pool = DurablePool::open(&dir).expect("fresh open");
    // No automatic checkpoints: a checkpoint is written *after* its WAL
    // prefix is durable, so cutting the log before an auto-checkpoint's
    // position would simulate a crash that cannot happen. Plans that want a
    // checkpoint write one explicitly and only cut after it.
    pool.set_checkpoint_every(u64::MAX);
    let mut model = Model::default();
    let mut ops: Vec<(Op, u64)> = Vec::new(); // op + offset its record ends at
    let mut checkpoint_cut_floor = 0u64; // earliest legal cut offset
    for i in 0..n_ops {
        let op = gen_op(&mut s, &model);
        issue(&mut pool, &op);
        model.apply(&op);
        ops.push((op, pool.wal_bytes()));
        if matches!(
            kind,
            Kind::BitFlipCheckpoint | Kind::TornCheckpoint | Kind::CorruptLinkCheckpoint
        ) && i == n_ops / 2
        {
            pool.checkpoint().expect("explicit checkpoint");
            checkpoint_cut_floor = pool.wal_bytes();
        }
    }
    let total = pool.wal_bytes();
    drop(pool); // crash: the BufWriter flushes, then we mutilate the files

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
    let (cut, expect) = match kind {
        Kind::KillAtOffset | Kind::DoubleRecover => {
            let cut = r % (total + 1);
            std::fs::OpenOptions::new()
                .write(true)
                .open(&wal_path)
                .and_then(|f| f.set_len(cut))
                .expect("truncate wal");
            (cut, survived_prefix(cut))
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
            (cut, survived_prefix(last_start))
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
            (at, survived_prefix(keep))
        }
        Kind::BitFlipCheckpoint => {
            let ckpt = dir.join(CHECKPOINT_FILE);
            assert!(ckpt.exists(), "plan wrote a checkpoint");
            flip_bit(&ckpt, r);
            // Checkpoint discarded, WAL intact: full-log replay, full model.
            (checkpoint_cut_floor.max(total), survived_prefix(total))
        }
        Kind::TornCheckpoint => {
            let ckpt = dir.join(CHECKPOINT_FILE);
            let bytes = std::fs::read(&ckpt).expect("plan wrote a checkpoint");
            let cut = (r % bytes.len() as u64) as usize;
            std::fs::write(&ckpt, &bytes[..cut]).expect("tear checkpoint");
            let stray = dir.join(format!("{CHECKPOINT_FILE}.tmp"));
            std::fs::write(&stray, &bytes[..bytes.len() - cut]).expect("stray tmp");
            // Torn checkpoint discarded, WAL intact: full-log replay.
            (checkpoint_cut_floor.max(total), survived_prefix(total))
        }
        Kind::CorruptLinkCheckpoint => {
            let ckpt = dir.join(CHECKPOINT_FILE);
            assert!(ckpt.exists(), "plan wrote a checkpoint");
            corrupt_link(&ckpt, r);
            // The trailer still matches, the links do not: the image is
            // discarded and the WAL replays in full.
            (checkpoint_cut_floor.max(total), survived_prefix(total))
        }
    };
    let _ = cut;

    // Phase 3 — recover and compare against the oracle.
    let recovered = HeapPool::<i64>::recover(&dir)
        .unwrap_or_else(|e| panic!("recovery failed ({kind:?}): {e}"));
    assert_matches(&recovered, &expect, &format!("seed {seed} ({kind:?})"));

    // Phase 4 — the recovered pool keeps serving: issue one more op through
    // the reopened log and recover again.
    let mut recovered = recovered;
    let mut expect = expect;
    let more = gen_op(&mut s, &expect);
    issue(&mut recovered, &more);
    expect.apply(&more);
    assert_matches(
        &recovered,
        &expect,
        &format!("seed {seed} ({kind:?}) post-recovery op"),
    );
    drop(recovered);
    let again = HeapPool::<i64>::recover(&dir)
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
