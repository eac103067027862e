//! Durability: a write-ahead log + checkpoints for [`HeapPool`] (DESIGN.md
//! §15).
//!
//! The pooled arena is a single contiguous slab — the ideal persistence
//! unit. This module makes it survive restarts with the classic redo-log
//! discipline:
//!
//! * **WAL** (`wal.log`): every logical mutation is appended *before* it is
//!   applied in memory. Records are fixed-width `u64` little-endian words —
//!   `[N][payload × N][crc]` — where the trailer word is FNV-1a folded one
//!   64-bit word at a time over the length word plus payload (the chaos
//!   network's trailer-word idea, widened from bytes to words so hashing a
//!   multi-KiB `from_keys` record costs ⅛ the multiplies and stays off the
//!   append path's critical ns budget). The payload is `[seq, tag, args…]`.
//! * **Checkpoints** (`checkpoint.bin`): the whole slab + root tables as
//!   one stream of the same `u64` LE words with the same word-folded
//!   FNV-1a trailer, folded as the words stream out through one
//!   `BufWriter` to a temp file that is `sync_data`'d and atomically
//!   renamed, after which the directory itself is `sync_all`'d so the
//!   rename survives a power cut, not just a process kill. Every slab
//!   slot, free or live, is a fixed 3-word record of the arena's node; the
//!   full layout is on [`write_checkpoint`]. The reader treats the image as
//!   untrusted input: a length that is not a multiple of 8, a bad trailer,
//!   magic or version, a count or id that overflows or outruns the image,
//!   a link naming a dead or out-of-range slot, a sibling chain whose
//!   length is not its node's degree, a duplicate heap slot or leftover
//!   words discards it; the recovered pool then goes through
//!   `check_pool`.
//!   A checkpoint bounds replay work; the WAL keeps its full history so a
//!   discarded checkpoint degrades to a full genesis replay, never to data
//!   loss. For the same reason a `checkpoint.json` from the earlier JSON
//!   format is simply not read: that directory replays from genesis and
//!   its next checkpoint is binary.
//! * **Cadence** ([`CheckpointCadence`]): an automatic checkpoint is due
//!   once at least [`CheckpointCadence::MIN_OPS`] ops were logged since
//!   the last one *and* the log has grown by at least the last image's
//!   size. The images written then total at most the log's own size plus
//!   the latest image — O(1) checkpoint bytes per logged byte however
//!   many keys are live — and recovery replays at most one image's worth
//!   of log past the checkpoint, or the op floor's records. The service's
//!   shards and [`DurablePool`] share it.
//! * **Recovery** ([`HeapPool::recover`] / [`recover_dir`]): load the last
//!   valid checkpoint (if any), replay every WAL record with a later
//!   sequence number, and truncate the log at the first torn or
//!   CRC-failing record. The recovered pool must pass
//!   [`check_pool`] before it is served.
//!
//! Torn-write rules: a record is accepted iff it is completely present and
//! its trailer CRC matches; the first rejected record ends the log — all
//! prior records are preserved, everything from the tear onward is
//! discarded (and physically truncated, so the next append starts on a
//! record boundary). Because appends happen *ahead* of the in-memory
//! mutation, the recovered state can only be **ahead** of what a crashed
//! process had applied, never behind what it acknowledged.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use obs::flight::{self, EventKind};

use crate::arena::{Arena, Node, NodeId};
use crate::check::check_pool;
use crate::pool::{CapacityError, HeapPool, PooledHeap};

/// The second parameter of [`recover_dir`], which recovery ignores. The
/// crate plans every host `Union` with one planner
/// ([`crate::plan::build_plan_into`]), so there is nothing to choose; the
/// type stays, with its one variant, only because the `perfbench/` harness
/// compiles against `recover_dir`'s two-parameter signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The sequential planner, the only one.
    Sequential,
}

/// The log file inside a durability directory.
pub const WAL_FILE: &str = "wal.log";
/// The checkpoint file inside a durability directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";

/// Upper bound on a record's payload word count — anything larger is
/// treated as a tear (a real record of this size would be a ~0.5 GiB
/// `from_keys`, far beyond any admission path).
const MAX_PAYLOAD_WORDS: u64 = 1 << 26;

// FNV-1a, the same constants as the chaos network's frame trailer.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Word-granular FNV-1a for WAL record and checkpoint trailers: one
/// xor+multiply per `u64` word instead of per byte. Records are all-words
/// already, and a bulk `FromKeys` record can be multiple KiB — the byte
/// loop's serial multiply chain (~1 ns/byte) would dominate the append
/// path that the `wal_append_overhead` bench gate bounds at 1.15×.
fn fnv1a_words(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(FNV_OFFSET, fnv1a_step)
}

/// One word of the FNV-1a fold — shared with the streamed checkpoint
/// writer, which folds its trailer as it goes.
fn fnv1a_step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FNV_PRIME)
}

/// One logical pool mutation, as logged. Slots and generations are the
/// *caller's* handle space (the service's queue table or
/// [`DurablePool`]'s slot table) so recovered handles stay valid across a
/// restart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// A heap was created at `slot` with generation `gen`.
    CreateHeap {
        /// Slot index in the owner's table.
        slot: u32,
        /// Generation stamped into handles for this incarnation.
        gen: u32,
    },
    /// One key was inserted into the heap at `slot`.
    Insert {
        /// Target slot.
        slot: u32,
        /// The inserted key.
        key: i64,
    },
    /// A batch of keys was inserted into the heap at `slot` with one
    /// `HeapPool::multi_insert`.
    FromKeys {
        /// Target slot.
        slot: u32,
        /// The admitted keys, in submission order.
        keys: Vec<i64>,
    },
    /// `Extract-Min` ran against the heap at `slot`.
    ExtractMin {
        /// Target slot.
        slot: u32,
    },
    /// `Multi-Extract-Min(k)` ran against the heap at `slot`.
    MultiExtractMin {
        /// Target slot.
        slot: u32,
        /// Number of keys requested (clamped to the heap length on apply).
        k: u64,
    },
    /// The heap at `src` was melded into the heap at `dst`; `src` died.
    Meld {
        /// Surviving slot.
        dst: u32,
        /// Consumed slot.
        src: u32,
    },
    /// The heap at `slot` was destroyed.
    FreeHeap {
        /// Target slot.
        slot: u32,
    },
}

impl WalOp {
    fn tag(&self) -> u64 {
        match self {
            WalOp::CreateHeap { .. } => 1,
            WalOp::Insert { .. } => 2,
            WalOp::FromKeys { .. } => 3,
            WalOp::ExtractMin { .. } => 4,
            WalOp::MultiExtractMin { .. } => 5,
            WalOp::Meld { .. } => 6,
            WalOp::FreeHeap { .. } => 7,
        }
    }

    /// The argument words that follow `[seq, tag]`: up to two fixed words,
    /// then a `FromKeys` record's keys.
    fn arg_words(&self) -> impl Iterator<Item = u64> + '_ {
        let (fixed, keys): ([u64; 2], &[i64]) = match self {
            WalOp::CreateHeap { slot, gen } => ([*slot as u64, *gen as u64], &[]),
            WalOp::Insert { slot, key } => ([*slot as u64, *key as u64], &[]),
            WalOp::FromKeys { slot, keys } => ([*slot as u64, keys.len() as u64], keys),
            WalOp::ExtractMin { slot } | WalOp::FreeHeap { slot } => ([*slot as u64, 0], &[]),
            WalOp::MultiExtractMin { slot, k } => ([*slot as u64, *k], &[]),
            WalOp::Meld { dst, src } => ([*dst as u64, *src as u64], &[]),
        };
        let fixed_len = self.arg_len() - keys.len();
        fixed
            .into_iter()
            .take(fixed_len)
            .chain(keys.iter().map(|k| *k as u64))
    }

    /// Number of words [`WalOp::arg_words`] emits.
    fn arg_len(&self) -> usize {
        match self {
            WalOp::FromKeys { keys, .. } => 2 + keys.len(),
            WalOp::ExtractMin { .. } | WalOp::FreeHeap { .. } => 1,
            _ => 2,
        }
    }

    /// Bytes this op's record takes in the log: `[N][seq, tag, args…][crc]`.
    fn record_len(&self) -> u64 {
        8 * (self.arg_len() as u64 + 4)
    }

    /// Decode from the payload words that follow `[seq, tag]`.
    fn from_words(tag: u64, args: &[u64]) -> Option<WalOp> {
        let slot32 = |w: u64| u32::try_from(w).ok();
        match tag {
            1 => Some(WalOp::CreateHeap {
                slot: slot32(*args.first()?)?,
                gen: slot32(*args.get(1)?)?,
            }),
            2 => Some(WalOp::Insert {
                slot: slot32(*args.first()?)?,
                key: *args.get(1)? as i64,
            }),
            3 => {
                let slot = slot32(*args.first()?)?;
                let n = usize::try_from(*args.get(1)?).ok()?;
                let words = args.get(2..)?;
                if words.len() != n {
                    return None;
                }
                Some(WalOp::FromKeys {
                    slot,
                    keys: words.iter().map(|w| *w as i64).collect(),
                })
            }
            4 => Some(WalOp::ExtractMin {
                slot: slot32(*args.first()?)?,
            }),
            5 => Some(WalOp::MultiExtractMin {
                slot: slot32(*args.first()?)?,
                k: *args.get(1)?,
            }),
            6 => Some(WalOp::Meld {
                dst: slot32(*args.first()?)?,
                src: slot32(*args.get(1)?)?,
            }),
            7 => Some(WalOp::FreeHeap {
                slot: slot32(*args.first()?)?,
            }),
            _ => None,
        }
    }
}

/// Encode one record, `[N][seq, tag, args…][crc]`, all `u64` LE, straight
/// into `out`, folding the CRC word by word. Returns the bytes written.
fn encode_record(out: &mut impl Write, seq: u64, op: &WalOp) -> std::io::Result<u64> {
    let n = 2 + op.arg_len() as u64;
    let mut crc = FNV_OFFSET;
    for w in [n, seq, op.tag()].into_iter().chain(op.arg_words()) {
        crc = fnv1a_step(crc, w);
        out.write_all(&w.to_le_bytes())?;
    }
    out.write_all(&crc.to_le_bytes())?;
    Ok(op.record_len())
}

/// A durability failure.
#[derive(Debug)]
pub enum WalError {
    /// The underlying file system said no.
    Io(std::io::Error),
    /// The log or checkpoint is internally inconsistent beyond the
    /// torn-tail rules (e.g. a replayed op names an occupied slot, or the
    /// recovered pool fails `check_pool`).
    Corrupt {
        /// Sequence number of the offending record (0 when unknown).
        seq: u64,
        /// What was wrong.
        reason: String,
    },
    /// An op named a slot with no live heap.
    UnknownSlot(u32),
    /// A logged `FromKeys` batch no longer fits the `u32` id space.
    Capacity(CapacityError),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Corrupt { seq, reason } => {
                write!(f, "wal corrupt at seq {seq}: {reason}")
            }
            WalError::UnknownSlot(s) => write!(f, "wal op names unknown slot {s}"),
            WalError::Capacity(e) => write!(f, "wal replay refused: {e}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<CapacityError> for WalError {
    fn from(e: CapacityError) -> Self {
        WalError::Capacity(e)
    }
}

/// Appender for one WAL file. Buffered; [`WalWriter::flush`] pushes the
/// bytes to the OS (surviving a process kill), [`WalWriter::sync`] forces
/// them to the device.
#[derive(Debug)]
pub struct WalWriter {
    file: BufWriter<File>,
    next_seq: u64,
    bytes: u64,
}

impl WalWriter {
    /// Create (or truncate) a fresh log at `path`; sequence numbers start
    /// at 1.
    pub fn create(path: &Path) -> std::io::Result<WalWriter> {
        let file = File::create(path)?;
        Ok(WalWriter {
            file: BufWriter::new(file),
            next_seq: 1,
            bytes: 0,
        })
    }

    /// Open `path` for appending after recovery decided `next_seq`.
    pub fn append_to(path: &Path, next_seq: u64) -> std::io::Result<WalWriter> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let bytes = file.metadata()?.len();
        Ok(WalWriter {
            file: BufWriter::new(file),
            next_seq,
            bytes,
        })
    }

    /// Append one op, returning the sequence number it was logged under.
    pub fn append(&mut self, op: &WalOp) -> std::io::Result<u64> {
        let seq = self.next_seq;
        let len = encode_record(&mut self.file, seq, op)?;
        self.next_seq += 1;
        self.bytes += len;
        flight::record_here(EventKind::WalAppend, len);
        Ok(seq)
    }

    /// Push buffered records to the OS. Call before applying the op in
    /// memory — that ordering is the whole write-ahead contract.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }

    /// Flush and `fsync` to the device (checkpoint boundaries).
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.flush()?;
        self.file.get_ref().sync_data()
    }

    /// The sequence number the next append will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Total bytes in the log including this writer's appends — the byte
    /// offset a crash harness can cut at.
    pub fn bytes_logged(&self) -> u64 {
        self.bytes
    }
}

/// The readable prefix of a WAL file.
#[derive(Debug, Default)]
pub struct WalRead {
    /// Every record that survived framing + CRC, in log order.
    pub records: Vec<(u64, WalOp)>,
    /// Byte length of the valid prefix (recovery truncates to this).
    pub valid_len: u64,
    /// Byte length of the file as found on disk.
    pub file_len: u64,
}

/// Read a WAL, stopping at the first torn or CRC-failing record. A missing
/// file reads as empty — genesis is an absent log.
pub fn read_wal(path: &Path) -> std::io::Result<WalRead> {
    let mut buf = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut buf)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let mut out = WalRead {
        file_len: buf.len() as u64,
        ..WalRead::default()
    };
    let word = |at: usize| -> u64 {
        let mut w = [0u8; 8];
        w.copy_from_slice(&buf[at..at + 8]);
        u64::from_le_bytes(w)
    };
    let mut pos = 0usize;
    while pos + 8 <= buf.len() {
        let n = word(pos);
        // Payload must at least hold [seq, tag]; an absurd length is a tear.
        if !(2..=MAX_PAYLOAD_WORDS).contains(&n) {
            break;
        }
        let n = n as usize;
        let total = 8 * (n + 2);
        let Some(end) = pos.checked_add(total) else {
            break;
        };
        if end > buf.len() {
            break;
        }
        let crc = fnv1a_words((0..=n).map(|i| word(pos + 8 * i)));
        if crc != word(pos + 8 * (n + 1)) {
            break;
        }
        let seq = word(pos + 8);
        let tag = word(pos + 16);
        let args: Vec<u64> = (2..n).map(|i| word(pos + 8 * (1 + i))).collect();
        let Some(op) = WalOp::from_words(tag, &args) else {
            break;
        };
        out.records.push((seq, op));
        pos = end;
        out.valid_len = pos as u64;
    }
    Ok(out)
}

/// Physically truncate a log to its valid prefix.
pub fn truncate_wal(path: &Path, len: u64) -> std::io::Result<()> {
    let f = OpenOptions::new().write(true).open(path)?;
    f.set_len(len)
}

/// First word of a checkpoint image (`"MPQCKPT\0"` little-endian).
const CHECKPOINT_MAGIC: u64 = u64::from_le_bytes(*b"MPQCKPT\0");
/// Checkpoint image layout version. Version 1 stored a node as `3 +
/// degree` words; its images are not read (recovery replays from genesis).
const CHECKPOINT_VERSION: u64 = 2;
/// Words per slab slot in a checkpoint image.
const SLOT_WORDS: usize = 3;
/// An absent root in a checkpoint image. No id takes this value.
const NIL: u64 = u64::MAX;

/// Streams `u64` LE words to `out`, folding each into the FNV-1a trailer.
struct WordWriter<W: Write> {
    out: W,
    crc: u64,
}

impl<W: Write> WordWriter<W> {
    fn new(out: W) -> Self {
        WordWriter {
            out,
            crc: FNV_OFFSET,
        }
    }

    fn words(&mut self, words: impl IntoIterator<Item = u64>) -> std::io::Result<()> {
        for w in words {
            self.crc = fnv1a_step(self.crc, w);
            self.out.write_all(&w.to_le_bytes())?;
        }
        Ok(())
    }

    /// Append the trailer word and hand back the sink.
    fn finish(mut self) -> std::io::Result<W> {
        let crc = self.crc;
        self.out.write_all(&crc.to_le_bytes())?;
        Ok(self.out)
    }
}

/// Reads `u64` LE words from a byte image. Every accessor returns `None`
/// on exhaustion or an out-of-range value.
struct Words<'a>(std::slice::ChunksExact<'a, u8>);

impl<'a> Words<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Words(bytes.chunks_exact(8))
    }

    /// Words not yet read.
    fn left(&self) -> usize {
        self.0.len()
    }

    /// A count of items still to come. Each takes at least one word, so a
    /// count above the words left is corruption — and it never gets to
    /// size an allocation.
    fn fits(&self, n: u64) -> Option<usize> {
        usize::try_from(n).ok().filter(|&n| n <= self.left())
    }

    fn next_count(&mut self) -> Option<usize> {
        let n = self.next()?;
        self.fits(n)
    }

    fn u32(&mut self) -> Option<u32> {
        u32::try_from(self.next()?).ok()
    }

    /// A node id, or `Some(None)` for the `NIL` tombstone.
    fn opt_id(&mut self) -> Option<Option<NodeId>> {
        match self.next()? {
            NIL => Some(None),
            w => u32::try_from(w).ok().map(|v| Some(NodeId(v))),
        }
    }
}

impl Iterator for Words<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let chunk = <[u8; 8]>::try_from(self.0.next()?).ok()?;
        Some(u64::from_le_bytes(chunk))
    }
}

/// Stream the slab + root tables to `dir/checkpoint.bin` (temp file +
/// `sync_data` + rename) under checkpoint sequence `seq` — replay then
/// skips every record with `seq' <= seq` — then `sync_all` the directory
/// so the rename itself is durable. Returns the image's size in bytes,
/// which sets the next [`CheckpointCadence`] interval. The image is `u64`
/// LE words (version 2):
///
/// ```text
/// [magic, version, seq, n_slots, n_free, n_heaps, n_free_slots]
/// n_slots × [key, parent | child << 32, sibling | degree << 32]
/// n_free  × slot                          free list, pop order
/// n_heaps × [slot, gen, len, n_roots, (root|NIL) × n_roots]
/// n_free_slots × [slot, gen]
/// crc                                     FNV-1a over every word before it
/// ```
///
/// A slot record is the arena's node as it stands: `u32` link words with
/// `u32::MAX` for none, `child` the highest-order child and `sibling` the
/// next lower-order one. A free slot has every link `u32::MAX` and degree
/// `u32::MAX`; its key word is whatever the slot last held.
pub fn write_checkpoint<'a, I>(
    dir: &Path,
    seq: u64,
    pool: &HeapPool<i64>,
    heaps: I,
    free_slots: &[(u32, u32)],
) -> std::io::Result<u64>
where
    I: IntoIterator<Item = (u32, u32, &'a PooledHeap)>,
{
    // The queue table, not the slab: collected because its length leads
    // the image.
    let heaps: Vec<(u32, u32, &PooledHeap)> = heaps.into_iter().collect();
    let slab = pool.arena().raw_slots();
    let free = pool.arena().free_list();
    let tmp = dir.join(format!("{CHECKPOINT_FILE}.tmp"));
    let mut out = WordWriter::new(BufWriter::with_capacity(1 << 16, File::create(&tmp)?));
    out.words([
        CHECKPOINT_MAGIC,
        CHECKPOINT_VERSION,
        seq,
        slab.len() as u64,
        free.len() as u64,
        heaps.len() as u64,
        free_slots.len() as u64,
    ])?;
    for n in slab {
        out.words([
            n.key as u64,
            n.parent as u64 | (n.child as u64) << 32,
            n.sibling as u64 | (n.degree as u64) << 32,
        ])?;
    }
    out.words(free.iter().map(|&f| f as u64))?;
    for (slot, gen, h) in &heaps {
        out.words([
            *slot as u64,
            *gen as u64,
            h.len() as u64,
            h.roots().len() as u64,
        ])?;
        out.words(h.roots().iter().map(|r| r.map_or(NIL, |id| id.0 as u64)))?;
    }
    out.words(free_slots.iter().flat_map(|&(s, g)| [s as u64, g as u64]))?;
    let file = out.finish()?.into_inner().map_err(|e| e.into_error())?;
    file.sync_data()?;
    let image = file.metadata()?.len();
    drop(file);
    std::fs::rename(&tmp, dir.join(CHECKPOINT_FILE))?;
    File::open(dir)?.sync_all()?;
    flight::record_here(EventKind::Checkpoint, seq);
    Ok(image)
}

/// The low and high `u32` halves of a slot-record word.
fn split_word(w: u64) -> (u32, u32) {
    (w as u32, (w >> 32) as u32)
}

/// A checkpoint decoded back into live structures.
struct RecoveredCheckpoint {
    seq: u64,
    /// Size of the image on disk, bytes.
    image: u64,
    pool: HeapPool<i64>,
    heaps: Vec<Option<(u32, PooledHeap)>>,
    free_slots: Vec<(u32, u32)>,
}

/// Load `dir/checkpoint.bin`. The image crosses a trust boundary, so any
/// failure — missing file, length not a multiple of 8, trailer mismatch,
/// wrong magic or version (a version-1 image included), a value that
/// overflows `u32`/`usize`, a slot count the words left cannot hold, a
/// link naming a dead or out-of-range slot, a sibling chain whose length
/// is not its node's degree, a duplicate heap slot, leftover words, an
/// inconsistent free list — yields `None`: the checkpoint is advisory,
/// recovery then replays the WAL from genesis.
fn read_checkpoint(dir: &Path) -> Option<RecoveredCheckpoint> {
    let bytes = std::fs::read(dir.join(CHECKPOINT_FILE)).ok()?;
    if bytes.len() % 8 != 0 {
        return None;
    }
    let (body, trailer) = bytes.split_at(bytes.len().checked_sub(8)?);
    if fnv1a_words(Words::new(body)) != Words::new(trailer).next()? {
        return None;
    }
    let mut r = Words::new(body);
    if r.next()? != CHECKPOINT_MAGIC || r.next()? != CHECKPOINT_VERSION {
        return None;
    }
    let seq = r.next()?;
    let n_slots = r.next_count()?;
    let n_free = r.next_count()?;
    let n_heaps = r.next_count()?;
    let n_free_slots = r.next_count()?;
    if n_slots > r.left() / SLOT_WORDS {
        return None;
    }
    let mut nodes: Vec<Node<i64>> = Vec::with_capacity(n_slots);
    for _ in 0..n_slots {
        let key = r.next()? as i64;
        let (parent, child) = split_word(r.next()?);
        let (sibling, degree) = split_word(r.next()?);
        nodes.push(Node {
            key,
            parent,
            child,
            sibling,
            degree,
        });
    }
    // `from_raw_parts` checks every link and chain length: `check_pool`
    // walks children through the slab and must never index past it.
    let free = (0..n_free).map(|_| r.u32()).collect::<Option<Vec<u32>>>()?;
    let pool = HeapPool::from_arena(Arena::from_raw_parts(nodes, free)?);
    let mut heaps: Vec<Option<(u32, PooledHeap)>> = Vec::new();
    for _ in 0..n_heaps {
        let slot = r.u32()? as usize;
        let gen = r.u32()?;
        let len = usize::try_from(r.next()?).ok()?;
        let n_roots = r.next_count()?;
        let roots = (0..n_roots)
            .map(|_| r.opt_id())
            .collect::<Option<Vec<Option<NodeId>>>>()?;
        if heaps.len() <= slot {
            heaps.resize_with(slot + 1, || None);
        }
        if heaps[slot].is_some() {
            return None;
        }
        heaps[slot] = Some((gen, pool.restore_heap(roots, len)));
    }
    let free_slots = (0..n_free_slots)
        .map(|_| Some((r.u32()?, r.u32()?)))
        .collect::<Option<Vec<(u32, u32)>>>()?;
    if r.left() != 0 {
        return None;
    }
    Some(RecoveredCheckpoint {
        seq,
        image: bytes.len() as u64,
        pool,
        heaps,
        free_slots,
    })
}

/// Apply one logged op to a pool + slot table. Shared by replay and the
/// live [`DurablePool`] path so the two can never diverge. Returns the
/// extracted keys (empty for non-extracting ops).
fn apply_op(
    pool: &mut HeapPool<i64>,
    slots: &mut Vec<Option<(u32, PooledHeap)>>,
    free_slots: &mut Vec<(u32, u32)>,
    seq: u64,
    op: &WalOp,
) -> Result<Vec<i64>, WalError> {
    fn live(
        slots: &mut [Option<(u32, PooledHeap)>],
        s: u32,
    ) -> Result<&mut (u32, PooledHeap), WalError> {
        slots
            .get_mut(s as usize)
            .and_then(Option::as_mut)
            .ok_or(WalError::UnknownSlot(s))
    }
    fn take_live(
        slots: &mut [Option<(u32, PooledHeap)>],
        s: u32,
    ) -> Result<(u32, PooledHeap), WalError> {
        slots
            .get_mut(s as usize)
            .and_then(Option::take)
            .ok_or(WalError::UnknownSlot(s))
    }
    match op {
        WalOp::CreateHeap { slot, gen } => {
            let i = *slot as usize;
            if slots.len() <= i {
                slots.resize_with(i + 1, || None);
            }
            if slots[i].is_some() {
                return Err(WalError::Corrupt {
                    seq,
                    reason: format!("create_heap on occupied slot {slot}"),
                });
            }
            // Retire the free-list entry this create consumed (search from
            // the back: allocation is LIFO).
            if let Some(at) = free_slots.iter().rposition(|(s, _)| s == slot) {
                free_slots.remove(at);
            }
            slots[i] = Some((*gen, pool.new_heap()));
            Ok(Vec::new())
        }
        WalOp::Insert { slot, key } => {
            let (_, heap) = live(slots, *slot)?;
            pool.insert(heap, *key);
            Ok(Vec::new())
        }
        WalOp::FromKeys { slot, keys } => {
            let (_, heap) = live(slots, *slot)?;
            pool.multi_insert(heap, keys)?;
            Ok(Vec::new())
        }
        WalOp::ExtractMin { slot } => {
            let (_, heap) = live(slots, *slot)?;
            Ok(pool.extract_min(heap).into_iter().collect())
        }
        WalOp::MultiExtractMin { slot, k } => {
            let (_, heap) = live(slots, *slot)?;
            let k = usize::try_from(*k).unwrap_or(usize::MAX).min(heap.len());
            Ok(pool.multi_extract_min(heap, k))
        }
        WalOp::Meld { dst, src } => {
            if dst == src {
                return Err(WalError::Corrupt {
                    seq,
                    reason: format!("meld of slot {dst} into itself"),
                });
            }
            live(slots, *dst)?; // refuse before `src` is taken
            let (sgen, sheap) = take_live(slots, *src)?;
            let (_, dheap) = live(slots, *dst)?;
            pool.meld(dheap, sheap);
            free_slots.push((*src, sgen.wrapping_add(1)));
            Ok(Vec::new())
        }
        WalOp::FreeHeap { slot } => {
            let (gen, heap) = take_live(slots, *slot)?;
            pool.free_heap(heap);
            free_slots.push((*slot, gen.wrapping_add(1)));
            Ok(Vec::new())
        }
    }
}

/// Everything recovery reconstructs from a durability directory. The
/// service's shard recovery and [`DurablePool::open`] both build on this.
pub struct RecoveredState {
    /// The pool, checkpoint-restored and replayed up to the valid WAL tail.
    pub pool: HeapPool<i64>,
    /// Slot table: `heaps[slot] = Some((generation, heap))` for live slots.
    pub heaps: Vec<Option<(u32, PooledHeap)>>,
    /// Recyclable `(slot, next_generation)` pairs.
    pub free_slots: Vec<(u32, u32)>,
    /// Sequence number the next append must use.
    pub next_seq: u64,
    /// WAL records replayed on top of the checkpoint.
    pub replayed: usize,
    /// The checkpoint cadence to resume with: the loaded image's size,
    /// with the replayed suffix counted as logged since it.
    pub cadence: CheckpointCadence,
}

/// Recover a durability directory: last valid checkpoint + WAL suffix
/// replay + physical truncation of any torn tail. The result has passed
/// `check_pool`; a missing directory recovers to the empty state.
/// `_engine` is ignored (see [`Engine`]).
pub fn recover_dir(dir: &Path, _engine: Engine) -> Result<RecoveredState, WalError> {
    std::fs::create_dir_all(dir)?;
    let (ckpt_seq, image, mut pool, mut heaps, mut free_slots) = match read_checkpoint(dir) {
        Some(c) => (c.seq, c.image, c.pool, c.heaps, c.free_slots),
        None => (0, 0, HeapPool::new(), Vec::new(), Vec::new()),
    };
    let wal_path = dir.join(WAL_FILE);
    let log = read_wal(&wal_path)?;
    if log.valid_len < log.file_len {
        truncate_wal(&wal_path, log.valid_len)?;
    }
    let mut last_seq = ckpt_seq;
    let mut replayed = 0usize;
    let mut replayed_bytes = 0u64;
    for (seq, op) in &log.records {
        if *seq <= ckpt_seq {
            continue; // already folded into the checkpoint
        }
        if *seq <= last_seq {
            return Err(WalError::Corrupt {
                seq: *seq,
                reason: format!("sequence went backwards (after {last_seq})"),
            });
        }
        apply_op(&mut pool, &mut heaps, &mut free_slots, *seq, op)?;
        last_seq = *seq;
        replayed += 1;
        replayed_bytes += op.record_len();
    }
    let refs: Vec<&PooledHeap> = heaps.iter().flatten().map(|(_, h)| h).collect();
    check_pool(&pool, &refs).map_err(|reason| WalError::Corrupt {
        seq: last_seq,
        reason,
    })?;
    flight::record_here(EventKind::Recover, replayed as u64);
    Ok(RecoveredState {
        pool,
        heaps,
        free_slots,
        next_seq: last_seq + 1,
        replayed,
        cadence: CheckpointCadence {
            ops: replayed as u64,
            log_mark: log.valid_len.saturating_sub(replayed_bytes),
            image,
            ..CheckpointCadence::default()
        },
    })
}

/// When an automatic checkpoint is due: once at least `min_ops` ops were
/// logged since the last checkpoint *and* the log has grown by at least
/// as many bytes as that checkpoint's image. A checkpoint rewrites the
/// whole slab, so pacing it by the last image's size keeps checkpoint
/// bytes per logged byte O(1) however many keys are live; the op floor
/// keeps a small or empty pool from checkpointing on every op.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointCadence {
    /// Fewer ops than this since the last checkpoint never make one due.
    min_ops: u64,
    /// Ops logged since the last checkpoint.
    ops: u64,
    /// Log length in bytes when the last checkpoint was taken.
    log_mark: u64,
    /// Size in bytes of the last checkpoint image (0 before the first).
    image: u64,
}

impl Default for CheckpointCadence {
    /// A fresh log with no checkpoint: the op floor alone decides.
    fn default() -> Self {
        CheckpointCadence {
            min_ops: CheckpointCadence::MIN_OPS,
            ops: 0,
            log_mark: 0,
            image: 0,
        }
    }
}

impl CheckpointCadence {
    /// The default op floor.
    pub const MIN_OPS: u64 = 1024;

    /// Count one logged op.
    pub fn logged(&mut self) {
        self.ops += 1;
    }

    /// Whether a checkpoint is due now that the log is `log_bytes` long.
    pub fn due(&self, log_bytes: u64) -> bool {
        self.ops >= self.min_ops && log_bytes.saturating_sub(self.log_mark) >= self.image
    }

    /// Restart the count after a checkpoint of `image` bytes, taken when
    /// the log was `log_bytes` long.
    pub fn checkpointed(&mut self, log_bytes: u64, image: u64) {
        self.ops = 0;
        self.log_mark = log_bytes;
        self.image = image;
    }

    /// Set the op floor (`u64::MAX` disables automatic checkpoints).
    pub fn set_min_ops(&mut self, ops: u64) {
        self.min_ops = ops.max(1);
    }
}

impl HeapPool<i64> {
    /// Recover (or initialize) a durable pool from `path`: load the last
    /// valid checkpoint, replay the WAL suffix, truncate any torn tail,
    /// and return the pool wrapped in its logging front-end.
    pub fn recover(path: &Path) -> Result<DurablePool, WalError> {
        DurablePool::open(path)
    }
}

/// A [`HeapPool`] whose every mutation is logged ahead of application, with
/// automatic checkpoints paced by a [`CheckpointCadence`] (seeded on open
/// from the checkpoint on disk). Heaps are addressed by `(slot,
/// generation)` pairs (the same generational-handle scheme the service's
/// queue table uses) so handles survive a restart.
#[derive(Debug)]
pub struct DurablePool {
    dir: PathBuf,
    pool: HeapPool<i64>,
    slots: Vec<Option<(u32, PooledHeap)>>,
    free_slots: Vec<(u32, u32)>,
    writer: WalWriter,
    cadence: CheckpointCadence,
}

impl DurablePool {
    /// Open `dir`, recovering whatever state it holds (an empty or missing
    /// directory opens as an empty pool).
    pub fn open(dir: &Path) -> Result<DurablePool, WalError> {
        let state = recover_dir(dir, Engine::Sequential)?;
        let writer = WalWriter::append_to(&dir.join(WAL_FILE), state.next_seq)?;
        Ok(DurablePool {
            dir: dir.to_path_buf(),
            pool: state.pool,
            slots: state.heaps,
            free_slots: state.free_slots,
            writer,
            cadence: state.cadence,
        })
    }

    /// Log-then-apply: the write-ahead contract lives here. The op reaches
    /// the OS before the slab changes, so recovery can only be ahead of
    /// (never behind) acknowledged state.
    fn log_apply(&mut self, op: &WalOp) -> Result<Vec<i64>, WalError> {
        if let WalOp::FromKeys { keys, .. } = op {
            // Refuse at admission: the log must never hold an op that
            // cannot replay.
            self.pool.can_admit(keys.len())?;
        }
        let seq = self.writer.append(op)?;
        self.writer.flush()?;
        let out = apply_op(
            &mut self.pool,
            &mut self.slots,
            &mut self.free_slots,
            seq,
            op,
        )?;
        self.cadence.logged();
        if self.cadence.due(self.writer.bytes_logged()) {
            self.checkpoint()?;
        }
        Ok(out)
    }

    fn require_live(&self, slot: u32) -> Result<(), WalError> {
        match self.slots.get(slot as usize) {
            Some(Some(_)) => Ok(()),
            _ => Err(WalError::UnknownSlot(slot)),
        }
    }

    /// Create a heap; returns its `(slot, generation)` handle.
    pub fn create_heap(&mut self) -> Result<(u32, u32), WalError> {
        let (slot, gen) = match self.free_slots.last() {
            Some(&(s, g)) => (s, g),
            None => (self.slots.len() as u32, 0),
        };
        self.log_apply(&WalOp::CreateHeap { slot, gen })?;
        Ok((slot, gen))
    }

    /// Insert one key.
    pub fn insert(&mut self, slot: u32, key: i64) -> Result<(), WalError> {
        self.require_live(slot)?;
        self.log_apply(&WalOp::Insert { slot, key })?;
        Ok(())
    }

    /// Insert a batch of keys (logged as one record, applied by one
    /// `HeapPool::multi_insert`).
    pub fn from_keys(&mut self, slot: u32, keys: &[i64]) -> Result<(), WalError> {
        self.require_live(slot)?;
        self.log_apply(&WalOp::FromKeys {
            slot,
            keys: keys.to_vec(),
        })?;
        Ok(())
    }

    /// Extract the minimum key.
    pub fn extract_min(&mut self, slot: u32) -> Result<Option<i64>, WalError> {
        self.require_live(slot)?;
        let out = self.log_apply(&WalOp::ExtractMin { slot })?;
        Ok(out.into_iter().next())
    }

    /// Extract the `k` smallest keys.
    pub fn multi_extract_min(&mut self, slot: u32, k: usize) -> Result<Vec<i64>, WalError> {
        self.require_live(slot)?;
        self.log_apply(&WalOp::MultiExtractMin { slot, k: k as u64 })
    }

    /// Meld the heap at `src` into the heap at `dst`; `src` dies.
    pub fn meld(&mut self, dst: u32, src: u32) -> Result<(), WalError> {
        self.require_live(dst)?;
        self.require_live(src)?;
        if dst == src {
            return Err(WalError::Corrupt {
                seq: self.writer.next_seq(),
                reason: "meld of a slot into itself".into(),
            });
        }
        self.log_apply(&WalOp::Meld { dst, src })?;
        Ok(())
    }

    /// Destroy the heap at `slot`, recycling its nodes and slot.
    pub fn free_heap(&mut self, slot: u32) -> Result<(), WalError> {
        self.require_live(slot)?;
        self.log_apply(&WalOp::FreeHeap { slot })?;
        Ok(())
    }

    /// Write a checkpoint now and restart the cadence. The WAL keeps
    /// its history (compaction is future work); replay skips everything the
    /// checkpoint already folded in.
    pub fn checkpoint(&mut self) -> Result<(), WalError> {
        self.writer.sync()?;
        let seq = self.writer.next_seq() - 1;
        let heaps = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|(g, h)| (i as u32, *g, h)));
        let image = write_checkpoint(&self.dir, seq, &self.pool, heaps, &self.free_slots)?;
        self.cadence.checkpointed(self.writer.bytes_logged(), image);
        Ok(())
    }

    /// Set the cadence's op floor: no automatic checkpoint before this
    /// many ops are logged since the last one (`u64::MAX` disables them).
    pub fn set_checkpoint_every(&mut self, every: u64) {
        self.cadence.set_min_ops(every);
    }

    /// The underlying pool (read-only).
    pub fn pool(&self) -> &HeapPool<i64> {
        &self.pool
    }

    /// Number of keys in the heap at `slot`, if live.
    pub fn len(&self, slot: u32) -> Option<usize> {
        match self.slots.get(slot as usize) {
            Some(Some((_, h))) => Some(h.len()),
            _ => None,
        }
    }

    /// Whether the heap at `slot` is live but empty (`None` if not live).
    pub fn is_empty(&self, slot: u32) -> Option<bool> {
        self.len(slot).map(|l| l == 0)
    }

    /// Generation of the heap at `slot`, if live.
    pub fn generation(&self, slot: u32) -> Option<u32> {
        match self.slots.get(slot as usize) {
            Some(Some((g, _))) => Some(*g),
            _ => None,
        }
    }

    /// Live slot indices, ascending.
    pub fn live_slots(&self) -> Vec<u32> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| i as u32))
            .collect()
    }

    /// Every key in the heap at `slot`, in arbitrary order (oracle checks).
    pub fn keys_unsorted(&self, slot: u32) -> Option<Vec<i64>> {
        match self.slots.get(slot as usize) {
            Some(Some((_, h))) => {
                let mut ids = Vec::with_capacity(h.len());
                self.pool.collect_node_ids(h, &mut ids);
                Some(
                    ids.into_iter()
                        .map(|id| self.pool.arena().get(id).key)
                        .collect(),
                )
            }
            _ => None,
        }
    }

    /// Bytes in the WAL — the offsets a crash harness cuts at.
    pub fn wal_bytes(&self) -> u64 {
        self.writer.bytes_logged()
    }

    /// Deep validation of every live heap via `check_pool`.
    pub fn validate(&self) -> Result<(), String> {
        let refs: Vec<&PooledHeap> = self.slots.iter().flatten().map(|(_, h)| h).collect();
        check_pool(&self.pool, &refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "meldpq-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn all_ops() -> Vec<WalOp> {
        vec![
            WalOp::CreateHeap { slot: 3, gen: 7 },
            WalOp::Insert { slot: 3, key: -42 },
            WalOp::FromKeys {
                slot: 3,
                keys: vec![i64::MIN, -1, 0, 1, i64::MAX],
            },
            WalOp::ExtractMin { slot: 3 },
            WalOp::MultiExtractMin { slot: 3, k: 999 },
            WalOp::Meld { dst: 1, src: 2 },
            WalOp::FreeHeap { slot: 3 },
        ]
    }

    #[test]
    fn record_roundtrip_all_ops() {
        let dir = tmp_dir("roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(WAL_FILE);
        let mut w = WalWriter::create(&path).unwrap();
        for op in all_ops() {
            w.append(&op).unwrap();
        }
        w.flush().unwrap();
        let read = read_wal(&path).unwrap();
        assert_eq!(read.valid_len, read.file_len);
        let got: Vec<WalOp> = read.records.iter().map(|(_, op)| op.clone()).collect();
        assert_eq!(got, all_ops());
        let seqs: Vec<u64> = read.records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5, 6, 7]);
        let lens: u64 = all_ops().iter().map(WalOp::record_len).sum();
        assert_eq!(lens, read.file_len, "record_len matches the encoding");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn golden_record_per_op_kind() {
        // One record per `WalOp` kind as the log holds it, `[N][seq, tag,
        // args…][crc]` in LE words, so logs already on disk keep reading.
        let golden: [&[u64]; 7] = [
            &[4, 1, 1, 3, 7, 0x1ab2_fb26_dea3_6a1f],
            &[4, 2, 2, 3, -42i64 as u64, 0x9f51_d2e1_8656_0592],
            &[
                9,
                3,
                3,
                3,
                5,
                i64::MIN as u64,
                u64::MAX,
                0,
                1,
                i64::MAX as u64,
                0x5fff_781d_4f22_29bd,
            ],
            &[3, 4, 4, 3, 0x0fd3_a588_07af_5623],
            &[4, 5, 5, 3, 999, 0xbd41_3748_4b16_4def],
            &[4, 6, 6, 1, 2, 0xbdf9_d13f_bee6_da54],
            &[3, 7, 7, 3, 0x0704_cc88_02a7_9b81],
        ];
        let dir = tmp_dir("golden");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(WAL_FILE);
        let mut w = WalWriter::create(&path).unwrap();
        for op in all_ops() {
            w.append(&op).unwrap();
        }
        w.flush().unwrap();
        let mut bytes = std::fs::read(&path).unwrap().into_iter();
        for (op, words) in all_ops().iter().zip(golden) {
            let want: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            let got: Vec<u8> = bytes.by_ref().take(want.len()).collect();
            assert_eq!(got, want, "{op:?}");
        }
        assert_eq!(bytes.next(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_stops_the_read() {
        let dir = tmp_dir("torn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(WAL_FILE);
        let mut w = WalWriter::create(&path).unwrap();
        for op in all_ops() {
            w.append(&op).unwrap();
        }
        w.flush().unwrap();
        let full = read_wal(&path).unwrap();
        // Cut 5 bytes into the last record: everything before survives.
        let cut = full.valid_len - 5;
        truncate_wal(&path, cut).unwrap();
        let read = read_wal(&path).unwrap();
        assert_eq!(read.records.len(), all_ops().len() - 1);
        assert!(read.valid_len < cut);
        // A bit flip mid-file stops the read at the flipped record.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[9] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let read = read_wal(&path).unwrap();
        assert_eq!(read.records.len(), 0);
        assert_eq!(read.valid_len, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_pool_recovers_exactly() {
        let dir = tmp_dir("recover");
        let (slot, gen) = {
            let mut dp = HeapPool::recover(&dir).unwrap();
            let (slot, gen) = dp.create_heap().unwrap();
            dp.from_keys(slot, &[5, 3, 9, 1, 7]).unwrap();
            dp.insert(slot, -2).unwrap();
            assert_eq!(dp.extract_min(slot).unwrap(), Some(-2));
            let (other, _) = dp.create_heap().unwrap();
            dp.from_keys(other, &[100, 50]).unwrap();
            dp.meld(slot, other).unwrap();
            (slot, gen)
        };
        let dp = HeapPool::recover(&dir).unwrap();
        assert_eq!(dp.generation(slot), Some(gen));
        let mut keys = dp.keys_unsorted(slot).unwrap();
        keys.sort_unstable();
        assert_eq!(keys, vec![1, 3, 5, 7, 9, 50, 100]);
        dp.validate().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A small durable pool after churn that leaves free slab slots, a
    /// recycled queue slot and a recyclable `(slot, gen)` pair, with a
    /// checkpoint covering every logged op.
    fn churned(dir: &Path) -> DurablePool {
        let mut dp = HeapPool::recover(dir).unwrap();
        dp.set_checkpoint_every(u64::MAX);
        let (a, _) = dp.create_heap().unwrap();
        dp.from_keys(a, &(0..12).collect::<Vec<_>>()).unwrap();
        let (b, _) = dp.create_heap().unwrap();
        dp.from_keys(b, &[40, 41, 42, 43, 44]).unwrap();
        let (c, _) = dp.create_heap().unwrap();
        dp.insert(c, 7).unwrap();
        dp.extract_min(a).unwrap();
        dp.multi_extract_min(a, 3).unwrap();
        dp.free_heap(b).unwrap();
        let (d, gen) = dp.create_heap().unwrap();
        assert_eq!((d, gen), (b, 1), "queue slot is recycled");
        dp.from_keys(d, &[-5, 99, 6]).unwrap();
        dp.free_heap(c).unwrap();
        dp.checkpoint().unwrap();
        assert!(!dp.pool().arena().free_list().is_empty(), "slab has holes");
        assert!(!dp.free_slots.is_empty(), "a slot awaits recycling");
        dp
    }

    /// `(slot, gen, sorted keys)` for every live heap.
    fn contents(
        pool: &HeapPool<i64>,
        heaps: &[Option<(u32, PooledHeap)>],
    ) -> Vec<(usize, u32, Vec<i64>)> {
        heaps
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|(g, h)| (i, *g, h)))
            .map(|(i, g, h)| {
                let mut ids = Vec::new();
                pool.collect_node_ids(h, &mut ids);
                let mut keys: Vec<i64> = ids.iter().map(|id| pool.arena().get(*id).key).collect();
                keys.sort_unstable();
                (i, g, keys)
            })
            .collect()
    }

    /// Re-encode `body` words with a freshly computed, valid trailer.
    fn seal(body: &[u64]) -> Vec<u8> {
        let crc = fnv1a_words(body.iter().copied());
        body.iter()
            .chain(std::iter::once(&crc))
            .flat_map(|w| w.to_le_bytes())
            .collect()
    }

    #[test]
    fn checkpoint_image_roundtrips_after_churn() {
        let dir = tmp_dir("image");
        let dp = churned(&dir);
        let ck = read_checkpoint(&dir).expect("valid image");
        assert_eq!(ck.seq, dp.writer.next_seq() - 1);
        assert_eq!(contents(&ck.pool, &ck.heaps), contents(&dp.pool, &dp.slots));
        assert_eq!(ck.free_slots, dp.free_slots);
        assert_eq!(ck.pool.arena().free_list(), dp.pool.arena().free_list());
        assert_eq!(
            ck.pool.arena().raw_slots().len(),
            dp.pool.arena().raw_slots().len()
        );
        let refs: Vec<&PooledHeap> = ck.heaps.iter().flatten().map(|(_, h)| h).collect();
        check_pool(&ck.pool, &refs).unwrap();
        // Recovery starts from the checkpoint and has nothing to replay.
        let state = recover_dir(&dir, Engine::Sequential).unwrap();
        assert_eq!(state.replayed, 0);
        assert_eq!(
            contents(&state.pool, &state.heaps),
            contents(&dp.pool, &dp.slots)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_checkpoints_fall_back_to_genesis_replay() {
        let dir = tmp_dir("reject");
        let dp = churned(&dir);
        let want = contents(&dp.pool, &dp.slots);
        let records = (dp.writer.next_seq() - 1) as usize;
        drop(dp);
        let ck = dir.join(CHECKPOINT_FILE);
        let good = std::fs::read(&ck).unwrap();
        let words: Vec<u64> = Words::new(&good).collect();
        let body = &words[..words.len() - 1];
        let n_slots = body[3];

        let mut cases: Vec<(String, Vec<u8>)> = Vec::new();
        let mut magic = body.to_vec();
        magic[0] ^= 1;
        cases.push(("wrong magic".into(), seal(&magic)));
        let mut version = body.to_vec();
        version[1] += 1;
        cases.push(("wrong version".into(), seal(&version)));
        for k in 0..words.len() {
            cases.push((format!("torn at word {k}"), good[..8 * k].to_vec()));
            if k < body.len() {
                cases.push((format!("resealed at word {k}"), seal(&body[..k])));
            }
        }
        // A stray byte before an intact trailer: only the length check sees it.
        let mut odd = good.clone();
        odd.insert(good.len() - 8, 0);
        cases.push(("length not a multiple of 8".into(), odd));
        let mut extra = body.to_vec();
        extra.push(0);
        cases.push(("one trailing extra word".into(), seal(&extra)));
        let mut v1 = body.to_vec();
        v1[1] = 1;
        cases.push(("a version-1 header".into(), seal(&v1)));
        let mut short = body.to_vec();
        short[3] = (body.len() as u64 - 7) / 3 + 1;
        cases.push(("more slots than words left".into(), seal(&short)));
        // Slot `i`'s record is words `7 + 3i ..`: key, parent | child << 32,
        // sibling | degree << 32.
        let rec = |i: u64| 7 + 3 * i as usize;
        let links = |w: u64| (w & 0xFFFF_FFFF, w >> 32);
        let with_low = |w: u64, lo: u64| w & !0xFFFF_FFFF | lo;
        let with_high = |w: u64, hi: u64| w & 0xFFFF_FFFF | hi << 32;
        // A node with at least two children, and its first two.
        let p = (0..n_slots)
            .find(|&i| links(body[rec(i) + 2]).1 >= 2 && links(body[rec(i) + 2]).1 < 32)
            .unwrap();
        let first = links(body[rec(p) + 1]).1;
        let second = links(body[rec(first) + 2]).0;
        let mut cycle = body.to_vec();
        cycle[rec(second) + 2] = with_low(cycle[rec(second) + 2], first);
        cases.push(("a sibling cycle".into(), seal(&cycle)));
        let mut long = body.to_vec();
        let degree = links(body[rec(p) + 2]).1;
        long[rec(p) + 2] = with_high(long[rec(p) + 2], degree - 1);
        cases.push(("a chain longer than its degree".into(), seal(&long)));
        let mut chain_short = body.to_vec();
        chain_short[rec(p) + 2] = with_high(chain_short[rec(p) + 2], degree + 1);
        cases.push(("a chain shorter than its degree".into(), seal(&chain_short)));
        let mut child = body.to_vec();
        child[rec(p) + 1] = with_high(child[rec(p) + 1], n_slots + 5);
        cases.push(("child id out of range".into(), seal(&child)));
        let free_slot = body[rec(n_slots)];
        let mut freed = body.to_vec();
        freed[rec(p) + 1] = with_high(freed[rec(p) + 1], free_slot);
        cases.push(("a child naming a free slot".into(), seal(&freed)));
        let at = rec(n_slots);
        let first_heap = at + body[4] as usize;
        let second_heap = first_heap + 4 + body[first_heap + 3] as usize;
        let mut dup = body.to_vec();
        dup[second_heap] = dup[first_heap];
        cases.push(("duplicate heap slot".into(), seal(&dup)));

        for (what, bytes) in cases {
            std::fs::write(&ck, &bytes).unwrap();
            assert!(read_checkpoint(&dir).is_none(), "{what}: accepted");
            let state = recover_dir(&dir, Engine::Sequential).unwrap();
            assert_eq!(state.replayed, records, "{what}: not a genesis replay");
            assert_eq!(
                contents(&state.pool, &state.heaps),
                want,
                "{what}: contents"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_roundtrip_and_corruption_fallback() {
        let dir = tmp_dir("ckpt");
        {
            let mut dp = HeapPool::recover(&dir).unwrap();
            let (slot, _) = dp.create_heap().unwrap();
            dp.from_keys(slot, &(0..100).collect::<Vec<_>>()).unwrap();
            dp.extract_min(slot).unwrap();
            dp.checkpoint().unwrap();
            dp.insert(slot, -5).unwrap(); // lives only in the WAL suffix
        }
        {
            let dp = HeapPool::recover(&dir).unwrap();
            let mut keys = dp.keys_unsorted(0).unwrap();
            keys.sort_unstable();
            let mut want: Vec<i64> = (1..100).collect();
            want.insert(0, -5);
            assert_eq!(keys, want);
        }
        // Corrupt the checkpoint: recovery falls back to genesis replay and
        // still reaches the same state (the WAL holds full history).
        let ck = dir.join(CHECKPOINT_FILE);
        let mut bytes = std::fs::read(&ck).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&ck, &bytes).unwrap();
        let dp = HeapPool::recover(&dir).unwrap();
        let mut keys = dp.keys_unsorted(0).unwrap();
        keys.sort_unstable();
        let mut want: Vec<i64> = (1..100).collect();
        want.insert(0, -5);
        assert_eq!(keys, want);
        dp.validate().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn slot_recycling_survives_recovery() {
        let dir = tmp_dir("slots");
        {
            let mut dp = HeapPool::recover(&dir).unwrap();
            let (s0, g0) = dp.create_heap().unwrap();
            dp.insert(s0, 1).unwrap();
            dp.free_heap(s0).unwrap();
            let (s1, g1) = dp.create_heap().unwrap();
            assert_eq!(s1, s0, "slot is recycled");
            assert_eq!(g1, g0 + 1, "generation advances");
            dp.insert(s1, 2).unwrap();
        }
        let dp = HeapPool::recover(&dir).unwrap();
        assert_eq!(dp.generation(0), Some(1));
        assert_eq!(dp.keys_unsorted(0).unwrap(), vec![2]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_slot_is_typed() {
        let dir = tmp_dir("unknown");
        let mut dp = HeapPool::recover(&dir).unwrap();
        assert!(matches!(dp.insert(9, 1), Err(WalError::UnknownSlot(9))));
        assert!(matches!(dp.extract_min(0), Err(WalError::UnknownSlot(0))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn double_recover_is_idempotent() {
        let dir = tmp_dir("double");
        {
            let mut dp = HeapPool::recover(&dir).unwrap();
            let (slot, _) = dp.create_heap().unwrap();
            dp.from_keys(slot, &[8, 6, 7]).unwrap();
        }
        let a = HeapPool::recover(&dir).unwrap();
        let mut ka = a.keys_unsorted(0).unwrap();
        ka.sort_unstable();
        drop(a);
        let b = HeapPool::recover(&dir).unwrap();
        let mut kb = b.keys_unsorted(0).unwrap();
        kb.sort_unstable();
        assert_eq!(ka, kb);
        b.validate().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The sequence number a checkpoint image's header names.
    fn checkpoint_seq(dir: &Path) -> u64 {
        let mut head = [0u8; 24];
        File::open(dir.join(CHECKPOINT_FILE))
            .unwrap()
            .read_exact(&mut head)
            .unwrap();
        Words::new(&head).nth(2).unwrap()
    }

    #[test]
    fn cadence_waits_for_both_the_op_floor_and_the_image_bytes() {
        const FLOOR: u64 = CheckpointCadence::MIN_OPS;
        // The op floor alone does not fire on a large image.
        let mut c = CheckpointCadence::default();
        c.checkpointed(1000, 1 << 20);
        for _ in 0..FLOOR {
            c.logged();
        }
        assert!(!c.due(1000 + 48 * FLOOR));
        assert!(!c.due(1000 + (1 << 20) - 1));
        assert!(c.due(1000 + (1 << 20)));
        // Log bytes alone do not fire before the floor.
        let mut c = CheckpointCadence::default();
        c.checkpointed(0, 64);
        for _ in 1..FLOOR {
            c.logged();
        }
        assert!(!c.due(1 << 30));
        c.logged();
        assert!(c.due(1 << 30));

        // A reopened pool seeds its cadence from the image on disk, and
        // counts the log it replays past that image.
        let dir = tmp_dir("cadence");
        let (slot, mark) = {
            let mut dp = HeapPool::recover(&dir).unwrap();
            let (slot, _) = dp.create_heap().unwrap();
            dp.from_keys(slot, &(0..4096).collect::<Vec<_>>()).unwrap();
            dp.checkpoint().unwrap();
            let mark = dp.wal_bytes();
            for key in 0..600 {
                dp.insert(slot, key).unwrap();
            }
            (slot, mark)
        };
        let image = std::fs::metadata(dir.join(CHECKPOINT_FILE)).unwrap().len();
        assert!(image > 48 * 2 * FLOOR, "image {image}");
        let first = checkpoint_seq(&dir);
        let mut dp = HeapPool::recover(&dir).unwrap();
        let mut key = 0;
        loop {
            dp.insert(slot, key).unwrap();
            key += 1;
            if dp.wal_bytes() - mark >= image {
                break;
            }
            assert_eq!(checkpoint_seq(&dir), first, "early checkpoint");
        }
        assert!(key as u64 > FLOOR, "the image bytes, not the floor, bind");
        assert_eq!(checkpoint_seq(&dir), dp.writer.next_seq() - 1);
        drop(dp);
        let state = recover_dir(&dir, Engine::Sequential).unwrap();
        assert_eq!(state.replayed, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
