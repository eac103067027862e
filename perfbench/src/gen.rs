//! Seeded workload generation.
//!
//! Everything a run feeds the service is derived here from `--seed` and
//! built before the timed phase starts: a pool of random keys and, per
//! client, a stream of [`Op`]s that index into it. The service only ever
//! sees the generated values.
//!
//! Every stream is cut from *blocks*. A block targets one queue and every
//! key it puts in or takes out is that queue's (a graft melds into the
//! block's own queue), so a queue's length moves by the block's net
//! balance per block, plus at most one partial block. On `mixed` the net
//! is zero; on `durable-ingest` it is a small fixed growth. This is what
//! keeps the queues near their prefilled size instead of draining them
//! into empty pops.
//!
//! Where the mixes come from:
//!
//! * `mixed` is the only mix the repo had, `service-load`'s 55 insert /
//!   30 extract_min / 7 extract_k(8) / 5 peek / 3 len, changed only as far
//!   as key balance needs: 55 keys in, so extract_min + 8 × extract_k must
//!   take out 55. 31 extract_min and 3 extract_k(8) do, in 34 pop calls
//!   of 100 where service-load has 37. The three calls freed go to the
//!   reads: 6 peek and 5 len, against service-load's 5 and 3.
//! * `durable-ingest` uses the four calls its workload names. Each of the
//!   three write paths brings the same number of keys into a block, 64: 64
//!   single inserts, one `multi_insert(64)` and one graft of 64. 184
//!   extract_min take all but 8 of them back out, so live keys grow by
//!   1/24 of what goes in: past the 2^18 prefill, but slowly enough that
//!   the full-slab checkpoint costs about the same at the end of a run as
//!   at its start. There are no read-only calls; every call appends to the
//!   write-ahead log.

/// Which workload to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Small ops from two clients on eight queues over four shards.
    Mixed,
    /// Write-heavy ops from two clients on a durable service.
    DurableIngest,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 2] = [Workload::Mixed, Workload::DurableIngest];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mixed => "mixed",
            Workload::DurableIngest => "durable-ingest",
        }
    }

    /// Parse a command-line workload name.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's fixed shape.
    pub fn spec(self) -> Spec {
        match self {
            Workload::Mixed => Spec {
                clients: 2,
                queues: 8,
                prefill: 4096,
                multi_n: 0,
                pop_k: 8,
                durable: false,
                rss_after_calls: 2_000_000,
                block: &[
                    (Kind::Insert, 55),
                    (Kind::ExtractMin, 31),
                    (Kind::ExtractK, 3),
                    (Kind::Peek, 6),
                    (Kind::Len, 5),
                ],
            },
            Workload::DurableIngest => Spec {
                clients: 2,
                queues: 8,
                prefill: 1 << 15,
                multi_n: 64,
                pop_k: 0,
                durable: true,
                rss_after_calls: 60_000,
                block: &[
                    (Kind::Insert, 64),
                    (Kind::MultiInsert, 1),
                    (Kind::ExtractMin, 184),
                    (Kind::Graft, 1),
                ],
            },
        }
    }
}

/// What one generated op asks the service for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `insert(q, key)`.
    Insert,
    /// `multi_insert(q, keys)` of [`Spec::multi_n`] keys.
    MultiInsert,
    /// `extract_min(q)`.
    ExtractMin,
    /// `extract_k(q, k)` with `k` = [`Spec::pop_k`].
    ExtractK,
    /// `peek_min(q)`.
    Peek,
    /// `len(q)`.
    Len,
    /// `create_queue`, `multi_insert` of [`Spec::multi_n`] keys into it,
    /// then `meld` it into the long-lived queue `q` (three calls). The
    /// service places the new queue round-robin, so the meld is cross-shard
    /// unless the new queue lands on `q`'s shard.
    Graft,
}

impl Kind {
    /// Every kind, in declaration order, so `kind as usize` indexes it.
    pub const ALL: [Kind; 7] = [
        Kind::Insert,
        Kind::MultiInsert,
        Kind::ExtractMin,
        Kind::ExtractK,
        Kind::Peek,
        Kind::Len,
        Kind::Graft,
    ];

    /// Stable lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Insert => "insert",
            Kind::MultiInsert => "multi_insert",
            Kind::ExtractMin => "extract_min",
            Kind::ExtractK => "extract_k",
            Kind::Peek => "peek",
            Kind::Len => "len",
            Kind::Graft => "graft",
        }
    }
}

/// A workload's fixed shape: client and queue counts, op sizes, and the
/// op composition of one block.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Client threads.
    pub clients: usize,
    /// Long-lived queues, created before the timed phase.
    pub queues: usize,
    /// Keys each long-lived queue holds when the timed phase starts.
    pub prefill: usize,
    /// Keys per `multi_insert` (and per graft).
    pub multi_n: usize,
    /// Keys per `extract_k`.
    pub pop_k: usize,
    /// Whether the service is built with `ServiceBuilder::durable`.
    pub durable: bool,
    /// Peak memory is read once the clients made this many calls: a fixed
    /// amount of work, so memory that grows per call (the pool's bulk build
    /// appends to its slab) is not charged to a faster build.
    pub rss_after_calls: u64,
    /// One block's ops: `(kind, how many)`, shuffled per block.
    pub block: &'static [(Kind, usize)],
}

impl Spec {
    /// Keys one op of `kind` adds to the service.
    pub fn keys_in(&self, kind: Kind) -> usize {
        match kind {
            Kind::Insert => 1,
            Kind::MultiInsert | Kind::Graft => self.multi_n,
            Kind::ExtractMin | Kind::ExtractK | Kind::Peek | Kind::Len => 0,
        }
    }

    /// Keys one op of `kind` asks to pop.
    pub fn keys_out(&self, kind: Kind) -> usize {
        match kind {
            Kind::ExtractMin => 1,
            Kind::ExtractK => self.pop_k,
            Kind::Insert | Kind::MultiInsert | Kind::Graft | Kind::Peek | Kind::Len => 0,
        }
    }

    /// `(keys in, keys out)` of one block.
    pub fn block_balance(&self) -> (usize, usize) {
        self.block.iter().fold((0, 0), |(i, o), &(kind, n)| {
            (i + n * self.keys_in(kind), o + n * self.keys_out(kind))
        })
    }
}

/// One generated op. `q` is a long-lived queue index; `key` indexes the
/// key pool (the first key of a `multi_insert` window).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// What to do.
    pub kind: Kind,
    /// Target long-lived queue.
    pub q: u16,
    /// Key-pool offset of the op's first key.
    pub key: u32,
}

/// SplitMix64: tiny, seedable, and good enough to shuffle and draw keys.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// The SplitMix64 finalizer; also the per-key hash of [`crate::check`].
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Keys are drawn from `0..KEY_SPACE` so they stay far from `i64` limits.
const KEY_SPACE: u64 = 1 << 40;

/// Everything a run feeds the service, built before timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// Random keys every op draws from.
    pub keys: Vec<i64>,
    /// Prefill keys for each long-lived queue (`prefill` each).
    pub prefill: Vec<Vec<i64>>,
    /// One op stream per client, made of whole blocks; a client that
    /// reaches the end of its stream starts it again.
    pub streams: Vec<Vec<Op>>,
}

/// Ops generated per client stream.
const STREAM_LEN: usize = 1 << 16;
/// Size of the shared key pool.
const KEY_POOL_LEN: usize = 1 << 16;

/// Generate the inputs of `w` for `seed`.
pub fn generate(w: Workload, seed: u64) -> Inputs {
    generate_len(w, seed, STREAM_LEN)
}

/// [`generate`] with an explicit per-client stream length.
pub fn generate_len(w: Workload, seed: u64, len: usize) -> Inputs {
    let spec = w.spec();
    let mut rng = Rng::new(seed ^ 0x5eed_0000_0000_0000 ^ (w as u64) << 32);
    let keys: Vec<i64> = (0..KEY_POOL_LEN)
        .map(|_| (rng.next_u64() % KEY_SPACE) as i64)
        .collect();
    let prefill: Vec<Vec<i64>> = (0..spec.queues)
        .map(|_| {
            (0..spec.prefill)
                .map(|_| (rng.next_u64() % KEY_SPACE) as i64)
                .collect()
        })
        .collect();
    let streams = (0..spec.clients)
        .map(|_| client_stream(&spec, &mut rng, keys.len(), len))
        .collect();
    Inputs {
        keys,
        prefill,
        streams,
    }
}

/// One client's stream of at least `len` ops: per-queue shuffled blocks,
/// interleaved by drawing a random queue for each next op.
fn client_stream(spec: &Spec, rng: &mut Rng, pool: usize, len: usize) -> Vec<Op> {
    let block_len: usize = spec.block.iter().map(|&(_, n)| n).sum();
    let span = spec.multi_n.max(1);
    let draw_key = |rng: &mut Rng| rng.below(pool - span + 1) as u32;
    let new_block = |rng: &mut Rng, q: u16| -> Vec<Op> {
        let mut b: Vec<Op> = Vec::with_capacity(block_len);
        for &(kind, n) in spec.block {
            for _ in 0..n {
                b.push(Op { kind, q, key: 0 });
            }
        }
        for i in (1..b.len()).rev() {
            b.swap(i, rng.below(i + 1));
        }
        for op in &mut b {
            op.key = draw_key(rng);
        }
        b
    };
    let mut out = Vec::with_capacity(len);
    let mut pending: Vec<std::vec::IntoIter<Op>> = (0..spec.queues)
        .map(|q| new_block(rng, q as u16).into_iter())
        .collect();
    while out.len() < len {
        let q = rng.below(spec.queues);
        let op = match pending[q].next() {
            Some(op) => op,
            None => {
                pending[q] = new_block(rng, q as u16).into_iter();
                pending[q].next().expect("blocks are non-empty")
            }
        };
        out.push(op);
    }
    // Finish every open block, so each pass over the stream is balanced per
    // queue and a client that repeats it does not drift.
    for rest in pending {
        out.extend(rest);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in Workload::ALL {
            let a = generate_len(w, 7, 4096);
            let b = generate_len(w, 7, 4096);
            assert_eq!(a, b, "{}: same seed must give identical inputs", w.name());
            let c = generate_len(w, 8, 4096);
            assert_ne!(a.streams, c.streams, "{}: seeds must matter", w.name());
            assert_ne!(a.keys, c.keys, "{}: seeds must matter", w.name());
        }
    }

    #[test]
    fn mixes_are_key_balanced() {
        for w in Workload::ALL {
            let spec = w.spec();
            let (i, o) = spec.block_balance();
            match w {
                // Pops match inserts key for key, so queues hold their size.
                Workload::Mixed => {
                    assert_eq!(i, o, "{}: keys in {i} != keys out {o}", w.name())
                }
                // Grows, but by a small share of what it moves.
                Workload::DurableIngest => {
                    assert!(i >= o && (i - o) * 20 <= i, "{}: {i} in, {o} out", w.name())
                }
            }
        }
    }

    /// Every key an op moves is its own queue's (a graft melds into `q`),
    /// so charging each op's keys to `q` is the queue's true balance.
    #[test]
    fn streams_are_whole_blocks_so_queues_move_by_the_block_balance() {
        for w in Workload::ALL {
            let spec = w.spec();
            let (block_in, block_out) = spec.block_balance();
            let block_len: usize = spec.block.iter().map(|&(_, n)| n).sum();
            let inputs = generate_len(w, 3, 1 << 14);
            for stream in &inputs.streams {
                let mut ops = vec![0usize; spec.queues];
                let mut net = vec![0i64; spec.queues];
                for op in stream {
                    ops[op.q as usize] += 1;
                    net[op.q as usize] +=
                        spec.keys_in(op.kind) as i64 - spec.keys_out(op.kind) as i64;
                }
                for q in 0..spec.queues {
                    assert_eq!(
                        ops[q] % block_len,
                        0,
                        "{}: queue {q} ends mid-block",
                        w.name()
                    );
                    let blocks = (ops[q] / block_len) as i64;
                    let want = blocks * (block_in as i64 - block_out as i64);
                    assert_eq!(net[q], want, "{}: queue {q}", w.name());
                }
            }
        }
    }

    #[test]
    fn multi_insert_windows_stay_inside_the_key_pool() {
        for w in Workload::ALL {
            let inputs = generate_len(w, 11, 1 << 14);
            let n = w.spec().multi_n.max(1);
            for op in inputs.streams.iter().flatten() {
                assert!(op.key as usize + n <= inputs.keys.len());
            }
        }
    }
}
