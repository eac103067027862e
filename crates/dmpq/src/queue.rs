//! The distributed meldable priority queue (paper Definition 6) and the
//! `b-Union` operation (Theorem 3).
//!
//! Communication model: the logical b-binomial heap lives host-side (for
//! validation), but every data movement the distributed algorithm performs
//! is executed on the [`hypercube::NetSim`] single-port cube:
//!
//! * **preprocessing** — all root keys are routed to bitonic blocks, sorted
//!   on the cube, and the sorted chunks routed back to the roots (ordered by
//!   old max key), re-establishing the extended heap order and the global
//!   *chunk order* of roots;
//! * **Phases I–II** — the carry scan and the segmented prefix minima run as
//!   Hamiltonian prefixes over the cyclically mapped positions
//!   (`H[i]` on `Π(i mod 2^q)`); results are asserted equal to the
//!   host-built [`meldpq::UnionPlan`];
//! * **Phase III** — child-address packets travel to their dominant roots
//!   and every root whose degree changed is routed (keys + child table) to
//!   its new home processor `Π(new degree mod 2^q)`.
//!
//! `Insert`/`Extract-Min` are buffered through `Waiting`/`Forehead` on the
//! I/O processor and trigger `Multi-Insert`/`Multi-Extract-Min` every `b`
//! operations — the amortization measured in experiment T3.
//!
//! # Errors
//!
//! Every operation that communicates returns `Result<_, `[`QueueError`]`>`.
//! The cube is reliable, as in the paper, so an error means a malformed
//! send pattern or a broken internal invariant — a bug, reported as a
//! typed value instead of a panic. After an error the queue may hold a
//! partial state and should be abandoned.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

use hypercube::engine::{NetError, NetSim, NetStats, Word};
use hypercube::prefix::hamiltonian_prefix_cyclic;
use hypercube::routing::{route, Packet};
use hypercube::sort::bitonic_sort;
use meldpq::plan::{build_plan_seq, plan_width, RootRef, UnionPlan};
use meldpq::NodeId;

use crate::bheap::{BbHeap, BbNodeId};
use crate::mapping::{processor_for, MappingKind};

/// Why a queue operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueueError {
    /// The simulator rejected a send pattern as illegal.
    Net(NetError),
    /// An internal protocol invariant did not hold (e.g. a distributed scan
    /// returned a malformed word); recoverable by abandoning the queue.
    Protocol(&'static str),
}

impl fmt::Display for QueueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueError::Net(e) => write!(f, "network failure: {e}"),
            QueueError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for QueueError {}

impl From<NetError> for QueueError {
    fn from(e: NetError) -> QueueError {
        QueueError::Net(e)
    }
}

/// Which queue operation a ledger entry belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DOp {
    /// A `Multi-Insert` flush of the `Waiting` buffer.
    MultiInsert,
    /// A `Multi-Extract-Min` refill of the `Forehead` buffer.
    MultiExtractMin,
    /// An explicit `b-Union` (meld of two queues).
    Union,
}

/// The distributed meldable priority queue.
#[derive(Debug)]
pub struct DistributedPq {
    net: NetSim,
    heap: BbHeap,
    /// Bandwidth `b`.
    pub b: usize,
    /// Sorted ascending; holds extracted-but-unconsumed items (I/O proc).
    forehead: VecDeque<i64>,
    /// Binary min-heap of inserted-but-unflushed items (I/O proc).
    waiting: BinaryHeap<Reverse<i64>>,
    /// The designated I/O processor.
    pub io_proc: usize,
    /// Communication ledger per multi-operation.
    ledger: Vec<(DOp, NetStats)>,
    /// Local (I/O-processor) binary-heap operations performed, for the
    /// `O(log b)` part of the amortized per-op cost.
    local_heap_ops: u64,
    /// Degree→processor mapping (Gray per the paper; Identity for A3).
    mapping: MappingKind,
}

impl DistributedPq {
    /// A queue on a `q`-cube with bandwidth `b` (paper's Gray mapping).
    pub fn new(q: usize, b: usize) -> Self {
        Self::with_mapping(q, b, MappingKind::Gray)
    }

    /// A queue with an explicit degree→processor mapping (ablation A3 uses
    /// [`MappingKind::Identity`]).
    pub fn with_mapping(q: usize, b: usize, mapping: MappingKind) -> Self {
        DistributedPq {
            net: NetSim::new(q),
            heap: BbHeap::new(b),
            b,
            forehead: VecDeque::new(),
            waiting: BinaryHeap::new(),
            io_proc: 0,
            ledger: Vec::new(),
            local_heap_ops: 0,
            mapping,
        }
    }

    /// Home processor of a degree-`deg` node (Definition 4).
    fn proc_of(&self, deg: usize) -> usize {
        processor_for(self.mapping, deg, self.net.q())
    }

    /// Items currently stored (heap + buffers).
    pub fn len(&self) -> usize {
        self.heap.item_count() + self.forehead.len() + self.waiting.len()
    }

    /// Whether the queue holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative network statistics.
    pub fn net_stats(&self) -> NetStats {
        self.net.stats()
    }

    /// Per-link word loads (congestion profile; see
    /// [`hypercube::NetSim::link_loads`]).
    pub fn link_loads(&self) -> Vec<((usize, usize), u64)> {
        self.net.link_loads()
    }

    /// The hottest link's total words.
    pub fn max_link_load(&self) -> u64 {
        self.net.max_link_load()
    }

    /// The per-multi-operation communication ledger.
    pub fn ledger(&self) -> &[(DOp, NetStats)] {
        &self.ledger
    }

    /// Local I/O-processor heap operations performed so far.
    pub fn local_heap_ops(&self) -> u64 {
        self.local_heap_ops
    }

    /// Borrow the logical heap (tests/validation).
    pub fn heap(&self) -> &BbHeap {
        &self.heap
    }

    /// Verify the queue's cross-component invariants:
    ///
    /// * the b-binomial heap's own structure and chunk order;
    /// * `Forehead` is sorted ascending;
    /// * every `Forehead` item is ≤ every key in `H` (otherwise an extract
    ///   could return a buffered item ahead of a smaller key still in the
    ///   heap);
    /// * `Waiting` holds fewer than `b` items between operations (a full
    ///   chunk always flushes).
    pub fn validate(&self) -> Result<(), String> {
        self.heap.validate()?;
        self.heap.validate_chunk_order()?;
        if let Some(w) = self
            .forehead
            .iter()
            .zip(self.forehead.iter().skip(1))
            .position(|(a, b)| a > b)
        {
            return Err(format!("Forehead not sorted at index {w}"));
        }
        if let (Some(&fmax), Some(&hmin)) =
            (self.forehead.back(), self.heap.all_keys().iter().min())
        {
            if hmin < fmax {
                return Err(format!(
                    "Forehead invariant broken: buffered {fmax} but H holds {hmin}"
                ));
            }
        }
        if self.waiting.len() >= self.b.max(1) {
            return Err(format!(
                "Waiting holds {} items at bandwidth {}",
                self.waiting.len(),
                self.b
            ));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Buffered operations
    // ------------------------------------------------------------------

    /// `Insert(Q, x)`: buffer in `Waiting`; flush `b` at a time.
    pub fn insert(&mut self, key: i64) -> Result<(), QueueError> {
        assert!(key < i64::MAX, "i64::MAX is the pad sentinel");
        self.waiting.push(Reverse(key));
        self.local_heap_ops += (self.waiting.len().max(2)).ilog2() as u64;
        if self.waiting.len() >= self.b {
            self.flush_waiting()?;
        }
        Ok(())
    }

    /// `Min(Q)`: smallest item currently stored (no mutation).
    pub fn min(&self) -> Option<i64> {
        let mut best: Option<i64> = None;
        let mut upd = |v: i64| best = Some(best.map_or(v, |b: i64| b.min(v)));
        if let Some(&f) = self.forehead.front() {
            upd(f);
        }
        if let Some(&Reverse(w)) = self.waiting.peek() {
            upd(w);
        }
        // Items in H only matter when Forehead is empty (invariant:
        // H ≥ max(Forehead) whenever Forehead is nonempty).
        if self.forehead.is_empty() {
            if let Some(h_min) = self.heap_min() {
                upd(h_min);
            }
        }
        best
    }

    fn heap_min(&self) -> Option<i64> {
        self.heap
            .roots
            .iter()
            .flatten()
            .map(|&r| self.heap.get(r).min_key())
            .min()
    }

    /// `Extract-Min(Q)`.
    pub fn extract_min(&mut self) -> Result<Option<i64>, QueueError> {
        if self.forehead.is_empty() && self.heap.node_count() > 0 {
            self.multi_extract_min()?;
        }
        let from_forehead = self.forehead.front().copied();
        let from_waiting = self.waiting.peek().map(|Reverse(w)| *w);
        Ok(match (from_forehead, from_waiting) {
            (None, None) => None,
            (Some(f), None) => {
                self.forehead.pop_front();
                Some(f)
            }
            (None, Some(_)) => {
                self.local_heap_ops += (self.waiting.len().max(2)).ilog2() as u64;
                self.waiting.pop().map(|Reverse(w)| w)
            }
            (Some(f), Some(w)) => {
                if w < f {
                    self.local_heap_ops += (self.waiting.len().max(2)).ilog2() as u64;
                    self.waiting.pop();
                    Some(w)
                } else {
                    self.forehead.pop_front();
                    Some(f)
                }
            }
        })
    }

    /// Drain everything in ascending order (consumes the queue).
    pub fn into_sorted_vec(mut self) -> Result<Vec<i64>, QueueError> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(k) = self.extract_min()? {
            out.push(k);
        }
        Ok(out)
    }

    /// `Multi-Insert(H, K[1..b])` (paper Definition 5, operation 2): insert
    /// exactly `b` items directly into the b-binomial heap as a fresh `B_0`
    /// node, bypassing the buffers. Returns the communication delta.
    pub fn multi_insert(&mut self, keys: Vec<i64>) -> Result<NetStats, QueueError> {
        assert_eq!(keys.len(), self.b, "Multi-Insert takes exactly b items");
        let before = self.net.stats();
        self.attach_chunk(keys)?;
        let delta = self.net.stats().delta(&before);
        self.ledger.push((DOp::MultiInsert, delta));
        Ok(delta)
    }

    /// `Multi-Extract-Min(H)` (paper Definition 5, operation 3): remove and
    /// return the `b` smallest items of the b-binomial heap directly,
    /// bypassing the buffers. Returns `Ok(None)` when nothing is stored.
    ///
    /// A non-empty `Forehead` holds items extracted earlier — by the
    /// Forehead invariant they are the globally smallest and are owed to
    /// the caller first, so they are drained and returned as the chunk
    /// (possibly shorter than `b`). This used to be a release-mode assert:
    /// a recoverable protocol state must not abort the process.
    pub fn multi_extract_min_direct(&mut self) -> Result<Option<Vec<i64>>, QueueError> {
        if !self.forehead.is_empty() {
            return Ok(Some(self.forehead.drain(..).collect()));
        }
        if self.heap.node_count() == 0 {
            return Ok(None);
        }
        self.multi_extract_min()?;
        Ok(Some(self.forehead.drain(..).collect()))
    }

    /// Route a `b`-chunk from the I/O processor to `Π(0)` and meld it into
    /// `H` as a fresh `B_0` node.
    fn attach_chunk(&mut self, chunk: Vec<i64>) -> Result<(), QueueError> {
        let dst = self.proc_of(0);
        if dst != self.io_proc {
            route(
                &mut self.net,
                vec![Packet {
                    src: self.io_proc,
                    dst,
                    payload: chunk.iter().map(|&k| k as Word).collect(),
                }],
            )?;
        }
        let id = self.heap.alloc(chunk);
        let old = self.heap.roots.clone();
        self.heap.roots = self.b_union(&old, &[Some(id)])?;
        Ok(())
    }

    /// `Multi-Insert`: move the largest `b` items of `Forehead ∪ Waiting`
    /// into `H` as a fresh `B_0` b-node (paper §5).
    fn flush_waiting(&mut self) -> Result<(), QueueError> {
        debug_assert!(self.waiting.len() >= self.b);
        let before = self.net.stats();
        // Invariant at stake: Forehead may only hold items ≤ everything in
        // H. Items that were already in Forehead satisfy it, and so does any
        // leftover ≤ the old Forehead maximum (at least |Forehead| pool
        // elements sit below that bound). Leftovers above it — possible only
        // when melds piled more than b items into Waiting — must go *back to
        // Waiting*, not into Forehead, or a later extract would return them
        // ahead of smaller keys still in H (a bug the queue_proptest suite
        // caught).
        let old_fore_max = self.forehead.back().copied();
        let mut pool: Vec<i64> = self.forehead.drain(..).collect();
        pool.extend(self.waiting.drain().map(|Reverse(w)| w));
        pool.sort_unstable();
        let cut = pool.len().saturating_sub(self.b);
        let chunk = pool.split_off(cut);
        match old_fore_max {
            Some(m) => {
                let split = pool.partition_point(|&k| k <= m);
                for &k in &pool[split..] {
                    self.waiting.push(Reverse(k));
                }
                pool.truncate(split);
                self.forehead = pool.into();
            }
            None => {
                for k in pool {
                    self.waiting.push(Reverse(k));
                }
                self.forehead = VecDeque::new();
            }
        }
        // The chunk travels from the I/O processor to Π(0) (where a degree-0
        // node lives) and melds in.
        self.attach_chunk(chunk)?;
        let delta = self.net.stats().delta(&before);
        self.ledger.push((DOp::MultiInsert, delta));
        Ok(())
    }

    /// `Multi-Extract-Min`: remove the chunk-minimal root, ship its `b` keys
    /// to the I/O processor (→ `Forehead`), and re-meld its children.
    fn multi_extract_min(&mut self) -> Result<(), QueueError> {
        debug_assert!(self.forehead.is_empty());
        let before = self.net.stats();
        // The chunk-order invariant makes the root with the smallest max key
        // hold the globally smallest b items. Metered as a min-reduction
        // over the root positions (a Hamiltonian prefix).
        let elements: Vec<Vec<Word>> = self
            .heap
            .roots
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let k = r.map(|r| self.heap.get(r).max_key()).unwrap_or(i64::MAX);
                vec![k, i as Word]
            })
            .collect();
        let reduced =
            hamiltonian_prefix_cyclic(&mut self.net, &elements, &[i64::MAX, -1], |a, b| {
                if b[0] < a[0] {
                    b.to_vec()
                } else {
                    a.to_vec()
                }
            })?;
        let last = reduced
            .last()
            .ok_or(QueueError::Protocol("min-reduction over an empty heap"))?;
        let slot = last[1] as usize;
        let root = self
            .heap
            .roots
            .get(slot)
            .copied()
            .flatten()
            .ok_or(QueueError::Protocol(
                "min-reduction pointed at an empty root slot",
            ))?;
        debug_assert_eq!(
            Some(self.heap.get(root).max_key()),
            self.heap
                .roots
                .iter()
                .flatten()
                .map(|&r| self.heap.get(r).max_key())
                .min()
        );
        self.heap.roots[slot] = None;
        self.heap.trim();
        let node = self.heap.dealloc(root);
        // Ship the keys home.
        let src = self.proc_of(slot);
        if src != self.io_proc {
            route(
                &mut self.net,
                vec![Packet {
                    src,
                    dst: self.io_proc,
                    payload: node.keys.iter().map(|&k| k as Word).collect(),
                }],
            )?;
        }
        self.forehead = node.keys.into();
        // Children re-meld.
        let children: Vec<Option<BbNodeId>> = node.children.iter().copied().map(Some).collect();
        for c in &node.children {
            self.heap.get_mut(*c).parent = None;
        }
        let old = self.heap.roots.clone();
        self.heap.roots = self.b_union(&old, &children)?;
        let delta = self.net.stats().delta(&before);
        self.ledger.push((DOp::MultiExtractMin, delta));
        Ok(())
    }

    /// Meld another queue into this one (`b-Union` of the heaps; buffers are
    /// merged at the I/O processor).
    pub fn meld(&mut self, other: DistributedPq) -> Result<(), QueueError> {
        assert_eq!(self.b, other.b, "bandwidths must match");
        assert_eq!(self.net.q(), other.net.q(), "cube sizes must match");
        let before = self.net.stats();
        // Absorb other's arena.
        let mut map: Vec<Option<BbNodeId>> = Vec::new();
        let other_roots = {
            let mut roots = Vec::new();
            let BbHeap { roots: oroots, .. } = &other.heap;
            // Deep-copy nodes via traversal.
            fn copy(
                src: &BbHeap,
                dst: &mut BbHeap,
                id: BbNodeId,
                parent: Option<BbNodeId>,
                map: &mut Vec<Option<BbNodeId>>,
            ) -> BbNodeId {
                let n = src.get(id);
                let new_id = dst.alloc(n.keys.clone());
                dst.get_mut(new_id).parent = parent;
                if map.len() <= id.0 as usize {
                    map.resize(id.0 as usize + 1, None);
                }
                map[id.0 as usize] = Some(new_id);
                let kids: Vec<BbNodeId> = n.children.clone();
                for c in kids {
                    let nc = copy(src, dst, c, Some(new_id), map);
                    dst.get_mut(new_id).children.push(nc);
                }
                new_id
            }
            for (i, r) in oroots.iter().enumerate() {
                while roots.len() <= i {
                    roots.push(None);
                }
                if let Some(id) = r {
                    roots[i] = Some(copy(&other.heap, &mut self.heap, *id, None, &mut map));
                }
            }
            roots
        };
        let old = self.heap.roots.clone();
        self.heap.roots = self.b_union(&old, &other_roots)?;
        // Buffers merge at the I/O processor. Melding can break the
        // Forehead invariant (every item of H ≥ max(Forehead)), so the
        // conservative repair spills both Foreheads through Waiting and
        // flushes full b-chunks into H; flush_waiting itself keeps only
        // invariant-safe leftovers in Forehead.
        for k in self.forehead.drain(..) {
            self.waiting.push(Reverse(k));
        }
        for k in other.forehead.iter().copied() {
            self.waiting.push(Reverse(k));
        }
        for Reverse(w) in other.waiting.into_iter() {
            self.waiting.push(Reverse(w));
        }
        while self.waiting.len() >= self.b {
            self.flush_waiting()?;
        }
        let delta = self.net.stats().delta(&before);
        self.ledger.push((DOp::Union, delta));
        Ok(())
    }

    // ------------------------------------------------------------------
    // b-Union (Theorem 3)
    // ------------------------------------------------------------------

    fn collection_size(&self, roots: &[Option<BbNodeId>]) -> usize {
        roots
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_some())
            .map(|(i, _)| 1usize << i)
            .sum()
    }

    fn refs_of(&self, roots: &[Option<BbNodeId>], width: usize) -> Vec<Option<RootRef>> {
        (0..width)
            .map(|i| {
                roots.get(i).copied().flatten().map(|id| RootRef {
                    key: self.heap.get(id).max_key(),
                    id: NodeId(id.0),
                })
            })
            .collect()
    }

    /// The `b-Union` of two root collections already in this arena. The
    /// caller assigns the returned roots on success; on error the heap's
    /// roots are untouched (preprocessing may have re-dealt keys, which
    /// preserves validity and the stored multiset).
    pub(crate) fn b_union(
        &mut self,
        r1: &[Option<BbNodeId>],
        r2: &[Option<BbNodeId>],
    ) -> Result<Vec<Option<BbNodeId>>, QueueError> {
        let _sp = obs::span("dmpq/b_union");
        let s1 = self.collection_size(r1);
        let s2 = self.collection_size(r2);
        if s1 + s2 == 0 {
            return Ok(Vec::new());
        }
        // Preprocess unconditionally: even a one-sided union must restore
        // the global chunk order (e.g. the children of an extracted root are
        // not chunk-ordered among themselves).
        self.preprocess(r1, r2)?;
        if s1 == 0 || s2 == 0 {
            let mut out = if s2 == 0 { r1.to_vec() } else { r2.to_vec() };
            while matches!(out.last(), Some(None)) {
                out.pop();
            }
            return Ok(out);
        }
        // ---- Phases I–II: host plan + metered Hamiltonian prefixes ----
        let width = plan_width(s1, s2);
        let refs1 = self.refs_of(r1, width);
        let refs2 = self.refs_of(r2, width);
        let plan = build_plan_seq(&refs1, &refs2);
        self.run_metered_phases(&plan)?;
        // ---- Phase III: data movement, then the host surgery ----
        self.phase3_movement(&plan)?;
        Ok(self.apply_plan(&plan))
    }

    /// Preprocessing (paper §5): sort all root keys on the cube and deal the
    /// sorted chunks back to the roots ordered by old max key.
    fn preprocess(
        &mut self,
        r1: &[Option<BbNodeId>],
        r2: &[Option<BbNodeId>],
    ) -> Result<(), QueueError> {
        let _sp = obs::span("preprocess");
        let p = self.net.nodes();
        let all_roots: Vec<BbNodeId> = r1
            .iter()
            .flatten()
            .chain(r2.iter().flatten())
            .copied()
            .collect();
        if all_roots.len() <= 1 {
            return Ok(()); // nothing to interleave
        }
        let b = self.b;
        let m_total = all_roots.len() * b;
        let m_block = m_total.div_ceil(p).max(1);

        // (1) Route every root's keys to its bitonic block(s).
        let mut packets: Vec<Packet> = Vec::new();
        let mut stream: Vec<Word> = Vec::with_capacity(m_total);
        for (j, &root) in all_roots.iter().enumerate() {
            let src = self.proc_of(self.heap.degree(root));
            let keys = self.heap.get(root).keys.clone();
            for (t, &k) in keys.iter().enumerate() {
                stream.push(k as Word);
                let global = j * b + t;
                let dst = (global / m_block).min(p - 1);
                if dst != src {
                    // Coalesce consecutive keys with the same destination.
                    if let Some(last) = packets.last_mut() {
                        if last.src == src && last.dst == dst && !global.is_multiple_of(m_block) {
                            last.payload.push(k as Word);
                            continue;
                        }
                    }
                    packets.push(Packet {
                        src,
                        dst,
                        payload: vec![k as Word],
                    });
                }
            }
        }
        route(&mut self.net, packets)?;

        // (2) Sort the stream. Fast path: when both sides already satisfy
        // the chunk-order invariant, their SoA streams are each sorted and
        // the global sort collapses to an O(N) merge-path merge — the
        // bitonic network (O(N log² N) compare rounds) only runs for inputs
        // that genuinely lack chunk order (e.g. the orphaned children of an
        // extracted root).
        let s1 = crate::soa::SoaBlocks::gather(&self.heap, r1);
        let s2 = crate::soa::SoaBlocks::gather(&self.heap, r2);
        let sorted = match crate::soa::merged_stream(&s1, &s2) {
            Some(merged) => merged,
            None => bitonic_sort(&mut self.net, &stream)?,
        };

        // (3) Tree order by old max key (ties by enumeration index).
        let mut order: Vec<usize> = (0..all_roots.len()).collect();
        order.sort_by_key(|&j| (self.heap.get(all_roots[j]).max_key(), j));

        // (4) Deal chunk j to the j-th tree; route from the block(s) home.
        let mut packets: Vec<Packet> = Vec::new();
        for (j, &root_idx) in order.iter().enumerate() {
            let root = all_roots[root_idx];
            let dst = self.proc_of(self.heap.degree(root));
            let chunk: Vec<i64> = sorted[j * b..(j + 1) * b].to_vec();
            let src_block = ((j * b) / m_block).min(p - 1);
            if src_block != dst {
                packets.push(Packet {
                    src: src_block,
                    dst,
                    payload: chunk.iter().map(|&k| k as Word).collect(),
                });
            }
            self.heap.get_mut(root).keys = chunk;
        }
        route(&mut self.net, packets)?;
        Ok(())
    }

    /// Phases I–II as metered Hamiltonian prefixes; asserts the distributed
    /// results agree with the host plan.
    fn run_metered_phases(&mut self, plan: &UnionPlan) -> Result<(), QueueError> {
        let _sp = obs::span("phases1_2");
        let width = plan.width;
        // Carry scan over KPG statuses. The word-level composition is total
        // (malformed operands collapse to the poison word), so the closure
        // needs no panic path; poison is surfaced as a typed error below.
        let statuses: Vec<Vec<Word>> = (0..width)
            .map(|i| vec![parscan::carry_status(plan.a[i], plan.b[i]).to_word()])
            .collect();
        let carried = hamiltonian_prefix_cyclic(
            &mut self.net,
            &statuses,
            &[parscan::CarryStatus::Propagate.to_word()],
            |l, r| vec![parscan::compose_status_words(l[0], r[0])],
        )?;
        for (i, t) in carried.iter().enumerate().take(width) {
            let st = parscan::CarryStatus::try_from_word(t[0])
                .map_err(|_| QueueError::Protocol("carry scan produced a malformed word"))?;
            let c = st == parscan::CarryStatus::Generate;
            debug_assert_eq!(c, plan.c[i], "distributed carry disagrees at {i}");
            let _ = c;
        }
        // Segmented prefix minima over (flag, key, ptr).
        let elements: Vec<Vec<Word>> = (0..width)
            .map(|i| {
                let (k, ptr) = plan.i_value_b[i]
                    .map(|r| (r.key, r.id.0 as Word))
                    .unwrap_or((i64::MAX, -1));
                vec![plan.i_lim[i] as Word, k, ptr]
            })
            .collect();
        let minima =
            hamiltonian_prefix_cyclic(&mut self.net, &elements, &[0, i64::MAX, -1], |l, r| {
                if r[0] != 0 {
                    r.to_vec()
                } else if r[1] < l[1] {
                    vec![l[0], r[1], r[2]]
                } else {
                    vec![l[0], l[1], l[2]]
                }
            })?;
        for (i, t) in minima.iter().enumerate().take(width) {
            let got = (t[2] != -1).then_some(t[2] as u32);
            debug_assert_eq!(
                got,
                plan.i_value_a[i].map(|r| r.id.0),
                "distributed segmented min disagrees at {i}"
            );
            let _ = got;
        }
        Ok(())
    }

    /// Phase III communication: child addresses to dominants, changed-degree
    /// roots to their new processors.
    fn phase3_movement(&mut self, plan: &UnionPlan) -> Result<(), QueueError> {
        let _sp = obs::span("phase3");
        let mut packets: Vec<Packet> = Vec::new();
        for l in &plan.links {
            let child = BbNodeId(l.child.0);
            let parent = BbNodeId(l.parent.0);
            let src = self.proc_of(self.heap.degree(child));
            let dst = self.proc_of(self.heap.degree(parent));
            if src != dst {
                // (child address, slot): 3 words with the route header.
                packets.push(Packet {
                    src,
                    dst,
                    payload: vec![child.0 as Word, l.slot as Word],
                });
            }
        }
        route(&mut self.net, packets)?;

        // Roots whose degree changes relocate with their whole record:
        // b keys + child table + header.
        let mut packets: Vec<Packet> = Vec::new();
        for (slot, r) in plan.new_roots.iter().enumerate() {
            let Some(id) = r else { continue };
            let node = BbNodeId(id.0);
            let old_deg = self.heap.degree(node);
            // After the links apply, this root's degree is `slot`.
            let new_deg = slot;
            let src = self.proc_of(old_deg);
            let dst = self.proc_of(new_deg);
            if src != dst {
                let payload_len = self.b + new_deg + 2;
                packets.push(Packet {
                    src,
                    dst,
                    payload: vec![0; payload_len],
                });
            }
        }
        route(&mut self.net, packets)?;
        Ok(())
    }

    /// Host-side structural surgery mirroring the movement.
    fn apply_plan(&mut self, plan: &UnionPlan) -> Vec<Option<BbNodeId>> {
        for l in &plan.links {
            let child = BbNodeId(l.child.0);
            let parent = BbNodeId(l.parent.0);
            debug_assert_eq!(self.heap.degree(child), l.slot);
            debug_assert_eq!(self.heap.degree(parent), l.slot);
            self.heap.get_mut(parent).children.push(child);
            self.heap.get_mut(child).parent = Some(parent);
        }
        let mut out: Vec<Option<BbNodeId>> = plan
            .new_roots
            .iter()
            .map(|r| r.map(|id| BbNodeId(id.0)))
            .collect();
        while matches!(out.last(), Some(None)) {
            out.pop();
        }
        for r in out.iter().flatten() {
            self.heap.get_mut(*r).parent = None;
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn insert_extract_roundtrip_small() {
        let mut pq = DistributedPq::new(2, 4);
        let keys = [9, 3, 7, 1, 8, 2, 6, 4, 5, 0, 11, 10];
        for &k in &keys {
            pq.insert(k).unwrap();
        }
        assert_eq!(pq.len(), keys.len());
        pq.heap().validate().unwrap();
        let mut expected = keys.to_vec();
        expected.sort_unstable();
        assert_eq!(pq.into_sorted_vec().unwrap(), expected);
    }

    #[test]
    fn chunk_order_restored_after_every_flush() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut pq = DistributedPq::new(3, 4);
        for _ in 0..64 {
            pq.insert(rng.gen_range(-1000..1000)).unwrap();
        }
        pq.heap().validate().unwrap();
        pq.heap().validate_chunk_order().unwrap();
    }

    #[test]
    fn randomized_workload_matches_oracle() {
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..8 {
            let q = rng.gen_range(1usize..4);
            let b = [2usize, 4, 8][rng.gen_range(0..3)];
            let mut pq = DistributedPq::new(q, b);
            let mut oracle: Vec<i64> = Vec::new();
            for _ in 0..300 {
                if rng.gen_bool(0.6) || oracle.is_empty() {
                    let k = rng.gen_range(-10_000..10_000);
                    pq.insert(k).unwrap();
                    oracle.push(k);
                } else {
                    let got = pq.extract_min().unwrap();
                    let (idx, _) = oracle
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, k)| **k)
                        .expect("nonempty");
                    let want = oracle.swap_remove(idx);
                    assert_eq!(got, Some(want), "trial {trial}");
                }
                assert_eq!(pq.len(), oracle.len());
            }
            pq.heap().validate().unwrap();
            oracle.sort_unstable();
            assert_eq!(pq.into_sorted_vec().unwrap(), oracle, "trial {trial}");
        }
    }

    #[test]
    fn min_is_nondestructive_and_correct() {
        let mut pq = DistributedPq::new(2, 3);
        for k in [5, 9, 1, 7, 3, 8] {
            pq.insert(k).unwrap();
        }
        assert_eq!(pq.min(), Some(1));
        assert_eq!(pq.len(), 6);
        assert_eq!(pq.extract_min().unwrap(), Some(1));
        assert_eq!(pq.min(), Some(3));
    }

    #[test]
    fn meld_two_queues() {
        let mut a = DistributedPq::new(2, 4);
        let mut b = DistributedPq::new(2, 4);
        for k in 0..20 {
            a.insert(k * 2).unwrap(); // evens
            b.insert(k * 2 + 1).unwrap(); // odds
        }
        a.meld(b).unwrap();
        a.heap().validate().unwrap();
        assert_eq!(a.len(), 40);
        assert_eq!(a.into_sorted_vec().unwrap(), (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn ledger_records_multi_operations() {
        let mut pq = DistributedPq::new(2, 4);
        for k in 0..16 {
            pq.insert(k).unwrap();
        }
        let multi_inserts = pq
            .ledger()
            .iter()
            .filter(|(op, _)| *op == DOp::MultiInsert)
            .count();
        assert_eq!(multi_inserts, 4); // 16 inserts / b=4
        assert!(pq.net_stats().messages > 0);
        while pq.extract_min().unwrap().is_some() {}
        assert!(pq
            .ledger()
            .iter()
            .any(|(op, _)| *op == DOp::MultiExtractMin));
    }

    #[test]
    fn duplicates_and_negatives() {
        let mut pq = DistributedPq::new(1, 2);
        for k in [-5, -5, 0, 0, 3, 3, -5, 1] {
            pq.insert(k).unwrap();
        }
        assert_eq!(
            pq.into_sorted_vec().unwrap(),
            vec![-5, -5, -5, 0, 0, 1, 3, 3]
        );
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod multiop_tests {
    use super::*;

    #[test]
    fn direct_multi_insert_and_extract() {
        let mut pq = DistributedPq::new(2, 4);
        pq.multi_insert(vec![9, 1, 5, 3]).unwrap();
        pq.multi_insert(vec![8, 2, 6, 4]).unwrap();
        pq.heap().validate().unwrap();
        pq.heap().validate_chunk_order().unwrap();
        assert_eq!(pq.len(), 8);
        let chunk = pq.multi_extract_min_direct().unwrap().expect("nonempty");
        assert_eq!(chunk, vec![1, 2, 3, 4]);
        let chunk = pq.multi_extract_min_direct().unwrap().expect("nonempty");
        assert_eq!(chunk, vec![5, 6, 8, 9]);
        assert_eq!(pq.multi_extract_min_direct().unwrap(), None);
    }

    #[test]
    fn direct_extract_with_nonempty_forehead_drains_buffer_first() {
        // Regression: this used to be a release-mode assert (abort). The
        // buffered items are the globally smallest, so a direct extract on a
        // non-empty Forehead must hand them over, not panic.
        let mut pq = DistributedPq::new(2, 2);
        for k in [5, 1, 4, 2, 3, 0] {
            pq.insert(k).unwrap();
        }
        assert_eq!(pq.extract_min().unwrap(), Some(0));
        let buffered = pq.multi_extract_min_direct().unwrap().expect("buffered");
        assert_eq!(buffered, vec![1]);
        assert_eq!(pq.into_sorted_vec().unwrap(), vec![2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "exactly b items")]
    fn multi_insert_rejects_wrong_width() {
        let mut pq = DistributedPq::new(2, 4);
        let _ = pq.multi_insert(vec![1, 2]);
    }

    #[test]
    fn direct_ops_are_metered() {
        let mut pq = DistributedPq::new(3, 8);
        let d1 = pq.multi_insert((0..8).collect()).unwrap();
        let d2 = pq.multi_insert((8..16).collect()).unwrap();
        // The second insert must meld with an existing tree: more traffic.
        assert!(d2.messages >= d1.messages);
        assert!(pq.net_stats().time > 0);
    }

    #[test]
    fn stats_delta_saturates_on_swapped_snapshots() {
        let mut pq = DistributedPq::new(2, 4);
        let before = pq.net_stats();
        pq.multi_insert(vec![9, 1, 5, 3]).unwrap();
        pq.multi_insert(vec![8, 2, 6, 4]).unwrap();
        let after = pq.net_stats();
        let d = after.delta(&before);
        assert!(d.messages > 0);
        // The broken call order used to overflow-panic in debug builds; the
        // contract violation now degrades to zeroed fields.
        let swapped = before.delta(&after);
        assert_eq!(swapped, NetStats::default());
    }
}
