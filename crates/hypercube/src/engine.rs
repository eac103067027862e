//! The round-based single-port network simulator.
//!
//! The simulator brokers message rounds and *enforces* the model:
//!
//! * messages only cross real hypercube links (Hamming distance 1);
//! * per round every node sends at most one message and receives at most
//!   one (single-port);
//! * a round's time cost is the longest payload moved that round (moving a
//!   `w`-word record over one link costs `w` time units — the paper's
//!   "`O(log n)` information … `O(log n)` time" accounting), and at least 1.
//!
//! Local computation is host-driven; the simulator's job is to make illegal
//! communication schedules *impossible to run* and to meter the legal ones.

use crate::gray::is_adjacent;

/// Machine word moved over links.
pub type Word = i64;

/// One message submitted to a round.
#[derive(Debug, Clone)]
pub struct Send {
    /// Sender node label.
    pub from: usize,
    /// Receiver node label (must be a neighbour of `from`).
    pub to: usize,
    /// Payload words.
    pub payload: Vec<Word>,
}

/// Communication-model violations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// `from`/`to` out of range for this cube.
    BadNode {
        /// The offending label.
        node: usize,
        /// Number of nodes.
        size: usize,
    },
    /// Message endpoints are not hypercube neighbours.
    NotAdjacent {
        /// Sender.
        from: usize,
        /// Receiver.
        to: usize,
    },
    /// A node tried to send more than one message in a round.
    MultiSend {
        /// The offending node.
        node: usize,
    },
    /// A node would receive more than one message in a round.
    MultiReceive {
        /// The offending node.
        node: usize,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::BadNode { node, size } => write!(f, "node {node} out of range ({size})"),
            NetError::NotAdjacent { from, to } => {
                write!(f, "nodes {from} and {to} are not neighbours")
            }
            NetError::MultiSend { node } => write!(f, "node {node} sent twice in one round"),
            NetError::MultiReceive { node } => {
                write!(f, "node {node} would receive twice in one round")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// Accumulated communication cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Total time: sum over rounds of `max(1, longest payload)`.
    pub time: u64,
    /// Number of rounds executed (with at least one message).
    pub rounds: u64,
    /// Total messages delivered.
    pub messages: u64,
    /// Total words moved across links (payload words × 1 hop each).
    pub word_hops: u64,
}

impl NetStats {
    /// The field-wise sum of two stat blocks (for folding a ledger of
    /// per-operation deltas back into a total).
    pub fn merge(&self, other: &NetStats) -> NetStats {
        NetStats {
            time: self.time + other.time,
            rounds: self.rounds + other.rounds,
            messages: self.messages + other.messages,
            word_hops: self.word_hops + other.word_hops,
        }
    }

    /// `self - before` for two snapshots of the *same* cumulative meter.
    ///
    /// Snapshot ordering contract: `self` is the later snapshot and no
    /// [`NetSim::reset_stats`] ran between the two. Saturates at zero rather
    /// than panicking in debug builds when the contract is broken (swapped
    /// arguments, an intervening reset) — a zeroed field is a readable
    /// symptom, an overflow panic mid-experiment is not.
    pub fn delta(&self, before: &NetStats) -> NetStats {
        NetStats {
            time: self.time.saturating_sub(before.time),
            rounds: self.rounds.saturating_sub(before.rounds),
            messages: self.messages.saturating_sub(before.messages),
            word_hops: self.word_hops.saturating_sub(before.word_hops),
        }
    }
}

impl std::fmt::Display for NetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "time={} rounds={} messages={} word_hops={}",
            self.time, self.rounds, self.messages, self.word_hops
        )
    }
}

impl obs::Recorder for NetStats {
    fn family(&self) -> &'static str {
        "hypercube.net"
    }
    fn fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("time", self.time),
            ("rounds", self.rounds),
            ("messages", self.messages),
            ("word_hops", self.word_hops),
        ]
    }
}

/// A received message: `(sender, payload)`; `None` when nothing arrived.
pub type Inbox = Vec<Option<(usize, Vec<Word>)>>;

/// The simulator: a `q`-cube with cost meters.
#[derive(Debug, Clone)]
pub struct NetSim {
    q: usize,
    stats: NetStats,
    /// Words moved per undirected link, keyed by `(lower endpoint, dim)`.
    link_words: std::collections::HashMap<(usize, usize), u64>,
}

impl NetSim {
    /// A `q`-dimensional cube (`2^q` nodes).
    pub fn new(q: usize) -> Self {
        assert!(q <= 20, "2^{q} nodes is beyond simulation scale");
        NetSim {
            q,
            stats: NetStats::default(),
            link_words: std::collections::HashMap::new(),
        }
    }

    /// Words moved per undirected link so far, as
    /// `((lower endpoint, dimension), words)` pairs in unspecified order.
    /// The congestion profile behind `word_hops`.
    pub fn link_loads(&self) -> Vec<((usize, usize), u64)> {
        self.link_words.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// The hottest link's load in words (0 when nothing moved).
    pub fn max_link_load(&self) -> u64 {
        self.link_words.values().copied().max().unwrap_or(0)
    }

    /// Cube dimension.
    pub fn q(&self) -> usize {
        self.q
    }

    /// Number of processors.
    pub fn nodes(&self) -> usize {
        1 << self.q
    }

    /// Accumulated cost.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Zero the meters.
    pub fn reset_stats(&mut self) {
        self.stats = NetStats::default();
        self.link_words.clear();
    }

    /// Check a round's send pattern against the model (node ranges,
    /// adjacency, single-port send/receive) without executing it.
    fn validate_sends(&self, sends: &[Send]) -> Result<(), NetError> {
        let n = self.nodes();
        let mut sent = vec![false; n];
        for s in sends {
            if s.from >= n {
                return Err(NetError::BadNode {
                    node: s.from,
                    size: n,
                });
            }
            if s.to >= n {
                return Err(NetError::BadNode {
                    node: s.to,
                    size: n,
                });
            }
            if !is_adjacent(s.from, s.to) {
                return Err(NetError::NotAdjacent {
                    from: s.from,
                    to: s.to,
                });
            }
            if sent[s.from] {
                return Err(NetError::MultiSend { node: s.from });
            }
            sent[s.from] = true;
        }
        let mut received = vec![false; n];
        for s in sends {
            if received[s.to] {
                return Err(NetError::MultiReceive { node: s.to });
            }
            received[s.to] = true;
        }
        Ok(())
    }

    /// Execute one synchronous round. Returns, for each node, the message it
    /// received (if any) as `(from, payload)`.
    pub fn round(&mut self, sends: Vec<Send>) -> Result<Inbox, NetError> {
        let n = self.nodes();
        let mut inbox: Inbox = vec![None; n];
        if sends.is_empty() {
            return Ok(inbox);
        }
        self.validate_sends(&sends)?;
        let mut max_payload = 1u64;
        let mut words = 0u64;
        let count = sends.len() as u64;
        for s in sends {
            max_payload = max_payload.max(s.payload.len() as u64);
            words += s.payload.len() as u64;
            let link = (s.from.min(s.to), crate::gray::link_dim(s.from, s.to));
            *self.link_words.entry(link).or_default() += s.payload.len() as u64;
            inbox[s.to] = Some((s.from, s.payload));
        }
        self.stats.time += max_payload;
        self.stats.rounds += 1;
        self.stats.messages += count;
        self.stats.word_hops += words;
        Ok(inbox)
    }

    /// Pairwise exchange across dimension `d`: every node in `mask` (or all
    /// nodes when `mask` is `None`) swaps a payload with its dimension-`d`
    /// neighbour. Exchanges are two rounds under single-port (each node both
    /// sends and receives once per round, but a *swap* needs each direction):
    /// actually both directions fit in ONE round — every node sends once and
    /// receives once. Returns the payload each node received.
    pub fn exchange(
        &mut self,
        d: usize,
        payloads: Vec<Option<Vec<Word>>>,
    ) -> Result<Inbox, NetError> {
        assert!(d < self.q.max(1), "dimension {d} out of range");
        let sends: Vec<Send> = payloads
            .into_iter()
            .enumerate()
            .filter_map(|(node, p)| {
                p.map(|payload| Send {
                    from: node,
                    to: node ^ (1 << d),
                    payload,
                })
            })
            .collect();
        self.round(sends)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
// The stats literals end in `..NetStats::default()` so that they keep
// compiling, and keep their meaning, if a meter is added.
#[allow(clippy::needless_update)]
mod tests {
    use super::*;

    #[test]
    fn legal_round_delivers_and_meters() {
        let mut net = NetSim::new(2);
        let inbox = net
            .round(vec![
                Send {
                    from: 0,
                    to: 1,
                    payload: vec![10, 20],
                },
                Send {
                    from: 3,
                    to: 2,
                    payload: vec![7],
                },
            ])
            .unwrap();
        assert_eq!(inbox[1], Some((0, vec![10, 20])));
        assert_eq!(inbox[2], Some((3, vec![7])));
        assert_eq!(
            net.stats(),
            NetStats {
                time: 2,
                rounds: 1,
                messages: 2,
                word_hops: 3,
                ..NetStats::default()
            }
        );
    }

    #[test]
    fn non_neighbour_send_rejected() {
        let mut net = NetSim::new(2);
        let err = net
            .round(vec![Send {
                from: 0,
                to: 3,
                payload: vec![1],
            }])
            .unwrap_err();
        assert_eq!(err, NetError::NotAdjacent { from: 0, to: 3 });
    }

    #[test]
    fn out_of_range_receiver_rejected() {
        let mut net = NetSim::new(2);
        let err = net
            .round(vec![Send {
                from: 0,
                to: 4,
                payload: vec![1],
            }])
            .unwrap_err();
        assert_eq!(err, NetError::BadNode { node: 4, size: 4 });
        assert_eq!(net.stats(), NetStats::default());
    }

    #[test]
    fn single_port_send_violation_rejected() {
        let mut net = NetSim::new(2);
        let err = net
            .round(vec![
                Send {
                    from: 0,
                    to: 1,
                    payload: vec![1],
                },
                Send {
                    from: 0,
                    to: 2,
                    payload: vec![2],
                },
            ])
            .unwrap_err();
        assert_eq!(err, NetError::MultiSend { node: 0 });
    }

    #[test]
    fn single_port_receive_violation_rejected() {
        let mut net = NetSim::new(2);
        let err = net
            .round(vec![
                Send {
                    from: 0,
                    to: 1,
                    payload: vec![1],
                },
                Send {
                    from: 3,
                    to: 1,
                    payload: vec![2],
                },
            ])
            .unwrap_err();
        assert_eq!(err, NetError::MultiReceive { node: 1 });
    }

    #[test]
    fn full_exchange_is_one_round() {
        let mut net = NetSim::new(3);
        let payloads: Vec<Option<Vec<Word>>> = (0..8).map(|i| Some(vec![i as Word])).collect();
        let inbox = net.exchange(1, payloads).unwrap();
        for (node, got) in inbox.iter().enumerate() {
            let partner = node ^ 0b010;
            assert_eq!(got.as_ref().unwrap(), &(partner, vec![partner as Word]));
        }
        assert_eq!(net.stats().rounds, 1);
    }

    #[test]
    fn link_loads_track_congestion() {
        let mut net = NetSim::new(2);
        for _ in 0..3 {
            net.round(vec![Send {
                from: 0,
                to: 1,
                payload: vec![1, 2],
            }])
            .unwrap();
        }
        net.round(vec![Send {
            from: 2,
            to: 3,
            payload: vec![9],
        }])
        .unwrap();
        assert_eq!(net.max_link_load(), 6); // link (0, dim 0): 3 rounds × 2 words
        let loads = net.link_loads();
        assert_eq!(loads.len(), 2);
        assert_eq!(
            loads.iter().map(|(_, w)| *w).sum::<u64>(),
            net.stats().word_hops
        );
        net.reset_stats();
        assert_eq!(net.max_link_load(), 0);
    }

    #[test]
    fn empty_round_is_free() {
        let mut net = NetSim::new(2);
        net.round(vec![]).unwrap();
        assert_eq!(net.stats(), NetStats::default());
    }

    #[test]
    fn stats_merge_delta_display() {
        let a = NetStats {
            time: 5,
            rounds: 2,
            messages: 3,
            word_hops: 7,
            ..NetStats::default()
        };
        let b = NetStats {
            time: 1,
            rounds: 1,
            messages: 1,
            word_hops: 2,
            ..NetStats::default()
        };
        let m = a.merge(&b);
        assert_eq!(
            m,
            NetStats {
                time: 6,
                rounds: 3,
                messages: 4,
                word_hops: 9,
                ..NetStats::default()
            }
        );
        assert_eq!(m.delta(&b), a);
        // Broken snapshot ordering saturates instead of panicking.
        assert_eq!(b.delta(&m), NetStats::default());
        assert_eq!(a.to_string(), "time=5 rounds=2 messages=3 word_hops=7");
        use obs::Recorder;
        assert_eq!(a.family(), "hypercube.net");
        assert_eq!(a.fields()[3], ("word_hops", 7));
    }
}
