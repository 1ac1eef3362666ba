//! The concrete PDP message set (dissertation section 7.4).
//!
//! Design notes carried over from the thesis:
//!
//! * every message belongs to a **transaction** identified by a random
//!   128-bit id — the key for loop detection and state-table routing,
//! * queries are forwarded as *source text* plus a declared query language
//!   (the framework is language-agnostic: XQuery, SQL, …),
//! * the **scope** travels with the query and is *decremented in place*
//!   (radius, abort timeout) at every hop,
//! * results stream: a transaction may carry many `Results` messages; the
//!   `last` flag closes the sender's side,
//! * `Invite` supports **direct response**: an intermediate node invites
//!   the originator (or agent) to receive its results directly rather than
//!   routing them back hop-by-hop.

/// A network-wide node address. The original used URLs; experiments use
/// small string forms of simulator node ids (`"n42"`).
pub type Endpoint = String;

/// A 128-bit transaction identifier, unique per query execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransactionId(pub u128);

impl TransactionId {
    /// Derive a transaction id from a seed and counter (deterministic for
    /// simulations; live deployments use random bits).
    pub fn derive(seed: u64, counter: u64) -> TransactionId {
        // SplitMix64-style mixing on both words.
        fn mix(mut z: u64) -> u64 {
            z = z.wrapping_add(0x9e3779b97f4a7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }
        let hi = mix(seed ^ mix(counter));
        let lo = mix(counter ^ mix(seed.wrapping_add(1)));
        TransactionId(((hi as u128) << 64) | lo as u128)
    }
}

impl std::fmt::Display for TransactionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "txn:{:032x}", self.0)
    }
}

/// The query language of a forwarded query (UPDF is language-agnostic).
/// `Hash` so `(source, language)` can key the per-node compiled-query
/// cache ([`crate::QueryCache`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryLanguage {
    /// XQuery source text.
    XQuery,
    /// SQL source text (carried, not evaluated by this implementation).
    Sql,
    /// An opaque key lookup (the Gnutella/DNS class of systems).
    KeyLookup,
}

/// How results travel back to the originator (section 6.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponseMode {
    /// Results route hop-by-hop back along the query path.
    Routed,
    /// Nodes send results directly to the originator's endpoint.
    Direct {
        /// Where matching nodes deliver results.
        originator: Endpoint,
    },
    /// Nodes reply with *referrals* (addresses of matching nodes); the
    /// originator fetches results itself.
    Referral,
}

/// The query scope travelling with a query (sections 6.5–6.8).
#[derive(Debug, Clone, PartialEq)]
pub struct Scope {
    /// Remaining hop radius; `None` = unbounded.
    pub radius: Option<u32>,
    /// Remaining dynamic abort timeout in ms: the total time budget left
    /// for this subtree to produce results. Decremented (minus per-hop
    /// slack) at each forward.
    pub abort_timeout_ms: u64,
    /// Static loop timeout: how long nodes retain transaction state for
    /// duplicate detection.
    pub loop_timeout_ms: u64,
    /// Stop after this many results reached the originator; `None` =
    /// unbounded.
    pub max_results: Option<u64>,
    /// Neighbor selection policy tag interpreted by each node
    /// (`"all"`, `"random:k"`, `"hint:<type>"`, …).
    pub neighbor_policy: String,
    /// May nodes stream partial results before their subtree completes?
    pub pipeline: bool,
    /// Maximum acceptable age, in ms, of a cached result set a node may
    /// serve instead of evaluating and forwarding (the F3 staleness
    /// bound this query tolerates). `0` — the default — forbids cached
    /// answers entirely.
    pub result_staleness_ms: u64,
}

impl Default for Scope {
    fn default() -> Self {
        Scope {
            radius: None,
            abort_timeout_ms: 30_000,
            loop_timeout_ms: 120_000,
            max_results: None,
            neighbor_policy: "all".to_owned(),
            pipeline: true,
            result_staleness_ms: 0,
        }
    }
}

impl Scope {
    /// The scope to forward to a neighbor: radius minus one, abort budget
    /// minus the estimated per-hop cost. Returns `None` when the scope is
    /// exhausted and the query must not be forwarded.
    pub fn forwarded(&self, hop_cost_ms: u64) -> Option<Scope> {
        let radius = match self.radius {
            Some(0) => return None,
            Some(r) => Some(r - 1),
            None => None,
        };
        if self.abort_timeout_ms <= hop_cost_ms {
            return None;
        }
        Some(Scope {
            radius,
            abort_timeout_ms: self.abort_timeout_ms - hop_cost_ms,
            ..self.clone()
        })
    }
}

/// One result item: a compact-serialized XML fragment.
pub type ResultItem = String;

/// A PDP message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Start or forward a query.
    Query {
        /// Transaction this query belongs to.
        transaction: TransactionId,
        /// Query source text.
        query: String,
        /// Language of `query`.
        language: QueryLanguage,
        /// Scope, already adjusted for this hop.
        scope: Scope,
        /// Response mode.
        response_mode: ResponseMode,
    },
    /// A batch of results flowing toward the originator.
    Results {
        /// Transaction the results belong to.
        transaction: TransactionId,
        /// Per-sender, per-transaction sequence number. Retransmissions
        /// reuse the original `seq`, so receivers can suppress duplicates
        /// and acknowledge idempotently.
        seq: u64,
        /// The result items.
        items: Vec<ResultItem>,
        /// True when the sender's subtree is complete.
        last: bool,
        /// The node the items originate from (metadata response support).
        origin: Endpoint,
        /// Provenance: true when the sender answered from its result
        /// cache (within the query's staleness bound) rather than by
        /// evaluating and flooding its subtree.
        cached: bool,
    },
    /// Acknowledge receipt of a `Results` frame (`transaction`, `seq`)
    /// from the neighbor this ack is sent to. Unacked frames are
    /// retransmitted; acks make retransmission terminate.
    Ack {
        /// Transaction the acknowledged frame belongs to.
        transaction: TransactionId,
        /// Sequence number of the acknowledged `Results` frame.
        seq: u64,
    },
    /// A subtree failed: the sender could not complete `transaction`
    /// (e.g. its children died). Lets parents stop waiting instead of
    /// running the watchdog to exhaustion.
    Error {
        /// Transaction the failure belongs to.
        transaction: TransactionId,
        /// The node reporting the failure.
        origin: Endpoint,
        /// Human-readable cause (logs, diagnostics).
        reason: String,
    },
    /// Direct-response invitation: "I have results for this transaction;
    /// fetch/receive them at `node`" (section 6.3).
    Invite {
        /// Transaction concerned.
        transaction: TransactionId,
        /// The node holding results.
        node: Endpoint,
        /// How many result items it holds (0 = unknown).
        expected: u64,
    },
    /// Terminate a transaction early (originator satisfied or timed out).
    Close {
        /// Transaction to terminate.
        transaction: TransactionId,
    },
    /// Liveness probe.
    Ping,
    /// Liveness reply.
    Pong,
}

impl Message {
    /// The transaction this message belongs to, if any.
    pub fn transaction(&self) -> Option<TransactionId> {
        match self {
            Message::Query { transaction, .. }
            | Message::Results { transaction, .. }
            | Message::Ack { transaction, .. }
            | Message::Error { transaction, .. }
            | Message::Invite { transaction, .. }
            | Message::Close { transaction } => Some(*transaction),
            Message::Ping | Message::Pong => None,
        }
    }

    /// Short tag for logs and stats.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Query { .. } => "query",
            Message::Results { .. } => "results",
            Message::Ack { .. } => "ack",
            Message::Error { .. } => "error",
            Message::Invite { .. } => "invite",
            Message::Close { .. } => "close",
            Message::Ping => "ping",
            Message::Pong => "pong",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transaction_ids_unique_and_deterministic() {
        let a = TransactionId::derive(1, 1);
        let b = TransactionId::derive(1, 2);
        let c = TransactionId::derive(2, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, TransactionId::derive(1, 1));
        assert!(a.to_string().starts_with("txn:"));
    }

    #[test]
    fn scope_forwarding_decrements_radius() {
        let s = Scope { radius: Some(2), ..Scope::default() };
        let f = s.forwarded(100).unwrap();
        assert_eq!(f.radius, Some(1));
        let f2 = f.forwarded(100).unwrap();
        assert_eq!(f2.radius, Some(0));
        assert!(f2.forwarded(100).is_none(), "radius exhausted");
    }

    #[test]
    fn scope_forwarding_spends_time_budget() {
        let s = Scope { abort_timeout_ms: 250, ..Scope::default() };
        let f = s.forwarded(100).unwrap();
        assert_eq!(f.abort_timeout_ms, 150);
        let f2 = f.forwarded(100).unwrap();
        assert_eq!(f2.abort_timeout_ms, 50);
        assert!(f2.forwarded(100).is_none(), "budget exhausted");
    }

    #[test]
    fn unbounded_scope_forwards_forever() {
        let s = Scope::default();
        let mut cur = s;
        for _ in 0..100 {
            cur = cur.forwarded(0).unwrap();
        }
        assert_eq!(cur.radius, None);
    }

    #[test]
    fn message_accessors() {
        let t = TransactionId::derive(0, 0);
        let q = Message::Query {
            transaction: t,
            query: "//service".into(),
            language: QueryLanguage::XQuery,
            scope: Scope::default(),
            response_mode: ResponseMode::Routed,
        };
        assert_eq!(q.transaction(), Some(t));
        assert_eq!(q.kind(), "query");
        assert_eq!(Message::Ping.transaction(), None);
        assert_eq!(Message::Pong.kind(), "pong");
    }
}
