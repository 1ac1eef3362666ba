//! # wsda-pdp — the Peer Database Protocol
//!
//! Chapter 7 of the dissertation: the messaging model and network protocol
//! that carries UPDF operations between an **originator** and **nodes** of
//! a P2P database network.
//!
//! * [`message`] — the concrete message set: `Query` (with transaction id,
//!   query text/language, scope and response mode), `Results` (streamable,
//!   with metadata), `Partial` (a final that reports lost subtrees), `Ack`,
//!   `Invite` (direct-response rendezvous), `Close`, `Ping`/`Pong`,
//! * [`wire`] — a compact length-prefixed binary codec over [`bytes`],
//!   giving every experiment an honest bytes-on-the-wire measure,
//! * [`state`] — the per-node **node state table**: one entry per
//!   transaction with parent/children bookkeeping, each sender's frame
//!   stream (replay detection and edge closing), duplicate (loop)
//!   detection and static loop timeout expiry, keyed by interned endpoint
//!   symbols,
//! * [`intern`] — the `u32` symbol table ([`Sym`]/[`Interner`]) those
//!   tables key on, shared across nodes at simulator scale,
//! * [`querycache`] — the per-node compiled-query LRU cache: a query
//!   string travelling hop-by-hop (and any retransmission of it) is parsed
//!   at most once per node,
//! * [`resultcache`] — the per-node TTL-bounded result-set cache: a node
//!   that recently answered a query answers the next identical arrival at
//!   hop 1 and suppresses the downstream flood, within the requesting
//!   query's staleness bound.

pub mod framing;
pub mod intern;
pub mod message;
pub mod querycache;
pub mod resultcache;
pub mod state;
pub mod wire;

pub use framing::{
    checked_frame_len, encode_frame, frame_is_query, write_frame, FrameReader, MAX_FRAME,
};
pub use intern::{Interner, Sym};
pub use message::{Endpoint, Message, QueryLanguage, ResponseMode, Scope, TransactionId};
pub use querycache::{CompiledQuery, QueryCache};
pub use resultcache::{query_fingerprint, ResultCache};
pub use state::{Arrival, BeginOutcome, EdgeStream, NodeStateTable, TransactionState};
pub use wire::{decode, encode, encoded_len, WireError};
