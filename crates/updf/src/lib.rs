//! # wsda-updf — the Unified Peer-to-Peer Database Framework
//!
//! Chapter 6 of the dissertation: powerful general-purpose queries over a
//! view that integrates many autonomous database nodes, for *any* link
//! topology. UPDF is "unified" in that one framework expresses specific
//! applications across:
//!
//! * **data types** — every node hosts a hyper registry of XML tuples,
//! * **node topologies** — [`topology`] generates ring/line/star/tree/
//!   hypercube/random/power-law/full-mesh link structures,
//! * **query languages** — queries travel as source text plus language tag
//!   (XQuery evaluated here; the protocol is language-agnostic),
//! * **response modes** — routed, direct and referral responses
//!   ([`wsda_pdp::ResponseMode`]),
//! * **neighbor selection policies** — [`selection`]: flood, random-k,
//!   routing-hint,
//! * **pipelining** — per-query choice of streaming vs store-and-forward
//!   result propagation,
//! * **timeouts** — dynamic abort timeouts (budget decremented per hop) vs
//!   static per-node timeouts, plus the static loop timeout of the state
//!   table,
//! * **agent vs servent models** — a central agent fanning out to all
//!   nodes, or in-network recursive processing ([`engine`]),
//! * **containers** — many virtual nodes hosted in few containers with
//!   cheap intra-container messaging ([`container`]).
//!
//! [`node::NodeCore`] is the PDP node itself: one sans-IO state machine
//! (loop detection, the three response modes, pipelining, timeouts,
//! recovery, breakers, the edge result cache) that two drivers run.
//! [`engine::SimNetwork`] drives it on the `wsda-net` discrete-event
//! simulator and collects the metrics every evaluation figure needs;
//! [`live::LiveNetwork`] drives it on peer threads over in-process
//! channels or real TCP sockets.

pub mod arena;
pub mod breaker;
pub mod container;
pub mod engine;
pub mod lifecycle;
pub mod live;
pub mod metrics;
pub mod node;
pub mod recovery;
pub mod selection;
pub mod topology;

pub use arena::{AliveSet, EndpointTable, TimerSlab};
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker, ForwardDecision};
pub use container::ContainerAssignment;
pub use engine::{P2pConfig, QueryRun, SimNetwork};
pub use lifecycle::{LifecycleConfig, PeerEvent, PeerState, PeerTable};
pub use live::{client_query, client_query_on, LiveNetwork, LiveQueryReport, StandalonePeer};
pub use metrics::QueryMetrics;
pub use node::TimeoutMode;
pub use recovery::{Completeness, RecoveryConfig};
pub use selection::{LinkStats, NeighborPolicy, NodeKinds, RoutingIndex};
pub use topology::Topology;
