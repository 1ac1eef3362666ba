//! # wsda-net — network substrate for the P2P experiments
//!
//! The original system ran over HTTP on Grid testbeds; reproducing the P2P
//! evaluation needs thousands of nodes on one machine, so this crate
//! provides:
//!
//! * [`sim`] — a deterministic discrete-event simulator: a virtual clock,
//!   an event queue, pluggable latency/bandwidth models and fault
//!   injection. UPDF drives it to measure messages, hops and wall-clock
//!   shapes for networks up to 10⁴ nodes,
//! * [`model`] — latency/bandwidth models (constant, uniform, heterogeneous
//!   per-node slowness) and drop/crash fault plans,
//! * [`transport`] — a threaded transport for *live* multi-threaded runs
//!   of the same node code (examples and stress tests), with an optional
//!   delay line and bounded two-lane inboxes that shed query frames —
//!   counted — when a receiver falls behind,
//! * [`tcp`] — a real-socket TCP transport behind the same
//!   [`FrameTransport`] trait: each node gets a loopback (or explicit)
//!   listener, frames travel length-prefixed over actual sockets, and
//!   chaos plans tear down real connections. One process per node, all
//!   nodes in one process, or anything in between.
//!
//! Virtual time is [`wsda_registry::clock::Time`], shared with the
//! registry's soft-state machinery, so one clock drives leases, caches and
//! message delivery coherently.

pub mod model;
pub mod sim;
pub mod tcp;
pub mod transport;

pub use model::{ChaosPlan, ChurnConfig, CrashWindow, LatencyModel, NetworkModel};
pub use sim::{Delivery, NodeId, SimStats, Simulator};
pub use tcp::{TcpConfig, TcpStats, TcpTransport};
pub use transport::{
    Envelope, Frame, FrameClassifier, FrameTransport, Inbox, InboxDrops, ThreadedNetwork,
};
