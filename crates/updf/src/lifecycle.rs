//! Peer lifecycle: who a node forwards to while peers come and go.
//!
//! Real P2P overlays are churn machines: nodes join, leave, crash and
//! rejoin continuously, so "my neighbors" cannot be a static list. This
//! module gives every node a **peer table** — a compact, sorted record of
//! every peer it knows about and what state that relationship is in:
//!
//! ```text
//!            Refer                    Accept
//! Identified ─────► Prospect ────────────────────┐
//!     │                │  Dial                   ▼
//!     │ Dial           ▼            Accept
//!     ├──────────► Pending ────────────────► Connected
//!     ▲                │ Timeout
//!     └────────────────┘
//!     (any non-Departed state) ── Depart ──► Departed ── Refer/Dial ──► …
//! ```
//!
//! * **Identified** — address known (bootstrap list / topology), never
//!   contacted.
//! * **Prospect** — recommended by a departing or third-party peer
//!   (referral); eligible for the `Accept` fast-path and preferred by
//!   [`PeerTable::rebootstrap`].
//! * **Pending** — a dial is in flight; times out back to Identified.
//! * **Connected** — an active overlay link; queries forward over the
//!   sorted `connected` set.
//! * **Departed** — observed dead; per-peer state (result-cache entries,
//!   pending acks, frame streams, breakers) is swept. A departed peer
//!   that returns starts over via `Refer`/`Dial`.
//!
//! The drivers change the tables on churn: a leaving node refers its
//! neighbors to each other, a node left with no link re-bootstraps from
//! the peers it knows, and a rejoining node dials its topology
//! neighbors. Nothing evicts a live Connected link.
//!
//! **Determinism:** entries live in a `Vec` sorted by peer id, the
//! connected set is a sorted `Vec`, and nothing here consumes RNG state
//! or schedules timers — a lifecycle-enabled run with zero churn is
//! bit-for-bit identical to a static-neighbor run (pinned by
//! `tests/churn_equiv.rs`).

use wsda_net::NodeId;

/// One peer relationship's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PeerState {
    /// Address known, never contacted.
    Identified,
    /// Referred by another peer; re-bootstrap prefers it.
    Prospect,
    /// Dial in flight.
    Pending,
    /// Active overlay link.
    Connected,
    /// Observed dead; state swept.
    Departed,
}

impl PeerState {
    /// All states, for exhaustiveness sweeps in tests.
    pub const ALL: [PeerState; 5] = [
        PeerState::Identified,
        PeerState::Prospect,
        PeerState::Pending,
        PeerState::Connected,
        PeerState::Departed,
    ];
}

/// An event driving the lifecycle machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PeerEvent {
    /// A third party recommended this peer.
    Refer,
    /// We initiated a connection attempt.
    Dial,
    /// The connection attempt succeeded (Prospects take the fast path).
    Accept,
    /// The dial timed out.
    Timeout,
    /// Observed dead (leave, crash, watchdog).
    Depart,
}

impl PeerEvent {
    /// All events, for exhaustiveness sweeps in tests.
    pub const ALL: [PeerEvent; 5] = [
        PeerEvent::Refer,
        PeerEvent::Dial,
        PeerEvent::Accept,
        PeerEvent::Timeout,
        PeerEvent::Depart,
    ];
}

/// The complete legal-transition table. `None` means the event is
/// illegal in that state and must be ignored (never panics: frames
/// arrive late, referrals race departures).
pub fn transition(state: PeerState, event: PeerEvent) -> Option<PeerState> {
    use PeerEvent::*;
    use PeerState::*;
    match (state, event) {
        (Identified | Departed, Refer) => Some(Prospect),
        (Identified | Prospect | Departed, Dial) => Some(Pending),
        (Pending | Prospect, Accept) => Some(Connected),
        (Pending, Timeout) => Some(Identified),
        (Identified | Prospect | Pending | Connected, Depart) => Some(Departed),
        _ => None,
    }
}

/// One known peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerEntry {
    /// The peer's id.
    pub peer: NodeId,
    /// Current lifecycle state.
    pub state: PeerState,
    /// When the current state was entered (pending timeouts).
    pub since_ms: u64,
}

/// One node's view of every peer it knows, plus its lifecycle counters.
///
/// Storage is deliberately lean — a sorted `Vec` of entries and a sorted
/// `Vec` of connected ids — so at F21 scale (10^5+ nodes) an idle table
/// costs a few hundred bytes, not a `HashMap` per node. An empty table
/// (lifecycle disabled) is two empty `Vec`s.
#[derive(Debug, Clone, Default)]
pub struct PeerTable {
    /// All known peers, sorted by id.
    entries: Vec<PeerEntry>,
    /// Connected peer ids, sorted ascending — the forwarding set.
    connected: Vec<NodeId>,
    /// Re-bootstraps performed (connected set emptied and rebuilt).
    pub rebootstraps: u64,
}

impl PeerTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// A table seeded with `neighbors` (must be sorted ascending, as
    /// [`crate::topology::Topology::neighbors`] guarantees) all
    /// Connected — the state a node boots into before any churn.
    pub fn seeded(neighbors: &[NodeId], now_ms: u64) -> Self {
        debug_assert!(neighbors.windows(2).all(|w| w[0] < w[1]), "seed must be sorted unique");
        PeerTable {
            entries: neighbors
                .iter()
                .map(|&peer| PeerEntry { peer, state: PeerState::Connected, since_ms: now_ms })
                .collect(),
            connected: neighbors.to_vec(),
            rebootstraps: 0,
        }
    }

    /// The sorted connected set — what queries forward over.
    pub fn connected(&self) -> &[NodeId] {
        &self.connected
    }

    /// All entries, sorted by peer id.
    pub fn entries(&self) -> &[PeerEntry] {
        &self.entries
    }

    /// Look up one peer.
    pub fn entry(&self, peer: NodeId) -> Option<&PeerEntry> {
        self.entries.binary_search_by_key(&peer, |e| e.peer).ok().map(|at| &self.entries[at])
    }

    fn entry_mut(&mut self, peer: NodeId) -> Option<&mut PeerEntry> {
        self.entries.binary_search_by_key(&peer, |e| e.peer).ok().map(|at| &mut self.entries[at])
    }

    /// Ensure `peer` is known, inserting an Identified entry if not.
    pub fn identify(&mut self, peer: NodeId, now_ms: u64) {
        if let Err(at) = self.entries.binary_search_by_key(&peer, |e| e.peer) {
            self.entries
                .insert(at, PeerEntry { peer, state: PeerState::Identified, since_ms: now_ms });
        }
    }

    /// Apply `event` to `peer` if legal; returns the new state when the
    /// transition fired. Unknown peers are identified first, so a
    /// referral for a never-seen peer lands as Identified → Prospect.
    pub fn apply(&mut self, peer: NodeId, event: PeerEvent, now_ms: u64) -> Option<PeerState> {
        self.identify(peer, now_ms);
        let entry = self.entry_mut(peer).expect("just identified");
        let next = transition(entry.state, event)?;
        let was_connected = entry.state == PeerState::Connected;
        entry.state = next;
        entry.since_ms = now_ms;
        match (was_connected, next == PeerState::Connected) {
            (false, true) => {
                if let Err(at) = self.connected.binary_search(&peer) {
                    self.connected.insert(at, peer);
                }
            }
            (true, false) => {
                if let Ok(at) = self.connected.binary_search(&peer) {
                    self.connected.remove(at);
                }
            }
            _ => {}
        }
        Some(next)
    }

    /// Record a referral (Identified/Departed → Prospect). Peers already
    /// Pending/Connected are left alone.
    pub fn refer(&mut self, peer: NodeId, now_ms: u64) {
        self.apply(peer, PeerEvent::Refer, now_ms);
    }

    /// Drive `peer` to Connected through legal events (Dial then Accept,
    /// or the Prospect fast-path). Returns true when newly connected.
    pub fn connect(&mut self, peer: NodeId, now_ms: u64) -> bool {
        match self.entry(peer).map(|e| e.state) {
            Some(PeerState::Connected) => false,
            Some(PeerState::Prospect) => {
                self.apply(peer, PeerEvent::Accept, now_ms);
                true
            }
            Some(PeerState::Pending) => self.apply(peer, PeerEvent::Accept, now_ms).is_some(),
            _ => {
                self.apply(peer, PeerEvent::Dial, now_ms);
                self.apply(peer, PeerEvent::Accept, now_ms).is_some()
            }
        }
    }

    /// Mark `peer` Departed; returns true when it was not already.
    pub fn depart(&mut self, peer: NodeId, now_ms: u64) -> bool {
        self.apply(peer, PeerEvent::Depart, now_ms) == Some(PeerState::Departed)
    }

    /// Time out dials that sat Pending past `timeout_ms`; returns the
    /// timed-out peers (sorted, by construction).
    pub fn tick_pending(&mut self, now_ms: u64, timeout_ms: u64) -> Vec<NodeId> {
        let stale: Vec<NodeId> = self
            .entries
            .iter()
            .filter(|e| {
                e.state == PeerState::Pending && now_ms.saturating_sub(e.since_ms) >= timeout_ms
            })
            .map(|e| e.peer)
            .collect();
        for &peer in &stale {
            self.apply(peer, PeerEvent::Timeout, now_ms);
        }
        stale
    }

    /// Peers in `state`.
    pub fn count(&self, state: PeerState) -> usize {
        self.entries.iter().filter(|e| e.state == state).count()
    }

    /// Known-but-not-engaged peers (Identified + Prospect) — the gauge
    /// the `peers_identified` family exports.
    pub fn identified(&self) -> usize {
        self.count(PeerState::Identified) + self.count(PeerState::Prospect)
    }

    /// Self-healing: with an empty connected set, promote known alive
    /// peers — Prospects first (freshest knowledge), then Identified —
    /// up to `want` links. Returns the peers connected to; increments
    /// `rebootstraps` when anything was rebuilt.
    pub fn rebootstrap(
        &mut self,
        want: usize,
        now_ms: u64,
        alive: impl Fn(NodeId) -> bool,
    ) -> Vec<NodeId> {
        if !self.connected.is_empty() || want == 0 {
            return Vec::new();
        }
        let mut picks: Vec<NodeId> = Vec::new();
        for pass in [PeerState::Prospect, PeerState::Identified] {
            for e in &self.entries {
                if picks.len() >= want {
                    break;
                }
                if e.state == pass && alive(e.peer) && !picks.contains(&e.peer) {
                    picks.push(e.peer);
                }
            }
        }
        for &peer in &picks {
            self.connect(peer, now_ms);
        }
        if !picks.is_empty() {
            self.rebootstraps += 1;
        }
        picks
    }

    /// Number of known peers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no peers are known.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(id: u32) -> NodeId {
        NodeId(id)
    }

    #[test]
    fn transition_table_shape() {
        use PeerEvent::*;
        use PeerState::*;
        assert_eq!(transition(Identified, Refer), Some(Prospect));
        assert_eq!(transition(Departed, Refer), Some(Prospect), "rejoined peers start over");
        assert_eq!(transition(Prospect, Accept), Some(Connected), "prospect fast-path");
        assert_eq!(transition(Identified, Dial), Some(Pending));
        assert_eq!(transition(Pending, Accept), Some(Connected));
        assert_eq!(transition(Pending, Timeout), Some(Identified));
        for s in [Identified, Prospect, Pending, Connected] {
            assert_eq!(transition(s, Depart), Some(Departed), "{s:?} can die");
        }
        // Terminal-ish: Departed only leaves via Refer or Dial.
        assert_eq!(transition(Departed, Depart), None);
        assert_eq!(transition(Departed, Accept), None);
        assert_eq!(transition(Connected, Accept), None);
        assert_eq!(transition(Identified, Timeout), None);
    }

    #[test]
    fn seeded_table_matches_static_neighbors() {
        let neighbors = [n(1), n(4), n(9)];
        let t = PeerTable::seeded(&neighbors, 0);
        assert_eq!(t.connected(), &neighbors);
        assert_eq!(t.count(PeerState::Connected), 3);
        assert_eq!(t.identified(), 0);
        assert_eq!(t.rebootstraps, 0);
    }

    #[test]
    fn connected_set_tracks_transitions_sorted() {
        let mut t = PeerTable::seeded(&[n(2), n(5)], 0);
        t.refer(n(1), 10);
        assert_eq!(t.entry(n(1)).unwrap().state, PeerState::Prospect);
        assert!(t.connect(n(1), 20));
        assert_eq!(t.connected(), &[n(1), n(2), n(5)], "stays sorted");
        assert!(t.depart(n(2), 30));
        assert!(!t.depart(n(2), 31), "double-depart is a no-op");
        assert_eq!(t.connected(), &[n(1), n(5)]);
        assert_eq!(t.count(PeerState::Departed), 1);
    }

    #[test]
    fn departed_peers_come_back_through_refer_or_dial() {
        let mut t = PeerTable::seeded(&[n(1), n(2)], 0);
        assert!(t.depart(n(1), 10));
        assert!(t.depart(n(2), 10));
        assert!(t.connected().is_empty());
        t.refer(n(1), 20);
        assert_eq!(t.entry(n(1)).unwrap().state, PeerState::Prospect, "a referral revives it");
        // Nobody referred n2: connect() dials it (Departed → Pending → Connected).
        assert!(t.connect(n(2), 30));
        assert_eq!(t.entry(n(2)).unwrap().state, PeerState::Connected);
        assert_eq!(t.connected(), &[n(2)]);
        assert_eq!(t.count(PeerState::Departed), 0);
    }

    #[test]
    fn pending_times_out_back_to_identified() {
        let mut t = PeerTable::new();
        t.apply(n(3), PeerEvent::Dial, 100);
        assert_eq!(t.entry(n(3)).unwrap().state, PeerState::Pending);
        assert!(t.tick_pending(500, 1_000).is_empty(), "not stale yet");
        assert_eq!(t.tick_pending(1_100, 1_000), vec![n(3)]);
        assert_eq!(t.entry(n(3)).unwrap().state, PeerState::Identified);
    }

    #[test]
    fn rebootstrap_prefers_prospects_then_identified() {
        let mut t = PeerTable::new();
        t.identify(n(1), 0);
        t.identify(n(2), 0);
        t.refer(n(9), 0);
        assert_eq!(t.rebootstrap(2, 10, |_| true), vec![n(9), n(1)]);
        assert_eq!(t.connected(), &[n(1), n(9)]);
        assert_eq!(t.rebootstraps, 1);
        // Non-empty connected set: rebootstrap declines.
        assert!(t.rebootstrap(2, 20, |_| true).is_empty());
        assert_eq!(t.rebootstraps, 1);
    }

    #[test]
    fn rebootstrap_skips_dead_peers() {
        let mut t = PeerTable::new();
        t.identify(n(1), 0);
        t.identify(n(2), 0);
        assert_eq!(t.rebootstrap(2, 10, |p| p == n(2)), vec![n(2)]);
        assert_eq!(t.connected(), &[n(2)]);
    }

    #[test]
    fn illegal_events_are_ignored() {
        let mut t = PeerTable::seeded(&[n(1)], 0);
        assert_eq!(t.apply(n(1), PeerEvent::Refer, 5), None, "connected peers ignore referrals");
        assert_eq!(t.entry(n(1)).unwrap().state, PeerState::Connected);
        assert_eq!(t.connected(), &[n(1)]);
    }
}
