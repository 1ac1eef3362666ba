//! Latency, bandwidth and fault models.

use crate::sim::NodeId;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashSet;

/// A pluggable point-to-point latency model.
pub trait LatencyModel: Send {
    /// One-way propagation delay in milliseconds from `from` to `to`.
    fn latency_ms(&self, from: NodeId, to: NodeId, rng: &mut StdRng) -> u64;
}

/// Constant latency.
#[derive(Debug, Clone, Copy)]
pub struct ConstantLatency(pub u64);

impl LatencyModel for ConstantLatency {
    fn latency_ms(&self, _: NodeId, _: NodeId, _: &mut StdRng) -> u64 {
        self.0
    }
}

/// Uniform latency in `[lo, hi]` — the classic WAN jitter model.
#[derive(Debug, Clone, Copy)]
pub struct UniformLatency {
    /// Minimum one-way delay.
    pub lo: u64,
    /// Maximum one-way delay.
    pub hi: u64,
}

impl LatencyModel for UniformLatency {
    fn latency_ms(&self, _: NodeId, _: NodeId, rng: &mut StdRng) -> u64 {
        if self.hi <= self.lo {
            self.lo
        } else {
            rng.gen_range(self.lo..=self.hi)
        }
    }
}

/// Heterogeneous nodes: a fraction of nodes are `slow_factor`× slower on
/// every path touching them — the setting that motivates the dynamic abort
/// timeout (chapter 6).
#[derive(Debug, Clone)]
pub struct HeterogeneousLatency {
    /// Base model.
    pub base_lo: u64,
    /// Base model upper bound.
    pub base_hi: u64,
    /// Which nodes are slow.
    pub slow_nodes: HashSet<NodeId>,
    /// Multiplier applied when either endpoint is slow.
    pub slow_factor: u64,
}

impl LatencyModel for HeterogeneousLatency {
    fn latency_ms(&self, from: NodeId, to: NodeId, rng: &mut StdRng) -> u64 {
        let base = if self.base_hi <= self.base_lo {
            self.base_lo
        } else {
            rng.gen_range(self.base_lo..=self.base_hi)
        };
        if self.slow_nodes.contains(&from) || self.slow_nodes.contains(&to) {
            base * self.slow_factor
        } else {
            base
        }
    }
}

/// The complete network model: propagation latency plus a serialization
/// term proportional to message size.
pub struct NetworkModel {
    /// Propagation model.
    pub latency: Box<dyn LatencyModel>,
    /// Link bandwidth in bytes per millisecond (`None` = infinite).
    pub bandwidth_bytes_per_ms: Option<u64>,
}

impl NetworkModel {
    /// Constant-latency, infinite-bandwidth model.
    pub fn constant(ms: u64) -> Self {
        NetworkModel { latency: Box::new(ConstantLatency(ms)), bandwidth_bytes_per_ms: None }
    }

    /// Uniform latency in `[lo, hi]`, infinite bandwidth.
    pub fn uniform(lo: u64, hi: u64) -> Self {
        NetworkModel { latency: Box::new(UniformLatency { lo, hi }), bandwidth_bytes_per_ms: None }
    }

    /// Add a finite bandwidth to any model.
    pub fn with_bandwidth(mut self, bytes_per_ms: u64) -> Self {
        self.bandwidth_bytes_per_ms = Some(bytes_per_ms);
        self
    }

    /// Total transfer delay for a message of `bytes` from `from` to `to`.
    pub fn transfer_ms(&self, from: NodeId, to: NodeId, bytes: u64, rng: &mut StdRng) -> u64 {
        let prop = self.latency.latency_ms(from, to, rng);
        let ser = match self.bandwidth_bytes_per_ms {
            Some(b) if b > 0 => bytes / b,
            _ => 0,
        };
        prop + ser
    }
}

/// A scheduled crash (and optional restart) of one node.
///
/// The node is unreachable — neither sends nor receives — during
/// `[down_at_ms, up_at_ms)` on the driving clock (virtual time in the
/// simulator, wall time since start on the threaded transport).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashWindow {
    /// The node that crashes.
    pub node: NodeId,
    /// When it goes down.
    pub down_at_ms: u64,
    /// When it comes back; `None` means it never restarts.
    pub up_at_ms: Option<u64>,
}

impl CrashWindow {
    /// Is `node` down at `now_ms` under this window?
    pub fn covers(&self, node: NodeId, now_ms: u64) -> bool {
        self.node == node && now_ms >= self.down_at_ms && self.up_at_ms.is_none_or(|up| now_ms < up)
    }
}

/// Failure-is-the-norm fault injection for the P2P query plane.
///
/// The failure modes a wide-area deployment actually exhibits:
/// probabilistic loss, duplicated deliveries, delay jitter, partitioned
/// links, dead peers, and peers that crash and later restart. One plan drives both the discrete-event
/// simulator and the live [`crate::ThreadedNetwork`].
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    /// Probability in `[0,1]` that any message is silently dropped.
    pub drop_probability: f64,
    /// Probability in `[0,1]` that a delivered message arrives twice.
    pub duplicate_probability: f64,
    /// Extra uniform delay in `[0, jitter_ms]` added to every delivery.
    pub jitter_ms: u64,
    /// Nodes that neither send nor receive, permanently.
    pub dead_nodes: HashSet<NodeId>,
    /// Directed links that deliver nothing. Use [`ChaosPlan::partition`]
    /// to cut both directions at once.
    pub cut_links: HashSet<(NodeId, NodeId)>,
    /// Scheduled crashes and restarts.
    pub crash_windows: Vec<CrashWindow>,
}

impl ChaosPlan {
    /// No chaos.
    pub fn none() -> Self {
        Self::default()
    }

    /// Set the drop probability.
    pub fn with_drops(mut self, p: f64) -> Self {
        self.drop_probability = p;
        self
    }

    /// Set the duplication probability.
    pub fn with_duplication(mut self, p: f64) -> Self {
        self.duplicate_probability = p;
        self
    }

    /// Set the delay jitter bound.
    pub fn with_jitter(mut self, ms: u64) -> Self {
        self.jitter_ms = ms;
        self
    }

    /// Mark a node permanently dead.
    pub fn with_dead(mut self, node: NodeId) -> Self {
        self.dead_nodes.insert(node);
        self
    }

    /// Cut the link between `a` and `b` in both directions.
    pub fn partition(mut self, a: NodeId, b: NodeId) -> Self {
        self.cut_links.insert((a, b));
        self.cut_links.insert((b, a));
        self
    }

    /// Schedule `node` to crash at `down_at_ms` and restart at
    /// `up_at_ms` (`None` = never).
    pub fn crash(mut self, node: NodeId, down_at_ms: u64, up_at_ms: Option<u64>) -> Self {
        self.crash_windows.push(CrashWindow { node, down_at_ms, up_at_ms });
        self
    }

    /// Is `node` dead or inside a crash window at `now_ms`?
    pub fn node_down(&self, node: NodeId, now_ms: u64) -> bool {
        self.dead_nodes.contains(&node) || self.crash_windows.iter().any(|w| w.covers(node, now_ms))
    }

    /// Should a message on `from -> to` at `now_ms` be dropped?
    pub fn drops(&self, from: NodeId, to: NodeId, now_ms: u64, rng: &mut StdRng) -> bool {
        if self.node_down(from, now_ms) || self.node_down(to, now_ms) {
            return true;
        }
        if self.cut_links.contains(&(from, to)) {
            return true;
        }
        self.drop_probability > 0.0 && rng.gen_bool(self.drop_probability.min(1.0))
    }

    /// Should this delivery be duplicated?
    pub fn duplicates(&self, rng: &mut StdRng) -> bool {
        self.duplicate_probability > 0.0 && rng.gen_bool(self.duplicate_probability.min(1.0))
    }

    /// Extra delay to add to one delivery.
    pub fn extra_delay_ms(&self, rng: &mut StdRng) -> u64 {
        if self.jitter_ms == 0 {
            0
        } else {
            rng.gen_range(0..=self.jitter_ms)
        }
    }
}

/// SplitMix64 — the one-shot mixer used for churn sampling. Good
/// avalanche behavior from a single multiply-xor-shift chain, so one
/// `(seed, tick, node)` triple yields an independent-looking draw
/// without any RNG state to thread through the engines.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Churn driver: per-soft-state-interval join/leave/rejoin rates.
///
/// Composable with [`ChaosPlan`] crash windows — chaos models the
/// *network* failing under the nodes, churn models the *membership*
/// changing on purpose. Sampling is stateless and deterministic: each
/// `(seed, tick, node)` triple is hashed independently, so a churn
/// schedule replays identically regardless of how many nodes exist or
/// in which order they are polled.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChurnConfig {
    /// Virtual milliseconds per churn interval (the soft-state cadence).
    pub interval_ms: u64,
    /// Probability in `[0,1]` that an alive node leaves, per interval.
    pub leave_rate: f64,
    /// Probability in `[0,1]` that a departed node rejoins, per interval.
    pub rejoin_rate: f64,
    /// Seed for the stateless churn schedule.
    pub seed: u64,
    /// A node exempt from churn (typically the query originator, so
    /// completeness measurements have a stable observation point).
    pub exempt: Option<NodeId>,
}

impl ChurnConfig {
    /// No churn (the default).
    pub fn off() -> Self {
        Self::default()
    }

    /// Churn at the given per-interval rates.
    pub fn rates(interval_ms: u64, leave_rate: f64, rejoin_rate: f64, seed: u64) -> Self {
        ChurnConfig { interval_ms, leave_rate, rejoin_rate, seed, exempt: None }
    }

    /// Exempt one node from churn.
    pub fn with_exempt(mut self, node: NodeId) -> Self {
        self.exempt = Some(node);
        self
    }

    /// Does this plan ever change membership?
    pub fn is_active(&self) -> bool {
        self.leave_rate > 0.0 || self.rejoin_rate > 0.0
    }

    /// A uniform draw in `[0,1)` for `(tick, node, salt)`.
    fn draw(&self, tick: u64, node: NodeId, salt: u64) -> f64 {
        let h = splitmix64(
            self.seed ^ splitmix64(tick ^ salt.rotate_left(32)) ^ u64::from(node.0).rotate_left(17),
        );
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Does `node` (alive) leave during interval `tick`?
    pub fn leaves(&self, tick: u64, node: NodeId) -> bool {
        if self.exempt == Some(node) {
            return false;
        }
        self.leave_rate > 0.0 && self.draw(tick, node, 0xD1E) < self.leave_rate
    }

    /// Does `node` (departed) rejoin during interval `tick`?
    pub fn rejoins(&self, tick: u64, node: NodeId) -> bool {
        self.rejoin_rate > 0.0 && self.draw(tick, node, 0x107) < self.rejoin_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn constant_latency() {
        let m = ConstantLatency(7);
        assert_eq!(m.latency_ms(NodeId(0), NodeId(1), &mut rng()), 7);
    }

    #[test]
    fn uniform_latency_in_range() {
        let m = UniformLatency { lo: 5, hi: 15 };
        let mut r = rng();
        for _ in 0..100 {
            let l = m.latency_ms(NodeId(0), NodeId(1), &mut r);
            assert!((5..=15).contains(&l));
        }
        let degenerate = UniformLatency { lo: 9, hi: 9 };
        assert_eq!(degenerate.latency_ms(NodeId(0), NodeId(1), &mut r), 9);
    }

    #[test]
    fn heterogeneous_slows_touching_paths() {
        let m = HeterogeneousLatency {
            base_lo: 10,
            base_hi: 10,
            slow_nodes: [NodeId(5)].into_iter().collect(),
            slow_factor: 8,
        };
        let mut r = rng();
        assert_eq!(m.latency_ms(NodeId(0), NodeId(1), &mut r), 10);
        assert_eq!(m.latency_ms(NodeId(5), NodeId(1), &mut r), 80);
        assert_eq!(m.latency_ms(NodeId(1), NodeId(5), &mut r), 80);
    }

    #[test]
    fn bandwidth_adds_serialization_delay() {
        let m = NetworkModel::constant(10).with_bandwidth(100);
        let mut r = rng();
        assert_eq!(m.transfer_ms(NodeId(0), NodeId(1), 0, &mut r), 10);
        assert_eq!(m.transfer_ms(NodeId(0), NodeId(1), 1000, &mut r), 20);
        let inf = NetworkModel::constant(10);
        assert_eq!(inf.transfer_ms(NodeId(0), NodeId(1), 1_000_000, &mut r), 10);
    }

    #[test]
    fn chaos_dead_nodes_and_certain_loss() {
        let mut r = rng();
        assert!(!ChaosPlan::none().drops(NodeId(0), NodeId(1), 0, &mut r));
        let dead = ChaosPlan::none().with_dead(NodeId(3));
        assert!(dead.drops(NodeId(3), NodeId(1), 0, &mut r));
        assert!(dead.drops(NodeId(1), NodeId(3), 0, &mut r));
        assert!(!dead.drops(NodeId(1), NodeId(2), 0, &mut r));
        let lossy = ChaosPlan::none().with_drops(1.0);
        assert!((0..50).all(|i| lossy.drops(NodeId(i), NodeId(i + 1), i.into(), &mut r)));
    }

    #[test]
    fn chaos_partition_cuts_both_directions() {
        let plan = ChaosPlan::none().partition(NodeId(1), NodeId(2));
        let mut r = rng();
        assert!(plan.drops(NodeId(1), NodeId(2), 0, &mut r));
        assert!(plan.drops(NodeId(2), NodeId(1), 0, &mut r));
        assert!(!plan.drops(NodeId(1), NodeId(3), 0, &mut r));
    }

    #[test]
    fn chaos_crash_window_bounds() {
        let plan = ChaosPlan::none().crash(NodeId(4), 100, Some(200));
        assert!(!plan.node_down(NodeId(4), 99));
        assert!(plan.node_down(NodeId(4), 100));
        assert!(plan.node_down(NodeId(4), 199));
        assert!(!plan.node_down(NodeId(4), 200));
        let forever = ChaosPlan::none().crash(NodeId(4), 50, None);
        assert!(forever.node_down(NodeId(4), u64::MAX));
        let mut r = rng();
        assert!(plan.drops(NodeId(4), NodeId(0), 150, &mut r));
        assert!(plan.drops(NodeId(0), NodeId(4), 150, &mut r));
        assert!(!plan.drops(NodeId(0), NodeId(4), 10, &mut r));
    }

    #[test]
    fn chaos_duplication_and_jitter() {
        let mut r = rng();
        let plan = ChaosPlan::none().with_duplication(1.0).with_jitter(25);
        assert!(plan.duplicates(&mut r));
        for _ in 0..50 {
            assert!(plan.extra_delay_ms(&mut r) <= 25);
        }
        let calm = ChaosPlan::none();
        assert!(!calm.duplicates(&mut r));
        assert_eq!(calm.extra_delay_ms(&mut r), 0);
    }

    #[test]
    fn churn_schedule_is_deterministic_and_rate_shaped() {
        let plan = ChurnConfig::rates(500, 0.3, 0.5, 42).with_exempt(NodeId(0));
        assert!(plan.is_active());
        assert!(!ChurnConfig::off().is_active());
        // Exempt node never leaves.
        assert!((0..1000).all(|t| !plan.leaves(t, NodeId(0))));
        // Same (tick, node) always answers the same.
        for t in 0..50 {
            for n in 1..20 {
                assert_eq!(plan.leaves(t, NodeId(n)), plan.leaves(t, NodeId(n)));
                assert_eq!(plan.rejoins(t, NodeId(n)), plan.rejoins(t, NodeId(n)));
            }
        }
        // Empirical rates land near the configured probabilities.
        let trials = 20_000;
        let leaves = (0..trials).filter(|&t| plan.leaves(t, NodeId(7))).count() as f64;
        let rejoins = (0..trials).filter(|&t| plan.rejoins(t, NodeId(7))).count() as f64;
        let (l, r) = (leaves / trials as f64, rejoins / trials as f64);
        assert!((l - 0.3).abs() < 0.02, "leave rate {l}");
        assert!((r - 0.5).abs() < 0.02, "rejoin rate {r}");
        // Leave and rejoin draws are decorrelated (different salts).
        assert!((0..trials).any(|t| plan.leaves(t, NodeId(7)) != plan.rejoins(t, NodeId(7))));
    }
}
