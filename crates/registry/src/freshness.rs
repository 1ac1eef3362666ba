//! Content freshness (dissertation section 4.7, "Flexible Freshness").
//!
//! Content freshness may be driven by all three parties:
//!
//! * the **content provider** pushes content at publication/refresh time,
//! * the **registry** applies a [`RefreshPolicy`] deciding when to re-pull,
//! * the **client** attaches a [`Freshness`] demand to each query, bounding
//!   how stale served content may be.

use crate::clock::Time;
use crate::tuple::Tuple;

/// The registry-side cache refresh policy for a tuple's content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefreshPolicy {
    /// Never pull; serve whatever providers pushed ("push only").
    PushOnly,
    /// Pull only when a query demands fresher content than the cache holds
    /// ("pull on demand").
    #[default]
    PullOnDemand,
    /// Additionally re-pull in the background whenever cached content is
    /// older than the given interval (checked lazily at query/maintenance
    /// time — the registry has no autonomous threads).
    PullPeriodic {
        /// Content older than this is re-pulled at the next opportunity.
        interval_ms: u64,
    },
}

/// A client's freshness demand, attached to a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Freshness {
    /// Content older than this (ms) must be re-pulled before serving.
    /// `None` accepts any cached content ("cache is fine").
    pub max_age_ms: Option<u64>,
    /// When a demanded pull fails, serve the stale cache (`true`, default)
    /// or skip the tuple (`false`).
    pub serve_stale_on_failure: bool,
}

impl Default for Freshness {
    /// The default demand accepts any cached content and tolerates pull
    /// failures — the cheapest, most available mode.
    fn default() -> Self {
        Freshness::any()
    }
}

impl Freshness {
    /// Accept cached content of any age.
    pub fn any() -> Freshness {
        Freshness { max_age_ms: None, serve_stale_on_failure: true }
    }

    /// Demand content no older than `ms` milliseconds.
    pub fn max_age(ms: u64) -> Freshness {
        Freshness { max_age_ms: Some(ms), serve_stale_on_failure: true }
    }

    /// Demand a live pull for every tuple.
    pub fn live() -> Freshness {
        Freshness { max_age_ms: Some(0), serve_stale_on_failure: false }
    }

    /// On pull failure, drop the tuple from the result instead of serving
    /// stale content.
    pub fn strict(mut self) -> Freshness {
        self.serve_stale_on_failure = false;
        self
    }
}

/// What the registry should do about one tuple's content before serving it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDecision {
    /// Cached content satisfies every constraint: serve it.
    ServeCached,
    /// Content must be (re-)pulled before serving.
    Pull,
    /// No content and no means to get it: serve the bare tuple.
    ServeEmpty,
}

/// Decide what to do for `tuple` at `now` under `policy` and the query's
/// `demand`, given whether a provider is available to pull from.
pub fn decide(
    tuple: &Tuple,
    now: Time,
    policy: RefreshPolicy,
    demand: &Freshness,
    provider_available: bool,
) -> CacheDecision {
    let age = tuple.content_age(now);
    let have_content = age.is_some();

    if !provider_available || matches!(policy, RefreshPolicy::PushOnly) {
        return if have_content { CacheDecision::ServeCached } else { CacheDecision::ServeEmpty };
    }

    // Client demand dominates.
    if let Some(max_age) = demand.max_age_ms {
        match age {
            Some(a) if a <= max_age => return CacheDecision::ServeCached,
            _ => return CacheDecision::Pull,
        }
    }

    // Registry policy.
    match policy {
        RefreshPolicy::PullOnDemand => {
            if have_content {
                CacheDecision::ServeCached
            } else {
                CacheDecision::Pull
            }
        }
        RefreshPolicy::PullPeriodic { interval_ms } => match age {
            Some(a) if a < interval_ms => CacheDecision::ServeCached,
            _ => CacheDecision::Pull,
        },
        RefreshPolicy::PushOnly => unreachable!("handled above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsda_xml::parse_fragment;

    fn tuple_with_content(cached_at: Time) -> Tuple {
        let mut t = Tuple::new("http://x", "service", "c", Time(0), 60_000, 0);
        t.set_content(&parse_fragment("<x/>").unwrap(), cached_at);
        t
    }

    fn bare_tuple() -> Tuple {
        Tuple::new("http://x", "service", "c", Time(0), 60_000, 0)
    }

    #[test]
    fn push_only_never_pulls() {
        let t = tuple_with_content(Time(0));
        let d = decide(&t, Time(10_000), RefreshPolicy::PushOnly, &Freshness::live(), true);
        assert_eq!(d, CacheDecision::ServeCached);
        let d = decide(&bare_tuple(), Time(0), RefreshPolicy::PushOnly, &Freshness::any(), true);
        assert_eq!(d, CacheDecision::ServeEmpty);
    }

    #[test]
    fn no_provider_serves_what_exists() {
        let t = tuple_with_content(Time(0));
        assert_eq!(
            decide(&t, Time(99_999), RefreshPolicy::PullOnDemand, &Freshness::live(), false),
            CacheDecision::ServeCached
        );
        assert_eq!(
            decide(&bare_tuple(), Time(0), RefreshPolicy::PullOnDemand, &Freshness::any(), false),
            CacheDecision::ServeEmpty
        );
    }

    #[test]
    fn client_demand_forces_pull() {
        let t = tuple_with_content(Time(0));
        // content age 500 at t=500
        assert_eq!(
            decide(&t, Time(500), RefreshPolicy::PullOnDemand, &Freshness::max_age(1000), true),
            CacheDecision::ServeCached
        );
        assert_eq!(
            decide(&t, Time(1500), RefreshPolicy::PullOnDemand, &Freshness::max_age(1000), true),
            CacheDecision::Pull
        );
        assert_eq!(
            decide(&t, Time(500), RefreshPolicy::PullOnDemand, &Freshness::live(), true),
            CacheDecision::Pull
        );
    }

    #[test]
    fn pull_on_demand_fills_empty_cache() {
        assert_eq!(
            decide(&bare_tuple(), Time(0), RefreshPolicy::PullOnDemand, &Freshness::any(), true),
            CacheDecision::Pull
        );
        let t = tuple_with_content(Time(0));
        assert_eq!(
            decide(&t, Time(1 << 40), RefreshPolicy::PullOnDemand, &Freshness::any(), true),
            CacheDecision::ServeCached,
            "without a demand, any cached content is acceptable"
        );
    }

    #[test]
    fn periodic_policy_repulls_after_interval() {
        let t = tuple_with_content(Time(0));
        let policy = RefreshPolicy::PullPeriodic { interval_ms: 1000 };
        assert_eq!(
            decide(&t, Time(999), policy, &Freshness::any(), true),
            CacheDecision::ServeCached
        );
        assert_eq!(decide(&t, Time(1000), policy, &Freshness::any(), true), CacheDecision::Pull);
    }

    #[test]
    fn freshness_constructors() {
        assert_eq!(Freshness::any().max_age_ms, None);
        assert_eq!(Freshness::max_age(5).max_age_ms, Some(5));
        assert!(!Freshness::live().serve_stale_on_failure);
        assert!(!Freshness::max_age(5).strict().serve_stale_on_failure);
        assert_eq!(Freshness::default().max_age_ms, None);
    }
}
