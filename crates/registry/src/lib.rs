//! # wsda-registry — the hyper registry
//!
//! Dissertation chapter 4: a database node for *XQueries over dynamic
//! distributed content*. A large distributed system has many autonomous,
//! unreliable, frequently changing content providers; the hyper registry
//! maintains a tuple per provider under **soft state** (tuples expire unless
//! refreshed), caches provider content, and answers XQueries over the tuple
//! set with client-controlled **freshness**.
//!
//! Key pieces:
//!
//! * [`Tuple`] — `(content link, type, context, timestamps, TTL, cached
//!   content)`; each tuple keeps its content inside one XML document
//!   `<tuple link=… type=… …><content>…</content></tuple>` that queries
//!   navigate,
//! * [`HyperRegistry`] — publication (`publish`/`refresh`/`unpublish`),
//!   soft-state sweeping, hybrid pull/push content caching, throttled pulls
//!   and [`Query`](wsda_xq::Query) execution (index-accelerated for simple
//!   queries, rayon-parallel scans for separable ones),
//! * [`providers`](provider) — the [`ContentProvider`] abstraction plus
//!   static/dynamic/flaky simulators standing in for remote HTTP providers,
//! * [`baseline`] — UDDI-style key-lookup and LDAP/MDS-style hierarchical
//!   registries used as evaluation baselines (experiment T1),
//! * [`clock`] — virtual time, so churn/TTL experiments run at simulation
//!   speed.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use wsda_registry::{HyperRegistry, PublishRequest, RegistryConfig, Freshness};
//! use wsda_registry::clock::ManualClock;
//! use wsda_registry::provider::StaticProvider;
//! use wsda_xml::parse_fragment;
//! use wsda_xq::Query;
//!
//! let clock = Arc::new(ManualClock::new());
//! let registry = HyperRegistry::new(RegistryConfig::default(), clock.clone());
//!
//! let content = parse_fragment(r#"<service><owner>cms.cern.ch</owner></service>"#).unwrap();
//! registry.register_provider(Arc::new(StaticProvider::new("http://cms.cern.ch/exec", content)));
//! registry.publish(PublishRequest::new("http://cms.cern.ch/exec", "service").with_ttl_ms(30_000)).unwrap();
//!
//! let q = Query::parse(r#"//service[owner = "cms.cern.ch"]"#).unwrap();
//! let out = registry.query(&q, &Freshness::default()).unwrap();
//! assert_eq!(out.results.len(), 1);
//! ```

pub mod admission;
pub mod baseline;
pub mod clock;
pub mod content_index;
pub mod error;
pub mod freshness;
pub mod persist;
pub mod provider;
pub mod registry;
pub mod shard;
pub mod sql;
pub mod store;
pub mod throttle;
pub mod tuple;
pub mod workload;

pub use admission::{Admission, AdmissionConfig, AdmissionContext, Completeness, ShedReason};
pub use clock::{Clock, ManualClock, SystemClock, Time};
pub use content_index::{ContentIndex, IndexCaps};
pub use error::{RegistryError, RegistryResult};
pub use freshness::{Freshness, RefreshPolicy};
pub use persist::{
    DurableBackend, FsyncPolicy, PersistenceConfig, RecoverNow, RecoveryReport, WalBackend,
    WalMetrics, WalOp,
};
pub use provider::ContentProvider;
pub use registry::{
    HyperRegistry, PublishRequest, QueryOutcome, QueryPlan, QueryScope, RegistryConfig,
    RegistryStats,
};
pub use shard::ShardedStore;
pub use sql::{SqlQuery, SqlRow};
pub use store::TupleStore;
pub use tuple::{Tuple, TupleKey};
