//! Per-node compiled-query cache.
//!
//! A P2P query travels hop by hop as *source text* (chapter 7 keeps the
//! wire format language-neutral), so the seed engine re-parsed the same
//! XQuery/SQL string at every node, on every hop, and again on every
//! retransmitted `Query` frame. Parsing dominates the per-hop cost for
//! cache-hit queries, and discovery workloads are dominated by a small set
//! of recurring query strings (the thesis's "standing queries" shape).
//!
//! [`QueryCache`] memoizes compilation per node, keyed by
//! `(source, language)`: the first arrival of a query string parses it,
//! every later hop, retry or retransmission reuses the [`CompiledQuery`]
//! behind an `Arc`. Eviction is least-recently-used with a small fixed
//! capacity — the cache holds *compiled* artifacts only, never results, so
//! staleness is not a concern: a given `(source, language)` pair always
//! compiles to the same query. Entries therefore never need invalidation;
//! they only leave by LRU pressure.

use crate::message::QueryLanguage;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use wsda_registry::sql::SqlQuery;
use wsda_xq::Query;

/// A query compiled once per node and shared (via `Arc`) by every hop,
/// retry and retransmission that carries the same source text.
#[derive(Debug, Clone)]
pub enum CompiledQuery {
    /// An XQuery (also used for `KeyLookup`, which is carried as an XQuery
    /// key form).
    XQuery(Arc<Query>),
    /// A SQL query evaluated over service records.
    Sql(Arc<SqlQuery>),
}

impl CompiledQuery {
    /// Compile `src` as `language`. Parse failures degrade to the empty
    /// XQuery `()` — a malformed query yields no results rather than
    /// tearing the transaction down.
    pub fn compile(src: &str, language: QueryLanguage) -> CompiledQuery {
        match language {
            QueryLanguage::Sql => match SqlQuery::parse(src) {
                Ok(q) => CompiledQuery::Sql(Arc::new(q)),
                Err(_) => CompiledQuery::XQuery(Arc::new(empty_query())),
            },
            QueryLanguage::XQuery | QueryLanguage::KeyLookup => {
                let q = Query::parse(src).unwrap_or_else(|_| empty_query());
                CompiledQuery::XQuery(Arc::new(q))
            }
        }
    }
}

fn empty_query() -> Query {
    Query::parse("()").expect("empty query parses")
}

/// A cache key seen through its borrowed parts, so a lookup can hash and
/// compare `(&str, language)` against the stored `(String, language)`
/// keys without building an owned key.
trait KeyParts {
    fn parts(&self) -> (&str, QueryLanguage);
}

impl KeyParts for (String, QueryLanguage) {
    fn parts(&self) -> (&str, QueryLanguage) {
        (&self.0, self.1)
    }
}

impl KeyParts for (&str, QueryLanguage) {
    fn parts(&self) -> (&str, QueryLanguage) {
        (self.0, self.1)
    }
}

impl<'a> Borrow<dyn KeyParts + 'a> for (String, QueryLanguage) {
    fn borrow(&self) -> &(dyn KeyParts + 'a) {
        self
    }
}

// `String` and `str` hash alike, so the parts hash exactly as the owned key.
impl Hash for dyn KeyParts + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl PartialEq for dyn KeyParts + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn KeyParts + '_ {}

/// An LRU cache of [`CompiledQuery`]s keyed by `(source, language)`.
///
/// One instance lives inside each peer node (it is used through `&mut` by
/// the node that owns it — per-node state, like the node state table, needs
/// no lock of its own). Counters expose how many compilations actually ran
/// versus how many were served from cache, which the parse-once tests and
/// the F16 bench assert on.
#[derive(Debug)]
pub struct QueryCache {
    cap: usize,
    tick: u64,
    map: HashMap<(String, QueryLanguage), (u64, CompiledQuery)>,
    parses: u64,
    hits: u64,
    evictions: u64,
}

impl QueryCache {
    /// Default capacity: discovery traffic concentrates on few distinct
    /// query strings, so a small cache captures nearly all re-parses.
    pub const DEFAULT_CAPACITY: usize = 64;

    /// A cache holding at most `cap` compiled queries (minimum 1).
    pub fn new(cap: usize) -> QueryCache {
        QueryCache {
            cap: cap.max(1),
            tick: 0,
            map: HashMap::new(),
            parses: 0,
            hits: 0,
            evictions: 0,
        }
    }

    /// The compiled form of `(src, language)` — parsed at most once while
    /// the entry stays resident. A hit allocates nothing.
    pub fn get_or_compile(&mut self, src: &str, language: QueryLanguage) -> CompiledQuery {
        self.tick += 1;
        if let Some((last_used, compiled)) = self.map.get_mut(&(src, language) as &dyn KeyParts) {
            *last_used = self.tick;
            self.hits += 1;
            return compiled.clone();
        }
        self.parses += 1;
        let compiled = CompiledQuery::compile(src, language);
        if self.map.len() >= self.cap {
            // O(len) LRU scan; capacities are small by design.
            if let Some(oldest) =
                self.map.iter().min_by_key(|(_, (t, _))| *t).map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
                self.evictions += 1;
            }
        }
        self.map.insert((src.to_owned(), language), (self.tick, compiled.clone()));
        compiled
    }

    /// How many compilations actually ran.
    pub fn parses(&self) -> u64 {
        self.parses
    }

    /// How many lookups were served without compiling.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// How many entries LRU pressure displaced.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl Default for QueryCache {
    fn default() -> Self {
        QueryCache::new(Self::DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_once_then_hits() {
        let mut c = QueryCache::new(8);
        for _ in 0..5 {
            let q = c.get_or_compile("//service/owner", QueryLanguage::XQuery);
            assert!(matches!(q, CompiledQuery::XQuery(_)));
        }
        assert_eq!(c.parses(), 1);
        assert_eq!(c.hits(), 4);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn language_is_part_of_the_key() {
        let mut c = QueryCache::new(8);
        c.get_or_compile("//service", QueryLanguage::XQuery);
        c.get_or_compile("//service", QueryLanguage::KeyLookup);
        assert_eq!(c.parses(), 2);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn shared_arc_between_hits() {
        let mut c = QueryCache::new(8);
        let a = c.get_or_compile("//service", QueryLanguage::XQuery);
        let b = c.get_or_compile("//service", QueryLanguage::XQuery);
        match (a, b) {
            (CompiledQuery::XQuery(x), CompiledQuery::XQuery(y)) => {
                assert!(Arc::ptr_eq(&x, &y), "hits share one compiled query");
            }
            _ => panic!("expected XQuery"),
        }
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut c = QueryCache::new(2);
        c.get_or_compile("q1", QueryLanguage::XQuery);
        c.get_or_compile("q2", QueryLanguage::XQuery);
        c.get_or_compile("q1", QueryLanguage::XQuery); // q1 now hotter than q2
        c.get_or_compile("q3", QueryLanguage::XQuery); // evicts q2
        assert_eq!(c.len(), 2);
        c.get_or_compile("q1", QueryLanguage::XQuery);
        assert_eq!(c.parses(), 3, "q1 stayed resident");
        c.get_or_compile("q2", QueryLanguage::XQuery);
        assert_eq!(c.parses(), 4, "q2 was evicted and re-parsed");
        assert_eq!(c.evictions(), 2, "q2 then q3 displaced");
    }

    #[test]
    fn malformed_queries_degrade_to_empty() {
        let mut c = QueryCache::new(8);
        assert!(matches!(
            c.get_or_compile("((((", QueryLanguage::XQuery),
            CompiledQuery::XQuery(_)
        ));
        assert!(matches!(
            c.get_or_compile("not sql at all", QueryLanguage::Sql),
            CompiledQuery::XQuery(_)
        ));
        // The degraded form is cached too: no re-parse storm on bad input.
        c.get_or_compile("((((", QueryLanguage::XQuery);
        assert_eq!(c.parses(), 2);
        assert_eq!(c.hits(), 1);
    }

    #[test]
    fn sql_compiles_to_sql() {
        let mut c = QueryCache::new(8);
        let q = c
            .get_or_compile("SELECT owner FROM service WHERE type = 'compute'", QueryLanguage::Sql);
        assert!(matches!(q, CompiledQuery::Sql(_)));
    }
}
