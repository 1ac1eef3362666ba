//! Baseline registries for the evaluation (experiment T1).
//!
//! Chapter 3/4 related work compares the hyper registry's query power with
//! UDDI (key lookup only), and X.500/LDAP/MDS (hierarchical scoping plus
//! attribute equality/substring filters, no joins or aggregation). Those
//! systems are closed or obsolete, so we implement faithful miniatures:
//! each baseline supports exactly the query classes the dissertation
//! credits it with, which makes the capability table runnable instead of
//! rhetorical.

use crate::tuple::TupleKey;
use std::collections::HashMap;
use std::sync::Arc;
use wsda_xml::Element;
use wsda_xq::QueryClass;

/// A flattened service record as UDDI/LDAP-style systems store it.
#[derive(Debug, Clone)]
pub struct ServiceRecord {
    /// Primary key (the content link).
    pub key: TupleKey,
    /// Flat attribute list (LDAP entry attributes). Repeated names allowed.
    pub attrs: Vec<(String, String)>,
    /// The full XML description (kept for fidelity; baselines cannot query
    /// into it).
    pub xml: Arc<Element>,
}

impl ServiceRecord {
    /// Flatten a tuple document into a record: top-level attributes of the
    /// tuple plus one attribute per leaf element of the content
    /// (`owner=cms.cern.ch`, `interface.type=Executor-1.0`, …).
    pub fn from_tuple_xml(xml: Arc<Element>) -> ServiceRecord {
        let key = xml.attr("link").unwrap_or_default().to_owned();
        let mut attrs = Vec::new();
        for a in xml.attributes() {
            attrs.push((a.name.as_str().to_owned(), a.value.as_str().to_owned()));
        }
        if let Some(content) = xml.first_child_named("content") {
            for top in content.child_elements() {
                flatten(top, "", &mut attrs);
            }
        }
        ServiceRecord { key, attrs, xml }
    }

    /// All values of attribute `name`.
    pub fn values(&self, name: &str) -> Vec<&str> {
        self.attrs.iter().filter(|(n, _)| n == name).map(|(_, v)| v.as_str()).collect()
    }
}

fn flatten(e: &Element, prefix: &str, out: &mut Vec<(String, String)>) {
    let path =
        if prefix.is_empty() { e.name().to_owned() } else { format!("{prefix}.{}", e.name()) };
    for a in e.attributes() {
        out.push((format!("{path}.{}", a.name), a.value.as_str().to_owned()));
    }
    let has_child_elements = e.child_elements().next().is_some();
    if has_child_elements {
        for c in e.child_elements() {
            flatten(c, &path, out);
        }
    } else {
        let text = e.text();
        if !text.trim().is_empty() {
            out.push((path, text));
        }
    }
}

/// What a baseline can answer.
pub trait DiscoveryBaseline {
    /// Human-readable system name.
    fn name(&self) -> &'static str;

    /// Which chapter-3 query classes the system supports.
    fn supports(&self, class: QueryClass) -> bool;

    /// Publish a record.
    fn publish(&mut self, record: ServiceRecord);

    /// Simple query: exact lookup by primary key.
    fn lookup(&self, key: &str) -> Option<&ServiceRecord>;

    /// Medium query: attribute filter, `None` when unsupported. `base`
    /// scopes the search (LDAP subtree); empty string means the whole tree.
    fn filter(&self, base: &str, attr: &str, value: &str) -> Option<Vec<&ServiceRecord>>;
}

/// UDDI-style registry: a flat key/value store. Finds records by key (and
/// by pre-registered category exact match via `type` only) — no content
/// filters, no joins.
#[derive(Debug, Default)]
pub struct KeyLookupRegistry {
    records: HashMap<TupleKey, ServiceRecord>,
    by_type: HashMap<String, Vec<TupleKey>>,
}

impl KeyLookupRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// UDDI category lookup: all records of a registered `type`.
    pub fn find_by_type(&self, type_: &str) -> Vec<&ServiceRecord> {
        self.by_type
            .get(type_)
            .map(|keys| keys.iter().filter_map(|k| self.records.get(k)).collect())
            .unwrap_or_default()
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl DiscoveryBaseline for KeyLookupRegistry {
    fn name(&self) -> &'static str {
        "uddi-style-key-lookup"
    }

    fn supports(&self, class: QueryClass) -> bool {
        class == QueryClass::Simple
    }

    fn publish(&mut self, record: ServiceRecord) {
        if let Some(ty) = record.values("type").first() {
            self.by_type.entry((*ty).to_owned()).or_default().push(record.key.clone());
        }
        self.records.insert(record.key.clone(), record);
    }

    fn lookup(&self, key: &str) -> Option<&ServiceRecord> {
        self.records.get(key)
    }

    fn filter(&self, _base: &str, _attr: &str, _value: &str) -> Option<Vec<&ServiceRecord>> {
        None // content filters unsupported
    }
}

/// LDAP/MDS-style registry: entries hang off a domain hierarchy
/// (`ch/cern/cms/…`); searches scope to a subtree and filter on attribute
/// equality or `*` substring patterns. No joins, no aggregation, no
/// restructuring.
#[derive(Debug, Default)]
pub struct HierarchicalRegistry {
    /// DN (reversed-domain path) → record keys under that path.
    records: Vec<(Vec<String>, ServiceRecord)>,
}

impl HierarchicalRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The DN of a record: reversed domain components of its context
    /// (`cms.cern.ch` → `["ch", "cern", "cms"]`).
    fn dn(record: &ServiceRecord) -> Vec<String> {
        let ctx = record.values("ctx").first().copied().unwrap_or_default().to_owned();
        ctx.split('.').rev().map(str::to_owned).collect()
    }

    fn in_subtree(dn: &[String], base: &str) -> bool {
        if base.is_empty() {
            return true;
        }
        let base_dn: Vec<&str> = base.split('.').rev().collect();
        dn.len() >= base_dn.len() && dn.iter().zip(&base_dn).all(|(a, b)| a == b)
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl DiscoveryBaseline for HierarchicalRegistry {
    fn name(&self) -> &'static str {
        "ldap-style-hierarchical"
    }

    fn supports(&self, class: QueryClass) -> bool {
        matches!(class, QueryClass::Simple | QueryClass::Medium)
    }

    fn publish(&mut self, record: ServiceRecord) {
        let dn = Self::dn(&record);
        // Replace an existing entry with the same key.
        self.records.retain(|(_, r)| r.key != record.key);
        self.records.push((dn, record));
    }

    fn lookup(&self, key: &str) -> Option<&ServiceRecord> {
        self.records.iter().find(|(_, r)| r.key == key).map(|(_, r)| r)
    }

    fn filter(&self, base: &str, attr: &str, value: &str) -> Option<Vec<&ServiceRecord>> {
        let matches_value = |v: &str| -> bool {
            if let Some(prefix) = value.strip_suffix('*') {
                v.starts_with(prefix)
            } else if let Some(suffix) = value.strip_prefix('*') {
                v.ends_with(suffix)
            } else {
                v == value
            }
        };
        Some(
            self.records
                .iter()
                .filter(|(dn, _)| Self::in_subtree(dn, base))
                .filter(|(_, r)| r.values(attr).iter().any(|v| matches_value(v)))
                .map(|(_, r)| r)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsda_xml::parse_fragment;

    fn record(link: &str, ctx: &str, iface: &str) -> ServiceRecord {
        let xml = parse_fragment(&format!(
            r#"<tuple link="{link}" type="service" ctx="{ctx}">
                 <content>
                   <service>
                     <interface type="{iface}"/>
                     <owner>{ctx}</owner>
                     <load>0.5</load>
                   </service>
                 </content>
               </tuple>"#
        ))
        .unwrap();
        ServiceRecord::from_tuple_xml(Arc::new(xml))
    }

    #[test]
    fn record_flattening() {
        let r = record("http://a", "cms.cern.ch", "Executor-1.0");
        assert_eq!(r.key, "http://a");
        assert_eq!(r.values("type"), ["service"]);
        assert_eq!(r.values("service.owner"), ["cms.cern.ch"]);
        assert_eq!(r.values("service.interface.type"), ["Executor-1.0"]);
        assert_eq!(r.values("service.load"), ["0.5"]);
    }

    #[test]
    fn key_lookup_registry() {
        let mut reg = KeyLookupRegistry::new();
        reg.publish(record("http://a", "cms.cern.ch", "Executor-1.0"));
        reg.publish(record("http://b", "fnal.gov", "Storage-1.1"));
        assert_eq!(reg.len(), 2);
        assert!(reg.lookup("http://a").is_some());
        assert!(reg.lookup("http://c").is_none());
        assert_eq!(reg.find_by_type("service").len(), 2);
        assert!(reg.filter("", "service.owner", "fnal.gov").is_none());
        assert!(reg.supports(QueryClass::Simple));
        assert!(!reg.supports(QueryClass::Medium));
        assert!(!reg.supports(QueryClass::Complex));
    }

    #[test]
    fn hierarchical_registry_scoping() {
        let mut reg = HierarchicalRegistry::new();
        reg.publish(record("http://a", "cms.cern.ch", "Executor-1.0"));
        reg.publish(record("http://b", "atlas.cern.ch", "Executor-1.0"));
        reg.publish(record("http://c", "fnal.gov", "Executor-1.0"));
        let cern = reg.filter("cern.ch", "service.interface.type", "Executor-1.0").unwrap();
        assert_eq!(cern.len(), 2);
        let all = reg.filter("", "service.interface.type", "Executor-1.0").unwrap();
        assert_eq!(all.len(), 3);
        let none = reg.filter("in2p3.fr", "service.interface.type", "Executor-1.0").unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn hierarchical_wildcards() {
        let mut reg = HierarchicalRegistry::new();
        reg.publish(record("http://a", "cms.cern.ch", "Executor-1.0"));
        reg.publish(record("http://b", "fnal.gov", "Storage-1.1"));
        let ex = reg.filter("", "service.interface.type", "Executor-*").unwrap();
        assert_eq!(ex.len(), 1);
        let v0 = reg.filter("", "service.interface.type", "*-1.0").unwrap();
        assert_eq!(v0.len(), 1);
        assert!(reg.supports(QueryClass::Medium));
        assert!(!reg.supports(QueryClass::Complex));
    }

    #[test]
    fn hierarchical_republish_replaces() {
        let mut reg = HierarchicalRegistry::new();
        reg.publish(record("http://a", "cms.cern.ch", "Executor-1.0"));
        reg.publish(record("http://a", "cms.cern.ch", "Executor-2.0"));
        assert_eq!(reg.len(), 1);
        let found = reg.filter("", "service.interface.type", "Executor-2.0").unwrap();
        assert_eq!(found.len(), 1);
    }
}
