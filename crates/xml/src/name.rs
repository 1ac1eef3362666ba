//! Qualified names (`prefix:local`) as used by the WSDA data model.
//!
//! Namespaces in the thesis data model are carried lexically: a tuple element
//! may be named `tns:service` and queries match on prefix, local part, or
//! both. Full URI-based namespace resolution is out of scope (the hyper
//! registry never resolves prefixes against `xmlns` declarations; it stores
//! and matches the lexical form, as the original implementation did for its
//! tuple sets).

use std::fmt;

/// A qualified XML name split into optional prefix and local part.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QName {
    /// The namespace prefix, e.g. `tns` in `tns:service`, if any.
    pub prefix: Option<String>,
    /// The local part, e.g. `service` in `tns:service`.
    pub local: String,
}

impl QName {
    /// Parse a lexical name into prefix and local part.
    ///
    /// Splits on the *first* colon; names with no colon have no prefix.
    pub fn parse(name: &str) -> QName {
        match name.split_once(':') {
            Some((p, l)) => QName { prefix: Some(p.to_owned()), local: l.to_owned() },
            None => QName { prefix: None, local: name.to_owned() },
        }
    }

    /// A name without prefix.
    pub fn local(local: impl Into<String>) -> QName {
        QName { prefix: None, local: local.into() }
    }

    /// A name with prefix.
    pub fn prefixed(prefix: impl Into<String>, local: impl Into<String>) -> QName {
        QName { prefix: Some(prefix.into()), local: local.into() }
    }

    /// The full lexical form (`prefix:local` or just `local`).
    pub fn lexical(&self) -> String {
        match &self.prefix {
            Some(p) => format!("{p}:{}", self.local),
            None => self.local.clone(),
        }
    }

    /// True if `pattern` matches this name under XPath name-test semantics:
    /// `*` matches anything, `p:*` matches any local part under prefix `p`,
    /// a plain or prefixed name matches its lexical form exactly.
    pub fn matches(&self, pattern: &str) -> bool {
        if pattern == "*" {
            return true;
        }
        if let Some(prefix_pat) = pattern.strip_suffix(":*") {
            return self.prefix.as_deref() == Some(prefix_pat);
        }
        match pattern.split_once(':') {
            Some((p, l)) => self.prefix.as_deref() == Some(p) && self.local == l,
            None => self.prefix.is_none() && self.local == pattern,
        }
    }
}

/// [`QName::matches`] on a lexical name, without splitting it into a
/// `QName`: `*` matches anything, `p:*` matches any name whose prefix (the
/// part before the first colon) is `p`, and any other pattern matches only
/// its own lexical form.
pub fn name_matches(name: &str, pattern: &str) -> bool {
    if pattern == "*" {
        return true;
    }
    match pattern.strip_suffix(":*") {
        Some(prefix) => name.split_once(':').is_some_and(|(p, _)| p == prefix),
        None => name == pattern,
    }
}

/// Is `c` allowed as the first character of an XML name?
pub(crate) fn is_name_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

/// Is `c` allowed after the first character of an XML name?
/// Colons are handled separately by the tokenizer so that `a:b:c` is rejected.
pub(crate) fn is_name_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | '\u{b7}')
}

/// Validate a lexical XML name (optionally one `prefix:local` colon).
pub fn is_valid_name(name: &str) -> bool {
    if name.is_empty() {
        return false;
    }
    let mut parts = name.split(':');
    let first = parts.next().unwrap_or("");
    let rest: Vec<&str> = parts.collect();
    if rest.len() > 1 {
        return false; // more than one colon
    }
    let valid_part = |p: &str| {
        let mut chars = p.chars();
        match chars.next() {
            Some(c) if is_name_start(c) => chars.all(is_name_char),
            _ => false,
        }
    };
    valid_part(first) && rest.iter().all(|p| valid_part(p))
}

impl fmt::Display for QName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.prefix {
            Some(p) => write!(f, "{p}:{}", self.local),
            None => write!(f, "{}", self.local),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_plain() {
        let q = QName::parse("service");
        assert_eq!(q.prefix, None);
        assert_eq!(q.local, "service");
        assert_eq!(q.lexical(), "service");
    }

    #[test]
    fn parse_prefixed() {
        let q = QName::parse("tns:service");
        assert_eq!(q.prefix.as_deref(), Some("tns"));
        assert_eq!(q.local, "service");
        assert_eq!(q.lexical(), "tns:service");
        assert_eq!(q.to_string(), "tns:service");
    }

    #[test]
    fn wildcard_matching() {
        let q = QName::parse("tns:service");
        assert!(q.matches("*"));
        assert!(q.matches("tns:*"));
        assert!(q.matches("tns:service"));
        assert!(!q.matches("service"));
        assert!(!q.matches("other:*"));
        assert!(!q.matches("tns:other"));
    }

    #[test]
    fn plain_matching() {
        let q = QName::local("service");
        assert!(q.matches("*"));
        assert!(q.matches("service"));
        assert!(!q.matches("tns:service"));
        assert!(!q.matches("tns:*"));
    }

    #[test]
    fn name_matches_agrees_with_qname_matches() {
        let names = ["service", "tns:service", "tns:other", "a:b:c", ":x", "x:", "*", "*:l"];
        let patterns = [
            "*",
            "service",
            "tns:service",
            "tns:*",
            "other:*",
            "a:*",
            "a:b:*",
            "a:b:c",
            ":*",
            "*:l",
            "*:*",
            "x:*",
            "",
        ];
        for name in names {
            for pattern in patterns {
                assert_eq!(
                    name_matches(name, pattern),
                    QName::parse(name).matches(pattern),
                    "{name} against {pattern}"
                );
            }
        }
    }

    #[test]
    fn name_validity() {
        assert!(is_valid_name("a"));
        assert!(is_valid_name("_x-1.2"));
        assert!(is_valid_name("tns:service"));
        assert!(!is_valid_name(""));
        assert!(!is_valid_name("1abc"));
        assert!(!is_valid_name("a:b:c"));
        assert!(!is_valid_name(":b"));
        assert!(!is_valid_name("a:"));
        assert!(!is_valid_name("a b"));
    }

    #[test]
    fn ordering_is_stable() {
        let mut v = [QName::parse("b"), QName::parse("a:z"), QName::parse("a")];
        v.sort();
        assert_eq!(v[0], QName::local("a"));
    }
}
