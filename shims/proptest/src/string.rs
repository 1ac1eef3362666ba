//! String strategies (`proptest::string::string_regex`).

use crate::{regex_gen, Strategy, TestRng};

/// Pattern rejected by the shim's regex subset.
#[derive(Debug, Clone)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unsupported string pattern: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Strategy generating strings matching `pattern` (the regex subset
/// described in the `regex_gen` module).
pub fn string_regex(pattern: &str) -> Result<RegexStrategy, Error> {
    // Validate eagerly so bad patterns fail at construction, like the
    // real crate.
    regex_gen::check(pattern).map_err(Error)?;
    Ok(RegexStrategy { pattern: pattern.to_owned() })
}

/// See [`string_regex`].
#[derive(Debug, Clone)]
pub struct RegexStrategy {
    pattern: String,
}

impl Strategy for RegexStrategy {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        regex_gen::generate(&self.pattern, rng)
            .unwrap_or_else(|e| panic!("bad string pattern {:?}: {e}", self.pattern))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_class_with_escapes() {
        let strat = string_regex("[ -~äöü✓€\\n\\t]{0,20}").unwrap();
        let mut rng = TestRng::deterministic("regex-class");
        for _ in 0..300 {
            let s = strat.generate(&mut rng);
            assert!(s.chars().count() <= 20);
            for c in s.chars() {
                let ok = (' '..='~').contains(&c) || "äöü✓€\n\t".contains(c);
                assert!(ok, "unexpected char {c:?}");
            }
        }
    }

    #[test]
    fn bad_pattern_rejected() {
        assert!(string_regex("[unterminated").is_err());
    }
}
