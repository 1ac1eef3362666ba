//! Answer serialization and the checks every workload runs on its answers.

use wsda_xq::Sequence;

/// Serialize result items the way a registry server puts them on the wire
/// (and the way live peers do): elements as compact XML, everything else
/// as its string value.
pub fn serialize(results: &Sequence) -> Vec<String> {
    results
        .iter()
        .map(|item| match item.as_node() {
            Some(n) => match n.materialize_element() {
                Some(e) => e.to_compact_string(),
                None => n.string_value(),
            },
            None => item.string_value(),
        })
        .collect()
}

/// An order-insensitive fingerprint of a result multiset: the item count
/// and the wrapping sum of per-item hashes. Sums add, so the fingerprint of
/// a union is the sum of its parts' fingerprints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Answer {
    /// Items in the answer.
    pub items: usize,
    /// Σ FNV-1a(item), wrapping.
    pub hash: u64,
}

impl Answer {
    /// Fingerprint `items`, whatever their order.
    pub fn of(items: &[String]) -> Answer {
        let hash = items.iter().fold(0u64, |sum, item| sum.wrapping_add(fnv1a(item.as_bytes())));
        Answer { items: items.len(), hash }
    }

    /// The fingerprint of the union of two multisets.
    pub fn union(self, other: Answer) -> Answer {
        Answer { items: self.items + other.items, hash: self.hash.wrapping_add(other.hash) }
    }
}

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The federation oracle: an answer is right when it is `Complete` and its
/// multiset equals the union of local evaluations over the peers within
/// the query's radius.
pub fn federation_answer_ok(complete: bool, got: &[String], expected: &Answer) -> bool {
    complete && Answer::of(got) == *expected
}

/// The flood oracle: a repeat flood returns exactly the first flood's
/// results, completes, and evaluates every node within the radius.
pub fn flood_ok(
    complete: bool,
    results: &[String],
    first: &[String],
    nodes_evaluated: u64,
    reachable: u64,
) -> bool {
    complete && results == first && nodes_evaluated == reachable
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn answers_ignore_order_but_not_multiplicity() {
        let a = Answer::of(&items(&["<a/>", "<b/>", "<a/>"]));
        assert_eq!(a, Answer::of(&items(&["<a/>", "<a/>", "<b/>"])));
        assert_ne!(a, Answer::of(&items(&["<a/>", "<b/>", "<b/>"])));
        assert_ne!(a, Answer::of(&items(&["<a/>", "<b/>"])));
        // Item boundaries matter: ["ab"] is not ["a", "b"].
        assert_ne!(Answer::of(&items(&["ab"])), Answer::of(&items(&["a", "b"])));
        // A union's fingerprint is the sum of its parts'.
        let parts = Answer::of(&items(&["<a/>", "<b/>"])).union(Answer::of(&items(&["<a/>"])));
        assert_eq!(parts, a);
    }

    #[test]
    fn federation_oracle_rejects_planted_wrong_answers() {
        let truth = items(&["<owner>cern.ch</owner>", "<owner>fnal.gov</owner>"]);
        let expected = Answer::of(&truth);
        assert!(federation_answer_ok(true, &truth, &expected));
        let mut missing = truth.clone();
        missing.pop();
        assert!(!federation_answer_ok(true, &missing, &expected));
        let mut extra = truth.clone();
        extra.push("<owner>infn.it</owner>".to_owned());
        assert!(!federation_answer_ok(true, &extra, &expected));
        // The right items from a Partial answer still fail.
        assert!(!federation_answer_ok(false, &truth, &expected));
    }

    #[test]
    fn flood_oracle_rejects_planted_wrong_answers() {
        let first = items(&["<owner>a</owner>", "<owner>b</owner>"]);
        assert!(flood_ok(true, &first, &first, 100, 100));
        let reordered = items(&["<owner>b</owner>", "<owner>a</owner>"]);
        assert!(!flood_ok(true, &reordered, &first, 100, 100), "repeat floods are bit-identical");
        assert!(!flood_ok(true, &first[..1], &first, 100, 100));
        assert!(!flood_ok(true, &first, &first, 99, 100), "a node went unevaluated");
        assert!(!flood_ok(false, &first, &first, 100, 100));
    }
}
