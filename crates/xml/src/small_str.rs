//! A compact immutable string for names, attribute values and text.
//!
//! A rendered service tuple holds dozens of short strings: element and
//! attribute names (`interface`, `type`), most attribute values
//! (`Executor-1.0`, `GET`) and most texts (`cms.cern.ch`, `0.412`). As
//! `String`s each is a heap block of its own that a query follows a
//! pointer into. [`SmallStr`] is as large as a `String` (24 bytes) and
//! keeps a string of up to [`SmallStr::INLINE_CAPACITY`] bytes inside
//! itself; a longer one lives in an exact-size `Box<str>`. It compares,
//! orders and hashes exactly like the `str` it holds, so it can key maps
//! looked up by `&str`.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// An immutable string stored inline when short, boxed at exact size
/// otherwise.
#[derive(Clone)]
pub struct SmallStr(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` bytes of `bytes` are a copy of a whole `str`.
    Inline {
        len: u8,
        bytes: [u8; SmallStr::INLINE_CAPACITY],
    },
    Heap(Box<str>),
}

impl SmallStr {
    /// The longest string, in bytes, kept inline: the rest of the 24 bytes
    /// hold the length and the representation tag.
    pub const INLINE_CAPACITY: usize = 22;

    /// The string.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => std::str::from_utf8(&bytes[..usize::from(*len)])
                .expect("inline bytes are a copy of a whole str"),
            Repr::Heap(s) => s,
        }
    }

    /// The string's bytes, read without re-checking UTF-8.
    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Heap(s) => s.as_bytes(),
        }
    }
}

impl Default for SmallStr {
    fn default() -> Self {
        SmallStr::from("")
    }
}

impl From<&str> for SmallStr {
    fn from(s: &str) -> Self {
        if s.len() <= Self::INLINE_CAPACITY {
            let mut bytes = [0; Self::INLINE_CAPACITY];
            bytes[..s.len()].copy_from_slice(s.as_bytes());
            SmallStr(Repr::Inline { len: s.len() as u8, bytes })
        } else {
            SmallStr(Repr::Heap(s.into()))
        }
    }
}

impl From<String> for SmallStr {
    /// Short strings are copied inline and the `String` freed; a long one
    /// keeps its buffer, trimmed to its length.
    fn from(s: String) -> Self {
        if s.len() <= Self::INLINE_CAPACITY {
            SmallStr::from(s.as_str())
        } else {
            SmallStr(Repr::Heap(s.into_boxed_str()))
        }
    }
}

impl From<&String> for SmallStr {
    fn from(s: &String) -> Self {
        SmallStr::from(s.as_str())
    }
}

impl From<SmallStr> for String {
    fn from(s: SmallStr) -> Self {
        match s.0 {
            Repr::Inline { .. } => s.as_str().to_owned(),
            Repr::Heap(b) => b.into_string(),
        }
    }
}

impl Deref for SmallStr {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for SmallStr {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for SmallStr {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for SmallStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for SmallStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl PartialEq for SmallStr {
    fn eq(&self, other: &SmallStr) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for SmallStr {}

impl PartialOrd for SmallStr {
    fn partial_cmp(&self, other: &SmallStr) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SmallStr {
    /// Byte-wise, which is how `str` orders.
    fn cmp(&self, other: &SmallStr) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for SmallStr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl PartialEq<str> for SmallStr {
    fn eq(&self, other: &str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<&str> for SmallStr {
    fn eq(&self, other: &&str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<String> for SmallStr {
    fn eq(&self, other: &String) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashMap;

    fn is_inline(s: &SmallStr) -> bool {
        matches!(s.0, Repr::Inline { .. })
    }

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut h = DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn as_large_as_a_string() {
        assert_eq!(std::mem::size_of::<SmallStr>(), std::mem::size_of::<String>());
        assert_eq!(std::mem::size_of::<Option<SmallStr>>(), std::mem::size_of::<String>());
    }

    #[test]
    fn short_strings_are_inline_and_long_ones_boxed() {
        let at_capacity = "a".repeat(SmallStr::INLINE_CAPACITY);
        let over = "a".repeat(SmallStr::INLINE_CAPACITY + 1);
        for (s, inline) in [("", true), (at_capacity.as_str(), true), (over.as_str(), false)] {
            for small in [SmallStr::from(s), SmallStr::from(s.to_owned())] {
                assert_eq!(is_inline(&small), inline, "{} bytes", s.len());
                assert_eq!(small.as_str(), s);
                assert_eq!(small.len(), s.len());
                assert_eq!(String::from(small), s);
            }
        }
        assert!(is_inline(&SmallStr::default()));
        assert_eq!(SmallStr::default(), "");
    }

    #[test]
    fn a_multibyte_char_straddling_the_inline_limit_goes_to_the_heap() {
        // 21 ASCII bytes and a 2-byte 'é' occupy bytes 21 and 22: 23 bytes.
        let straddling = format!("{}é", "a".repeat(SmallStr::INLINE_CAPACITY - 1));
        assert_eq!(straddling.len(), SmallStr::INLINE_CAPACITY + 1);
        let s = SmallStr::from(straddling.as_str());
        assert!(!is_inline(&s));
        assert_eq!(s, straddling);
        // One ASCII byte fewer and it fits exactly.
        let fitting = &straddling[1..];
        let s = SmallStr::from(fitting);
        assert!(is_inline(&s));
        assert_eq!(s.as_str(), fitting);
        assert_eq!(s.chars().last(), Some('é'));
    }

    #[test]
    fn eq_ord_and_hash_agree_with_str() {
        let samples = [
            "",
            "a",
            "ab",
            "b",
            "Executor-1.0",
            "http://cms.cern.ch/executor/12",
            "ReplicaCatalog-2.0",
            "aaaaaaaaaaaaaaaaaaaaaa",
            "aaaaaaaaaaaaaaaaaaaaaaa",
            "aaaaaaaaaaaaaaaaaaaaab",
            "é",
            "z",
        ];
        for a in samples {
            let sa = SmallStr::from(a);
            assert_eq!(hash_of(&sa), hash_of(a), "{a:?}");
            assert_eq!(format!("{sa}"), a);
            assert_eq!(format!("{sa:?}"), format!("{a:?}"));
            for b in samples {
                let sb = SmallStr::from(b);
                assert_eq!(sa == sb, a == b, "{a:?} == {b:?}");
                assert_eq!(sa.cmp(&sb), a.cmp(b), "{a:?} cmp {b:?}");
                assert_eq!(sa.partial_cmp(&sb), a.partial_cmp(b));
                assert_eq!(sa == *b, a == b);
                assert_eq!(sa == b, a == b);
                let owned = b.to_owned();
                assert_eq!(sa == owned, a == b);
            }
        }
    }

    #[test]
    fn keys_a_map_looked_up_by_str() {
        let mut m = HashMap::new();
        m.insert(SmallStr::from("owner"), 1);
        m.insert(SmallStr::from("http://slac.stanford.edu/storage/7"), 2);
        assert_eq!(m.get("owner"), Some(&1));
        assert_eq!(m.get("http://slac.stanford.edu/storage/7"), Some(&2));
        assert_eq!(m.get("load"), None);
    }
}
