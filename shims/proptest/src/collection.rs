//! Collection strategies (`proptest::collection::vec`).

use crate::{Strategy, TestRng};

/// A size specification for generated collections.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi_exclusive: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> SizeRange {
        SizeRange { lo: n, hi_exclusive: n + 1 }
    }
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> SizeRange {
        assert!(r.start < r.end, "empty size range");
        SizeRange { lo: r.start, hi_exclusive: r.end }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange { lo: *r.start(), hi_exclusive: *r.end() + 1 }
    }
}

/// Strategy producing `Vec`s of `element` values with a length drawn
/// from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy { element, size: size.into() }
}

/// See [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.hi_exclusive - self.size.lo) as u64;
        let len = self.size.lo + rng.below(span) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_in_bounds() {
        let strat = vec(0u8..10, 2..6);
        let mut rng = TestRng::deterministic("vec-len");
        for _ in 0..200 {
            let v = strat.generate(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn fixed_size() {
        let strat = vec(crate::Just(1u8), 3usize);
        let mut rng = TestRng::deterministic("vec-fixed");
        assert_eq!(strat.generate(&mut rng), vec![1, 1, 1]);
    }
}
