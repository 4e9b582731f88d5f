//! Canonical word sets and bounded subset enumeration (Section IV-B).

use std::borrow::Borrow;

use crate::{wordhash, WordId};

/// A canonical (sorted, duplicate-free) set of word ids — the paper's
/// `words(A)` for a bid, or a query `Q`.
///
/// # Examples
///
/// ```
/// use broadmatch::{WordId, WordSet};
///
/// let a = WordSet::from_unsorted(vec![WordId(5), WordId(1), WordId(5)]);
/// assert_eq!(a.ids(), &[WordId(1), WordId(5)]);
///
/// let b = WordSet::from_unsorted(vec![WordId(1), WordId(5), WordId(9)]);
/// assert!(a.is_subset_of(&b));
/// assert!(!b.is_subset_of(&a));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct WordSet(Box<[WordId]>);

impl WordSet {
    /// Canonicalize: sort and deduplicate.
    pub fn from_unsorted(mut ids: Vec<WordId>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        WordSet(ids.into_boxed_slice())
    }

    /// Build from ids already sorted and duplicate-free.
    ///
    /// # Panics
    /// Debug-panics if the invariant does not hold.
    pub fn from_sorted(ids: Vec<WordId>) -> Self {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "ids must be sorted+unique"
        );
        WordSet(ids.into_boxed_slice())
    }

    /// The empty set.
    pub fn empty() -> Self {
        WordSet(Box::new([]))
    }

    /// Number of words.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the empty set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The sorted word ids.
    #[inline]
    pub fn ids(&self) -> &[WordId] {
        &self.0
    }

    /// The paper's `wordhash` of this set.
    #[inline]
    pub fn hash(&self) -> u64 {
        wordhash(&self.0)
    }

    /// Subset test by linear merge (both sides sorted).
    pub fn is_subset_of(&self, other: &WordSet) -> bool {
        is_sorted_subset(&self.0, &other.0)
    }

    /// Membership test (binary search).
    #[inline]
    pub fn contains(&self, id: WordId) -> bool {
        self.0.binary_search(&id).is_ok()
    }

    /// Iterate over all subsets of this set with sizes in
    /// `1..=max_subset_len`, as sorted id vectors. See [`SubsetIter`].
    pub fn subsets(&self, max_subset_len: usize) -> SubsetIter<'_> {
        SubsetIter::new(&self.0, max_subset_len)
    }
}

/// Lets a hash map keyed by `WordSet` be probed with a borrowed subset slice
/// (e.g. from [`SubsetIter::next_subset`]) without allocating. The derived
/// `Hash`/`Eq` of the newtype hash and compare exactly its slice, so they
/// agree with `[WordId]`'s.
impl Borrow<[WordId]> for WordSet {
    fn borrow(&self) -> &[WordId] {
        &self.0
    }
}

/// `needle ⊆ haystack` for sorted, duplicate-free slices.
pub(crate) fn is_sorted_subset(needle: &[WordId], haystack: &[WordId]) -> bool {
    if needle.len() > haystack.len() {
        return false;
    }
    let mut hi = 0;
    'outer: for &n in needle {
        while hi < haystack.len() {
            match haystack[hi].cmp(&n) {
                std::cmp::Ordering::Less => hi += 1,
                std::cmp::Ordering::Equal => {
                    hi += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// Number of subsets a query of `q` words generates when node locators are
/// bounded to `max_words` words: `Σ_{i=1..min(q,max_words)} C(q, i)`
/// (Section IV-B), saturating at `u64::MAX`.
///
/// # Examples
///
/// ```
/// use broadmatch::subset_count;
///
/// assert_eq!(subset_count(4, 10), 15);       // 2^4 - 1
/// assert_eq!(subset_count(10, 2), 10 + 45);  // C(10,1) + C(10,2)
/// ```
pub fn subset_count(q: usize, max_words: usize) -> u64 {
    let k = q.min(max_words);
    let mut total: u64 = 0;
    let mut binom: u64 = 1; // C(q, 0)
    for i in 1..=k {
        // C(q, i) = C(q, i-1) * (q - i + 1) / i, exact in this order.
        binom = match binom.checked_mul((q - i + 1) as u64).map(|b| b / i as u64) {
            Some(b) => b,
            None => return u64::MAX,
        };
        total = match total.checked_add(binom) {
            Some(t) => t,
            None => return u64::MAX,
        };
    }
    total
}

/// Iterator over the subsets of a sorted id slice, smallest sizes first —
/// the enumeration order matters: most data nodes have short locators, and
/// size-ordered enumeration lets callers stop at a budget with the
/// highest-hit-rate subsets already probed (the paper's "heuristic cutoff
/// for extremely long queries").
///
/// Within one size, subsets come in lexicographic index order. The iterator
/// reuses an internal buffer; [`SubsetIter::next_subset`] returns a borrowed
/// slice to keep the hot path allocation-free.
#[derive(Debug)]
pub struct SubsetIter<'a> {
    ids: &'a [WordId],
    /// Current combination (indices into `ids`); empty before the first call.
    indices: Vec<usize>,
    buffer: Vec<WordId>,
    size: usize,
    max_size: usize,
    done: bool,
}

impl<'a> SubsetIter<'a> {
    fn new(ids: &'a [WordId], max_subset_len: usize) -> Self {
        let max_size = max_subset_len.min(ids.len());
        SubsetIter {
            ids,
            indices: Vec::with_capacity(max_size),
            buffer: Vec::with_capacity(max_size),
            size: 1,
            max_size,
            done: ids.is_empty() || max_subset_len == 0,
        }
    }

    /// Advance and return the next subset as a sorted slice, or `None`.
    pub fn next_subset(&mut self) -> Option<&[WordId]> {
        if self.done {
            return None;
        }
        if self.indices.is_empty() {
            // First combination of the current size.
            self.indices.extend(0..self.size);
        } else if !advance_combination(&mut self.indices, self.ids.len()) {
            self.size += 1;
            if self.size > self.max_size {
                self.done = true;
                return None;
            }
            self.indices.clear();
            self.indices.extend(0..self.size);
        }
        self.buffer.clear();
        self.buffer
            .extend(self.indices.iter().map(|&i| self.ids[i]));
        Some(&self.buffer)
    }

    /// Collect all remaining subsets (testing convenience).
    pub fn collect_all(mut self) -> Vec<Vec<WordId>> {
        let mut out = Vec::new();
        while let Some(s) = self.next_subset() {
            out.push(s.to_vec());
        }
        out
    }
}

/// Advance `indices` to the next k-combination of `0..n`; false at the end.
fn advance_combination(indices: &mut [usize], n: usize) -> bool {
    let k = indices.len();
    let mut i = k;
    while i > 0 {
        i -= 1;
        if indices[i] < n - (k - i) {
            indices[i] += 1;
            for j in i + 1..k {
                indices[j] = indices[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(ids: &[u32]) -> WordSet {
        WordSet::from_unsorted(ids.iter().map(|&i| WordId(i)).collect())
    }

    #[test]
    fn canonicalization() {
        let s = ws(&[9, 1, 5, 1, 9]);
        assert_eq!(s.ids(), &[WordId(1), WordId(5), WordId(9)]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn subset_relation() {
        assert!(ws(&[]).is_subset_of(&ws(&[1])));
        assert!(ws(&[1]).is_subset_of(&ws(&[1])));
        assert!(ws(&[1, 3]).is_subset_of(&ws(&[1, 2, 3])));
        assert!(!ws(&[1, 4]).is_subset_of(&ws(&[1, 2, 3])));
        assert!(!ws(&[1, 2, 3]).is_subset_of(&ws(&[1, 2])));
    }

    #[test]
    fn contains_uses_binary_search() {
        let s = ws(&[2, 4, 6, 8]);
        assert!(s.contains(WordId(6)));
        assert!(!s.contains(WordId(5)));
    }

    #[test]
    fn borrowed_slice_probes_a_wordset_map() {
        use std::hash::{BuildHasher, RandomState};
        let set = ws(&[3, 7, 11]);
        let state = RandomState::new();
        assert_eq!(state.hash_one(&set), state.hash_one(set.ids()));
        let map: std::collections::HashMap<WordSet, u32> = [(set.clone(), 1)].into();
        assert_eq!(map.get(&[WordId(3), WordId(7), WordId(11)][..]), Some(&1));
        assert_eq!(map.get(&[WordId(3), WordId(7)][..]), None);
    }

    #[test]
    fn subset_count_small_values() {
        assert_eq!(subset_count(0, 5), 0);
        assert_eq!(subset_count(1, 5), 1);
        assert_eq!(subset_count(3, 5), 7);
        assert_eq!(subset_count(5, 5), 31);
        assert_eq!(subset_count(5, 2), 5 + 10);
        assert_eq!(subset_count(20, 1), 20);
    }

    #[test]
    fn subset_count_matches_closed_form() {
        for q in 0..=16 {
            assert_eq!(subset_count(q, q), (1u64 << q) - 1, "q={q}");
        }
    }

    #[test]
    fn subset_count_saturates() {
        assert_eq!(subset_count(200, 200), u64::MAX);
    }

    #[test]
    fn subset_iter_enumerates_all_sizes() {
        let s = ws(&[1, 2, 3]);
        let all = s.subsets(3).collect_all();
        let as_u32: Vec<Vec<u32>> = all
            .iter()
            .map(|v| v.iter().map(|w| w.0).collect())
            .collect();
        assert_eq!(
            as_u32,
            vec![
                vec![1],
                vec![2],
                vec![3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3],
                vec![1, 2, 3],
            ]
        );
    }

    #[test]
    fn subset_iter_respects_max_len() {
        let s = ws(&[1, 2, 3, 4]);
        let all = s.subsets(2).collect_all();
        assert_eq!(all.len() as u64, subset_count(4, 2));
        assert!(all.iter().all(|sub| sub.len() <= 2));
    }

    #[test]
    fn subset_iter_counts_match_formula() {
        for q in 1..=10usize {
            for max in 1..=q {
                let ids: Vec<u32> = (0..q as u32).collect();
                let n = ws(&ids).subsets(max).collect_all().len() as u64;
                assert_eq!(n, subset_count(q, max), "q={q} max={max}");
            }
        }
    }

    #[test]
    fn subset_iter_empty_inputs() {
        assert!(ws(&[]).subsets(3).collect_all().is_empty());
        assert!(ws(&[1, 2]).subsets(0).collect_all().is_empty());
    }

    #[test]
    fn subsets_are_sorted_and_unique() {
        let s = ws(&[10, 20, 30, 40, 50]);
        let all = s.subsets(5).collect_all();
        let mut seen = std::collections::HashSet::new();
        for sub in &all {
            assert!(sub.windows(2).all(|w| w[0] < w[1]), "subset not sorted");
            assert!(seen.insert(sub.clone()), "duplicate subset");
        }
        assert_eq!(all.len(), 31);
    }
}
