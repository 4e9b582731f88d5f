//! Query workloads (Section V): the co-access information the re-mapping
//! optimizer consumes.

use crate::vocab::QueryIds;
use crate::{Vocabulary, WordSet};

/// One distinct query with its observed frequency — the paper's
/// `(Q_i, frq(Q_i))`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightedQuery {
    /// Folded word set restricted to words known to the index vocabulary
    /// (unknown words can never match a bid, but still count toward length).
    pub set: WordSet,
    /// Total folded query length *including* unknown words — this is the
    /// `|Q|` that gates which node entries get scanned.
    pub total_len: usize,
    /// Observed frequency `frq(Q)`.
    pub freq: u64,
}

/// A set of weighted queries sampled from the (unseen) overall workload.
///
/// "Because search query frequencies are known to follow a power-law
/// distribution, the top most frequent queries can be identified robustly
/// from even a small sample" (Section V). The optimizer treats this sample
/// as the workload `WL`.
#[derive(Debug, Clone, Default)]
pub struct QueryWorkload {
    queries: Vec<WeightedQuery>,
}

impl QueryWorkload {
    /// Empty workload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from raw query strings with frequencies, resolving words
    /// against `vocab` (read-only: unknown query words are not interned).
    pub fn from_texts<'a>(
        vocab: &Vocabulary,
        texts: impl IntoIterator<Item = (&'a str, u64)>,
    ) -> Self {
        let mut queries = Vec::new();
        let mut ids = QueryIds::default();
        for (text, freq) in texts {
            if freq == 0 {
                continue;
            }
            vocab.lookup_ids(text, &mut ids, false);
            queries.push(WeightedQuery {
                set: WordSet::from_sorted(ids.words.clone()),
                total_len: ids.len,
                freq,
            });
        }
        QueryWorkload { queries }
    }

    /// Add one pre-resolved query.
    pub fn push(&mut self, query: WeightedQuery) {
        self.queries.push(query);
    }

    /// The distinct queries.
    pub fn queries(&self) -> &[WeightedQuery] {
        &self.queries
    }

    /// Number of distinct queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True if the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Total frequency mass.
    pub fn total_freq(&self) -> u64 {
        self.queries.iter().map(|q| q.freq).sum()
    }

    /// A uniform workload pretending each of the given word sets is queried
    /// exactly once — the optimizer's fallback when no real workload is
    /// supplied ("we will assume that the workload is structured in such a
    /// way that each advertisement in the corpus is accessed at least
    /// once").
    pub fn uniform_over(sets: impl IntoIterator<Item = WordSet>) -> Self {
        let queries = sets
            .into_iter()
            .map(|set| WeightedQuery {
                total_len: set.len(),
                set,
                freq: 1,
            })
            .collect();
        QueryWorkload { queries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_texts_resolves_known_words() {
        let mut vocab = Vocabulary::new();
        vocab.intern_phrase("used books");
        let wl = QueryWorkload::from_texts(&vocab, [("cheap used books", 10), ("unknown", 3)]);
        assert_eq!(wl.len(), 2);
        let q = &wl.queries()[0];
        assert_eq!(q.set.len(), 2); // "cheap" unknown
        assert_eq!(q.total_len, 3);
        assert_eq!(q.freq, 10);
        // Fully-unknown query keeps its length but has an empty set.
        assert_eq!(wl.queries()[1].set.len(), 0);
        assert_eq!(wl.queries()[1].total_len, 1);
        assert_eq!(wl.total_freq(), 13);
    }

    #[test]
    fn zero_frequency_queries_dropped() {
        let vocab = Vocabulary::new();
        let wl = QueryWorkload::from_texts(&vocab, [("a", 0)]);
        assert!(wl.is_empty());
    }

    #[test]
    fn uniform_over_sets() {
        let sets = vec![
            WordSet::from_unsorted(vec![crate::WordId(1)]),
            WordSet::from_unsorted(vec![crate::WordId(2), crate::WordId(3)]),
        ];
        let wl = QueryWorkload::uniform_over(sets);
        assert_eq!(wl.len(), 2);
        assert!(wl.queries().iter().all(|q| q.freq == 1));
        assert_eq!(wl.queries()[1].total_len, 2);
    }
}
