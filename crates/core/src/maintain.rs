//! Index maintenance under insertions and deletions (Section VI).
//!
//! The paper: inserts place the new ad with a *fast local heuristic* rather
//! than re-running the set-cover optimization; deletes "become more
//! expensive to process as — due to the re-mapping — we cannot identify the
//! correct data node to delete from without processing the equivalent of a
//! broad-match query", which is acceptable because deletions are much rarer
//! than queries; and the mapping itself is re-optimized only periodically
//! ([`MaintainedIndex::reoptimize`]), since online set cover has much weaker
//! guarantees.
//!
//! [`MaintainedIndex`] wraps a [`BroadMatchIndex`] in a [`std::sync::RwLock`]:
//! queries take shared locks, mutations exclusive ones — matching the
//! read-mostly reality of ad serving. For serving paths where even a shared
//! lock is too much coordination, `broadmatch-serve` layers an atomic
//! snapshot-swap runtime on top of immutable [`BroadMatchIndex`] values.

use std::sync::RwLock;

use crate::build::{DirectoryKind, IndexBuilder};
use crate::directory::NodeDirectory;
use crate::node::{encode_entries, NodeEntry, PhraseGroup};
use crate::optimize::synthetic_locator;
use crate::telemetry::MaintainCounters;
use crate::{AdId, AdInfo, BroadMatchIndex, BuildError, MatchHit, MatchType, WordSet};

/// A broad-match index supporting concurrent queries and online updates.
///
/// Requires the hash-table directory: the succinct directory of Section VI
/// is static by construction (its offsets are rank/select structures) and
/// must be rebuilt to change — use [`MaintainedIndex::reoptimize`] flows for
/// that deployment style instead.
///
/// # Examples
///
/// ```
/// use broadmatch::{AdInfo, IndexBuilder, MaintainedIndex, MatchType};
///
/// let mut b = IndexBuilder::new();
/// b.add("used books", AdInfo::with_bid(1, 10)).unwrap();
/// let index = MaintainedIndex::new(b.build().unwrap()).unwrap();
///
/// index.insert("cheap flights", AdInfo::with_bid(2, 99)).unwrap();
/// assert_eq!(index.query("find cheap flights", MatchType::Broad).len(), 1);
///
/// assert_eq!(index.remove("used books", 1), 1);
/// assert!(index.query("used books", MatchType::Broad).is_empty());
/// ```
#[derive(Debug)]
pub struct MaintainedIndex {
    inner: RwLock<BroadMatchIndex>,
    dead_bytes: RwLock<usize>,
    counters: MaintainCounters,
}

impl MaintainedIndex {
    /// Wrap `index` for maintenance.
    ///
    /// # Errors
    /// [`BuildError::InvalidConfig`] if the index uses the succinct
    /// directory.
    pub fn new(index: BroadMatchIndex) -> Result<Self, BuildError> {
        if !matches!(index.directory(), NodeDirectory::Hash(_)) {
            return Err(BuildError::InvalidConfig {
                reason: "maintenance requires the hash-table directory; succinct and sorted-array directories are static"
                    .into(),
            });
        }
        Ok(MaintainedIndex {
            inner: RwLock::new(index),
            dead_bytes: RwLock::new(0),
            counters: MaintainCounters::global(),
        })
    }

    /// Run a query under a shared lock.
    pub fn query(&self, query_text: &str, match_type: MatchType) -> Vec<MatchHit> {
        self.inner
            .read()
            .expect("index lock poisoned")
            .query(query_text, match_type)
    }

    /// Insert one advertisement, placing it with the local heuristic.
    ///
    /// # Errors
    /// Same phrase validation as [`IndexBuilder::add`].
    pub fn insert(&self, phrase: &str, info: AdInfo) -> Result<AdId, BuildError> {
        if let Some(words) = crate::text::count_over(phrase, u8::MAX as usize) {
            return Err(BuildError::PhraseTooLong {
                phrase: phrase.to_string(),
                words,
            });
        }
        let mut idx = self.inner.write().expect("index lock poisoned");
        let (words, raw) = idx.vocab_mut().intern_phrase(phrase);
        if words.is_empty() {
            return Err(BuildError::EmptyPhrase {
                phrase: phrase.to_string(),
            });
        }
        let ad_id = idx.alloc_ad_id();
        let max_words = idx.config().max_words;

        // Locate the destination node key (Section VI local heuristic):
        // 1. a node keyed by the exact word set, if present;
        // 2. else, for short phrases, a fresh node at the own word set;
        // 3. else, the smallest existing node keyed by a subset (small nodes
        //    minimize the scan overhead this ad adds to unrelated queries);
        // 4. else a fresh node at a synthetic rare-word locator.
        let own_hash = words.hash();
        let mut tracker = broadmatch_memcost::NullTracker;
        let existing_own = idx.directory().lookup(own_hash, &mut tracker);

        let key = if existing_own.is_some() || words.len() <= max_words {
            own_hash
        } else {
            let mut best: Option<(u64, u32)> = None; // (key, node len)
            let mut iter = words.subsets(max_words);
            let mut budget = 2048usize;
            while let Some(subset) = iter.next_subset() {
                if budget == 0 {
                    break;
                }
                budget -= 1;
                let h = crate::wordhash(subset);
                if let Some((start, end)) = idx.directory().lookup(h, &mut tracker) {
                    let len = end - start;
                    if best.is_none_or(|(_, blen)| len < blen) {
                        best = Some((h, len));
                    }
                }
            }
            match best {
                Some((h, _)) => h,
                None => {
                    let freqs: std::collections::HashMap<crate::WordId, u64> = words
                        .ids()
                        .iter()
                        .map(|&w| (w, idx.vocab().phrase_freq(w)))
                        .collect();
                    let freq = |w: crate::WordId| freqs.get(&w).copied().unwrap_or(0);
                    let locator = synthetic_locator(&words, max_words, &freq);
                    locator.hash()
                }
            }
        };

        // Decode the destination node (if any), add the ad, re-encode.
        let mut entries = match idx.directory().lookup(key, &mut tracker) {
            Some((start, end)) => {
                let bytes = idx.arena().slice(start as usize, end as usize).to_vec();
                *self.dead_bytes.write().expect("lock poisoned") += (end - start) as usize;
                crate::node::decode_node(&bytes, idx.codec())
            }
            None => Vec::new(),
        };
        insert_into_entries(&mut entries, &words, &raw, ad_id, info);

        let codec = idx.codec();
        let start = idx.arena().len() as u32;
        {
            let (arena, _) = split_arena_dir(&mut idx);
            encode_entries(&entries, codec, arena);
        }
        let len = idx.arena().len() as u32 - start;
        match idx.directory_mut() {
            NodeDirectory::Hash(h) => {
                h.insert(key, start, len);
            }
            _ => unreachable!("rejected in new()"),
        }
        let locator_len = if key == own_hash {
            words.len()
        } else {
            // Conservative: subset locators never exceed max_words.
            max_words
        };
        idx.note_locator_len(locator_len);
        self.counters.inserts.inc();
        self.counters
            .dead_bytes
            .set(*self.dead_bytes.read().expect("lock poisoned") as f64);
        Ok(ad_id)
    }

    /// Remove all ads bidding exactly `phrase` (same words, same order) with
    /// the given `listing_id`. Returns the number removed.
    ///
    /// Runs the equivalent of a broad-match probe to locate the hosting node
    /// (the paper's deletion path).
    pub fn remove(&self, phrase: &str, listing_id: u64) -> usize {
        let mut idx = self.inner.write().expect("index lock poisoned");
        let tokens = crate::tokenize(phrase);
        let folded = crate::fold_duplicates(&tokens);
        let ids: Option<Vec<crate::WordId>> =
            folded.iter().map(|t| idx.vocab().get(&t.key())).collect();
        let Some(ids) = ids else {
            return 0; // some word never indexed => phrase cannot exist
        };
        let words = WordSet::from_unsorted(ids);
        let raw: Option<Vec<crate::WordId>> = tokens.iter().map(|t| idx.vocab().get(t)).collect();
        let Some(raw) = raw else {
            return 0;
        };
        if words.is_empty() {
            return 0;
        }

        let mut tracker = broadmatch_memcost::NullTracker;
        let max_subset = idx.max_locator_len().min(words.len());
        let mut removed = 0usize;
        let mut iter = words.subsets(max_subset);
        let mut visited: Vec<(u32, u32)> = Vec::new();
        let mut target: Option<(u64, u32, u32)> = None;
        let mut probes = 0usize;
        while let Some(subset) = iter.next_subset() {
            if probes >= idx.config().probe_cap {
                break;
            }
            probes += 1;
            let h = crate::wordhash(subset);
            let Some((start, end)) = idx.directory().lookup(h, &mut tracker) else {
                continue;
            };
            if visited.contains(&(start, end)) {
                continue;
            }
            visited.push((start, end));
            let bytes = idx.arena().slice(start as usize, end as usize);
            let entries = crate::node::decode_node(bytes, idx.codec());
            let hit = entries.iter().any(|e| {
                e.words == words
                    && e.phrases.iter().any(|p| {
                        p.raw == raw && p.ads.iter().any(|(_, i)| i.listing_id == listing_id)
                    })
            });
            if hit {
                target = Some((h, start, end));
                break;
            }
        }

        let Some((key, start, end)) = target else {
            return 0;
        };
        let bytes = idx.arena().slice(start as usize, end as usize).to_vec();
        let mut entries = crate::node::decode_node(&bytes, idx.codec());
        for e in &mut entries {
            if e.words != words {
                continue;
            }
            for p in &mut e.phrases {
                if p.raw == raw {
                    let before = p.ads.len();
                    p.ads.retain(|(_, i)| i.listing_id != listing_id);
                    removed += before - p.ads.len();
                }
            }
            e.phrases.retain(|p| !p.ads.is_empty());
        }
        entries.retain(|e| !e.phrases.is_empty());

        *self.dead_bytes.write().expect("lock poisoned") += (end - start) as usize;
        if entries.is_empty() {
            match idx.directory_mut() {
                NodeDirectory::Hash(h) => {
                    h.remove(key);
                }
                _ => unreachable!("rejected in new()"),
            }
        } else {
            let codec = idx.codec();
            let new_start = idx.arena().len() as u32;
            {
                let (arena, _) = split_arena_dir(&mut idx);
                encode_entries(&entries, codec, arena);
            }
            let new_len = idx.arena().len() as u32 - new_start;
            match idx.directory_mut() {
                NodeDirectory::Hash(h) => {
                    h.insert(key, new_start, new_len);
                }
                _ => unreachable!("rejected in new()"),
            }
        }
        idx.note_ads_removed(removed as u32);
        self.counters.removes.inc();
        self.counters.ads_removed.add(removed as u64);
        self.counters
            .dead_bytes
            .set(*self.dead_bytes.read().expect("lock poisoned") as f64);
        removed
    }

    /// Bytes orphaned in the arena by node rewrites since the last rebuild.
    pub fn dead_bytes(&self) -> usize {
        *self.dead_bytes.read().expect("lock poisoned")
    }

    /// Number of ads currently indexed.
    pub fn len(&self) -> usize {
        self.inner.read().expect("index lock poisoned").stats().ads
    }

    /// True if no ads remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Periodic re-optimization (Section VI): rebuild the index from its
    /// current contents with the same configuration (optionally a new
    /// workload), recomputing the mapping offline and compacting the arena.
    ///
    /// Ad ids are reassigned; listing ids in [`AdInfo`] are the stable keys.
    pub fn reoptimize(&self, workload: Option<Vec<(String, u64)>>) -> Result<(), BuildError> {
        let started = std::time::Instant::now();
        let mut idx = self.inner.write().expect("index lock poisoned");
        let ads = idx.export_ads();
        let mut builder = IndexBuilder::with_config(*idx.config());
        debug_assert!(matches!(idx.config().directory, DirectoryKind::HashTable));
        // Resolve exclusion word sets back to text so they survive the
        // rebuild (ad ids are reassigned).
        let old_exclusions = idx.exclusions().clone();
        for (phrase, old_id, info) in &ads {
            match old_exclusions.get(old_id) {
                Some(set) => {
                    let words: Vec<&str> = set
                        .ids()
                        .iter()
                        .filter_map(|&w| idx.vocab().resolve(w))
                        .collect();
                    builder.add_with_exclusions(phrase, *info, &words)?;
                }
                None => {
                    builder.add(phrase, *info)?;
                }
            }
        }
        if let Some(w) = workload {
            builder.set_workload(w);
        }
        *idx = builder.build()?;
        *self.dead_bytes.write().expect("lock poisoned") = 0;
        self.counters.reoptimizes.inc();
        self.counters
            .reoptimize_ms
            .record(started.elapsed().as_secs_f64() * 1e3);
        self.counters.dead_bytes.set(0.0);
        Ok(())
    }

    /// Borrow the wrapped index (read lock) for statistics and reports.
    pub fn with_index<R>(&self, f: impl FnOnce(&BroadMatchIndex) -> R) -> R {
        f(&self.inner.read().expect("index lock poisoned"))
    }
}

/// Insert one ad into a decoded entry list, preserving grouping invariants.
fn insert_into_entries(
    entries: &mut Vec<NodeEntry>,
    words: &WordSet,
    raw: &[crate::WordId],
    ad_id: AdId,
    info: AdInfo,
) {
    if let Some(e) = entries.iter_mut().find(|e| &e.words == words) {
        if let Some(p) = e.phrases.iter_mut().find(|p| p.raw == raw) {
            p.ads.push((ad_id, info));
        } else {
            e.phrases.push(PhraseGroup {
                raw: raw.to_vec(),
                ads: vec![(ad_id, info)],
            });
        }
    } else {
        entries.push(NodeEntry {
            words: words.clone(),
            phrases: vec![PhraseGroup {
                raw: raw.to_vec(),
                ads: vec![(ad_id, info)],
            }],
        });
    }
}

/// Work around simultaneous `&mut arena` + `&directory` borrows.
fn split_arena_dir(idx: &mut BroadMatchIndex) -> (&mut crate::arena::Arena, ()) {
    (idx.arena_mut(), ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DirectoryKind, IndexConfig};

    fn base_index() -> MaintainedIndex {
        let mut b = IndexBuilder::new();
        b.add("used books", AdInfo::with_bid(1, 10)).unwrap();
        b.add("cheap used books", AdInfo::with_bid(2, 20)).unwrap();
        MaintainedIndex::new(b.build().unwrap()).unwrap()
    }

    #[test]
    fn rejects_succinct_directory() {
        let cfg = IndexConfig {
            directory: DirectoryKind::Succinct,
            ..IndexConfig::default()
        };
        let mut b = IndexBuilder::with_config(cfg);
        b.add("x", AdInfo::default()).unwrap();
        assert!(MaintainedIndex::new(b.build().unwrap()).is_err());
    }

    #[test]
    fn rejected_insert_leaves_the_vocabulary_alone() {
        let index = base_index();
        let before = index.with_index(|i| i.vocab().len());
        let long: String = (0..300).map(|i| format!("w{i} ")).collect();
        assert!(matches!(
            index.insert(&long, AdInfo::default()),
            Err(BuildError::PhraseTooLong { words: 300, .. })
        ));
        assert_eq!(index.with_index(|i| i.vocab().len()), before);
    }

    #[test]
    fn insert_into_existing_group() {
        let index = base_index();
        index.insert("books used", AdInfo::with_bid(3, 30)).unwrap();
        let hits = index.query("cheap used books", MatchType::Broad);
        assert_eq!(hits.len(), 3);
        assert_eq!(index.len(), 3);
    }

    #[test]
    fn insert_new_short_phrase() {
        let index = base_index();
        index.insert("red shoes", AdInfo::with_bid(9, 5)).unwrap();
        assert_eq!(index.query("buy red shoes", MatchType::Broad).len(), 1);
        // Existing queries unaffected.
        assert_eq!(index.query("used books", MatchType::Broad).len(), 1);
    }

    #[test]
    fn insert_long_phrase_lands_in_subset_node() {
        let index = base_index();
        // 12 words > default max_words=10.
        let long = "used books a b c d e f g h i j";
        index.insert(long, AdInfo::with_bid(7, 70)).unwrap();
        let query = format!("{long} extra words");
        let hits = index.query(&query, MatchType::Broad);
        assert!(hits.iter().any(|h| h.info.listing_id == 7));
    }

    #[test]
    fn insert_rejects_bad_phrases() {
        let index = base_index();
        assert!(index.insert("***", AdInfo::default()).is_err());
    }

    #[test]
    fn remove_deletes_only_matching_listing() {
        let index = base_index();
        index
            .insert("used books", AdInfo::with_bid(42, 99))
            .unwrap();
        assert_eq!(index.remove("used books", 1), 1);
        let hits = index.query("used books", MatchType::Broad);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].info.listing_id, 42);
        // Removing an unknown phrase or listing is a no-op.
        assert_eq!(index.remove("used books", 1), 0);
        assert_eq!(index.remove("never indexed", 1), 0);
    }

    #[test]
    fn remove_can_empty_a_node() {
        let index = base_index();
        assert_eq!(index.remove("cheap used books", 2), 1);
        assert!(index.query("cheap used books", MatchType::Exact).is_empty());
        // The other node still answers.
        assert_eq!(index.query("used books", MatchType::Broad).len(), 1);
    }

    #[test]
    fn dead_bytes_accumulate_and_reset() {
        let index = base_index();
        index.insert("used books", AdInfo::with_bid(5, 1)).unwrap();
        assert!(index.dead_bytes() > 0);
        index.reoptimize(None).unwrap();
        assert_eq!(index.dead_bytes(), 0);
        assert_eq!(index.query("used books", MatchType::Broad).len(), 2);
    }

    /// Bytes of arena the directory still points at.
    fn live_bytes(index: &MaintainedIndex) -> usize {
        index.with_index(|i| {
            i.directory()
                .extents()
                .into_iter()
                .map(|(s, e)| (e - s) as usize)
                .sum::<usize>()
        })
    }

    /// The accounting invariant: `dead_bytes` is exactly the arena minus
    /// what the directory can still reach.
    fn assert_dead_bytes_consistent(index: &MaintainedIndex, when: &str) {
        let arena = index.with_index(|i| i.stats().arena_bytes);
        let live = live_bytes(index);
        assert_eq!(
            index.dead_bytes(),
            arena - live,
            "{when}: dead_bytes vs arena {arena} - live {live}"
        );
    }

    /// The length of the node currently hosting `phrase`'s word set (0 if
    /// absent) — the exact number of bytes a rewrite of that node orphans.
    fn node_len(index: &MaintainedIndex, phrase: &str) -> usize {
        index.with_index(|i| {
            let folded = crate::fold_duplicates(&crate::tokenize(phrase));
            let ids: Option<Vec<crate::WordId>> =
                folded.iter().map(|t| i.vocab().get(&t.key())).collect();
            let Some(ids) = ids else { return 0 };
            let words = WordSet::from_unsorted(ids);
            let mut tracker = broadmatch_memcost::NullTracker;
            i.directory()
                .lookup(words.hash(), &mut tracker)
                .map_or(0, |(s, e)| (e - s) as usize)
        })
    }

    #[test]
    fn dead_bytes_pinned_across_every_operation() {
        let index = base_index();
        assert_eq!(index.dead_bytes(), 0);
        assert_dead_bytes_consistent(&index, "fresh build");

        // Insert into an existing node: orphans exactly the old node.
        let old = node_len(&index, "used books");
        assert!(old > 0);
        index.insert("used books", AdInfo::with_bid(5, 1)).unwrap();
        assert_eq!(index.dead_bytes(), old);
        assert_dead_bytes_consistent(&index, "insert into existing node");

        // Insert at a fresh word set: nothing rewritten, nothing orphaned.
        let before = index.dead_bytes();
        index.insert("red shoes", AdInfo::with_bid(6, 2)).unwrap();
        assert_eq!(index.dead_bytes(), before);
        assert_dead_bytes_consistent(&index, "insert fresh node");

        // Partial remove (node keeps other ads): orphans the old node.
        let old = node_len(&index, "used books");
        let before = index.dead_bytes();
        assert_eq!(index.remove("used books", 1), 1);
        assert_eq!(index.dead_bytes(), before + old);
        assert_dead_bytes_consistent(&index, "partial remove");

        // Remove that empties a node: the whole node goes dead.
        let old = node_len(&index, "cheap used books");
        let before = index.dead_bytes();
        assert_eq!(index.remove("cheap used books", 2), 1);
        assert_eq!(index.dead_bytes(), before + old);
        assert_dead_bytes_consistent(&index, "emptying remove");

        // A miss costs nothing.
        let before = index.dead_bytes();
        assert_eq!(index.remove("never indexed", 99), 0);
        assert_eq!(index.remove("used books", 12345), 0);
        assert_eq!(index.dead_bytes(), before);
        assert_dead_bytes_consistent(&index, "missed removes");

        // Reoptimize compacts the arena: zero dead, invariant tight.
        index.reoptimize(None).unwrap();
        assert_eq!(index.dead_bytes(), 0);
        assert_dead_bytes_consistent(&index, "after reoptimize");
    }

    #[test]
    fn removed_ad_ids_are_never_reallocated() {
        // Regression: the allocator used the live-ad count, so removing an
        // ad and inserting a new one handed out an id still owned by a
        // surviving ad (corrupting any per-ad side table, e.g. exclusions).
        let index = base_index();
        assert_eq!(index.remove("used books", 1), 1);
        let live_before: std::collections::HashSet<AdId> =
            index.with_index(|i| i.iter_all_ads().into_iter().map(|(id, _)| id).collect());
        let id = index
            .insert("fresh phrase", AdInfo::with_bid(9, 9))
            .unwrap();
        assert!(
            !live_before.contains(&id),
            "freshly allocated {id:?} collides with a live ad"
        );
        assert_eq!(id, AdId(2), "high-water allocation continues past removals");
        // All live ids are distinct after the churn.
        let live_after: Vec<AdId> =
            index.with_index(|i| i.iter_all_ads().into_iter().map(|(i, _)| i).collect());
        let distinct: std::collections::HashSet<&AdId> = live_after.iter().collect();
        assert_eq!(distinct.len(), live_after.len());
    }

    #[test]
    fn exclusions_survive_id_churn() {
        // With id reuse, the exclusion set of a removed ad could silently
        // attach to an unrelated new ad. High-water allocation prevents it.
        let mut b = IndexBuilder::new();
        b.add("plain listing", AdInfo::with_bid(1, 10)).unwrap();
        b.add_with_exclusions("running shoes", AdInfo::with_bid(2, 20), &["cheap"])
            .unwrap();
        let index = MaintainedIndex::new(b.build().unwrap()).unwrap();
        assert_eq!(index.remove("plain listing", 1), 1);
        // The new ad must NOT inherit ad id 1 (or any live id).
        index.insert("cheap socks", AdInfo::with_bid(3, 5)).unwrap();
        assert_eq!(index.query("cheap socks", MatchType::Broad).len(), 1);
        // The excluded ad still honors its own exclusion and nothing else's.
        assert!(index
            .query("cheap running shoes", MatchType::Broad)
            .iter()
            .all(|h| h.info.listing_id != 2));
        assert_eq!(index.query("running shoes", MatchType::Broad).len(), 1);
    }

    #[test]
    fn reoptimize_preserves_contents() {
        let index = base_index();
        for i in 0..20u32 {
            index
                .insert(
                    &format!("brand{} item", i),
                    AdInfo::with_bid(100 + i as u64, i),
                )
                .unwrap();
        }
        index.remove("brand3 item", 103);
        index
            .reoptimize(Some(vec![("cheap used books".into(), 100)]))
            .unwrap();
        assert_eq!(index.len(), 21);
        assert_eq!(index.query("brand7 item sale", MatchType::Broad).len(), 1);
        assert!(index.query("brand3 item sale", MatchType::Broad).is_empty());
        assert_eq!(index.query("cheap used books", MatchType::Broad).len(), 2);
    }

    #[test]
    fn interleaved_stream_matches_rebuilt_index() {
        // The golden maintenance invariant: after any interleaving of
        // inserts and removes, results equal a from-scratch build.
        let index = base_index();
        let mut reference: Vec<(String, AdInfo)> = vec![
            ("used books".into(), AdInfo::with_bid(1, 10)),
            ("cheap used books".into(), AdInfo::with_bid(2, 20)),
        ];
        let ops: Vec<(bool, String, u64)> = vec![
            (true, "red shoes".into(), 50),
            (true, "running red shoes".into(), 51),
            (false, "used books".into(), 1),
            (true, "talk talk".into(), 52),
            (true, "cheap red shoes online store now".into(), 53),
            (false, "red shoes".into(), 50),
            (true, "books".into(), 54),
        ];
        for (is_insert, phrase, listing) in ops {
            if is_insert {
                index
                    .insert(&phrase, AdInfo::with_bid(listing, listing as u32))
                    .unwrap();
                reference.push((phrase, AdInfo::with_bid(listing, listing as u32)));
            } else {
                index.remove(&phrase, listing);
                reference.retain(|(p, i)| !(p == &phrase && i.listing_id == listing));
            }
        }
        let mut b = IndexBuilder::new();
        for (p, i) in &reference {
            b.add(p, *i).unwrap();
        }
        let rebuilt = b.build().unwrap();

        for q in [
            "cheap used books online",
            "red shoes",
            "running red shoes sale",
            "talk talk",
            "books",
            "cheap red shoes online store now today",
        ] {
            let mut a: Vec<u64> = index
                .query(q, MatchType::Broad)
                .iter()
                .map(|h| h.info.listing_id)
                .collect();
            let mut b: Vec<u64> = rebuilt
                .query(q, MatchType::Broad)
                .iter()
                .map(|h| h.info.listing_id)
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "query {q:?}");
        }
    }
}
