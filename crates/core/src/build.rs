//! Index construction: grouping, re-mapping, node layout, directory build.

use std::collections::HashMap;

use broadmatch_memcost::CostModel;

use crate::arena::Arena;
use crate::directory::{
    HashTableDirectory, NodeDirectory, SortedArrayDirectory, SuccinctNodeDirectory,
};
use crate::hash::FxBuildHasher;
use crate::index::BroadMatchIndex;
use crate::node::{encode_node, Codec, EntryRef, PhraseRef};
use crate::optimize::{remap_full, remap_long_only, GroupMeta, Mapping, OptimizerInput};
use crate::text::count_over;
use crate::vocab::PhraseIds;
use crate::{AdId, AdInfo, BuildError, QueryWorkload, Vocabulary, WordId, WordSet};

/// Which re-mapping strategy the builder applies (the three variants of the
/// paper's Fig. 10, plus withdrawals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RemapMode {
    /// No re-mapping: every distinct word set keys its own node; queries
    /// must enumerate all subsets up to the longest locator present
    /// (Fig. 10 variant (a)).
    None,
    /// Re-map only phrases longer than `max_words`, each to its cheapest
    /// destination (Fig. 10 variant (b)).
    #[default]
    LongOnly,
    /// Full workload-driven set-cover optimization (Fig. 10 variant (c)).
    Full,
    /// [`RemapMode::Full`] followed by withdrawal steps (Section V-B).
    FullWithWithdrawals,
}

/// Which node directory the index uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DirectoryKind {
    /// Open-addressing hash table (the paper's default structure, Fig. 4).
    #[default]
    HashTable,
    /// The compressed `B^sig`/`B^off` structure of Section VI.
    Succinct,
    /// The tree-structured lookup table of Section III-B, realized as a
    /// sorted array with binary search (logarithmic probes, minimal space).
    SortedArray,
}

/// Build-time configuration.
#[derive(Debug, Clone, Copy)]
pub struct IndexConfig {
    /// `max_words`: longest node locator; phrases with more words are
    /// re-mapped (Section IV-B). The paper's evaluation uses 10.
    pub max_words: usize,
    /// Hard cap on directory probes per query — the paper's "heuristic
    /// cutoff for extremely long queries". Subsets are enumerated smallest
    /// first, so the cap sheds only the least selective probes.
    pub probe_cap: usize,
    /// Re-mapping strategy.
    pub remap: RemapMode,
    /// Directory implementation.
    pub directory: DirectoryKind,
    /// Encode nodes with the Section VI compression.
    pub compress_nodes: bool,
    /// Cost model driving the optimizer.
    pub cost: CostModel,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            max_words: 10,
            probe_cap: 4096,
            remap: RemapMode::LongOnly,
            directory: DirectoryKind::HashTable,
            compress_nodes: false,
            cost: CostModel::dram(),
        }
    }
}

impl IndexConfig {
    /// Set the `max_words` locator bound (Section IV-B).
    pub fn with_max_words(mut self, max_words: usize) -> Self {
        self.max_words = max_words;
        self
    }

    /// Set the per-query probe cap (the long-query heuristic cutoff).
    pub fn with_probe_cap(mut self, probe_cap: usize) -> Self {
        self.probe_cap = probe_cap;
        self
    }

    /// Set the re-mapping strategy.
    pub fn with_remap(mut self, remap: RemapMode) -> Self {
        self.remap = remap;
        self
    }

    /// Set the directory implementation.
    pub fn with_directory(mut self, directory: DirectoryKind) -> Self {
        self.directory = directory;
        self
    }

    /// Enable/disable the Section VI node compression.
    pub fn with_compressed_nodes(mut self, compress: bool) -> Self {
        self.compress_nodes = compress;
        self
    }

    /// Set the cost model driving the optimizer.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }
}

/// Accumulates advertisements (and optionally a query workload) and builds a
/// [`BroadMatchIndex`].
///
/// Ingestion is flat: each distinct folded word set (a *group*) and each
/// distinct raw phrase is interned once, numbered in first-appearance order,
/// and every ad appends one fixed-size record. [`IndexBuilder::build`] then
/// lays the nodes out in one sorted pass.
///
/// # Examples
///
/// ```
/// use broadmatch::{AdInfo, IndexBuilder, IndexConfig, MatchType, RemapMode};
///
/// let mut cfg = IndexConfig::default();
/// cfg.remap = RemapMode::Full;
/// let mut builder = IndexBuilder::with_config(cfg);
/// builder.add("red shoes", AdInfo::with_bid(1, 30));
/// builder.add("red running shoes", AdInfo::with_bid(2, 45));
/// builder.set_workload(vec![("red running shoes sale".into(), 50)]);
/// let index = builder.build().unwrap();
/// assert_eq!(index.query("buy red running shoes", MatchType::Broad).len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct IndexBuilder {
    config: IndexConfig,
    vocab: Vocabulary,
    /// Group number of each distinct folded word set.
    groups: HashMap<WordSet, u32, FxBuildHasher>,
    /// Phrase number of each distinct raw phrase (word ids in bid order).
    phrases: HashMap<Box<[WordId]>, u32, FxBuildHasher>,
    /// The group of each phrase, by phrase number.
    phrase_group: Vec<u32>,
    /// One record per ad, indexed by [`AdId`]: its phrase number and info.
    ads: Vec<(u32, AdInfo)>,
    workload_texts: Vec<(String, u64)>,
    exclusions: HashMap<AdId, WordSet, FxBuildHasher>,
    /// Token and id buffers every `add` reuses.
    scratch: PhraseIds,
}

impl IndexBuilder {
    /// Builder with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder with an explicit configuration.
    pub fn with_config(config: IndexConfig) -> Self {
        IndexBuilder {
            config,
            ..Self::default()
        }
    }

    /// The configuration this builder will apply.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// Number of ads added so far.
    pub fn len(&self) -> usize {
        self.ads.len()
    }

    /// True if no ads were added.
    pub fn is_empty(&self) -> bool {
        self.ads.is_empty()
    }

    /// Add one advertisement bid phrase. Returns the assigned [`AdId`].
    /// A rejected phrase leaves the builder unchanged.
    ///
    /// # Errors
    /// [`BuildError::EmptyPhrase`] if the phrase tokenizes to nothing;
    /// [`BuildError::PhraseTooLong`] beyond 255 words.
    pub fn add(&mut self, phrase: &str, info: AdInfo) -> Result<AdId, BuildError> {
        if let Some(words) = count_over(phrase, u8::MAX as usize) {
            return Err(BuildError::PhraseTooLong {
                phrase: phrase.to_string(),
                words,
            });
        }
        let ids = &mut self.scratch;
        self.vocab.intern_ids(phrase, ids);
        if ids.raw.is_empty() {
            return Err(BuildError::EmptyPhrase {
                phrase: phrase.to_string(),
            });
        }
        let phrase_id = match self.phrases.get(&ids.raw[..]) {
            Some(&p) => p,
            None => {
                let group = match self.groups.get(&ids.words[..]) {
                    Some(&g) => g,
                    None => {
                        for &w in &ids.words {
                            self.vocab.bump_phrase_freq(w);
                        }
                        let g = self.groups.len() as u32;
                        self.groups
                            .insert(WordSet::from_sorted(ids.words.clone()), g);
                        g
                    }
                };
                let p = self.phrase_group.len() as u32;
                self.phrase_group.push(group);
                self.phrases.insert(ids.raw[..].into(), p);
                p
            }
        };
        let ad_id = AdId(self.ads.len() as u32);
        self.ads.push((phrase_id, info));
        Ok(ad_id)
    }

    /// Add an advertisement with *exclusion phrases* (paper, Section I:
    /// "additional exclusion phrases that may be specified with each ad and
    /// are used to exclude ads if they match (part of) the query"). The ad
    /// is suppressed from results whenever any exclusion word occurs in the
    /// query.
    ///
    /// # Errors
    /// Same as [`IndexBuilder::add`].
    pub fn add_with_exclusions(
        &mut self,
        phrase: &str,
        info: AdInfo,
        exclusions: &[&str],
    ) -> Result<AdId, BuildError> {
        let ad_id = self.add(phrase, info)?;
        let mut ids = Vec::new();
        for text in exclusions {
            let (set, _) = self.vocab.intern_phrase(text);
            ids.extend_from_slice(set.ids());
        }
        if !ids.is_empty() {
            self.exclusions.insert(ad_id, WordSet::from_unsorted(ids));
        }
        Ok(ad_id)
    }

    /// Supply the observed query workload (distinct query text, frequency)
    /// that the `Full` re-mapping strategies optimize for. Resolved against
    /// the final vocabulary at [`IndexBuilder::build`] time.
    pub fn set_workload(&mut self, queries: Vec<(String, u64)>) {
        self.workload_texts = queries;
    }

    /// Build the index, consuming the builder.
    ///
    /// # Errors
    /// [`BuildError::InvalidConfig`] for nonsensical configuration.
    pub fn build(self) -> Result<BroadMatchIndex, BuildError> {
        let IndexBuilder {
            config,
            vocab,
            groups,
            phrases,
            phrase_group,
            ads: records,
            workload_texts,
            exclusions,
            scratch: _,
        } = self;
        if config.max_words == 0 {
            return Err(BuildError::InvalidConfig {
                reason: "max_words must be at least 1".into(),
            });
        }
        if config.probe_cap == 0 {
            return Err(BuildError::InvalidConfig {
                reason: "probe_cap must be at least 1".into(),
            });
        }
        let n_ads = records.len() as u32;

        // Groups in word-set order; `rank` maps first-appearance numbers.
        let mut sets: Vec<(WordSet, u32)> = groups.into_iter().collect();
        sets.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut rank = vec![0; sets.len()];
        for (r, &(_, g)) in sets.iter().enumerate() {
            rank[g as usize] = r;
        }
        let group_words: Vec<WordSet> = sets.into_iter().map(|(words, _)| words).collect();
        let mut raw: Vec<Box<[WordId]>> = vec![Box::default(); phrase_group.len()];
        for (words, p) in phrases {
            raw[p as usize] = words;
        }

        // Ads bucketed by phrase and phrases by group. The sorts are stable,
        // so ads keep insertion order and phrases first-appearance order.
        let (ad_start, ad_order) = bucket_by(raw.len(), records.iter().map(|&(p, _)| p as usize));
        let ads: Vec<(AdId, AdInfo)> = ad_order
            .iter()
            .map(|&a| (AdId(a), records[a as usize].1))
            .collect();
        drop(records);
        let (phrase_start, phrase_order) = bucket_by(
            group_words.len(),
            phrase_group.iter().map(|&g| rank[g as usize]),
        );
        let phrase_refs: Vec<PhraseRef<'_>> = phrase_order
            .iter()
            .map(|&p| PhraseRef {
                raw: &raw[p as usize],
                ads: &ads[ad_start[p as usize]..ad_start[p as usize + 1]],
            })
            .collect();
        let entries: Vec<EntryRef<'_>> = group_words
            .iter()
            .enumerate()
            .map(|(g, words)| EntryRef {
                words: words.ids(),
                phrases: &phrase_refs[phrase_start[g]..phrase_start[g + 1]],
            })
            .collect();
        let group_bytes: Vec<usize> = entries.iter().map(EntryRef::plain_encoded_bytes).collect();

        // Resolve the workload; fall back to "each word set queried once".
        let workload = if workload_texts.is_empty() {
            QueryWorkload::uniform_over(group_words.iter().cloned())
        } else {
            QueryWorkload::from_texts(&vocab, workload_texts.iter().map(|(t, f)| (t.as_str(), *f)))
        };

        // Compute the mapping.
        let word_freq = |w: WordId| vocab.phrase_freq(w);
        let metas: Vec<GroupMeta> = group_words
            .iter()
            .zip(&group_bytes)
            .map(|(words, &bytes)| GroupMeta { words, bytes })
            .collect();
        let input = OptimizerInput {
            groups: &metas,
            workload: &workload,
            cost: &config.cost,
            max_words: config.max_words,
            probe_cap: config.probe_cap,
            word_freq: &word_freq,
        };
        let mapping = match config.remap {
            RemapMode::None => Mapping::identity(&group_words),
            RemapMode::LongOnly => remap_long_only(&input),
            RemapMode::Full => remap_full(&input, false),
            RemapMode::FullWithWithdrawals => remap_full(&input, true),
        };
        drop(metas);
        if config.remap != RemapMode::None {
            debug_assert!(
                mapping
                    .validate(&group_words, config.max_words, false)
                    .is_ok(),
                "optimizer produced an invalid mapping: {:?}",
                mapping.validate(&group_words, config.max_words, false)
            );
        }

        let codec = if config.compress_nodes {
            Codec::Compressed
        } else {
            Codec::Plain
        };
        let max_locator_len = (0..group_words.len())
            .map(|g| mapping.locator(g).len())
            .max()
            .unwrap_or(0);

        // A node's directory key is its locator's full 64-bit wordhash, or in
        // the succinct directory the hash's s-bit suffix: suffix collisions
        // merge into one node (Section VI). The width resolves the paper's
        // "selecting the suffix-size s" trade-off: the narrowest s whose
        // collision-induced extra scan stays well under the cost model's
        // random/scan break-even.
        let suffix_bits = (config.directory == DirectoryKind::Succinct).then(|| {
            let n_nodes = mapping.distinct_nodes().max(1);
            let avg_node_bytes = (group_bytes.iter().sum::<usize>() / n_nodes).max(1) as u64;
            let tolerance = (config.cost.break_even_scan_bytes() as f64 * 0.05).max(1.0);
            broadmatch_succinct::pick_suffix_bits_by_model(
                n_nodes as u64,
                avg_node_bytes,
                tolerance,
            )
            .max(SuccinctNodeDirectory::pick_suffix_bits(n_nodes))
        });
        let key_mask = suffix_bits.map_or(u64::MAX, |bits| (1u64 << bits) - 1);

        // Lay out every node in one pass: sorted by (key, word count, word
        // set), the groups of one key are that node's entries in encoding
        // order, and nodes follow in key order.
        let mut order: Vec<(u64, usize, usize)> = group_words
            .iter()
            .enumerate()
            .map(|(g, words)| (mapping.locator(g).hash() & key_mask, words.len(), g))
            .collect();
        order.sort_unstable();
        let mut arena = Arena::with_capacity(group_bytes.iter().sum());
        let mut nodes: Vec<(u64, usize, usize)> = Vec::new();
        let mut node: Vec<EntryRef<'_>> = Vec::new();
        for run in order.chunk_by(|a, b| a.0 == b.0) {
            node.clear();
            node.extend(run.iter().map(|&(_, _, g)| entries[g]));
            let start = arena.len();
            encode_node(&mut node, codec, &mut arena);
            nodes.push((run[0].0, start, arena.len() - start));
        }
        arena.shrink_to_fit();

        let directory = match suffix_bits {
            Some(bits) => {
                let items: Vec<(u64, u64)> = nodes
                    .iter()
                    .map(|&(key, _, len)| (key, len as u64))
                    .collect();
                let dir = broadmatch_succinct::CompressedDirectory::new(bits, &items);
                NodeDirectory::Succinct(SuccinctNodeDirectory::new(dir))
            }
            None => {
                let items: Vec<(u64, u32, u32)> = nodes
                    .iter()
                    .map(|&(key, start, len)| (key, start as u32, len as u32))
                    .collect();
                if config.directory == DirectoryKind::SortedArray {
                    NodeDirectory::Sorted(SortedArrayDirectory::new(items))
                } else {
                    NodeDirectory::Hash(HashTableDirectory::new(&items))
                }
            }
        };

        Ok(BroadMatchIndex::assemble(
            config,
            vocab,
            arena,
            directory,
            codec,
            mapping,
            group_words,
            group_bytes,
            n_ads,
            max_locator_len,
        )
        .with_exclusions(exclusions))
    }
}

/// Stable counting sort of the items `0..n` by `keys` (each `< n_keys`):
/// returns each key's start in the sorted order (`start[k]..start[k + 1]`)
/// and the sorted item numbers.
fn bucket_by(n_keys: usize, keys: impl Iterator<Item = usize> + Clone) -> (Vec<usize>, Vec<u32>) {
    let mut start = vec![0; n_keys + 1];
    for k in keys.clone() {
        start[k + 1] += 1;
    }
    for k in 0..n_keys {
        start[k + 1] += start[k];
    }
    let mut next = start.clone();
    let mut order = vec![0; start[n_keys]];
    for (item, k) in keys.enumerate() {
        order[next[k]] = item as u32;
        next[k] += 1;
    }
    (start, order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MatchType;

    #[test]
    fn empty_phrase_rejected() {
        let mut b = IndexBuilder::new();
        assert!(matches!(
            b.add("!!!", AdInfo::default()),
            Err(BuildError::EmptyPhrase { .. })
        ));
    }

    #[test]
    fn too_long_phrase_rejected() {
        let mut b = IndexBuilder::new();
        let long: String = (0..300).map(|i| format!("w{i} ")).collect();
        assert!(matches!(
            b.add(&long, AdInfo::default()),
            Err(BuildError::PhraseTooLong { .. })
        ));
    }

    #[test]
    fn rejected_phrase_leaves_the_vocabulary_alone() {
        let long: String = (0..300).map(|i| format!("w{i} ")).collect();
        let save = |with_rejected: bool| {
            let mut b = IndexBuilder::new();
            b.add("cheap flights", AdInfo::with_bid(1, 10)).unwrap();
            if with_rejected {
                assert!(b.add(&long, AdInfo::default()).is_err());
            }
            b.add("used books w7", AdInfo::with_bid(2, 20)).unwrap();
            let mut bytes = Vec::new();
            b.build().unwrap().save(&mut bytes).unwrap();
            bytes
        };
        assert!(save(true) == save(false), "a rejected ad changed the index");
    }

    #[test]
    fn invalid_config_rejected() {
        let cfg = IndexConfig {
            max_words: 0,
            ..IndexConfig::default()
        };
        let mut b = IndexBuilder::with_config(cfg);
        b.add("x", AdInfo::default()).unwrap();
        assert!(matches!(b.build(), Err(BuildError::InvalidConfig { .. })));
    }

    #[test]
    fn empty_builder_builds_empty_index() {
        let index = IndexBuilder::new().build().unwrap();
        assert!(index.query("anything at all", MatchType::Broad).is_empty());
        assert_eq!(index.stats().ads, 0);
    }

    #[test]
    fn duplicate_phrases_share_a_group() {
        let mut b = IndexBuilder::new();
        b.add("used books", AdInfo::with_bid(1, 10)).unwrap();
        b.add("used books", AdInfo::with_bid(2, 20)).unwrap();
        b.add("books used", AdInfo::with_bid(3, 30)).unwrap();
        let index = b.build().unwrap();
        let stats = index.stats();
        assert_eq!(stats.ads, 3);
        assert_eq!(stats.groups, 1, "same word set, one group");
        assert_eq!(index.query("used books", MatchType::Broad).len(), 3);
        // Exact match distinguishes word order.
        assert_eq!(index.query("used books", MatchType::Exact).len(), 2);
        assert_eq!(index.query("books used", MatchType::Exact).len(), 1);
    }

    #[test]
    fn fluent_config_builders() {
        let cfg = IndexConfig::default()
            .with_max_words(5)
            .with_probe_cap(1 << 16)
            .with_remap(RemapMode::Full)
            .with_directory(DirectoryKind::Succinct)
            .with_compressed_nodes(true)
            .with_cost(CostModel::disk_like());
        assert_eq!(cfg.max_words, 5);
        assert_eq!(cfg.probe_cap, 1 << 16);
        assert_eq!(cfg.remap, RemapMode::Full);
        assert_eq!(cfg.directory, DirectoryKind::Succinct);
        assert!(cfg.compress_nodes);
        assert_eq!(cfg.cost, CostModel::disk_like());
    }

    #[test]
    fn exclusion_phrases_suppress_matches() {
        let mut b = IndexBuilder::new();
        b.add_with_exclusions("running shoes", AdInfo::with_bid(1, 50), &["cheap", "free"])
            .unwrap();
        b.add("running shoes", AdInfo::with_bid(2, 40)).unwrap();
        let index = b.build().unwrap();

        // Both match a neutral query.
        assert_eq!(index.query("red running shoes", MatchType::Broad).len(), 2);
        // The excluded ad disappears when an exclusion word is present.
        for q in ["cheap running shoes", "free running shoes today"] {
            let hits = index.query(q, MatchType::Broad);
            assert_eq!(hits.len(), 1, "query {q:?}");
            assert_eq!(hits[0].info.listing_id, 2);
        }
        // Exclusions apply to exact and phrase match too.
        assert_eq!(index.query("running shoes", MatchType::Exact).len(), 2);
        assert_eq!(
            index.query("cheap running shoes", MatchType::Phrase).len(),
            1
        );
    }

    #[test]
    fn empty_exclusion_list_is_a_plain_add() {
        let mut b = IndexBuilder::new();
        b.add_with_exclusions("x y", AdInfo::with_bid(1, 5), &[])
            .unwrap();
        let index = b.build().unwrap();
        assert_eq!(index.query("x y z", MatchType::Broad).len(), 1);
    }

    /// SplitMix64: a seeded stream for test corpora.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }

        fn word(&mut self) -> String {
            // Skewed towards low ranks so word sets recur.
            let bound = self.below(90) + 1;
            let w = format!("w{}", self.below(bound));
            match self.below(12) {
                0 => w.to_uppercase(),
                1 => format!("{w}-x"),
                _ => w,
            }
        }
    }

    /// A seeded corpus with repeated words, reordered and re-cased phrases,
    /// phrases longer than `max_words`, exclusions and a workload.
    fn seeded_builder(config: IndexConfig) -> IndexBuilder {
        let mut rng = Rng(0x5EED);
        let mut b = IndexBuilder::with_config(config);
        let mut phrases: Vec<String> = Vec::new();
        let mut queries = Vec::new();
        for i in 0..1500u64 {
            let phrase = if !phrases.is_empty() && rng.below(3) == 0 {
                // Re-bid an earlier phrase, sometimes reordered.
                let old = &phrases[rng.below(phrases.len() as u64) as usize];
                let mut words: Vec<&str> = old.split(' ').collect();
                if rng.below(2) == 0 {
                    words.reverse();
                }
                words.join(" ")
            } else {
                let len = [1, 1, 2, 2, 2, 3, 3, 4, 5, 7, 11, 13][rng.below(12) as usize];
                let mut words: Vec<String> = (0..len).map(|_| rng.word()).collect();
                if rng.below(8) == 0 {
                    words.push(words[0].clone()); // "talk talk"
                }
                words.join(" ")
            };
            let info = AdInfo::with_bid(i, 10 + rng.below(500) as u32);
            if rng.below(40) == 0 {
                b.add_with_exclusions(&phrase, info, &["free", "w3"])
                    .unwrap();
            } else {
                b.add(&phrase, info).unwrap();
            }
            if rng.below(4) == 0 {
                queries.push((format!("{phrase} {}", rng.word()), 1 + rng.below(50)));
            }
            phrases.push(phrase);
        }
        b.set_workload(queries);
        b
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// `save()` bytes of the seeded corpus under every re-mapping mode and
    /// layout, pinned so a change to ingestion or node layout that moves a
    /// single byte fails here.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn save_bytes_are_pinned() {
        let layouts = [
            (DirectoryKind::HashTable, false),
            (DirectoryKind::Succinct, true),
            (DirectoryKind::SortedArray, false),
        ];
        let modes = [
            RemapMode::LongOnly,
            RemapMode::Full,
            RemapMode::FullWithWithdrawals,
        ];
        let mut got = Vec::new();
        for remap in modes {
            for (directory, compress) in layouts {
                let config = IndexConfig::default()
                    .with_remap(remap)
                    .with_directory(directory)
                    .with_compressed_nodes(compress);
                let mut bytes = Vec::new();
                seeded_builder(config)
                    .build()
                    .unwrap()
                    .save(&mut bytes)
                    .unwrap();
                got.push((bytes.len(), fnv1a(&bytes)));
            }
        }
        // (length, FNV-1a) of each index's bytes, recorded before the flat
        // builder replaced the per-group phrase vectors.
        let pinned: [(usize, u64); 9] = [
            (104569, 14642844723095890135),
            (41058, 8689067405920468126),
            (104569, 7259691679290661480),
            (103912, 9496812796837950232),
            (40827, 15215989764728508988),
            (103912, 5153058914063959268),
            (102241, 8219719357215254400),
            (40360, 17717198261367783245),
            (102241, 10060215931474964006),
        ];
        assert_eq!(got, pinned, "save() bytes moved");
    }

    #[test]
    fn ad_ids_are_sequential() {
        let mut b = IndexBuilder::new();
        assert_eq!(b.add("a", AdInfo::default()).unwrap(), AdId(0));
        assert_eq!(b.add("b", AdInfo::default()).unwrap(), AdId(1));
        assert_eq!(b.len(), 2);
    }
}
