//! The queryable index: subset probing, node scanning, match semantics.

use broadmatch_memcost::{AccessTracker, NullTracker};

use crate::arena::Arena;
use crate::build::IndexConfig;
use crate::costmodel::{evaluate_mapping, MappingCost};
use crate::directory::NodeDirectory;
use crate::node::{scan_node, Codec, ScanScratch, ScanSummary};
use crate::optimize::{Mapping, MappingStats};
use crate::vocab::QueryIds;
use crate::wordset::is_sorted_subset;
use crate::{subset_count, AdId, AdInfo, QueryWorkload, Vocabulary, WordId, WordSet};

/// The matching semantics of sponsored search (Section III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchType {
    /// All words of the bid must appear in the query (word order and
    /// position irrelevant; duplicate words must match in multiplicity).
    Broad,
    /// Bid and query must contain exactly the same words in the same order.
    Exact,
    /// The bid phrase must appear in the query as a contiguous word
    /// sequence, in order.
    Phrase,
}

/// One matched advertisement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchHit {
    /// The matched ad.
    pub ad: AdId,
    /// Its metadata, decoded from the data node.
    pub info: AdInfo,
}

/// A fully planned query: everything derivable from the query text alone,
/// computed once — tokenization, vocabulary lookups, match-type probe-set
/// construction and the bounded subset enumeration (Section IV-B), already
/// hashed and capped by `probe_cap`.
///
/// A plan is the unit of work distribution in sharded serving: the probe
/// hashes partition across shards by residue (`hash % n_shards`), each shard
/// executes its slice with [`BroadMatchIndex::execute_probes`], and
/// [`BroadMatchIndex::finish_query`] gathers the batches into exactly the
/// hits (and [`QueryStats`]) the single-threaded
/// [`BroadMatchIndex::query_with_stats`] would have produced.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    match_type: MatchType,
    /// Canonical probe word set (drives subset filtering during scans).
    /// For exact match it is the query's complete folded set.
    probe_set: WordSet,
    /// Raw query token ids in order (`None` = word unknown to the vocab).
    raw_query: Vec<Option<WordId>>,
    /// Folded query length (scan sizing hint).
    qlen: usize,
    /// Probe hashes in enumeration order, truncated at `probe_cap`.
    probes: Vec<u64>,
    /// Whether the probe cap cut enumeration short.
    truncated: bool,
}

impl QueryPlan {
    /// The probe hashes, in subset-enumeration order. Index positions are
    /// the probe indices [`BroadMatchIndex::execute_probes`] expects.
    pub fn probe_hashes(&self) -> &[u64] {
        &self.probes
    }

    /// Number of probes the plan will issue.
    pub fn probe_count(&self) -> usize {
        self.probes.len()
    }

    /// Whether the probe cap truncated subset enumeration.
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    /// The matching semantics this plan was built for.
    pub fn match_type(&self) -> MatchType {
        self.match_type
    }
}

/// One data node scanned while executing a slice of a [`QueryPlan`].
#[derive(Debug, Clone)]
pub struct ScannedNode {
    /// Arena extent of the node — the global deduplication key (distinct
    /// probes, even on different shards, can reach the same node through
    /// hash collisions or shared locators).
    pub extent: (u32, u32),
    /// Enumeration index of the probe that first reached this node; gather
    /// sorts by it so sharded execution reproduces single-threaded hit
    /// order exactly.
    pub first_probe: usize,
    /// Hits this node produced under the plan's match semantics (exclusion
    /// filtering is deferred to [`BroadMatchIndex::finish_query`]).
    pub hits: Vec<MatchHit>,
    /// What the scan physically did (entries/ads decoded, bytes consumed,
    /// early termination) — deterministic per extent, so cross-batch
    /// deduplication can aggregate from either copy.
    pub(crate) summary: ScanSummary,
    /// Whether this node is a shared (set-cover re-mapped) node.
    pub(crate) remapped: bool,
}

/// Result of executing a slice of a plan's probes
/// ([`BroadMatchIndex::execute_probes`]).
#[derive(Debug, Clone, Default)]
pub struct ProbeBatch {
    /// Distinct nodes this batch scanned (deduplicated batch-locally;
    /// cross-batch dedup happens at gather).
    pub nodes: Vec<ScannedNode>,
    /// Probes issued.
    pub probes: usize,
    /// Probes that found a node.
    pub probe_hits: usize,
}

/// Per-query processing statistics (observability; see
/// [`BroadMatchIndex::query_with_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryStats {
    /// Directory probes issued (`Σ C(|Q|, i)` bounded by the probe cap).
    pub probes: usize,
    /// Probes that found a node.
    pub probe_hits: usize,
    /// Distinct data nodes scanned.
    pub nodes_visited: usize,
    /// Whether the probe cap cut enumeration short (the §IV-B heuristic
    /// cutoff fired; results may be incomplete for this query).
    pub truncated: bool,
    /// Matching ads returned (after exclusion filtering).
    pub hits: usize,
    /// Word-set entries decoded across all scanned nodes (including
    /// non-matching entries the scan passed over).
    pub entries_examined: usize,
    /// Ads decoded across all scanned nodes.
    pub ads_examined: usize,
    /// Bytes consumed by sequential node scans — the `m` the paper's
    /// `Cost_Scan(m)` prices.
    pub scanned_bytes: usize,
    /// Scans cut short by the `word_count > |Q|` early-termination rule.
    pub early_terminations: usize,
    /// Scanned nodes that were shared (set-cover re-mapped) nodes.
    pub remapped_nodes: usize,
    /// Bytes scanned inside re-mapped nodes (the sequential-scan overhead
    /// the re-mapping trades against probe savings).
    pub remapped_scan_bytes: usize,
    /// Base hits dropped because a delta-overlay tombstone marked the ad
    /// deleted (zero on overlay-free queries).
    pub tombstone_hits: usize,
    /// Hits contributed by the delta overlay's side index of recent inserts
    /// (zero on overlay-free queries).
    pub overlay_hits: usize,
}

/// Size and shape statistics of a built index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// Advertisements indexed.
    pub ads: usize,
    /// Distinct folded word sets (groups).
    pub groups: usize,
    /// Data nodes (directory entries).
    pub nodes: usize,
    /// Bytes of node storage.
    pub arena_bytes: usize,
    /// Bytes of directory storage.
    pub directory_bytes: usize,
    /// Longest node locator, which bounds subset enumeration.
    pub max_locator_len: usize,
    /// Distinct interned words (including folded multiplicity tokens).
    pub vocab_words: usize,
}

/// The broad-match index of the paper (Sections III–VI).
///
/// Construct with [`crate::IndexBuilder`]; query with
/// [`BroadMatchIndex::query`] or, to account memory accesses, with
/// [`BroadMatchIndex::query_tracked`].
#[derive(Debug)]
pub struct BroadMatchIndex {
    config: IndexConfig,
    vocab: Vocabulary,
    arena: Arena,
    directory: NodeDirectory,
    codec: Codec,
    mapping: Mapping,
    group_words: Vec<WordSet>,
    group_bytes: Vec<usize>,
    n_ads: u32,
    /// High-water ad id allocator: strictly above every id ever assigned,
    /// so maintenance inserts after removals never reuse a live ad's id
    /// (`n_ads` counts live ads and shrinks on removal; reusing it as the
    /// allocator collided with surviving ads).
    next_ad_id: u32,
    max_locator_len: usize,
    /// Per-ad exclusion word sets (paper, Section I): an ad is suppressed
    /// when any of its exclusion words occurs in the query.
    exclusions: std::collections::HashMap<AdId, WordSet, crate::hash::FxBuildHasher>,
    /// Arena extents of shared (set-cover re-mapped) nodes, so query
    /// execution can attribute scan work to re-mapping (telemetry only;
    /// derived from the mapping at assembly and not maintained through
    /// incremental mutations).
    remapped_extents: std::collections::HashSet<(u32, u32), crate::hash::FxBuildHasher>,
}

impl BroadMatchIndex {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        config: IndexConfig,
        vocab: Vocabulary,
        arena: Arena,
        directory: NodeDirectory,
        codec: Codec,
        mapping: Mapping,
        group_words: Vec<WordSet>,
        group_bytes: Vec<usize>,
        n_ads: u32,
        max_locator_len: usize,
    ) -> Self {
        // A node is "re-mapped" when some group stores away from its own
        // word set — the extent its locator resolves to is shared storage
        // the greedy set cover chose (Section V).
        let mut remapped_extents: std::collections::HashSet<
            (u32, u32),
            crate::hash::FxBuildHasher,
        > = std::collections::HashSet::default();
        for (g, words) in group_words.iter().enumerate() {
            let locator = mapping.locator(g);
            if locator != words {
                if let Some(extent) =
                    directory.lookup(crate::wordhash(locator.ids()), &mut NullTracker)
                {
                    remapped_extents.insert(extent);
                }
            }
        }
        BroadMatchIndex {
            config,
            vocab,
            arena,
            directory,
            codec,
            mapping,
            group_words,
            group_bytes,
            n_ads,
            next_ad_id: n_ads,
            max_locator_len,
            exclusions: std::collections::HashMap::default(),
            remapped_extents,
        }
    }

    /// Raise the ad-id allocation floor (persistence restores the saved
    /// high water so reloaded indexes keep the no-reuse guarantee).
    pub(crate) fn with_ad_id_floor(mut self, floor: u32) -> Self {
        self.next_ad_id = self.next_ad_id.max(floor);
        self
    }

    /// The first ad id guaranteed never to have been assigned.
    pub(crate) fn ad_id_high_water(&self) -> u32 {
        self.next_ad_id
    }

    pub(crate) fn with_exclusions(
        mut self,
        exclusions: std::collections::HashMap<AdId, WordSet, crate::hash::FxBuildHasher>,
    ) -> Self {
        self.exclusions = exclusions;
        self
    }

    pub(crate) fn exclusions(
        &self,
    ) -> &std::collections::HashMap<AdId, WordSet, crate::hash::FxBuildHasher> {
        &self.exclusions
    }

    /// Run `query_text` with the given matching semantics.
    pub fn query(&self, query_text: &str, match_type: MatchType) -> Vec<MatchHit> {
        self.query_tracked(query_text, match_type, &mut NullTracker)
    }

    /// Run a query and report per-query processing statistics alongside the
    /// hits — the numbers an operator dashboards (probe volume, node
    /// visits, cutoff truncation).
    pub fn query_with_stats(
        &self,
        query_text: &str,
        match_type: MatchType,
    ) -> (Vec<MatchHit>, QueryStats) {
        let mut stats = QueryStats::default();
        let hits = self.query_internal(query_text, match_type, &mut NullTracker, Some(&mut stats));
        stats.hits = hits.len();
        (hits, stats)
    }

    /// Run a query through this base index merged with a
    /// [`crate::DeltaOverlay`] of recent mutations: base hits first (minus
    /// tombstoned ads), then the overlay's own matches. The resulting
    /// listing set equals querying a fresh rebuild that contains the same
    /// surviving ads; with an empty overlay, hits and statistics are
    /// byte-identical to [`BroadMatchIndex::query_with_stats`].
    pub fn query_with_overlay(
        &self,
        overlay: &crate::DeltaOverlay,
        query_text: &str,
        match_type: MatchType,
    ) -> (Vec<MatchHit>, QueryStats) {
        let (mut hits, mut stats) = self.query_with_stats(query_text, match_type);
        if !overlay.is_empty() {
            stats.tombstone_hits = overlay.filter_tombstones(&mut hits);
            stats.overlay_hits = overlay.consult(query_text, match_type, &mut hits);
            stats.hits = hits.len();
        }
        (hits, stats)
    }

    /// Like [`BroadMatchIndex::query`], reporting every memory access to
    /// `tracker` (byte accounting, cost models, hardware simulation).
    pub fn query_tracked<T: AccessTracker>(
        &self,
        query_text: &str,
        match_type: MatchType,
        tracker: &mut T,
    ) -> Vec<MatchHit> {
        self.query_internal(query_text, match_type, tracker, None)
    }

    /// Plan a query: tokenize, fold duplicates, resolve vocabulary ids and
    /// run the bounded subset enumeration (Section IV-B) exactly once.
    ///
    /// Returns `None` when the query can match nothing — no tokens, no
    /// known probe words, or (exact match only) an unknown folded token.
    /// Such queries issue zero probes, matching the single-threaded path.
    pub fn plan_query(&self, query_text: &str, match_type: MatchType) -> Option<QueryPlan> {
        // The word set used for subset probing depends on the semantics:
        // phrase match must also probe lower multiplicities of repeated
        // words (a bid "talk talk" appears contiguously in the query
        // "talk talk talk", whose folded set only contains talk×3).
        let mut ids = QueryIds::default();
        self.vocab
            .lookup_ids(query_text, &mut ids, match_type == MatchType::Phrase);
        let qlen = ids.len;
        // Exact match needs the complete folded set; if any folded query
        // token is unknown to the vocabulary, no bid can match exactly.
        if ids.words.is_empty() || (match_type == MatchType::Exact && !ids.complete) {
            return None;
        }
        let probe_set = WordSet::from_sorted(ids.words);
        // Raw query token ids for order-sensitive matching; unknown words
        // are None and never match a bid word.
        let raw_query = ids.raw;

        let max_subset = self.max_locator_len.min(probe_set.len());
        let n_probes = subset_count(probe_set.len(), max_subset).min(self.config.probe_cap as u64);
        let mut iter = probe_set.subsets(max_subset);
        let mut probes = Vec::with_capacity(n_probes as usize);
        let mut truncated = false;
        while let Some(subset) = iter.next_subset() {
            if probes.len() >= self.config.probe_cap {
                truncated = true;
                break;
            }
            probes.push(crate::wordhash(subset));
        }

        Some(QueryPlan {
            match_type,
            probe_set,
            raw_query,
            qlen,
            probes,
            truncated,
        })
    }

    /// Execute the probes at `probe_indices` — positions into
    /// [`QueryPlan::probe_hashes`] — against this index. A shard owning
    /// residue `r` of `n` executes
    /// `plan.probe_hashes().iter().enumerate().filter(|(_, h)| *h % n == r)`;
    /// the full single-threaded execution is `0..plan.probe_count()`.
    pub fn execute_probes(
        &self,
        plan: &QueryPlan,
        probe_indices: impl IntoIterator<Item = usize>,
    ) -> ProbeBatch {
        self.execute_probes_tracked(plan, probe_indices, &mut NullTracker)
    }

    /// [`BroadMatchIndex::execute_probes`], reporting every memory access
    /// to `tracker`.
    pub fn execute_probes_tracked<T: AccessTracker>(
        &self,
        plan: &QueryPlan,
        probe_indices: impl IntoIterator<Item = usize>,
        tracker: &mut T,
    ) -> ProbeBatch {
        let mut batch = ProbeBatch::default();
        let mut scratch = ScanScratch::default();
        for idx in probe_indices {
            let hash = plan.probes[idx];
            batch.probes += 1;
            let found = self.directory.lookup(hash, tracker);
            tracker.branch(crate::node::SITE_PROBE, found.is_some());
            let Some((start, end)) = found else {
                continue;
            };
            batch.probe_hits += 1;
            if batch.nodes.iter().any(|n| n.extent == (start, end)) {
                continue; // hash collision or shared suffix: already scanned
            }

            let mut hits = Vec::new();
            let bytes = self.arena.slice(start as usize, end as usize);
            let summary = match plan.match_type {
                MatchType::Broad => scan_node(
                    bytes,
                    start as u64,
                    self.codec,
                    plan.qlen,
                    &mut scratch,
                    tracker,
                    |entry_words| is_sorted_subset(entry_words, plan.probe_set.ids()),
                    |_, _, ad, info| hits.push(MatchHit { ad, info }),
                ),
                MatchType::Exact => {
                    let target = &plan.probe_set;
                    scan_node(
                        bytes,
                        start as u64,
                        self.codec,
                        plan.qlen,
                        &mut scratch,
                        tracker,
                        |entry_words| entry_words == target.ids(),
                        |_, raw, ad, info| {
                            if raw.len() == plan.raw_query.len()
                                && raw.iter().zip(&plan.raw_query).all(|(&w, q)| *q == Some(w))
                            {
                                hits.push(MatchHit { ad, info });
                            }
                        },
                    )
                }
                MatchType::Phrase => scan_node(
                    bytes,
                    start as u64,
                    self.codec,
                    plan.qlen,
                    &mut scratch,
                    tracker,
                    |entry_words| is_sorted_subset(entry_words, plan.probe_set.ids()),
                    |_, raw, ad, info| {
                        if contains_contiguous(&plan.raw_query, raw) {
                            hits.push(MatchHit { ad, info });
                        }
                    },
                ),
            };
            batch.nodes.push(ScannedNode {
                extent: (start, end),
                first_probe: idx,
                hits,
                summary,
                remapped: self.remapped_extents.contains(&(start, end)),
            });
        }
        batch
    }

    /// Gather probe batches into the final hit list and statistics:
    /// cross-batch node deduplication, deterministic hit order (nodes sorted
    /// by the enumeration index of the probe that first reached them, so
    /// sharded execution is bit-identical to single-threaded), and exclusion
    /// filtering (Section I: drop hits whose campaign excluded any word
    /// present in the query).
    pub fn finish_query(
        &self,
        plan: &QueryPlan,
        batches: impl IntoIterator<Item = ProbeBatch>,
    ) -> (Vec<MatchHit>, QueryStats) {
        let mut stats = QueryStats {
            truncated: plan.truncated,
            ..QueryStats::default()
        };
        let mut nodes: Vec<ScannedNode> = Vec::new();
        for batch in batches {
            stats.probes += batch.probes;
            stats.probe_hits += batch.probe_hits;
            for node in batch.nodes {
                match nodes.iter_mut().find(|n| n.extent == node.extent) {
                    Some(seen) => seen.first_probe = seen.first_probe.min(node.first_probe),
                    None => nodes.push(node),
                }
            }
        }
        nodes.sort_by_key(|n| n.first_probe);
        stats.nodes_visited = nodes.len();
        // Scan detail accumulates from the deduplicated node set, so sharded
        // gathers report exactly what a single-threaded run would (a node
        // reached from two shards is still one scan's worth of work).
        for node in &nodes {
            stats.entries_examined += node.summary.entries as usize;
            stats.ads_examined += node.summary.ads as usize;
            stats.scanned_bytes += node.summary.bytes as usize;
            if node.summary.early_terminated {
                stats.early_terminations += 1;
            }
            if node.remapped {
                stats.remapped_nodes += 1;
                stats.remapped_scan_bytes += node.summary.bytes as usize;
            }
        }

        let mut hits: Vec<MatchHit> = nodes.into_iter().flat_map(|n| n.hits).collect();
        if !self.exclusions.is_empty() {
            hits.retain(|h| match self.exclusions.get(&h.ad) {
                Some(excluded) => !excluded.ids().iter().any(|&w| plan.probe_set.contains(w)),
                None => true,
            });
        }
        stats.hits = hits.len();
        (hits, stats)
    }

    fn query_internal<T: AccessTracker>(
        &self,
        query_text: &str,
        match_type: MatchType,
        tracker: &mut T,
        stats: Option<&mut QueryStats>,
    ) -> Vec<MatchHit> {
        let Some(plan) = self.plan_query(query_text, match_type) else {
            return Vec::new();
        };
        let batch = self.execute_probes_tracked(&plan, 0..plan.probe_count(), tracker);
        let (hits, full_stats) = self.finish_query(&plan, [batch]);
        if let Some(s) = stats {
            *s = full_stats;
        }
        hits
    }

    /// Structure statistics.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            ads: self.n_ads as usize,
            groups: self.group_words.len(),
            nodes: self.directory.entries(),
            arena_bytes: self.arena.len(),
            directory_bytes: self.directory.size_bytes(),
            max_locator_len: self.max_locator_len,
            vocab_words: self.vocab.len(),
        }
    }

    /// The mapping the builder chose.
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// Summary of the mapping (nodes, re-mapped groups, synthetic locators).
    pub fn mapping_stats(&self) -> MappingStats {
        self.mapping.stats(&self.group_words)
    }

    /// The build configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// The vocabulary (shared with baselines so comparisons use identical
    /// tokenization).
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Model-predicted `Cost(WL, M)` of this index's mapping for `workload`
    /// (Section V-A), without executing anything.
    pub fn modeled_cost(&self, workload: &QueryWorkload) -> MappingCost {
        evaluate_mapping(
            &self.group_words,
            &self.group_bytes,
            &self.mapping,
            workload,
            &self.config.cost,
            self.max_locator_len.max(1),
            self.config.probe_cap,
        )
    }

    /// Distinct word sets, index-aligned with [`Mapping::locator`].
    pub fn group_words(&self) -> &[WordSet] {
        &self.group_words
    }

    pub(crate) fn group_bytes(&self) -> &[usize] {
        &self.group_bytes
    }

    pub(crate) fn arena(&self) -> &Arena {
        &self.arena
    }

    pub(crate) fn arena_mut(&mut self) -> &mut Arena {
        &mut self.arena
    }

    pub(crate) fn codec(&self) -> Codec {
        self.codec
    }

    pub(crate) fn directory(&self) -> &NodeDirectory {
        &self.directory
    }

    pub(crate) fn directory_mut(&mut self) -> &mut NodeDirectory {
        &mut self.directory
    }

    pub(crate) fn vocab_mut(&mut self) -> &mut Vocabulary {
        &mut self.vocab
    }

    /// Allocate the next ad id (maintenance inserts). Ids come from the
    /// high-water allocator, never from the live-ad count, so an id freed
    /// by a removal is never handed to a new ad.
    pub(crate) fn alloc_ad_id(&mut self) -> AdId {
        let id = AdId(self.next_ad_id);
        self.next_ad_id += 1;
        self.n_ads += 1;
        id
    }

    pub(crate) fn note_ads_removed(&mut self, n: u32) {
        self.n_ads = self.n_ads.saturating_sub(n);
    }

    pub(crate) fn note_locator_len(&mut self, len: usize) {
        self.max_locator_len = self.max_locator_len.max(len);
    }

    pub(crate) fn max_locator_len(&self) -> usize {
        self.max_locator_len
    }

    /// Decode every ad stored in the index (diagnostics, rebuilds, tests).
    /// Order is storage order, not insertion order.
    pub fn iter_all_ads(&self) -> Vec<(AdId, AdInfo)> {
        let mut out = Vec::with_capacity(self.n_ads as usize);
        for (start, end) in self.directory.extents() {
            let bytes = self.arena.slice(start as usize, end as usize);
            for entry in crate::node::decode_node(bytes, self.codec) {
                for p in &entry.phrases {
                    out.extend(p.ads.iter().copied());
                }
            }
        }
        out
    }

    /// Decode every phrase stored in the index as `(phrase text, ad, info)`
    /// triples — the inverse of indexing, used by rebuilds and baselines.
    pub fn export_ads(&self) -> Vec<(String, AdId, AdInfo)> {
        let mut out = Vec::with_capacity(self.n_ads as usize);
        for (start, end) in self.directory.extents() {
            let bytes = self.arena.slice(start as usize, end as usize);
            for entry in crate::node::decode_node(bytes, self.codec) {
                for p in &entry.phrases {
                    let text = p
                        .raw
                        .iter()
                        .map(|&w| self.vocab.resolve(w).unwrap_or("?"))
                        .collect::<Vec<_>>()
                        .join(" ");
                    for &(ad, info) in &p.ads {
                        out.push((text.clone(), ad, info));
                    }
                }
            }
        }
        out
    }
}

/// Does `needle` appear in `haystack` as a contiguous run (element-exact,
/// `None` in the haystack never matches)?
fn contains_contiguous(haystack: &[Option<WordId>], needle: &[WordId]) -> bool {
    if needle.is_empty() || needle.len() > haystack.len() {
        return false;
    }
    haystack
        .windows(needle.len())
        .any(|w| w.iter().zip(needle).all(|(h, &n)| *h == Some(n)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DirectoryKind, IndexBuilder, IndexConfig, RemapMode};
    use broadmatch_memcost::CountingTracker;

    fn sample_index(remap: RemapMode, directory: DirectoryKind, compress: bool) -> BroadMatchIndex {
        let cfg = IndexConfig {
            remap,
            directory,
            compress_nodes: compress,
            max_words: 3,
            ..IndexConfig::default()
        };
        let mut b = IndexBuilder::with_config(cfg);
        b.add("used books", AdInfo::with_bid(1, 10)).unwrap();
        b.add("cheap used books", AdInfo::with_bid(2, 20)).unwrap();
        b.add("books", AdInfo::with_bid(3, 30)).unwrap();
        b.add("comic books", AdInfo::with_bid(4, 40)).unwrap();
        b.add("talk talk", AdInfo::with_bid(5, 50)).unwrap();
        b.add(
            "rare first edition signed hardcover books",
            AdInfo::with_bid(6, 60),
        )
        .unwrap();
        b.build().unwrap()
    }

    fn listing_ids(hits: &[MatchHit]) -> Vec<u64> {
        let mut ids: Vec<u64> = hits.iter().map(|h| h.info.listing_id).collect();
        ids.sort_unstable();
        ids
    }

    fn check_semantics(index: &BroadMatchIndex) {
        // Broad match.
        assert_eq!(
            listing_ids(&index.query("cheap used books online", MatchType::Broad)),
            vec![1, 2, 3]
        );
        assert_eq!(
            listing_ids(&index.query("books", MatchType::Broad)),
            vec![3]
        );
        assert_eq!(
            listing_ids(&index.query("comic books cheap", MatchType::Broad)),
            vec![3, 4]
        );
        assert!(index.query("nothing here", MatchType::Broad).is_empty());

        // Duplicate-word semantics: "talk" alone must not match "talk talk".
        assert!(index.query("talk", MatchType::Broad).is_empty());
        assert_eq!(
            listing_ids(&index.query("talk talk", MatchType::Broad)),
            vec![5]
        );
        // Triple "talk" is a different special word: no broad match either.
        assert!(index.query("talk talk talk", MatchType::Broad).is_empty());

        // Long phrase (6 words > max_words=3) is still retrievable.
        assert_eq!(
            listing_ids(&index.query(
                "rare first edition signed hardcover books for sale",
                MatchType::Broad
            )),
            vec![3, 6]
        );

        // Exact match: equality of words and order.
        assert_eq!(
            listing_ids(&index.query("used books", MatchType::Exact)),
            vec![1]
        );
        assert!(index.query("books used", MatchType::Exact).is_empty());
        assert!(index
            .query("cheap used books online", MatchType::Exact)
            .is_empty());

        // Phrase match: contiguous in-order containment.
        assert_eq!(
            listing_ids(&index.query("buy used books today", MatchType::Phrase)),
            vec![1, 3]
        );
        assert!(
            index
                .query("used comic books", MatchType::Phrase)
                .iter()
                .all(|h| h.info.listing_id != 1),
            "gap breaks phrase match"
        );
        // Phrase match with higher query multiplicity still finds the bid.
        assert_eq!(
            listing_ids(&index.query("talk talk talk", MatchType::Phrase)),
            vec![5]
        );
    }

    #[test]
    fn semantics_no_remap() {
        check_semantics(&sample_index(
            RemapMode::None,
            DirectoryKind::HashTable,
            false,
        ));
    }

    #[test]
    fn semantics_long_only() {
        check_semantics(&sample_index(
            RemapMode::LongOnly,
            DirectoryKind::HashTable,
            false,
        ));
    }

    #[test]
    fn semantics_full_remap() {
        check_semantics(&sample_index(
            RemapMode::Full,
            DirectoryKind::HashTable,
            false,
        ));
    }

    #[test]
    fn semantics_full_withdrawals() {
        check_semantics(&sample_index(
            RemapMode::FullWithWithdrawals,
            DirectoryKind::HashTable,
            false,
        ));
    }

    #[test]
    fn semantics_succinct_directory() {
        check_semantics(&sample_index(
            RemapMode::LongOnly,
            DirectoryKind::Succinct,
            false,
        ));
    }

    #[test]
    fn semantics_compressed_nodes() {
        check_semantics(&sample_index(
            RemapMode::LongOnly,
            DirectoryKind::HashTable,
            true,
        ));
    }

    #[test]
    fn semantics_compressed_succinct_full() {
        check_semantics(&sample_index(
            RemapMode::Full,
            DirectoryKind::Succinct,
            true,
        ));
    }

    #[test]
    fn tracker_observes_accesses() {
        let index = sample_index(RemapMode::LongOnly, DirectoryKind::HashTable, false);
        let mut t = CountingTracker::new();
        index.query_tracked("cheap used books", MatchType::Broad, &mut t);
        assert!(t.random_accesses > 0);
        assert!(t.bytes_total() > 0);
    }

    #[test]
    fn stats_reflect_contents() {
        let index = sample_index(RemapMode::LongOnly, DirectoryKind::HashTable, false);
        let stats = index.stats();
        assert_eq!(stats.ads, 6);
        assert_eq!(stats.groups, 6);
        assert!(stats.nodes <= stats.groups);
        assert!(stats.arena_bytes > 0);
        assert!(stats.directory_bytes > 0);
        assert!(stats.max_locator_len <= 3);
    }

    #[test]
    fn iter_all_ads_returns_everything() {
        let index = sample_index(RemapMode::Full, DirectoryKind::HashTable, false);
        let mut ads = index.iter_all_ads();
        ads.sort_by_key(|&(id, _)| id);
        assert_eq!(ads.len(), 6);
        let ids: Vec<u32> = ads.iter().map(|&(id, _)| id.raw()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn contains_contiguous_cases() {
        let h = |ids: &[u32]| {
            ids.iter()
                .map(|&i| if i == 999 { None } else { Some(WordId(i)) })
                .collect::<Vec<_>>()
        };
        let n = |ids: &[u32]| ids.iter().map(|&i| WordId(i)).collect::<Vec<_>>();
        assert!(contains_contiguous(&h(&[1, 2, 3]), &n(&[2, 3])));
        assert!(contains_contiguous(&h(&[1, 2, 3]), &n(&[1, 2, 3])));
        assert!(!contains_contiguous(&h(&[1, 2, 3]), &n(&[1, 3])));
        assert!(!contains_contiguous(&h(&[1, 999, 3]), &n(&[1, 999])));
        assert!(!contains_contiguous(&h(&[1]), &n(&[1, 2])));
        assert!(!contains_contiguous(&h(&[1, 2]), &n(&[])));
    }

    #[test]
    fn query_stats_reflect_processing() {
        let index = sample_index(RemapMode::LongOnly, DirectoryKind::HashTable, false);
        let (hits, stats) = index.query_with_stats("cheap used books", MatchType::Broad);
        assert_eq!(stats.hits, hits.len());
        assert!(stats.hits > 0);
        // 3 known words, max_words 3 => 7 subsets probed.
        assert_eq!(stats.probes, 7);
        assert!(
            stats.probe_hits >= 2,
            "at least {{books}} misses, bid sets hit"
        );
        assert!(stats.nodes_visited >= 2);
        assert!(!stats.truncated);

        // A miss query still reports its probe work.
        let (hits, stats) = index.query_with_stats("zzz qqq", MatchType::Broad);
        assert!(hits.is_empty());
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.probes, 0, "unknown words are dropped before probing");
    }

    #[test]
    fn query_stats_report_truncation() {
        let cfg = IndexConfig {
            probe_cap: 3,
            max_words: 3,
            ..IndexConfig::default()
        };
        let mut b = IndexBuilder::with_config(cfg);
        b.add("a b c", AdInfo::with_bid(1, 1)).unwrap();
        let index = b.build().unwrap();
        let (_, stats) = index.query_with_stats("a b c", MatchType::Broad);
        assert!(stats.truncated);
        assert_eq!(stats.probes, 3);
    }

    #[test]
    fn sharded_plan_execution_matches_single_threaded() {
        let index = sample_index(RemapMode::Full, DirectoryKind::Succinct, true);
        for (q, mt) in [
            ("cheap used books online", MatchType::Broad),
            ("comic books cheap", MatchType::Broad),
            ("buy used books today", MatchType::Phrase),
            ("talk talk talk", MatchType::Phrase),
            ("used books", MatchType::Exact),
            (
                "rare first edition signed hardcover books for sale",
                MatchType::Broad,
            ),
        ] {
            let (want_hits, want_stats) = index.query_with_stats(q, mt);
            let plan = index.plan_query(q, mt).expect("known words");
            for n_shards in [1usize, 2, 3, 5] {
                // Each shard owns the probes whose hash lands on its residue;
                // gather must reproduce hits AND stats bit-for-bit.
                let batches: Vec<ProbeBatch> = (0..n_shards as u64)
                    .map(|shard| {
                        index.execute_probes(
                            &plan,
                            plan.probe_hashes()
                                .iter()
                                .enumerate()
                                .filter(|&(_, h)| h % n_shards as u64 == shard)
                                .map(|(i, _)| i)
                                .collect::<Vec<_>>(),
                        )
                    })
                    .collect();
                let (hits, stats) = index.finish_query(&plan, batches);
                assert_eq!(hits, want_hits, "{q} ({mt:?}) across {n_shards} shards");
                assert_eq!(stats, want_stats, "{q} ({mt:?}) across {n_shards} shards");
            }
        }
    }

    #[test]
    fn plan_query_rejects_hopeless_queries() {
        let index = sample_index(RemapMode::LongOnly, DirectoryKind::HashTable, false);
        assert!(index.plan_query("", MatchType::Broad).is_none());
        assert!(index.plan_query("zzz qqq", MatchType::Broad).is_none());
        // Exact match with one unknown word can never succeed.
        assert!(index
            .plan_query("used books zzz", MatchType::Exact)
            .is_none());
        // ...but broad match still probes the known subset.
        assert!(index
            .plan_query("used books zzz", MatchType::Broad)
            .is_some());
    }

    #[test]
    fn modeled_cost_is_positive_for_nonempty_workload() {
        let index = sample_index(RemapMode::Full, DirectoryKind::HashTable, false);
        let wl = QueryWorkload::from_texts(index.vocab(), [("cheap used books", 5u64)]);
        let cost = index.modeled_cost(&wl);
        assert!(cost.breakdown.total() > 0.0);
        assert!(cost.nodes > 0);
    }
}
