//! The paper's workload cost formulas (Section V-A): `Cost_Hash(WL, M)`,
//! `Cost_Node(WL, M)` and the per-node `weight(S)` of equation (2).
//!
//! With the affine `Cost_Scan` of `broadmatch-memcost` the node cost
//! decomposes per entry, which both the evaluator here and the optimizer's
//! weight function exploit:
//!
//! ```text
//! weight(S at L) = acc(L) · Cost_Random
//!                + Σ_{g ∈ S} acc_ge(L, |g|) · Cost_Scan(bytes(g))
//! ```
//!
//! where `acc(L) = Σ_{Q ⊇ L} frq(Q)` is the frequency mass of queries that
//! must visit a node with locator `L`, and `acc_ge(L, ℓ)` restricts that to
//! queries with at least `ℓ` words (shorter queries stop scanning before an
//! `ℓ`-word entry thanks to the in-node ordering).

use std::collections::HashMap;

use broadmatch_memcost::CostModel;

use crate::directory::SLOT_BYTES;
use crate::hash::FxBuildHasher;
use crate::optimize::{GroupMeta, Mapping};
use crate::wordset::subset_count;
use crate::{QueryWorkload, WordSet};

/// Longest query length tracked exactly by the accumulator; longer queries
/// are clamped (they are vanishingly rare and the clamp only affects which
/// entries are assumed scanned).
pub(crate) const MAX_TRACKED_LEN: usize = 32;

/// Per-locator access frequencies, bucketed by query length.
///
/// `hist[ℓ]` after suffix-summing is `acc_ge(L, ℓ)`: the total frequency of
/// workload queries `Q ⊇ L` with `|Q| ≥ ℓ`.
#[derive(Debug, Clone)]
pub(crate) struct LenHist {
    /// Plain per-length counts while accumulating, suffix sums once
    /// [`AccTable::for_keys`] finalizes.
    acc_ge: Vec<u64>,
}

impl Default for LenHist {
    fn default() -> Self {
        LenHist {
            acc_ge: vec![0; MAX_TRACKED_LEN + 1],
        }
    }
}

impl LenHist {
    fn add(&mut self, query_len: usize, freq: u64) {
        self.acc_ge[query_len.min(MAX_TRACKED_LEN)] += freq;
    }

    fn into_suffix_sums(mut self) -> Self {
        for i in (0..MAX_TRACKED_LEN).rev() {
            self.acc_ge[i] += self.acc_ge[i + 1];
        }
        self
    }

    pub(crate) fn acc_total(&self) -> u64 {
        self.acc_ge.first().copied().unwrap_or(0)
    }

    pub(crate) fn acc_ge(&self, len: usize) -> u64 {
        let i = len.min(MAX_TRACKED_LEN);
        self.acc_ge.get(i).copied().unwrap_or(0)
    }
}

/// Co-access table: for each locator a caller will read, the frequency mass
/// of the workload queries containing it.
#[derive(Debug, Default)]
pub(crate) struct AccTable {
    map: HashMap<WordSet, LenHist, FxBuildHasher>,
}

impl AccTable {
    /// Count the workload into exactly `keys`. Each query's subsets are
    /// enumerated as at query time (sizes `1..=max_words`, at most
    /// `probe_cap` per query); since they come smallest first, enumeration
    /// stops past the longest key. A key that is never enumerated reads 0.
    pub(crate) fn for_keys<'k>(
        keys: impl IntoIterator<Item = &'k WordSet>,
        workload: &QueryWorkload,
        max_words: usize,
        probe_cap: usize,
    ) -> Self {
        let mut raw: HashMap<WordSet, LenHist, FxBuildHasher> = HashMap::default();
        for key in keys {
            if !raw.contains_key(key) {
                raw.insert(key.clone(), LenHist::default());
            }
        }
        let longest = raw.keys().map(WordSet::len).max().unwrap_or(0);
        for q in workload.queries() {
            let mut iter = q.set.subsets(max_words.min(longest));
            let mut probes = 0usize;
            while let Some(subset) = iter.next_subset() {
                if probes >= probe_cap {
                    break;
                }
                probes += 1;
                if let Some(hist) = raw.get_mut(subset) {
                    hist.add(q.total_len, q.freq);
                }
            }
        }
        let map = raw
            .into_iter()
            .map(|(set, hist)| (set, hist.into_suffix_sums()))
            .collect();
        AccTable { map }
    }

    /// Reference build: every enumerated subset of every query becomes a
    /// key. [`AccTable::for_keys`] must agree with it on every key.
    #[cfg(test)]
    pub(crate) fn build(workload: &QueryWorkload, max_words: usize, probe_cap: usize) -> Self {
        let mut raw: HashMap<WordSet, LenHist, FxBuildHasher> = HashMap::default();
        for q in workload.queries() {
            let mut iter = q.set.subsets(max_words);
            let mut probes = 0usize;
            while let Some(subset) = iter.next_subset() {
                if probes >= probe_cap {
                    break;
                }
                probes += 1;
                raw.entry(WordSet::from_sorted(subset.to_vec()))
                    .or_default()
                    .add(q.total_len, q.freq);
            }
        }
        let map = raw
            .into_iter()
            .map(|(set, hist)| (set, hist.into_suffix_sums()))
            .collect();
        AccTable { map }
    }

    fn get(&self, set: &WordSet) -> Option<&LenHist> {
        self.map.get(set)
    }

    pub(crate) fn acc_total(&self, set: &WordSet) -> u64 {
        self.get(set).map_or(0, |h| h.acc_total())
    }

    pub(crate) fn acc_ge(&self, set: &WordSet, len: usize) -> u64 {
        self.get(set).map_or(0, |h| h.acc_ge(len))
    }

    /// Number of keys counted.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}

/// The two components of `Cost(WL, M)` (Section V-A).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostBreakdown {
    /// `Cost_Hash(WL, M)`: directory probes (independent of the mapping).
    pub hash_cost: f64,
    /// `Cost_Node(WL, M)`: random accesses to data nodes plus scans.
    pub node_cost: f64,
}

impl CostBreakdown {
    /// `Cost(WL, M) = Cost_Hash + Cost_Node`.
    pub fn total(&self) -> f64 {
        self.hash_cost + self.node_cost
    }
}

/// Model-predicted cost of executing a workload against a mapping, plus
/// summary statistics. Produced by [`crate::BroadMatchIndex::modeled_cost`]
/// and by the optimizer ablations.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingCost {
    /// Cost components.
    pub breakdown: CostBreakdown,
    /// Number of data nodes under the mapping.
    pub nodes: usize,
    /// Expected node random accesses per unit workload frequency.
    pub expected_node_accesses: f64,
}

/// Evaluate `Cost(WL, M)` for `groups` under `mapping`.
///
/// `group_words[i]` is group `i`'s word set and `group_bytes[i]` the
/// encoded size of its node entry.
pub(crate) fn evaluate_mapping(
    group_words: &[WordSet],
    group_bytes: &[usize],
    mapping: &Mapping,
    workload: &QueryWorkload,
    cost: &CostModel,
    max_words: usize,
    probe_cap: usize,
) -> MappingCost {
    assert_eq!(group_words.len(), group_bytes.len());
    let groups: Vec<GroupMeta> = group_words
        .iter()
        .zip(group_bytes)
        .map(|(words, &bytes)| GroupMeta { words, bytes })
        .collect();
    let acc = AccTable::for_keys(mapping.locators(), workload, max_words, probe_cap);
    price_mapping(&groups, mapping, &acc, workload, cost, max_words, probe_cap)
}

/// `Cost(WL, M)` of `mapping` priced from `acc`, which must have been built
/// from the same workload and bounds with every locator of `mapping` as a
/// key.
pub(crate) fn price_mapping(
    groups: &[GroupMeta<'_>],
    mapping: &Mapping,
    acc: &AccTable,
    workload: &QueryWorkload,
    cost: &CostModel,
    max_words: usize,
    probe_cap: usize,
) -> MappingCost {
    // Cost_Hash: each query pays (subset lookups) probes, each a random
    // access reading mem_hash bytes.
    let mut hash_cost = 0.0;
    for q in workload.queries() {
        let lookups = subset_count(q.total_len, max_words).min(probe_cap as u64);
        hash_cost +=
            q.freq as f64 * lookups as f64 * (cost.cost_random + cost.cost_scan(SLOT_BYTES));
    }

    // Cost_Node: group nodes by locator and apply weight(S).
    let mut nodes: HashMap<&WordSet, Vec<usize>, FxBuildHasher> = HashMap::default();
    for g in 0..groups.len() {
        nodes.entry(mapping.locator(g)).or_default().push(g);
    }
    let mut node_cost = 0.0;
    let mut expected_node_accesses = 0.0;
    for (locator, members) in &nodes {
        let visits = acc.acc_total(locator) as f64;
        node_cost += visits * cost.cost_random;
        expected_node_accesses += visits;
        for &g in members {
            // Equation (2) charges Cost_Scan per stored phrase; entries are
            // contiguous, so the per-entry scan term is exact under any
            // monotone Cost_Scan.
            let scanned = acc.acc_ge(locator, groups[g].words.len()) as f64;
            node_cost += scanned * cost.cost_scan(groups[g].bytes);
        }
    }

    MappingCost {
        breakdown: CostBreakdown {
            hash_cost,
            node_cost,
        },
        nodes: nodes.len(),
        expected_node_accesses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{WeightedQuery, WordId};

    fn ws(ids: &[u32]) -> WordSet {
        WordSet::from_unsorted(ids.iter().map(|&i| WordId(i)).collect())
    }

    fn wl(queries: &[(&[u32], u64)]) -> QueryWorkload {
        let mut w = QueryWorkload::new();
        for &(ids, freq) in queries {
            w.push(WeightedQuery {
                set: ws(ids),
                total_len: ids.len(),
                freq,
            });
        }
        w
    }

    fn keyed(keys: &[&[u32]], workload: &QueryWorkload, max_words: usize) -> AccTable {
        let keys: Vec<WordSet> = keys.iter().map(|k| ws(k)).collect();
        AccTable::for_keys(&keys, workload, max_words, 1 << 20)
    }

    #[test]
    fn acc_table_counts_supersets() {
        let workload = wl(&[(&[1, 2, 3], 10), (&[1, 2], 5), (&[4], 7)]);
        let acc = keyed(&[&[1], &[1, 2], &[1, 2, 3], &[4], &[5]], &workload, 3);
        assert_eq!(acc.acc_total(&ws(&[1])), 15);
        assert_eq!(acc.acc_total(&ws(&[1, 2])), 15);
        assert_eq!(acc.acc_total(&ws(&[1, 2, 3])), 10);
        assert_eq!(acc.acc_total(&ws(&[4])), 7);
        assert_eq!(acc.acc_total(&ws(&[5])), 0);
        assert_eq!(acc.len(), 5, "only the requested keys are stored");
        assert_eq!(acc.acc_total(&ws(&[2])), 0, "unrequested keys read 0");
    }

    #[test]
    fn acc_ge_respects_query_length() {
        let workload = wl(&[(&[1, 2, 3], 10), (&[1, 2], 5)]);
        let acc = keyed(&[&[1]], &workload, 3);
        // Queries containing {1}: both. With >= 3 words: only the first.
        assert_eq!(acc.acc_ge(&ws(&[1]), 2), 15);
        assert_eq!(acc.acc_ge(&ws(&[1]), 3), 10);
        assert_eq!(acc.acc_ge(&ws(&[1]), 4), 0);
    }

    #[test]
    fn acc_table_respects_max_words() {
        let workload = wl(&[(&[1, 2, 3], 1)]);
        let acc = keyed(&[&[1, 2], &[1, 2, 3]], &workload, 2);
        assert_eq!(acc.acc_total(&ws(&[1, 2])), 1);
        assert_eq!(
            acc.acc_total(&ws(&[1, 2, 3])),
            0,
            "size-3 subsets not enumerated"
        );
    }

    #[test]
    fn keyed_table_agrees_with_reference_on_every_key() {
        // Long queries under a binding probe cap: a key's count depends on
        // where the cap cuts each query's size-ordered enumeration.
        let workload = wl(&[
            (&[1, 2, 3, 4, 5, 6], 3),
            (&[1, 2, 3, 4], 5),
            (&[2, 4, 6, 8], 2),
            (&[1, 3], 7),
            (&[5, 6, 9], 4),
            (&[9], 1),
        ]);
        for (max_words, probe_cap) in [(3, 1 << 20), (3, 9), (4, 20), (2, 4)] {
            let reference = AccTable::build(&workload, max_words, probe_cap);
            // Every subset of every query, so some keys lie past the cap.
            let uncapped = AccTable::build(&workload, max_words, 1 << 20);
            let mut keys: Vec<&WordSet> = uncapped.map.keys().collect();
            keys.sort();
            let every = AccTable::for_keys(keys.iter().copied(), &workload, max_words, probe_cap);
            // Pairs only: the singletons before them are not keys but still
            // use up the cap, and enumeration stops after size 2.
            let pairs: Vec<&WordSet> = keys.iter().copied().filter(|k| k.len() == 2).collect();
            let few = AccTable::for_keys(pairs.iter().copied(), &workload, max_words, probe_cap);
            for key in keys {
                for len in 0..=MAX_TRACKED_LEN + 1 {
                    let want = reference.acc_ge(key, len);
                    assert_eq!(every.acc_ge(key, len), want, "key {key:?}, cap {probe_cap}");
                    if key.len() == 2 {
                        assert_eq!(few.acc_ge(key, len), want, "pair {key:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn identity_mapping_cost_components() {
        let groups = vec![ws(&[1]), ws(&[1, 2])];
        let bytes = vec![50usize, 80];
        let mapping = Mapping::identity(&groups);
        let workload = wl(&[(&[1, 2], 10)]);
        let cost = CostModel {
            cost_random: 100.0,
            scan_base: 0.0,
            scan_byte: 1.0,
        };
        let mc = evaluate_mapping(&groups, &bytes, &mapping, &workload, &cost, 8, 1 << 20);
        // Hash: 3 subsets * (100 + 16) * 10.
        assert!((mc.breakdown.hash_cost - 10.0 * 3.0 * 116.0).abs() < 1e-6);
        // Nodes: both visited 10x => 2 * 10 * 100 random + scans 10*(50+80).
        assert!((mc.breakdown.node_cost - (2000.0 + 1300.0)).abs() < 1e-6);
        assert_eq!(mc.nodes, 2);
    }

    #[test]
    fn merging_coaccessed_nodes_reduces_model_cost() {
        // Groups {1} and {1,2}; every query is {1,2}: merging the second
        // group into locator {1} saves a random access per query.
        let groups = vec![ws(&[1]), ws(&[1, 2])];
        let bytes = vec![50usize, 80];
        let workload = wl(&[(&[1, 2], 10)]);
        let cost = CostModel::dram();

        let identity = Mapping::identity(&groups);
        let merged = Mapping::new(vec![ws(&[1]), ws(&[1])]);
        let c_id = evaluate_mapping(&groups, &bytes, &identity, &workload, &cost, 8, 1 << 20);
        let c_mg = evaluate_mapping(&groups, &bytes, &merged, &workload, &cost, 8, 1 << 20);
        assert!(
            c_mg.breakdown.node_cost < c_id.breakdown.node_cost,
            "merged {} !< identity {}",
            c_mg.breakdown.node_cost,
            c_id.breakdown.node_cost
        );
        // Hash cost is mapping-independent.
        assert_eq!(c_mg.breakdown.hash_cost, c_id.breakdown.hash_cost);
    }

    #[test]
    fn merging_rarely_coaccessed_nodes_increases_model_cost() {
        // Group {2} is hot via query {2}; group {1,2} is huge and cold.
        // Merging the cold giant under locator {2} forces the hot queries
        // to scan it... but only if their length allows: use query {2,3}
        // (length 2 >= |{1,2}|) so the scan actually happens.
        let groups = vec![ws(&[2]), ws(&[1, 2])];
        let bytes = vec![10usize, 10_000];
        let workload = wl(&[(&[2, 3], 100), (&[1, 2], 1)]);
        let cost = CostModel::dram();

        let identity = Mapping::identity(&groups);
        let merged = Mapping::new(vec![ws(&[2]), ws(&[2])]);
        let c_id = evaluate_mapping(&groups, &bytes, &identity, &workload, &cost, 8, 1 << 20);
        let c_mg = evaluate_mapping(&groups, &bytes, &merged, &workload, &cost, 8, 1 << 20);
        assert!(c_mg.breakdown.node_cost > c_id.breakdown.node_cost);
    }
}
