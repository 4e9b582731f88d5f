//! Word interning.

use std::collections::HashMap;

use crate::hash::FxBuildHasher;
use crate::text::{for_each_run, for_each_token, push_key};
use crate::{WordId, WordSet};

/// Interns words (including folded multiplicity tokens) to dense
/// [`WordId`]s and tracks per-word corpus frequencies.
///
/// Corpus frequency — in how many distinct bid *word sets* (groups) a word
/// occurs, not how many bid phrases or ads — drives the "index only the
/// rarest word" non-redundant inverted baseline and informs the re-mapping
/// heuristics. [`crate::IndexBuilder`] bumps it once per new group.
///
/// # Examples
///
/// ```
/// use broadmatch::Vocabulary;
///
/// let mut vocab = Vocabulary::new();
/// let a = vocab.intern("books");
/// let b = vocab.intern("books");
/// let c = vocab.intern("cheap");
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// assert_eq!(vocab.resolve(a), Some("books"));
/// assert_eq!(vocab.len(), 2);
/// ```
#[derive(Debug, Default, Clone)]
pub struct Vocabulary {
    map: HashMap<Box<str>, WordId, FxBuildHasher>,
    words: Vec<Box<str>>,
    /// Number of indexed word sets (groups) each word occurs in.
    phrase_freq: Vec<u64>,
}

impl Vocabulary {
    /// An empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct interned words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Intern `word`, returning its id (existing or fresh).
    pub fn intern(&mut self, word: &str) -> WordId {
        if let Some(&id) = self.map.get(word) {
            return id;
        }
        let id = WordId(self.words.len() as u32);
        let boxed: Box<str> = word.into();
        self.words.push(boxed.clone());
        self.phrase_freq.push(0);
        self.map.insert(boxed, id);
        id
    }

    /// Look up a word without interning.
    pub fn get(&self, word: &str) -> Option<WordId> {
        self.map.get(word).copied()
    }

    /// The string for `id`, if assigned.
    pub fn resolve(&self, id: WordId) -> Option<&str> {
        self.words.get(id.0 as usize).map(|w| w.as_ref())
    }

    /// Record that `id` occurs in one more indexed word set.
    pub fn bump_phrase_freq(&mut self, id: WordId) {
        if let Some(f) = self.phrase_freq.get_mut(id.0 as usize) {
            *f += 1;
        }
    }

    /// In how many indexed word sets `id` occurs.
    pub fn phrase_freq(&self, id: WordId) -> u64 {
        self.phrase_freq.get(id.0 as usize).copied().unwrap_or(0)
    }

    /// Tokenize `text`, fold duplicates, and intern every folded token,
    /// returning the canonical [`WordSet`] plus the ordered raw word-id
    /// sequence (interned *without* folding) needed for phrase/exact match.
    pub fn intern_phrase(&mut self, text: &str) -> (WordSet, Vec<WordId>) {
        let mut ids = PhraseIds::default();
        self.intern_ids(text, &mut ids);
        (WordSet::from_sorted(ids.words), ids.raw)
    }

    /// [`Vocabulary::intern_phrase`] into reusable buffers.
    ///
    /// New ids are assigned to the raw tokens in phrase order first, then to
    /// the multiplicity tokens of repeated words in word order.
    pub(crate) fn intern_ids(&mut self, text: &str, ids: &mut PhraseIds) {
        ids.raw.clear();
        for_each_token(text, &mut ids.lower, |t| ids.raw.push(self.intern(t)));
        ids.sorted.clear();
        ids.sorted.extend_from_slice(&ids.raw);
        ids.sorted.sort_unstable();
        ids.words.clear();
        ids.repeated.clear();
        for_each_run(&ids.sorted, |&id, count| match count {
            1 => ids.words.push(id),
            _ => ids.repeated.push((id, count)),
        });
        // Multiplicity tokens are interned in word order.
        ids.repeated.sort_unstable_by(|&(a, _), &(b, _)| {
            self.words[a.0 as usize].cmp(&self.words[b.0 as usize])
        });
        for &(id, count) in &ids.repeated {
            ids.key.clear();
            push_key(&mut ids.key, &self.words[id.0 as usize], count);
            let key = self.intern(&ids.key);
            ids.words.push(key);
        }
        ids.words.sort_unstable();
        ids.words.dedup();
    }

    /// Like [`Vocabulary::intern_phrase`] but read-only: unknown words map
    /// to `None`. Used on the query path, where a word absent from the
    /// vocabulary can never contribute to a match.
    pub fn lookup_query(&self, text: &str) -> (WordSet, Vec<Option<WordId>>) {
        let mut ids = QueryIds::default();
        self.lookup_ids(text, &mut ids, false);
        (WordSet::from_sorted(ids.words), ids.raw)
    }

    /// [`Vocabulary::lookup_query`] into reusable buffers. With
    /// `lower_multiplicities`, a word occurring `m` times also contributes
    /// its known multiplicity tokens below `m` (what phrase match probes).
    pub(crate) fn lookup_ids(&self, text: &str, ids: &mut QueryIds, lower_multiplicities: bool) {
        ids.raw.clear();
        ids.sorted.clear();
        ids.unknown.clear();
        for_each_token(text, &mut ids.lower, |t| {
            let id = self.get(t);
            match id {
                Some(id) => ids.sorted.push(id),
                None => {
                    ids.unknown.push_str(t);
                    ids.unknown.push('\u{1F}');
                }
            }
            ids.raw.push(id);
        });
        ids.len = 0;
        if !ids.unknown.is_empty() {
            let mut unknown: Vec<&str> = ids.unknown.split_terminator('\u{1F}').collect();
            unknown.sort_unstable();
            unknown.dedup();
            ids.len = unknown.len();
        }
        ids.complete = ids.len == 0;
        ids.sorted.sort_unstable();
        ids.words.clear();
        for_each_run(&ids.sorted, |&id, count| {
            ids.len += 1;
            let lowest = if lower_multiplicities { 1 } else { count };
            for c in lowest..=count {
                if c == 1 {
                    ids.words.push(id);
                    continue;
                }
                ids.key.clear();
                push_key(&mut ids.key, &self.words[id.0 as usize], c);
                match self.get(&ids.key) {
                    Some(key) => ids.words.push(key),
                    None if c == count => ids.complete = false,
                    None => {}
                }
            }
        });
        ids.words.sort_unstable();
        ids.words.dedup();
    }

    /// Rebuild the interning map from the word list.
    pub fn rebuild_map(&mut self) {
        self.map = self
            .words
            .iter()
            .enumerate()
            .map(|(i, w)| (w.clone(), WordId(i as u32)))
            .collect();
    }
}

/// Reusable buffers for [`Vocabulary::intern_ids`]: one phrase's ids.
#[derive(Debug, Default)]
pub(crate) struct PhraseIds {
    /// Raw word ids in phrase order.
    pub raw: Vec<WordId>,
    /// The folded word set: sorted and duplicate-free.
    pub words: Vec<WordId>,
    lower: String,
    key: String,
    sorted: Vec<WordId>,
    /// Repeated words with their multiplicities.
    repeated: Vec<(WordId, u32)>,
}

/// Reusable buffers for [`Vocabulary::lookup_ids`]: one query's ids.
#[derive(Debug, Default)]
pub(crate) struct QueryIds {
    /// Raw token ids in query order; `None` for unknown words.
    pub raw: Vec<Option<WordId>>,
    /// The known folded tokens: sorted and duplicate-free.
    pub words: Vec<WordId>,
    /// Distinct folded tokens, known or not: the query's `|Q|`.
    pub len: usize,
    /// Whether every folded token is known (exact match needs all).
    pub complete: bool,
    lower: String,
    key: String,
    sorted: Vec<WordId>,
    /// Unknown tokens, each followed by `\u{1F}`.
    unknown: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::text::{fold_duplicates, tokenize, FoldedToken};

    /// The string-level pipeline the borrowed-token path replaced: one
    /// `String` per token, folded by sorting owned strings, interned raw
    /// tokens first and folded keys second.
    mod reference {
        use super::*;

        pub fn tokenize(text: &str) -> Vec<String> {
            text.split(|c: char| !c.is_alphanumeric())
                .filter(|t| !t.is_empty())
                .map(|t| t.to_lowercase())
                .collect()
        }

        pub fn fold_duplicates(tokens: &[String]) -> Vec<FoldedToken> {
            let mut sorted: Vec<&String> = tokens.iter().collect();
            sorted.sort_unstable();
            let mut out: Vec<FoldedToken> = Vec::new();
            for token in sorted {
                match out.last_mut() {
                    Some(last) if &last.word == token => last.count += 1,
                    _ => out.push(FoldedToken {
                        word: token.clone(),
                        count: 1,
                    }),
                }
            }
            out
        }

        pub fn intern_phrase(v: &mut Vocabulary, text: &str) -> (WordSet, Vec<WordId>) {
            let tokens = tokenize(text);
            let raw = tokens.iter().map(|t| v.intern(t)).collect();
            let folded = fold_duplicates(&tokens);
            let ids = folded.iter().map(|t| v.intern(&t.key())).collect();
            (WordSet::from_unsorted(ids), raw)
        }

        /// What the query planner resolved: raw ids, `|Q|`, the known
        /// folded set, whether it was complete, and phrase match's set with
        /// lower multiplicities.
        pub fn lookup(
            v: &Vocabulary,
            text: &str,
        ) -> (Vec<Option<WordId>>, usize, WordSet, bool, WordSet) {
            let tokens = tokenize(text);
            let raw = tokens.iter().map(|t| v.get(t)).collect();
            let folded = fold_duplicates(&tokens);
            let known: Vec<Option<WordId>> = folded.iter().map(|t| v.get(&t.key())).collect();
            let complete = known.iter().all(Option::is_some);
            let phrase = folded
                .iter()
                .flat_map(|t| {
                    (1..=t.count).map(|count| {
                        FoldedToken {
                            word: t.word.clone(),
                            count,
                        }
                        .key()
                    })
                })
                .filter_map(|key| v.get(&key))
                .collect();
            (
                raw,
                folded.len(),
                WordSet::from_unsorted(known.into_iter().flatten().collect()),
                complete,
                WordSet::from_unsorted(phrase),
            )
        }
    }

    /// Seeded phrases over upper case, digits, punctuation runs, repeated
    /// words and per-token Unicode case mappings.
    fn seeded_texts() -> Vec<String> {
        const PIECES: [&str; 22] = [
            "talk",
            "Talk",
            "TALK",
            "show",
            "mp3",
            "MP3",
            "2024",
            "x",
            "İstanbul",
            "istanbul",
            "STRASSE",
            "Straße",
            "strasse",
            "ΟΔΟΣ",
            "οδος",
            "Σ",
            "ΣΑΣ",
            "Éclair",
            "éclair",
            "a",
            "talk talk talk",
            "talk talk",
        ];
        const SEPARATORS: [&str; 8] = [" ", "  ", "-", "!!", ", ", "—", "\t", ""];
        let mut state = 0x00DD_BA11_u64;
        let mut next = |n: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % n
        };
        // Fresh repeated words whose ids and spellings sort differently:
        // their multiplicity tokens are interned in word order.
        let mut texts: Vec<String> = [
            "zeta zeta alpha alpha",
            "ΟΔΟΣ ΟΔΟΣ mp3 MP3 b b b",
            "",
            "!!! --",
        ]
        .map(String::from)
        .into();
        for _ in 0..2000 {
            let mut text = String::new();
            for _ in 0..next(9) {
                text.push_str(PIECES[next(PIECES.len())]);
                text.push_str(SEPARATORS[next(SEPARATORS.len())]);
            }
            texts.push(text);
        }
        texts
    }

    #[test]
    fn wrappers_match_the_string_pipeline() {
        for text in seeded_texts() {
            let tokens = tokenize(&text);
            assert_eq!(tokens, reference::tokenize(&text), "{text:?}");
            assert_eq!(
                fold_duplicates(&tokens),
                reference::fold_duplicates(&tokens)
            );
        }
    }

    #[test]
    fn interning_matches_the_string_pipeline() {
        let mut v = Vocabulary::new();
        let mut r = Vocabulary::new();
        for text in seeded_texts() {
            assert_eq!(
                v.intern_phrase(&text),
                reference::intern_phrase(&mut r, &text),
                "{text:?}"
            );
        }
        // Same words, assigned the same ids in the same order.
        assert_eq!(v.words, r.words);
    }

    #[test]
    fn lookup_matches_the_string_pipeline() {
        let texts = seeded_texts();
        let mut v = Vocabulary::new();
        for text in texts.iter().step_by(3) {
            v.intern_phrase(text);
        }
        let mut ids = QueryIds::default();
        for text in &texts {
            let (raw, len, known, complete, phrase) = reference::lookup(&v, text);
            v.lookup_ids(text, &mut ids, false);
            assert_eq!(ids.raw, raw, "{text:?}");
            assert_eq!(ids.len, len, "{text:?}");
            assert_eq!(ids.words, known.ids(), "{text:?}");
            assert_eq!(ids.complete, complete, "{text:?}");
            v.lookup_ids(text, &mut ids, true);
            assert_eq!(ids.words, phrase.ids(), "{text:?}");
        }
    }

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocabulary::new();
        assert_eq!(v.intern("a"), v.intern("a"));
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn get_does_not_intern() {
        let v = Vocabulary::new();
        assert_eq!(v.get("a"), None);
    }

    #[test]
    fn phrase_freq_tracking() {
        let mut v = Vocabulary::new();
        let id = v.intern("books");
        assert_eq!(v.phrase_freq(id), 0);
        v.bump_phrase_freq(id);
        v.bump_phrase_freq(id);
        assert_eq!(v.phrase_freq(id), 2);
    }

    #[test]
    fn intern_phrase_folds_duplicates() {
        let mut v = Vocabulary::new();
        let (set, raw) = v.intern_phrase("talk talk");
        // One folded token ("talk\u{1F}2"), two raw tokens ("talk", "talk").
        assert_eq!(set.len(), 1);
        assert_eq!(raw.len(), 2);
        assert_eq!(raw[0], raw[1]);
        // The folded id differs from the raw id.
        assert_ne!(set.ids()[0], raw[0]);
    }

    #[test]
    fn lookup_query_is_read_only() {
        let mut v = Vocabulary::new();
        v.intern_phrase("used books");
        let before = v.len();
        let (set, raw) = v.lookup_query("used books today");
        assert_eq!(v.len(), before, "query lookup must not intern");
        assert_eq!(set.len(), 2); // "today" unknown, dropped from the set
        assert_eq!(raw.len(), 3);
        assert!(raw[2].is_none());
    }

    #[test]
    fn rebuild_map_round_trip() {
        let mut v = Vocabulary::new();
        v.intern("x");
        v.intern("y");
        // Emulate the post-deserialization state: the map is skipped.
        let mut copy = v.clone();
        copy.map.clear();
        assert_eq!(copy.get("y"), None);
        copy.rebuild_map();
        assert_eq!(copy.get("y"), v.get("y"));
        assert_eq!(copy.get("x"), v.get("x"));
    }
}
