//! Tokenization and the duplicate-word folding of Section III-B.
//!
//! Every phrase and query goes through one tokenizer, `for_each_token`,
//! which hands out borrowed tokens and lower-cases into a caller-owned
//! scratch only when a token needs it. The vocabulary folds duplicates on
//! the interned ids ([`crate::Vocabulary`]); [`tokenize`] and
//! [`fold_duplicates`] are the owned-string forms of the same steps.

use std::fmt::Write as _;

/// A token after duplicate folding: the base word plus its occurrence count
/// within the phrase.
///
/// The paper's semantics for repeated words ("Talk Talk"): a word occurring
/// `m` times must occur exactly `m` times in both query and bid, so every
/// multiplicity is treated as its own special word. `FoldedToken` is the
/// canonical representation of that special word.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FoldedToken {
    /// Lower-cased base word.
    pub word: String,
    /// Occurrence count within the phrase (≥ 1).
    pub count: u32,
}

impl FoldedToken {
    /// The interning key for this token: the word itself for count 1, or
    /// `word\u{1F}count` for folded duplicates (`\u{1F}` — ASCII unit
    /// separator — cannot appear in tokenized words).
    pub fn key(&self) -> String {
        let mut key = String::new();
        push_key(&mut key, &self.word, self.count);
        key
    }
}

/// Append the interning key of `word` occurring `count` times (see
/// [`FoldedToken::key`]) to `out`.
pub(crate) fn push_key(out: &mut String, word: &str, count: u32) {
    out.push_str(word);
    if count != 1 {
        out.push('\u{1F}');
        let _ = write!(out, "{count}");
    }
}

/// The raw tokens of `text`: maximal runs of alphanumeric characters
/// (Unicode-aware), before lower-casing.
fn raw_tokens(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
}

/// Call `f` with each lower-cased token of `text`, in order.
///
/// A token that is already lowercase ASCII letters and digits — nearly every
/// token of ads and queries — is passed borrowed from `text`. Any other token
/// is lower-cased into `lower`, which callers reuse across calls so the path
/// allocates nothing once warm. A non-ASCII token goes through
/// [`str::to_lowercase`] (one allocation), so context-dependent mappings
/// (Greek final sigma) apply per token.
pub(crate) fn for_each_token(text: &str, lower: &mut String, mut f: impl FnMut(&str)) {
    for token in raw_tokens(text) {
        if token
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit())
        {
            f(token);
            continue;
        }
        lower.clear();
        if token.is_ascii() {
            lower.push_str(token);
            lower.make_ascii_lowercase();
        } else {
            lower.push_str(&token.to_lowercase());
        }
        f(lower);
    }
}

/// `Some(n)` if `text` has `n > max` tokens.
pub(crate) fn count_over(text: &str, max: usize) -> Option<usize> {
    // Every token but the last needs a separator after it, so fewer than
    // `2 * max + 1` bytes cannot hold more than `max` tokens.
    if text.len() <= 2 * max {
        return None;
    }
    let n = raw_tokens(text).count();
    (n > max).then_some(n)
}

/// Call `f` with each run of equal adjacent items of `sorted` and its
/// length: the fold of Section III-B once the tokens are sorted.
pub(crate) fn for_each_run<T: PartialEq>(sorted: &[T], mut f: impl FnMut(&T, u32)) {
    let mut i = 0;
    while i < sorted.len() {
        let run = sorted[i..].iter().take_while(|t| **t == sorted[i]).count();
        f(&sorted[i], run as u32);
        i += run;
    }
}

/// Split a phrase or query into lower-cased word tokens.
///
/// Tokens are maximal runs of alphanumeric characters (Unicode-aware);
/// everything else separates. This mirrors the light normalization ad
/// platforms apply before matching.
///
/// # Examples
///
/// ```
/// use broadmatch::tokenize;
///
/// assert_eq!(tokenize("Cheap USED-books!"), vec!["cheap", "used", "books"]);
/// assert_eq!(tokenize("  "), Vec::<String>::new());
/// ```
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for_each_token(text, &mut String::new(), |t| out.push(t.to_string()));
    out
}

/// Fold duplicate words into multiplicity tokens (paper, Section III-B).
///
/// A word occurring `m` times becomes exactly one special word of
/// multiplicity `m`, so the output has one token per distinct base word,
/// sorted by `(word, count)`.
///
/// # Examples
///
/// ```
/// use broadmatch::fold_duplicates;
///
/// let tokens = vec!["talk".to_string(), "talk".to_string(), "show".to_string()];
/// let folded = fold_duplicates(&tokens);
/// assert_eq!(folded.len(), 2);
/// assert_eq!(folded[0].word, "show");
/// assert_eq!(folded[0].count, 1);
/// assert_eq!(folded[1].word, "talk");
/// assert_eq!(folded[1].count, 2);
/// ```
pub fn fold_duplicates(tokens: &[String]) -> Vec<FoldedToken> {
    let mut sorted: Vec<&String> = tokens.iter().collect();
    sorted.sort_unstable();
    let mut out = Vec::with_capacity(sorted.len());
    for_each_run(&sorted, |word, count| {
        out.push(FoldedToken {
            word: word.to_string(),
            count,
        })
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_normalizes_case_and_punctuation() {
        assert_eq!(
            tokenize("New York—cheap FLIGHTS (2024)"),
            vec!["new", "york", "cheap", "flights", "2024"]
        );
    }

    #[test]
    fn tokenize_empty_and_symbol_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("!!! -- ??").is_empty());
    }

    #[test]
    fn tokenize_lowercases_each_token_with_unicode_rules() {
        // Final sigma is decided per token; İ keeps its combining dot.
        assert_eq!(tokenize("ΟΔΟΣ ΣΑΣ-Σ"), vec!["οδος", "σας", "σ"]);
        assert_eq!(tokenize("İstanbul"), vec!["i\u{307}stanbul"]);
        assert_eq!(tokenize("STRASSE Straße"), vec!["strasse", "straße"]);
    }

    #[test]
    fn count_over_counts_only_beyond_the_limit() {
        assert_eq!(count_over("a b c", 2), Some(3));
        assert_eq!(count_over("a b", 2), None);
        assert_eq!(count_over("a-b-c", 3), None);
        assert_eq!(count_over(&"w ".repeat(300), 255), Some(300));
    }

    #[test]
    fn tokenize_keeps_digits() {
        assert_eq!(tokenize("mp3 player"), vec!["mp3", "player"]);
    }

    #[test]
    fn fold_no_duplicates_is_identity_set() {
        let tokens: Vec<String> = ["used", "books"].iter().map(|s| s.to_string()).collect();
        let folded = fold_duplicates(&tokens);
        assert_eq!(folded.len(), 2);
        assert!(folded.iter().all(|t| t.count == 1));
        // Sorted by word.
        assert_eq!(folded[0].word, "books");
        assert_eq!(folded[1].word, "used");
    }

    #[test]
    fn fold_talk_talk_is_distinct_from_talk() {
        let twice = fold_duplicates(&["talk".into(), "talk".into()]);
        let once = fold_duplicates(&["talk".into()]);
        assert_ne!(twice[0].key(), once[0].key());
        assert_eq!(twice[0].key(), "talk\u{1F}2");
        assert_eq!(once[0].key(), "talk");
    }

    #[test]
    fn fold_triple_occurrence() {
        let folded = fold_duplicates(&["a".into(), "b".into(), "a".into(), "a".into()]);
        assert_eq!(folded.len(), 2);
        assert_eq!(
            folded[0],
            FoldedToken {
                word: "a".into(),
                count: 3
            }
        );
        assert_eq!(
            folded[1],
            FoldedToken {
                word: "b".into(),
                count: 1
            }
        );
    }

    #[test]
    fn fold_is_order_insensitive() {
        let a = fold_duplicates(&["x".into(), "y".into(), "x".into()]);
        let b = fold_duplicates(&["y".into(), "x".into(), "x".into()]);
        assert_eq!(a, b);
    }
}
