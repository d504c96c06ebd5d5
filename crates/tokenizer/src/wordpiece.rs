//! Greedy longest-match WordPiece encoding.

use crate::split::{lowercased, spans, Span};
use crate::vocab::{SpecialToken, Vocab};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One encoded piece of a cell.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Piece {
    /// A vocabulary word/sub-word id.
    Word(u32),
    /// A numeric literal, surfaced as `[VAL]` with the raw value retained for
    /// the numeric-feature embedding.
    Value(f64),
}

impl Piece {
    /// The vocabulary id this piece contributes to the token sequence.
    pub fn vocab_id(&self) -> u32 {
        match self {
            Piece::Word(id) => *id,
            Piece::Value(_) => SpecialToken::Val.id(),
        }
    }

    /// The numeric payload, if any.
    pub fn value(&self) -> Option<f64> {
        match self {
            Piece::Word(_) => None,
            Piece::Value(v) => Some(*v),
        }
    }
}

/// A trained tokenizer: vocabulary + WordPiece segmentation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Tokenizer {
    vocab: Vocab,
}

impl Tokenizer {
    /// Wraps an existing vocabulary.
    pub fn new(vocab: Vocab) -> Self {
        Self { vocab }
    }

    /// Trains a vocabulary over an iterator of texts.
    pub fn train<'a>(
        texts: impl IntoIterator<Item = &'a str>,
        max_words: usize,
        min_count: u64,
    ) -> Self {
        let mut counts: HashMap<String, u64> = HashMap::new();
        for text in texts {
            for span in spans(text) {
                if let Span::Word(w) = span {
                    *counts.entry(lowercased(w).into_owned()).or_insert(0) += 1;
                }
            }
        }
        Self { vocab: Vocab::build(&counts, max_words, min_count) }
    }

    /// The underlying vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Vocabulary size (convenience for sizing embedding tables).
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// Encodes free text into pieces. Never panics; unknown characters fall
    /// back to `[UNK]`.
    pub fn encode(&self, text: &str) -> Vec<Piece> {
        let mut out = Vec::new();
        self.encode_into(text, usize::MAX, &mut out);
        out
    }

    /// [`Tokenizer::encode`] appending to `out`, stopping at the first word
    /// boundary at or past `limit` appended pieces: a caller that keeps only
    /// the first few pieces of a long text does not pay for the rest.
    pub fn encode_into(&self, text: &str, limit: usize, out: &mut Vec<Piece>) {
        let stop = out.len().saturating_add(limit);
        for span in spans(text) {
            if out.len() >= stop {
                return;
            }
            match span {
                Span::Number(v) => out.push(Piece::Value(v)),
                Span::Word(w) => self.encode_word(&lowercased(w), out),
            }
        }
    }

    /// WordPiece for one pre-split word: greedy longest match, `##`-prefixed
    /// continuations, `[UNK]` fallback for unseen characters.
    fn encode_word(&self, word: &str, out: &mut Vec<Piece>) {
        if let Some(id) = self.vocab.id_of(word) {
            out.push(Piece::Word(id));
            return;
        }
        let mark = out.len();
        // Continuation candidates are prefixes of `##` + the unmatched rest,
        // written once per piece instead of once per candidate.
        let mut cont = String::new();
        let mut start = 0;
        while start < word.len() {
            let rest = &word[start..];
            let (key, skip) = if start == 0 {
                (rest, 0)
            } else {
                cont.clear();
                cont.push_str("##");
                cont.push_str(rest);
                (cont.as_str(), 2)
            };
            let matched = rest
                .char_indices()
                .rev()
                .map(|(at, c)| at + c.len_utf8())
                .find_map(|end| Some((end, self.vocab.id_of(&key[..skip + end])?)));
            match matched {
                Some((end, id)) => {
                    out.push(Piece::Word(id));
                    start += end;
                }
                None => {
                    // Unseen character: the whole word degrades to [UNK], as
                    // in BERT's WordPiece.
                    out.truncate(mark);
                    out.push(Piece::Word(SpecialToken::Unk.id()));
                    return;
                }
            }
        }
    }

    /// Decodes ids back to surface forms (lossy for `[VAL]`).
    pub fn decode(&self, ids: &[u32]) -> Vec<&str> {
        ids.iter().map(|&id| self.vocab.token_of(id).unwrap_or("[UNK]")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Tokenizer {
        Tokenizer::train(
            vec![
                "overall survival months cancer cancer cancer",
                "overall survival rate cancer treatment",
                "hazard ratio confidence interval",
            ],
            1000,
            1,
        )
    }

    #[test]
    fn known_words_become_single_pieces() {
        let t = toy();
        let enc = t.encode("overall survival");
        assert_eq!(enc.len(), 2);
        for p in enc {
            assert!(matches!(p, Piece::Word(id) if id > 5), "expected non-special word id");
        }
    }

    #[test]
    fn numbers_become_values() {
        let t = toy();
        let enc = t.encode("20.3 months");
        assert_eq!(enc[0], Piece::Value(20.3));
        assert_eq!(enc[0].vocab_id(), SpecialToken::Val.id());
        assert!(matches!(enc[1], Piece::Word(_)));
    }

    #[test]
    fn unknown_words_decompose_into_characters() {
        let t = toy();
        let enc = t.encode("zardoz"); // unseen word; all characters appear in the corpus
        assert!(!enc.is_empty());
        // Every piece must be a known id (character fallback), never panic.
        for p in &enc {
            assert!(t.vocab().token_of(p.vocab_id()).is_some());
        }
        // And at least the first piece is the bare character 'z'.
        assert_eq!(t.vocab().token_of(enc[0].vocab_id()), Some("z"));
    }

    #[test]
    fn unseen_characters_fall_back_to_unk() {
        let t = toy();
        let enc = t.encode("日本語");
        assert_eq!(enc, vec![Piece::Word(SpecialToken::Unk.id())]);
    }

    #[test]
    fn longest_match_prefers_whole_subwords() {
        // "cancertreatment" should split as cancer + ##t... pieces, with the
        // first piece being the whole known word "cancer".
        let t = toy();
        let enc = t.encode("cancertreatment");
        assert_eq!(t.vocab().token_of(enc[0].vocab_id()), Some("cancer"));
        assert!(enc.len() >= 2);
        let second = t.vocab().token_of(enc[1].vocab_id()).unwrap();
        assert!(second.starts_with("##"), "continuation must be ##-prefixed, got {second}");
    }

    #[test]
    fn encode_is_deterministic() {
        let t = toy();
        assert_eq!(t.encode("overall survival 5 years"), t.encode("overall survival 5 years"));
    }

    #[test]
    fn decode_roundtrips_known_words() {
        let t = toy();
        let enc = t.encode("hazard ratio");
        let ids: Vec<u32> = enc.iter().map(Piece::vocab_id).collect();
        assert_eq!(t.decode(&ids), vec!["hazard", "ratio"]);
    }
}
