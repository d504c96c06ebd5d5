//! Property tests: the tokenizer must be total and closed over its vocab.

use proptest::prelude::*;
use tabbin_tokenizer::{basic_split, Piece, RawToken, SpecialToken, Tokenizer};

fn trained() -> Tokenizer {
    Tokenizer::train(
        vec![
            "overall survival progression free months years cancer tumor",
            "hazard ratio confidence interval cohort patients treatment",
        ],
        1000,
        1,
    )
}

/// The splitter as it was written over a `Vec<char>`, one `String` per word:
/// the oracle for the byte-range splitter.
fn split_by_chars(text: &str) -> Vec<RawToken> {
    let mut out = Vec::new();
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
        } else if c == '%' {
            out.push(RawToken::Word("%".to_string()));
            i += 1;
        } else if c.is_ascii_digit()
            || (c == '-' && i + 1 < chars.len() && chars[i + 1].is_ascii_digit())
        {
            let start = i;
            i += 1;
            while i < chars.len() && chars[i].is_ascii_digit() {
                i += 1;
            }
            if i + 1 < chars.len() && chars[i] == '.' && chars[i + 1].is_ascii_digit() {
                i += 1;
                while i < chars.len() && chars[i].is_ascii_digit() {
                    i += 1;
                }
            }
            let lit: String = chars[start..i].iter().collect();
            match lit.parse::<f64>() {
                Ok(v) => out.push(RawToken::Number(v)),
                Err(_) => out.push(RawToken::Word(lit.to_lowercase())),
            }
        } else if c.is_alphanumeric() {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '\'') {
                i += 1;
            }
            out.push(RawToken::Word(chars[start..i].iter().collect::<String>().to_lowercase()));
        } else {
            i += 1;
        }
    }
    out
}

/// WordPiece as it was written, building a `String` per candidate: the
/// oracle for the in-place prober.
fn encode_by_strings(t: &Tokenizer, text: &str) -> Vec<Piece> {
    let mut out = Vec::new();
    for tok in split_by_chars(text) {
        let word = match tok {
            RawToken::Number(v) => {
                out.push(Piece::Value(v));
                continue;
            }
            RawToken::Word(w) => w,
        };
        if let Some(id) = t.vocab().id_of(&word) {
            out.push(Piece::Word(id));
            continue;
        }
        let chars: Vec<char> = word.chars().collect();
        let (mut start, mut pieces) = (0, Vec::new());
        while start < chars.len() {
            let found = (start + 1..=chars.len()).rev().find_map(|end| {
                let body: String = chars[start..end].iter().collect();
                let candidate = if start == 0 { body } else { format!("##{body}") };
                Some((end, t.vocab().id_of(&candidate)?))
            });
            match found {
                Some((end, id)) => {
                    pieces.push(Piece::Word(id));
                    start = end;
                }
                None => {
                    pieces = vec![Piece::Word(SpecialToken::Unk.id())];
                    break;
                }
            }
        }
        out.append(&mut pieces);
    }
    out
}

proptest! {
    #[test]
    fn byte_range_split_equals_char_split(text in ".{0,120}", glue in "[A-Za-z0-9%.' -]{0,40}") {
        // Arbitrary text, and text dense in the characters the rules name.
        for t in [text.clone(), glue.clone(), format!("{glue}{text}{glue}")] {
            prop_assert_eq!(basic_split(&t), split_by_chars(&t));
        }
    }

    #[test]
    fn in_place_wordpiece_equals_string_wordpiece(
        text in ".{0,60}",
        words in proptest::collection::vec("[a-zA-Z']{1,14}", 0..8),
        limit in 0..12usize,
    ) {
        let t = trained();
        for s in [text.clone(), words.join(" "), format!("{} {text}", words.join("-"))] {
            let want = encode_by_strings(&t, &s);
            prop_assert_eq!(t.encode(&s), want.clone());
            // A limit cuts at a word boundary, never mid-word, never short.
            let mut some = Vec::new();
            t.encode_into(&s, limit, &mut some);
            prop_assert!(some.len() >= limit.min(want.len()));
            prop_assert_eq!(some.as_slice(), &want[..some.len()]);
        }
    }

    #[test]
    fn encode_never_panics_and_ids_are_in_vocab(text in ".{0,120}") {
        let t = trained();
        for piece in t.encode(&text) {
            let id = piece.vocab_id();
            prop_assert!(t.vocab().token_of(id).is_some(), "id {} out of vocab", id);
        }
    }

    #[test]
    fn encode_is_idempotent_on_ascii(words in proptest::collection::vec("[a-z]{1,12}", 0..8)) {
        let t = trained();
        let text = words.join(" ");
        prop_assert_eq!(t.encode(&text), t.encode(&text));
    }

    #[test]
    fn numbers_always_become_values(v in -1e6f64..1e6f64) {
        let t = trained();
        let text = format!("{v:.3}");
        let enc = t.encode(&text);
        prop_assert!(!enc.is_empty());
        let total: usize = enc.iter().filter(|p| matches!(p, Piece::Value(_))).count();
        prop_assert!(total >= 1, "no Value piece for {}", text);
    }

    #[test]
    fn basic_split_preserves_word_count_on_simple_text(
        words in proptest::collection::vec("[a-z]{1,10}", 1..10)
    ) {
        let text = words.join(" ");
        let toks = basic_split(&text);
        prop_assert_eq!(toks.len(), words.len());
        for (tok, w) in toks.iter().zip(&words) {
            prop_assert_eq!(tok, &RawToken::Word(w.clone()));
        }
    }

    #[test]
    fn split_never_emits_empty_words(text in ".{0,200}") {
        for tok in basic_split(&text) {
            if let RawToken::Word(w) = tok {
                prop_assert!(!w.is_empty());
            }
        }
    }
}
