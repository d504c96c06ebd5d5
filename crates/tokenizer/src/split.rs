//! Pre-tokenization: lowercasing, punctuation splitting, number detection.

use std::borrow::Cow;

/// A raw token produced by [`basic_split`].
#[derive(Clone, Debug, PartialEq)]
pub enum RawToken {
    /// An alphabetic (or mixed) word, lowercased.
    Word(String),
    /// A number literal; the surface digits are replaced by `[VAL]`
    /// downstream while the value feeds the numeric-feature embedding.
    Number(f64),
}

/// A token as a byte range of the input: what [`spans`] yields, and what
/// [`basic_split`] turns into owned [`RawToken`]s.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Span<'a> {
    /// A word exactly as written; [`lowercased`] gives its token form.
    Word(&'a str),
    /// A number literal, parsed.
    Number(f64),
}

/// The lowercase form of a word, borrowing it when it already is one — which
/// is the case for nearly every word of a rendered table.
pub(crate) fn lowercased(word: &str) -> Cow<'_, str> {
    if word.bytes().all(|b| b.is_ascii() && !b.is_ascii_uppercase()) {
        Cow::Borrowed(word)
    } else {
        Cow::Owned(word.to_lowercase())
    }
}

/// Splits text into word and number spans, without allocating.
///
/// Rules: Unicode whitespace separates tokens; ASCII punctuation separates
/// tokens except `.` between digits (decimal point) and a leading `-` before
/// a digit (negative number); `%` becomes the word `"%"` (a stats unit cue).
pub(crate) fn spans(text: &str) -> impl Iterator<Item = Span<'_>> {
    let bytes = text.as_bytes();
    let digit_at = |i: usize| bytes.get(i).is_some_and(u8::is_ascii_digit);
    let mut i = 0;
    std::iter::from_fn(move || {
        while i < bytes.len() {
            let start = i;
            let c = text[i..].chars().next().expect("i is a char boundary inside text");
            if c == '%' {
                i += 1;
                return Some(Span::Word(&text[start..i]));
            }
            // Number: optional sign, digits, optional fraction.
            if c.is_ascii_digit() || (c == '-' && digit_at(i + 1)) {
                i += 1;
                while digit_at(i) {
                    i += 1;
                }
                if bytes.get(i) == Some(&b'.') && digit_at(i + 1) {
                    i += 1;
                    while digit_at(i) {
                        i += 1;
                    }
                }
                let lit = &text[start..i];
                return Some(lit.parse().map_or(Span::Word(lit), Span::Number));
            }
            if c.is_alphanumeric() {
                let rest = &text[start..];
                let len =
                    rest.find(|c: char| !(c.is_alphanumeric() || c == '\'')).unwrap_or(rest.len());
                i += len;
                return Some(Span::Word(&rest[..len]));
            }
            // Whitespace, and any other punctuation, separates and is dropped.
            i += c.len_utf8();
        }
        None
    })
}

/// Splits text into words and numbers; words are lowercased. See [`spans`]
/// for the rules.
pub fn basic_split(text: &str) -> Vec<RawToken> {
    spans(text)
        .map(|s| match s {
            Span::Word(w) => RawToken::Word(lowercased(w).into_owned()),
            Span::Number(v) => RawToken::Number(v),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_words_and_numbers() {
        let toks = basic_split("Overall Survival: 20.3 months");
        assert_eq!(
            toks,
            vec![
                RawToken::Word("overall".into()),
                RawToken::Word("survival".into()),
                RawToken::Number(20.3),
                RawToken::Word("months".into()),
            ]
        );
    }

    #[test]
    fn detects_negative_numbers() {
        assert_eq!(basic_split("-3.5"), vec![RawToken::Number(-3.5)]);
        // A bare hyphen between words is a separator.
        assert_eq!(
            basic_split("progression-free"),
            vec![RawToken::Word("progression".into()), RawToken::Word("free".into())]
        );
    }

    #[test]
    fn percent_is_a_token() {
        assert_eq!(basic_split("62%"), vec![RawToken::Number(62.0), RawToken::Word("%".into())]);
    }

    #[test]
    fn ranges_split_into_two_numbers() {
        // "20-30" reads as 20 and -30? No: the '-' follows a digit run, so it
        // terminates the first number; then '-3...' parses as negative. We
        // accept either convention as long as both magnitudes survive.
        let toks = basic_split("20-30");
        let nums: Vec<f64> = toks
            .iter()
            .filter_map(|t| match t {
                RawToken::Number(v) => Some(v.abs()),
                _ => None,
            })
            .collect();
        assert_eq!(nums, vec![20.0, 30.0]);
    }

    #[test]
    fn empty_and_punctuation_only() {
        assert!(basic_split("").is_empty());
        assert!(basic_split("--- ,, !!").is_empty());
    }

    #[test]
    fn lowercases_words() {
        assert_eq!(basic_split("RaMuCiRuMaB"), vec![RawToken::Word("ramucirumab".into())]);
    }

    #[test]
    fn unicode_words_survive() {
        assert_eq!(basic_split("naïve"), vec![RawToken::Word("naïve".into())]);
    }

    #[test]
    fn lowercasing_borrows_what_is_already_lowercase() {
        assert!(matches!(lowercased("colon's"), Cow::Borrowed(_)));
        assert!(matches!(lowercased("os2"), Cow::Borrowed(_)));
        assert_eq!(lowercased("Colon"), "colon");
        // Non-ASCII goes through the full Unicode mapping (final sigma).
        assert_eq!(lowercased("ΟΔΟΣ"), "οδος");
    }
}
