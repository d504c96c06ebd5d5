//! Rule-based shape tagging layered over the gazetteers.
//!
//! Priority mirrors the paper's pipeline: entity hits (gazetteer) win over
//! numeric shapes, which win over the `text` fallback.

use crate::{Gazetteer, SemType};

/// The full tagger: gazetteer + shape rules.
#[derive(Clone, Debug)]
pub struct TypeTagger {
    gaz: Gazetteer,
}

impl Default for TypeTagger {
    fn default() -> Self {
        Self::new()
    }
}

impl TypeTagger {
    /// Tagger with the built-in gazetteer.
    pub fn new() -> Self {
        Self { gaz: Gazetteer::builtin() }
    }

    /// Tagger with a custom gazetteer.
    pub fn with_gazetteer(gaz: Gazetteer) -> Self {
        Self { gaz }
    }

    /// Access to the underlying gazetteer (e.g. to extend it per dataset, as
    /// the paper does with dataset-specific entity lists).
    pub fn gazetteer_mut(&mut self) -> &mut Gazetteer {
        &mut self.gaz
    }

    /// Tags a cell's rendered text with one of the 14 types.
    pub fn tag(&self, text: &str) -> SemType {
        let t = text.trim();
        if t.is_empty() {
            return SemType::Text;
        }
        if let Some(ty) = self.gaz.lookup_in(t) {
            return ty;
        }
        if is_gaussian(t) {
            return SemType::Gaussian;
        }
        if is_range(t) {
            return SemType::Range;
        }
        if let Some(rest) = leading_number(t) {
            // Number followed by a unit word => measurement; bare => numeric.
            let rest = rest.trim();
            if rest.is_empty() {
                return SemType::Numeric;
            }
            if tabbin_table::Unit::parse(rest).is_some() || rest == "%" {
                return SemType::Measurement;
            }
            return SemType::Measurement; // number + any qualifier reads as a measurement
        }
        SemType::Text
    }
}

/// `mean ± std` with optional unit.
fn is_gaussian(t: &str) -> bool {
    let Some((a, b)) = t.split_once('±') else {
        return false;
    };
    parse_front_number(a).is_some() && parse_front_number(b).is_some()
}

/// `lo - hi` (both numeric) with optional unit suffix.
fn is_range(t: &str) -> bool {
    // Try each '-' as the separator (skip a leading sign).
    t.char_indices().skip(1).any(|(i, c)| {
        (c == '-' || c == '–')
            && full_number(t[..i].trim())
            && parse_front_number(&t[i + c.len_utf8()..]).is_some()
    })
}

/// If `t` starts with a number, returns the remainder after it.
fn leading_number(t: &str) -> Option<&str> {
    let mut end = 0;
    let b = t.as_bytes();
    if end < b.len() && (b[end] == b'-' || b[end] == b'+') {
        end += 1;
    }
    let digits_start = end;
    while end < b.len() && b[end].is_ascii_digit() {
        end += 1;
    }
    if end < b.len() && b[end] == b'.' {
        end += 1;
        while end < b.len() && b[end].is_ascii_digit() {
            end += 1;
        }
    }
    if end == digits_start {
        return None;
    }
    t[..end].parse::<f64>().ok()?;
    Some(&t[end..])
}

fn full_number(t: &str) -> bool {
    !t.is_empty() && t.parse::<f64>().is_ok()
}

fn parse_front_number(t: &str) -> Option<f64> {
    let t = t.trim();
    let rest = leading_number(t)?;
    // The remainder may only contain a unit word or '%'.
    let rest = rest.trim();
    if rest.is_empty() || rest == "%" || tabbin_table::Unit::parse(rest).is_some() {
        t[..t.len() - rest.len()].trim().parse::<f64>().ok()
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabbin_corpus::{generate, Dataset, GenOptions};
    use tabbin_table::Table;

    /// `TypeTagger::tag` as it was before the gazetteer lowercased on the
    /// stack and `is_range` walked `char_indices`, kept as their oracle: a
    /// lowercased `String` per lookup, and a `Vec<char>` plus two `String`s
    /// per hyphen.
    fn tag_by_allocating_rules(tagger: &TypeTagger, text: &str) -> SemType {
        let t = text.trim();
        if t.is_empty() {
            return SemType::Text;
        }
        let lower = t.to_ascii_lowercase();
        let trimmed = lower.trim();
        let hit = tagger.gaz.lookup(trimmed).or_else(|| {
            trimmed
                .split_whitespace()
                .find_map(|w| tagger.gaz.lookup(w.trim_matches(|c: char| !c.is_alphanumeric())))
        });
        if let Some(ty) = hit {
            return ty;
        }
        if is_gaussian(t) {
            return SemType::Gaussian;
        }
        let chars: Vec<char> = t.chars().collect();
        for (i, &c) in chars.iter().enumerate().skip(1) {
            if c == '-' || c == '–' {
                let lhs: String = chars[..i].iter().collect();
                let rhs: String = chars[i + 1..].iter().collect();
                if full_number(lhs.trim()) && parse_front_number(&rhs).is_some() {
                    return SemType::Range;
                }
            }
        }
        match leading_number(t) {
            Some(rest) if rest.trim().is_empty() => SemType::Numeric,
            Some(_) => SemType::Measurement,
            None => SemType::Text,
        }
    }

    /// Every string a table hands the tagger: its caption, every metadata
    /// label, and every rendered cell, nested tables included.
    fn tagged_strings(t: &Table, out: &mut Vec<String>) {
        out.push(t.caption.clone());
        for tree in [&t.hmd, &t.vmd] {
            out.extend(tree.all_labels().into_iter().map(|(l, _)| l.to_string()));
        }
        for (_, _, cell) in t.data.iter_indexed() {
            out.push(cell.render());
            if let tabbin_table::CellValue::Nested(inner) = cell {
                tagged_strings(inner, out);
            }
        }
    }

    #[test]
    fn tag_equals_the_allocating_rules_on_every_generated_profile() {
        let mut texts = Vec::new();
        for ds in Dataset::ALL {
            for t in generate(ds, &GenOptions { n_tables: Some(60), seed: 3 }).plain_tables() {
                tagged_strings(&t, &mut texts);
            }
        }
        // Shapes the generators may not produce: signs, en dashes, non-ASCII
        // and strings past the 64-byte stack buffer.
        let long = "Metastatic COLORECTAL Adenocarcinoma Treated With Ramucirumab Weekly";
        for extra in [
            long,
            "-5-3",
            "-5 - -3 kg",
            "1–2 months",
            "1 – 2",
            "É cancer",
            "ÉCOLE",
            "  42  ",
            "3-",
            "-",
            "–4",
            "x-1",
            "1e5-2e5",
            "2-3-4",
            "0.73±0.11",
            "Ärzte-Ramucirumab",
        ] {
            texts.push(extra.to_string());
            texts.push(format!("{extra} {long} ÄÖÜ {extra}"));
        }
        let tagger = TypeTagger::new();
        let mut counts = [0usize; SemType::COUNT];
        for text in &texts {
            let ty = tagger.tag(text);
            assert_eq!(ty, tag_by_allocating_rules(&tagger, text), "{text:?}");
            counts[ty.index()] += 1;
        }
        // The corpus exercises every shape rule, not only the fallback.
        for ty in [SemType::Gaussian, SemType::Range, SemType::Measurement, SemType::Numeric] {
            assert!(counts[ty.index()] > 0, "no {ty:?} among {} strings", texts.len());
        }
    }

    #[test]
    fn paper_example_colon_is_disease() {
        // "tokens corresponding to the cell 'colon' are typed as disease" —
        // our gazetteer reaches it via "colon cancer"/"cancer" family; plain
        // "colon cancer" must tag as disease.
        let tagger = TypeTagger::new();
        assert_eq!(tagger.tag("colon cancer"), SemType::Disease);
    }

    #[test]
    fn measurement_vs_numeric() {
        let tagger = TypeTagger::new();
        assert_eq!(tagger.tag("20.3 months"), SemType::Measurement);
        assert_eq!(tagger.tag("42"), SemType::Numeric);
        assert_eq!(tagger.tag("62 %"), SemType::Measurement);
    }

    #[test]
    fn range_detection() {
        let tagger = TypeTagger::new();
        assert_eq!(tagger.tag("20-30"), SemType::Range);
        assert_eq!(tagger.tag("20-30 year"), SemType::Range);
        assert_eq!(tagger.tag("4.5-5.7 months"), SemType::Range);
        // Words with hyphens are not ranges.
        assert_eq!(tagger.tag("progression-free"), SemType::Text);
    }

    #[test]
    fn gaussian_detection() {
        let tagger = TypeTagger::new();
        assert_eq!(tagger.tag("0.73±0.11"), SemType::Gaussian);
        assert_eq!(tagger.tag("1.5±0.2 months"), SemType::Gaussian);
        assert_eq!(tagger.tag("±3"), SemType::Text);
    }

    #[test]
    fn gazetteer_beats_shape() {
        let tagger = TypeTagger::new();
        // "ramucirumab 20" contains a drug term; entity wins.
        assert_eq!(tagger.tag("ramucirumab"), SemType::Drug);
    }

    #[test]
    fn fallback_is_text() {
        let tagger = TypeTagger::new();
        assert_eq!(tagger.tag("lorem ipsum dolor"), SemType::Text);
        assert_eq!(tagger.tag(""), SemType::Text);
    }

    #[test]
    fn custom_gazetteer_extension() {
        let mut tagger = TypeTagger::new();
        tagger.gazetteer_mut().extend(SemType::Vaccine, &["zeta-vax"]);
        assert_eq!(tagger.tag("zeta-vax"), SemType::Vaccine);
    }
}
