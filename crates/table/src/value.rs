//! Cell values: text, numbers with units, ranges, Gaussians, nested tables.

use crate::Table;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// The seven unit families the paper one-hot encodes in the cell-feature
/// vector (`[stats, length, weight, capacity, time, temperature, pressure,
/// nested]` — the eighth bit flags nesting and lives on the cell, not here).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Unit {
    /// Statistical measures: percentage, mean, hazard ratio, CI, …
    Stats,
    /// Lengths: mm, cm, m, km, miles, …
    Length,
    /// Weights: mg, g, kg, lbs, …
    Weight,
    /// Capacity/volume: ml, l, gal, doses, …
    Capacity,
    /// Durations and dates: days, weeks, months, years, …
    Time,
    /// Temperatures: °C, °F, K.
    Temperature,
    /// Pressures: mmHg, kPa, psi, …
    Pressure,
}

impl Unit {
    /// All unit families, in the paper's one-hot order.
    pub const ALL: [Unit; 7] = [
        Unit::Stats,
        Unit::Length,
        Unit::Weight,
        Unit::Capacity,
        Unit::Time,
        Unit::Temperature,
        Unit::Pressure,
    ];

    /// Index of this unit within the paper's 8-bit cell-feature vector.
    pub fn bit(self) -> usize {
        match self {
            Unit::Stats => 0,
            Unit::Length => 1,
            Unit::Weight => 2,
            Unit::Capacity => 3,
            Unit::Time => 4,
            Unit::Temperature => 5,
            Unit::Pressure => 6,
        }
    }

    /// Parses a unit token (e.g. `"months"`, `"%"`, `"kg"`). This mirrors the
    /// lexicon the paper's preprocessing attaches to numeric values.
    pub fn parse(token: &str) -> Option<Unit> {
        let t = token.trim().trim_end_matches('.').to_ascii_lowercase();
        // Family names themselves are accepted so `render` -> `parse`
        // roundtrips (rendered numeric cells carry the family name).
        Some(match t.as_str() {
            "%" | "percent" | "percentage" | "mean" | "median" | "sd" | "ci" | "hr" | "or"
            | "rr" | "ratio" | "stats" => Unit::Stats,
            "mm" | "cm" | "m" | "km" | "in" | "ft" | "mi" | "mile" | "miles" | "meter"
            | "meters" | "length" | "acres" => Unit::Length,
            "mg" | "g" | "kg" | "lb" | "lbs" | "ton" | "tons" | "gram" | "grams" | "mcg" | "µg"
            | "weight" => Unit::Weight,
            "ml" | "l" | "dl" | "gal" | "oz" | "dose" | "doses" | "liter" | "liters"
            | "capacity" => Unit::Capacity,
            "s" | "sec" | "min" | "h" | "hr(s)" | "hour" | "hours" | "day" | "days" | "week"
            | "weeks" | "month" | "months" | "year" | "years" | "yr" | "yrs" | "time" => Unit::Time,
            "c" | "°c" | "f" | "°f" | "k" | "celsius" | "fahrenheit" | "kelvin" | "temperature" => {
                Unit::Temperature
            }
            "mmhg" | "kpa" | "psi" | "atm" | "bar" | "pa" | "pressure" => Unit::Pressure,
            _ => return None,
        })
    }

    /// A human-readable family name.
    pub fn name(self) -> &'static str {
        match self {
            Unit::Stats => "stats",
            Unit::Length => "length",
            Unit::Weight => "weight",
            Unit::Capacity => "capacity",
            Unit::Time => "time",
            Unit::Temperature => "temperature",
            Unit::Pressure => "pressure",
        }
    }
}

/// The four discrete numeric features the paper encodes per number
/// (following TUTA): order of magnitude, decimal precision, first digit and
/// last digit, each clamped to `[0, 10)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NumericFeatures {
    /// Order of magnitude of the integer part (`20.3 -> 2`).
    pub magnitude: u8,
    /// Number of significant decimal digits, counting the integer part
    /// (`20.3 -> 2` per the paper's worked example).
    pub precision: u8,
    /// Leading digit (`20.3 -> 2`).
    pub first_digit: u8,
    /// Trailing digit (`20.3 -> 3`).
    pub last_digit: u8,
}

impl NumericFeatures {
    /// Bucket count per feature (paper: `M = P = F = L = 10`).
    pub const BUCKETS: usize = 10;

    /// Extracts the features from a numeric value: the digits are those of
    /// `|value|` written with up to 6 fractional digits (`{:.6}`), trailing
    /// zeros trimmed. Allocation-free — this runs once per numeric token of
    /// every embedded sequence.
    pub fn of(value: f64) -> Self {
        let v = value.abs();
        let magnitude = if v < 1.0 { 0 } else { (v.log10().floor() as i64).clamp(0, 9) as u8 };
        if v < 1e12 {
            Self::of_micros(magnitude, micros(v))
        } else {
            Self::of_rendered(magnitude, v)
        }
    }

    /// The digit features of `micros / 10⁶`.
    fn of_micros(magnitude: u8, micros: u64) -> Self {
        let leading = |mut n: u64| {
            while n >= 10 {
                n /= 10;
            }
            n as u8
        };
        let (int, mut frac) = (micros / 1_000_000, micros % 1_000_000);
        let first_digit = leading(if int != 0 { int } else { frac });
        let mut frac_digits = if frac == 0 { 0 } else { 6 };
        while frac != 0 && frac.is_multiple_of(10) {
            frac /= 10;
            frac_digits -= 1;
        }
        let last_digit = (if frac != 0 { frac } else { int } % 10) as u8;
        NumericFeatures { magnitude, precision: frac_digits.max(1), first_digit, last_digit }
    }

    /// The digit features read off `{v:.6}` itself: huge values, whose
    /// digits do not fit an integer, and NaN/inf, which have none.
    fn of_rendered(magnitude: u8, v: f64) -> Self {
        // `{:.6}` of an f64 is at most 309 + 1 + 6 bytes.
        let mut buf = StackStr { bytes: [0; 320], len: 0 };
        write!(buf, "{v:.6}").expect("a float rendering fits the buffer");
        let mut s = &buf.bytes[..buf.len];
        while let [rest @ .., b'0'] = s {
            s = rest;
        }
        if let [rest @ .., b'.'] = s {
            s = rest;
        }
        // "NaN" and "inf" have no '.', no digits, and three "integer" bytes.
        let int_len = s.iter().position(|&b| b == b'.').unwrap_or(s.len());
        let digits = || s.iter().filter(|b| b.is_ascii_digit()).map(|b| b - b'0');
        NumericFeatures {
            magnitude,
            precision: digits().count().saturating_sub(int_len).clamp(1, 9) as u8,
            first_digit: digits().find(|&d| d != 0).unwrap_or(0),
            last_digit: digits().next_back().unwrap_or(0),
        }
    }
}

/// `v · 10⁶` rounded half to even, exactly, for `0 ≤ v < 1e12` — the integer
/// whose decimal digits `{v:.6}` prints. `v = m · 2^e` with `e < 0` in that
/// range, so the product is one 128-bit multiply and a rounding shift.
fn micros(v: f64) -> u64 {
    let bits = v.to_bits();
    let (exp, frac) = ((bits >> 52) as i32, bits & ((1 << 52) - 1));
    let (m, e) = if exp == 0 { (frac, -1074) } else { (frac | 1 << 52, exp - 1075) };
    let n = u128::from(m) * 1_000_000;
    let shift = (-e) as u32;
    if shift >= 127 {
        return 0; // n < 2^73, so the quotient is below a half
    }
    let q = (n >> shift) as u64;
    let rem = n & ((1 << shift) - 1);
    let half = 1u128 << (shift - 1);
    q + u64::from(rem > half || (rem == half && q & 1 == 1))
}

/// A fixed-capacity `fmt::Write` sink on the stack.
struct StackStr {
    bytes: [u8; 320],
    len: usize,
}

impl std::fmt::Write for StackStr {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let end = self.len + s.len();
        self.bytes.get_mut(self.len..end).ok_or(std::fmt::Error)?.copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

/// A single cell's content.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum CellValue {
    /// No content.
    Empty,
    /// Free text (possibly several tokens).
    Text(String),
    /// A single number, optionally carrying a unit.
    Number {
        /// The numeric value.
        value: f64,
        /// Optional unit family.
        unit: Option<Unit>,
    },
    /// A numeric interval `lo – hi`, optionally carrying a unit.
    Range {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
        /// Optional unit family.
        unit: Option<Unit>,
    },
    /// A Gaussian summary `mean ± std`, common in medical tables.
    Gaussian {
        /// Mean.
        mean: f64,
        /// Standard deviation.
        std: f64,
        /// Optional unit family.
        unit: Option<Unit>,
    },
    /// A whole table nested inside the cell, with its own metadata.
    Nested(Box<Table>),
}

impl CellValue {
    /// Text cell constructor.
    pub fn text(s: impl Into<String>) -> Self {
        CellValue::Text(s.into())
    }

    /// Number cell constructor.
    pub fn number(value: f64, unit: Option<Unit>) -> Self {
        CellValue::Number { value, unit }
    }

    /// Range cell constructor. Panics if `lo > hi`.
    pub fn range(lo: f64, hi: f64, unit: Option<Unit>) -> Self {
        assert!(lo <= hi, "range lower bound exceeds upper bound");
        CellValue::Range { lo, hi, unit }
    }

    /// Gaussian cell constructor. Panics on negative std.
    pub fn gaussian(mean: f64, std: f64, unit: Option<Unit>) -> Self {
        assert!(std >= 0.0, "negative standard deviation");
        CellValue::Gaussian { mean, std, unit }
    }

    /// Nested-table cell constructor.
    pub fn nested(t: Table) -> Self {
        CellValue::Nested(Box::new(t))
    }

    /// Whether the cell holds (or is dominated by) numeric content.
    pub fn is_numeric(&self) -> bool {
        matches!(
            self,
            CellValue::Number { .. } | CellValue::Range { .. } | CellValue::Gaussian { .. }
        )
    }

    /// Whether the cell holds a nested table.
    pub fn is_nested(&self) -> bool {
        matches!(self, CellValue::Nested(_))
    }

    /// The unit attached to numeric content, if any.
    pub fn unit(&self) -> Option<Unit> {
        match self {
            CellValue::Number { unit, .. }
            | CellValue::Range { unit, .. }
            | CellValue::Gaussian { unit, .. } => *unit,
            _ => None,
        }
    }

    /// The paper's 8-bit cell-feature vector: seven unit bits + nesting bit.
    pub fn feature_bits(&self) -> [bool; 8] {
        let mut bits = [false; 8];
        if let Some(u) = self.unit() {
            bits[u.bit()] = true;
        }
        if self.is_nested() {
            bits[7] = true;
        }
        bits
    }

    /// A flat textual rendering used by tokenizers and baselines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Appends [`CellValue::render`]'s text to `out` — no allocation beyond
    /// growing `out`, so a caller that reuses one buffer renders for free.
    pub fn render_into(&self, out: &mut String) {
        let unit = self.unit();
        match self {
            CellValue::Empty => {}
            CellValue::Text(s) => out.push_str(s),
            CellValue::Number { value, .. } => fmt_num(*value, out),
            CellValue::Range { lo, hi, .. } => {
                fmt_num(*lo, out);
                out.push('-');
                fmt_num(*hi, out);
            }
            CellValue::Gaussian { mean, std, .. } => {
                fmt_num(*mean, out);
                out.push('±');
                fmt_num(*std, out);
            }
            CellValue::Nested(t) => {
                write!(out, "[nested: {}]", t.caption).expect("writing to a String");
            }
        }
        if let Some(u) = unit {
            out.push(' ');
            out.push_str(u.name());
        }
    }
}

/// Appends `v` as an integer when it is one (to 1e-9), else with up to four
/// decimals, trailing zeros and a bare point trimmed.
fn fmt_num(v: f64, out: &mut String) {
    if (v.fract()).abs() < 1e-9 {
        write!(out, "{}", v as i64).expect("writing to a String");
    } else {
        let start = out.len();
        write!(out, "{v:.4}").expect("writing to a String");
        while out.len() > start && out.ends_with('0') {
            out.pop();
        }
        if out.ends_with('.') {
            out.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_numeric_features() {
        // The paper encodes 20.3 as (magnitude, precision, first, last) = (2,2,2,3)
        // with precision counting written digits after normalization; our
        // convention reproduces first/last digits exactly and magnitude = 1
        // (10^1 <= 20.3 < 10^2) mapped to the paper's 1-based convention.
        let f = NumericFeatures::of(20.3);
        assert_eq!(f.first_digit, 2);
        assert_eq!(f.last_digit, 3);
        assert!(f.magnitude >= 1);
    }

    #[test]
    fn numeric_features_of_zero() {
        let f = NumericFeatures::of(0.0);
        assert_eq!(f.magnitude, 0);
        assert_eq!(f.first_digit, 0);
        assert_eq!(f.last_digit, 0);
    }

    #[test]
    fn numeric_features_of_large_values_clamp() {
        let f = NumericFeatures::of(1.5e12);
        assert_eq!(f.magnitude, 9, "magnitude clamps to the last bucket");
    }

    #[test]
    fn unit_parse_families() {
        assert_eq!(Unit::parse("months"), Some(Unit::Time));
        assert_eq!(Unit::parse("%"), Some(Unit::Stats));
        assert_eq!(Unit::parse("KG"), Some(Unit::Weight));
        assert_eq!(Unit::parse("mmHg"), Some(Unit::Pressure));
        assert_eq!(Unit::parse("widgets"), None);
    }

    #[test]
    fn feature_bits_unit_and_nesting() {
        let n = CellValue::number(5.0, Some(Unit::Time));
        let bits = n.feature_bits();
        assert!(bits[Unit::Time.bit()]);
        assert!(!bits[7]);

        let nested = CellValue::nested(crate::Table::builder("inner").build());
        assert!(nested.feature_bits()[7]);
    }

    #[test]
    fn render_formats() {
        assert_eq!(CellValue::number(20.3, Some(Unit::Time)).render(), "20.3 time");
        assert_eq!(CellValue::range(20.0, 30.0, Some(Unit::Time)).render(), "20-30 time");
        assert_eq!(CellValue::gaussian(1.5, 0.25, None).render(), "1.5±0.25");
        assert_eq!(CellValue::Empty.render(), "");
    }

    /// The `format!`-based rendering `render_into` replaced.
    fn render_by_format(c: &CellValue) -> String {
        let num = |v: f64| {
            if (v.fract()).abs() < 1e-9 {
                format!("{}", v as i64)
            } else {
                format!("{v:.4}").trim_end_matches('0').trim_end_matches('.').to_string()
            }
        };
        let body = match c {
            CellValue::Number { value, .. } => num(*value),
            CellValue::Range { lo, hi, .. } => format!("{}-{}", num(*lo), num(*hi)),
            CellValue::Gaussian { mean, std, .. } => format!("{}±{}", num(*mean), num(*std)),
            other => unreachable!("numeric cells only, got {other:?}"),
        };
        match c.unit() {
            Some(u) => format!("{body} {}", u.name()),
            None => body,
        }
    }

    #[test]
    fn render_into_appends_what_format_renders() {
        let values = [
            0.0,
            -0.0,
            1.0,
            -3.0,
            20.3,
            0.5,
            1e-5,
            -1e-5,
            10.00001,
            0.00004,
            0.00005,
            123.456789,
            -987.65,
            1e15,
            -2.5e18,
            1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            7.1e-10,
        ];
        let mut out = String::from("prefix|");
        for (i, &v) in values.iter().enumerate() {
            let unit = [None, Some(Unit::Time), Some(Unit::Stats)][i % 3];
            let w = values[(i + 7) % values.len()];
            let cells = [
                CellValue::Number { value: v, unit },
                CellValue::Range { lo: v, hi: w, unit },
                CellValue::Gaussian { mean: v, std: w, unit },
            ];
            for c in &cells {
                let want = render_by_format(c);
                assert_eq!(c.render(), want, "{c:?}");
                out.truncate("prefix|".len());
                c.render_into(&mut out);
                assert_eq!(out, format!("prefix|{want}"), "{c:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "range lower bound")]
    fn invalid_range_panics() {
        let _ = CellValue::range(5.0, 1.0, None);
    }
}
