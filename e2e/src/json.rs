//! A hand-formatted JSON writer — the benchmark adds no dependency.

/// A JSON value; objects keep insertion order.
#[derive(Clone, Debug)]
pub enum Json {
    Bool(bool),
    U64(u64),
    /// Must be finite: JSON has no NaN or infinity.
    F64(f64),
    Str(String),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(fields: Vec<(K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Compact, single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => out.push_str(&n.to_string()),
            Json::F64(x) => {
                assert!(x.is_finite(), "JSON cannot carry {x}");
                // `{}` prints the shortest digits that read back as the
                // same f64: every digit measured, none invented.
                out.push_str(&format!("{x}"));
            }
            Json::Str(s) => write_str(s, out),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        let j = Json::str("a\"b\\c\nd\te\u{1}f µs");
        assert_eq!(j.render(), "\"a\\\"b\\\\c\\nd\\te\\u0001f µs\"");
    }

    #[test]
    fn renders_nested_values_in_insertion_order() {
        let j = Json::obj(vec![
            ("correct", Json::Bool(true)),
            ("attempted", Json::U64(3)),
            ("metrics", Json::obj(vec![("x", Json::obj(vec![("value", Json::F64(1.25))]))])),
            ("unit", Json::str("ms")),
        ]);
        assert_eq!(
            j.render(),
            "{\"correct\": true, \"attempted\": 3, \"metrics\": {\"x\": {\"value\": 1.25}}, \
             \"unit\": \"ms\"}"
        );
    }

    #[test]
    fn floats_keep_every_digit() {
        assert_eq!(Json::F64(0.1 + 0.2).render(), "0.30000000000000004");
        assert_eq!(Json::F64(3.0).render(), "3");
    }

    #[test]
    #[should_panic(expected = "JSON cannot carry")]
    fn refuses_nan() {
        Json::F64(f64::NAN).render();
    }
}
