//! A minimal JSON value, parser and serializer.
//!
//! The workspace builds fully offline (serde is an API shim — see
//! `vendor/README.md`), so it hand-rolls the little JSON it needs: the
//! `sim-serve` HTTP bodies, the telemetry exports and the sanitizer and
//! analyzer reports all go through this one codec. Two properties matter
//! more than generality:
//!
//! * **Determinism** — objects keep insertion order and numbers format
//!   through one code path, so identical results serialize to identical
//!   bytes (the concurrent-dedup contract is checked on response *bodies*).
//! * **Bounded inputs** — the parser enforces a nesting-depth limit; the
//!   HTTP layer enforces the byte limit before a body ever reaches it.

use std::fmt::Write as _;

/// Maximum nesting depth the parser accepts.
const MAX_DEPTH: usize = 32;

/// A JSON value. Object keys keep insertion order (serialization is
/// deterministic; no hashing involved).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object builder preserving field order.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn num(n: f64) -> Json {
        Json::Num(n)
    }

    /// Field lookup on an object; `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Number as a non-negative integer (rejects fractions and negatives).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serialize to a compact string (no whitespace).
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Non-finite floats have no JSON representation; serialize as null.
fn write_num(n: f64, out: &mut String) {
    if n.is_finite() {
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null");
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Why a body failed to parse. The message is safe to echo to clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON: {}", self.0)
    }
}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(ParseError("trailing characters".into()));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(ParseError(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(ParseError("nesting too deep".into()));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(b) => Err(ParseError(format!(
                "unexpected byte 0x{b:02x} at {}",
                self.pos
            ))),
            None => Err(ParseError("unexpected end of input".into())),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(ParseError(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(ParseError(format!("expected ',' or '}}' at {}", self.pos))),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(ParseError(format!("expected ',' or ']' at {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is a &str, so the slice is valid UTF-8 as long
                // as it starts and ends on byte boundaries — it does: '"'
                // and '\\' never occur inside a multi-byte sequence.
                s.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                // Surrogate pair: expect \uXXXX low half.
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(ParseError("invalid surrogate pair".into()));
                                }
                                let v = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(v)
                            } else {
                                char::from_u32(cp)
                            };
                            s.push(c.ok_or_else(|| ParseError("invalid codepoint".into()))?);
                            continue; // hex4 advanced pos already
                        }
                        _ => return Err(ParseError("invalid escape".into())),
                    }
                    self.pos += 1;
                }
                _ => return Err(ParseError("unterminated string".into())),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(ParseError("truncated \\u escape".into()));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| ParseError("invalid \\u escape".into()))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| ParseError("invalid \\u escape".into()))?;
        self.pos = end;
        Ok(v)
    }

    /// Skip a run of ASCII digits; whether there was at least one.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// RFC 8259's grammar, `-? (0 | [1-9][0-9]*) (\.[0-9]+)?
    /// ([eE][+-]?[0-9]+)?`, then a finite `f64`.
    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        let invalid = || ParseError(format!("invalid number at byte {start}"));
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int = self.pos;
        if !self.digits() || (self.bytes[int] == b'0' && self.pos > int + 1) {
            return Err(invalid());
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !self.digits() {
                return Err(invalid());
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.digits() {
                return Err(invalid());
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(invalid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    #[test]
    fn round_trips_basic_documents() {
        let doc = r#"{"a":1,"b":[true,null,"x\ny"],"c":{"d":-2.5e3}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("c").unwrap().get("d").unwrap().as_f64(),
            Some(-2500.0)
        );
        // dump -> parse is stable.
        assert_eq!(parse(&v.dump()).unwrap(), v);
    }

    #[test]
    fn object_order_is_preserved_deterministically() {
        let v = Json::obj([("z", Json::num(1.0)), ("a", Json::num(2.0))]);
        assert_eq!(v.dump(), r#"{"z":1,"a":2}"#);
        assert_eq!(v.dump(), v.clone().dump());
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = parse(r#""tab\tquote\"u\u0041 pair\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("tab\tquote\"uA pair😀"));
        let back = parse(&Json::str("a\"b\\c\nd\u{1}").dump()).unwrap();
        assert_eq!(back.as_str(), Some("a\"b\\c\nd\u{1}"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            r#"{"a"}"#,
            "tru",
            "1.2.3",
            "\"\\q\"",
            "{} x",
            "\"\\ud800\"",
            "nan",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        // Depth limit.
        let deep = "[".repeat(64) + &"]".repeat(64);
        assert!(parse(&deep).is_err());
    }

    /// Numbers follow RFC 8259's grammar, not `f64::from_str`'s.
    #[test]
    fn numbers_follow_the_rfc_8259_grammar() {
        for bad in ["01", "00.5", "1.", "-.5", "1.e5", "-", "1e", "1e+"] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err.0, "invalid number at byte 0", "{bad:?}");
        }
        for (good, n) in [
            ("0", 0.0f64),
            ("-0", -0.0),
            ("0.5", 0.5),
            ("1e5", 1e5),
            ("1E+5", 1e5),
            ("-2.5e-3", -2.5e-3),
        ] {
            let v = parse(good).unwrap_or_else(|e| panic!("{good:?}: {e}"));
            assert_eq!(v.as_f64().map(f64::to_bits), Some(n.to_bits()), "{good:?}");
        }
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        assert_eq!(Json::num(f64::NAN).dump(), "null");
        assert_eq!(Json::num(f64::INFINITY).dump(), "null");
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::num(3.0).as_u64(), Some(3));
        assert_eq!(Json::num(3.5).as_u64(), None);
        assert_eq!(Json::num(-1.0).as_u64(), None);
    }

    /// Fragments a JSON text is made of, so random sequences of them reach
    /// deep into the parser (escapes, surrogates, numbers, nesting).
    const FRAGMENTS: [&str; 32] = [
        "{", "}", "[", "]", "\"", ":", ",", " ", "\n", "\\", "\\u", "\\ud83d", "\\udc00", "00e9",
        "\\n", "\\q", "true", "fals", "null", "-", "0", "17", ".", "5e", "E+", "e-9", "1e999",
        "\"k\":", "\u{1}", "\u{7f}", "é", "😀",
    ];

    /// A random text: fragment soup, or random Unicode scalars.
    fn arb_text() -> impl Strategy<Value = String> {
        (
            proptest::collection::vec(0usize..FRAGMENTS.len(), 0..48),
            proptest::collection::vec(0u32..0x11_0000, 0..48),
            0u8..4,
        )
            .prop_map(|(frags, scalars, mode)| {
                let soup: String = frags.iter().map(|&i| FRAGMENTS[i]).collect();
                let raw: String = scalars.iter().filter_map(|&c| char::from_u32(c)).collect();
                match mode {
                    0 => soup,
                    1 => raw,
                    _ => soup + &raw,
                }
            })
    }

    /// A short string of arbitrary characters, escapes needed or not.
    fn arb_string(rng: &mut TestRng) -> String {
        let n = rng.below(12);
        (0..n)
            .filter_map(|_| match rng.below(4) {
                0 => char::from_u32(rng.below(0x80) as u32),
                1 => Some(['"', '\\', '\n', '\u{0}', '\u{1f}', '/'][rng.below(6) as usize]),
                _ => char::from_u32(rng.below(0x11_0000) as u32),
            })
            .collect()
    }

    /// Random JSON values no deeper than `depth` levels, with finite
    /// numbers of every magnitude and strings of arbitrary characters.
    struct ArbJson {
        depth: usize,
    }

    impl Strategy for ArbJson {
        type Value = Json;
        fn generate(&self, rng: &mut TestRng) -> Json {
            let kinds = if self.depth == 0 { 4 } else { 6 };
            let inner = ArbJson {
                depth: self.depth.saturating_sub(1),
            };
            match rng.below(kinds) {
                0 => Json::Null,
                1 => Json::Bool(rng.below(2) == 1),
                2 => Json::Num(match rng.below(3) {
                    0 => rng.below(1 << 53) as f64 - (1u64 << 52) as f64,
                    1 => rng.unit_f64() * 1e6 - 5e5,
                    _ => Some(f64::from_bits(rng.next_u64()))
                        .filter(|n| n.is_finite())
                        .unwrap_or(f64::MIN_POSITIVE),
                }),
                3 => Json::Str(arb_string(rng)),
                4 => Json::Arr((0..rng.below(5)).map(|_| inner.generate(rng)).collect()),
                _ => Json::Obj(
                    (0..rng.below(5))
                        .map(|_| (arb_string(rng), inner.generate(rng)))
                        .collect(),
                ),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn parse_survives_arbitrary_text(text in arb_text()) {
            let _ = parse(&text);
        }

        #[test]
        fn parse_survives_damaged_documents(
            v in ArbJson { depth: 4 },
            cut in 0usize..4096,
            flips in proptest::collection::vec((0usize..4096, 0u8..=255), 0..3),
        ) {
            let mut bytes = v.dump().into_bytes();
            for (at, b) in flips {
                let at = at % bytes.len();
                bytes[at] = b;
            }
            bytes.truncate(cut % (bytes.len() + 1));
            let _ = parse(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn every_dumped_value_parses_back_equal(v in ArbJson { depth: 4 }) {
            let text = v.dump();
            let back = parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            prop_assert_eq!(&back, &v);
            prop_assert_eq!(back.dump(), text);
        }
    }

    /// The deepest value the parser accepts round-trips; one level more
    /// is rejected, not a stack overflow.
    #[test]
    fn nesting_at_the_depth_limit_round_trips() {
        let mut v = Json::Null;
        for _ in 0..MAX_DEPTH {
            v = Json::Arr(vec![v]);
        }
        assert_eq!(parse(&v.dump()).unwrap(), v);
        assert!(parse(&Json::Arr(vec![v]).dump()).is_err());
    }
}
