//! Chrome `trace_event` JSON export.
//!
//! The output is the "JSON array format" understood by `chrome://tracing`
//! and Perfetto (<https://ui.perfetto.dev>): one process per node, one
//! thread per subsystem, every record an instant event (`"ph": "i"`) with
//! its causal stamps in `args`. The writer is hand-rolled (the workspace
//! takes no serialization dependency), and a deliberately small JSON
//! reader lives alongside it so tests can prove the export round-trips
//! through a real parse.

use std::fmt::Write as _;

use crate::event::TraceRecord;

/// Microseconds per simulated tick in the exported timestamps. Events
/// within one tick are spread a microsecond apart (in merged causal
/// order) so viewers don't stack them on a single instant.
const US_PER_TICK: u64 = 1_000;

/// Appends `s` to `out` escaped as the body of a JSON string literal
/// (without the surrounding quotes). Shared by every hand-rolled JSON
/// writer in the workspace.
pub fn escape(s: &str, out: &mut String) {
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
}

fn push_str_field(out: &mut String, key: &str, val: &str) {
    let _ = write!(out, "\"{key}\":\"");
    escape(val, out);
    out.push('"');
}

/// Render `records` as a Chrome-trace JSON array. The records are sorted
/// into the merged happens-before order first, so timestamps within a
/// tick respect causality.
pub fn export(records: &[TraceRecord]) -> String {
    let ordered = crate::query::merged_order(records);
    let mut out = String::with_capacity(ordered.len() * 160 + 256);
    out.push('[');
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
    };

    // Metadata: name each pid after its node and each tid after its
    // subsystem track.
    let mut named: Vec<(u32, &'static str)> = Vec::new();
    for rec in &ordered {
        let pid = rec.node.0;
        let tid_name = rec.event.subsystem();
        if !named.iter().any(|&(p, t)| p == pid && t == tid_name) {
            if !named.iter().any(|&(p, _)| p == pid) {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                     \"args\":{{\"name\":\"node {pid}\"}}}}"
                );
            }
            let tid = tid_index(tid_name);
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"{tid_name}\"}}}}"
            );
            named.push((pid, tid_name));
        }
    }

    // Events: ts = tick in µs plus a within-tick offset in merged order.
    let mut last_tick = u64::MAX;
    let mut intra = 0u64;
    for rec in &ordered {
        if rec.tick != last_tick {
            last_tick = rec.tick;
            intra = 0;
        } else {
            intra = (intra + 1).min(US_PER_TICK - 1);
        }
        let ts = rec.tick * US_PER_TICK + intra;
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{},\"tid\":{},\"ts\":{ts},\
             \"args\":{{\"lamport\":{},\"tick\":{},",
            rec.event.name(),
            rec.node.0,
            tid_index(rec.event.subsystem()),
            rec.lamport,
            rec.tick,
        );
        push_str_field(&mut out, "detail", &rec.event.to_string());
        out.push_str("}}");
    }
    out.push_str("\n]\n");
    out
}

fn tid_index(subsystem: &str) -> u32 {
    match subsystem {
        "net" => 1,
        "dsm" => 2,
        "gc" => 3,
        "cleaner" => 4,
        "mutator" => 5,
        "fault" => 6,
        _ => 7,
    }
}

// ---------------------------------------------------------------------
// Minimal JSON reader — just enough to prove the export parses.
// ---------------------------------------------------------------------

/// A parsed JSON value (only what the round-trip check needs to inspect).
#[derive(Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64; trace output only emits integers).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The f64 payload of a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The str payload of a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> String {
        format!("JSON parse error at byte {}: {what}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn lit(&mut self, word: &str, val: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(val)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("short \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through unchanged.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected , or ]")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected , or }")),
            }
        }
    }
}

/// Parse a JSON document. Used by tests to prove [`export`] emits valid
/// JSON and by `bench-diff` to read table snapshots; not a
/// general-purpose parser (no duplicate-key or depth checks).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

/// Parse an exported trace and count its non-metadata events, verifying
/// the envelope shape every viewer relies on (`name`/`ph`/`pid`/`ts`).
pub fn validate(text: &str) -> Result<usize, String> {
    let Json::Arr(items) = parse(text)? else {
        return Err("top level must be an array".into());
    };
    let mut events = 0;
    for item in &items {
        let ph = item
            .get("ph")
            .and_then(Json::as_str)
            .ok_or("event missing \"ph\"")?;
        item.get("name")
            .and_then(Json::as_str)
            .ok_or("event missing \"name\"")?;
        item.get("pid")
            .and_then(Json::as_num)
            .ok_or("event missing \"pid\"")?;
        if ph == "M" {
            continue;
        }
        item.get("ts")
            .and_then(Json::as_num)
            .ok_or("event missing \"ts\"")?;
        events += 1;
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AccessMode, TraceEvent, TraceRecord};
    use bmx_common::{NodeId, Oid};

    fn rec(node: u32, tick: u64, lamport: u64, seq: u64) -> TraceRecord {
        TraceRecord {
            node: NodeId(node),
            tick,
            lamport,
            seq,
            event: TraceEvent::AcquireStart {
                oid: Oid(9),
                mode: AccessMode::Write,
            },
        }
    }

    #[test]
    fn export_round_trips_through_a_parse() {
        let records = vec![rec(0, 1, 1, 1), rec(1, 1, 1, 2), rec(0, 2, 2, 3)];
        let json = export(&records);
        let n = validate(&json).expect("export must be valid JSON");
        assert_eq!(n, 3, "every record becomes one instant event");
    }

    #[test]
    fn export_of_nothing_is_an_empty_array() {
        assert_eq!(validate(&export(&[])).unwrap(), 0);
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v = parse(r#"{"a":[1,-2.5,"x\"\nA"],"b":{"c":null,"d":true}}"#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-2.5),
                Json::Str("x\"\nA".into())
            ]))
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Null));
        assert!(parse("[1,2").is_err());
        assert!(parse("[] trailing").is_err());
    }
}
