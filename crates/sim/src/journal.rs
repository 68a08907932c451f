//! The JSONL cell-outcome journal for resumable grid runs.
//!
//! One line per *completed* grid cell, appended and flushed as soon as
//! the cell finishes, so a crash loses at most the in-flight cells (whose
//! partial state lives in their epoch checkpoints instead). The chaos
//! campaign, the fleet and the red-team search each bring their own
//! line codec; writing, ordering and loading are shared. The format is a
//! flat JSON object of strings, unsigned integers, and booleans —
//! written and parsed by the tiny codec below, because the workspace
//! deliberately has no serde dependency.
//!
//! Every journaled line is *sealed* with a trailing `crc` field
//! ([`seal_line`]) — an FNV-1a checksum over the rest of the object —
//! and loading verifies it ([`unseal_line`]). A torn append fails to
//! parse; a bit-rotted line that still *looks* like JSON fails its CRC.
//! Either way the one loader, `Grid::open` in [`crate::grid`], ends the
//! trusted prefix there and truncates the journal to its last good
//! line, so corrupted outcomes are recomputed rather than trusted.

use crate::cio::{with_retries, CampaignIo};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use twice_common::snapshot::fnv1a;

/// A flat JSON scalar.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A JSON string.
    Str(String),
    /// A non-negative JSON integer.
    U64(u64),
    /// A JSON boolean.
    Bool(bool),
}

impl JsonValue {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(v) => Some(*v),
            _ => None,
        }
    }
}

/// Escapes `s` for use inside a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders one journal line from ordered key/value pairs.
pub fn emit_line(fields: &[(&str, JsonValue)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&escape(k));
        out.push_str("\":");
        match v {
            JsonValue::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            JsonValue::U64(n) => out.push_str(&n.to_string()),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
    out.push('}');
    out
}

/// Parses one journal line back into a key → value map.
///
/// # Errors
///
/// A human-readable description of the first syntax error.
pub fn parse_line(line: &str) -> Result<BTreeMap<String, JsonValue>, String> {
    let mut p = Parser {
        chars: line.trim().chars().collect(),
        pos: 0,
    };
    let map = p.object()?;
    p.skip_ws();
    if p.pos != p.chars.len() {
        return Err(format!("trailing garbage at column {}", p.pos));
    }
    Ok(map)
}

/// Seals a rendered journal line with a trailing `crc` field: FNV-1a
/// over the line as [`emit_line`] produced it. The result is still one
/// flat JSON object, parseable by [`parse_line`].
///
/// # Panics
///
/// Panics if `line` is not a `{…}` object (a programming error — only
/// [`emit_line`] output is sealed).
pub fn seal_line(line: &str) -> String {
    assert!(
        line.starts_with('{') && line.ends_with('}'),
        "only emit_line output can be sealed"
    );
    let crc = fnv1a(line.as_bytes());
    format!("{},\"crc\":{crc}}}", &line[..line.len() - 1])
}

/// Verifies and strips the `crc` seal of [`seal_line`], returning the
/// inner line. `None` means the line was torn, bit-rotted, or never
/// sealed — the caller must treat it as corrupt, never as data.
pub fn unseal_line(line: &str) -> Option<String> {
    let line = line.trim();
    let at = line.rfind(",\"crc\":")?;
    let crc: u64 = line.strip_suffix('}')?.get(at + 7..)?.parse().ok()?;
    let inner = format!("{}}}", line.get(..at)?);
    (fnv1a(inner.as_bytes()) == crc).then_some(inner)
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<char, String> {
        let c = self.peek().ok_or("unexpected end of line")?;
        self.pos += 1;
        Ok(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        self.skip_ws();
        let got = self.bump()?;
        if got != want {
            return Err(format!(
                "expected '{want}', got '{got}' at column {}",
                self.pos
            ));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<BTreeMap<String, JsonValue>, String> {
        self.expect('{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.pos += 1;
            return Ok(map);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump()? {
                ',' => {}
                '}' => return Ok(map),
                c => return Err(format!("expected ',' or '}}', got '{c}'")),
            }
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek().ok_or("unexpected end of line")? {
            '"' => Ok(JsonValue::Str(self.string()?)),
            't' => self.literal("true", JsonValue::Bool(true)),
            'f' => self.literal("false", JsonValue::Bool(false)),
            c if c.is_ascii_digit() => {
                let mut n = String::new();
                while matches!(self.peek(), Some(d) if d.is_ascii_digit()) {
                    n.push(self.bump()?);
                }
                n.parse::<u64>()
                    .map(JsonValue::U64)
                    .map_err(|e| format!("bad integer {n}: {e}"))
            }
            c => Err(format!("unexpected value start '{c}'")),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        for want in word.chars() {
            let got = self.bump()?;
            if got != want {
                return Err(format!("bad literal: expected {word}"));
            }
        }
        Ok(value)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump()? {
                '"' => return Ok(out),
                '\\' => match self.bump()? {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    'r' => out.push('\r'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.bump()?;
                            code =
                                code * 16 + d.to_digit(16).ok_or(format!("bad \\u digit '{d}'"))?;
                        }
                        out.push(char::from_u32(code).ok_or(format!("bad codepoint {code:#x}"))?);
                    }
                    c => return Err(format!("unsupported escape '\\{c}'")),
                },
                c => out.push(c),
            }
        }
    }
}

/// A mutex-guarded journal writer that restores *grid order* to lines
/// arriving from concurrent workers.
///
/// Every grid cell — salvaged, completed, or failed — must `submit` its
/// index exactly once: completed cells submit their journal line,
/// salvaged and failed cells submit `None`. Lines are held in a pending
/// map and written only as the contiguous prefix of indices completes,
/// so the bytes that reach the file are the same for any worker count:
/// grid order, one line per completed cell. Anything still pending when
/// a campaign halts early is
/// written by [`flush_stragglers`](OrderedJournalWriter::flush_stragglers)
/// — out of grid order, which is fine because journal *loading* is keyed
/// by cell id, not line position.
///
/// Appends go through a [`CampaignIo`] with bounded retries. A line
/// whose append still fails is **dropped, never allowed to stall the
/// prefix**: the writer advances past it and counts it in
/// [`dropped`](OrderedJournalWriter::dropped), and the affected cell
/// simply reruns on the next `--resume`. Losing one line is recoverable;
/// wedging every later cell's line behind it is not.
#[derive(Debug)]
pub struct OrderedJournalWriter {
    io: Arc<dyn CampaignIo>,
    path: PathBuf,
    retries: u32,
    backoff_ms: u64,
    state: Mutex<WriterState>,
}

#[derive(Debug)]
struct WriterState {
    next: usize,
    pending: BTreeMap<usize, Option<String>>,
    dropped: u64,
}

impl OrderedJournalWriter {
    /// A writer appending to `path` through `io`, retrying each failed
    /// append up to `retries` times with `backoff_ms` linear backoff.
    pub fn new(
        io: Arc<dyn CampaignIo>,
        path: PathBuf,
        retries: u32,
        backoff_ms: u64,
    ) -> OrderedJournalWriter {
        OrderedJournalWriter {
            io,
            path,
            retries,
            backoff_ms,
            state: Mutex::new(WriterState {
                next: 0,
                pending: BTreeMap::new(),
                dropped: 0,
            }),
        }
    }

    /// A panicking worker must not wedge every other worker's journal
    /// flush: recover the poisoned guard — the state is a cursor plus a
    /// pending map, both valid at every await-free step.
    fn lock(&self) -> std::sync::MutexGuard<'_, WriterState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn append(&self, st: &mut WriterState, line: &str) {
        let _io_span = twice_obs::span(twice_obs::SpanId::SimJournalIo);
        twice_obs::bump(twice_obs::Ctr::SimJournalAppends);
        let result = with_retries(self.retries, self.backoff_ms, || {
            self.io.append_line(&self.path, line)
        });
        if result.is_err() {
            st.dropped += 1;
        }
    }

    /// Records cell `index`'s contribution (`Some(line)` to journal it,
    /// `None` to skip it) and flushes the contiguous prefix of completed
    /// indices to the file.
    pub fn submit(&self, index: usize, line: Option<String>) {
        let mut st = self.lock();
        st.pending.insert(index, line);
        loop {
            let next = st.next;
            match st.pending.remove(&next) {
                Some(Some(line)) => {
                    self.append(&mut st, &line);
                    st.next += 1;
                }
                Some(None) => st.next += 1,
                None => break,
            }
        }
    }

    /// Writes every still-pending line (in index order) regardless of
    /// gaps. Called when a campaign halts early: cells that finished
    /// while a lower-indexed neighbour was still running must reach the
    /// journal before the process exits, or their work is lost.
    pub fn flush_stragglers(&self) {
        let mut st = self.lock();
        let pending = std::mem::take(&mut st.pending);
        for (index, line) in pending {
            if let Some(line) = line {
                self.append(&mut st, &line);
            }
            st.next = st.next.max(index + 1);
        }
    }

    /// Lines lost to append failures after retries. Each lost line
    /// means one cell reruns on the next `--resume` — degraded, never
    /// wrong.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_scalar_kind() {
        let line = emit_line(&[
            (
                "cell",
                JsonValue::Str("seu 1e-4 \"random\"/hardened".into()),
            ),
            ("bit_flips", JsonValue::U64(0)),
            ("scrubbing", JsonValue::Bool(true)),
            ("retry_exhausted", JsonValue::Bool(false)),
        ]);
        let map = parse_line(&line).expect("parse");
        assert_eq!(
            map["cell"].as_str().unwrap(),
            "seu 1e-4 \"random\"/hardened"
        );
        assert_eq!(map["bit_flips"].as_u64(), Some(0));
        assert_eq!(map["scrubbing"].as_bool(), Some(true));
        assert_eq!(map["retry_exhausted"].as_bool(), Some(false));
    }

    #[test]
    fn escapes_control_characters() {
        let line = emit_line(&[("k", JsonValue::Str("a\nb\t\"c\"\\d\u{1}".into()))]);
        let map = parse_line(&line).expect("parse");
        assert_eq!(map["k"].as_str().unwrap(), "a\nb\t\"c\"\\d\u{1}");
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in ["", "{", "{\"k\":}", "{\"k\":1} extra", "{\"k\":nope}"] {
            assert!(parse_line(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn empty_object_parses() {
        assert!(parse_line("{}").expect("parse").is_empty());
    }

    fn temp_journal(tag: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("twice-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn real_writer(path: &std::path::Path) -> OrderedJournalWriter {
        OrderedJournalWriter::new(Arc::new(crate::cio::RealIo), path.to_path_buf(), 1, 0)
    }

    #[test]
    fn seal_and_unseal_round_trip() {
        let inner = emit_line(&[("cell", JsonValue::Str("x/hardened".into()))]);
        let sealed = seal_line(&inner);
        assert_eq!(unseal_line(&sealed).expect("seal verifies"), inner);
        // The sealed line is still one flat JSON object.
        let map = parse_line(&sealed).expect("parse");
        assert!(map.contains_key("crc"));
    }

    #[test]
    fn unseal_rejects_tears_and_single_bit_rot() {
        let sealed = seal_line(&emit_line(&[
            ("cell", JsonValue::Str("seu 1e-2/unhardened".into())),
            ("digest", JsonValue::U64(0xDEAD_BEEF)),
        ]));
        for n in 0..sealed.len() {
            assert!(unseal_line(&sealed[..n]).is_none(), "tear at {n}");
        }
        let bytes = sealed.as_bytes();
        for i in 0..bytes.len() {
            for bit in [0x01u8, 0x20, 0x80] {
                let mut bad = bytes.to_vec();
                bad[i] ^= bit;
                if let Ok(s) = std::str::from_utf8(&bad) {
                    assert!(
                        unseal_line(s).is_none(),
                        "bit-rot at byte {i} bit {bit:#04x} must fail the CRC"
                    );
                }
            }
        }
        assert!(unseal_line(&emit_line(&[("k", JsonValue::U64(1))])).is_none());
    }

    #[test]
    fn out_of_order_submissions_reach_the_file_in_index_order() {
        let path = temp_journal("order");
        let writer = real_writer(&path);
        // Grid order 0..5, submitted shuffled, with 1 (failed) and 3
        // (salvaged) contributing nothing.
        writer.submit(4, Some("four".into()));
        writer.submit(2, Some("two".into()));
        writer.submit(0, Some("zero".into()));
        writer.submit(3, None);
        writer.submit(1, None);
        assert_eq!(
            std::fs::read_to_string(&path).expect("read"),
            "zero\ntwo\nfour\n"
        );
        assert_eq!(writer.dropped(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn halting_flushes_stragglers_past_the_gap() {
        let path = temp_journal("halt");
        let writer = real_writer(&path);
        writer.submit(0, Some("zero".into()));
        // Index 1 never completes (the campaign halted); 2 and 4 did.
        writer.submit(2, Some("two".into()));
        writer.submit(4, Some("four".into()));
        assert_eq!(std::fs::read_to_string(&path).expect("read"), "zero\n");
        writer.flush_stragglers();
        assert_eq!(
            std::fs::read_to_string(&path).expect("read"),
            "zero\ntwo\nfour\n"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_submissions_serialize_in_grid_order() {
        let path = temp_journal("concurrent");
        let writer = real_writer(&path);
        let lines: Vec<usize> = (0..64).collect();
        crate::parallel::parallel_map(8, &lines, |i, _| {
            writer.submit(i, Some(format!("line {i}")));
        });
        let expect: String = (0..64).map(|i| format!("line {i}\n")).collect();
        assert_eq!(std::fs::read_to_string(&path).expect("read"), expect);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_poisoned_writer_keeps_accepting_lines() {
        let path = temp_journal("poison");
        let writer = real_writer(&path);
        writer.submit(0, Some("before".into()));
        // A worker panics while holding the journal lock; every other
        // worker's flush must survive the poisoned mutex.
        let poisoner = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = writer.state.lock().expect("first lock is clean");
            panic!("worker died mid-flush");
        }));
        assert!(poisoner.is_err(), "the panic must fire");
        writer.submit(1, Some("after".into()));
        assert_eq!(
            std::fs::read_to_string(&path).expect("read"),
            "before\nafter\n"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failed_appends_drop_the_line_instead_of_stalling_the_prefix() {
        use twice_common::fault::{FaultKind, FaultPlan};
        let path = temp_journal("drop");
        // Every append fails with ENOSPC, forever.
        let io = Arc::new(crate::cio::FaultyIo::new(
            FaultPlan::with_seed(9).rate(FaultKind::StorageEnospc, 1.0),
        ));
        let writer = OrderedJournalWriter::new(io, path.clone(), 2, 0);
        writer.submit(0, Some("zero".into()));
        writer.submit(1, Some("one".into()));
        writer.submit(2, None);
        assert_eq!(writer.dropped(), 2, "both lines drop; the cursor moves on");
        assert!(!path.exists(), "nothing must reach the file");
        let _ = std::fs::remove_file(&path);
    }
}
