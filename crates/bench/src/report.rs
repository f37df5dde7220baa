//! The one report writer: every `BENCH_<name>.json` a campaign or figure
//! leaves behind is built from [`Json`] values and written by [`write`].
//!
//! Every file opens with the same [`Stamp`] — CPU model, `nproc`, git
//! revision and dirty flag, scale, seed and, where the record's headline
//! is a timing, its N with median and spread — so a number can be traced
//! to the host and commit that produced it. Files land in `target/repro/`
//! of the checkout `repro` was built from (git-ignored, created on
//! demand): a run never touches a tracked file. The `BENCH_*.json` at the
//! repository root are records, copied from there when re-recording.

use crate::setup::{nproc, Scale};
use std::path::PathBuf;
use std::process::Command;

/// The checkout `repro` was built from.
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// A JSON value. Objects keep insertion order, so a record reads in the
/// order it was built.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i128),
    /// Written to four decimals; a non-finite value is written `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

macro_rules! json_from {
    ($($t:ty => $variant:ident as $as:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::$variant(v as $as)
            }
        }
    )*};
}
json_from!(u64 => Int as i128, usize => Int as i128, f64 => Num as f64, bool => Bool as bool);

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// An object of the named fields of a struct, each under its own name.
macro_rules! fields {
    ($s:expr => $($f:ident),+) => {
        $crate::report::Json::obj()$(.with(stringify!($f), $s.$f))+
    };
}
pub(crate) use fields;

impl Json {
    /// An empty object, to be filled by [`with`](Json::with).
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends one field to an object.
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("with() on a non-object: {other:?}"),
        }
        self
    }

    /// An object with one field per `(name, value)` item.
    pub fn keyed<K: ToString>(items: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(items.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// An array of the items.
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Indented text. A container that holds only scalars stays on one
    /// line, so a row of numbers reads (and diffs) as a row.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(&b.to_string()),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => {
                let fixed = format!("{x:.4}");
                out.push_str(fixed.trim_end_matches('0').trim_end_matches('.'));
            }
            Json::Str(s) => render_str(s, out),
            Json::Arr(items) => {
                let items = items.iter().map(|v| (None, v));
                render_seq(out, depth, ['[', ']'], items);
            }
            Json::Obj(fields) => {
                let fields = fields.iter().map(|(k, v)| (Some(k.as_str()), v));
                render_seq(out, depth, ['{', '}'], fields);
            }
        }
    }
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn render_seq<'a>(
    out: &mut String,
    depth: usize,
    [open, close]: [char; 2],
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
) {
    let nested = items
        .clone()
        .any(|(_, v)| matches!(v, Json::Arr(_) | Json::Obj(_)));
    let new_line = |out: &mut String, depth: usize| {
        if nested {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
    };
    out.push(open);
    for (i, (key, value)) in items.enumerate() {
        if i > 0 {
            out.push_str(if nested { "," } else { ", " });
        }
        new_line(out, depth + 1);
        if let Some(key) = key {
            render_str(key, out);
            out.push_str(": ");
        }
        value.render_into(out, depth + 1);
    }
    new_line(out, depth);
    out.push(close);
}

/// The keys every record's `stamp` object carries, in this order.
pub const STAMP_KEYS: [&str; 7] = ["cpu", "nproc", "rev", "dirty", "scale", "seed", "timing"];

/// What every record says about where it came from.
pub struct Stamp {
    scale: &'static str,
    seed: Option<u64>,
    timing: Json,
}

impl Stamp {
    /// The stamp of a run at `scale`; `seed` is `None` for a figure that
    /// draws nothing.
    pub fn new(scale: Scale, seed: Option<u64>) -> Stamp {
        Stamp {
            scale: if scale.is_full() { "full" } else { "quick" },
            seed,
            timing: Json::Null,
        }
    }

    /// Names the record's headline timing and attaches its samples'
    /// count, median, and spread — the distance between the quartiles as
    /// a share of the median, as `benchmark/` defines it.
    pub fn timed(mut self, what: &str, samples: &[f64]) -> Stamp {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let pos = q * (v.len() - 1) as f64;
            let (lo, hi) = (v[pos.floor() as usize], v[pos.ceil() as usize]);
            lo + (hi - lo) * pos.fract()
        };
        self.timing = Json::obj()
            .with("what", what)
            .with("n", v.len())
            .with("median", at(0.5))
            .with("spread", (at(0.75) - at(0.25)) / at(0.5));
        self
    }

    fn json(&self) -> Json {
        let git = |args: &[&str]| {
            let out = Command::new("git").args(["-C", ROOT]).args(args).output();
            out.ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        };
        let cpu = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        });
        let values: [Json; 7] = [
            cpu.as_deref().unwrap_or("unknown").into(),
            nproc().into(),
            git(&["rev-parse", "--short", "HEAD"]).as_deref().into(),
            git(&["status", "--porcelain"])
                .map(|s| !s.is_empty())
                .into(),
            self.scale.into(),
            self.seed.into(),
            self.timing.clone(),
        ];
        Json::keyed(STAMP_KEYS.into_iter().zip(values))
    }
}

/// Where [`write`] puts `BENCH_<name>.json`.
pub fn path(name: &str) -> PathBuf {
    PathBuf::from(format!("{ROOT}/target/repro/BENCH_{name}.json"))
}

/// Writes `target/repro/BENCH_<name>.json` — the stamp, the experiment's
/// name, then the fields of `body` (an object) — and prints where it
/// went. A failure is a warning: the verdict was already printed.
pub fn write(name: &str, stamp: Stamp, body: Json) {
    let Json::Obj(body) = body else {
        panic!("a report body is an object");
    };
    let mut doc = vec![
        ("stamp".to_string(), stamp.json()),
        ("experiment".to_string(), name.into()),
    ];
    doc.extend(body);
    let path = path(name);
    let dir = path.parent().expect("path() has a parent");
    let text = Json::Obj(doc).render();
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => println!("wrote {}", path.canonicalize().unwrap_or(path).display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::process::Stdio;

    /// A strict reader for what [`Json::render`] writes — the structural
    /// check that needs no tool outside the crate.
    struct Reader<'a>(std::iter::Peekable<std::str::Chars<'a>>);

    impl Reader<'_> {
        fn parse(text: &str) -> Json {
            let mut r = Reader(text.chars().peekable());
            let value = r.value();
            assert_eq!(r.peek(), None, "trailing text");
            value
        }

        /// The next character that is not white space, not consumed.
        fn peek(&mut self) -> Option<char> {
            while self.0.next_if(|c| c.is_whitespace()).is_some() {}
            self.0.peek().copied()
        }

        fn value(&mut self) -> Json {
            match self.peek().expect("a value") {
                '{' => Json::Obj(self.seq('}', |r| {
                    let key = r.string();
                    assert_eq!(r.peek(), Some(':'));
                    r.0.next();
                    (key, r.value())
                })),
                '[' => Json::Arr(self.seq(']', Reader::value)),
                '"' => Json::Str(self.string()),
                _ => {
                    let word: String =
                        std::iter::from_fn(|| self.0.next_if(|c| !", \n]}".contains(*c))).collect();
                    match word.as_str() {
                        "null" => Json::Null,
                        "true" => Json::Bool(true),
                        "false" => Json::Bool(false),
                        w if w.contains('.') => Json::Num(w.parse().expect("a float")),
                        w => Json::Int(w.parse().expect("an integer")),
                    }
                }
            }
        }

        fn seq<T>(&mut self, close: char, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
            self.0.next();
            let mut items = Vec::new();
            while self.peek() != Some(close) {
                if !items.is_empty() {
                    assert_eq!(self.0.next(), Some(','));
                }
                items.push(item(self));
            }
            self.0.next();
            items
        }

        fn string(&mut self) -> String {
            assert_eq!(self.peek(), Some('"'));
            self.0.next();
            let mut s = String::new();
            loop {
                match self.0.next().expect("an unterminated string") {
                    '"' => return s,
                    '\\' => match self.0.next().expect("an escape") {
                        'n' => s.push('\n'),
                        'u' => {
                            let hex: String = self.0.by_ref().take(4).collect();
                            let code = u32::from_str_radix(&hex, 16).expect("four hex digits");
                            s.push(char::from_u32(code).expect("a scalar value"));
                        }
                        c => {
                            assert!(c == '"' || c == '\\', "\\{c} is never written");
                            s.push(c);
                        }
                    },
                    c => {
                        assert!(c as u32 >= 0x20, "raw control character in a string");
                        s.push(c);
                    }
                }
            }
        }
    }

    #[test]
    fn a_document_round_trips() {
        let doc = Json::obj()
            .with(
                "text",
                "quote \" backslash \\ newline \n tab \t bell \u{7} é ✓",
            )
            .with("int", u64::MAX)
            .with("float", 1.5)
            .with("rounded", 0.123456)
            .with("whole", 3.0)
            .with("nan", f64::NAN)
            .with("inf", f64::NEG_INFINITY)
            .with("none", None::<u64>)
            .with("flags", Json::arr([true, false]))
            .with("empty", Json::arr(Vec::<Json>::new()))
            .with(
                "nested",
                Json::obj()
                    .with("rows", Json::arr([Json::arr([1u64, 2]), Json::arr([3u64])]))
                    .with("deep", Json::obj().with("deeper", Json::obj())),
            );
        let text = doc.render();
        let (Json::Obj(read), Json::Obj(mut want)) = (Reader::parse(&text), doc) else {
            panic!("not an object:\n{text}");
        };
        // What the writer promises to change: four decimals, whole floats
        // written bare, and `null` for what JSON cannot say.
        want[3].1 = Json::Num(0.1235);
        want[4].1 = Json::Int(3);
        want[5].1 = Json::Null;
        want[6].1 = Json::Null;
        assert_eq!(read, want, "\n{text}");

        // The same text through a reader this crate did not write, where
        // there is one (CI has python3).
        let python = Command::new("python3")
            .args(["-m", "json.tool"])
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .spawn();
        if let Ok(mut child) = python {
            let mut stdin = child.stdin.take().expect("piped stdin");
            stdin.write_all(text.as_bytes()).expect("python3 reads");
            drop(stdin);
            assert!(child.wait().expect("python3 ran").success(), "\n{text}");
        }
    }

    /// `fig8` and the five campaigns, each run for real at the smallest
    /// scale it takes: whatever it writes opens with the stamp.
    #[test]
    fn every_record_opens_with_the_same_stamp() {
        let tiny = Scale {
            tree_files: 60,
            duration_ms: 10,
            batches: 2,
            max_dir: 100,
            max_subtree: 50,
            max_threads: 2,
        };
        let small_fleet = dc_fleet::FleetConfig {
            tenants: 12,
            creds_per_tenant: 2,
            rounds: 2,
            ..dc_fleet::FleetConfig::quick(0x5EED)
        };
        crate::figs::fig8(tiny);
        crate::faults::faults(tiny, 0x5EED);
        crate::serve::serve(tiny, 0x5EED);
        crate::crash::campaign(tiny, 0x5EED, 4);
        crate::fleet::run(tiny, small_fleet);
        for name in ["fig8", "faults", "serve", "crash", "warm", "fleet"] {
            let text = std::fs::read_to_string(path(name)).expect(name);
            let Json::Obj(doc) = Reader::parse(&text) else {
                panic!("{name}: not an object");
            };
            let (key, Json::Obj(stamp)) = &doc[0] else {
                panic!("{name}: opens with {:?}", doc[0]);
            };
            let keys: Vec<&str> = stamp.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                (key.as_str(), keys.as_slice()),
                ("stamp", &STAMP_KEYS[..]),
                "{name}"
            );
            assert_eq!(doc[1], ("experiment".to_string(), name.into()), "{name}");
            assert!(doc.len() > 2, "{name}: no body");
        }
    }
}
