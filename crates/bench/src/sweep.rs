//! The one report path of the sweep binaries (`eventloop`, `cluster`,
//! `batch`, `faults`, `coord`): command-line flags, the `BENCH_*.json`
//! document, and the claim gate.
//!
//! * [`Flags`] parses `--smoke | --quick | --out PATH` plus the extras a
//!   binary declares. An unknown flag, a flag without its value, or
//!   `--smoke` with `--quick` prints usage on stderr and exits 2 before
//!   any work is done.
//! * [`Report`] writes the document: two-space-indented objects, one
//!   line per [`Row`], a float precision chosen per field.
//! * [`Report::invariant`] and [`Report::claim`] write a flag at its
//!   place in the document and gate on it, so the flag that is written
//!   and the flag that is gated cannot differ. [`Report::finish`] writes
//!   the file and exits 1 if a gated flag is false; [`Report::verdict`]
//!   gates a check that writes no file.

use hpl_sim::json;

/// How long a sweep runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavour {
    /// Seconds-long CI run: every code path, too short for comparisons.
    Smoke,
    /// A short sweep.
    Quick,
    /// The recorded sweep.
    Full,
}

impl Flavour {
    /// The value for this flavour.
    pub fn pick<T>(self, smoke: T, quick: T, full: T) -> T {
        match self {
            Flavour::Smoke => smoke,
            Flavour::Quick => quick,
            Flavour::Full => full,
        }
    }

    /// The name written to the document's `flavour` field.
    pub fn name(self) -> &'static str {
        self.pick("smoke", "quick", "full")
    }
}

/// Parsed command line of a sweep binary.
#[derive(Debug, Clone, PartialEq)]
pub struct Flags {
    bench: &'static str,
    flavour: Flavour,
    /// Output path; `BENCH_<bench>.json` by default.
    out: String,
    /// Every flag given, with its value if it takes one.
    given: Vec<(String, Option<String>)>,
}

impl Flags {
    /// Parse the process arguments for `bench`. `extras` names the
    /// flags beyond the common set, with the value's name after a space
    /// when the flag takes one (`"--trace FILE"`). On a bad command line
    /// prints the error and usage on stderr and exits 2.
    pub fn parse(bench: &'static str, extras: &[&str]) -> Flags {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Flags::try_parse(bench, extras, &args).unwrap_or_else(|e| {
            let extras: String = extras.iter().map(|e| format!(" [{e}]")).collect();
            eprintln!("{bench}: {e}\nusage: {bench} [--smoke | --quick] [--out PATH]{extras}");
            std::process::exit(2)
        })
    }

    /// [`Flags::parse`] over explicit arguments, returning the error.
    pub fn try_parse(
        bench: &'static str,
        extras: &[&str],
        args: &[String],
    ) -> Result<Flags, String> {
        let mut given = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let spec = (["--smoke", "--quick", "--out PATH"].iter().chain(extras))
                .find(|s| s.split(' ').next() == Some(arg))
                .ok_or(format!("unknown flag `{arg}`"))?;
            let value = if spec.contains(' ') {
                let v = args.next().filter(|v| !v.starts_with("--"));
                Some(v.ok_or(format!("`{arg}` needs a value"))?.clone())
            } else {
                None
            };
            given.push((arg.clone(), value));
        }
        let mut flags = Flags {
            bench,
            flavour: Flavour::Full,
            out: format!("BENCH_{bench}.json"),
            given,
        };
        flags.flavour = match (flags.has("--smoke"), flags.has("--quick")) {
            (true, true) => return Err("`--smoke` and `--quick` exclude each other".into()),
            (true, false) => Flavour::Smoke,
            (false, true) => Flavour::Quick,
            (false, false) => Flavour::Full,
        };
        if let Some(out) = flags.value("--out") {
            flags.out = out.to_string();
        }
        Ok(flags)
    }

    /// Sweep length.
    pub fn flavour(&self) -> Flavour {
        self.flavour
    }

    /// Whether the flag `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| n == name)
    }

    /// The value of the flag `name`, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.given.iter().find(|(n, _)| n == name)?.1.as_deref()
    }
}

/// A field value: a string (escaped), an integer, a boolean, a float
/// as `(value, decimals)`, a float array as `([values], decimals)`, or
/// a one-line object ([`Row`]; `None` writes `null`).
pub trait ToJson {
    /// The JSON text; a multi-line value is laid out as if it started
    /// at column 0.
    fn to_json(&self) -> String;
}

macro_rules! display_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> String {
                self.to_string()
            }
        }
    )*};
}
display_json!(bool, u32, u64, usize);

impl ToJson for &str {
    fn to_json(&self) -> String {
        json::quote(self)
    }
}

impl ToJson for (f64, usize) {
    fn to_json(&self) -> String {
        format!("{:.*}", self.1, self.0)
    }
}

impl<const N: usize> ToJson for ([f64; N], usize) {
    fn to_json(&self) -> String {
        let items: Vec<String> = self.0.iter().map(|&v| (v, self.1).to_json()).collect();
        format!("[{}]", items.join(", "))
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> String {
        self.as_ref().map_or("null".into(), T::to_json)
    }
}

/// A one-line JSON object; build it with [`row!`](crate::row).
#[derive(Default)]
pub struct Row(Vec<String>);

impl Row {
    /// Append `key: v`.
    pub fn put(mut self, key: &str, v: impl ToJson) -> Row {
        self.0
            .push(format!("{}: {}", json::quote(key), v.to_json()));
        self
    }

    /// Append `key` with nested rows, one per line below this row's line.
    pub fn rows(self, key: &str, rows: impl IntoIterator<Item = Row>) -> Row {
        self.put(key, rows_json(rows, 2))
    }
}

impl ToJson for Row {
    fn to_json(&self) -> String {
        format!("{{{}}}", self.0.join(", "))
    }
}

/// Already-rendered JSON text.
struct Raw(String);

impl ToJson for Raw {
    fn to_json(&self) -> String {
        self.0.clone()
    }
}

/// Shift every line after the first `n` columns right.
fn indent(text: &str, n: usize) -> String {
    text.replace('\n', &format!("\n{:n$}", ""))
}

/// `rows` one per line, `nest` columns right of the line that opens
/// the array.
fn rows_json(rows: impl IntoIterator<Item = Row>, nest: usize) -> Raw {
    let rows: Vec<String> = rows
        .into_iter()
        .map(|r| format!("\n{}", r.to_json()))
        .collect();
    Raw(format!("[{}\n]", indent(&rows.join(","), nest)))
}

/// A one-line JSON object: `row!["name" => s.name, "wall_s" => (s.wall_s, 6)]`,
/// each value [`ToJson`](crate::sweep::ToJson).
#[macro_export]
macro_rules! row {
    ($($key:literal => $v:expr),* $(,)?) => {
        $crate::sweep::Row::default()$(.put($key, $v))*
    };
}

/// A `BENCH_<bench>.json` document under construction, plus the claim
/// flags it gates on.
pub struct Report {
    text: String,
    /// Keys of the open nested objects (their depth sets the indent).
    path: Vec<&'static str>,
    smoke: bool,
    out: String,
    /// Every flag written, as `name value`.
    flags: Vec<String>,
    /// The gated flags that are false.
    failed: Vec<String>,
}

impl Report {
    /// Start the document with its `bench` and `flavour` fields.
    pub fn new(flags: &Flags) -> Report {
        let mut r = Report {
            text: "{\n".into(),
            path: Vec::new(),
            smoke: flags.flavour == Flavour::Smoke,
            out: flags.out.clone(),
            flags: Vec::new(),
            failed: Vec::new(),
        };
        r.put("bench", flags.bench)
            .put("flavour", flags.flavour.name());
        r
    }

    fn indent(&self) -> usize {
        2 * (self.path.len() + 1)
    }

    fn field(&mut self, key: &str, value: &str) -> &mut Report {
        if !self.text.ends_with("{\n") {
            self.text += ",\n";
        }
        let (pad, key) = (self.indent(), json::quote(key));
        self.text += &format!("{:pad$}{key}: {value}", "");
        self
    }

    /// Write `key: v`.
    pub fn put(&mut self, key: &str, v: impl ToJson) -> &mut Report {
        let value = indent(&v.to_json(), self.indent());
        self.field(key, &value)
    }

    /// Write the flag `key` and fail the run at every flavour if it is
    /// false: replay, audit, occupancy and lost-job invariants, which
    /// hold at any size.
    pub fn invariant(&mut self, key: &str, ok: bool) -> &mut Report {
        self.flag(key, ok, true)
    }

    /// Write the flag `key` and fail the run if it is false, except
    /// under `--smoke`: comparative claims that need the full workload.
    pub fn claim(&mut self, key: &str, ok: bool) -> &mut Report {
        self.flag(key, ok, !self.smoke)
    }

    fn flag(&mut self, key: &str, ok: bool, gated: bool) -> &mut Report {
        let name = [&self.path[..], &[key]].concat().join(".");
        if gated && !ok {
            self.failed.push(name.clone());
        }
        self.flags.push(format!("{name} {ok}"));
        self.put(key, ok)
    }

    /// Open a nested multi-line object under `key`; close it with
    /// [`Report::end`].
    pub fn begin(&mut self, key: &'static str) -> &mut Report {
        self.field(key, "{\n").path.push(key);
        self
    }

    /// Close the innermost nested object.
    pub fn end(&mut self) -> &mut Report {
        self.path.pop().expect("end without begin");
        self.text += &format!("\n{:1$}}}", "", self.indent());
        self
    }

    /// An array of rows under `key`, one per line.
    pub fn rows(&mut self, key: &str, rows: impl IntoIterator<Item = Row>) -> &mut Report {
        self.put(key, rows_json(rows, 2))
    }

    /// [`Report::rows`] with the rows at the key's own indent (the
    /// layout of `swf.cells` in `BENCH_batch.json`).
    pub fn rows_flush(&mut self, key: &str, rows: impl IntoIterator<Item = Row>) -> &mut Report {
        self.put(key, rows_json(rows, 0))
    }

    /// The finished document.
    fn document(&self) -> String {
        assert!(self.path.is_empty(), "unclosed object {:?}", self.path);
        format!("{}\n}}\n", self.text)
    }

    /// Write the document to the output path, then [`Report::verdict`].
    pub fn finish(self) {
        let out = &self.out;
        std::fs::write(out, self.document()).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
        eprintln!("wrote {out}");
        self.verdict();
    }

    /// Print the flags and exit 1 if any gated flag is false. Alone,
    /// for a check that writes no document.
    pub fn verdict(&self) {
        eprintln!("{}", self.flags.join(" | "));
        if !self.failed.is_empty() {
            eprintln!("FAIL: {} false", self.failed.join(", "));
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Flags, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Flags::try_parse("demo", &["--swf-smoke", "--trace FILE"], &args)
    }

    #[test]
    fn defaults_are_full_flavour_and_the_bench_file() {
        let f = parse(&[]).unwrap();
        assert_eq!(f.flavour, Flavour::Full);
        assert_eq!(f.out, "BENCH_demo.json");
        assert!(!f.has("--swf-smoke"));
        assert_eq!(f.value("--trace"), None);
    }

    #[test]
    fn flavours_out_and_extras_parse() {
        let f = parse(&["--smoke", "--out", "x.json"]).unwrap();
        assert_eq!((f.flavour, f.out.as_str()), (Flavour::Smoke, "x.json"));
        let f = parse(&["--quick", "--swf-smoke", "--trace", "a b.swf"]).unwrap();
        assert_eq!(f.flavour, Flavour::Quick);
        assert!(f.has("--swf-smoke"));
        assert_eq!(f.value("--trace"), Some("a b.swf"));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert!(parse(&["--smok"]).unwrap_err().contains("--smok"));
        assert!(parse(&["extra"]).is_err());
        // An extra of another binary is unknown here.
        assert!(parse(&["--dfrs-smoke"]).is_err());
    }

    #[test]
    fn a_missing_value_is_rejected() {
        assert!(parse(&["--smoke", "--out"]).is_err());
        assert!(parse(&["--out", "--smoke"]).is_err());
        assert!(parse(&["--trace"]).is_err());
    }

    #[test]
    fn smoke_and_quick_exclude_each_other() {
        assert!(parse(&["--smoke", "--quick"]).is_err());
        assert!(parse(&["--quick", "--smoke"]).is_err());
    }

    fn report(flavour: &str) -> Report {
        Report::new(&parse(&[flavour]).unwrap())
    }

    #[test]
    fn invariants_gate_smoke_runs_and_claims_do_not() {
        let mut r = report("--smoke");
        r.invariant("replay_ok", false);
        r.claim("skew_ok", false);
        r.begin("swf").invariant("occupancy_ok", true).end();
        assert_eq!(r.failed, ["replay_ok"]);

        let mut r = report("--smoke");
        r.claim("skew_ok", false);
        assert!(r.failed.is_empty());

        let mut r = report("--quick");
        r.claim("skew_ok", false)
            .begin("swf")
            .invariant("deterministic", false)
            .end();
        assert_eq!(r.failed, ["skew_ok", "swf.deterministic"]);
    }

    #[test]
    fn document_layout_and_escaping() {
        let mut r = report("--quick");
        r.invariant("ok", true).put("x", (1.0 / 3.0, 4));
        r.begin("swf")
            .put("source", "q\"b\\c\u{1}")
            .rows_flush("cells", [row!["n" => 1u32], row!["n" => 2u32]])
            .end();
        let points = [row!["wall_s" => ([1.5, 2.25], 3)]];
        r.rows("curves", [row!["mode" => "cfs"].rows("points", points)]);
        r.put("replay", Some(row!["bit_exact" => true]))
            .put("headline", None::<Row>);
        let expected = r#"{
  "bench": "demo",
  "flavour": "quick",
  "ok": true,
  "x": 0.3333,
  "swf": {
    "source": "q\"b\\c\u0001",
    "cells": [
    {"n": 1},
    {"n": 2}
    ]
  },
  "curves": [
    {"mode": "cfs", "points": [
      {"wall_s": [1.500, 2.250]}
    ]}
  ],
  "replay": {"bit_exact": true},
  "headline": null
}
"#;
        assert_eq!(r.document(), expected);
    }
}
