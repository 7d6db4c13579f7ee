//! A JSON writer for the benchmark's own output: objects of strings,
//! finite numbers and pre-rendered values. Names are `[A-Za-z0-9_.-]`, so
//! only `"` and `\` in free text need escaping.

use std::fmt::Write as _;

pub struct Obj(String);

impl Obj {
    pub fn new() -> Self {
        Obj(String::from("{"))
    }

    fn key(&mut self, k: &str) {
        if self.0.len() > 1 {
            self.0.push_str(", ");
        }
        let _ = write!(self.0, "\"{k}\": ");
    }

    pub fn str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.0.push('"');
        for c in v.chars() {
            match c {
                '"' | '\\' => {
                    self.0.push('\\');
                    self.0.push(c);
                }
                c if c.is_control() => self.0.push(' '),
                c => self.0.push(c),
            }
        }
        self.0.push('"');
    }

    /// A finite number with all its digits (Rust's shortest round-trip
    /// form). Non-finite values are a bug in the caller, checked there.
    pub fn num(&mut self, k: &str, v: f64) {
        self.key(k);
        let _ = write!(self.0, "{v}");
    }

    pub fn int(&mut self, k: &str, v: u64) {
        self.key(k);
        let _ = write!(self.0, "{v}");
    }

    /// An already rendered JSON value (`true`, `null`, a nested object).
    pub fn raw(&mut self, k: &str, v: &str) {
        self.key(k);
        self.0.push_str(v);
    }

    pub fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

/// Reads `"name": {"value": X` back out of a result line this program
/// printed (the repeatability mode compares its own children's output).
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    let at = line.find(&format!("\"{name}\": {{\"value\": "))?;
    let rest = &line[at..];
    let rest = &rest[rest.find("\"value\": ")? + 9..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}
