//! Minimal `--key value` CLI parsing for the experiment binaries (keeps
//! the dependency set to the approved list — no clap).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// Parsed `--key value` arguments. A binary reads its flags, then calls
/// [`Args::finish`] before it does any work, so a flag it never asked
/// for — a typo, another binary's flag — fails instead of leaving a
/// silently applied default.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    read: RefCell<BTreeSet<String>>,
}

impl Args {
    /// Parse the process arguments. `--flag value` pairs only; a trailing
    /// flag without a value is treated as `"true"`.
    ///
    /// # Panics
    ///
    /// Panics on arguments that do not start with `--` (fail fast with a
    /// readable message rather than silently ignoring typos).
    #[must_use]
    pub fn from_env() -> Self {
        Self::parse_args(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (testable).
    ///
    /// # Panics
    ///
    /// See [`Args::from_env`].
    pub fn parse_args(args: impl IntoIterator<Item = String>) -> Self {
        let mut values = BTreeMap::new();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let key = arg
                .strip_prefix("--")
                .unwrap_or_else(|| panic!("unexpected argument '{arg}' (expected --key value)"))
                .to_string();
            let value = match iter.peek() {
                Some(v) if !v.starts_with("--") => iter.next().expect("peeked"),
                _ => "true".to_string(),
            };
            values.insert(key, value);
        }
        Self {
            values,
            read: RefCell::default(),
        }
    }

    /// String value of a flag.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.read.borrow_mut().insert(key.to_string());
        self.values.get(key).map(String::as_str)
    }

    /// Parse a flag as `T`, falling back to `default`.
    ///
    /// # Panics
    ///
    /// Panics when the flag is present but unparsable.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T
    where
        T::Err: std::fmt::Debug,
    {
        match self.get(key) {
            Some(v) => v.parse().unwrap_or_else(|e| panic!("--{key} {v}: {e:?}")),
            None => default,
        }
    }

    /// Is a boolean flag set?
    #[must_use]
    pub fn flag(&self, key: &str) -> bool {
        self.get(key) == Some("true")
    }

    /// Every flag `bin` reads has been read: whatever is left is a flag
    /// it does not know.
    ///
    /// # Panics
    ///
    /// Panics naming the leftover flags and `bin`.
    pub fn finish(self, bin: &str) {
        let read = self.read.into_inner();
        let unknown: Vec<String> = self
            .values
            .keys()
            .filter(|k| !read.contains(*k))
            .map(|k| format!("--{k}"))
            .collect();
        let s = if unknown.len() == 1 { "" } else { "s" };
        assert!(
            unknown.is_empty(),
            "unknown flag{s} {} for `{bin}`",
            unknown.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_pairs_and_flags() {
        let a = parse("--tables 300 --seed 7 --verbose");
        assert_eq!(a.get_or("tables", 0usize), 300);
        assert_eq!(a.get_or("seed", 0u64), 7);
        assert!(a.flag("verbose"));
        assert!(!a.flag("quiet"));
        assert_eq!(a.get_or("missing", 42i32), 42);
        a.finish("demo");
    }

    #[test]
    #[should_panic(expected = "unknown flags --sketch-size, --sketch-szes for `fig4_rmse`")]
    fn finish_names_the_flags_the_bin_never_read() {
        let a = parse("--sketch-size 64 --seed 3 --sketch-szes 64");
        assert_eq!(a.get("sketch-sizes"), None);
        assert_eq!(a.get_or("seed", 0u64), 3);
        a.finish("fig4_rmse");
    }

    #[test]
    #[should_panic(expected = "unexpected argument")]
    fn rejects_positional_arguments() {
        let _ = parse("positional");
    }

    #[test]
    #[should_panic(expected = "--tables")]
    fn rejects_unparsable_values() {
        let a = parse("--tables lots");
        let _ = a.get_or("tables", 0usize);
    }
}
