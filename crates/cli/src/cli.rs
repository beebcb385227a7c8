//! Flag parsing and the CLI error type.

use std::collections::BTreeMap;

/// Anything that can go wrong in a CLI invocation.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line; the string is a usage message.
    Usage(String),
    /// Filesystem failure.
    Io(std::io::Error),
    /// Input data was malformed or columns were missing.
    Data(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Usage(msg) => write!(f, "{msg}"),
            Self::Io(e) => write!(f, "I/O error: {e}"),
            Self::Data(msg) => write!(f, "data error: {msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Parsed `--key value` flags. A command *takes* each flag it reads out
/// of the set and calls [`CliArgs::finish`] before it does any work, so a
/// flag it never asked for — a typo, another command's flag — is a usage
/// error instead of a silently applied default.
#[derive(Debug, Default)]
pub struct CliArgs {
    values: BTreeMap<String, String>,
}

impl CliArgs {
    /// Parse flags; every flag must have a value.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] for positional arguments or dangling flags.
    pub fn parse(argv: &[String]) -> Result<Self, CliError> {
        let mut values = BTreeMap::new();
        let mut iter = argv.iter();
        while let Some(arg) = iter.next() {
            let key = arg.strip_prefix("--").ok_or_else(|| {
                CliError::Usage(format!(
                    "unexpected argument '{arg}' (expected --flag value)"
                ))
            })?;
            let value = iter
                .next()
                .ok_or_else(|| CliError::Usage(format!("flag --{key} is missing a value")))?;
            values.insert(key.to_string(), value.clone());
        }
        Ok(Self { values })
    }

    /// Take a required string flag.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] when absent.
    pub fn required(&mut self, key: &str) -> Result<String, CliError> {
        self.optional(key)
            .ok_or_else(|| CliError::Usage(format!("missing required flag --{key}")))
    }

    /// Take an optional string flag.
    pub fn optional(&mut self, key: &str) -> Option<String> {
        self.values.remove(key)
    }

    /// Take an optional typed flag.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] when present but unparsable.
    pub fn parse_opt<T: std::str::FromStr>(&mut self, key: &str) -> Result<Option<T>, CliError>
    where
        T::Err: std::fmt::Display,
    {
        self.optional(key)
            .map(|v| {
                v.parse()
                    .map_err(|e| CliError::Usage(format!("--{key} {v}: {e}")))
            })
            .transpose()
    }

    /// Take an optional typed flag, with a default.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] when present but unparsable.
    pub fn parse_or<T: std::str::FromStr>(&mut self, key: &str, default: T) -> Result<T, CliError>
    where
        T::Err: std::fmt::Display,
    {
        Ok(self.parse_opt(key)?.unwrap_or(default))
    }

    /// Every flag `command` reads has been taken: whatever is left is a
    /// flag it does not know.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] naming the leftover flags and the command.
    pub fn finish(self, command: &str) -> Result<(), CliError> {
        if self.values.is_empty() {
            return Ok(());
        }
        let unknown: Vec<String> = self.values.keys().map(|k| format!("--{k}")).collect();
        Err(CliError::Usage(format!(
            "unknown flag{} {} for `corrsketch {command}` (`corrsketch help` lists its flags)",
            if unknown.len() == 1 { "" } else { "s" },
            unknown.join(", ")
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_flags() {
        let mut a = CliArgs::parse(&argv("--dir data --sketch-size 128")).unwrap();
        assert_eq!(a.required("dir").unwrap(), "data");
        assert_eq!(a.parse_or("sketch-size", 0usize).unwrap(), 128);
        assert_eq!(a.parse_or("missing", 42usize).unwrap(), 42);
        assert!(a.optional("nope").is_none());
        a.finish("demo").unwrap();
    }

    #[test]
    fn finish_names_the_flags_nobody_took() {
        let mut a = CliArgs::parse(&argv("--k 3 --kk 4 --candidate 5")).unwrap();
        assert_eq!(a.parse_or("k", 10usize).unwrap(), 3);
        let err = a.finish("query").unwrap_err().to_string();
        assert!(err.contains("unknown flags --candidate, --kk for"), "{err}");
        assert!(err.contains("corrsketch query"), "{err}");
    }

    #[test]
    fn rejects_positional_and_dangling() {
        assert!(matches!(
            CliArgs::parse(&argv("positional")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            CliArgs::parse(&argv("--flag")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn missing_required_flag_is_usage_error() {
        let mut a = CliArgs::parse(&argv("--x 1")).unwrap();
        assert!(matches!(a.required("dir"), Err(CliError::Usage(_))));
    }

    #[test]
    fn bad_typed_value_is_usage_error() {
        let mut a = CliArgs::parse(&argv("--k lots")).unwrap();
        assert!(matches!(a.parse_or("k", 1usize), Err(CliError::Usage(_))));
    }
}
