//! The one command-line parser shared by `fbb` and the experiment binaries.
//!
//! [`Args`] is consume-and-finish: a command reads each of its flags once
//! with a typed getter, then calls [`Args::finish`], which rejects every
//! token no getter read. The reads are the declaration; there is no flag
//! table. A flag absent from the command line reads as `None` (or `false`)
//! and the caller picks the default. A flag that is present but malformed
//! is always an error, never a silent fallback:
//!
//! * an unknown flag or stray token (left over at [`Args::finish`]);
//! * a value flag with no value, or whose next token starts with `--`;
//! * a flag given more than once;
//! * a value that does not parse as the requested type.

use std::fmt;
use std::str::FromStr;
use std::time::Duration;

/// A command-line error; the message names the offending flag or token.
#[derive(Debug, PartialEq, Eq)]
pub struct ArgError(String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Command-line tokens; a getter consumes the tokens it reads.
pub struct Args {
    tokens: Vec<Option<String>>,
}

impl Args {
    /// Wraps the tokens after the program (and subcommand) name.
    pub fn new(tokens: impl IntoIterator<Item = String>) -> Args {
        Args { tokens: tokens.into_iter().map(Some).collect() }
    }

    /// Reads the process arguments with `read` and finishes them. On any
    /// error, prints it and exits 1 before the caller does any work.
    pub fn parse_env<T>(read: impl FnOnce(&mut Args) -> Result<T, ArgError>) -> T {
        let mut args = Args::new(std::env::args().skip(1));
        match read(&mut args).and_then(|parsed| args.finish().map(|()| parsed)) {
            Ok(parsed) => parsed,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1)
            }
        }
    }

    /// Consumes the flag `name`; returns the index just after it, or `None`
    /// when the flag is absent.
    fn take(&mut self, name: &str) -> Result<Option<usize>, ArgError> {
        let mut hits = (0..self.tokens.len()).filter(|&i| self.tokens[i].as_deref() == Some(name));
        let Some(at) = hits.next() else {
            return Ok(None);
        };
        if hits.next().is_some() {
            return Err(ArgError(format!("{name} given more than once")));
        }
        self.tokens[at] = None;
        Ok(Some(at + 1))
    }

    /// Whether the bare flag `name` is present.
    pub fn flag(&mut self, name: &str) -> Result<bool, ArgError> {
        Ok(self.take(name)?.is_some())
    }

    /// The value token following `name`, unparsed.
    fn raw(&mut self, name: &str) -> Result<Option<String>, ArgError> {
        let Some(at) = self.take(name)? else {
            return Ok(None);
        };
        match self.tokens.get_mut(at).and_then(Option::take) {
            Some(value) if !value.starts_with("--") => Ok(Some(value)),
            _ => Err(ArgError(format!("missing value for {name}"))),
        }
    }

    /// The value of `name VALUE`, parsed as `T`.
    pub fn value<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, ArgError>
    where
        T::Err: fmt::Display,
    {
        self.raw(name)?.map(|v| parse(name, &v)).transpose()
    }

    /// The comma-separated items of `name A,B,…`, each parsed as `T`.
    pub fn list<T: FromStr>(&mut self, name: &str) -> Result<Option<Vec<T>>, ArgError>
    where
        T::Err: fmt::Display,
    {
        self.raw(name)?
            .map(|v| v.split(',').map(|item| parse(name, item.trim())).collect())
            .transpose()
    }

    /// The value of `name SECS` as a duration: finite and non-negative.
    pub fn seconds(&mut self, name: &str) -> Result<Option<Duration>, ArgError> {
        self.value::<f64>(name)?
            .map(|secs| {
                Duration::try_from_secs_f64(secs)
                    .map_err(|e| ArgError(format!("invalid value \"{secs}\" for {name}: {e}")))
            })
            .transpose()
    }

    /// Rejects every token no getter has read.
    pub fn finish(self) -> Result<(), ArgError> {
        match self.tokens.into_iter().flatten().next() {
            None => Ok(()),
            Some(t) if t.starts_with('-') => Err(ArgError(format!("unknown flag {t}"))),
            Some(t) => Err(ArgError(format!("unexpected argument {t:?}"))),
        }
    }
}

fn parse<T: FromStr>(name: &str, value: &str) -> Result<T, ArgError>
where
    T::Err: fmt::Display,
{
    value.parse().map_err(|e| ArgError(format!("invalid value {value:?} for {name}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::new(tokens.iter().map(|t| t.to_string()))
    }

    #[test]
    fn reads_values_flags_and_lists() {
        let mut a = args(&["--beta", "0.10", "--ilp", "--betas", "0.03, 0.05", "--name", "c1355"]);
        assert_eq!(a.value::<f64>("--beta"), Ok(Some(0.10)));
        assert_eq!(a.flag("--ilp"), Ok(true));
        assert_eq!(a.flag("--layout"), Ok(false));
        assert_eq!(a.list::<f64>("--betas"), Ok(Some(vec![0.03, 0.05])));
        assert_eq!(a.value::<String>("--name"), Ok(Some("c1355".to_owned())));
        assert_eq!(a.value::<usize>("--clusters"), Ok(None));
        assert_eq!(a.finish(), Ok(()));
    }

    #[test]
    fn leftover_tokens_are_rejected_by_name() {
        let mut a = args(&["--betta", "0.10", "--beta", "0.05"]);
        assert_eq!(a.value::<f64>("--beta"), Ok(Some(0.05)));
        let err = a.finish().unwrap_err().to_string();
        assert!(err.contains("--betta"), "{err}");
        let mut a = args(&["--ilp", "5"]);
        assert_eq!(a.flag("--ilp"), Ok(true));
        assert!(a.finish().unwrap_err().to_string().contains("\"5\""));
    }

    #[test]
    fn malformed_values_fail_and_name_the_flag() {
        for (tokens, flag) in [
            (&["--beta", "abc"][..], "--beta"),
            (&["--beta", "0.05", "--beta", "0.10"][..], "--beta"),
            (&["--beta"][..], "--beta"),
            (&["--beta", "--ilp"][..], "--beta"),
        ] {
            let err = args(tokens).value::<f64>("--beta").unwrap_err().to_string();
            assert!(err.contains(flag), "{tokens:?}: {err}");
        }
        let err = args(&["--betas", "0.05,x"]).list::<f64>("--betas").unwrap_err().to_string();
        assert!(err.contains("--betas") && err.contains("\"x\""), "{err}");
        let err = args(&["--n", "0"]).value::<std::num::NonZeroUsize>("--n").unwrap_err();
        assert!(err.to_string().contains("--n"), "{err}");
    }

    #[test]
    fn seconds_must_be_finite_and_non_negative() {
        assert_eq!(args(&["--t", "2.5"]).seconds("--t"), Ok(Some(Duration::from_millis(2500))));
        assert_eq!(args(&["--t", "0"]).seconds("--t"), Ok(Some(Duration::ZERO)));
        for bad in ["-1", "inf", "NaN"] {
            let err = args(&["--t", bad]).seconds("--t").unwrap_err().to_string();
            assert!(err.contains("--t"), "{bad}: {err}");
        }
    }
}
