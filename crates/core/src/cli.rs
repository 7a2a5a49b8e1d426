//! The flag reader behind the `padsim` and `padsimd` command lines.
//!
//! Each subcommand keeps its own in-order `match` over the arguments, so
//! the last value of a repeated flag wins and the first bad argument is
//! the one reported. [`Flags`] does the parts every loop shares: it
//! answers `-h`/`--help`, reads a flag's value, and parses a typed value,
//! failing through the binary's own `fail` (which prints the binary's
//! error format and exits 2).

use std::str::FromStr;

/// Command-line arguments read in order, one subcommand's worth.
pub struct Flags {
    args: std::vec::IntoIter<String>,
    /// The argument `next` returned last: the flag whose value
    /// [`Flags::value`] and [`Flags::parse`] read.
    flag: String,
    usage: &'static str,
    fail: fn(&str) -> !,
}

impl Flags {
    /// Reads `args`; `usage` answers `--help`, and `fail` reports every
    /// error and must not return.
    pub fn new(
        args: impl IntoIterator<Item = String>,
        usage: &'static str,
        fail: fn(&str) -> !,
    ) -> Self {
        Flags {
            args: args.into_iter().collect::<Vec<_>>().into_iter(),
            flag: String::new(),
            usage,
            fail,
        }
    }

    /// The next argument as it stands, or `fail(missing)` at the end.
    pub fn require(&mut self, missing: &str) -> String {
        self.args.next().unwrap_or_else(|| (self.fail)(missing))
    }

    /// The value of the last flag: `<flag> requires a value` at the end.
    pub fn value(&mut self) -> String {
        match self.args.next() {
            Some(value) => value,
            None => (self.fail)(&format!("{} requires a value", self.flag)),
        }
    }

    /// The value of the last flag as a `T`: `<flag> expects <what>, got
    /// "<text>"` when it does not parse.
    pub fn parse<T: FromStr>(&mut self, what: &str) -> T {
        let text = self.value();
        text.parse()
            .unwrap_or_else(|_| (self.fail)(&format!("{} expects {what}, got {text:?}", self.flag)))
    }
}

/// Yields the arguments in order. `-h` or `--help` prints the usage and
/// exits 0.
impl Iterator for Flags {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        let arg = self.args.next()?;
        if arg == "-h" || arg == "--help" {
            println!("{}", self.usage);
            std::process::exit(0);
        }
        self.flag.clone_from(&arg);
        Some(arg)
    }
}
