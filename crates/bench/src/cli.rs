//! The one command-line flag parser, shared by `pomc` (the compile
//! driver and every audit subcommand) and `pomd`.
//!
//! A command declares its flags as a `&[FlagSpec]`; [`parse`] validates
//! the arguments against it — unknown flag, missing value, unparsable
//! number — before anything runs, and [`usage_line`] renders the same
//! table as the command's usage text, so the two cannot drift.

/// What a flag's value must parse as.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// No value: present or absent.
    Switch,
    /// A non-negative integer.
    Int,
    /// A floating-point number.
    Float,
    /// Any string (a path, a mode name).
    Text,
}

/// One accepted flag.
#[derive(Clone, Copy, Debug)]
pub struct FlagSpec {
    /// The flag as typed, `--size`.
    pub name: &'static str,
    /// The value's placeholder in the usage line (`N`, `PATH`, or an
    /// `a|b|c` choice list); empty for a switch.
    pub metavar: &'static str,
    /// What the value must parse as.
    pub kind: Kind,
}

impl FlagSpec {
    /// A flag taking a value of `kind`.
    pub const fn new(name: &'static str, metavar: &'static str, kind: Kind) -> Self {
        FlagSpec {
            name,
            metavar,
            kind,
        }
    }

    /// A value-less flag.
    pub const fn switch(name: &'static str) -> Self {
        FlagSpec::new(name, "", Kind::Switch)
    }
}

/// The flags one invocation carried, already validated by [`parse`].
#[derive(Clone, Debug)]
pub struct Flags<'a>(Vec<(&'static str, &'a str)>);

impl<'a> Flags<'a> {
    /// The flag's value (the last one, when repeated).
    pub fn text(&self, name: &str) -> Option<&'a str> {
        self.0.iter().rev().find(|(n, _)| *n == name).map(|f| f.1)
    }

    /// True when the flag was given.
    pub fn has(&self, name: &str) -> bool {
        self.text(name).is_some()
    }

    /// The value of a [`Kind::Int`] flag.
    pub fn int(&self, name: &str) -> Option<usize> {
        self.text(name).and_then(|v| v.parse().ok())
    }

    /// The value of a [`Kind::Float`] flag.
    pub fn float(&self, name: &str) -> Option<f64> {
        self.text(name).and_then(|v| v.parse().ok())
    }
}

/// Validates `args` against `specs`. The error is the one-line reason
/// (the caller appends its usage text and exits 2).
pub fn parse<'a>(args: &'a [String], specs: &[FlagSpec]) -> Result<Flags<'a>, String> {
    let mut found = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(spec) = specs.iter().find(|s| s.name == arg) else {
            return Err(format!("unknown flag {arg}"));
        };
        let value = match spec.kind {
            Kind::Switch => "",
            kind => {
                let parses = |v: &&str| match kind {
                    Kind::Int => v.parse::<usize>().is_ok(),
                    Kind::Float => v.parse::<f64>().is_ok(),
                    _ => true,
                };
                let Some(value) = it.next().map(String::as_str).filter(parses) else {
                    let what = match kind {
                        Kind::Int => "a non-negative integer",
                        Kind::Float => "a number",
                        _ => "a value",
                    };
                    return Err(format!("{} {} expects {what}", spec.name, spec.metavar));
                };
                value
            }
        };
        found.push((spec.name, value));
    }
    Ok(Flags(found))
}

/// `<head> [--flag METAVAR] [--switch] ...` — one usage line.
pub fn usage_line(head: &str, specs: &[FlagSpec]) -> String {
    let mut line = head.to_string();
    for s in specs {
        line.push_str(" [");
        line.push_str(s.name);
        if s.kind != Kind::Switch {
            line.push(' ');
            line.push_str(s.metavar);
        }
        line.push(']');
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPECS: &[FlagSpec] = &[
        FlagSpec::new("--size", "N", Kind::Int),
        FlagSpec::new("--ceiling", "SECS", Kind::Float),
        FlagSpec::new("--out", "PATH", Kind::Text),
        FlagSpec::switch("--beam"),
    ];

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_typed_values_and_the_last_repeat_wins() {
        let a = args("--size 8 --beam --out a.json --ceiling 1.5 --size 16");
        let f = parse(&a, SPECS).expect("valid");
        assert_eq!(f.int("--size"), Some(16));
        assert_eq!(f.float("--ceiling"), Some(1.5));
        assert_eq!(f.text("--out"), Some("a.json"));
        assert!(f.has("--beam"));
        let none = parse(&[], SPECS).expect("no flags is valid");
        assert!(!none.has("--beam") && none.int("--size").is_none());
    }

    #[test]
    fn rejects_unknown_missing_and_unparsable() {
        for (bad, why) in [
            ("--nope", "unknown flag --nope"),
            ("--size", "--size N expects a non-negative integer"),
            ("--size -3", "--size N expects a non-negative integer"),
            ("--ceiling soon", "--ceiling SECS expects a number"),
            ("--beam --out", "--out PATH expects a value"),
        ] {
            assert_eq!(parse(&args(bad), SPECS).unwrap_err(), why, "{bad}");
        }
    }

    #[test]
    fn usage_line_lists_every_flag() {
        assert_eq!(
            usage_line("pomc bench-dse", SPECS),
            "pomc bench-dse [--size N] [--ceiling SECS] [--out PATH] [--beam]"
        );
    }
}
