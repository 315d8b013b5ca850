//! Command-line flags declared once: a table of [`Flag`] rows and one
//! loop ([`parse`]) that gives every row both spellings (`--x V` and
//! `--x=V`), its environment fallback through the row's own parser, its
//! paragraph in `--help`, and `unknown argument` for everything else.
//! `knl run` ([`crate::runconf`]) and the `trace`, `report` and `mc` tools
//! each declare a table of this type.

/// What a flag takes. The string says which values are accepted; it is
/// the flag's operand in `--help` and the "expects" of its error message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arg {
    /// Nothing. `set` receives the spelling that matched, so one row can
    /// hold the alternatives of one setting (`--quick|--paper`).
    Switch,
    /// One value, `--flag V` or `--flag=V`.
    Value(&'static str),
    /// `--flag=V`, or bare `--flag` meaning `--flag=on` (it never consumes
    /// the next argument).
    OptValue(&'static str),
}

/// One flag of a command line that fills a `C`.
pub struct Flag<C> {
    /// Every spelling (`--jobs`, `-j`); the first one names the row.
    pub names: &'static [&'static str],
    /// Environment variable read when the flag is absent; its value goes
    /// through the same `set`, so a bad one is an error, not a default.
    pub env: Option<&'static str>,
    pub arg: Arg,
    /// `--help` text; `\n` separates lines.
    pub help: &'static str,
    /// Parse the value into the configuration; `None` when it is not one
    /// the flag accepts.
    pub set: fn(&mut C, &str) -> Option<()>,
}

/// Why parsing stopped short of a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stop {
    /// `-h` / `--help` was given.
    Help,
    /// A bad flag, value or environment variable; the message names it.
    Bad(String),
}

/// What the argument list held besides flag values.
#[derive(Debug, Default)]
pub struct Parsed {
    /// Arguments that are not flags, in order: one per operand.
    pub positional: Vec<String>,
    /// First name of every row given on the argument list (not through
    /// `env`).
    pub seen: Vec<&'static str>,
}

/// Fill `conf` from `env` (rows that name a variable), then from `args`,
/// which override it. `operands` names the positional arguments the
/// command takes (`["TRACE"]`, or none); exactly that many must be given.
pub fn parse<C>(
    table: &[Flag<C>],
    conf: &mut C,
    args: impl IntoIterator<Item = String>,
    env: impl Fn(&str) -> Option<String>,
    operands: &[&str],
) -> Result<Parsed, Stop> {
    let apply = |f: &Flag<C>, conf: &mut C, source: &str, v: &str| {
        let what = match f.arg {
            Arg::Switch => "no value",
            Arg::Value(what) | Arg::OptValue(what) => what,
        };
        (f.set)(conf, v).ok_or_else(|| Stop::Bad(format!("{source}: expects {what}, got {v:?}")))
    };
    for f in table {
        if let Some((var, v)) = f.env.and_then(|var| Some((var, env(var)?))) {
            apply(f, conf, var, &v)?;
        }
    }
    let mut parsed = Parsed::default();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if a == "-h" || a == "--help" {
            return Err(Stop::Help);
        }
        if !a.starts_with('-') {
            parsed.positional.push(a);
            continue;
        }
        let (spelling, inline) = match a.split_once('=') {
            Some((s, v)) => (s, Some(v)),
            None => (a.as_str(), None),
        };
        let f = table
            .iter()
            .find(|f| f.names.contains(&spelling))
            .ok_or_else(|| Stop::Bad(format!("unknown argument: {a}")))?;
        let value = match (f.arg, inline) {
            (Arg::Switch, None) => spelling.to_string(),
            (Arg::Switch, Some(_)) => {
                return Err(Stop::Bad(format!("{spelling} takes no value")));
            }
            (Arg::OptValue(_), None) => "on".to_string(),
            (Arg::Value(_), None) => args
                .next()
                .ok_or_else(|| Stop::Bad(format!("{spelling} requires a value")))?,
            (_, Some(v)) => v.to_string(),
        };
        apply(f, conf, spelling, &value)?;
        parsed.seen.push(f.names[0]);
    }
    if let Some(extra) = parsed.positional.get(operands.len()) {
        return Err(Stop::Bad(format!("unknown argument: {extra}")));
    }
    if let Some(missing) = operands.get(parsed.positional.len()) {
        return Err(Stop::Bad(format!("missing {missing} argument")));
    }
    Ok(parsed)
}

/// The `--help` text: `usage`, then one paragraph per row of `table`.
pub fn help<C>(usage: &str, table: &[Flag<C>]) -> String {
    let mut out = format!("{usage}\n\nflags:\n");
    for f in table {
        let value = match f.arg {
            Arg::Switch => String::new(),
            Arg::Value(what) => format!(" {what}"),
            Arg::OptValue(what) => format!("[={what}]"),
        };
        let env = f.env.map_or(String::new(), |var| format!("   (env {var})"));
        out.push_str(&format!("  {}{value}{env}\n", f.names.join("|")));
        for line in f.help.lines() {
            out.push_str(&format!("      {line}\n"));
        }
    }
    out.push_str("  -h|--help\n      this text\n");
    out
}

/// Unwrap a parse result the way every `knl` subcommand does: `--help`
/// prints the generated text on stdout and exits 0, a bad argument prints
/// its message on stderr and exits 2.
pub fn or_exit<T, C>(result: Result<T, Stop>, usage: &str, table: &[Flag<C>]) -> T {
    match result {
        Ok(v) => v,
        Err(Stop::Help) => {
            print!("{}", help(usage, table));
            std::process::exit(0);
        }
        Err(Stop::Bad(msg)) => {
            eprintln!("{msg} (--help lists the flags)");
            std::process::exit(2);
        }
    }
}
