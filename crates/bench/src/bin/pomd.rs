//! `pomd` — the POM compile daemon.
//!
//! A long-running compile service over a Unix domain socket: requests
//! name a built-in kernel (or a `conv<ci>x<co>x<size>` DNN layer), the
//! daemon runs the full two-stage DSE, and repeated or concurrent
//! duplicates are answered from the shared cache / coalesced into one
//! compile (batch admission). With `--store` the cache persists across
//! daemon restarts and is shared with `pomc --store` processes;
//! `--store-max-bytes` sweeps the store down to a byte budget (oldest
//! artifacts first) when the daemon opens it, so `pomd stats` reports
//! post-GC per-kind disk usage.
//!
//! ```text
//! pomd serve --socket PATH [--store DIR] [--store-max-bytes BYTES]
//! pomd stats --socket PATH
//! pomd shutdown --socket PATH
//! ```
//!
//! Wire protocol and semantics: see `pom_bench::serve`.

use pom_bench::cli::{self, FlagSpec, Kind};
use pom_bench::serve;
use pom_dse::{CompileOptions, DseConfig};
use std::path::PathBuf;
use std::sync::Arc;

/// `--socket` (required by every command) first, then what only `serve`
/// takes.
const FLAGS: &[FlagSpec] = &[
    FlagSpec::new("--socket", "PATH", Kind::Text),
    FlagSpec::new("--store", "DIR", Kind::Text),
    FlagSpec::new("--store-max-bytes", "BYTES", Kind::Int),
];

fn usage_error(why: &str) -> ! {
    eprintln!(
        "{why}\n{}\n       pomd stats --socket PATH\n       pomd shutdown --socket PATH",
        cli::usage_line("usage: pomd serve --socket PATH", &FLAGS[1..])
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(verb) = args.first().map(String::as_str) else {
        usage_error("expected a command");
    };
    let flags = cli::parse(&args[1..], FLAGS).unwrap_or_else(|why| usage_error(&why));
    let Some(socket) = flags.text("--socket").map(PathBuf::from) else {
        usage_error("--socket is required");
    };
    let store = flags.text("--store").map(PathBuf::from);
    let store_max_bytes = flags.int("--store-max-bytes").map(|b| b as u64);
    match verb {
        "serve" => {
            let cfg = DseConfig {
                store_max_bytes,
                ..DseConfig::default()
            };
            let engine = Arc::new(serve::ServeEngine::new(
                CompileOptions::default(),
                cfg,
                store.as_deref(),
            ));
            eprintln!("pomd: serving on {}", socket.display());
            if let Err(e) = serve::run_server(engine, &socket) {
                eprintln!("pomd: server error: {e}");
                std::process::exit(1);
            }
        }
        "stats" | "shutdown" => {
            if store.is_some() || store_max_bytes.is_some() {
                usage_error("--store/--store-max-bytes only apply to serve");
            }
            match serve::client_request(&socket, verb) {
                Ok(Ok(payload)) => print!("{payload}"),
                Ok(Err(msg)) => {
                    eprintln!("pomd: {msg}");
                    std::process::exit(1);
                }
                Err(e) => {
                    eprintln!("pomd: cannot reach daemon at {}: {e}", socket.display());
                    std::process::exit(1);
                }
            }
        }
        other => usage_error(&format!("unknown command {other}")),
    }
}
