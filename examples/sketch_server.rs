//! Serves a budget-governed [`SketchRegistry`] over TCP.
//!
//! ```text
//! cargo run --release --example sketch_server -- [--addr 127.0.0.1:7878] [--budget-kb 256]
//! ```
//!
//! Then talk to it with any line-oriented client, e.g. netcat:
//!
//! ```text
//! $ nc 127.0.0.1 7878
//! CREATE flows count-min:1024x4
//! OK t0
//! ADD flows 42 3
//! OK
//! QUERY flows 42
//! OK 3
//! STATS
//! OK tenants=1 created=1 ...
//! ```
//!
//! Pass `--budget-kb 0` to serve ungoverned.

use opthash_repro::prelude::*;
use std::time::Duration;

struct Args {
    addr: String,
    budget_kb: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_owned(),
        budget_kb: 256.0,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--budget-kb" => {
                args.budget_kb = value("--budget-kb")?
                    .parse()
                    .map_err(|e| format!("--budget-kb: {e}"))?
            }
            "--help" | "-h" => {
                println!("usage: sketch_server [--addr HOST:PORT] [--budget-kb KB]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };
    let config = if args.budget_kb > 0.0 {
        RegistryConfig::default().budget(SpaceBudget::from_kb(args.budget_kb))
    } else {
        RegistryConfig::default()
    };
    let registry = SketchRegistry::new(config);
    let server = SketchServer::bind(args.addr.as_str(), registry).unwrap_or_else(|err| {
        eprintln!("error: cannot bind {}: {err}", args.addr);
        std::process::exit(1);
    });
    println!("serving sketch registry on {}", server.local_addr());
    if args.budget_kb > 0.0 {
        println!("global memory budget: {} KB", args.budget_kb);
    } else {
        println!("global memory budget: none (ungoverned)");
    }
    println!();
    println!("protocol (one command per line, one OK/ERR response per command):");
    println!("  CREATE <tenant> <spec>   spec: count-min[:WxD] | count-sketch[:WxD] |");
    println!("                                 misra-gries[:N]");
    println!("  ADD <tenant> <id> [<weight>]");
    println!("  QUERY <tenant> <id>");
    println!("  STATS [<tenant>]");
    println!("  DROP <tenant>");
    println!("  PING | QUIT");
    // The accept loop runs on its own thread; park main until killed.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
