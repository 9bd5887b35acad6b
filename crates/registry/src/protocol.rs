//! The text line protocol spoken by [`SketchServer`](crate::SketchServer).
//!
//! One command per line, fields separated by whitespace; every command gets
//! exactly one response line starting with `OK` or `ERR`:
//!
//! | Command | Response | Meaning |
//! |---|---|---|
//! | `CREATE <tenant> <spec> [sharded:<n>]` | `OK t<id>` | Register a tenant (spec grammar: [`BackendSpec`]); `1 ≤ n ≤` [`MAX_SHARDS`] |
//! | `ADD <tenant> <id> [<weight>]` | `OK` | Ingest `weight` (default 1) arrivals of element `<id>` |
//! | `QUERY <tenant> <id>` | `OK <estimate>` | Estimated frequency of element `<id>` |
//! | `STATS` | `OK k=v ...` | Registry-wide counters |
//! | `STATS <tenant>` | `OK k=v ...` | One tenant's report |
//! | `DROP <tenant>` | `OK t<id>` | Remove a tenant |
//! | `PING` | `OK pong` | Liveness check |
//! | `QUIT` | `OK bye` | Close this connection |
//!
//! Parsing is separated from execution so the same grammar is usable
//! without a socket (tests, replaying command logs).

use crate::registry::{BackendSpec, RegistryError, SketchRegistry};
use opthash_stream::StreamElement;

/// Largest shard count a `CREATE … sharded:<n>` line may ask for. Every
/// shard costs a worker thread and a pre-aggregation buffer (256 KiB at the
/// default batch capacity), so one unbounded line could demand gigabytes
/// and thousands of threads; larger requests are answered `ERR`.
pub const MAX_SHARDS: usize = 64;

/// A parsed line-protocol command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `CREATE <tenant> <spec> [sharded:<n>]`
    Create {
        /// Tenant name.
        tenant: String,
        /// Backend spec.
        spec: BackendSpec,
        /// `Some(n)` when `sharded:<n>` was given.
        shards: Option<usize>,
    },
    /// `ADD <tenant> <id> [<weight>]`
    Add {
        /// Tenant name.
        tenant: String,
        /// Element ID.
        id: u64,
        /// Count weight (1 when omitted).
        weight: u64,
    },
    /// `QUERY <tenant> <id>`
    Query {
        /// Tenant name.
        tenant: String,
        /// Element ID.
        id: u64,
    },
    /// `STATS` (registry-wide) or `STATS <tenant>`.
    Stats {
        /// Tenant name, or `None` for registry-wide counters.
        tenant: Option<String>,
    },
    /// `DROP <tenant>`
    Drop {
        /// Tenant name.
        tenant: String,
    },
    /// `PING`
    Ping,
    /// `QUIT`
    Quit,
}

impl Command {
    /// Parses one protocol line. Keywords are case-insensitive; names and
    /// specs are taken verbatim.
    pub fn parse(line: &str) -> Result<Command, String> {
        let mut fields = line.split_whitespace();
        let Some(verb) = fields.next() else {
            return Err("empty command".to_owned());
        };
        let mut expect_name = |what: &str| {
            fields
                .next()
                .map(str::to_owned)
                .ok_or_else(|| format!("{what} expects a tenant name"))
        };
        match verb.to_ascii_uppercase().as_str() {
            "CREATE" => {
                let tenant = expect_name("CREATE")?;
                let spec_text = fields
                    .next()
                    .ok_or_else(|| "CREATE expects a backend spec".to_owned())?;
                let spec = BackendSpec::parse(spec_text).map_err(|e| e.to_string())?;
                let shards = match fields.next() {
                    None => None,
                    Some(opt) => match opt.strip_prefix("sharded:") {
                        Some(n) => Some(
                            n.parse::<usize>()
                                .ok()
                                .filter(|n| (1..=MAX_SHARDS).contains(n))
                                .ok_or_else(|| {
                                    format!("sharded:<n> expects an integer in 1..={MAX_SHARDS}")
                                })?,
                        ),
                        None => return Err(format!("unknown CREATE option '{opt}'")),
                    },
                };
                reject_trailing(fields, "CREATE")?;
                Ok(Command::Create {
                    tenant,
                    spec,
                    shards,
                })
            }
            "ADD" => {
                let tenant = expect_name("ADD")?;
                let id = parse_u64(fields.next(), "ADD expects an element id")?;
                let weight = match fields.next() {
                    None => 1,
                    Some(w) => w
                        .parse::<u64>()
                        .map_err(|_| "ADD weight must be an unsigned integer".to_owned())?,
                };
                reject_trailing(fields, "ADD")?;
                Ok(Command::Add { tenant, id, weight })
            }
            "QUERY" => {
                let tenant = expect_name("QUERY")?;
                let id = parse_u64(fields.next(), "QUERY expects an element id")?;
                reject_trailing(fields, "QUERY")?;
                Ok(Command::Query { tenant, id })
            }
            "STATS" => {
                let tenant = fields.next().map(str::to_owned);
                reject_trailing(fields, "STATS")?;
                Ok(Command::Stats { tenant })
            }
            "DROP" => {
                let tenant = expect_name("DROP")?;
                reject_trailing(fields, "DROP")?;
                Ok(Command::Drop { tenant })
            }
            "PING" => {
                reject_trailing(fields, "PING")?;
                Ok(Command::Ping)
            }
            "QUIT" => {
                reject_trailing(fields, "QUIT")?;
                Ok(Command::Quit)
            }
            other => Err(format!("unknown command '{other}'")),
        }
    }

    /// Executes the command against `registry`, returning the response line
    /// (without the trailing newline). `Quit` is handled by the caller and
    /// answered with `OK bye` here for symmetry.
    pub fn execute(&self, registry: &mut SketchRegistry) -> String {
        match self {
            Command::Create {
                tenant,
                spec,
                shards,
            } => {
                let created = match shards {
                    None => registry.create(tenant, *spec),
                    Some(shards) => registry.create_sharded(tenant, *spec, *shards),
                };
                match created {
                    Ok(id) => format!("OK {id}"),
                    Err(err) => err_line(&err),
                }
            }
            Command::Add { tenant, id, weight } => {
                let element = StreamElement::without_features(*id);
                match registry.ingest_weighted(tenant, &element, *weight) {
                    Ok(()) => "OK".to_owned(),
                    Err(err) => err_line(&err),
                }
            }
            Command::Query { tenant, id } => {
                let element = StreamElement::without_features(*id);
                match registry.query(tenant, &element) {
                    Ok(estimate) => format!("OK {estimate}"),
                    Err(err) => err_line(&err),
                }
            }
            Command::Stats { tenant: None } => {
                let s = registry.stats();
                format!(
                    "OK tenants={} created={} dropped={} elements={} mass={} held={} \
                     dropped_mass={} evicted_mass={} queries={} hits={} misses={} \
                     degradations={} folds={} collapses={} demotions={} promotions={} \
                     evictions={} passes={} live_bytes={} budget_bytes={} unaccounted={}",
                    s.live_tenants,
                    s.tenants_created,
                    s.tenants_dropped,
                    s.ingested_elements,
                    s.ingested_mass,
                    s.held_mass,
                    s.dropped_mass,
                    s.evicted_mass,
                    s.queries,
                    s.query_hits,
                    s.query_misses,
                    s.degradations,
                    s.folds,
                    s.collapses,
                    s.demotions,
                    s.promotions,
                    s.evictions,
                    s.governor_passes,
                    s.live_bytes,
                    s.budget_bytes,
                    s.unaccounted_mass(),
                )
            }
            Command::Stats {
                tenant: Some(tenant),
            } => match registry.tenant_report(tenant) {
                Some(report) => format!(
                    "OK id={} backend={} bytes={} mass={} elements={} folds={} \
                     promoted={} sharded={}",
                    report.id,
                    report.backend,
                    report.bytes,
                    report.mass,
                    report.elements,
                    report.fold_steps,
                    report.promoted,
                    report.sharded,
                ),
                None => err_line(&RegistryError::UnknownTenant {
                    name: tenant.clone(),
                }),
            },
            Command::Drop { tenant } => match registry.drop_tenant(tenant) {
                Ok(id) => format!("OK {id}"),
                Err(err) => err_line(&err),
            },
            Command::Ping => "OK pong".to_owned(),
            Command::Quit => "OK bye".to_owned(),
        }
    }
}

fn parse_u64(field: Option<&str>, context: &str) -> Result<u64, String> {
    field
        .and_then(|f| f.parse::<u64>().ok())
        .ok_or_else(|| format!("{context} (unsigned integer)"))
}

fn reject_trailing<'a>(
    mut fields: impl Iterator<Item = &'a str>,
    verb: &str,
) -> Result<(), String> {
    match fields.next() {
        None => Ok(()),
        Some(extra) => Err(format!("{verb}: unexpected trailing field '{extra}'")),
    }
}

fn err_line(err: &RegistryError) -> String {
    format!("ERR {err}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_parse_and_reject() {
        assert_eq!(
            Command::parse("CREATE flows count-min:128x4").unwrap(),
            Command::Create {
                tenant: "flows".into(),
                spec: BackendSpec::CountMin {
                    width: 128,
                    depth: 4
                },
                shards: None,
            }
        );
        assert_eq!(
            Command::parse("create flows count-sketch:64x5 sharded:4").unwrap(),
            Command::Create {
                tenant: "flows".into(),
                spec: BackendSpec::CountSketch {
                    width: 64,
                    depth: 5
                },
                shards: Some(4),
            }
        );
        assert_eq!(
            Command::parse("ADD flows 42").unwrap(),
            Command::Add {
                tenant: "flows".into(),
                id: 42,
                weight: 1
            }
        );
        assert_eq!(
            Command::parse("add flows 42 9").unwrap(),
            Command::Add {
                tenant: "flows".into(),
                id: 42,
                weight: 9
            }
        );
        assert_eq!(
            Command::parse("QUERY flows 42").unwrap(),
            Command::Query {
                tenant: "flows".into(),
                id: 42
            }
        );
        assert_eq!(
            Command::parse("STATS").unwrap(),
            Command::Stats { tenant: None }
        );
        assert_eq!(
            Command::parse("STATS flows").unwrap(),
            Command::Stats {
                tenant: Some("flows".into())
            }
        );
        assert_eq!(
            Command::parse("DROP flows").unwrap(),
            Command::Drop {
                tenant: "flows".into()
            }
        );
        assert_eq!(
            Command::parse("CREATE big count-min sharded:64").unwrap(),
            Command::Create {
                tenant: "big".into(),
                spec: BackendSpec::parse("count-min").unwrap(),
                shards: Some(MAX_SHARDS),
            }
        );
        assert_eq!(Command::parse("PING").unwrap(), Command::Ping);
        assert_eq!(Command::parse("quit").unwrap(), Command::Quit);

        for bad in [
            "",
            "FROB x",
            "CREATE",
            "CREATE t",
            "CREATE t bloom:9",
            "CREATE t count-min sharded:0",
            "CREATE t count-min sharded:65",
            "CREATE t count-min:64x1 sharded:100000",
            "CREATE t count-min shards:4",
            "ADD t",
            "ADD t notanumber",
            "ADD t 1 -3",
            "QUERY t",
            "PING extra",
        ] {
            assert!(Command::parse(bad).is_err(), "'{bad}' should not parse");
        }
    }

    #[test]
    fn execution_round_trip() {
        let mut registry = SketchRegistry::unbounded();
        let run = |registry: &mut SketchRegistry, line: &str| {
            Command::parse(line).unwrap().execute(registry)
        };
        assert_eq!(run(&mut registry, "CREATE flows count-min:128x4"), "OK t0");
        assert_eq!(run(&mut registry, "ADD flows 7 3"), "OK");
        assert_eq!(run(&mut registry, "ADD flows 7"), "OK");
        assert_eq!(run(&mut registry, "QUERY flows 7"), "OK 4");
        assert_eq!(run(&mut registry, "QUERY flows 8"), "OK 0");
        assert!(run(&mut registry, "STATS").starts_with("OK tenants=1 "));
        assert!(run(&mut registry, "STATS flows").contains("backend=count-min"));
        assert!(run(&mut registry, "QUERY ghost 1").starts_with("ERR unknown tenant"));
        assert!(run(&mut registry, "CREATE flows count-min").starts_with("ERR tenant"));
        assert_eq!(run(&mut registry, "DROP flows"), "OK t0");
        assert!(run(&mut registry, "DROP flows").starts_with("ERR unknown tenant"));
        let stats = registry.stats();
        assert_eq!(stats.tenants_created, 1);
        assert_eq!(stats.tenants_dropped, 1);
        assert_eq!(stats.unaccounted_mass(), 0);
    }
}
