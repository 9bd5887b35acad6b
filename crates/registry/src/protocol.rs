//! The text line protocol spoken by [`SketchServer`](crate::SketchServer).
//!
//! One command per line, fields separated by whitespace; every command gets
//! exactly one response line starting with `OK` or `ERR`:
//!
//! | Command | Response | Meaning |
//! |---|---|---|
//! | `CREATE <tenant> <spec>` | `OK t<id>` | Register a tenant (spec grammar: [`BackendSpec`]) |
//! | `ADD <tenant> <id> [<weight>]` | `OK` | Ingest `weight` (default 1) arrivals of element `<id>`; refused once the fleet's admitted mass would pass [`SketchRegistry::MAX_MASS`] |
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

/// A parsed line-protocol command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `CREATE <tenant> <spec>`
    Create {
        /// Tenant name.
        tenant: String,
        /// Backend spec.
        spec: BackendSpec,
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
                reject_trailing(fields, "CREATE")?;
                Ok(Command::Create { tenant, spec })
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
            Command::Create { tenant, spec } => match registry.create(tenant, *spec) {
                Ok(id) => format!("OK {id}"),
                Err(err) => err_line(&err),
            },
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
                     folds={} evictions={} passes={} live_bytes={} budget_bytes={} \
                     unaccounted={}",
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
                    s.folds,
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
                    "OK id={} backend={} bytes={} mass={} elements={} folds={}",
                    report.id,
                    report.backend,
                    report.bytes,
                    report.mass,
                    report.elements,
                    report.fold_steps,
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
            }
        );
        assert_eq!(
            Command::parse("create flows count-sketch:64x5").unwrap(),
            Command::Create {
                tenant: "flows".into(),
                spec: BackendSpec::CountSketch {
                    width: 64,
                    depth: 5
                },
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
        assert_eq!(Command::parse("PING").unwrap(), Command::Ping);
        assert_eq!(Command::parse("quit").unwrap(), Command::Quit);

        for bad in [
            "",
            "FROB x",
            "CREATE",
            "CREATE t",
            "CREATE t bloom:9",
            "CREATE t count-min sharded:2",
            "CREATE t count-min extra",
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

    #[test]
    fn an_empty_count_sketch_never_answers_negative_zero() {
        let mut registry = SketchRegistry::unbounded();
        let mut run = |line: &str| Command::parse(line).unwrap().execute(&mut registry);
        assert_eq!(run("CREATE cs count-sketch:64x4"), "OK t0");
        for id in 0..200u64 {
            assert_eq!(run(&format!("QUERY cs {id}")), "OK 0", "id {id}");
        }
    }

    #[test]
    fn weights_past_the_mass_limit_change_nothing() {
        let mut registry = SketchRegistry::unbounded();
        let mut run = |line: &str| Command::parse(line).unwrap().execute(&mut registry);
        assert_eq!(run("CREATE cm count-min:64x4"), "OK t0");
        assert_eq!(run("CREATE cs count-sketch:64x4"), "OK t1");
        assert_eq!(run("ADD cm 1 5"), "OK");
        let answers = [run("QUERY cm 1"), run("QUERY cs 1")];
        let stats = run("STATS");
        assert!(stats.ends_with(" unaccounted=0"), "{stats}");
        // 2^63 is one past `MAX_MASS` on an empty fleet.
        for line in [
            "ADD cm 1 9223372036854775808",
            "ADD cs 1 9223372036854775808",
            "ADD cm 1 18446744073709551615",
        ] {
            assert!(run(line).starts_with("ERR weight "), "{line}");
        }
        assert_eq!(run("STATS"), stats);
        assert_eq!([run("QUERY cm 1"), run("QUERY cs 1")], answers);
        assert_eq!(answers[0], "OK 5");

        // Weights that pass the limit only together: the one that would
        // cross it is refused, and the fleet can fill to exactly the limit.
        let rest = SketchRegistry::MAX_MASS - 5;
        assert_eq!(run(&format!("ADD cs 2 {}", rest - 300)), "OK");
        assert!(run("ADD cm 1 301").starts_with("ERR weight 301 "));
        assert_eq!(run("ADD cs 2 300"), "OK");
        assert!(run("ADD cm 1 1").starts_with("ERR weight 1 "));
        assert_eq!(run("QUERY cm 1"), "OK 5");
        assert_eq!(run("QUERY cs 2"), format!("OK {}", rest as f64));
        let stats = registry.stats();
        assert_eq!(stats.ingested_mass, SketchRegistry::MAX_MASS);
        assert_eq!(stats.unaccounted_mass(), 0);
    }
}
