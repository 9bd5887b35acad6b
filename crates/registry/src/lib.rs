//! Multi-tenant sketch serving: a [`SketchRegistry`] that hosts thousands
//! of named frequency estimators under one global memory budget, plus a
//! std-only TCP line-protocol front end ([`SketchServer`]).
//!
//! The paper studies frequency estimation sketches one at a time; a serving
//! system hosts *fleets* of them — one per customer, per metric, per flow
//! table — and the binding constraint is the machine's memory, not any
//! single sketch's. This crate adds that layer:
//!
//! * **Registry** ([`SketchRegistry`]): create tenants from a textual
//!   [`BackendSpec`] (`count-min:1024x4`, `count-sketch:512x5`,
//!   `misra-gries:256`), route updates and queries by name, retire tenants,
//!   and audit the whole fleet with [`RegistryStats`] — including a
//!   conservation invariant ([`RegistryStats::unaccounted_mass`]) proving
//!   no admitted count was ever silently lost.
//! * **Governor** ([`governor`]): when the fleet exceeds its
//!   [`SpaceBudget`](opthash_stream::SpaceBudget), it takes two rungs. It
//!   first folds the coldest foldable tenant's Count-Min/Count-Sketch grid
//!   to half width, which is mathematically exact (the folded sketch equals
//!   the sketch the same stream would have built at that width) and
//!   conserves all counted mass. Only when no grid can fold further does it
//!   evict the coldest tenant, ledgering its mass as evicted.
//! * **Server** ([`SketchServer`]): a dependency-free TCP endpoint speaking
//!   a one-line-per-command text protocol ([`protocol`]) with clean,
//!   join-everything shutdown.
//!
//! # Quickstart
//!
//! ```
//! use opthash_registry::{BackendSpec, RegistryConfig, SketchRegistry};
//! use opthash_stream::{SpaceBudget, StreamElement};
//!
//! // A registry governed by a 64 KB global budget.
//! let mut registry =
//!     SketchRegistry::new(RegistryConfig::default().budget(SpaceBudget::from_kb(64.0)));
//!
//! // Tenants are created from textual backend specs...
//! registry.create("flows", BackendSpec::parse("count-min:1024x4")?)?;
//! registry.create("queries", BackendSpec::parse("misra-gries:128")?)?;
//!
//! // ...and routed by name.
//! let packet = StreamElement::without_features(0xDEAD_BEEFu64);
//! registry.ingest("flows", &packet)?;
//! registry.ingest_weighted("flows", &packet, 2)?;
//! assert_eq!(registry.query("flows", &packet)?, 3.0);
//!
//! // The fleet-wide ledger always balances: every admitted count is held
//! // in a live tenant, or attributed to a drop or a governor eviction.
//! let stats = registry.stats();
//! assert_eq!(stats.unaccounted_mass(), 0);
//! assert_eq!(stats.live_tenants, 2);
//! # Ok::<(), opthash_registry::RegistryError>(())
//! ```
//!
//! Serving the same registry over TCP:
//!
//! ```no_run
//! use opthash_registry::{SketchRegistry, SketchServer};
//! use opthash_stream::SpaceBudget;
//!
//! let registry = SketchRegistry::with_budget(SpaceBudget::from_kb(256.0));
//! let server = SketchServer::bind("127.0.0.1:7878", registry)?;
//! println!("serving on {}", server.local_addr());
//! // ... later:
//! server.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]

pub mod governor;
pub mod protocol;
mod registry;
mod server;

pub use governor::GovernorOutcome;
pub use protocol::Command;
pub use registry::{
    BackendSpec, RegistryConfig, RegistryError, RegistryStats, SketchRegistry, TenantId,
    TenantReport, TenantSketch,
};
pub use server::SketchServer;
