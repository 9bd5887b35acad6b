//! # opthash-datagen
//!
//! Synthetic workload generators reproducing the paper's two data sources:
//!
//! * [`groups`] — the group-structured synthetic streams of Section 6.1:
//!   `G` element groups of exponentially growing sizes, 2-D Gaussian features
//!   per group, group arrival probability proportional to `1/g`, and a
//!   prefix in which only a fraction `g0` of each group's elements may
//!   appear.
//! * [`querylog`] — a synthetic multi-day search-query log standing in for
//!   the AOL dataset of Section 7 (which is not redistributable): Zipfian
//!   rank–frequency law calibrated to the frequencies the paper quotes,
//!   navigational-query text structure, and day-to-day persistence of the
//!   popular queries.
//! * [`tenants`] — mixed multi-tenant serving workloads that combine the
//!   generators above and skew traffic across tenants, for exercising the
//!   registry's memory-budget governor.
//! * [`drift`] — rotating-Zipf drifting workloads with a controllable drift
//!   rate, for exercising online re-training.
//! * [`zipf`] — the shared Zipf sampler.
//!
//! All generators are deterministic given their seed, so every experiment in
//! the benchmark harness is reproducible.
//!
//! ```
//! use opthash_datagen::groups::{GroupConfig, GroupDataset};
//!
//! let dataset = GroupDataset::generate(GroupConfig::with_groups(4));
//! // Group sizes grow exponentially: 8 + 16 + 32 + 64 elements.
//! assert_eq!(dataset.universe_size(), 120);
//! let stream = dataset.generate_stream(1_000, 7);
//! assert_eq!(stream.len(), 1_000);
//! // Deterministic given the seed.
//! let again = dataset.generate_stream(1_000, 7);
//! assert_eq!(stream.as_slice()[0].id, again.as_slice()[0].id);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod drift;
pub mod groups;
pub mod querylog;
pub mod tenants;
pub mod zipf;

pub use drift::{DriftConfig, DriftingWorkload};
pub use groups::{GroupConfig, GroupDataset};
pub use querylog::{QueryLogConfig, QueryLogDataset};
pub use tenants::{MixedTenantConfig, MixedTenantWorkload, TenantArrival, TenantClass};
pub use zipf::ZipfSampler;
