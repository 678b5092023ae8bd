//! `wrangler-fusion` — conflict resolution and truth discovery.
//!
//! After integration, every entity attribute has *claims* from several
//! sources that disagree (Veracity). §3.1 observes that knowledge-base
//! construction "leans heavily on the assumption that correct facts occur
//! frequently (instance-based redundancy)" and that this breaks for "highly
//! transient information (e.g., pricing)". The crate therefore implements
//! the whole ladder:
//!
//! * [`claims`] — the claim model: (entity, attribute, value, source), with
//!   tolerance-aware value agreement, and the [`ClaimIndex`]: the claims
//!   grouped once per pass into slots and agreement classes, flat arrays
//!   that truth discovery and the kernel both read;
//! * [`strategies`] — per-attribute conflict resolution: majority vote (the
//!   KBC baseline), latest-source, trust-weighted, and trust+freshness
//!   fusion (what transient data actually needs — experiment E9);
//! * [`kernel`] — the precompiled [`FuseKernel`], the one fuse production
//!   runs: per-source weights/decays hoisted out of the slot loop once per
//!   pass, each slot's fusion bit-identical to [`fuse_attribute`] (the
//!   reference the tests keep);
//! * [`truthfinder`](crate::truthfinder::truthfinder) — iterative joint estimation of source trust and value
//!   confidence (Yin, Han & Yu \[36\]), optionally seeded with master-data
//!   priors from the data context (§2.3: the ontology/master data "as a
//!   guide to the fusion of property values"); a fixed-point loop over the
//!   index's arrays.

pub mod claims;
pub mod kernel;
pub mod strategies;
pub mod truthfinder;

pub use claims::{values_agree, Claim, ClaimIndex, ClaimSet};
pub use kernel::FuseKernel;
pub use strategies::{fuse_attribute, FusedValue, Strategy};
pub use truthfinder::{truthfinder, TruthFinderConfig, TruthFinderResult};
