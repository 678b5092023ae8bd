//! `wrangler-quality` — quality analyses for the Working Data store.
//!
//! Figure 1's Working Data contains "the results of all Quality analyses that
//! have been carried out, which may apply to individual data sources, the
//! results of different extractions and components of relevance to
//! integration". The analysis the pass runs is [`profile`]: per-column and
//! per-table profiling (completeness, distinctness, type consistency) and its
//! synthesis into the context-comparable [`wrangler_context::QualityVector`].

pub mod profile;

pub use profile::{ColumnProfile, TableProfile};
