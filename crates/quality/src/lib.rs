//! `wrangler-quality` — quality analyses for the Working Data store.
//!
//! Figure 1's Working Data contains "the results of all Quality analyses that
//! have been carried out, which may apply to individual data sources, the
//! results of different extractions and components of relevance to
//! integration". The analysis the pass runs is [`profile`]: the delivered
//! table's completeness and master-data relevance, and their synthesis into
//! the context-comparable [`wrangler_context::QualityVector`].

pub mod profile;
