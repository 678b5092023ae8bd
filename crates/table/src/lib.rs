//! `wrangler-table` — the tabular data substrate for the vada-wrangler system.
//!
//! Every component of the wrangling architecture (extraction, integration,
//! cleaning, fusion) consumes and produces [`Table`]s: schema-typed, columnar
//! collections of [`Value`]s. The crate provides:
//!
//! * a dynamically typed [`Value`] model with a total order and canonical
//!   hashing, so values can be compared, grouped and deduplicated across
//!   heterogeneous sources; a string cell is a shared [`Text`], so copying
//!   a cell never copies its bytes;
//! * [`Schema`] / [`Field`] metadata with type unification, used by schema
//!   matching and mapping;
//! * [`Table`], a columnar table with relational operators (filter, project,
//!   join, union, sort, group-by) in [`ops`];
//! * a small expression language ([`expr`]) compiled against a schema;
//! * a CSV codec ([`csv`]) with type inference ([`infer`]), the entry format
//!   for file-based sources;
//! * per-column statistics ([`stats`]) consumed by quality profiling;
//! * the deterministic blocked worker pool ([`par`]) shared by the compute
//!   kernels (ER scoring, slot fusion, schema-matching generation);
//! * a canonical binary wire format ([`wire`]) with `f64::to_bits`-exact
//!   value round-trips and a stable content hash, the payload encoding of
//!   the `wrangler-ckpt` checkpoint store.
//!
//! The design goal is a dependency-free, deterministic core: no I/O beyond
//! strings, no randomness, so all downstream experiments are reproducible.

pub mod csv;
pub mod error;
pub mod expr;
pub mod infer;
pub mod ops;
pub mod par;
pub mod schema;
pub mod stats;
pub mod table;
pub mod text;
pub mod value;
pub mod wire;

pub use error::TableError;
pub use expr::Expr;
pub use schema::{CastSafety, DataType, Field, Schema};
pub use table::Table;
pub use text::Text;
pub use value::Value;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TableError>;
