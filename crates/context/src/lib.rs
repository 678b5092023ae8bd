//! `wrangler-context` — user context and data context (§2.1, §2.3, §3.3).
//!
//! The paper's central architectural departure from classical ETL is that the
//! wrangling process is steered by two kinds of context rather than by a
//! hand-wired workflow:
//!
//! * The **user context** "specifies functional and non-functional
//!   requirements of the users, and the trade-offs between them". Here it is
//!   a declarative [`UserContext`]: a weighting over quality criteria derived
//!   with the **Analytic Hierarchy Process** ([`ahp`], ref \[31\]) from pairwise
//!   preference judgements, plus thresholds and budgets. Every selection
//!   decision downstream (sources, mappings, fused values) is scored against
//!   it via [`criteria::QualityVector::utility`].
//! * The **data context** "consists of the sources that may provide data for
//!   wrangling, and other information that may inform the wrangling process":
//!   a domain [`ontology::Ontology`] (concept hierarchy with synonyms, the
//!   stand-in for schema.org / the Product Types Ontology) and the
//!   [`reference::DataContext`]'s master data that matching, source
//!   selection and fusion consume as additional evidence.

pub mod ahp;
pub mod criteria;
pub mod ontology;
pub mod reference;
pub mod user;

pub use ahp::AhpMatrix;
pub use criteria::{Criterion, QualityVector};
pub use ontology::Ontology;
pub use reference::DataContext;
pub use user::UserContext;
