#![warn(missing_docs)]
//! Scale-free graph generation and measurement for the MSSG experiments.
//!
//! The thesis evaluates MSSG on two real PubMed-derived semantic graphs and
//! one synthetic scale-free graph (Table 5.1). The PubMed data is not
//! available, so this crate generates *PubMed-like* graphs: seeded,
//! reproducible scale-free graphs calibrated to the published statistics
//! (vertex/edge counts, min/avg/max degree). What the experiments exercise
//! is the degree distribution — hubs drive fringe growth and block reuse —
//! not the document text, so the substitution preserves the measured
//! behaviour (see DESIGN.md §2).
//!
//! Contents:
//! - [`rng`] — a small, seeded xoshiro256++ PRNG (bit-reproducible runs),
//! - [`alias`] — Walker alias tables for O(1) weighted sampling,
//! - [`generate`] — Chung–Lu and Barabási–Albert scale-free generators,
//! - [`presets`] — `pubmed_s` / `pubmed_l` / `syn2b` workload presets with a
//!   scale knob,
//! - [`stats`] — degree statistics matching Table 5.1's columns plus a
//!   power-law exponent fit,
//! - [`edgeio`] — the ASCII edge-list reader and writer the ingestion
//!   experiments stream from.

pub mod alias;
pub mod edgeio;
pub mod generate;
pub mod presets;
pub mod rng;
pub mod stats;

pub use generate::{BarabasiAlbert, ChungLu, ChungLuConfig, Rmat};
pub use presets::{GraphPreset, Workload};
pub use rng::Xoshiro256;
pub use stats::{degree_stats, DegreeStats};
