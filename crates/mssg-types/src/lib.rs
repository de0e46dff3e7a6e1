#![warn(missing_docs)]
//! Core types shared by every crate in the MSSG workspace.
//!
//! MSSG (Massive-Scale Semantic Graphs) targets scale-free *semantic* graphs:
//! graphs whose vertices and edges carry types drawn from an ontology. This
//! crate defines the vocabulary the rest of the system speaks:
//!
//! - [`Gid`] — the 61-bit global vertex identifier (the top 3 bits of the
//!   64-bit word are reserved for storage-engine tagging, exactly as in the
//!   thesis §4.1.6),
//! - [`Edge`] and [`TypedEdge`] — untyped and ontology-typed edges,
//! - [`Ontology`] — the type schema that constrains a semantic graph
//!   (thesis Figure 1.1),
//! - [`MetaOp`] and the [`GraphStorageError`] error type used by the
//!   GraphDB service interface (thesis Listing 3.1),
//! - [`AdjBuffer`] — the reusable adjacency-list output buffer
//!   (the prototype's `FastLongArrayStorage`),
//! - [`GidMap`] / [`GidSet`] — hash tables keyed by vertex id, with a
//!   hasher specialised to that one word,
//! - [`fnv1a`] — the byte hash behind digests and topology signatures,
//!   and [`splitmix64`] — the seed expander behind generators and fault
//!   plans.

pub mod adjbuf;
pub mod edge;
pub mod error;
pub mod gid;
pub mod gidmap;
pub mod hash;
pub mod meta;
pub mod ontology;
pub mod verify;

pub use adjbuf::AdjBuffer;
pub use edge::{Edge, TypedEdge};
pub use error::{GraphStorageError, Result};
pub use gid::Gid;
pub use gidmap::{GidMap, GidSet};
pub use hash::{fnv1a, splitmix64};
pub use meta::{Meta, MetaOp, UNVISITED};
pub use ontology::{EdgeTypeId, Ontology, OntologyError, VertexTypeId};
pub use verify::VerifyError;
