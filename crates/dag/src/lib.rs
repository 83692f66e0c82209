//! # ccmm-dag — dag substrate for computation-centric memory models
//!
//! This crate provides the graph machinery under
//! [Frigo & Luchangco, *Computation-Centric Memory Models*, SPAA 1998]:
//!
//! * [`Dag`]: finite dags with dense node indices, plus the paper's dag
//!   operations — prefixes, one-node *extensions*, *augmentation*
//!   (Definition 11), and *relaxations*;
//! * [`Reachability`]: O(1) strict-precedence (`u ≺ v`) queries via
//!   transitive-closure bitsets;
//! * [`topo`]: deterministic, random, and exhaustive topological sorts
//!   (`TS(G)`, the basis of the SC and LC model definitions);
//! * [`poset`]: exhaustive enumeration of naturally labelled posets, the
//!   computation universes used to machine-check the paper's theorems;
//! * [`canon`]: canonical forms, orbit sizes, and automorphism counts for
//!   small posets — the symmetry-reduced (up-to-isomorphism) enumeration
//!   behind the weighted universe sweeps;
//! * [`generate`] and [`sp`]: random and series-parallel (fork/join)
//!   dag generators;
//! * [`dot`]: Graphviz export.
//!
//! # Example
//!
//! ```
//! use ccmm_dag::{Dag, NodeId, Reachability};
//!
//! // The diamond: 0 forks to 1 and 2, which join at 3.
//! let dag = Dag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
//! let reach = Reachability::new(&dag);
//! assert!(reach.reaches(NodeId::new(0), NodeId::new(3)));
//! assert!(reach.incomparable(NodeId::new(1), NodeId::new(2)));
//!
//! // Exactly two interleavings of the parallel branch.
//! assert_eq!(ccmm_dag::topo::count_topo_sorts(&dag), 2);
//!
//! // The paper's augmentation: a new final node after everything.
//! let aug = dag.augment();
//! assert_eq!(aug.leaves(), vec![NodeId::new(4)]);
//! ```

#![warn(missing_docs)]

pub mod bitset;
pub mod canon;
pub mod dot;
pub mod error;
pub mod flat;
pub mod generate;
pub mod graph;
pub mod metrics;
pub mod poset;
pub mod reach;
pub mod sp;
pub mod topo;

pub use bitset::BitSet;
pub use error::DagError;
pub use flat::FlatDag;
pub use graph::{Dag, NodeId};
pub use reach::Reachability;
pub use sp::{SpDag, SpExpr, SpOrder};
