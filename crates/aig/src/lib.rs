//! # cbq-aig — And-Inverter Graphs for state-set manipulation
//!
//! This crate implements the *underlying structure* of the DATE 2005 paper
//! "Circuit Based Quantification: Back to State Set Manipulation within
//! Unbounded Model Checking" (Cabodi, Crivellari, Nocco, Quer): a
//! semi-canonical, structurally hashed **And-Inverter Graph** (AIG) in the
//! style of Kuehlmann, Ganai and Paruthi, *Circuit-based Boolean Reasoning*
//! (DAC 2001).
//!
//! An AIG is a DAG of two-input AND nodes whose edges may be complemented.
//! The manager ([`Aig`]) is append-only: nodes are created through
//! [`Aig::and`] (and the derived gates [`Aig::or`], [`Aig::xor`],
//! [`Aig::ite`], …), are *structurally hashed* so that no two AND nodes with
//! identical fanins exist, and are never mutated. Node indices are therefore
//! a topological order, which the simulator and all traversals exploit.
//!
//! The crate provides everything the upper layers of the reproduction need:
//!
//! * literals and variables ([`Lit`], [`Var`]) with complement bits,
//! * one- and two-level rewriting rules inside [`Aig::and`] (the AIG
//!   "semi-canonicity" the paper relies on for free merges),
//! * **cofactoring** ([`Aig::cofactor`]) and simultaneous **composition /
//!   substitution** ([`Aig::compose`]) — the engines of circuit-based
//!   quantification and of pre-image in-lining,
//! * cone extraction, support computation and garbage-collecting
//!   [`Aig::compact`],
//! * 64-way parallel random simulation ([`sim::BitSim`]) used to seed
//!   equivalence classes for sweeping,
//! * ASCII AIGER (`aag`) reading/writing ([`io`]).
//!
//! ## Example
//!
//! ```
//! use cbq_aig::{Aig, Lit};
//!
//! let mut aig = Aig::new();
//! let a = aig.add_input().lit();
//! let b = aig.add_input().lit();
//! let f = aig.xor(a, b);
//! // Quantify `b` away by hand: f|b=0 OR f|b=1 == constant true.
//! let f0 = aig.cofactor(f, b.var(), false);
//! let f1 = aig.cofactor(f, b.var(), true);
//! let q = aig.or(f0, f1);
//! assert_eq!(q, Lit::TRUE);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aig;
mod cube;
mod dfs;
mod lit;
mod node;
mod table;

pub mod io;
pub mod sim;

pub use crate::aig::{Aig, AigPerfCounters};
pub use crate::cube::{Assignment, Cube};
pub use crate::dfs::ConeStats;
pub use crate::lit::{Lit, Var};
pub use crate::node::Node;
pub use crate::table::SigClasses;
