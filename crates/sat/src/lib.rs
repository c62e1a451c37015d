//! # cbq-sat — a CDCL SAT solver with an incremental interface
//!
//! The DATE 2005 paper builds its merge and optimisation phases on
//! *factorised* SAT checks: "we load the clause database once and for-all,
//! and we factorize several checks together within a single ZChaff run".
//! This crate provides the solver that makes that workflow possible: a
//! conflict-driven clause-learning (CDCL) solver in the ZChaff/MiniSat
//! lineage with
//!
//! * a **contiguous `u32` clause arena** ([`arena::ClauseArena`]): every
//!   clause is a header-plus-literals run addressed by a typed
//!   [`arena::CRef`], watcher lists carry `CRef` + blocker literal, and
//!   reduce-DB compacts the arena in place instead of freeing per-clause
//!   `Vec`s,
//! * two-watched-literal propagation,
//! * first-UIP conflict analysis with clause minimisation,
//! * VSIDS variable activities, saved-phase **and target-phase**
//!   branching polarity (alternating restarts replay the deepest trail
//!   seen so far),
//! * **LBD (glue) scoring at learn time** with glue-tiered learnt-clause
//!   reduction (glue ≤ 2 is never deleted) and Luby-sequence restarts,
//! * **incremental solving under assumptions** ([`Solver::solve_with`]):
//!   the clause database (including learnt clauses) persists across calls,
//!   so successive equivalence checks share everything already derived,
//! * **cone-scoped solves** ([`Solver::solve_in_cone`]) for Tseitin
//!   databases with guarded clause groups: decisions and propagation
//!   above level 0 stay inside the fanin closure of the assumptions and
//!   of the clauses their guards activate,
//! * failed-assumption extraction ([`Solver::failed_assumptions`]) and
//!   **per-call** conflict budgets ([`Solver::set_conflict_budget`]) for
//!   abortable checks,
//! * a [`SatBackend`] trait with the exhaustive
//!   [`reference::ReferenceSolver`] as a differential oracle.
//!
//! ## Example
//!
//! ```
//! use cbq_sat::{Solver, SatResult};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause(&[a.pos(), b.pos()]);
//! s.add_clause(&[a.neg(), b.pos()]);
//! assert_eq!(s.solve(), SatResult::Sat);
//! assert_eq!(s.value(b), Some(true));
//! // The same database, incrementally, under an assumption:
//! assert_eq!(s.solve_with(&[b.neg()]), SatResult::Unsat);
//! assert_eq!(s.solve(), SatResult::Sat); // still satisfiable overall
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod solver;
mod types;

pub mod arena;
pub mod dimacs;
pub mod drat;
pub mod proof;
pub mod reference;

pub use crate::backend::SatBackend;
pub use crate::proof::{ClauseId, ProofEvent, ProofLog, ProofMode};
pub use crate::solver::{Solver, SolverStats, LBD_BUCKETS, NO_FANIN};
pub use crate::types::{Lbool, SatLit, SatResult, SatVar};
