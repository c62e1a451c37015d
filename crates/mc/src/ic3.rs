//! IC3 / property-directed reachability (Bradley — VMCAI 2011; Eén,
//! Mishchenko, Brayton — FMCAD 2011), on the incremental SAT core.
//!
//! Where the paper's engines manipulate *state sets* (circuit
//! quantification, §3) or *unrollings* (BMC, k-induction), IC3 maintains
//! a sequence of over-approximating **frames** `F₁ ⊇ F₂ ⊇ … ⊇ F_k` of
//! the states reachable in at most `i` steps, each a conjunction of
//! clauses over the latch variables. Bad states found in `F_k` spawn
//! **proof obligations** that are recursively blocked by
//! relative-induction queries; blocked cubes are **generalized** by
//! unsat-core shrinking plus literal dropping, and clauses are
//! **propagated** forward each time a frame is added. The run terminates
//! at a frame fixpoint (`F_i = F_{i+1}` — an inductive invariant, the
//! property is proved) or when an obligation chain reaches the initial
//! state (a concrete counterexample trace).
//!
//! The implementation rides entirely on the PR-4 incremental SAT
//! lifecycle:
//!
//! * one persistent [`cbq_cnf::AigCnf`] bridge encodes the next-state
//!   cones lazily and keeps everything the solver learns across the
//!   thousands of queries a run issues;
//! * every frame is an activation-literal **guard generation**
//!   ([`cbq_cnf::AigCnf::new_guard`]): frame clauses are added once,
//!   guarded, and a query for `F_i` simply assumes the guards of frames
//!   `i..=k` — no clause is ever retracted, and retired per-query
//!   strengthening clauses are reclaimed by the arena's satisfied-clause
//!   purge, exactly like retired cone generations;
//! * every query is answered inside its **domain**
//!   ([`cbq_sat::Solver::solve_in_cone`]): the fanin closure of the
//!   assumed next-state and bad cones plus the latches the assumed
//!   frames' clauses mention. Latches no query depends on (a shadow
//!   register, the far stations of a ring) are never decided; a latch
//!   the model leaves unassigned reads as its reset value;
//! * the solver holds **one clause per live lemma**: pushes and
//!   subsumptions leave stale copies behind their lower frames' guards,
//!   and once those outnumber the live lemmas a frame extension rebuilds
//!   the finite frames under fresh guards from the delta-encoded
//!   bookkeeping;
//! * cube generalization reads the solver's
//!   [`cbq_sat::Solver::failed_assumptions`] unsat core — each cube
//!   literal is passed as its own assumption, so the core names the
//!   literals that matter.
//!
//! Transitions are expressed functionally (the crate's in-lining style):
//! "the successor lies in cube `c`" is the conjunction of the next-state
//! functions `δ` signed by `c`'s values, so no next-state variables or
//! transition-relation clauses exist at all.
//!
//! Generalization is a four-level effort ladder ([`GenMode`]): the unsat
//! core alone, plus literal dropping, plus **ternary-simulation
//! predecessor widening** (every SAT model is widened into a cube by
//! [`cbq_aig::sim::TernSim`] — latches whose X keeps the bad/next cone
//! definite are dropped *before* any SAT query runs), plus **CTG-aware
//! dropping** (a counterexample-to-generalization is blocked at the
//! prior frame under a bounded retry budget instead of ending the drop).
//! On top of the finite frames sits **`F_∞`**: clauses that propagate to
//! the top frame and are inductive outright land in an infinity guard
//! generation that every future query assumes for free, and go out on
//! the lemma bus tagged as already inductive.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use cbq_aig::sim::TernSim;
use cbq_aig::{Aig, Lit, Var};
use cbq_ckt::{Network, Trace};
use cbq_cnf::{AigCnf, AigCnfStats};
use cbq_sat::{SatLit, SatResult, SolverStats};

use crate::bus::{BusClientStats, BusCursor, LemmaBus};
use crate::engine::{Budget, Engine, Meter};
use crate::verdict::{McRun, McStats, Verdict};

/// Conflict budget for re-proving one bus merge. The scout already
/// proved the pair equivalent, so the consumer's re-proof usually closes
/// instantly; the cap only bounds the damage of a poisoned publication.
const MERGE_PROOF_CONFLICTS: u64 = 2_000;

/// Cube-generalization effort, a cumulative ladder: each mode includes
/// everything below it. `Core` is the `e6pdr`/`e6g` ablation baseline;
/// [`GenMode::Ctg`] is the default.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum GenMode {
    /// Unsat-core shrinking only.
    Core,
    /// Plus literal dropping (the `down`-less MIC step).
    Drop,
    /// Plus ternary-simulation predecessor widening: every SAT model is
    /// widened into a cube by X-valued re-simulation before the SAT
    /// path runs.
    Ternary,
    /// Plus CTG handling: a failed literal drop tries to block the
    /// counterexample-to-generalization at the prior frame, bounded by
    /// [`Ic3::ctg_retries`].
    #[default]
    Ctg,
}

impl GenMode {
    /// All modes, ablation order.
    pub const ALL: [GenMode; 4] = [GenMode::Core, GenMode::Drop, GenMode::Ternary, GenMode::Ctg];

    /// The CLI-facing name (`--ic3-gen <name>`).
    pub fn name(self) -> &'static str {
        match self {
            GenMode::Core => "core",
            GenMode::Drop => "drop",
            GenMode::Ternary => "ternary",
            GenMode::Ctg => "ctg",
        }
    }

    /// Parses a CLI-facing name.
    pub fn parse(s: &str) -> Option<GenMode> {
        GenMode::ALL.into_iter().find(|m| m.name() == s)
    }
}

impl std::fmt::Display for GenMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The IC3/PDR engine.
#[derive(Clone, Debug)]
pub struct Ic3 {
    /// Frame-count safety net; reaching it yields [`Verdict::Unknown`].
    pub max_frames: usize,
    /// Generalization effort ([`GenMode`] ladder; default
    /// [`GenMode::Ctg`] = everything on).
    pub gen: GenMode,
    /// CTG retry budget: how many counterexamples-to-generalization one
    /// literal drop may block before giving up on that literal. Floored
    /// to 1 in [`GenMode::Ctg`] so a zero configuration cannot turn the
    /// retry loop into an unbounded one.
    pub ctg_retries: u32,
    /// In-frame clause subsumption: recording a blocked cube drops every
    /// recorded cube it subsumes (fewer literals at an equal-or-higher
    /// frame), so the propagation phase never re-pushes clauses a
    /// stronger lemma already implies.
    pub subsume: bool,
    /// Warm-start lemmas: candidate blocked cubes (as `(latch ordinal,
    /// value)` pairs) from a previous run on the same transition
    /// structure, e.g. the [`Ic3Stats::lemmas`] of a cached run. Each is
    /// re-validated by a relative-induction query at frame 0 before
    /// being admitted into `F₁` — an unsound candidate is simply
    /// rejected — so seeding can never change a verdict, only skip
    /// obligations.
    pub seed: Vec<Vec<(usize, bool)>>,
    /// The parallel portfolio's [`LemmaBus`]. When set, IC3 *publishes*
    /// every pushed frame clause (cubes blocked at frames `≥ 2`) for the
    /// unrolling engines to assume, and *absorbs* sweep-proven node
    /// merges at each frame extension — after re-proving each merge in
    /// its own SAT database under a small conflict budget, so a poisoned
    /// publication costs queries, never the verdict.
    pub bus: Option<Arc<LemmaBus>>,
}

impl Default for Ic3 {
    fn default() -> Ic3 {
        Ic3 {
            max_frames: 10_000,
            gen: GenMode::default(),
            ctg_retries: 3,
            subsume: true,
            seed: Vec::new(),
            bus: None,
        }
    }
}

/// Statistics of an [`Ic3`] run.
#[derive(Clone, Debug, Default)]
pub struct Ic3Stats {
    /// Frames opened (the final `k`).
    pub frames: usize,
    /// Proof obligations processed.
    pub obligations: u64,
    /// Blocking clauses learned (generalized cubes blocked).
    pub clauses: u64,
    /// Clauses moved forward by the propagation phase.
    pub pushed: u64,
    /// Cube literals dropped by generalization (unsat core + literal
    /// dropping), total.
    pub gen_drops: u64,
    /// Latch literals dropped by ternary-simulation widening *before*
    /// the SAT path ([`GenMode::Ternary`] and up).
    pub tern_drops: u64,
    /// Counterexamples-to-generalization blocked at a prior frame during
    /// literal dropping ([`GenMode::Ctg`]).
    pub ctg_blocked: u64,
    /// Clauses promoted to the `F_∞` frame (inductive outright; assumed
    /// by every future query).
    pub inf_clauses: u64,
    /// Recorded cubes dropped because a newly blocked cube subsumed them.
    pub subsumed: u64,
    /// Warm-start lemmas admitted into `F₁` after re-validation.
    pub seeded: u64,
    /// Warm-start lemmas rejected (malformed or no longer inductive
    /// relative to this model's initial states / transition structure).
    pub seed_rejected: u64,
    /// The run's surviving frame clauses as cubes (every recorded cube
    /// at frames `≥ 1`) — inductive lemmas of the transition structure,
    /// replayable as [`Ic3::seed`] on a structurally matching model.
    pub lemmas: Vec<Vec<(usize, bool)>>,
    /// Frame clauses published to the lemma bus (parallel portfolio).
    pub published: u64,
    /// Bus traffic absorbed from siblings (merges re-proved/rejected).
    pub bus: BusClientStats,
    /// SAT-bridge counters (encodings, checks).
    pub cnf: AigCnfStats,
    /// Solver-core counters (conflicts, restarts, arena bytes, …).
    pub solver: SolverStats,
}

/// A cube over latches: `(latch ordinal, value)` pairs, ordinal-sorted.
type Cube = Vec<(usize, bool)>;

/// One frame: its clause-guard literal and the cubes whose blocking
/// clauses live at this level (delta encoding — a cube is recorded at
/// the *highest* frame it is blocked at; `F_i` is the conjunction of all
/// clauses recorded at levels `≥ i`).
struct Frame {
    act: SatLit,
    cubes: Vec<Cube>,
}

/// A proof obligation: a cube of states to block (a single concrete
/// state below [`GenMode::Ternary`]; a ternary-widened cube above, every
/// member of which the recorded inputs step into the parent obligation's
/// cube — or through `bad` for the root), and the parent link for
/// counterexample reconstruction.
struct Obligation {
    cube: Cube,
    inputs: Vec<bool>,
    parent: Option<usize>,
}

/// Outcome of one relative-induction query.
enum Rel {
    /// A predecessor exists: its full latch state and the inputs driving
    /// it into the queried cube.
    Pred(Vec<bool>, Vec<bool>),
    /// No predecessor; `keep[i]` marks the cube literals named by the
    /// unsat core (the rest are droppable).
    Blocked(Vec<bool>),
    /// The solver gave up (defensive; IC3 sets no conflict budget).
    Unknown,
}

/// Whether `small` subsumes `big`: every literal of `small` occurs in
/// `big` (both ordinal-sorted), so the clause `¬small` implies `¬big`.
fn cube_subsumes(small: &[(usize, bool)], big: &[(usize, bool)]) -> bool {
    if small.len() > big.len() {
        return false;
    }
    let mut big_iter = big.iter();
    'literals: for &lit in small {
        for &cand in big_iter.by_ref() {
            if cand == lit {
                continue 'literals;
            }
            if cand.0 >= lit.0 {
                // Passed the ordinal (or found it with the other value).
                return false;
            }
        }
        return false;
    }
    true
}

/// What the obligation queue produced.
enum BlockOutcome {
    Blocked,
    Cex(Trace),
    Stopped(Verdict),
}

struct Ic3Run<'a> {
    cfg: &'a Ic3,
    aig: Aig,
    cnf: AigCnf,
    pis: Vec<Var>,
    latches: Vec<Var>,
    deltas: Vec<Lit>,
    init_state: Vec<bool>,
    init_lit: Lit,
    bad: Lit,
    frames: Vec<Frame>,
    /// The `F_∞` guard: a generation that is *never* retired and that
    /// every query assumes, so clauses proved inductive outright
    /// strengthen all frames for free.
    inf_act: SatLit,
    /// Cubes whose clauses live in `F_∞` (for lemma export; their solver
    /// clauses are under `inf_act`, not any frame guard).
    inf_cubes: Vec<Cube>,
    /// Ternary simulator for predecessor widening (64 patterns — one
    /// concrete lane plus up to 63 prefix-X probe lanes per round).
    sim: TernSim,
    /// Reusable buffer for the widening target cone (filled by
    /// `TernSim::cone_of_reused`, so widening allocates nothing steady
    /// state).
    cone_buf: Vec<usize>,
    stats: Ic3Stats,
    seq: u64,
    retired_queries: u32,
    /// Frame clauses added to the solver under the finite frame guards
    /// since the last [`Ic3Run::compact_frames`] rebuild: one per
    /// recorded cube, plus every stale copy a push or a subsumption left
    /// behind.
    frame_clauses: usize,
    /// Consecutive failed CTG block attempts. Each failure costs one
    /// wasted query; once the count hits [`CTG_STRIKE_CAP`] the run stops
    /// attempting CTG blocks (a success resets it), so models where CTGs
    /// are never inductive pay a small bounded overhead instead of one
    /// extra query per failed literal drop.
    ctg_strikes: u32,
    bus_cursor: BusCursor,
}

/// Consecutive CTG failures tolerated before the run gives up on CTG
/// blocking. Small: a model whose counterexamples-to-generalization are
/// inductive shows it immediately and keeps resetting the counter.
const CTG_STRIKE_CAP: u32 = 4;

/// Slack of the frame-clause budget: once the solver holds more than
/// `2 × live finite-frame cubes + FRAME_CLAUSE_SLACK` frame clauses,
/// [`Ic3Run::compact_frames`] rebuilds the finite frames with one clause
/// per live lemma. The slack keeps small runs from rebuilding at all.
const FRAME_CLAUSE_SLACK: usize = 64;

/// Bundles the typed stats into the uniform run record.
fn finish(verdict: Verdict, stats: Ic3Stats, peak_nodes: usize, meter: &Meter) -> McRun {
    let common = McStats {
        engine: "ic3",
        iterations: stats.frames,
        peak_nodes,
        sat_checks: stats.cnf.checks,
        elapsed: meter.elapsed(),
    };
    McRun::new(verdict, common).with_detail(stats)
}

impl Engine for Ic3 {
    fn name(&self) -> &'static str {
        "ic3"
    }

    /// Runs IC3 on `net` within `budget` (`max_steps` caps the frame
    /// count).
    fn check(&self, net: &Network, budget: &Budget) -> McRun {
        let meter = Meter::start(budget);
        let mut run = Ic3Run::new(self, net);
        let verdict = run.solve(&meter);
        run.stats.cnf = run.cnf.stats();
        run.stats.solver = run.cnf.solver_stats();
        // Export the surviving frame clauses plus the F_∞ clauses: sound
        // warm-start candidates for any later run on the same transition
        // structure (each is re-validated on import, so this is safe for
        // every verdict).
        run.stats.lemmas = run
            .frames
            .iter()
            .skip(1)
            .flat_map(|f| f.cubes.iter().cloned())
            .chain(run.inf_cubes.iter().cloned())
            .collect();
        let peak = run.aig.num_nodes();
        finish(verdict, run.stats, peak, &meter)
    }
}

impl<'a> Ic3Run<'a> {
    fn new(cfg: &'a Ic3, net: &Network) -> Ic3Run<'a> {
        let mut aig = net.aig().clone();
        let init_lit = net.initial_cube().to_lit(&mut aig);
        let mut cnf = AigCnf::new();
        // Frame 0 is the initial states (queried through `init_lit`, not
        // clauses); its guard exists only to keep indexing uniform.
        let f0 = Frame {
            act: cnf.new_guard(),
            cubes: Vec::new(),
        };
        let f1 = Frame {
            act: cnf.new_guard(),
            cubes: Vec::new(),
        };
        let inf_act = cnf.new_guard();
        // Built after `init_lit` so the simulator covers the full AIG
        // (nothing grows the node table past this point).
        let sim = TernSim::new(&aig, 1);
        Ic3Run {
            cfg,
            aig,
            cnf,
            pis: net.primary_inputs().to_vec(),
            latches: net.latch_vars(),
            deltas: net.latches().iter().map(|l| l.next).collect(),
            init_state: net.initial_state(),
            init_lit,
            bad: net.bad(),
            frames: vec![f0, f1],
            inf_act,
            inf_cubes: Vec::new(),
            sim,
            cone_buf: Vec::new(),
            stats: Ic3Stats::default(),
            seq: 0,
            retired_queries: 0,
            frame_clauses: 0,
            ctg_strikes: 0,
            bus_cursor: BusCursor::default(),
        }
    }

    /// The top frame index `k`.
    fn top(&self) -> usize {
        self.frames.len() - 1
    }

    /// Budget check at a query boundary; steps count *completed* frame
    /// extensions, so a step limit of `n` allows frames `F₁ … F_{n+1}`.
    fn budget_verdict(&self, meter: &Meter) -> Option<Verdict> {
        meter.exceeded(
            self.top() - 1,
            self.aig.num_nodes(),
            self.cnf.stats().checks,
        )
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// The model value of `v` after a SAT answer; `None` when the model
    /// leaves it unassigned (never encoded, or outside the query's
    /// domain — any value extends the model there).
    fn model_value(&self, v: Var) -> Option<bool> {
        self.cnf
            .sat_lit(v.lit())
            .and_then(|sl| self.cnf.solver().value_lit(sl))
    }

    /// The model's latch state after a SAT answer. A latch the model
    /// leaves unassigned takes its reset value, so it never becomes the
    /// ternary-widening anchor (the first latch off the reset state).
    fn read_state(&self) -> Vec<bool> {
        self.latches
            .iter()
            .zip(&self.init_state)
            .map(|(&v, &init)| self.model_value(v).unwrap_or(init))
            .collect()
    }

    /// The model's primary-input values after a SAT answer (`false`
    /// where the model leaves an input unassigned).
    fn read_inputs(&self) -> Vec<bool> {
        self.pis
            .iter()
            .map(|&v| self.model_value(v).unwrap_or(false))
            .collect()
    }

    /// The AIG literal asserting latch `ord == val`.
    fn latch_lit(&self, ord: usize, val: bool) -> Lit {
        self.latches[ord].lit().xor_sign(!val)
    }

    /// Whether `cube` excludes the (single, fully-specified) initial
    /// state — i.e. some literal disagrees with the reset values.
    fn excludes_init(&self, cube: &[(usize, bool)]) -> bool {
        cube.iter().any(|&(ord, val)| self.init_state[ord] != val)
    }

    /// Restores init-exclusion after a core shrink: if every literal of
    /// `cube` agrees with the reset state, re-adds a disagreeing literal
    /// from `fallback` (which is known to exclude init).
    fn fix_init_exclusion(&self, cube: &mut Cube, fallback: &[(usize, bool)]) {
        if self.excludes_init(cube) {
            return;
        }
        let lit = fallback
            .iter()
            .copied()
            .find(|&(ord, val)| self.init_state[ord] != val)
            .expect("fallback cube excludes the initial state");
        cube.push(lit);
        cube.sort_unstable_by_key(|&(ord, _)| ord);
    }

    /// The relative-induction query `SAT? [F_lvl ∧ ¬c ∧ c(δ)]` — can a
    /// state of `F_lvl` outside `c` step into `c`? `lvl == 0` queries the
    /// initial cube instead of frame clauses. The `¬c` strengthening
    /// clause lives under a per-query guard retired immediately after;
    /// each `c(δ)` conjunct is its own assumption so an UNSAT core names
    /// the cube literals that matter.
    ///
    /// A reusable-guard pool would be unsound here (re-arming a retired
    /// guard would resurrect the previous query's `¬c` clause), so
    /// retired guards go through the solver's variable recycling instead:
    /// every 512 retirements [`cbq_cnf::AigCnf::reclaim_guards`] purges
    /// the dead guarded clauses *and* returns the guard variables to the
    /// free list, keeping both the arena and the variable table bounded
    /// across the thousands of queries a run issues.
    fn rel_query(&mut self, cube: &[(usize, bool)], lvl: usize) -> Rel {
        self.raw_query(cube, Some(lvl))
    }

    /// The `F_∞` promotion query `SAT? [F_∞ ∧ ¬c ∧ c(δ)]`: no frame
    /// guard at all — an UNSAT answer makes `¬c` inductive outright
    /// (relative only to the already-promoted clauses), so `c` can join
    /// the infinity generation.
    fn inf_query(&mut self, cube: &[(usize, bool)]) -> Rel {
        self.raw_query(cube, None)
    }

    /// Shared body of [`Ic3Run::rel_query`] / [`Ic3Run::inf_query`].
    /// Every query assumes `inf_act` — the `F_∞` clauses are facts about
    /// all reachable states, so they strengthen each frame for free.
    fn raw_query(&mut self, cube: &[(usize, bool)], lvl: Option<usize>) -> Rel {
        let actq = self.cnf.new_guard();
        let neg_cube: Vec<SatLit> = cube
            .iter()
            .map(|&(ord, val)| !self.cnf.ensure(&self.aig, self.latch_lit(ord, val)))
            .collect();
        self.cnf.add_guarded_by(actq, &neg_cube);
        let mut extra = vec![actq, self.inf_act];
        match lvl {
            Some(0) => {
                let init = self.cnf.ensure(&self.aig, self.init_lit);
                extra.push(init);
            }
            Some(lvl) => {
                for j in lvl..self.frames.len() {
                    extra.push(self.frames[j].act);
                }
            }
            None => {}
        }
        let delta_sls: Vec<SatLit> = cube
            .iter()
            .map(|&(ord, val)| {
                let succ = self.deltas[ord].xor_sign(!val);
                self.cnf.ensure(&self.aig, succ)
            })
            .collect();
        extra.extend_from_slice(&delta_sls);
        let result = self.cnf.solve_under_assuming(&self.aig, &[], &extra);
        let out = match result {
            SatResult::Sat => Rel::Pred(self.read_state(), self.read_inputs()),
            SatResult::Unsat => {
                let failed = self.cnf.solver().failed_assumptions();
                let keep = delta_sls.iter().map(|sl| failed.contains(sl)).collect();
                Rel::Blocked(keep)
            }
            SatResult::Unknown => Rel::Unknown,
        };
        self.cnf.retire_guard(actq);
        self.retired_queries += 1;
        if self.retired_queries.is_multiple_of(512) {
            // Reclaim the retired per-query clauses and guard variables.
            self.cnf.reclaim_guards();
        }
        out
    }

    /// Filters `cube` down to its unsat-core literals and *immediately*
    /// repairs init-exclusion against `fallback` (a superset cube known
    /// to exclude the initial state). Used after every core answer —
    /// including each accepted drop inside [`Ic3Run::generalize`]'s loop
    /// — so a core that momentarily agrees with the reset state is fixed
    /// on the spot instead of forcing a full-cube fallback later.
    fn shrink(
        &mut self,
        cube: &[(usize, bool)],
        keep: &[bool],
        fallback: &[(usize, bool)],
    ) -> Cube {
        let mut cur: Cube = cube
            .iter()
            .zip(keep)
            .filter(|(_, k)| **k)
            .map(|(c, _)| *c)
            .collect();
        self.fix_init_exclusion(&mut cur, fallback);
        cur
    }

    /// Shrinks a blocked cube: keep the unsat-core literals (with
    /// init-exclusion repaired after each core answer), then — from
    /// [`GenMode::Drop`] up — try dropping each remaining literal with a
    /// fresh relative-induction query at `lvl` ([`Ic3Run::try_drop`]
    /// layers the CTG handling on top).
    fn generalize(&mut self, cube: &[(usize, bool)], keep: &[bool], lvl: usize) -> Cube {
        let mut cur = self.shrink(cube, keep, cube);
        if self.cfg.gen >= GenMode::Drop {
            let mut i = 0;
            while i < cur.len() && cur.len() > 1 {
                let mut cand = cur.clone();
                cand.remove(i);
                if !self.excludes_init(&cand) {
                    i += 1;
                    continue;
                }
                match self.try_drop(&cand, lvl) {
                    Some(keep2) => {
                        cur = self.shrink(&cand, &keep2, &cand);
                        i = 0;
                    }
                    None => i += 1,
                }
            }
        }
        self.stats.gen_drops += (cube.len() - cur.len()) as u64;
        cur
    }

    /// Attempts one literal drop: is `cand` still blocked at `lvl`? In
    /// [`GenMode::Ctg`] a SAT answer — a **counterexample to
    /// generalization**, an `F_lvl` state that steps into `cand` — is
    /// itself blocked at the prior frame and the drop retried, under a
    /// retry budget floored to 1 (so a zero configuration cannot loop)
    /// and the [`CTG_STRIKE_CAP`] failure gate. Returns the unsat core
    /// on success.
    fn try_drop(&mut self, cand: &[(usize, bool)], lvl: usize) -> Option<Vec<bool>> {
        let ctg_on = self.cfg.gen >= GenMode::Ctg && lvl >= 1 && self.ctg_strikes < CTG_STRIKE_CAP;
        let mut retries = if ctg_on {
            self.cfg.ctg_retries.max(1)
        } else {
            0
        };
        loop {
            match self.rel_query(cand, lvl) {
                Rel::Blocked(keep) => return Some(keep),
                Rel::Pred(ctg, _) if retries > 0 => {
                    retries -= 1;
                    if ctg == self.init_state || !self.block_ctg(&ctg, lvl) {
                        self.ctg_strikes += 1;
                        return None;
                    }
                    self.ctg_strikes = 0;
                }
                _ => return None,
            }
        }
    }

    /// Blocks one counterexample-to-generalization: if the CTG state is
    /// itself blocked relative to the *prior* frame, its core-shrunk cube
    /// is recorded at `lvl` — strengthening `F_lvl` so the failed drop
    /// can succeed on retry. This is deliberately minimal effort — no
    /// recursion into the CTG's own predecessor, no drop loop and no eager
    /// push-forward (the propagation phase moves the clause up one query
    /// per frame later, amortized), so a blocked CTG costs exactly one
    /// query plus the retry.
    fn block_ctg(&mut self, ctg: &[bool], lvl: usize) -> bool {
        let cube: Cube = ctg.iter().enumerate().map(|(ord, v)| (ord, *v)).collect();
        match self.rel_query(&cube, lvl - 1) {
            Rel::Blocked(keep) => {
                let shrunk = self.shrink(&cube, &keep, &cube);
                self.add_blocked(shrunk, lvl);
                self.stats.clauses += 1;
                self.stats.ctg_blocked += 1;
                true
            }
            _ => false,
        }
    }

    /// The obligation cube for a freshly found predecessor state: the
    /// full state below [`GenMode::Ternary`], the ternary-widened cube
    /// above. `targets` are the literals (with required values) that the
    /// widening must keep definite — the parent cube's next-state
    /// functions, or `bad` for a root obligation.
    fn pred_cube(&mut self, state: &[bool], inputs: &[bool], targets: &[(Lit, bool)]) -> Cube {
        if self.cfg.gen >= GenMode::Ternary {
            self.tern_widen(state, inputs, targets)
        } else {
            state.iter().enumerate().map(|(ord, v)| (ord, *v)).collect()
        }
    }

    /// Ternary-simulation predecessor widening: starting from the
    /// concrete SAT model (`state`, `inputs`), turn latches to X and keep
    /// every drop under which all `targets` still evaluate to their
    /// required *definite* values. Ternary evaluation is monotone in
    /// definedness, so a definite target value holds for **every**
    /// concretization of the X latches: each state of the widened cube
    /// provably steps into the parent cube (or fires `bad`) under the
    /// recorded inputs — which is exactly what keeps counterexample
    /// traces replayable and lets the whole cube be blocked at once.
    ///
    /// The probing is bit-parallel: lane 0 stays concrete, lane `j`
    /// additionally X-es the first `j` pending candidates. More X in can
    /// only mean more X out, so lane acceptability is prefix-closed and
    /// one cone evaluation finds the longest acceptable run of drops; the
    /// first refused candidate is kept for good and the rest re-queued.
    /// The first latch disagreeing with the reset state is never a
    /// candidate, so the widened cube always excludes the initial state.
    fn tern_widen(&mut self, state: &[bool], inputs: &[bool], targets: &[(Lit, bool)]) -> Cube {
        let anchor = state.iter().zip(&self.init_state).position(|(s, i)| s != i);
        for (i, v) in self.pis.iter().enumerate() {
            self.sim.broadcast_var(*v, Some(inputs[i]));
        }
        for (ord, v) in self.latches.iter().enumerate() {
            self.sim.broadcast_var(*v, Some(state[ord]));
        }
        // One full pass settles every node (and resizes the planes if the
        // AIG grew); the probe loop then re-evaluates only the target
        // cone.
        self.sim.run(&self.aig);
        let roots: Vec<Lit> = targets.iter().map(|&(l, _)| l).collect();
        let mut cone = std::mem::take(&mut self.cone_buf);
        self.sim.cone_of_reused(&self.aig, &roots, &mut cone);
        debug_assert!(
            targets
                .iter()
                .all(|&(l, want)| self.sim.lit_value(l, 0) == Some(want)),
            "concrete SAT model does not satisfy the widening targets"
        );
        let mut keep = vec![true; state.len()];
        let mut pending: Vec<usize> = (0..state.len())
            .filter(|&ord| Some(ord) != anchor)
            .collect();
        let lanes = self.sim.num_patterns() - 1;
        while !pending.is_empty() {
            let round: Vec<usize> = pending.drain(..pending.len().min(lanes)).collect();
            // Lane j (1-based) X-es candidates round[0..j]: candidate
            // round[t] is X in lanes t+1 and up.
            for (t, &ord) in round.iter().enumerate() {
                for lane in (t + 1)..=round.len() {
                    self.sim.set_var(self.latches[ord], lane, None);
                }
            }
            self.sim.run_cone(&self.aig, &cone);
            let mut ok = 0;
            while ok < round.len()
                && targets
                    .iter()
                    .all(|&(l, want)| self.sim.lit_value(l, ok + 1) == Some(want))
            {
                ok += 1;
            }
            for (t, &ord) in round.iter().enumerate() {
                if t < ok {
                    // Dropped: X in every lane from here on.
                    keep[ord] = false;
                    self.sim.broadcast_var(self.latches[ord], None);
                } else {
                    // Back to concrete; the first refused candidate (t ==
                    // ok) is kept permanently, the rest get another try.
                    self.sim.broadcast_var(self.latches[ord], Some(state[ord]));
                    if t > ok {
                        pending.push(ord);
                    }
                }
            }
        }
        self.cone_buf = cone;
        let cube: Cube = state
            .iter()
            .enumerate()
            .filter(|&(ord, _)| keep[ord])
            .map(|(ord, v)| (ord, *v))
            .collect();
        self.stats.tern_drops += (state.len() - cube.len()) as u64;
        cube
    }

    /// Records `cube` as blocked at frame `lvl`: one guarded clause `¬c`
    /// under the frame's activation literal, plus the delta-encoding
    /// bookkeeping entry. With [`Ic3::subsume`] on, every recorded cube
    /// the new one subsumes (a superset cube at an equal-or-lower level —
    /// its clause is implied by the new, stronger clause) is dropped from
    /// the bookkeeping first, so propagation never re-pushes it. The
    /// subsumed solver clauses stay behind their frame guards (redundant
    /// but sound) until [`Ic3Run::compact_frames`] drops them; only the
    /// delta-encoding entries shrink, which keeps the frame-emptiness
    /// fixpoint test exact: dropping an implied clause changes no frame's
    /// semantics.
    fn add_blocked(&mut self, cube: Cube, lvl: usize) {
        if self.cfg.subsume {
            let stats = &mut self.stats;
            for j in 1..=lvl {
                self.frames[j].cubes.retain(|old| {
                    let dead = cube_subsumes(&cube, old);
                    if dead {
                        stats.subsumed += 1;
                    }
                    !dead
                });
            }
        }
        self.add_frame_clause(&cube, lvl);
        // Pushed frame clauses (level ≥ 2 — they survived at least one
        // propagation) go out on the lemma bus for the unrolling engines.
        // Consumers re-validate, so no inductiveness claim is made here.
        if lvl >= 2 {
            if let Some(bus) = &self.cfg.bus {
                if bus.publish_cube(cube.clone()) {
                    self.stats.published += 1;
                }
            }
        }
        self.frames[lvl].cubes.push(cube);
    }

    /// Adds `cube`'s blocking clause `¬c` to the solver under frame
    /// `lvl`'s guard.
    fn add_frame_clause(&mut self, cube: &[(usize, bool)], lvl: usize) {
        let clause: Vec<SatLit> = cube
            .iter()
            .map(|&(ord, val)| !self.cnf.ensure(&self.aig, self.latch_lit(ord, val)))
            .collect();
        self.cnf.add_guarded_by(self.frames[lvl].act, &clause);
        self.frame_clauses += 1;
    }

    /// Drops the stale frame clauses once they outnumber the live ones:
    /// every push leaves the old copy behind its lower frame's guard, and
    /// every subsumed cube its clause, so past `2 × live +
    /// FRAME_CLAUSE_SLACK` solver clauses the finite frames `1..=k` are
    /// rebuilt — each gets a fresh guard, the old guards are retired and
    /// reclaimed, and each recorded cube's clause is re-added once. The
    /// delta-encoded bookkeeping is the source of truth, so no frame's
    /// semantics changes; `F_∞`, the stats and the bus are untouched.
    fn compact_frames(&mut self) {
        let live: usize = self.frames[1..].iter().map(|f| f.cubes.len()).sum();
        if self.frame_clauses <= 2 * live + FRAME_CLAUSE_SLACK {
            return;
        }
        self.frame_clauses = 0;
        for lvl in 1..self.frames.len() {
            let fresh = self.cnf.new_guard();
            let stale = std::mem::replace(&mut self.frames[lvl].act, fresh);
            self.cnf.retire_guard(stale);
            let cubes = std::mem::take(&mut self.frames[lvl].cubes);
            for cube in &cubes {
                self.add_frame_clause(cube, lvl);
            }
            self.frames[lvl].cubes = cubes;
        }
        self.cnf.reclaim_guards();
    }

    /// Absorbs sweep-proven node merges off the bus: each is re-proved
    /// combinationally in this run's own SAT database (bounded conflicts)
    /// before [`cbq_cnf::AigCnf::learn_equiv`] records it, so the learned
    /// clauses are sound regardless of who published the pair. IC3's
    /// queries range over the *original* next-state/bad cones, which is
    /// exactly the coordinate space the sweep scout publishes in.
    fn absorb_merges(&mut self) {
        let Some(bus) = self.cfg.bus.clone() else {
            return;
        };
        for (a, b) in bus.merges_since(&mut self.bus_cursor) {
            let in_range =
                a.var().index() < self.aig.num_nodes() && b.var().index() < self.aig.num_nodes();
            if in_range
                && self
                    .cnf
                    .prove_equiv(&self.aig, a, b, Some(MERGE_PROOF_CONFLICTS))
                    .is_equiv()
            {
                let sa = self.cnf.ensure(&self.aig, a);
                let sb = self.cnf.ensure(&self.aig, b);
                self.cnf.learn_equiv(sa, sb);
                self.stats.bus.merges_learned += 1;
            } else {
                self.stats.bus.merges_rejected += 1;
            }
        }
    }

    /// Pushes a freshly blocked cube as far forward as relative induction
    /// allows, starting from `lvl`; returns the frame it lands at.
    fn push_forward(&mut self, cube: &[(usize, bool)], lvl: usize) -> usize {
        let mut j = lvl;
        while j < self.top() {
            match self.rel_query(cube, j) {
                Rel::Blocked(_) => j += 1,
                _ => break,
            }
        }
        j
    }

    /// Blocks one bad-state cube at the top frame through the
    /// proof-obligation priority queue (lowest frame first, FIFO within a
    /// frame).
    fn block_state(&mut self, cube: Cube, inputs: Vec<bool>, meter: &Meter) -> BlockOutcome {
        let mut arena = vec![Obligation {
            cube,
            inputs,
            parent: None,
        }];
        let mut queue: BinaryHeap<Reverse<(usize, u64, usize)>> = BinaryHeap::new();
        let top = self.top();
        queue.push(Reverse((top, self.next_seq(), 0)));
        while let Some(Reverse((lvl, _, idx))) = queue.pop() {
            if let Some(bounded) = self.budget_verdict(meter) {
                return BlockOutcome::Stopped(bounded);
            }
            self.stats.obligations += 1;
            let cube = arena[idx].cube.clone();
            match self.rel_query(&cube, lvl - 1) {
                Rel::Pred(pred, pred_inputs) => {
                    if pred == self.init_state {
                        return BlockOutcome::Cex(self.trace_from(&arena, idx, pred_inputs));
                    }
                    // A level-1 query assumes the init cube, so its model
                    // is always the initial state and was handled above.
                    debug_assert!(lvl >= 2, "non-initial predecessor below frame 1");
                    // Widen the concrete predecessor against the parent
                    // cube's next-state functions: every state of the
                    // widened cube steps into `cube` under `pred_inputs`.
                    let targets: Vec<(Lit, bool)> = cube
                        .iter()
                        .map(|&(ord, val)| (self.deltas[ord], val))
                        .collect();
                    let pcube = self.pred_cube(&pred, &pred_inputs, &targets);
                    arena.push(Obligation {
                        cube: pcube,
                        inputs: pred_inputs,
                        parent: Some(idx),
                    });
                    let fresh = arena.len() - 1;
                    queue.push(Reverse((lvl - 1, self.next_seq(), fresh)));
                    queue.push(Reverse((lvl, self.next_seq(), idx)));
                }
                Rel::Blocked(keep) => {
                    let generalized = self.generalize(&cube, &keep, lvl - 1);
                    let landing = self.push_forward(&generalized, lvl);
                    self.add_blocked(generalized, landing);
                    self.stats.clauses += 1;
                    if landing < top {
                        queue.push(Reverse((landing + 1, self.next_seq(), idx)));
                    }
                }
                Rel::Unknown => {
                    return BlockOutcome::Stopped(Verdict::Unknown {
                        reason: "solver gave up during obligation blocking".to_string(),
                    })
                }
            }
        }
        BlockOutcome::Blocked
    }

    /// Reconstructs the counterexample trace from an obligation chain:
    /// `init_inputs` steps the initial state into `arena[idx].cube`, each
    /// obligation's inputs step *every* state of its cube into its
    /// parent's cube (the ternary-widening invariant), and the root
    /// obligation's inputs fire `bad` from every state of its cube — so
    /// the inputs-only replay is valid wherever it lands in each cube.
    fn trace_from(&self, arena: &[Obligation], start: usize, init_inputs: Vec<bool>) -> Trace {
        let mut inputs = vec![init_inputs];
        let mut idx = start;
        loop {
            inputs.push(arena[idx].inputs.clone());
            match arena[idx].parent {
                Some(parent) => idx = parent,
                None => break,
            }
        }
        Trace::new(inputs)
    }

    /// The propagation phase: after opening a new top frame, try to move
    /// every recorded cube one frame forward. An emptied frame is the
    /// fixpoint `F_i = F_{i+1}` — the property is proved. A cube that
    /// would land at the (fresh, empty) top frame gets one extra
    /// [`Ic3Run::inf_query`]: if its clause is inductive outright it
    /// joins `F_∞` instead, leaving the finite bookkeeping entirely.
    fn propagate(&mut self, meter: &Meter) -> Result<Option<usize>, Verdict> {
        for i in 1..self.top() {
            let mut cubes = std::mem::take(&mut self.frames[i].cubes);
            let mut kept = Vec::new();
            while let Some(cube) = cubes.pop() {
                if let Some(bounded) = self.budget_verdict(meter) {
                    // Restore the bookkeeping before bailing out.
                    kept.push(cube);
                    kept.append(&mut cubes);
                    self.frames[i].cubes = kept;
                    return Err(bounded);
                }
                match self.rel_query(&cube, i) {
                    Rel::Blocked(_) => {
                        self.stats.pushed += 1;
                        if i + 1 == self.top() && matches!(self.inf_query(&cube), Rel::Blocked(_)) {
                            self.add_infinity(cube);
                        } else {
                            self.add_blocked(cube, i + 1);
                        }
                    }
                    _ => kept.push(cube),
                }
            }
            self.frames[i].cubes = kept;
            if self.frames[i].cubes.is_empty() {
                return Ok(Some(i));
            }
        }
        Ok(None)
    }

    /// Records `cube`'s clause in `F_∞`: one guarded clause under the
    /// never-retired `inf_act` generation that every query assumes, a bus
    /// publication tagged *already inductive* (consumers may fast-path
    /// admission), and a subsumption sweep over every finite frame — the
    /// infinity clause implies any finite copy, so dropping subsumed
    /// bookkeeping entries changes no frame's semantics and keeps the
    /// frame-emptiness fixpoint test exact.
    fn add_infinity(&mut self, cube: Cube) {
        let clause: Vec<SatLit> = cube
            .iter()
            .map(|&(ord, val)| !self.cnf.ensure(&self.aig, self.latch_lit(ord, val)))
            .collect();
        self.cnf.add_guarded_by(self.inf_act, &clause);
        self.stats.inf_clauses += 1;
        if let Some(bus) = &self.cfg.bus {
            if bus.publish_inductive(cube.clone()) {
                self.stats.published += 1;
            }
        }
        if self.cfg.subsume {
            let stats = &mut self.stats;
            for frame in &mut self.frames {
                frame.cubes.retain(|old| {
                    let dead = cube_subsumes(&cube, old);
                    if dead {
                        stats.subsumed += 1;
                    }
                    !dead
                });
            }
        }
        self.inf_cubes.push(cube);
    }

    fn solve(&mut self, meter: &Meter) -> Verdict {
        self.stats.frames = self.top();
        if let Some(bounded) = meter.exceeded(0, self.aig.num_nodes(), 0) {
            return bounded;
        }
        // Depth 0: can some input fire `bad` in the initial state?
        match self
            .cnf
            .solve_under_assuming(&self.aig, &[self.init_lit, self.bad], &[])
        {
            SatResult::Sat => {
                let trace = Trace::new(vec![self.read_inputs()]);
                return Verdict::Unsafe { trace };
            }
            SatResult::Unknown => {
                return Verdict::Unknown {
                    reason: "solver gave up on the initial-state check".to_string(),
                }
            }
            SatResult::Unsat => {}
        }
        // Warm start: replay candidate lemmas from a prior run on this
        // transition structure. Each candidate is independently
        // re-validated — well-formed, excludes the initial state, and
        // inductive relative to F₀ (`rel_query` at level 0) — before its
        // clause enters F₁, so a stale or even adversarial seed degrades
        // to wasted queries, never to a wrong verdict.
        if !self.cfg.seed.is_empty() {
            for cand in self.cfg.seed.clone() {
                if let Some(bounded) = self.budget_verdict(meter) {
                    return bounded;
                }
                let mut cube = cand;
                cube.sort_unstable_by_key(|&(ord, _)| ord);
                cube.dedup();
                let well_formed = !cube.is_empty()
                    && cube.windows(2).all(|w| w[0].0 != w[1].0)
                    && cube.iter().all(|&(ord, _)| ord < self.latches.len());
                if !well_formed || !self.excludes_init(&cube) {
                    self.stats.seed_rejected += 1;
                    continue;
                }
                match self.rel_query(&cube, 0) {
                    Rel::Blocked(_) => {
                        self.add_blocked(cube, 1);
                        self.stats.seeded += 1;
                    }
                    _ => self.stats.seed_rejected += 1,
                }
            }
        }
        loop {
            // Blocking phase: clear every bad state out of F_k.
            loop {
                if let Some(bounded) = self.budget_verdict(meter) {
                    return bounded;
                }
                let top_act = self.frames[self.top()].act;
                match self.cnf.solve_under_assuming(
                    &self.aig,
                    &[self.bad],
                    &[top_act, self.inf_act],
                ) {
                    SatResult::Unsat => break,
                    SatResult::Unknown => {
                        return Verdict::Unknown {
                            reason: "solver gave up on the bad-state check".to_string(),
                        }
                    }
                    SatResult::Sat => {
                        let state = self.read_state();
                        let inputs = self.read_inputs();
                        // `init ∧ bad` was refuted at depth 0.
                        debug_assert_ne!(state, self.init_state);
                        // Widen the root against `bad` itself: every
                        // state of the cube fires `bad` under `inputs`.
                        let cube = self.pred_cube(&state, &inputs, &[(self.bad, true)]);
                        match self.block_state(cube, inputs, meter) {
                            BlockOutcome::Blocked => {}
                            BlockOutcome::Cex(trace) => return Verdict::Unsafe { trace },
                            BlockOutcome::Stopped(verdict) => return verdict,
                        }
                    }
                }
            }
            // Extension: open F_{k+1} and propagate clauses forward.
            if self.top() >= self.cfg.max_frames {
                return Verdict::Unknown {
                    reason: format!("frame bound {} reached", self.cfg.max_frames),
                };
            }
            let act = self.cnf.new_guard();
            self.frames.push(Frame {
                act,
                cubes: Vec::new(),
            });
            self.stats.frames = self.top();
            self.absorb_merges();
            match self.propagate(meter) {
                Ok(Some(fix)) => return Verdict::Safe { iterations: fix },
                Ok(None) => self.compact_frames(),
                Err(bounded) => return bounded,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::{check_safe, check_unsafe};
    use cbq_ckt::generators;

    #[test]
    fn proves_safe_circuits() {
        for net in [
            generators::token_ring(6),
            generators::bounded_counter(4, 9),
            generators::gray_counter(4),
            generators::mutex(),
            generators::arbiter(4),
            generators::lfsr(5, &[0, 2]),
        ] {
            check_safe(&Ic3::default(), &net);
        }
    }

    #[test]
    fn proves_deep_gap_circuit_without_unrolling() {
        // The gap circuit's bad region sits behind a long unreachable
        // chain — BMC can never close it, IC3 converges on frames.
        let net = generators::bounded_counter_gap(4, 6, 12);
        let run = Ic3::default().check(&net, &Budget::unlimited());
        assert!(run.verdict.is_safe(), "got {}", run.verdict);
        let detail = run.detail::<Ic3Stats>().expect("ic3 stats");
        assert!(detail.frames >= 1);
        assert!(detail.clauses > 0);
    }

    #[test]
    fn finds_counterexamples_with_valid_traces() {
        // IC3 counterexamples are genuine but not necessarily minimal, so
        // no depth is pinned here (the cross-engine suite replays them).
        for net in [
            generators::token_ring_bug(5),
            generators::mutex_bug(),
            generators::shift_ones(4),
            generators::counter_bug(4, 6),
        ] {
            check_unsafe(&Ic3::default(), &net, None);
        }
    }

    #[test]
    fn bad_at_initial_state_is_a_one_step_trace() {
        let mut b = cbq_ckt::Network::builder("badinit");
        let s = b.add_latch(true);
        b.set_next(s, s.lit());
        let net = b.build(s.lit());
        let run = Ic3::default().check(&net, &Budget::unlimited());
        match run.verdict {
            Verdict::Unsafe { trace } => {
                assert_eq!(trace.len(), 1);
                assert!(trace.validates(&net));
            }
            other => panic!("expected unsafe, got {other}"),
        }
    }

    #[test]
    fn generalization_ablation_agrees() {
        // Every rung of the GenMode ladder must reach the same verdicts;
        // the generalization machinery only shrinks cubes and queries.
        for net in [
            generators::bounded_counter_gap(4, 6, 12),
            generators::token_ring(5),
            generators::counter_bug(4, 6),
        ] {
            let full = Ic3::default().check(&net, &Budget::unlimited());
            for mode in GenMode::ALL {
                let run = Ic3 {
                    gen: mode,
                    ..Ic3::default()
                }
                .check(&net, &Budget::unlimited());
                assert_eq!(
                    full.verdict.is_safe(),
                    run.verdict.is_safe(),
                    "{}: gen mode {mode} changed the verdict",
                    net.name()
                );
                if let Verdict::Unsafe { trace } = &run.verdict {
                    assert!(
                        trace.validates(&net),
                        "{}: gen mode {mode} trace bogus",
                        net.name()
                    );
                }
            }
        }
    }

    /// Pins the default configuration's query stream: SAT checks,
    /// obligations and blocked CTGs on two models that exercise CTG
    /// blocking. A change to any of these numbers changes what IC3 asks
    /// the solver, so it has to be deliberate.
    #[test]
    fn default_query_stream_is_pinned() {
        for (net, checks, obligations, ctg_blocked) in [
            (generators::fifo_ctrl(6), 131, 13, 1),
            (generators::bounded_counter_gap(6, 20, 50), 1459, 266, 1),
        ] {
            let run = Ic3::default().check(&net, &Budget::unlimited());
            assert!(run.verdict.is_safe(), "{}", net.name());
            let s = run.detail::<Ic3Stats>().expect("stats");
            assert_eq!(
                (s.cnf.checks, s.obligations, s.ctg_blocked),
                (checks, obligations, ctg_blocked),
                "{}: (checks, obligations, ctg_blocked) moved",
                net.name()
            );
        }
    }

    #[test]
    fn queries_are_answered_inside_their_domain() {
        // Shadow latches and the other ring stations lie outside most
        // queries' domains: nearly every check must be answered scoped,
        // not fall back to a whole-database solve.
        for net in [
            generators::shadowed_counter_gap(5, 10, 20, 32),
            generators::token_ring(8),
        ] {
            let run = Ic3::default().check(&net, &Budget::unlimited());
            assert!(run.verdict.is_safe(), "{}", net.name());
            let s = run.detail::<Ic3Stats>().expect("stats");
            assert!(
                s.solver.scoped_solves * 10 >= s.cnf.checks * 9,
                "{}: {} of {} checks scoped",
                net.name(),
                s.solver.scoped_solves,
                s.cnf.checks
            );
        }
    }

    #[test]
    fn solver_holds_one_clause_per_live_lemma() {
        // Pushes and subsumptions leave stale frame clauses behind. The
        // run compacts the frames at its extensions, and a compaction
        // leaves exactly one solver clause per live lemma with every
        // frame still blocking its recorded cubes.
        let net = generators::bounded_counter_gap(6, 20, 50);
        let cfg = Ic3::default();
        let mut run = Ic3Run::new(&cfg, &net);
        let verdict = run.solve(&Meter::start(&Budget::unlimited()));
        assert!(verdict.is_safe(), "got {verdict}");
        let s = &run.stats;
        let every_copy = (s.clauses + s.pushed + s.seeded - s.inf_clauses) as usize;
        assert!(
            run.frame_clauses < every_copy,
            "no stale frame clause was dropped during the run"
        );
        let live: usize = run.frames[1..].iter().map(|f| f.cubes.len()).sum();
        let over = run.frame_clauses > 2 * live + FRAME_CLAUSE_SLACK;
        let purged = run.cnf.solver_stats().purged;
        run.compact_frames();
        assert!(
            run.frame_clauses <= 2 * live + FRAME_CLAUSE_SLACK,
            "{} frame clauses for {live} live lemmas",
            run.frame_clauses
        );
        if over {
            assert_eq!(run.frame_clauses, live);
            assert!(run.cnf.solver_stats().purged > purged, "nothing was purged");
        }
        for lvl in 1..run.frames.len() {
            let guards: Vec<SatLit> = run.frames[lvl..].iter().map(|f| f.act).collect();
            for cube in run.frames[lvl].cubes.clone() {
                let lits: Vec<Lit> = cube.iter().map(|&(o, v)| run.latch_lit(o, v)).collect();
                assert_eq!(
                    run.cnf.solve_under_assuming(&run.aig, &lits, &guards),
                    SatResult::Unsat,
                    "F_{lvl} lost the clause of {cube:?}"
                );
            }
        }
    }

    #[test]
    fn gen_mode_names_round_trip() {
        for mode in GenMode::ALL {
            assert_eq!(GenMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(GenMode::parse("bogus"), None);
        assert_eq!(GenMode::default(), GenMode::Ctg);
        assert!(GenMode::Core < GenMode::Drop && GenMode::Ternary < GenMode::Ctg);
    }

    #[test]
    fn ternary_widening_drops_shadow_latches() {
        // The shadow register never feeds the property cone, so ternary
        // widening must X it out of every obligation — and the widened
        // runs must agree with the unwidened verdict.
        let net = generators::shadowed_counter_gap(4, 6, 12, 4);
        let plain = Ic3 {
            gen: GenMode::Drop,
            ..Ic3::default()
        }
        .check(&net, &Budget::unlimited());
        let widened = Ic3 {
            gen: GenMode::Ternary,
            ..Ic3::default()
        }
        .check(&net, &Budget::unlimited());
        assert_eq!(plain.verdict.is_safe(), widened.verdict.is_safe());
        let s_plain = plain.detail::<Ic3Stats>().expect("stats");
        let s_wide = widened.detail::<Ic3Stats>().expect("stats");
        assert_eq!(s_plain.tern_drops, 0, "Drop mode must not widen");
        assert!(s_wide.tern_drops > 0, "no literal was ternary-dropped");
    }

    #[test]
    fn inf_frame_promotes_inductive_clauses() {
        // A self-looping latch: `{a = 1}` is inductive outright, so its
        // clause must be promoted to F_∞ and still be exported as a
        // warm-start lemma.
        let mut b = cbq_ckt::Network::builder("selfloop");
        let a = b.add_latch(false);
        b.set_next(a, a.lit());
        let net = b.build(a.lit());
        let run = Ic3::default().check(&net, &Budget::unlimited());
        assert!(run.verdict.is_safe(), "got {}", run.verdict);
        let detail = run.detail::<Ic3Stats>().expect("stats");
        assert!(detail.inf_clauses >= 1, "no clause reached F_∞");
        assert!(
            detail.lemmas.contains(&vec![(0, true)]),
            "F_∞ clause missing from the lemma export: {:?}",
            detail.lemmas
        );
    }

    #[test]
    fn ctg_retry_budget_is_floored() {
        // A zero retry budget must behave like a budget of one — the
        // floor keeps the CTG loop bounded without disabling it — and
        // verdicts must be unaffected.
        for net in [
            generators::bounded_counter_gap(4, 6, 12),
            generators::counter_bug(4, 6),
        ] {
            let run = Ic3 {
                gen: GenMode::Ctg,
                ctg_retries: 0,
                ..Ic3::default()
            }
            .check(&net, &Budget::unlimited());
            let base = Ic3::default().check(&net, &Budget::unlimited());
            assert_eq!(run.verdict.is_safe(), base.verdict.is_safe());
        }
    }

    #[test]
    fn stats_are_populated() {
        let run = Ic3::default().check(&generators::token_ring(5), &Budget::unlimited());
        assert!(run.verdict.is_safe());
        assert!(run.stats.sat_checks > 0);
        assert!(run.stats.peak_nodes > 0);
        let detail = run.detail::<Ic3Stats>().expect("ic3 stats");
        assert!(detail.frames >= 1);
        assert_eq!(detail.frames, run.stats.iterations);
        assert!(detail.obligations > 0 || detail.clauses == 0);
        assert_eq!(detail.cnf.checks, run.stats.sat_checks);
    }

    #[test]
    fn cube_subsumption_order() {
        let small = vec![(1, true), (3, false)];
        let big = vec![(0, true), (1, true), (3, false), (5, true)];
        assert!(cube_subsumes(&small, &big));
        assert!(cube_subsumes(&small, &small));
        assert!(!cube_subsumes(&big, &small));
        assert!(!cube_subsumes(&[(1, false)], &big), "value must match");
        assert!(!cube_subsumes(&[(7, true)], &big), "ordinal past the end");
    }

    #[test]
    fn subsumption_shrinks_frames_with_identical_verdicts() {
        // E6 gap model: deep safe convergence generates enough clauses
        // for stronger lemmas to subsume earlier, weaker ones. The
        // ablation must agree on the verdict and iteration count while
        // the subsuming run keeps strictly fewer recorded cubes.
        let net = generators::bounded_counter_gap(4, 6, 12);
        let on = Ic3::default().check(&net, &Budget::unlimited());
        let off = Ic3 {
            subsume: false,
            ..Ic3::default()
        }
        .check(&net, &Budget::unlimited());
        assert!(on.verdict.is_safe(), "got {}", on.verdict);
        assert_eq!(on.verdict, off.verdict);
        let s_on = on.detail::<Ic3Stats>().expect("stats");
        let s_off = off.detail::<Ic3Stats>().expect("stats");
        assert!(s_on.subsumed > 0, "nothing was subsumed");
        assert_eq!(s_off.subsumed, 0, "ablation must not subsume");
        assert!(
            s_on.lemmas.len() < s_off.lemmas.len(),
            "frames did not shrink: {} vs {}",
            s_on.lemmas.len(),
            s_off.lemmas.len()
        );
    }

    #[test]
    fn warm_start_seed_skips_obligations() {
        // Harvest a cold run's lemmas, then re-run seeded: the verdict
        // and fixpoint frame must match, with fewer obligations.
        let net = generators::bounded_counter_gap(4, 6, 12);
        let cold = Ic3::default().check(&net, &Budget::unlimited());
        let lemmas = cold.detail::<Ic3Stats>().expect("stats").lemmas.clone();
        assert!(!lemmas.is_empty());
        let warm = Ic3 {
            seed: lemmas,
            ..Ic3::default()
        }
        .check(&net, &Budget::unlimited());
        assert_eq!(cold.verdict, warm.verdict);
        let s_cold = cold.detail::<Ic3Stats>().expect("stats");
        let s_warm = warm.detail::<Ic3Stats>().expect("stats");
        assert!(s_warm.seeded > 0, "no lemma was admitted");
        assert!(
            s_warm.obligations < s_cold.obligations,
            "warm start did not skip obligations: {} vs {}",
            s_warm.obligations,
            s_cold.obligations
        );
    }

    #[test]
    fn garbage_seed_is_rejected_not_believed() {
        // Malformed and non-inductive candidates must be filtered out
        // without changing the verdict — on safe and unsafe models.
        let junk: Vec<Vec<(usize, bool)>> = vec![
            vec![],                       // empty
            vec![(0, true), (0, false)],  // contradictory ordinal
            vec![(99, true)],             // out of range
            vec![(0, false), (1, false)], // may agree with reset
            vec![(0, true), (99, false)], // partially out of range
        ];
        for net in [generators::token_ring(5), generators::token_ring_bug(5)] {
            let plain = Ic3::default().check(&net, &Budget::unlimited());
            let seeded = Ic3 {
                seed: junk.clone(),
                ..Ic3::default()
            }
            .check(&net, &Budget::unlimited());
            assert_eq!(plain.verdict.is_safe(), seeded.verdict.is_safe());
            let s = seeded.detail::<Ic3Stats>().expect("stats");
            assert!(s.seed_rejected > 0, "junk seeds were not rejected");
        }
    }

    #[test]
    fn frame_bound_yields_unknown() {
        let net = generators::bounded_counter_gap(4, 6, 12);
        let run = Ic3 {
            max_frames: 1,
            ..Ic3::default()
        }
        .check(&net, &Budget::unlimited());
        assert!(
            matches!(run.verdict, Verdict::Unknown { .. }) || run.verdict.is_safe(),
            "got {}",
            run.verdict
        );
    }
}
