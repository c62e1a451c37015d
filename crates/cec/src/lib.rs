//! # cbq-cec — combinational equivalence checking and sweeping
//!
//! Implements the **merge phase** of the DATE 2005 paper (Section 2.1):
//! "merge together as many internal nodes of F₁ and F₀ as possible … this
//! is essentially a combinational equivalence checking problem", using the
//! paper's three escalating tiers:
//!
//! 1. **Structural hashing / semi-canonicity** — free merges performed by
//!    the AIG manager itself ("we exploit AIG semi-canonicity and hashing
//!    scheme to early detect functionally equivalent map points").
//! 2. **BDD sweeping** — size-bounded BDDs built bottom-up confirm or
//!    refute candidate equivalences canonically (Kuehlmann & Krohm,
//!    DAC 1997). One manager, ordered by the cone's inputs, and one
//!    node → BDD memo serve every candidate class of a sweep, so a
//!    sub-cone shared by several classes is built once; each class may
//!    add at most [`SweepConfig::bdd_cap`] nodes before its remaining
//!    members fall through to SAT.
//! 3. **SAT checks** — remaining compare points go to the shared-database
//!    incremental solver ([`cbq_cnf::AigCnf`]) as assumption queries on
//!    one persistent arena solver; counterexamples are fed back into
//!    parallel simulation to refine the candidate classes (fraiging), and
//!    proven equivalences are *learnt* as activation-guarded clauses
//!    ([`cbq_cnf::AigCnf::learn_equiv`]), "simplifying successive
//!    equivalence checks" — and surviving any number of sweeps until the
//!    bridge retires the cone generation.
//!
//! Both the **forward** (inputs-first, sweeping-like) and **backward**
//! (outputs-first, early-exit) processing orders of the paper are
//! implemented ([`MergeOrder`]); the backward order skips compare points
//! that fall out of the needed cone once outputs merge.
//!
//! ## Example
//!
//! ```
//! use cbq_aig::Aig;
//! use cbq_cec::{sweep, SweepConfig};
//! use cbq_cnf::AigCnf;
//!
//! let mut aig = Aig::new();
//! let a = aig.add_input().lit();
//! let b = aig.add_input().lit();
//! // Two different constructions of a XOR b.
//! let x1 = aig.xor(a, b);
//! let or = aig.or(a, b);
//! let nand = !aig.and(a, b);
//! let x2 = aig.and(or, nand);
//!
//! let mut cnf = AigCnf::new();
//! let result = sweep(&mut aig, &[x1, x2], &mut cnf, &SweepConfig::default());
//! assert_eq!(result.roots[0], result.roots[1]); // merged into one node
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use cbq_aig::sim::BitSim;
use cbq_aig::{Aig, Lit, Node, Var};
use cbq_bdd::{AigBddMemo, BddManager, BddRef};
use cbq_cnf::{AigCnf, EquivResult};

/// Processing order for SAT-based merge-point checking (Section 2.1).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum MergeOrder {
    /// Inputs-first, "more similar to the BDD sweeping technique": merges
    /// are learnt bottom-up and simplify later checks.
    #[default]
    Forward,
    /// Outputs-first, "generally better in case of high merge probability
    /// (similar cofactors)": once outputs merge, inner compare points fall
    /// out of the needed cone and are skipped.
    Backward,
}

/// Configuration of the sweeping engine.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// 64-bit words of random simulation per node (tier-0 filtering).
    pub sim_words: usize,
    /// Seed for the random patterns.
    pub seed: u64,
    /// Enable the BDD sweeping tier.
    pub use_bdd_sweep: bool,
    /// Nodes one candidate class may add to the sweep's shared BDD
    /// manager; a member whose build crosses it goes to the SAT tier.
    pub bdd_cap: usize,
    /// Enable the SAT tier.
    pub use_sat: bool,
    /// Conflict budget per SAT equivalence check (`None` = unlimited).
    pub sat_budget: Option<u64>,
    /// Processing order of SAT compare points.
    pub order: MergeOrder,
    /// Maximum simulate–check–refine rounds.
    pub max_rounds: usize,
    /// Cooperative cancellation: once this instant passes, the candidate
    /// loop stops issuing new checks and applies the merges proven so far
    /// (a sweep result is always sound, however early it stops).
    pub deadline: Option<Instant>,
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            sim_words: 4,
            seed: 0xC0FFEE,
            use_bdd_sweep: true,
            bdd_cap: 2_000,
            use_sat: true,
            sat_budget: None,
            order: MergeOrder::Forward,
            max_rounds: 16,
            deadline: None,
        }
    }
}

impl SweepConfig {
    /// Whether the cooperative deadline has passed.
    fn past_deadline(&self) -> bool {
        matches!(self.deadline, Some(d) if Instant::now() >= d)
    }
}

/// Per-tier merge counters (the data behind experiment E4).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Candidate equivalence classes after initial simulation.
    pub classes_initial: usize,
    /// Merges proven by the BDD sweeping tier.
    pub merged_bdd: usize,
    /// Merges proven by the SAT tier.
    pub merged_sat: usize,
    /// Candidate pairs refuted canonically by BDDs.
    pub refuted_bdd: usize,
    /// Class members whose BDD build hit [`SweepConfig::bdd_cap`].
    pub bdd_aborted: usize,
    /// SAT equivalence checks issued.
    pub sat_checks: u64,
    /// SAT checks that produced counterexamples (class refinements).
    pub sat_cex: u64,
    /// SAT checks aborted on budget.
    pub sat_unknown: u64,
    /// Compare points skipped because they left the needed cone
    /// (backward order only).
    pub skipped_out_of_cone: u64,
    /// Simulate–refine rounds executed.
    pub rounds: usize,
}

/// Result of [`sweep`]: translated roots plus statistics.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// The input roots rebuilt over the merged graph, in the same order.
    pub roots: Vec<Lit>,
    /// What each tier accomplished.
    pub stats: SweepStats,
}

/// A proven merge: `member` is equivalent to `repr` (both phase-carrying
/// literals on the original graph).
type Merges = HashMap<Var, Lit>;

/// Builds the miter `a ⊕ b` (satisfiable iff the functions differ).
pub fn miter(aig: &mut Aig, a: Lit, b: Lit) -> Lit {
    aig.xor(a, b)
}

/// Full combinational equivalence check between two literals: sweeping
/// first (which shrinks and shares the cones), then a final SAT proof on
/// the swept roots.
pub fn check_equiv(
    aig: &mut Aig,
    a: Lit,
    b: Lit,
    cnf: &mut AigCnf,
    cfg: &SweepConfig,
) -> EquivResult {
    let swept = sweep(aig, &[a, b], cnf, cfg);
    if swept.roots[0] == swept.roots[1] {
        return EquivResult::Equiv;
    }
    cnf.prove_equiv(aig, swept.roots[0], swept.roots[1], cfg.sat_budget)
}

/// Functionally reduces the cones of `roots`: equivalent nodes (modulo
/// complementation) are merged to a single representative.
///
/// This is the paper's merge phase, exposed as a standalone operation
/// (also known as *fraiging*). Returns the rebuilt roots and statistics.
pub fn sweep(aig: &mut Aig, roots: &[Lit], cnf: &mut AigCnf, cfg: &SweepConfig) -> SweepResult {
    Sweeper::new(aig, roots, cnf, cfg).run()
}

struct Sweeper<'a> {
    aig: &'a mut Aig,
    roots: Vec<Lit>,
    cnf: &'a mut AigCnf,
    cfg: &'a SweepConfig,
    sim: BitSim,
    merges: Merges,
    /// Pairs a SAT counterexample told apart.
    refuted: HashSet<(Var, Var)>,
    /// BDD-tier refutations, kept per node rather than per pair (pairs
    /// grow with the square of a class): each node's class, named by its
    /// first member, and the ordinal of its BDD among that class's
    /// distinct BDDs.
    bdd_bucket: HashMap<Var, (Var, usize)>,
    stats: SweepStats,
    next_cex_slot: usize,
    /// Tier-2 state, built on the first class that reaches the tier.
    bdd: Option<BddTier>,
}

/// Once the shared manager holds this many times
/// [`SweepConfig::bdd_cap`] nodes, it is emptied before the next class.
const BDD_MANAGER_CLASSES: usize = 8;

/// The BDD tier's state for one sweep, shared by all candidate classes:
/// BDDs are canonical under one variable order, so a node's BDD serves
/// every class that reaches it.
struct BddTier {
    mgr: BddManager,
    memo: AigBddMemo,
    /// Level of each cone input, by variable index: the inputs in index
    /// order. Every class's own support order is a subsequence of it.
    levels: Vec<u32>,
}

impl BddTier {
    fn new(aig: &Aig, roots: &[Lit]) -> BddTier {
        let support = aig.support_many(roots);
        let mut levels = vec![u32::MAX; support.last().map_or(0, |v| v.index() + 1)];
        for (i, v) in support.iter().enumerate() {
            levels[v.index()] = i as u32;
        }
        BddTier {
            mgr: BddManager::new(support.len()),
            memo: AigBddMemo::new(),
            levels,
        }
    }

    /// Starts a class: empties the manager if it outgrew its bound, and
    /// returns the node limit for the class's builds.
    fn begin_class(&mut self, bdd_cap: usize) -> usize {
        if self.mgr.num_nodes() > bdd_cap.saturating_mul(BDD_MANAGER_CLASSES) {
            self.mgr.reset(self.mgr.num_vars());
            self.memo.clear();
        }
        self.mgr.num_nodes().saturating_add(bdd_cap)
    }

    fn build(&mut self, aig: &Aig, root: Lit, cap: usize) -> Option<BddRef> {
        self.mgr
            .from_aig_memo(aig, root, &self.levels, &mut self.memo, cap)
    }
}

impl<'a> Sweeper<'a> {
    fn new(aig: &'a mut Aig, roots: &[Lit], cnf: &'a mut AigCnf, cfg: &'a SweepConfig) -> Self {
        let sim = BitSim::random(aig, cfg.sim_words.max(1), cfg.seed);
        Sweeper {
            aig,
            roots: roots.to_vec(),
            cnf,
            cfg,
            sim,
            merges: HashMap::new(),
            refuted: HashSet::new(),
            bdd_bucket: HashMap::new(),
            stats: SweepStats::default(),
            next_cex_slot: 0,
            bdd: None,
        }
    }

    /// Follows proven merges to the current representative literal of `l`.
    fn find(&self, l: Lit) -> Lit {
        let mut cur = l;
        while let Some(&next) = self.merges.get(&cur.var()) {
            cur = next.xor_sign(cur.is_complemented());
        }
        cur
    }

    /// The set of variables still needed by the roots, looking through
    /// proven merges (used by the backward order to skip dead points).
    fn needed_cone(&self) -> HashSet<Var> {
        let mut seen = HashSet::new();
        let mut stack: Vec<Var> = self.roots.iter().map(|r| self.find(*r).var()).collect();
        while let Some(v) = stack.pop() {
            if !seen.insert(v) {
                continue;
            }
            if let Node::And { f0, f1 } = self.aig.node(v) {
                for f in [f0, f1] {
                    stack.push(self.find(f).var());
                }
            }
        }
        seen
    }

    /// Groups cone nodes into candidate classes by normalised simulation
    /// signature. Class members are phase-carrying literals whose
    /// signatures are identical; the first member (lowest index) is the
    /// representative. The constant class (all-zero signature) is seeded
    /// with [`Lit::FALSE`].
    fn candidate_classes(&self) -> Vec<Vec<Lit>> {
        let cone = self.aig.collect_cone(&self.roots);
        let mut groups = cbq_aig::SigClasses::with_capacity(cone.len());
        // Seed the constant class so constant nodes merge to the constant.
        groups.insert(&vec![0; self.sim.words()], Lit::FALSE);
        for v in cone {
            if v == Var::CONST {
                continue;
            }
            let (sig, flip) = self.sim.normalized_signature(v.lit());
            groups.insert(&sig, v.lit().xor_sign(flip));
        }
        let mut classes: Vec<Vec<Lit>> = groups
            .into_entries()
            .into_iter()
            .map(|(_, members)| members)
            .filter(|members| members.len() > 1)
            .collect();
        for c in &mut classes {
            c.sort_unstable();
        }
        classes.sort_unstable_by_key(|c| c[0]);
        classes
    }

    fn record_merge(&mut self, member: Lit, repr: Lit) {
        debug_assert!(repr.var() < member.var());
        // member == repr  <=>  member.var() == repr.xor_sign(member phase)
        self.merges
            .insert(member.var(), repr.xor_sign(member.is_complemented()));
        // Learn the equivalence in the solver so later checks get simpler;
        // the guarded form dies with the cone generation it refers to.
        if let (Some(ms), Some(rs)) = (self.cnf.sat_lit(member), self.cnf.sat_lit(repr)) {
            self.cnf.learn_equiv(ms, rs);
        }
    }

    /// Tier 2: BDD sweeping inside one candidate class, in the sweep's
    /// shared manager. Returns the members that remain unresolved (BDD
    /// construction aborted).
    fn bdd_tier(&mut self, members: &[Lit]) -> Vec<Lit> {
        let mut tier = self
            .bdd
            .take()
            .unwrap_or_else(|| BddTier::new(self.aig, &self.roots));
        let cap = tier.begin_class(self.cfg.bdd_cap);
        let unresolved = self.bdd_class(members, |aig, root| tier.build(aig, root, cap));
        self.bdd = Some(tier);
        unresolved
    }

    /// Merges and refutes the members of one class by their BDDs; `build`
    /// returns `None` when a member's construction aborts. Returns the
    /// aborted members.
    fn bdd_class(
        &mut self,
        members: &[Lit],
        mut build: impl FnMut(&Aig, Lit) -> Option<BddRef>,
    ) -> Vec<Lit> {
        let class = members[0].var();
        let mut by_bdd: HashMap<BddRef, Lit> = HashMap::new();
        let mut unresolved = Vec::new();
        for &m in members {
            let resolved = self.find(m);
            match build(self.aig, resolved) {
                None => {
                    self.stats.bdd_aborted += 1;
                    unresolved.push(m);
                }
                Some(b) => {
                    if let Some(&repr) = by_bdd.get(&b) {
                        let repr = self.find(repr);
                        if repr.var() != resolved.var() {
                            let (lo, hi) = if repr.var() < resolved.var() {
                                (repr, resolved)
                            } else {
                                (resolved, repr)
                            };
                            self.record_merge(hi, lo);
                            self.stats.merged_bdd += 1;
                        }
                    } else {
                        // Canonicity: a new BDD refutes the pair with each
                        // earlier one of the class for good.
                        self.stats.refuted_bdd += by_bdd.len();
                        self.bdd_bucket
                            .insert(resolved.var(), (class, by_bdd.len()));
                        by_bdd.insert(b, resolved);
                    }
                }
            }
        }
        unresolved
    }

    /// Whether `a` and `b` are known to differ: a SAT counterexample told
    /// them apart, or they got different BDDs in one class.
    fn is_refuted(&self, a: Var, b: Var) -> bool {
        self.refuted.contains(&ordered(a, b))
            || matches!(
                (self.bdd_bucket.get(&a), self.bdd_bucket.get(&b)),
                (Some(x), Some(y)) if x.0 == y.0 && x.1 != y.1
            )
    }

    /// Tier 3: SAT check of `member ≡ repr`; on counterexample the pattern
    /// is injected into the simulator for the next refinement round.
    fn sat_tier_pair(&mut self, repr: Lit, member: Lit) -> bool {
        self.stats.sat_checks += 1;
        match self
            .cnf
            .prove_equiv(self.aig, repr, member, self.cfg.sat_budget)
        {
            EquivResult::Equiv => true,
            EquivResult::Unknown => {
                self.stats.sat_unknown += 1;
                false
            }
            EquivResult::NotEquiv(cex) => {
                self.stats.sat_cex += 1;
                self.refuted.insert(ordered(repr.var(), member.var()));
                let slot = self.next_cex_slot % self.sim.num_patterns();
                self.next_cex_slot += 1;
                self.sim.set_pattern(self.aig, slot, &cex);
                false
            }
        }
    }

    fn run(mut self) -> SweepResult {
        let mut first = true;
        for round in 0..self.cfg.max_rounds.max(1) {
            self.stats.rounds = round + 1;
            self.sim.run(self.aig);
            let mut classes = self.candidate_classes();
            if first {
                self.stats.classes_initial = classes.len();
            }
            match self.cfg.order {
                MergeOrder::Forward => {
                    classes.sort_unstable_by_key(|c| c[0].var());
                }
                MergeOrder::Backward => {
                    classes.sort_unstable_by_key(|c| {
                        std::cmp::Reverse(c.iter().map(|l| l.var()).max().unwrap())
                    });
                }
            }
            // BDD sweeping only in the first round: later rounds only see
            // classes the BDDs already failed on or that SAT refined.
            let use_bdd = self.cfg.use_bdd_sweep && first;
            first = false;
            let mut progress = false;
            let mut pending_pairs = 0usize;
            let mut cancelled = false;
            for class in classes {
                // Cooperative cancellation between candidate classes: stop
                // issuing checks, keep the merges already proven.
                if self.cfg.past_deadline() {
                    cancelled = true;
                    break;
                }
                let class = if use_bdd {
                    let unresolved = self.bdd_tier(&class);
                    if unresolved.len() < class.len() {
                        progress = true;
                    }
                    unresolved
                } else {
                    class
                };
                if !self.cfg.use_sat {
                    continue;
                }
                // Re-resolve members through merges accumulated so far.
                let needed = match self.cfg.order {
                    MergeOrder::Backward => Some(self.needed_cone()),
                    MergeOrder::Forward => None,
                };
                let mut resolved: Vec<Lit> = Vec::with_capacity(class.len());
                for m in class {
                    let r = self.find(m);
                    if let Some(n) = &needed {
                        if !n.contains(&r.var()) && !r.is_const() {
                            self.stats.skipped_out_of_cone += 1;
                            continue;
                        }
                    }
                    if !resolved.contains(&r) && !resolved.contains(&!r) {
                        resolved.push(r);
                    }
                }
                if resolved.len() < 2 {
                    continue;
                }
                resolved.sort_unstable();
                let repr = resolved[0];
                for &member in &resolved[1..] {
                    if self.is_refuted(repr.var(), member.var()) {
                        pending_pairs += 1;
                        continue;
                    }
                    if self.cfg.past_deadline() {
                        cancelled = true;
                        break;
                    }
                    if self.sat_tier_pair(repr, member) {
                        self.record_merge(member, repr);
                        self.stats.merged_sat += 1;
                        progress = true;
                    } else {
                        pending_pairs += 1;
                    }
                }
            }
            if cancelled || !progress || pending_pairs == 0 {
                break;
            }
        }
        let roots = apply_merges(self.aig, &self.roots, &self.merges);
        SweepResult {
            roots,
            stats: self.stats,
        }
    }
}

fn ordered(a: Var, b: Var) -> (Var, Var) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Rebuilds `roots` with every merged node replaced by (the rebuilt form
/// of) its representative, so equivalent sub-circuits become shared.
///
/// Unlike plain substitution, the replacement chases representatives
/// through the *rebuilt* graph, guaranteeing the merged cones share
/// structure.
pub fn apply_merges(aig: &mut Aig, roots: &[Lit], merges: &HashMap<Var, Lit>) -> Vec<Lit> {
    if merges.is_empty() {
        return roots.to_vec();
    }
    let cone = aig.collect_cone(roots);
    let top = cone.last().map_or(0, |v| v.index());
    let mut memo: Vec<Option<Lit>> = vec![None; top + 1];
    for v in cone {
        let rebuilt = match aig.node(v) {
            Node::Const => Lit::FALSE,
            Node::Input { .. } => v.lit(),
            Node::And { f0, f1 } => {
                let a = resolve(&memo, merges, f0);
                let b = resolve(&memo, merges, f1);
                aig.and(a, b)
            }
        };
        memo[v.index()] = Some(rebuilt);
    }
    roots.iter().map(|r| resolve(&memo, merges, *r)).collect()
}

/// Resolves an edge through merges (on original variables) and then the
/// rebuild memo, preserving phase.
fn resolve(memo: &[Option<Lit>], merges: &HashMap<Var, Lit>, l: Lit) -> Lit {
    let mut cur = l;
    while let Some(&next) = merges.get(&cur.var()) {
        cur = next.xor_sign(cur.is_complemented());
    }
    match memo.get(cur.var().index()).copied().flatten() {
        Some(m) => m.xor_sign(cur.is_complemented()),
        None => cur,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_two_ways(aig: &mut Aig) -> (Lit, Lit, Lit, Lit) {
        let a = aig.add_input().lit();
        let b = aig.add_input().lit();
        let x1 = aig.xor(a, b);
        let or = aig.or(a, b);
        let nand = !aig.and(a, b);
        let x2 = aig.and(or, nand);
        (a, b, x1, x2)
    }

    #[test]
    fn merges_equivalent_xor_constructions() {
        let mut aig = Aig::new();
        let (_, _, x1, x2) = xor_two_ways(&mut aig);
        assert_ne!(x1, x2); // strashing alone does not see it
        let mut cnf = AigCnf::new();
        let res = sweep(&mut aig, &[x1, x2], &mut cnf, &SweepConfig::default());
        assert_eq!(res.roots[0], res.roots[1]);
        assert!(res.stats.merged_bdd + res.stats.merged_sat >= 1);
    }

    #[test]
    fn sat_only_sweep_works() {
        let mut aig = Aig::new();
        let (_, _, x1, x2) = xor_two_ways(&mut aig);
        let mut cnf = AigCnf::new();
        let cfg = SweepConfig {
            use_bdd_sweep: false,
            ..SweepConfig::default()
        };
        let res = sweep(&mut aig, &[x1, x2], &mut cnf, &cfg);
        assert_eq!(res.roots[0], res.roots[1]);
        assert!(res.stats.merged_sat >= 1);
        assert_eq!(res.stats.merged_bdd, 0);
    }

    #[test]
    fn bdd_only_sweep_works() {
        let mut aig = Aig::new();
        let (_, _, x1, x2) = xor_two_ways(&mut aig);
        let mut cnf = AigCnf::new();
        let cfg = SweepConfig {
            use_sat: false,
            ..SweepConfig::default()
        };
        let res = sweep(&mut aig, &[x1, x2], &mut cnf, &cfg);
        assert_eq!(res.roots[0], res.roots[1]);
        assert!(res.stats.merged_bdd >= 1);
        assert_eq!(res.stats.merged_sat, 0);
    }

    #[test]
    fn constant_nodes_merge_to_constant() {
        let mut aig = Aig::new();
        let a = aig.add_input().lit();
        let b = aig.add_input().lit();
        // xor(a,b) & xnor(a,b) == false, invisible to local rewriting when
        // the xnor is built from a different structure.
        let x = aig.xor(a, b);
        let xn = {
            let both = aig.and(a, b);
            let neither = aig.and(!a, !b);
            aig.or(both, neither)
        };
        let dead = aig.and(x, xn);
        assert_ne!(dead, Lit::FALSE); // strash missed it
        let mut cnf = AigCnf::new();
        let res = sweep(&mut aig, &[dead], &mut cnf, &SweepConfig::default());
        assert_eq!(res.roots[0], Lit::FALSE);
    }

    #[test]
    fn complement_phase_merges() {
        let mut aig = Aig::new();
        let a = aig.add_input().lit();
        let b = aig.add_input().lit();
        let f = aig.xor(a, b);
        let nb = !b;
        let g = aig.xor(a, nb); // g == !f
        let mut cnf = AigCnf::new();
        let res = sweep(&mut aig, &[f, g], &mut cnf, &SweepConfig::default());
        assert_eq!(res.roots[0], !res.roots[1]);
    }

    #[test]
    fn inequivalent_roots_stay_separate_and_semantics_hold() {
        let mut aig = Aig::new();
        let ins: Vec<Lit> = (0..4).map(|_| aig.add_input().lit()).collect();
        let f = {
            let t = aig.and(ins[0], ins[1]);
            aig.or(t, ins[2])
        };
        let g = {
            let t = aig.and(ins[0], ins[1]);
            aig.or(t, ins[3])
        };
        let mut cnf = AigCnf::new();
        let res = sweep(&mut aig, &[f, g], &mut cnf, &SweepConfig::default());
        assert_ne!(res.roots[0].var(), res.roots[1].var());
        // Semantics preserved.
        for mask in 0..16u32 {
            let asg: Vec<bool> = (0..4).map(|i| (mask >> i) & 1 != 0).collect();
            assert_eq!(aig.eval(f, &asg), aig.eval(res.roots[0], &asg));
            assert_eq!(aig.eval(g, &asg), aig.eval(res.roots[1], &asg));
        }
    }

    #[test]
    fn backward_skips_inner_points_when_roots_merge() {
        // Two structurally different but equivalent mid-size circuits:
        // backward order should prove the roots equal and skip (some of)
        // the inner compare points.
        let mut aig = Aig::new();
        let ins: Vec<Lit> = (0..6).map(|_| aig.add_input().lit()).collect();
        let mut f = Lit::FALSE;
        for &x in &ins {
            f = aig.xor(f, x);
        }
        let mut g = Lit::FALSE;
        for &x in ins.iter().rev() {
            g = aig.xor(g, x);
        }
        let mut cnf_b = AigCnf::new();
        let cfg_b = SweepConfig {
            use_bdd_sweep: false,
            order: MergeOrder::Backward,
            ..SweepConfig::default()
        };
        let res_b = sweep(&mut aig, &[f, g], &mut cnf_b, &cfg_b);
        assert_eq!(res_b.roots[0], res_b.roots[1]);

        let mut cnf_f = AigCnf::new();
        let cfg_f = SweepConfig {
            use_bdd_sweep: false,
            order: MergeOrder::Forward,
            ..SweepConfig::default()
        };
        let mut aig2 = Aig::new();
        let ins2: Vec<Lit> = (0..6).map(|_| aig2.add_input().lit()).collect();
        let mut f2 = Lit::FALSE;
        for &x in &ins2 {
            f2 = aig2.xor(f2, x);
        }
        let mut g2 = Lit::FALSE;
        for &x in ins2.iter().rev() {
            g2 = aig2.xor(g2, x);
        }
        let res_f = sweep(&mut aig2, &[f2, g2], &mut cnf_f, &cfg_f);
        assert_eq!(res_f.roots[0], res_f.roots[1]);
        // Backward either skipped points or issued no more checks than forward.
        assert!(
            res_b.stats.skipped_out_of_cone > 0 || res_b.stats.sat_checks <= res_f.stats.sat_checks
        );
    }

    #[test]
    fn check_equiv_end_to_end() {
        let mut aig = Aig::new();
        let (_, _, x1, x2) = xor_two_ways(&mut aig);
        let mut cnf = AigCnf::new();
        assert!(check_equiv(&mut aig, x1, x2, &mut cnf, &SweepConfig::default()).is_equiv());
        let c = aig.add_input().lit();
        assert!(!check_equiv(&mut aig, x1, c, &mut cnf, &SweepConfig::default()).is_equiv());
    }

    #[test]
    fn miter_is_satisfiable_iff_different() {
        let mut aig = Aig::new();
        let (a, b, x1, x2) = xor_two_ways(&mut aig);
        let mut cnf = AigCnf::new();
        let m_eq = miter(&mut aig, x1, x2);
        assert_eq!(cnf.solve_under(&aig, &[m_eq]), cbq_sat::SatResult::Unsat);
        let m_diff = miter(&mut aig, a, b);
        assert_eq!(cnf.solve_under(&aig, &[m_diff]), cbq_sat::SatResult::Sat);
    }

    #[test]
    fn tiny_bdd_cap_falls_through_to_sat() {
        let mut aig = Aig::new();
        let (_, _, x1, x2) = xor_two_ways(&mut aig);
        let mut cnf = AigCnf::new();
        let cfg = SweepConfig {
            bdd_cap: 0,
            ..SweepConfig::default()
        };
        let res = sweep(&mut aig, &[x1, x2], &mut cnf, &cfg);
        assert_eq!(res.roots[0], res.roots[1]);
        assert!(res.stats.bdd_aborted >= 1);
        assert!(res.stats.merged_sat >= 1);
    }

    /// Deterministic xorshift stream for the randomized differential.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// One random formula over `ins`, built twice: `f` from plain gates,
    /// `g` from structurally different but equivalent constructions of
    /// the same gates, with about one operand in ten negated. The pair
    /// shares many equivalent nodes and differs in some.
    fn similar_pair(aig: &mut Aig, ins: &[Lit], rng: &mut Rng) -> (Lit, Lit) {
        let mut pf: Vec<Lit> = ins.to_vec();
        let mut pg: Vec<Lit> = ins.to_vec();
        for _ in 0..8 + rng.below(24) {
            let kind = rng.below(4);
            let idx = [0; 3].map(|_| rng.below(pf.len()));
            let neg = [0; 3].map(|_| rng.below(2) == 1);
            let [fa, fb, fc] = [0, 1, 2].map(|k| pf[idx[k]].xor_sign(neg[k]));
            let [mut ga, gb, gc] = [0, 1, 2].map(|k| pg[idx[k]].xor_sign(neg[k]));
            if rng.below(10) == 0 {
                ga = !ga;
            }
            let (f, g) = match kind {
                // a∧b  vs  (a∧b)∧(a∨c)
                0 => {
                    let f = aig.and(fa, fb);
                    let ab = aig.and(ga, gb);
                    let ac = aig.or(ga, gc);
                    (f, aig.and(ab, ac))
                }
                // a∨b  vs  a∨(b∧(b∨c))
                1 => {
                    let f = aig.or(fa, fb);
                    let bc = aig.or(gb, gc);
                    let b = aig.and(gb, bc);
                    (f, aig.or(ga, b))
                }
                // a⊕b  vs  (a∨b)∧¬(a∧b)
                2 => {
                    let f = aig.xor(fa, fb);
                    let or = aig.or(ga, gb);
                    let and = aig.and(ga, gb);
                    (f, aig.and(or, !and))
                }
                // a?b:c  vs  the same plus the consensus term b∧c
                _ => {
                    let f = aig.ite(fa, fb, fc);
                    let t = aig.ite(ga, gb, gc);
                    let bc = aig.and(gb, gc);
                    (f, aig.or(t, bc))
                }
            };
            pf.push(f);
            pg.push(g);
        }
        (*pf.last().unwrap(), *pg.last().unwrap())
    }

    /// The BDD-only sweep with a fresh manager per class, levelled by the
    /// class's own support: the tier as it was before the shared
    /// manager, kept here only as the differential reference.
    fn per_class_manager_sweep(aig: &mut Aig, roots: &[Lit], cfg: &SweepConfig) -> SweepResult {
        let mut cnf = AigCnf::new();
        let mut s = Sweeper::new(aig, roots, &mut cnf, cfg);
        s.stats.rounds = 1;
        s.sim.run(s.aig);
        let classes = s.candidate_classes();
        s.stats.classes_initial = classes.len();
        for class in classes {
            let resolved: Vec<Lit> = class.iter().map(|&m| s.find(m)).collect();
            let var_level: HashMap<Var, u32> = s
                .aig
                .support_many(&resolved)
                .into_iter()
                .enumerate()
                .map(|(i, v)| (v, i as u32))
                .collect();
            let mut mgr = BddManager::new(var_level.len());
            s.bdd_class(&class, |aig, root| {
                mgr.from_aig(aig, root, &var_level, usize::MAX)
            });
        }
        let roots = apply_merges(s.aig, &s.roots, &s.merges);
        SweepResult {
            roots,
            stats: s.stats,
        }
    }

    #[test]
    fn shared_bdd_tier_matches_per_class_managers() {
        let cfg = SweepConfig {
            use_sat: false,
            bdd_cap: usize::MAX,
            ..SweepConfig::default()
        };
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let (mut merged, mut aborted) = (0, 0);
        for case in 0..200 {
            let mut aig = Aig::new();
            let n = 2 + rng.below(9);
            let ins: Vec<Lit> = (0..n).map(|_| aig.add_input().lit()).collect();
            let (f, g) = similar_pair(&mut aig, &ins, &mut rng);
            let mut reference_aig = aig.clone();
            let reference = per_class_manager_sweep(&mut reference_aig, &[f, g], &cfg);
            let shared = sweep(&mut aig, &[f, g], &mut AigCnf::new(), &cfg);
            assert_eq!(shared.stats, reference.stats, "case {case}");
            merged += shared.stats.merged_bdd;
            // A cap this small aborts builds part-way and keeps emptying
            // the manager: merges must stay sound.
            let capped_cfg = SweepConfig {
                bdd_cap: 8,
                ..cfg.clone()
            };
            let capped = sweep(&mut aig, &[f, g], &mut AigCnf::new(), &capped_cfg);
            aborted += capped.stats.bdd_aborted;
            for mask in 0..1u32 << n {
                let asg: Vec<bool> = (0..n).map(|i| (mask >> i) & 1 != 0).collect();
                for (k, root) in [f, g].into_iter().enumerate() {
                    let want = aig.eval(root, &asg);
                    assert_eq!(aig.eval(shared.roots[k], &asg), want, "case {case}");
                    assert_eq!(aig.eval(capped.roots[k], &asg), want, "case {case}");
                    assert_eq!(
                        reference_aig.eval(reference.roots[k], &asg),
                        want,
                        "case {case}"
                    );
                }
            }
        }
        assert!(merged > 0, "the pairs must exercise BDD merges");
        assert!(aborted > 0, "the capped sweeps must abort builds");
    }

    #[test]
    fn apply_merges_preserves_semantics_on_chains() {
        let mut aig = Aig::new();
        let ins: Vec<Lit> = (0..5).map(|_| aig.add_input().lit()).collect();
        // A chain with redundant re-computation of the same subterm.
        let t1 = aig.and(ins[0], ins[1]);
        let t2 = {
            let o = aig.or(!ins[0], !ins[1]);
            !o // == t1 by De Morgan
        };
        let u1 = aig.or(t1, ins[2]);
        let u2 = aig.or(t2, ins[3]);
        let root = {
            let x = aig.xor(u1, u2);
            aig.or(x, ins[4])
        };
        let mut cnf = AigCnf::new();
        let res = sweep(&mut aig, &[root], &mut cnf, &SweepConfig::default());
        for mask in 0..32u32 {
            let asg: Vec<bool> = (0..5).map(|i| (mask >> i) & 1 != 0).collect();
            assert_eq!(aig.eval(root, &asg), aig.eval(res.roots[0], &asg));
        }
    }
}
