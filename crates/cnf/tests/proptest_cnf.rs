//! Property-based differential tests of the activation-literal cone
//! lifetimes: a persistent [`AigCnf`] driven through add/solve/retire
//! cycles must answer exactly like a fresh bridge at every step, in both
//! lifetime modes, across manager compactions. A second workload pins
//! cone-scoped checks against whole-database solves and the exhaustive
//! reference solver.

use std::cell::Cell;
use std::collections::HashMap;

use proptest::prelude::*;

use cbq_aig::{Aig, Lit, Node, Var};
use cbq_cnf::{AigCnf, CnfLifetime, EquivResult};
use cbq_sat::reference::ReferenceSolver;
use cbq_sat::SatResult;

/// A recipe for building a random combinational cone over `N` inputs.
#[derive(Clone, Debug)]
enum GateOp {
    And(usize, bool, usize, bool),
    Xor(usize, bool, usize, bool),
}

fn ops_strategy(max_ops: usize) -> impl Strategy<Value = Vec<GateOp>> {
    prop::collection::vec(
        prop_oneof![
            (any::<usize>(), any::<bool>(), any::<usize>(), any::<bool>())
                .prop_map(|(a, pa, b, pb)| GateOp::And(a, pa, b, pb)),
            (any::<usize>(), any::<bool>(), any::<usize>(), any::<bool>())
                .prop_map(|(a, pa, b, pb)| GateOp::Xor(a, pa, b, pb)),
        ],
        2..=max_ops,
    )
}

const N: usize = 6;

/// Materialises a recipe; returns the AIG and the last three literals
/// built (the roots the workload checks and the GC keeps alive).
fn build(ops: &[GateOp]) -> (Aig, Vec<Lit>) {
    let mut aig = Aig::new();
    let mut pool: Vec<Lit> = (0..N).map(|_| aig.add_input().lit()).collect();
    for op in ops {
        let pick = |i: usize| pool[i % pool.len()];
        let l = match *op {
            GateOp::And(a, pa, b, pb) => {
                let x = pick(a).xor_sign(pa);
                let y = pick(b).xor_sign(pb);
                aig.and(x, y)
            }
            GateOp::Xor(a, pa, b, pb) => {
                let x = pick(a).xor_sign(pa);
                let y = pick(b).xor_sign(pb);
                aig.xor(x, y)
            }
        };
        pool.push(l);
    }
    let roots: Vec<Lit> = pool[pool.len().saturating_sub(3)..].to_vec();
    (aig, roots)
}

/// Exhaustive satisfiability of `root` over all 2^N input assignments.
fn oracle_sat(aig: &Aig, root: Lit) -> bool {
    (0..1u32 << N).any(|mask| {
        let asg: Vec<bool> = (0..N).map(|i| (mask >> i) & 1 != 0).collect();
        aig.eval(root, &asg)
    })
}

/// Exhaustive equivalence of two roots.
fn oracle_equiv(aig: &Aig, a: Lit, b: Lit) -> bool {
    (0..1u32 << N).all(|mask| {
        let asg: Vec<bool> = (0..N).map(|i| (mask >> i) & 1 != 0).collect();
        aig.eval(a, &asg) == aig.eval(b, &asg)
    })
}

/// How the bridge is carried across the per-round manager compaction.
#[derive(Copy, Clone, Debug, PartialEq)]
enum GcHandoff {
    /// `AigCnf::retire_cones` — the whole generation is disabled and the
    /// next round re-encodes.
    Retire,
    /// `AigCnf::migrate` — surviving cones keep their SAT variables (the
    /// sweep-GC path).
    Migrate,
}

/// Runs the workload rounds against one persistent bridge: every check is
/// compared to the exhaustive oracle, then the manager is compacted and
/// the bridge handed across (retired or migrated), and the next round
/// continues on the new manager.
fn drive(mut aig: Aig, mut roots: Vec<Lit>, lifetime: CnfLifetime, handoff: GcHandoff) {
    let rounds = 3;
    let mut cnf = AigCnf::with_lifetime(lifetime);
    for round in 0..rounds {
        for &r in &roots {
            let expect = oracle_sat(&aig, r);
            let got = cnf.solve_under(&aig, &[r]);
            assert_eq!(
                got.is_sat(),
                expect,
                "round {round} ({lifetime:?}): solve_under disagrees with the oracle on {r:?}"
            );
            if got == SatResult::Sat {
                let m = cnf.model_inputs(&aig);
                assert!(aig.eval(r, &m), "round {round}: model does not satisfy");
            }
        }
        for i in 0..roots.len() {
            for j in i + 1..roots.len() {
                let expect = oracle_equiv(&aig, roots[i], roots[j]);
                match cnf.prove_equiv(&aig, roots[i], roots[j], None) {
                    EquivResult::Equiv => assert!(expect, "round {round}: bogus Equiv"),
                    EquivResult::NotEquiv(cex) => {
                        assert!(!expect, "round {round}: bogus NotEquiv");
                        assert_ne!(
                            aig.eval(roots[i], &cex),
                            aig.eval(roots[j], &cex),
                            "round {round}: counterexample does not distinguish"
                        );
                    }
                    EquivResult::Unknown => panic!("no budget was set"),
                }
            }
        }
        // The engines' sweep-GC step: compact the manager around the live
        // roots and hand the bridge across.
        let (packed, packed_roots, var_map) = aig.compact_with_map(&roots);
        match handoff {
            GcHandoff::Retire => {
                cnf.retire_cones();
                assert_eq!(cnf.stats().retirements as usize, round + 1);
            }
            GcHandoff::Migrate => {
                cnf.migrate(&var_map, packed.num_nodes());
                assert_eq!(
                    (cnf.stats().migrations + cnf.stats().retirements) as usize,
                    round + 1
                );
            }
        }
        aig = packed;
        roots = packed_roots;
    }
    if lifetime == CnfLifetime::Rebuild {
        assert_eq!(cnf.stats().learnts_retained, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Activation-mode add/retire cycles agree with the exhaustive oracle
    /// at every round (the persistent solver never contaminates a later
    /// generation) and models/counterexamples stay concrete.
    #[test]
    fn activation_retire_cycles_agree_with_oracle(ops in ops_strategy(20)) {
        let (aig, roots) = build(&ops);
        drive(aig, roots, CnfLifetime::Activation, GcHandoff::Retire);
    }

    /// The sweep-GC path: add/solve/*migrate* cycles — surviving cones
    /// keep their SAT variables (strash-collision losers, constant
    /// mappings, and orphan purging included) and every post-migration
    /// answer still matches the exhaustive oracle.
    #[test]
    fn activation_migrate_cycles_agree_with_oracle(ops in ops_strategy(20)) {
        let (aig, roots) = build(&ops);
        drive(aig, roots, CnfLifetime::Activation, GcHandoff::Migrate);
    }

    /// The rebuild ablation mode answers identically (it is the old
    /// fresh-bridge-after-GC behaviour), whichever hand-off the sweep
    /// asks for.
    #[test]
    fn rebuild_cycles_agree_with_oracle(ops in ops_strategy(20)) {
        let (aig, roots) = build(&ops);
        drive(aig.clone(), roots.clone(), CnfLifetime::Rebuild, GcHandoff::Retire);
        drive(aig, roots, CnfLifetime::Rebuild, GcHandoff::Migrate);
    }

    /// Interleaved generation checks: queries answered *after* a retire
    /// must not be influenced by constraints asserted *before* it.
    #[test]
    fn assertions_die_with_their_generation(ops in ops_strategy(16)) {
        let (aig, roots) = build(&ops);
        let root = roots[0];
        // Constrain generation 0 to `root` (only meaningful when `root`
        // is satisfiable — otherwise the recipe is skipped).
        if oracle_sat(&aig, root) {
            let mut cnf = AigCnf::new();
            assert!(cnf.assert_lit(&aig, root));
            assert_eq!(cnf.solve_under(&aig, &[!root]), SatResult::Unsat);
            cnf.retire_cones();
            // Generation 1: the negation must be decidable purely by the
            // oracle again.
            let expect_neg = oracle_sat(&aig, !root);
            assert_eq!(cnf.solve_under(&aig, &[!root]).is_sat(), expect_neg);
        }
    }
}

/// One step of a scoped-solve workload.
#[derive(Clone, Debug)]
enum Step {
    /// Solve under one to three pool literals (pool index, negated).
    Query(Vec<(usize, bool)>),
    /// Prove two pool literals equivalent; a proven pair is learnt as an
    /// equivalence on the database, as the sweeping engines do.
    Equiv(usize, usize),
    /// Merge functionally equal nodes while compacting the manager, then
    /// migrate the bridge (the sweep-GC path, strash collisions included).
    Migrate,
    /// Retire the whole cone generation.
    Retire,
}

fn steps_strategy(max_steps: usize) -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (
            any::<u8>(),
            prop::collection::vec((any::<usize>(), any::<bool>()), 1..=3),
        )
            .prop_map(|(kind, lits)| match kind % 10 {
                0 => Step::Migrate,
                1 => Step::Retire,
                2 | 3 => Step::Equiv(lits[0].0, lits[lits.len() - 1].0),
                _ => Step::Query(lits),
            }),
        4..=max_steps,
    )
}

/// Truth tables over the `N` inputs, one bit per assignment.
const TT_MASK: u64 = if N >= 6 { !0 } else { (1 << (1 << N)) - 1 };

fn input_tt(ordinal: usize) -> u64 {
    (0..1u32 << N)
        .filter(|m| (m >> ordinal) & 1 == 1)
        .fold(0, |acc, m| acc | 1 << m)
}

/// Rebuilds the cone of `roots` in a fresh manager, merging every node
/// into the first earlier node computing the same function (or its
/// complement) and constant functions into constants — what a fraiging
/// sweep followed by compaction does, so equivalent old nodes collide on
/// one survivor. Returns the new manager, the old → new map the bridge
/// migrates with, and the number of collisions.
fn merge_compact(aig: &Aig, roots: &[Lit]) -> (Aig, Vec<Option<Lit>>, usize) {
    let mut out = Aig::with_inputs(aig.num_inputs());
    let mut map: Vec<Option<Lit>> = vec![None; aig.num_nodes()];
    let mut tt = vec![0u64; aig.num_nodes()];
    for i in 0..aig.num_inputs() {
        let v = aig.input_var(i);
        map[v.index()] = Some(out.input_var(i).lit());
        tt[v.index()] = input_tt(i);
    }
    map[Var::CONST.index()] = Some(Lit::FALSE);
    let lit_tt = |tt: &[u64], l: Lit| {
        let t = tt[l.var().index()];
        if l.is_complemented() {
            !t & TT_MASK
        } else {
            t
        }
    };
    let mut reps: HashMap<u64, Lit> = HashMap::new();
    let mut collisions = 0;
    for v in aig.collect_cone(roots) {
        let Node::And { f0, f1 } = aig.node(v) else {
            continue;
        };
        let t = lit_tt(&tt, f0) & lit_tt(&tt, f1);
        tt[v.index()] = t;
        let flip = t & 1 == 1;
        let canon = if flip { !t & TT_MASK } else { t };
        let new_lit = if canon == 0 {
            Lit::FALSE
        } else if let Some(&rep) = reps.get(&canon) {
            collisions += 1;
            rep
        } else {
            let a = map[f0.var().index()]
                .unwrap()
                .xor_sign(f0.is_complemented());
            let b = map[f1.var().index()]
                .unwrap()
                .xor_sign(f1.is_complemented());
            let nl = out.and(a, b).xor_sign(flip);
            reps.insert(canon, nl);
            nl
        };
        map[v.index()] = Some(new_lit.xor_sign(flip));
    }
    (out, map, collisions)
}

/// The reference solver's verdict on `lits`, over a fresh Tseitin
/// encoding of their cone; `None` when the cone is too large to
/// enumerate quickly.
fn reference_sat(aig: &Aig, lits: &[Lit]) -> Option<bool> {
    let cone = aig.collect_cone(lits);
    if cone.len() > 16 {
        return None;
    }
    let mut r = ReferenceSolver::new();
    let mut var_of = HashMap::new();
    let sat_lit =
        |var_of: &HashMap<Var, cbq_sat::SatVar>, l: Lit| var_of[&l.var()].lit(!l.is_complemented());
    for v in cone {
        let sv = r.new_var();
        var_of.insert(v, sv);
        match aig.node(v) {
            Node::Const => {
                r.add_clause(&[sv.neg()]);
            }
            Node::Input { .. } => {}
            Node::And { f0, f1 } => {
                let (a, b) = (sat_lit(&var_of, f0), sat_lit(&var_of, f1));
                r.add_clause(&[sv.neg(), a]);
                r.add_clause(&[sv.neg(), b]);
                r.add_clause(&[sv.pos(), !a, !b]);
            }
        }
    }
    let assumptions: Vec<_> = lits.iter().map(|&l| sat_lit(&var_of, l)).collect();
    Some(r.solve_with(&assumptions) == SatResult::Sat)
}

/// Exhaustive satisfiability of a conjunction over all input assignments.
fn oracle_sat_all(aig: &Aig, lits: &[Lit]) -> bool {
    (0..1u32 << N).any(|mask| {
        let asg: Vec<bool> = (0..N).map(|i| (mask >> i) & 1 != 0).collect();
        lits.iter().all(|&l| aig.eval(l, &asg))
    })
}

/// Scoped checks on random AIGs with shared sub-cones, interleaved with
/// equivalence learning, migrations (strash collisions included) and
/// retirements: every answer must equal the whole-database answer of a
/// twin bridge driven identically, the reference solver's answer, and the
/// exhaustive oracle; every model must satisfy the assumed literals.
#[test]
fn scoped_checks_agree_with_whole_database_solves() {
    let scoped = Cell::new(0u64);
    let collided = Cell::new(0usize);
    let mut runner = TestRunner::new(
        ProptestConfig::with_cases(64),
        "proptest_cnf::scoped_checks_agree_with_whole_database_solves",
    );
    runner.run(&(ops_strategy(16), steps_strategy(24)), |(ops, steps)| {
        let (mut aig, _) = build(&ops);
        let mut pool: Vec<Lit> = (0..aig.num_nodes())
            .map(|i| Var::from_index(i).lit())
            .collect();
        let mut cnf = AigCnf::new();
        // Raw solver access switches a bridge to whole-database solves.
        let mut twin = AigCnf::new();
        let _ = twin.solver_mut();
        prop_assert!(cnf.is_cone_scoped() && !twin.is_cone_scoped());
        for (k, step) in steps.iter().enumerate() {
            match step {
                Step::Query(picks) => {
                    let lits: Vec<Lit> = picks
                        .iter()
                        .map(|&(i, neg)| pool[i % pool.len()].xor_sign(neg))
                        .collect();
                    let expect = oracle_sat_all(&aig, &lits);
                    let got = cnf.solve_under(&aig, &lits);
                    prop_assert_eq!(got.is_sat(), expect, "step {}: scoped vs oracle", k);
                    if got == SatResult::Sat {
                        let m = cnf.model_inputs(&aig);
                        for &l in &lits {
                            prop_assert!(aig.eval(l, &m), "step {}: model misses {:?}", k, l);
                        }
                    }
                    prop_assert_eq!(twin.solve_under(&aig, &lits), got, "step {}: twin", k);
                    if let Some(r) = reference_sat(&aig, &lits) {
                        prop_assert_eq!(r, expect, "step {}: reference", k);
                    }
                }
                &Step::Equiv(i, j) => {
                    let (a, b) = (pool[i % pool.len()], pool[j % pool.len()]);
                    let got = cnf.prove_equiv(&aig, a, b, None);
                    prop_assert_eq!(
                        twin.prove_equiv(&aig, a, b, None).is_equiv(),
                        got.is_equiv(),
                        "step {}: twin equivalence",
                        k
                    );
                    match got {
                        EquivResult::Equiv => {
                            prop_assert!(oracle_equiv(&aig, a, b), "step {}: bogus Equiv", k);
                            for c in [&mut cnf, &mut twin] {
                                if let (Some(sa), Some(sb)) = (c.sat_lit(a), c.sat_lit(b)) {
                                    c.learn_equiv(sa, sb);
                                }
                            }
                        }
                        EquivResult::NotEquiv(cex) => {
                            prop_assert!(aig.eval(a, &cex) != aig.eval(b, &cex));
                        }
                        EquivResult::Unknown => prop_assert!(false, "no budget was set"),
                    }
                }
                Step::Migrate => {
                    let (packed, map, collisions) = merge_compact(&aig, &pool);
                    collided.set(collided.get() + collisions);
                    cnf.migrate(&map, packed.num_nodes());
                    twin.migrate(&map, packed.num_nodes());
                    pool = pool
                        .iter()
                        .map(|l| map[l.var().index()].unwrap().xor_sign(l.is_complemented()))
                        .collect();
                    aig = packed;
                }
                Step::Retire => {
                    cnf.retire_cones();
                    twin.retire_cones();
                }
            }
        }
        prop_assert_eq!(twin.solver_stats().scoped_solves, 0);
        scoped.set(scoped.get() + cnf.solver_stats().scoped_solves);
        Ok(())
    });
    assert!(
        scoped.get() > 0,
        "no check was ever answered inside its cone"
    );
    assert!(
        collided.get() > 0,
        "no migration produced a strash collision"
    );
}
