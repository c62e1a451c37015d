//! Property-based tests of the BDD package: canonicity, Boolean algebra,
//! quantification semantics, AIG conversion agreement, the shared
//! AIG-node memo and manager reset.

use std::collections::HashMap;

use proptest::prelude::*;

use cbq_aig::{Aig, Lit, Var};
use cbq_bdd::{AigBddMemo, BddManager, BddRef};

const N: usize = 5;

#[derive(Clone, Debug)]
enum Op {
    And(usize, usize),
    Or(usize, usize),
    Xor(usize, usize),
    Not(usize),
    Ite(usize, usize, usize),
}

fn ops_strategy(max_ops: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Op::And(a, b)),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Op::Or(a, b)),
            (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Op::Xor(a, b)),
            any::<usize>().prop_map(Op::Not),
            (any::<usize>(), any::<usize>(), any::<usize>()).prop_map(|(a, b, c)| Op::Ite(a, b, c)),
        ],
        1..=max_ops,
    )
}

/// Every intermediate BDD of `ops`, the level projections first.
fn build_all(mgr: &mut BddManager, ops: &[Op]) -> Vec<BddRef> {
    let mut pool: Vec<BddRef> = (0..N as u32).map(|i| mgr.var(i)).collect();
    for op in ops {
        let pick = |i: usize| pool[i % pool.len()];
        let r = match *op {
            Op::And(a, b) => {
                let (x, y) = (pick(a), pick(b));
                mgr.and(x, y)
            }
            Op::Or(a, b) => {
                let (x, y) = (pick(a), pick(b));
                mgr.or(x, y)
            }
            Op::Xor(a, b) => {
                let (x, y) = (pick(a), pick(b));
                mgr.xor(x, y)
            }
            Op::Not(a) => {
                let x = pick(a);
                mgr.not(x)
            }
            Op::Ite(a, b, c) => {
                let (x, y, z) = (pick(a), pick(b), pick(c));
                mgr.ite(x, y, z)
            }
        };
        pool.push(r);
    }
    pool
}

fn build(mgr: &mut BddManager, ops: &[Op]) -> BddRef {
    *build_all(mgr, ops).last().expect("non-empty")
}

/// The same structure as [`build_all`], as an AIG over `N` inputs: the
/// AIG and every intermediate literal.
fn build_aig(ops: &[Op]) -> (Aig, Vec<Lit>) {
    let mut aig = Aig::new();
    let mut pool: Vec<Lit> = (0..N).map(|_| aig.add_input().lit()).collect();
    for op in ops {
        let pick = |i: usize| pool[i % pool.len()];
        let l = match *op {
            Op::And(a, b) => {
                let (x, y) = (pick(a), pick(b));
                aig.and(x, y)
            }
            Op::Or(a, b) => {
                let (x, y) = (pick(a), pick(b));
                aig.or(x, y)
            }
            Op::Xor(a, b) => {
                let (x, y) = (pick(a), pick(b));
                aig.xor(x, y)
            }
            Op::Not(a) => !pick(a),
            Op::Ite(a, b, c) => {
                let (x, y, z) = (pick(a), pick(b), pick(c));
                aig.ite(x, y, z)
            }
        };
        pool.push(l);
    }
    (aig, pool)
}

/// Level `i` for input `i`, as the map and as the dense table.
fn input_levels(aig: &Aig) -> (HashMap<Var, u32>, Vec<u32>) {
    let map: HashMap<Var, u32> = (0..N).map(|i| (aig.input_var(i), i as u32)).collect();
    let mut dense = vec![u32::MAX; aig.num_nodes()];
    for (v, &lvl) in &map {
        dense[v.index()] = lvl;
    }
    (map, dense)
}

fn assignment(mask: u32) -> Vec<bool> {
    (0..N).map(|i| (mask >> i) & 1 != 0).collect()
}

fn truth_table(mgr: &BddManager, f: BddRef) -> u64 {
    let mut tt = 0u64;
    for mask in 0..1u32 << N {
        if mgr.eval(f, &assignment(mask)) {
            tt |= 1 << mask;
        }
    }
    tt
}

/// Mask of all `2^(2^N)`-entry truth-table bits that are in use.
fn tt_mask() -> u64 {
    if (1usize << N) >= 64 {
        u64::MAX
    } else {
        (1u64 << (1 << N)) - 1
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Canonicity: equal truth tables iff equal node references.
    #[test]
    fn canonicity(ops1 in ops_strategy(16), ops2 in ops_strategy(16)) {
        let mut mgr = BddManager::new(N);
        let f = build(&mut mgr, &ops1);
        let g = build(&mut mgr, &ops2);
        prop_assert_eq!(truth_table(&mgr, f) == truth_table(&mgr, g), f == g);
    }

    /// Negation is an involution with complementary truth table.
    #[test]
    fn negation_involution(ops in ops_strategy(16)) {
        let mut mgr = BddManager::new(N);
        let f = build(&mut mgr, &ops);
        let nf = mgr.not(f);
        prop_assert_eq!(mgr.not(nf), f);
        prop_assert_eq!(truth_table(&mgr, nf), !truth_table(&mgr, f) & tt_mask());
    }

    /// ∃x.f evaluates as f|x=0 | f|x=1, and ∀x.f as the conjunction.
    #[test]
    fn quantification_semantics(ops in ops_strategy(16), vi in 0..N) {
        let mut mgr = BddManager::new(N);
        let f = build(&mut mgr, &ops);
        let ex = mgr.exists(f, &[vi as u32]);
        let all = mgr.forall(f, &[vi as u32]);
        let f1 = mgr.restrict(f, vi as u32, true);
        let f0 = mgr.restrict(f, vi as u32, false);
        let or = mgr.or(f1, f0);
        let and = mgr.and(f1, f0);
        prop_assert_eq!(ex, or);
        prop_assert_eq!(all, and);
    }

    /// sat_count matches exhaustive counting.
    #[test]
    fn sat_count_is_exact(ops in ops_strategy(16)) {
        let mut mgr = BddManager::new(N);
        let f = build(&mut mgr, &ops);
        let expect = truth_table(&mgr, f).count_ones() as f64;
        prop_assert_eq!(mgr.sat_count(f), expect);
    }

    /// one_sat returns a genuine satisfying assignment.
    #[test]
    fn one_sat_is_sound(ops in ops_strategy(16)) {
        let mut mgr = BddManager::new(N);
        let f = build(&mut mgr, &ops);
        match mgr.one_sat(f) {
            None => prop_assert_eq!(f, BddRef::ZERO),
            Some(partial) => {
                let asg: Vec<bool> = partial.iter().map(|o| o.unwrap_or(false)).collect();
                prop_assert!(mgr.eval(f, &asg));
            }
        }
    }

    /// AIG → BDD → AIG round-trips preserve the function.
    #[test]
    fn aig_bdd_roundtrip(ops in ops_strategy(16)) {
        let (mut aig, pool) = build_aig(&ops);
        let root = *pool.last().expect("non-empty");
        let (var_level, _) = input_levels(&aig);
        let mut mgr = BddManager::new(N);
        let b = mgr.from_aig(&aig, root, &var_level, usize::MAX).unwrap();
        let lits: Vec<Lit> = (0..N).map(|i| aig.input_var(i).lit()).collect();
        let back = mgr.to_aig(&mut aig, b, &lits);
        for mask in 0..1u32 << N {
            let asg = assignment(mask);
            prop_assert_eq!(aig.eval(root, &asg), aig.eval(back, &asg));
            prop_assert_eq!(aig.eval(root, &asg), mgr.eval(b, &asg));
        }
    }

    /// Roots built one after another through one shared memo get the
    /// same node as a one-shot build in the same manager, and the AIG's
    /// truth table.
    #[test]
    fn shared_memo_matches_one_shot_builds(
        ops in ops_strategy(24),
        picks in prop::collection::vec(any::<usize>(), 1..6),
    ) {
        let (aig, pool) = build_aig(&ops);
        let (var_level, levels) = input_levels(&aig);
        let mut mgr = BddManager::new(N);
        let mut memo = AigBddMemo::new();
        for pick in picks {
            let root = pool[pick % pool.len()];
            let shared = mgr
                .from_aig_memo(&aig, root, &levels, &mut memo, usize::MAX)
                .unwrap();
            let one_shot = mgr.from_aig(&aig, root, &var_level, usize::MAX).unwrap();
            prop_assert_eq!(shared, one_shot);
            for mask in 0..1u32 << N {
                let asg = assignment(mask);
                prop_assert_eq!(mgr.eval(shared, &asg), aig.eval(root, &asg));
            }
        }
    }

    /// A reset manager numbers every node exactly like a fresh one.
    #[test]
    fn reset_numbers_like_fresh(ops1 in ops_strategy(16), ops2 in ops_strategy(16)) {
        let mut reused = BddManager::new(N);
        build(&mut reused, &ops1);
        reused.reset(N);
        prop_assert_eq!(reused.num_nodes(), 2);
        let again = build_all(&mut reused, &ops2);
        let mut fresh = BddManager::new(N);
        let expect = build_all(&mut fresh, &ops2);
        prop_assert_eq!(again, expect);
        prop_assert_eq!(reused.num_nodes(), fresh.num_nodes());
        prop_assert_eq!(reused.num_vars(), fresh.num_vars());
    }
}
