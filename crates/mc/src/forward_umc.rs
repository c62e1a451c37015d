//! Forward reachability with circuit-based quantification — an extension
//! beyond the paper's backward traversal, on the partitioned
//! [`StateSet`] representation.
//!
//! Backward pre-image enjoys free next-state elimination by in-lining;
//! forward **image** does not: `Img(R)(s') = ∃s,i. T(s,i,s') ∧ R(s)`
//! requires quantifying *all* current-state and input variables out of a
//! genuine transition-relation conjunction. This engine exercises the
//! quantification machinery far harder than pre-image and demonstrates
//! that the circuit representation supports both directions; the
//! residual policy (naive completion or all-solutions enumeration)
//! matters much more here, and so does the between-iterations state-set
//! sweep ([`crate::sweep`]) — image computation churns through far more
//! temporary nodes per step. Partitioning pays off accordingly: each
//! partition images its own window in its own manager, in parallel.
//!
//! Bad states are caught **one step ahead**: before building the image
//! of frontier `F`, each partition checks `F(s) ∧ T(s,i,s') ∧ bad(s',i')`
//! (with `i'` fresh input copies) by SAT. A hit is a counterexample one
//! step deeper than `F`, so the image that would contain the bad state is
//! never built. Every deeper frontier is covered this way, so the plain
//! `F ∧ bad` check runs only on the initial frontier.

use cbq_aig::{AigPerfCounters, Lit};
use cbq_ckt::{Network, Trace};
use cbq_cnf::AigCnfStats;
use cbq_core::QuantConfig;
use cbq_sat::{SatResult, SolverStats};

use crate::circuit_umc::{quantify_in_partition, ResidualPolicy};
use crate::engine::{Budget, Engine, Meter};
use crate::stateset::{read_vars, Partition, PartitionConfig, PartitionStats, StateSet};
use crate::sweep::{SweepConfig as StateSweepConfig, SweepStats};
use crate::verdict::{McRun, McStats, Resource, Verdict};

/// Forward-reachability model checker over partitioned AIG state sets.
#[derive(Clone, Debug)]
pub struct ForwardCircuitUmc {
    /// Quantification engine configuration.
    pub quant: QuantConfig,
    /// Residual-variable policy (see [`ResidualPolicy`]).
    pub residual: ResidualPolicy,
    /// Between-iterations state-set sweeping; `None` disables it.
    pub sweep: Option<StateSweepConfig>,
    /// Partitioned state-set configuration (default: monolithic).
    pub partition: PartitionConfig,
    /// Iteration bound.
    pub max_iterations: usize,
}

impl Default for ForwardCircuitUmc {
    fn default() -> ForwardCircuitUmc {
        ForwardCircuitUmc {
            quant: QuantConfig::full(),
            residual: ResidualPolicy::Enumerate { max_rounds: 10_000 },
            sweep: Some(StateSweepConfig::default()),
            partition: PartitionConfig::default(),
            max_iterations: 10_000,
        }
    }
}

/// Statistics of a [`ForwardCircuitUmc`] run.
#[derive(Clone, Debug, Default)]
pub struct ForwardCircuitUmcStats {
    /// Forward iterations executed.
    pub iterations: usize,
    /// AND-gate count of each frontier (over current-state vars, summed
    /// over partitions).
    pub frontier_sizes: Vec<usize>,
    /// Peak node count of the working AIG managers (summed over
    /// partitions).
    pub peak_nodes: usize,
    /// Input/state variables aborted by partial quantification, total.
    pub quant_aborts: usize,
    /// AIG-manager hot-path counters accumulated over every
    /// quantification (all partitions): strash probes, scratchpad walk
    /// nodes, cofactor-cache hits.
    pub quant_perf: AigPerfCounters,
    /// Cofactors enumerated by the residual policy, total.
    pub ganai_cofactors: usize,
    /// State-set sweeping counters (all partitions).
    pub sweep: SweepStats,
    /// Partition lifecycle counters.
    pub partitions: PartitionStats,
    /// SAT-bridge counters (all partitions): encodings, checks, cone
    /// retirements, learnt clauses retained across GCs.
    pub cnf: AigCnfStats,
    /// Solver-core counters (all partitions): conflicts, restarts, arena
    /// bytes, LBD histogram, reductions.
    pub solver: SolverStats,
}

/// Where a partition found a bad state.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Hit {
    /// In the frontier itself (only checked on the initial frontier).
    Frontier,
    /// In a successor of the frontier, one step deeper.
    Successor,
}

impl Hit {
    /// The SAT query whose models are this hit's counterexample ends:
    /// `F ∧ bad`, or `F(s) ∧ T(s,i,s') ∧ bad(s',i')`.
    fn query(self, p: &Partition, frontier: Lit) -> [Lit; 3] {
        match self {
            Hit::Frontier => [frontier, p.bad, Lit::TRUE],
            Hit::Successor => [frontier, p.trans, p.bad_next],
        }
    }
}

/// One partition worker's contribution to a forward iteration.
struct FwdStep {
    image: Lit,
    cex: Option<Hit>,
    bounded: Option<Verdict>,
    aborts: usize,
    cofactors: usize,
    perf: AigPerfCounters,
}

impl FwdStep {
    fn empty() -> FwdStep {
        FwdStep {
            image: Lit::FALSE,
            cex: None,
            bounded: None,
            aborts: 0,
            cofactors: 0,
            perf: AigPerfCounters::default(),
        }
    }
}

/// Bundles the typed stats into the uniform run record.
fn finish(
    verdict: Verdict,
    stats: ForwardCircuitUmcStats,
    sat_checks: u64,
    meter: &Meter,
) -> McRun {
    let common = McStats {
        engine: "forward",
        iterations: stats.iterations,
        peak_nodes: stats.peak_nodes,
        sat_checks,
        elapsed: meter.elapsed(),
    };
    McRun::new(verdict, common).with_detail(stats)
}

impl Engine for ForwardCircuitUmc {
    fn name(&self) -> &'static str {
        "forward"
    }

    /// Runs forward reachability on `net` within `budget`.
    fn check(&self, net: &Network, budget: &Budget) -> McRun {
        let meter = Meter::start(budget);
        let mut stats = ForwardCircuitUmcStats::default();
        let (verdict, sat_checks) = self.traverse(net, &meter, &mut stats);
        finish(verdict, stats, sat_checks, &meter)
    }
}

impl ForwardCircuitUmc {
    fn traverse(
        &self,
        net: &Network,
        meter: &Meter,
        stats: &mut ForwardCircuitUmcStats,
    ) -> (Verdict, u64) {
        let mut ss = StateSet::new_forward(
            net,
            self.partition.clone(),
            self.sweep.clone(),
            meter.deadline(),
            meter.node_limit(),
        );
        stats.peak_nodes = ss.total_nodes();
        if let Some(bounded) = meter.exceeded(0, ss.total_nodes(), 0) {
            let checks = self.seal(stats, &ss);
            return (bounded, checks);
        }
        ss.split_to_target();
        ss.record_iteration();
        stats.frontier_sizes.push(ss.frontier_size());

        for iter in 0..=self.max_iterations {
            let spent = ss.total_sat_checks();
            if let Some(bounded) = meter.exceeded(iter, ss.total_nodes(), spent) {
                let checks = self.seal(stats, &ss);
                return (bounded, checks);
            }
            stats.iterations = iter;
            // Per-partition bad check + image + quantification + sweep,
            // in parallel across the partitions' private managers.
            let steps = ss.par_map(|_, p| self.partition_step(p, iter, meter));
            if steps.iter().any(Option::is_none) {
                let verdict = Verdict::Unknown {
                    reason: format!(
                        "partition worker panicked (partitions {:?})",
                        ss.stats.worker_panics
                    ),
                };
                let checks = self.seal(stats, &ss);
                return (verdict, checks);
            }
            let steps: Vec<FwdStep> = steps.into_iter().flatten().collect();
            for step in &steps {
                stats.quant_aborts += step.aborts;
                stats.ganai_cofactors += step.cofactors;
                stats.quant_perf.add(step.perf);
            }
            if let Some(bounded) = steps.iter().find_map(|s| s.bounded.clone()) {
                let checks = self.seal(stats, &ss);
                return (bounded, checks);
            }
            // Counterexample: a frontier state, or failing that a
            // successor of one, fires bad under some input (shallowest
            // hit, then lowest partition index, for determinism).
            let hit = [Hit::Frontier, Hit::Successor].into_iter().find_map(|h| {
                let t = steps.iter().position(|s| s.cex == Some(h))?;
                Some((t, h))
            });
            if let Some((t, h)) = hit {
                let trace = self.extract_trace(&mut ss, iter, t, h);
                let checks = self.seal(stats, &ss);
                return (Verdict::Unsafe { trace }, checks);
            }
            let images: Vec<Lit> = steps.iter().map(|s| s.image).collect();
            let outcome = ss.merge_images(&images, false);
            if !outcome.any_new {
                let checks = self.seal(stats, &ss);
                return (
                    Verdict::Safe {
                        iterations: iter + 1,
                    },
                    checks,
                );
            }
            ss.prune_and_resplit();
            stats.peak_nodes = stats.peak_nodes.max(ss.total_nodes());
            stats.frontier_sizes.push(ss.frontier_size());
        }
        let checks = self.seal(stats, &ss);
        let verdict = Verdict::Unknown {
            reason: format!("iteration bound {} reached", self.max_iterations),
        };
        (verdict, checks)
    }

    /// One partition's share of a forward iteration: the bad-intersection
    /// checks (the frontier itself on iteration 0, its successors on
    /// every iteration), then image = quantify + rename, then the local
    /// sweep.
    fn partition_step(&self, p: &mut Partition, iter: usize, meter: &Meter) -> FwdStep {
        if let Some(bounded) = meter.exceeded(iter, p.aig.num_nodes(), 0) {
            return FwdStep {
                bounded: Some(bounded),
                ..FwdStep::empty()
            };
        }
        if p.frontier == Lit::FALSE {
            return FwdStep::empty();
        }
        let checks: &[Hit] = if iter == 0 {
            &[Hit::Frontier, Hit::Successor]
        } else {
            &[Hit::Successor]
        };
        let hit = checks.iter().copied().find(|h| {
            let query = h.query(p, p.frontier);
            p.cnf.solve_under(&p.aig, &query) == SatResult::Sat
        });
        if hit.is_some() {
            return FwdStep {
                cex: hit,
                ..FwdStep::empty()
            };
        }
        // Image: ∃s,i. T ∧ frontier, then rename s' → s.
        let conj = p.aig.and(p.trans, p.frontier);
        let elim = p.elim_vars();
        let q = quantify_in_partition(p, conj, &elim, &self.quant, self.residual);
        if !q.complete {
            let bounded = meter
                .exceeded(iter, p.aig.num_nodes(), 0)
                .unwrap_or(Verdict::Bounded {
                    resource: Resource::WallClock,
                    limit: 0,
                });
            return FwdStep {
                bounded: Some(bounded),
                aborts: q.aborts,
                cofactors: q.cofactors,
                perf: q.perf,
                ..FwdStep::empty()
            };
        }
        let rename = p.rename();
        let img = p.aig.compose(q.lit, &rename);
        let mut extra = [img];
        p.sweep_if_due(&mut extra);
        FwdStep {
            image: extra[0],
            cex: None,
            bounded: None,
            aborts: q.aborts,
            cofactors: q.cofactors,
            perf: q.perf,
        }
    }

    /// Final bookkeeping shared by every exit path; returns the SAT-check
    /// total for the common stats record.
    fn seal(&self, stats: &mut ForwardCircuitUmcStats, ss: &StateSet) -> u64 {
        stats.peak_nodes = stats.peak_nodes.max(ss.total_nodes());
        stats.sweep = ss.aggregate_sweep();
        stats.partitions = ss.stats.clone();
        stats.cnf = ss.aggregate_cnf();
        stats.solver = ss.aggregate_solver();
        ss.total_sat_checks()
    }

    /// Walks the counterexample backwards through the forward frontiers
    /// (searching partitions in index order at each level), then emits
    /// the input sequence in forward order. The walk starts from the
    /// frontier state of partition `t0` at `level` that `hit` found.
    fn extract_trace(&self, ss: &mut StateSet, level: usize, t0: usize, hit: Hit) -> Trace {
        // Concrete frontier state plus its input; a successor hit also
        // yields the bad input `i'` of the step after it.
        let (mut states_rev, mut inputs_rev) = {
            let p = &mut ss.parts[t0];
            let mut inputs_rev = Vec::new();
            let query = hit.query(p, p.frontiers[level]);
            let r = p.cnf.solve_under(&p.aig, &query);
            debug_assert_eq!(r, SatResult::Sat);
            if hit == Hit::Successor {
                inputs_rev.push(read_vars(&p.aig, &p.next_pis, &p.cnf));
            }
            inputs_rev.push(read_vars(&p.aig, &p.pis, &p.cnf));
            (vec![read_vars(&p.aig, &p.latches, &p.cnf)], inputs_rev)
        };
        for l in (0..level).rev() {
            let target = states_rev.last().expect("non-empty").clone();
            let mut found = false;
            for idx in 0..ss.parts.len() {
                let p = &mut ss.parts[idx];
                if p.frontiers.len() <= l || p.frontiers[l] == Lit::FALSE {
                    continue;
                }
                // Predecessor: F_l(s) ∧ (δ(s,i) == target).
                let eq = {
                    let eqs: Vec<Lit> = p
                        .deltas
                        .iter()
                        .zip(&target)
                        .map(|(delta, v)| delta.xor_sign(!v))
                        .collect();
                    p.aig.and_many(&eqs)
                };
                if p.cnf.solve_under(&p.aig, &[p.frontiers[l], eq]) == SatResult::Sat {
                    states_rev.push(read_vars(&p.aig, &p.latches, &p.cnf));
                    inputs_rev.push(read_vars(&p.aig, &p.pis, &p.cnf));
                    found = true;
                    break;
                }
            }
            debug_assert!(found, "predecessor must exist in some partition");
            if !found {
                break;
            }
        }
        inputs_rev.reverse();
        Trace::new(inputs_rev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stateset::{PartitionCount, SplitPolicy};
    use crate::testsupport::{check_safe, check_unsafe};
    use cbq_ckt::generators;

    #[test]
    fn safe_circuits_forward() {
        for net in [
            generators::token_ring(5),
            generators::bounded_counter(4, 9),
            generators::gray_counter(4),
            generators::mutex(),
            generators::lfsr(5, &[0, 2]),
        ] {
            check_safe(&ForwardCircuitUmc::default(), &net);
        }
    }

    #[test]
    fn unsafe_circuits_forward_with_minimal_traces() {
        for (net, depth) in [
            (generators::token_ring_bug(5), 3),
            (generators::mutex_bug(), 2),
            (generators::shift_ones(4), 4),
            (generators::counter_bug(4, 5), 5),
        ] {
            check_unsafe(&ForwardCircuitUmc::default(), &net, Some(depth));
        }
    }

    /// A 3-bit counter that counts while input `en` holds; bad fires at 5
    /// only when `go` is high and `en` low. Reaching bad needs `en` high
    /// on the step into 5 and low on the final step, so the one-step-ahead
    /// check must read fresh input copies for bad.
    fn counter_bad_reads_inputs() -> Network {
        let mut b = Network::builder("en-counter");
        let c = b.add_latch_word(3, 0);
        let en = b.add_input().lit();
        let go = b.add_input().lit();
        let aig = b.aig_mut();
        let mut carry = en;
        let mut next = Vec::new();
        for v in &c {
            next.push(aig.xor(v.lit(), carry));
            carry = aig.and(v.lit(), carry);
        }
        let five = aig.and_many(&[c[0].lit(), !c[1].lit(), c[2].lit()]);
        let bad = aig.and_many(&[five, go, !en]);
        for (v, n) in c.iter().zip(next) {
            b.set_next(*v, n);
        }
        b.build(bad)
    }

    #[test]
    fn successor_hits_read_fresh_input_copies() {
        let net = counter_bad_reads_inputs();
        let bmc = crate::bmc::Bmc::default().check(&net, &Budget::unlimited());
        let depth = match &bmc.verdict {
            Verdict::Unsafe { trace } => trace.len() - 1,
            other => panic!("BMC: expected unsafe, got {other}"),
        };
        assert_eq!(depth, 5);
        check_unsafe(&ForwardCircuitUmc::default(), &net, Some(depth));
        for policy in [SplitPolicy::LatchCofactor, SplitPolicy::FrontierOrigin] {
            let engine = ForwardCircuitUmc {
                partition: PartitionConfig {
                    split: policy,
                    ..PartitionConfig::with_count(PartitionCount::Fixed(3))
                },
                ..ForwardCircuitUmc::default()
            };
            check_unsafe(&engine, &net, Some(depth));
        }
    }

    #[test]
    fn forward_iterations_match_reachable_diameter() {
        // bounded_counter(3, 5): 5 reachable states (0..4), so the
        // frontier empties at iteration 5... plus the fixpoint check.
        let run = ForwardCircuitUmc::default()
            .check(&generators::bounded_counter(3, 5), &Budget::unlimited());
        match run.verdict {
            Verdict::Safe { iterations } => assert_eq!(iterations, 5),
            other => panic!("expected safe, got {other}"),
        }
    }

    #[test]
    fn naive_residual_policy_also_works() {
        let engine = ForwardCircuitUmc {
            residual: ResidualPolicy::Naive,
            ..ForwardCircuitUmc::default()
        };
        let run = engine.check(&generators::token_ring(4), &Budget::unlimited());
        assert!(run.verdict.is_safe());
    }

    #[test]
    fn eager_sweeping_agrees_forward() {
        for net in [generators::token_ring(4), generators::shift_ones(4)] {
            let plain = ForwardCircuitUmc {
                sweep: None,
                ..ForwardCircuitUmc::default()
            };
            let eager = ForwardCircuitUmc {
                sweep: Some(StateSweepConfig::eager()),
                ..ForwardCircuitUmc::default()
            };
            let rp = plain.check(&net, &Budget::unlimited());
            let re = eager.check(&net, &Budget::unlimited());
            // Concrete cex inputs may differ; classification and minimal
            // depth must not.
            match (&rp.verdict, &re.verdict) {
                (Verdict::Unsafe { trace: a }, Verdict::Unsafe { trace: b }) => {
                    assert_eq!(a.len(), b.len(), "{}: cex depth changed", net.name());
                }
                (a, b) => assert_eq!(a, b, "{}: sweep changed verdict", net.name()),
            }
            let de = re.detail::<ForwardCircuitUmcStats>().expect("stats");
            assert!(de.sweep.runs > 0, "{}: eager sweep never ran", net.name());
            if let Verdict::Unsafe { trace } = &re.verdict {
                assert!(trace.validates(&net), "{}: swept trace bogus", net.name());
            }
        }
    }

    #[test]
    fn partitioned_forward_agrees_with_monolithic() {
        for net in [
            generators::bounded_counter(3, 5),
            generators::token_ring(4),
            generators::token_ring_bug(5),
            generators::counter_bug(4, 5),
            generators::shift_ones(6),
            generators::counter_bug(5, 9),
        ] {
            let mono = ForwardCircuitUmc::default().check(&net, &Budget::unlimited());
            for policy in [SplitPolicy::LatchCofactor, SplitPolicy::FrontierOrigin] {
                let engine = ForwardCircuitUmc {
                    partition: PartitionConfig {
                        split: policy,
                        ..PartitionConfig::with_count(PartitionCount::Fixed(3))
                    },
                    ..ForwardCircuitUmc::default()
                };
                let run = engine.check(&net, &Budget::unlimited());
                match (&mono.verdict, &run.verdict) {
                    (Verdict::Unsafe { trace: a }, Verdict::Unsafe { trace: b }) => {
                        assert_eq!(
                            a.len(),
                            b.len(),
                            "{} ({policy:?}): cex depth changed",
                            net.name()
                        );
                        assert!(b.validates(&net), "{}: partitioned trace bogus", net.name());
                    }
                    (a, b) => assert_eq!(
                        a,
                        b,
                        "{} ({policy:?}): partitioning changed the verdict",
                        net.name()
                    ),
                }
                let detail = run.detail::<ForwardCircuitUmcStats>().expect("stats");
                assert!(
                    detail.partitions.trajectory.iter().any(|&n| n > 1),
                    "{} ({policy:?}): never actually partitioned",
                    net.name()
                );
            }
        }
    }
}
