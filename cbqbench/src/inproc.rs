//! The in-process workloads, `circuit-quant` and `ic3-deep`: one
//! `Engine::check` at a time on models parsed from AIGER text.

use std::collections::BTreeMap;
use std::time::Instant;

use cbq_aig::Lit;
use cbq_cec::sweep;
use cbq_ckt::Network;
use cbq_cnf::AigCnf;
use cbq_core::exists_many;
use cbq_mc::preimage::preimage_formula;
use cbq_mc::{
    by_name, Budget, CircuitUmc, CircuitUmcStats, ForwardCircuitUmcStats, Ic3Stats, McRun, Verdict,
};
use cbq_sat::SatResult;

use crate::common::{
    judge, median, min_rounds, peak_rss_mb, set_up, Counters, Outcome, EXTRA_SETUPS,
};
use crate::jobs::JobSpec;
use crate::report::{JobRow, RunReport};
use crate::trace::Tracer;

/// Span name of an engine's `check` call.
fn check_span(engine: &str) -> &'static str {
    match engine {
        "circuit" => "mc.circuit.check",
        "forward" => "mc.forward.check",
        "ic3" => "mc.ic3.check",
        _ => "mc.check",
    }
}

/// The counters of one run, read from the stats structs it returns.
fn run_counters(run: &McRun) -> Counters {
    let mut c = Counters::default();
    let (cnf, solver) = if let Some(d) = run.detail::<CircuitUmcStats>() {
        c.add("mc.iterations", d.iterations as f64);
        c.add("mc.peak_nodes", d.peak_nodes as f64);
        c.add("mc.reached_size", d.reached_size as f64);
        c.add("mc.sweep.runs", d.sweep.runs as f64);
        c.add("mc.sweep.reclaimed", d.sweep.reclaimed() as f64);
        c.add("aig.strash_probes", d.quant_perf.strash_probes as f64);
        c.add("aig.walk_nodes", d.quant_perf.scratch_walk_nodes as f64);
        c.add("aig.cofactor_hits", d.quant_perf.cofactor_cache_hits as f64);
        (d.cnf, d.solver)
    } else if let Some(d) = run.detail::<ForwardCircuitUmcStats>() {
        c.add("mc.iterations", d.iterations as f64);
        c.add("mc.peak_nodes", d.peak_nodes as f64);
        c.add("mc.sweep.runs", d.sweep.runs as f64);
        c.add("mc.sweep.reclaimed", d.sweep.reclaimed() as f64);
        c.add("aig.strash_probes", d.quant_perf.strash_probes as f64);
        c.add("aig.walk_nodes", d.quant_perf.scratch_walk_nodes as f64);
        c.add("aig.cofactor_hits", d.quant_perf.cofactor_cache_hits as f64);
        (d.cnf, d.solver)
    } else if let Some(d) = run.detail::<Ic3Stats>() {
        c.add("mc.ic3.obligations", d.obligations as f64);
        c.add("mc.ic3.clauses", d.clauses as f64);
        c.add("mc.ic3.pushed", d.pushed as f64);
        c.add("mc.ic3.ctg_blocked", d.ctg_blocked as f64);
        c.add("mc.ic3.sat_checks", run.stats.sat_checks as f64);
        (d.cnf, d.solver)
    } else {
        return c;
    };
    c.add("cnf.encoded_ands", cnf.encoded_ands as f64);
    c.add("cnf.checks", cnf.checks as f64);
    c.add("cnf.migrations", cnf.migrations as f64);
    c.add("sat.solves", solver.solves as f64);
    c.add("sat.conflicts", solver.conflicts as f64);
    c.add("sat.propagations", solver.propagations as f64);
    c
}

/// One finished job, kept until the round's timing is over.
struct Done {
    run: McRun,
    secs: f64,
}

fn outcome_of(run: &McRun) -> Outcome {
    match &run.verdict {
        Verdict::Safe { .. } => Outcome::Safe,
        Verdict::Unsafe { trace } => Outcome::Unsafe(trace.len() - 1),
        Verdict::Bounded { .. } => Outcome::Bounded,
        Verdict::Unknown { .. } => Outcome::Unknown,
    }
}

/// Runs `jobs` in rounds until `seconds` have passed (and at least
/// [`min_rounds`]). With `traced`, rounds alternate untraced and traced so
/// one run yields both walls; the replay follows the rounds.
pub fn run(jobs: &[JobSpec], seconds: f64, traced: bool, replay: bool) -> RunReport {
    let mut tr = Tracer::new(false);
    let mut rep = RunReport::new(jobs.len());
    let mut secs_by_job: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    let mut outcomes: Vec<Outcome> = vec![Outcome::Unknown; jobs.len()];
    let mut counters_by_job: Vec<Counters> = vec![Counters::default(); jobs.len()];
    let mut round_counters: Vec<Counters> = Vec::new();
    let mut self_by_round: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    for _ in 0..EXTRA_SETUPS {
        rep.setups.push(set_up(jobs, &tr).1);
    }
    let at_least = min_rounds(jobs.len(), traced);
    let start = Instant::now();
    let mut round = 0usize;
    let mut last_models = None;
    while round < at_least || start.elapsed().as_secs_f64() < seconds {
        let traced_round = traced && round % 2 == 1;
        tr.set_on(traced_round);
        let mark = tr.mark();
        let (models, setup_s) = set_up(jobs, &tr);
        rep.setups.push(setup_s);
        let mut done: Vec<Done> = Vec::with_capacity(jobs.len());
        let t0 = Instant::now();
        tr.span("bench.round", 0, || {
            for (i, job) in jobs.iter().enumerate() {
                let engine = by_name(job.engine).expect("workload engines are registered");
                let budget = Budget::unlimited().with_timeout(job.limit);
                let j0 = Instant::now();
                let run = tr.span(check_span(job.engine), i as u64, || {
                    engine.check(&models.nets[i], &budget)
                });
                done.push(Done {
                    run,
                    secs: j0.elapsed().as_secs_f64(),
                });
            }
        });
        let wall = t0.elapsed().as_secs_f64();
        if traced_round {
            rep.traced_walls.push(wall);
        } else {
            rep.walls.push(wall);
        }
        // Verdict checks, after the timing.
        let mut counters = Counters::default();
        for (i, (job, d)) in jobs.iter().zip(&done).enumerate() {
            let mut outcome = outcome_of(&d.run);
            if let Some(trace) = d.run.verdict.trace() {
                let net = &models.nets[i];
                if !tr.span("ckt.validate", i as u64, || trace.validates(net)) {
                    outcome = Outcome::Error("trace does not replay".into());
                    rep.wrong.push(format!(
                        "{} on {}: counterexample does not replay",
                        job.engine,
                        job.model.label()
                    ));
                }
            }
            rep.count(job, &judge(job, &outcome));
            rep.latencies_ms.push(d.secs * 1e3);
            secs_by_job[i].push(d.secs);
            outcomes[i] = outcome;
            let c = run_counters(&d.run);
            // Budget-cut runs stop at a timing-dependent point, so
            // their counters would not repeat; they stay out of sums.
            if d.run.verdict.is_conclusive() {
                counters.absorb(&c);
            }
            counters_by_job[i] = c;
        }
        round_counters.push(counters);
        if traced_round {
            self_by_round.push(tr.self_seconds(mark));
        }
        last_models = Some(models);
        round += 1;
    }
    rep.rounds = round;
    rep.counters_repeat = round_counters.windows(2).all(|w| w[0] == w[1]);
    rep.counters = round_counters.swap_remove(0);
    if traced {
        rep.self_times = self_by_round;
        if replay {
            let models = last_models.expect("at least one round ran");
            tr.set_on(true);
            let mark = tr.mark();
            let rc = replay_models(jobs, &models.nets, &tr);
            rep.counters.absorb(&rc);
            rep.replay_times = tr.self_seconds(mark);
        }
        rep.spans = Some(tr);
    }
    rep.peak_rss_mb = peak_rss_mb("self");
    for (i, job) in jobs.iter().enumerate() {
        rep.rows.push(JobRow {
            job: *job,
            outcome: outcomes[i].clone(),
            ms_median: median(&secs_by_job[i]) * 1e3,
            counters: counters_by_job[i].clone(),
        });
    }
    rep
}

/// Backward iterations the replay runs per model at most.
const REPLAY_ITERATIONS: usize = 12;

/// Replays the circuit engine's per-iteration step with the public
/// functions it is built from, one span per call:
/// `preimage_formula` → `exists_many` → `cec::sweep` → the init check
/// through `AigCnf`. Returns the counters the calls' stats report.
fn replay_models(jobs: &[JobSpec], nets: &[Network], tr: &Tracer) -> Counters {
    let mut c = Counters::default();
    let quant = CircuitUmc::default().quant;
    let mut seen = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        if job.engine != "circuit" || seen.contains(&job.model) {
            continue;
        }
        seen.push(job.model);
        let net = &nets[i];
        let id = i as u64;
        tr.span("bench.replay", id, || {
            let mut aig = net.aig().clone();
            let mut cnf = AigCnf::new();
            let pis = net.primary_inputs().to_vec();
            let init = tr.span("aig.cube", id, || net.initial_cube().to_lit(&mut aig));
            let bad = net.bad();
            let mut frontier = bad;
            let mut reached = Lit::FALSE;
            for iter in 0..=REPLAY_ITERATIONS {
                // Iteration 0 quantifies the inputs out of `bad` itself.
                let pre = if iter == 0 {
                    bad
                } else {
                    tr.span("mc.preimage", id, || {
                        preimage_formula(&mut aig, net, frontier)
                    })
                };
                let q = tr.span("core.exists_many", id, || {
                    exists_many(&mut aig, pre, &pis, &mut cnf, &quant)
                });
                c.add("core.quantified", q.stats.quantified as f64);
                c.add("core.aborted", q.stats.aborted as f64);
                c.add("core.nodes_after", q.stats.nodes_after as f64);
                c.add("synth.const_applied", q.stats.opt.const_applied as f64);
                c.add("synth.merge_applied", q.stats.opt.merge_applied as f64);
                c.add("synth.odc_applied", q.stats.opt.odc_applied as f64);
                c.add("synth.checks", q.stats.opt.checks as f64);
                let sw = tr.span("cec.sweep", id, || {
                    sweep(&mut aig, &[q.lit], &mut cnf, &quant.sweep)
                });
                for s in [&q.stats.sweep, &sw.stats] {
                    c.add("cec.merged_bdd", s.merged_bdd as f64);
                    c.add("cec.refuted_bdd", s.refuted_bdd as f64);
                    c.add("cec.merged_sat", s.merged_sat as f64);
                    c.add("cec.sat_checks", s.sat_checks as f64);
                }
                let image = sw.roots[0];
                let fresh = tr.span("aig.and", id, || aig.and(image, !reached));
                tr.span("cnf.ensure", id, || {
                    cnf.ensure(&aig, fresh);
                    cnf.ensure(&aig, init);
                });
                let new_states = tr.span("sat.solve_under", id, || cnf.solve_under(&aig, &[fresh]));
                if new_states != SatResult::Sat {
                    break; // fixpoint
                }
                let hits_init = tr.span("sat.solve_under", id, || {
                    cnf.solve_under(&aig, &[fresh, init])
                });
                if hits_init == SatResult::Sat {
                    break; // counterexample
                }
                reached = tr.span("aig.and", id, || aig.or(reached, fresh));
                frontier = fresh;
            }
            tr.span("synth.restrash", id, || {
                cbq_synth::restrash(&mut aig, &[reached, frontier])
            });
        });
    }
    c
}
