//! What a run measured, and the metric tables it is reported through.
//!
//! The names and units here are the ones `BENCHMARK.json` declares;
//! `run.py` refuses a result whose metric set differs from it.

use std::collections::BTreeMap;

use crate::common::{describe_expect, median, num, quantile, ratio, Counters, Judgement, Outcome};
use crate::jobs::{CacheRole, JobSpec};
use crate::trace::{layer_of, Tracer};

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("solved_frac", "frac"),
    ("peak_rss_mb", "MB"),
];

/// The self-time metric of each layer.
const SELF_TIMES: &[(&str, &str)] = &[
    ("ckt.self_s", "ckt"),
    ("aig.self_s", "aig"),
    ("cnf.self_s", "cnf"),
    ("sat.self_s", "sat"),
    ("cec.self_s", "cec"),
    ("synth.self_s", "synth"),
    ("core.self_s", "core"),
    ("mc.self_s", "mc"),
    ("serve.self_s", "serve"),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ckt.gen_s", "s"),
    ("ckt.parse_s", "s"),
    ("ckt.self_s", "s"),
    ("mc.circuit.check_s", "s"),
    ("mc.forward.check_s", "s"),
    ("mc.iterations", "count"),
    ("mc.peak_nodes", "count"),
    ("mc.reached_size", "count"),
    ("mc.sweep.runs", "count"),
    ("mc.sweep.reclaimed", "count"),
    ("mc.preimage_s", "s"),
    ("mc.ic3.check_s", "s"),
    ("mc.ic3.obligations", "count"),
    ("mc.ic3.clauses", "count"),
    ("mc.ic3.pushed", "count"),
    ("mc.ic3.ctg_blocked", "count"),
    ("mc.ic3.sat_per_obligation", "checks/obl"),
    ("mc.self_s", "s"),
    ("aig.strash_probes", "count"),
    ("aig.walk_nodes", "count"),
    ("aig.cofactor_hits", "count"),
    ("aig.self_s", "s"),
    ("core.exists_s", "s"),
    ("core.quantified", "count"),
    ("core.aborted", "count"),
    ("core.abort_frac", "frac"),
    ("core.nodes_after", "count"),
    ("core.self_s", "s"),
    ("cec.sweep_s", "s"),
    ("cec.merged_bdd", "count"),
    ("cec.refuted_bdd", "count"),
    ("cec.merged_sat", "count"),
    ("cec.sat_checks", "count"),
    ("cec.sat_merge_frac", "frac"),
    ("cec.self_s", "s"),
    ("synth.const_applied", "count"),
    ("synth.merge_applied", "count"),
    ("synth.odc_applied", "count"),
    ("synth.accept_frac", "frac"),
    ("synth.self_s", "s"),
    ("cnf.encoded_ands", "count"),
    ("cnf.checks", "count"),
    ("cnf.migrations", "count"),
    ("cnf.self_s", "s"),
    ("sat.solve_s", "s"),
    ("sat.solves", "count"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.props_per_solve", "props/solve"),
    ("sat.self_s", "s"),
    ("serve.startup_s", "s"),
    ("serve.solve_ms_p50", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.replay_ms_p50", "ms"),
    ("serve.cache.hit_frac", "frac"),
    ("serve.cache.tier1_hits", "count"),
    ("serve.cache.tier3_hits", "count"),
    ("serve.cache.misses", "count"),
    ("serve.errors", "count"),
    ("serve.self_s", "s"),
    ("fail_frac", "frac"),
    ("counters_repeat", "bool"),
    ("trace.wall_ratio", "ratio"),
    ("trace.spans", "count"),
];

/// One job of the list, summarized over the run's rounds.
pub struct JobRow {
    pub job: JobSpec,
    pub outcome: Outcome,
    pub ms_median: f64,
    pub counters: Counters,
}

/// Everything one run measured.
#[derive(Default)]
pub struct RunReport {
    pub jobs_per_round: usize,
    pub rounds: usize,
    pub attempted: u64,
    /// Operations that failed: inconclusive results on jobs the key
    /// expects to be decided, error records, panics, wrong verdicts.
    pub failed: u64,
    /// Every job without the expected conclusive verdict, documented
    /// gaps included: the numerator of `fail_frac`.
    pub unsolved: u64,
    pub wrong: Vec<String>,
    /// Walls of untraced rounds.
    pub walls: Vec<f64>,
    /// Walls of traced rounds.
    pub traced_walls: Vec<f64>,
    pub setups: Vec<f64>,
    pub latencies_ms: Vec<f64>,
    pub peak_rss_mb: f64,
    /// Counters of one round (every round's are compared).
    pub counters: Counters,
    pub counters_repeat: bool,
    /// Self time per span name, one map per traced round.
    pub self_times: Vec<BTreeMap<&'static str, f64>>,
    /// Self time per span name of the `circuit-quant` replay.
    pub replay_times: BTreeMap<&'static str, f64>,
    /// Service-side metrics (`serve-mixed` only).
    pub serve: BTreeMap<&'static str, f64>,
    pub spans: Option<Tracer>,
    pub rows: Vec<JobRow>,
}

impl RunReport {
    pub fn new(jobs_per_round: usize) -> RunReport {
        RunReport {
            jobs_per_round,
            ..RunReport::default()
        }
    }

    /// Books one job's judgement.
    pub fn count(&mut self, job: &JobSpec, judgement: &Judgement) {
        self.attempted += 1;
        match judgement {
            Judgement::Correct => {}
            Judgement::Inconclusive => {
                self.unsolved += 1;
                if !job.gap {
                    self.failed += 1;
                }
            }
            Judgement::Wrong(why) => {
                self.unsolved += 1;
                self.failed += 1;
                self.wrong.push(why.clone());
            }
        }
    }

    pub fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let wall = median(&self.walls);
        BTreeMap::from([
            ("setup_s", median(&self.setups)),
            ("wall_s", wall),
            ("jobs_per_s", ratio(self.jobs_per_round as f64, wall)),
            ("latency_p50_ms", quantile(&self.latencies_ms, 0.5)),
            ("latency_p90_ms", quantile(&self.latencies_ms, 0.9)),
            (
                "solved_frac",
                ratio(
                    (self.attempted - self.unsolved) as f64,
                    self.attempted as f64,
                ),
            ),
            ("peak_rss_mb", self.peak_rss_mb),
        ])
    }

    /// Median over traced rounds of the per-round self time of the
    /// spans `pick` selects, plus the replay's share.
    fn span_seconds(&self, pick: impl Fn(&str) -> bool) -> f64 {
        let per_round: Vec<f64> = self
            .self_times
            .iter()
            .map(|m| m.iter().filter(|(k, _)| pick(k)).map(|(_, v)| v).sum())
            .collect();
        let replay: f64 = self
            .replay_times
            .iter()
            .filter(|(k, _)| pick(k))
            .map(|(_, v)| v)
            .sum();
        median(&per_round) + replay
    }

    pub fn per_layer(&self) -> BTreeMap<&'static str, f64> {
        let c = &self.counters;
        let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
        m.insert(
            "ckt.gen_s",
            self.span_seconds(|k| k == "ckt.gen" || k == "ckt.emit"),
        );
        for (metric, span) in [
            ("ckt.parse_s", "ckt.parse"),
            ("mc.circuit.check_s", "mc.circuit.check"),
            ("mc.forward.check_s", "mc.forward.check"),
            ("mc.ic3.check_s", "mc.ic3.check"),
        ] {
            m.insert(metric, self.span_seconds(|k| k == span));
        }
        for (metric, span) in [
            ("mc.preimage_s", "mc.preimage"),
            ("core.exists_s", "core.exists_many"),
            ("cec.sweep_s", "cec.sweep"),
            ("sat.solve_s", "sat.solve_under"),
        ] {
            m.insert(metric, self.replay_times.get(span).copied().unwrap_or(0.0));
        }
        for (metric, layer) in SELF_TIMES {
            m.insert(metric, self.span_seconds(|k| layer_of(k) == *layer));
        }
        for name in [
            "mc.iterations",
            "mc.peak_nodes",
            "mc.reached_size",
            "mc.sweep.runs",
            "mc.sweep.reclaimed",
            "mc.ic3.obligations",
            "mc.ic3.clauses",
            "mc.ic3.pushed",
            "mc.ic3.ctg_blocked",
            "aig.strash_probes",
            "aig.walk_nodes",
            "aig.cofactor_hits",
            "core.quantified",
            "core.aborted",
            "core.nodes_after",
            "cec.merged_bdd",
            "cec.refuted_bdd",
            "cec.merged_sat",
            "cec.sat_checks",
            "synth.const_applied",
            "synth.merge_applied",
            "synth.odc_applied",
            "cnf.encoded_ands",
            "cnf.checks",
            "cnf.migrations",
            "sat.solves",
            "sat.conflicts",
            "sat.propagations",
        ] {
            m.insert(name, c.get(name));
        }
        m.insert(
            "mc.ic3.sat_per_obligation",
            ratio(c.get("mc.ic3.sat_checks"), c.get("mc.ic3.obligations")),
        );
        m.insert(
            "core.abort_frac",
            ratio(
                c.get("core.aborted"),
                c.get("core.aborted") + c.get("core.quantified"),
            ),
        );
        m.insert(
            "cec.sat_merge_frac",
            ratio(c.get("cec.merged_sat"), c.get("cec.sat_checks")),
        );
        let applied = c.get("synth.const_applied")
            + c.get("synth.merge_applied")
            + c.get("synth.odc_applied");
        m.insert("synth.accept_frac", ratio(applied, c.get("synth.checks")));
        m.insert(
            "sat.props_per_solve",
            ratio(c.get("sat.propagations"), c.get("sat.solves")),
        );
        for (name, _) in PER_LAYER.iter().filter(|(n, _)| n.starts_with("serve.")) {
            if !m.contains_key(name) {
                m.insert(name, self.serve.get(name).copied().unwrap_or(0.0));
            }
        }
        m.insert(
            "fail_frac",
            ratio(self.unsolved as f64, self.attempted as f64),
        );
        m.insert(
            "counters_repeat",
            if self.counters_repeat { 1.0 } else { 0.0 },
        );
        m.insert(
            "trace.wall_ratio",
            ratio(median(&self.traced_walls), median(&self.walls)),
        );
        let spans = self.spans.as_ref().map_or(0, Tracer::mark);
        m.insert("trace.spans", spans as f64);
        m
    }

    /// The per-job rows, one JSON object per line.
    pub fn row_lines(&self) -> Vec<String> {
        self.rows
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let role = match r.job.role {
                    CacheRole::Fresh => "fresh",
                    CacheRole::Repeat => "repeat",
                    CacheRole::Perturbed => "perturbed",
                    CacheRole::NoCache => "no-cache",
                };
                format!(
                    "{{\"row\":{i},\"client\":{},\"engine\":\"{}\",\"model\":\"{}\",\
                     \"role\":\"{role}\",\"gap\":{},\"expect\":\"{}\",\"verdict\":\"{}\",\
                     \"ms_median\":{},\"counters\":{}}}",
                    r.job.client,
                    r.job.engine,
                    r.job.model.label(),
                    r.job.gap,
                    describe_expect(r.job.model.expect()),
                    r.outcome.describe().replace('"', "'"),
                    num(r.ms_median),
                    r.counters.to_json(),
                )
            })
            .collect()
    }
}
