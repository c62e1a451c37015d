//! Pieces shared by the in-process and service workloads: model set-up,
//! the verdict judge, counters, and statistics.

use std::collections::BTreeMap;
use std::time::Instant;

use cbq_ckt::io::{read_network, write_network};
use cbq_ckt::Network;

use crate::jobs::{Expect, JobSpec};
use crate::trace::Tracer;

/// A job's result as the harness sees it.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    Safe,
    /// Unsafe with a counterexample at this depth.
    Unsafe(usize),
    Bounded,
    Unknown,
    /// An `error` record, a panic, or a protocol failure.
    Error(String),
}

impl Outcome {
    pub fn describe(&self) -> String {
        match self {
            Outcome::Safe => "safe".into(),
            Outcome::Unsafe(d) => format!("unsafe@{d}"),
            Outcome::Bounded => "bounded".into(),
            Outcome::Unknown => "unknown".into(),
            Outcome::Error(e) => format!("error({e})"),
        }
    }
}

pub fn describe_expect(e: Expect) -> String {
    match e {
        Expect::Safe => "safe".into(),
        Expect::Unsafe(d) => format!("unsafe@{d}"),
    }
}

/// How a job's outcome compares with the answer key.
#[derive(Clone, Debug, PartialEq)]
pub enum Judgement {
    /// The expected conclusive verdict (and depth).
    Correct,
    /// No conclusive verdict within the limit: counts in `fail_frac`.
    Inconclusive,
    /// A verdict or depth that contradicts the key: fails the run.
    Wrong(String),
}

/// Whether the registry promises minimal counterexamples for `engine`.
pub fn minimal_cex(engine: &str) -> bool {
    cbq_mc::registry()
        .iter()
        .find(|spec| spec.name == engine)
        .is_some_and(|spec| spec.minimal_cex)
}

/// Judges `outcome` against the key. Engines whose registry entry sets
/// `minimal_cex` must hit the expected depth exactly; the others must
/// not report a counterexample shorter than the shortest one.
pub fn judge(job: &JobSpec, outcome: &Outcome) -> Judgement {
    match (job.model.expect(), outcome) {
        (Expect::Safe, Outcome::Safe) => Judgement::Correct,
        (Expect::Unsafe(want), Outcome::Unsafe(got)) => {
            let exact = minimal_cex(job.engine);
            if *got == want || (!exact && *got > want) {
                Judgement::Correct
            } else {
                Judgement::Wrong(format!(
                    "{} on {}: cex depth {got}, key says {}{want}",
                    job.engine,
                    job.model.label(),
                    if exact { "" } else { ">= " }
                ))
            }
        }
        (_, Outcome::Safe | Outcome::Unsafe(_)) => Judgement::Wrong(format!(
            "{} on {}: {}, key says {}",
            job.engine,
            job.model.label(),
            outcome.describe(),
            describe_expect(job.model.expect())
        )),
        (_, Outcome::Error(_)) | (_, Outcome::Bounded) | (_, Outcome::Unknown) => {
            Judgement::Inconclusive
        }
    }
}

/// The models of one job list, generated, emitted as AIGER and parsed
/// back — the program only ever sees the AIGER text.
pub struct Models {
    pub texts: Vec<String>,
    pub nets: Vec<Network>,
}

/// Rounds a run makes at least: enough for 100 latency samples, so at
/// least ten lie beyond p90, and with tracing one untraced and one
/// traced round.
pub fn min_rounds(jobs: usize, traced: bool) -> usize {
    100usize.div_ceil(jobs).max(if traced { 2 } else { 1 })
}

/// Set-ups a run performs before its first round, on top of one per
/// round, so `setup_s` is a median over enough samples.
pub const EXTRA_SETUPS: usize = 5;

/// Generates, emits and parses every job's model; returns the models
/// and the seconds it took.
pub fn set_up(jobs: &[JobSpec], tr: &Tracer) -> (Models, f64) {
    let t0 = Instant::now();
    let models = tr.span("bench.setup", 0, || {
        let mut texts = Vec::with_capacity(jobs.len());
        let mut nets = Vec::with_capacity(jobs.len());
        for (i, job) in jobs.iter().enumerate() {
            let id = i as u64;
            let net = tr.span("ckt.gen", id, || job.model.build());
            let text = tr.span("ckt.emit", id, || write_network(&net));
            let parsed = tr.span("ckt.parse", id, || {
                read_network(&text, job.model.label()).expect("emitted AIGER parses back")
            });
            texts.push(text);
            nets.push(parsed);
        }
        Models { texts, nets }
    });
    (models, t0.elapsed().as_secs_f64())
}

/// Named counters, summed over jobs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters(pub BTreeMap<&'static str, f64>);

impl Counters {
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_default() += value;
    }

    pub fn absorb(&mut self, other: &Counters) {
        for (k, v) in &other.0 {
            self.add(k, *v);
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", num(*v)))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// `a / b`, or 0 when nothing was attempted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Linear-interpolated quantile (`q` in 0..=1) of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// A number as JSON, with all its digits.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `VmHWM` (peak resident set) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
