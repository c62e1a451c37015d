//! Seeded job lists and the hand-written answer key.
//!
//! Every model is named by a [`Model`] value. [`Model::expect`] states
//! its verdict from the generator's documented semantics — never from
//! an engine run — and [`Model::build`] calls the generator.

use std::time::Duration;

use cbq_ckt::{generators, Network};

/// SplitMix64: a tiny deterministic generator, so the same seed always
/// draws the same job list.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.next_u64() as usize % items.len()]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_u64() as usize % (i + 1);
            items.swap(i, j);
        }
    }
}

/// A generator call with its parameters.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Model {
    CounterBug(usize, u64),
    BoundedCounterGap(usize, u64, u64),
    ShadowedCounterGap(usize, u64, u64, usize),
    TokenRing(usize),
    TokenRingBug(usize),
    Arbiter(usize),
    ArbiterBug(usize),
    Mutex,
    MutexBug,
    ShiftOnes(usize),
    FifoCtrl(usize),
}

/// What the answer key says a model must yield.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    Safe,
    /// Unsafe, with the shortest counterexample at exactly this depth
    /// (the 0-based step at which `bad` fires).
    Unsafe(usize),
}

impl Model {
    pub fn build(self) -> Network {
        match self {
            Model::CounterBug(n, k) => generators::counter_bug(n, k),
            Model::BoundedCounterGap(n, b, bad) => generators::bounded_counter_gap(n, b, bad),
            Model::ShadowedCounterGap(n, b, bad, s) => {
                generators::shadowed_counter_gap(n, b, bad, s)
            }
            Model::TokenRing(n) => generators::token_ring(n),
            Model::TokenRingBug(n) => generators::token_ring_bug(n),
            Model::Arbiter(n) => generators::arbiter(n),
            Model::ArbiterBug(n) => generators::arbiter_bug(n),
            Model::Mutex => generators::mutex(),
            Model::MutexBug => generators::mutex_bug(),
            Model::ShiftOnes(n) => generators::shift_ones(n),
            Model::FifoCtrl(k) => generators::fifo_ctrl(k),
        }
    }

    /// The answer key, from each generator's documented semantics.
    pub fn expect(self) -> Expect {
        match self {
            // "The shortest counterexample has exactly `k` steps (the
            // enable must be held high)": the count starts at 0 and
            // gains at most 1 per step.
            Model::CounterBug(_, k) => Expect::Unsafe(k as usize),
            // "The bad value is unreachable": the counter wraps at
            // `bound - 1 < bad_value`. The shadow block never feeds the
            // counter or `bad`.
            Model::BoundedCounterGap(..) | Model::ShadowedCounterGap(..) => Expect::Safe,
            // A rotating one-hot token stays one-hot.
            Model::TokenRing(_) => Expect::Safe,
            // "Counterexample depth 3 (for n >= 4)": the token reaches
            // station 2 after two steps, the duplicate appears after the
            // third.
            Model::TokenRingBug(_) => Expect::Unsafe(3),
            // Grants are gated by the one-hot token.
            Model::Arbiter(_) => Expect::Safe,
            // Station 0 is granted whenever it requests. At step 0 the
            // token sits at station 0 as well, so only one station can
            // be granted; at step 1 it has moved to station 1, whose
            // request then grants a second station.
            Model::ArbiterBug(_) => Expect::Unsafe(1),
            // Peterson's turn guard plus the tie-break.
            Model::Mutex => Expect::Safe,
            // "Counterexample depth 2": both request at step 0, both
            // wait at step 1, both are critical at step 2.
            Model::MutexBug => Expect::Unsafe(2),
            // "Counterexample depth exactly n".
            Model::ShiftOnes(n) => Expect::Unsafe(n),
            // "Safe thanks to the full guard".
            Model::FifoCtrl(_) => Expect::Safe,
        }
    }

    /// The family name used in per-job rows.
    pub fn family(self) -> &'static str {
        match self {
            Model::CounterBug(..) => "counter_bug",
            Model::BoundedCounterGap(..) => "bounded_counter_gap",
            Model::ShadowedCounterGap(..) => "shadowed_counter_gap",
            Model::TokenRing(_) => "token_ring",
            Model::TokenRingBug(_) => "token_ring_bug",
            Model::Arbiter(_) => "arbiter",
            Model::ArbiterBug(_) => "arbiter_bug",
            Model::Mutex => "mutex",
            Model::MutexBug => "mutex_bug",
            Model::ShiftOnes(_) => "shift_ones",
            Model::FifoCtrl(_) => "fifo_ctrl",
        }
    }

    /// `family(params)`, as the per-job rows print it.
    pub fn label(self) -> String {
        let params = match self {
            Model::CounterBug(n, k) => format!("{n},{k}"),
            Model::BoundedCounterGap(n, b, bad) => format!("{n},{b},{bad}"),
            Model::ShadowedCounterGap(n, b, bad, s) => format!("{n},{b},{bad},{s}"),
            Model::TokenRing(n)
            | Model::TokenRingBug(n)
            | Model::Arbiter(n)
            | Model::ArbiterBug(n)
            | Model::ShiftOnes(n)
            | Model::FifoCtrl(n) => n.to_string(),
            Model::Mutex | Model::MutexBug => String::new(),
        };
        format!("{}({params})", self.family())
    }
}

/// How a `serve-mixed` job relates to the cache.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CacheRole {
    /// First submission of its model: a cold solve.
    Fresh,
    /// Byte-identical resubmission of an earlier job of the same client:
    /// a tier-1 whole-run replay.
    Repeat,
    /// Same transition structure as an earlier `ic3` job of the same
    /// client, different property: a tier-3 IC3 warm start.
    Perturbed,
    /// Sent with `"cache": false`: a cold solve the cache never sees.
    NoCache,
}

/// One job of a workload's fixed list.
#[derive(Copy, Clone, Debug)]
pub struct JobSpec {
    pub model: Model,
    pub engine: &'static str,
    /// Wall-clock budget of the job.
    pub limit: Duration,
    /// A documented gap: the engine is known not to decide this model
    /// within `limit`. An inconclusive result counts in `fail_frac` but
    /// not as a failed operation; a wrong verdict still fails the run.
    pub gap: bool,
    pub role: CacheRole,
    /// The `serve-mixed` client that sends the job (0 elsewhere).
    pub client: usize,
}

impl JobSpec {
    fn new(model: Model, engine: &'static str, limit_ms: u64) -> JobSpec {
        JobSpec {
            model,
            engine,
            limit: Duration::from_millis(limit_ms),
            gap: false,
            role: CacheRole::Fresh,
            client: 0,
        }
    }
}

/// Per-job wall-clock limits.
const CIRCUIT_LIMIT_MS: u64 = 15_000;
const FORWARD_LIMIT_MS: u64 = 1_000;
const IC3_LIMIT_MS: u64 = 15_000;
const SERVE_LIMIT_MS: u64 = 15_000;

/// `circuit-quant`: the paper's engine (and `forward`) in process.
///
/// The latency percentiles are taken over every job of every round, so
/// the list is shaped for them: ten small jobs (milliseconds), three
/// middle jobs of nearly equal cost whose samples hold p50, and ten
/// large jobs, between whose third and fourth largest p90 sits. The
/// middle jobs and the three heavy `circuit` jobs have fixed parameters:
/// the heavy jobs are most of a round, and the engine's cost is not
/// smooth in the depth (`counter_bug(8,21)` takes about 0.5 s,
/// `counter_bug(8,24)` about 0.8 s, `counter_bug(8,32)` 2.6 s). The seed
/// draws every other job's parameters and the order.
pub fn circuit_quant(seed: u64) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed);
    let circuit = |m: Model| JobSpec::new(m, "circuit", CIRCUIT_LIMIT_MS);
    let forward = |m: Model| JobSpec::new(m, "forward", FORWARD_LIMIT_MS);
    let mut jobs = vec![
        // Small.
        circuit(Model::Mutex),
        circuit(Model::MutexBug),
        circuit(Model::Arbiter(rng.range(8, 9) as usize)),
        circuit(Model::ArbiterBug(rng.range(8, 9) as usize)),
        circuit(Model::ShiftOnes(rng.range(9, 11) as usize)),
        circuit(Model::TokenRingBug(rng.range(9, 11) as usize)),
        circuit(Model::FifoCtrl(rng.range(3, 5) as usize)),
        forward(Model::MutexBug),
        forward(Model::Arbiter(rng.range(7, 8) as usize)),
        forward(Model::TokenRingBug(rng.range(9, 11) as usize)),
        // Middle.
        forward(Model::CounterBug(7, 29)),
        forward(Model::CounterBug(7, 30)),
        forward(Model::CounterBug(7, 31)),
        // Large.
        forward(Model::CounterBug(8, rng.range(40, 42))),
        forward(Model::CounterBug(8, rng.range(46, 48))),
        forward(Model::CounterBug(8, rng.range(52, 54))),
        forward(Model::ShiftOnes(9)),
        circuit(Model::CounterBug(7, rng.range(20, 22))),
        circuit(Model::CounterBug(7, 35)),
        circuit(Model::CounterBug(8, 24)),
        circuit(Model::CounterBug(8, 28)),
    ];
    // The documented forward gaps: undecided within the limit.
    for model in [Model::FifoCtrl(4), Model::ShiftOnes(11)] {
        jobs.push(JobSpec {
            gap: true,
            ..forward(model)
        });
    }
    rng.shuffle(&mut jobs);
    jobs
}

/// `ic3-deep`: IC3 (default generalization) on deep models. Seven jobs,
/// so p50 is the median time of the middle one, `token_ring(16)`, and
/// p90 lies between the two gap counters. The three deepest models have
/// fixed parameters: IC3's cost is erratic in them
/// (`bounded_counter_gap(8,b,d)` takes 215-310 ms for `b` in 98..=102,
/// `d` in 198..=202), and they are most of a round. The seed draws the
/// other parameters and the order.
pub fn ic3_deep(seed: u64) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed);
    let mut jobs = vec![
        Model::FifoCtrl(6),
        Model::CounterBug(8, rng.range(45, 55)),
        Model::Arbiter(rng.range(11, 13) as usize),
        Model::TokenRing(16),
        Model::CounterBug(9, 120),
        Model::ShadowedCounterGap(7, 50, 100, 256),
        Model::BoundedCounterGap(8, 100, 200),
    ]
    .into_iter()
    .map(|m| JobSpec::new(m, "ic3", IC3_LIMIT_MS))
    .collect::<Vec<_>>();
    rng.shuffle(&mut jobs);
    jobs
}

/// `serve-mixed`: two closed-loop clients, each with its own stream.
///
/// Each client owns its transition structures (no model, and no
/// `ic3` transition structure, is shared between the clients), and every
/// repeat or perturbation refers to an earlier job of the same client.
/// A closed-loop client only sends a job after the previous one
/// answered, so every cache counter is the same on every run.
///
/// Per client, 54 jobs in three cost clusters: 18 cheap ones (ten exact
/// resubmissions, four small solves, the `ic3` gap counters), 24 medium
/// `portfolio` solves (p50 falls among them), 12 heavy `circuit` solves
/// (p90 falls among them). Medium and heavy models are each sent twice,
/// once cached and once with `cache: false`.
pub fn serve_mixed(seed: u64) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed);
    let mut all = Vec::new();
    for client in 0..2usize {
        let c = client as u64;
        let job = |m: Model, e: &'static str, role: CacheRole| JobSpec {
            role,
            client,
            ..JobSpec::new(m, e, SERVE_LIMIT_MS)
        };
        // Client 0 takes even widths or depths, client 1 odd ones.
        let mut twice: Vec<(Model, &'static str)> = Vec::new();
        // Medium: the portfolio's BMC member answers depth 27-29 in a
        // few tens of milliseconds at any of these widths.
        for i in 0..12 {
            let width = 6 + 2 * i + client;
            twice.push((Model::CounterBug(width, rng.range(27, 29)), "portfolio"));
        }
        // Heavy: about 0.1 s each.
        for i in 0..6 {
            twice.push((Model::CounterBug(5, 16 + 2 * i + c), "circuit"));
        }
        let mut n = |base: usize| base + 2 * client + rng.range(0, 1) as usize;
        let small = [
            (Model::TokenRingBug(n(6)), "portfolio"),
            (Model::ArbiterBug(n(5)), "portfolio"),
            (Model::Arbiter(n(5)), "ic3"),
            (Model::ShiftOnes(n(5)), "circuit"),
        ];
        // Gap counters: one transition structure per client, several
        // properties over it. The first `ic3` run seeds tier 3.
        let (width, bound) = (6 + client, 20 + 10 * c);
        let bads: Vec<u64> = (0..4)
            .map(|i| bound + 5 + 6 * i + rng.range(0, 2))
            .collect();
        let gap = |bad| Model::BoundedCounterGap(width, bound, bad);

        let mut stream = vec![job(gap(bads[0]), "ic3", CacheRole::Fresh)];
        for &bad in &bads[1..] {
            stream.push(job(gap(bad), "ic3", CacheRole::Perturbed));
        }
        for &(m, e) in twice.iter().chain(&small) {
            stream.push(job(m, e, CacheRole::Fresh));
        }
        for &(m, e) in &twice {
            stream.push(job(m, e, CacheRole::NoCache));
        }
        // Exact resubmissions of earlier cached jobs.
        let cached: Vec<JobSpec> = stream
            .iter()
            .copied()
            .filter(|j| j.role != CacheRole::NoCache)
            .collect();
        for _ in 0..10 {
            let mut again = rng.pick(&cached);
            again.role = CacheRole::Repeat;
            stream.push(again);
        }
        // Keep the seeding job first, shuffle the rest, then hold each
        // repeat back until its source has been sent.
        let mut rest = stream.split_off(1);
        rng.shuffle(&mut rest);
        all.extend(order_after_sources(stream, rest));
    }
    all
}

/// Appends `jobs` to `out` in order, except that each `Repeat` waits
/// until a non-repeat job with the same model and engine is in `out`.
/// (`Perturbed` jobs need only the client's seeding `ic3` job, which is
/// already first.)
fn order_after_sources(mut out: Vec<JobSpec>, jobs: Vec<JobSpec>) -> Vec<JobSpec> {
    let mut waiting: Vec<JobSpec> = Vec::new();
    for job in jobs {
        if job.role == CacheRole::Repeat && !has_source(&out, &job) {
            waiting.push(job);
            continue;
        }
        out.push(job);
        let mut i = 0;
        while i < waiting.len() {
            if has_source(&out, &waiting[i]) {
                out.push(waiting.remove(i));
            } else {
                i += 1;
            }
        }
    }
    assert!(waiting.is_empty(), "every repeat has a cached source");
    out
}

fn has_source(done: &[JobSpec], job: &JobSpec) -> bool {
    done.iter().any(|d| {
        d.role != CacheRole::NoCache
            && d.role != CacheRole::Repeat
            && d.model == job.model
            && d.engine == job.engine
    })
}
