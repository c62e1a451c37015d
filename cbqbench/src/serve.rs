//! `serve-mixed`: two closed-loop clients against a fresh `cbq serve`
//! child per round, over loopback.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use cbq_mc::Budget;
use cbq_serve::client::{server_stats, shutdown, submit_one};
use cbq_serve::{CheckRequest, Json};

use crate::common::{
    judge, median, min_rounds, peak_rss_mb, ratio, set_up, Counters, Outcome, EXTRA_SETUPS,
};
use crate::jobs::{CacheRole, JobSpec};
use crate::report::{JobRow, RunReport};
use crate::trace::{set_thread, Tracer};

/// A `cbq serve` child, killed and reaped if the harness bails out.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Starts the child and waits for its `serving` line.
    fn start(cbq: &Path) -> Result<Server, String> {
        let mut child = Command::new(cbq)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cbq.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child,
            addr: String::new(),
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading the serving line: {e}"))?;
        let msg =
            Json::parse(line.trim()).map_err(|e| format!("bad serving line {line:?}: {e}"))?;
        match (
            msg.get("event").and_then(Json::as_str),
            msg.get("addr").and_then(Json::as_str),
        ) {
            (Some("serving"), Some(addr)) => server.addr = addr.to_string(),
            _ => return Err(format!("unexpected first line {line:?}")),
        }
        Ok(server)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Sends `shutdown` and waits for the child to exit.
    fn stop(mut self) -> Result<(), String> {
        shutdown(&self.addr)?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("cbq serve exited with {status}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One job's answer, as the client saw it.
struct Answer {
    latency_ms: f64,
    record: Result<Json, String>,
}

fn outcome_of(record: &Result<Json, String>) -> Outcome {
    let msg = match record {
        Ok(msg) => msg,
        Err(e) => return Outcome::Error(e.clone()),
    };
    match msg.get("verdict").and_then(Json::as_str) {
        Some("safe") => Outcome::Safe,
        Some("unsafe") => match msg.get("cex_depth").and_then(Json::as_u64) {
            Some(d) => Outcome::Unsafe(d as usize),
            None => Outcome::Error("unsafe record without cex_depth".into()),
        },
        Some("bounded") => Outcome::Bounded,
        Some("unknown") => Outcome::Unknown,
        other => Outcome::Error(format!("unexpected verdict {other:?}")),
    }
}

fn field_f64(msg: &Json, path: &[&str]) -> Option<f64> {
    let mut cur = msg;
    for key in path {
        cur = cur.get(key)?;
    }
    cur.as_f64()
}

/// Runs rounds of the job list until `seconds` have passed; each round
/// starts a fresh child, so its cache starts empty.
pub fn run(jobs: &[JobSpec], seconds: f64, traced: bool, cbq: &Path) -> Result<RunReport, String> {
    let mut tr = Tracer::new(false);
    let mut rep = RunReport::new(jobs.len());
    let clients: Vec<Vec<usize>> = (0..2)
        .map(|c| (0..jobs.len()).filter(|&i| jobs[i].client == c).collect())
        .collect();
    let mut secs_by_job: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    let mut outcomes: Vec<Outcome> = vec![Outcome::Unknown; jobs.len()];
    let mut counters_by_job: Vec<Counters> = vec![Counters::default(); jobs.len()];
    let mut round_counters: Vec<Counters> = Vec::new();
    let mut self_by_round = Vec::new();
    let (mut startups, mut solve_ms, mut overhead_ms, mut replay_ms, mut rss) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..EXTRA_SETUPS {
        let t_setup = Instant::now();
        set_up(jobs, &tr);
        let server = Server::start(cbq)?;
        rep.setups.push(t_setup.elapsed().as_secs_f64());
        server.stop()?;
    }
    let at_least = min_rounds(jobs.len(), traced);
    let start = Instant::now();
    let mut round = 0usize;
    while round < at_least || start.elapsed().as_secs_f64() < seconds {
        let traced_round = traced && round % 2 == 1;
        tr.set_on(traced_round);
        let mark = tr.mark();
        let t_setup = Instant::now();
        let (models, _) = set_up(jobs, &tr);
        let t_start = Instant::now();
        let server = tr.span("serve.startup", 0, || Server::start(cbq))?;
        startups.push(t_start.elapsed().as_secs_f64());
        rep.setups.push(t_setup.elapsed().as_secs_f64());

        let requests: Vec<CheckRequest> = jobs
            .iter()
            .enumerate()
            .map(|(i, job)| CheckRequest {
                id: i as u64 + 1,
                model: models.texts[i].clone(),
                engine: job.engine.to_string(),
                budget: Budget::unlimited().with_timeout(job.limit),
                use_cache: job.role != CacheRole::NoCache,
            })
            .collect();
        let mut answers: Vec<Option<Answer>> = (0..jobs.len()).map(|_| None).collect();
        let t0 = Instant::now();
        let addr = server.addr.as_str();
        let per_client: Vec<Vec<(usize, Answer)>> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter()
                .enumerate()
                .map(|(c, idx)| {
                    let (tr, requests) = (&tr, &requests);
                    s.spawn(move || {
                        set_thread(c + 1);
                        idx.iter()
                            .map(|&i| {
                                let j0 = Instant::now();
                                let record = tr.span("serve.submit", i as u64 + 1, || {
                                    submit_one(addr, &requests[i])
                                });
                                let latency_ms = j0.elapsed().as_secs_f64() * 1e3;
                                (i, Answer { latency_ms, record })
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client threads do not panic"))
                .collect()
        });
        let wall = t0.elapsed().as_secs_f64();
        for (i, answer) in per_client.into_iter().flatten() {
            answers[i] = Some(answer);
        }
        let stats = tr.span("serve.stats", 0, || server_stats(addr))?;
        rss.push(peak_rss_mb(&server.pid()));
        tr.span("serve.shutdown", 0, || server.stop())?;
        if traced_round {
            rep.traced_walls.push(wall);
        } else {
            rep.walls.push(wall);
        }

        // Verdict checks, after the timing. Result records carry no
        // trace, so only the verdict and `cex_depth` are checked.
        let mut counters = Counters::default();
        for (i, job) in jobs.iter().enumerate() {
            let answer = answers[i].take().expect("every job was answered");
            let outcome = outcome_of(&answer.record);
            rep.count(job, &judge(job, &outcome));
            rep.latencies_ms.push(answer.latency_ms);
            secs_by_job[i].push(answer.latency_ms / 1e3);
            let mut row = Counters::default();
            match &answer.record {
                Ok(msg) => {
                    let tier = field_f64(msg, &["cache", "tier"]).unwrap_or(0.0);
                    let elapsed = field_f64(msg, &["elapsed_ms"]).unwrap_or(0.0);
                    row.add("serve.tier", tier);
                    row.add("serve.elapsed_ms", elapsed);
                    if tier == 1.0 || tier == 2.0 {
                        replay_ms.push(answer.latency_ms);
                    } else {
                        if tier == 0.0 {
                            solve_ms.push(elapsed);
                        }
                        overhead_ms.push(answer.latency_ms - elapsed);
                    }
                    let expected_tier = match job.role {
                        CacheRole::Repeat => 1.0,
                        CacheRole::Perturbed => 3.0,
                        CacheRole::Fresh | CacheRole::NoCache => 0.0,
                    };
                    if tier != expected_tier {
                        counters.add("serve.tier_surprises", 1.0);
                    }
                }
                Err(_) => counters.add("serve.errors", 1.0),
            }
            outcomes[i] = outcome;
            counters_by_job[i] = row;
        }
        let cache = |key: &str| field_f64(&stats, &["cache_stats", key]).unwrap_or(0.0);
        counters.add("serve.cache.tier1_hits", cache("tier1_hits"));
        counters.add("serve.cache.tier3_hits", cache("tier3_hits"));
        counters.add("serve.cache.misses", cache("misses"));
        counters.add("serve.cache.lookups", cache("lookups"));
        counters.add(
            "serve.cache.hits",
            cache("tier1_hits") + cache("tier2_hits") + cache("tier3_hits"),
        );
        round_counters.push(counters);
        if traced_round {
            self_by_round.push(tr.self_seconds(mark));
        }
        round += 1;
    }
    rep.rounds = round;
    rep.counters_repeat = round_counters.windows(2).all(|w| w[0] == w[1]);
    let c = round_counters.swap_remove(0);
    if c.get("serve.tier_surprises") > 0.0 {
        eprintln!(
            "note: {} serve jobs were answered by another cache tier than their role predicts",
            c.get("serve.tier_surprises")
        );
    }
    rep.serve = BTreeMap::from([
        ("serve.startup_s", median(&startups)),
        ("serve.solve_ms_p50", median(&solve_ms)),
        ("serve.overhead_ms_p50", median(&overhead_ms)),
        ("serve.replay_ms_p50", median(&replay_ms)),
        (
            "serve.cache.hit_frac",
            ratio(c.get("serve.cache.hits"), c.get("serve.cache.lookups")),
        ),
        ("serve.cache.tier1_hits", c.get("serve.cache.tier1_hits")),
        ("serve.cache.tier3_hits", c.get("serve.cache.tier3_hits")),
        ("serve.cache.misses", c.get("serve.cache.misses")),
        ("serve.errors", c.get("serve.errors")),
    ]);
    rep.counters = c;
    rep.peak_rss_mb = median(&rss);
    if traced {
        rep.self_times = self_by_round;
        rep.spans = Some(tr);
    }
    for (i, job) in jobs.iter().enumerate() {
        rep.rows.push(JobRow {
            job: *job,
            outcome: outcomes[i].clone(),
            ms_median: median(&secs_by_job[i]) * 1e3,
            counters: counters_by_job[i].clone(),
        });
    }
    Ok(rep)
}
