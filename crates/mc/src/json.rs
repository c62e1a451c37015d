//! Hand-rolled JSON rendering of [`McRun`] records and engine detail
//! statistics — the single wire format shared by `cbq check --json`,
//! `cbq sat --json`, and the `cbq serve` result stream (the bench
//! tooling's machine interface). No serialization dependency exists in
//! the workspace; these emitters are the counterpart of the service
//! crate's small recursive-descent parser.

use cbq_aig::AigPerfCounters;
use cbq_cnf::AigCnfStats;
use cbq_sat::SolverStats;

use crate::bmc::BmcStats;
use crate::bus::BusClientStats;
use crate::circuit_umc::CircuitUmcStats;
use crate::forward_umc::ForwardCircuitUmcStats;
use crate::ic3::Ic3Stats;
use crate::itp::ItpStats;
use crate::portfolio::PortfolioStats;
use crate::stateset::PartitionStats;
use crate::verdict::{McRun, Verdict};

/// Minimal JSON string escaping (engine names, human-readable reasons,
/// and serialized models; the full control-character range is escaped).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A `usize` slice as a JSON array.
pub fn json_usize_list(xs: &[usize]) -> String {
    let cells: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    format!("[{}]", cells.join(","))
}

/// A `u64` slice as a JSON array.
pub fn json_u64_list(xs: &[u64]) -> String {
    let cells: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    format!("[{}]", cells.join(","))
}

/// The partitioned-traversal counters as a JSON object.
pub fn partition_json(p: &PartitionStats) -> String {
    format!(
        "{{\"trajectory\":{},\"final\":{},\"max_cone\":{},\"prunes\":{},\"splits\":{},\
         \"worker_panics\":{}}}",
        json_usize_list(&p.trajectory),
        p.trajectory.last().copied().unwrap_or(1),
        p.max_cone,
        p.prunes,
        p.splits,
        json_usize_list(&p.worker_panics)
    )
}

/// The solver-core counters as a JSON object (shared by `cbq sat --json`
/// and the `check --json` engine detail).
pub fn solver_json(s: &SolverStats) -> String {
    format!(
        "{{\"solves\":{},\"decisions\":{},\"propagations\":{},\"conflicts\":{},\
         \"restarts\":{},\"learnts\":{},\"deleted\":{},\"reduces\":{},\
         \"recycled_vars\":{},\"arena_bytes\":{},\"lbd_hist\":{},\"scoped_solves\":{}}}",
        s.solves,
        s.decisions,
        s.propagations,
        s.conflicts,
        s.restarts,
        s.learnts,
        s.deleted,
        s.reduces,
        s.recycled_vars,
        s.arena_bytes(),
        json_u64_list(&s.lbd_hist),
        s.scoped_solves
    )
}

/// The SAT-bridge counters as a JSON object (`check --json` detail).
pub fn cnf_json(s: &AigCnfStats) -> String {
    format!(
        "{{\"encoded_ands\":{},\"checks\":{},\"migrations\":{},\"retirements\":{},\
         \"clauses_retired\":{},\"learnts_retained\":{}}}",
        s.encoded_ands,
        s.checks,
        s.migrations,
        s.retirements,
        s.clauses_retired,
        s.learnts_retained
    )
}

/// The AIG-manager hot-path counters as a JSON object (`check --json`
/// detail for the quantification engines and the serve stats stream).
pub fn quant_perf_json(p: &AigPerfCounters) -> String {
    format!(
        "{{\"strash_probes\":{},\"scratch_walk_nodes\":{},\"cofactor_cache_hits\":{}}}",
        p.strash_probes, p.scratch_walk_nodes, p.cofactor_cache_hits
    )
}

/// The lemma-bus consumer counters as a JSON object (`check --json`
/// detail for bus-wired engines and the portfolio aggregate).
pub fn bus_client_json(s: &BusClientStats) -> String {
    format!(
        "{{\"lemmas_admitted\":{},\"lemmas_rejected\":{},\"merges_learned\":{},\
         \"merges_rejected\":{}}}",
        s.lemmas_admitted, s.lemmas_rejected, s.merges_learned, s.merges_rejected
    )
}

/// The fields of [`run_to_json`] *without* the enclosing braces, so
/// callers (the serve result stream) can append fields of their own —
/// cache tier, queue timing — to the same flat object.
pub fn run_to_json_fields(run: &McRun) -> String {
    let verdict = match &run.verdict {
        Verdict::Safe { iterations } => {
            format!("\"verdict\":\"safe\",\"proved_at\":{iterations}")
        }
        Verdict::Unsafe { trace } => {
            format!("\"verdict\":\"unsafe\",\"cex_depth\":{}", trace.len() - 1)
        }
        Verdict::Bounded { resource, limit } => format!(
            "\"verdict\":\"bounded\",\"resource\":{},\"limit\":{limit}",
            json_str(&resource.to_string())
        ),
        Verdict::Unknown { reason } => {
            format!("\"verdict\":\"unknown\",\"reason\":{}", json_str(reason))
        }
    };
    let job = if run.job != 0 {
        format!("\"job\":{},", run.job)
    } else {
        String::new()
    };
    let mut detail = String::new();
    if let Some(d) = run.detail::<CircuitUmcStats>() {
        detail = format!(
            ",\"frontier_sizes\":{},\"reached_size\":{},\"quant_aborts\":{},\
             \"ganai_cofactors\":{},\"quant_perf\":{},\"sweep_runs\":{},\
             \"partitions\":{},\"solver\":{},\"cnf\":{}",
            json_usize_list(&d.frontier_sizes),
            d.reached_size,
            d.quant_aborts,
            d.ganai_cofactors,
            quant_perf_json(&d.quant_perf),
            d.sweep.runs,
            partition_json(&d.partitions),
            solver_json(&d.solver),
            cnf_json(&d.cnf)
        );
    } else if let Some(d) = run.detail::<ForwardCircuitUmcStats>() {
        detail = format!(
            ",\"frontier_sizes\":{},\"quant_aborts\":{},\"ganai_cofactors\":{},\
             \"quant_perf\":{},\"sweep_runs\":{},\"partitions\":{},\
             \"solver\":{},\"cnf\":{}",
            json_usize_list(&d.frontier_sizes),
            d.quant_aborts,
            d.ganai_cofactors,
            quant_perf_json(&d.quant_perf),
            d.sweep.runs,
            partition_json(&d.partitions),
            solver_json(&d.solver),
            cnf_json(&d.cnf)
        );
    } else if let Some(d) = run.detail::<Ic3Stats>() {
        detail = format!(
            ",\"frames\":{},\"obligations\":{},\"clauses\":{},\"pushed\":{},\
             \"gen_drops\":{},\"tern_drops\":{},\"ctg_blocked\":{},\
             \"inf_clauses\":{},\"subsumed\":{},\"seeded\":{},\"seed_rejected\":{},\
             \"lemma_count\":{},\"published\":{},\"bus\":{},\"solver\":{},\"cnf\":{}",
            d.frames,
            d.obligations,
            d.clauses,
            d.pushed,
            d.gen_drops,
            d.tern_drops,
            d.ctg_blocked,
            d.inf_clauses,
            d.subsumed,
            d.seeded,
            d.seed_rejected,
            d.lemmas.len(),
            d.published,
            bus_client_json(&d.bus),
            solver_json(&d.solver),
            cnf_json(&d.cnf)
        );
    } else if let Some(d) = run.detail::<ItpStats>() {
        detail = format!(
            ",\"frames\":{},\"refinements\":{},\"restarts\":{},\"interpolants\":{},\
             \"trace_clauses\":{},\"itp_nodes\":{},\"published\":{}",
            d.frames,
            d.refinements,
            d.restarts,
            d.interpolants,
            d.trace_clauses,
            d.itp_nodes,
            d.published
        );
    } else if let Some(d) = run.detail::<BmcStats>() {
        detail = format!(
            ",\"depth_reached\":{},\"unrolled_nodes\":{},\"latches_total\":{},\
             \"latches_stuck\":{},\"latches_pruned\":{},\"coi_lemmas_skipped\":{},\
             \"bus\":{}",
            d.depth_reached,
            d.unrolled_nodes,
            d.latches_total,
            d.latches_stuck,
            d.latches_pruned,
            d.coi_lemmas_skipped,
            bus_client_json(&d.bus)
        );
    } else if let Some(d) = run.detail::<PortfolioStats>() {
        let members: Vec<String> = d
            .runs
            .iter()
            .map(|(name, r)| {
                format!(
                    "{{\"engine\":{},\"verdict\":{},\"elapsed_ms\":{:.3}}}",
                    json_str(name),
                    json_str(&r.verdict.to_string()),
                    r.stats.elapsed.as_secs_f64() * 1e3
                )
            })
            .collect();
        let bus = match &d.bus {
            Some(b) => format!(
                ",\"bus\":{{\"published_cubes\":{},\"published_merges\":{},\
                 \"clients\":{}}}",
                b.published.cubes,
                b.published.merges,
                bus_client_json(&b.clients)
            ),
            None => String::new(),
        };
        detail = format!(
            ",\"parallel\":{},\"members\":[{}]{bus}",
            d.parallel,
            members.join(",")
        );
    }
    format!(
        "{job}{verdict},\"engine\":{},\"iterations\":{},\"peak_nodes\":{},\
         \"sat_checks\":{},\"elapsed_ms\":{:.3}{detail}",
        json_str(run.stats.engine),
        run.stats.iterations,
        run.stats.peak_nodes,
        run.stats.sat_checks,
        run.stats.elapsed.as_secs_f64() * 1e3
    )
}

/// The `McRun` common stats record — plus the engine-specific detail
/// when the type is known — as one flat JSON object.
pub fn run_to_json(run: &McRun) -> String {
    format!("{{{}}}", run_to_json_fields(run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Budget, Engine};
    use crate::ic3::Ic3;
    use cbq_ckt::generators;

    #[test]
    fn escapes_and_shapes() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_usize_list(&[1, 2]), "[1,2]");
        assert_eq!(json_u64_list(&[]), "[]");
    }

    #[test]
    fn run_json_carries_job_and_detail() {
        let run = Ic3::default()
            .check(&generators::token_ring(4), &Budget::unlimited())
            .with_job(42);
        let json = run_to_json(&run);
        assert!(json.starts_with("{\"job\":42,"), "got {json}");
        assert!(json.contains("\"verdict\":\"safe\""));
        assert!(json.contains("\"engine\":\"ic3\""));
        assert!(json.contains("\"subsumed\":"));
        assert!(json.contains("\"tern_drops\":"));
        assert!(json.contains("\"ctg_blocked\":"));
        assert!(json.contains("\"inf_clauses\":"));
        assert!(json.contains("\"recycled_vars\":"));
        assert!(json.ends_with('}'));
        // Field form drops the braces but keeps the content.
        assert_eq!(format!("{{{}}}", run_to_json_fields(&run)), json);
    }

    #[test]
    fn circuit_and_bmc_json_carry_quant_and_coi_detail() {
        use crate::bmc::Bmc;
        use crate::circuit_umc::CircuitUmc;
        let run = CircuitUmc::default().check(&generators::mutex_bug(), &Budget::unlimited());
        let json = run_to_json(&run);
        assert!(
            json.contains("\"quant_perf\":{\"strash_probes\":"),
            "got {json}"
        );
        assert!(json.contains("\"scratch_walk_nodes\":"), "got {json}");
        assert!(json.contains("\"cofactor_cache_hits\":"), "got {json}");
        let run = Bmc::default().check(&generators::mutex_bug(), &Budget::unlimited());
        let json = run_to_json(&run);
        assert!(json.contains("\"verdict\":\"unsafe\""), "got {json}");
        assert!(json.contains("\"depth_reached\":2"), "got {json}");
        assert!(json.contains("\"latches_stuck\":"), "got {json}");
        assert!(json.contains("\"latches_pruned\":"), "got {json}");
        assert!(json.contains("\"coi_lemmas_skipped\":"), "got {json}");
    }

    #[test]
    fn itp_json_carries_interpolation_detail() {
        use crate::itp::Itp;
        let run = Itp::default().check(&generators::token_ring(4), &Budget::unlimited());
        let json = run_to_json(&run);
        assert!(json.contains("\"verdict\":\"safe\""), "got {json}");
        assert!(json.contains("\"engine\":\"itp\""), "got {json}");
        assert!(json.contains("\"interpolants\":"), "got {json}");
        assert!(json.contains("\"trace_clauses\":"), "got {json}");
        assert!(json.contains("\"refinements\":"), "got {json}");
    }

    #[test]
    fn portfolio_json_reports_mode_members_and_bus() {
        use crate::portfolio::Portfolio;
        let run = Portfolio::standard_parallel(true)
            .check(&generators::mutex_bug(), &Budget::unlimited());
        let json = run_to_json(&run);
        assert!(json.contains("\"verdict\":\"unsafe\""), "got {json}");
        assert!(json.contains("\"parallel\":true"), "got {json}");
        assert!(json.contains("\"members\":[{\"engine\":"), "got {json}");
        assert!(json.contains("\"published_cubes\":"), "got {json}");
        assert!(json.contains("\"lemmas_admitted\":"), "got {json}");
        // Sequential runs carry the same branch, without bus stats.
        let run = Portfolio::standard().check(&generators::mutex_bug(), &Budget::unlimited());
        let json = run_to_json(&run);
        assert!(json.contains("\"parallel\":false"), "got {json}");
        assert!(!json.contains("\"published_cubes\""), "got {json}");
    }
}
