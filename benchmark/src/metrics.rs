//! The metric tables: what the benchmark reports, in which unit, and how far
//! an end-to-end metric may worsen before it counts as a regression.
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! holds the two together.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// A metric a user of the system would see, reported by every workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A metric of a single layer, reported by the traced run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Whether two runs of one program on one seed must agree exactly.
    pub exact: bool,
}

use Better::{Higher, Lower};

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: [EndToEnd; 4] = [
    // From process start to the first timed iteration: fixtures, the
    // warm-up iteration and its reference digest.
    e2e("setup_s", "s", Lower, 0.25),
    // Median host seconds per fixed-work iteration.
    e2e("wall_s", "s", Lower, 0.25),
    // Work units per host second: simulated events on `kernel`, perturbed
    // runs on `compare` and `timesample`, jobs on `serve`.
    e2e("work_per_s", "1/s", Higher, 0.25),
    // VmHWM of the workload's process. On `serve` it depends on how the
    // dispatcher and connection threads interleave, by up to 7% run to run.
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

pub const PER_LAYER: [PerLayer; 54] = [
    // Simulated megacycles of every measured interval of one iteration of
    // each workload. A change that only makes the host faster must leave
    // them exactly equal on a given seed.
    exact("sim.mcycles.kernel", "Mcycles", Lower),
    exact("sim.mcycles.compare", "Mcycles", Lower),
    exact("sim.mcycles.timesample", "Mcycles", Lower),
    exact("sim.mcycles.serve", "Mcycles", Lower),
    // mtvar-sim kernel and mtvar-workloads.
    layer("sim.ns_per_event.oltp16-simple", "ns", Lower),
    layer("sim.ns_per_event.oltp16-ooo64", "ns", Lower),
    layer("sim.ns_per_event.slashcode16-simple", "ns", Lower),
    layer("sim.ns_per_event.apache64-dir", "ns", Lower),
    exact("sim.events", "count", Lower),
    layer("workloads.ns_per_op", "ns", Lower),
    layer("sim.machine_new_us", "us", Lower),
    // mtvar-sim snapshot path.
    layer("sim.snapshot_encode_us", "us", Lower),
    exact("sim.snapshot_bytes", "bytes", Lower),
    layer("sim.template_decode_us", "us", Lower),
    layer("sim.template_decode_mt_us", "us", Lower),
    layer("sim.fork_us", "us", Lower),
    layer("sim.arena_hit_ratio", "ratio", Higher),
    // mtvar-core run space, from the traced `compare` iterations.
    layer("runspace.compare.warmup_s", "s", Lower),
    layer("runspace.compare.run_busy_s", "s", Lower),
    layer("runspace.compare.run_p50_ms", "ms", Lower),
    layer("runspace.compare.sweep_self_s", "s", Lower),
    layer("runspace.compare.speedup_vs_1_thread", "ratio", Higher),
    layer("runspace.compare.run_inflation", "ratio", Lower),
    // The same from the traced `timesample` iterations.
    layer("runspace.timesample.warmup_s", "s", Lower),
    layer("runspace.timesample.run_busy_s", "s", Lower),
    layer("runspace.timesample.run_p50_ms", "ms", Lower),
    layer("runspace.timesample.sweep_self_s", "s", Lower),
    layer("runspace.timesample.speedup_vs_1_thread", "ratio", Higher),
    layer("runspace.timesample.run_inflation", "ratio", Lower),
    layer("runspace.replay_ms", "ms", Lower),
    layer("ckstore.insert_us", "us", Lower),
    layer("ckstore.get_us", "us", Lower),
    layer("ckstore.longest_prefix_us", "us", Lower),
    layer("stats.verdict_us", "us", Lower),
    // mtvar-serve, from client-side timestamps of the traced `serve` loop.
    layer("serve.jobs_per_s", "1/s", Higher),
    layer("serve.job_p50_ms", "ms", Lower),
    layer("serve.job_tail_ms", "ms", Lower),
    layer("serve.job_tail_pct", "%", Higher),
    layer("serve.queue_wait_p50_ms", "ms", Lower),
    layer("serve.exec_p50_ms", "ms", Lower),
    layer("serve.first_result_p50_ms", "ms", Lower),
    layer("serve.cold_job_p50_ms", "ms", Lower),
    layer("serve.family_job_p50_ms", "ms", Lower),
    layer("serve.repeat_job_p50_ms", "ms", Lower),
    layer("serve.stats_rtt_p50_us", "us", Lower),
    layer("serve.frame_codec_ns", "ns", Lower),
    exact("serve.runs_simulated", "count", Lower),
    exact("serve.runs_cached", "count", Higher),
    exact("serve.cache_hit_ratio", "ratio", Higher),
    exact("serve.warmups_simulated", "count", Lower),
    exact("serve.rejected", "count", Lower),
    // The tracer itself, on the workload the run names.
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.wall_s", "s", Lower),
    layer("trace.accounted_ratio", "ratio", Higher),
];

/// The metric called `name`, if the end-to-end table has it.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The contract's syntax for a name: at most 64 of letters, digits,
    /// `_`, `.` and `-`, starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_follow_the_contract_and_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(crate::workloads::NAMES)
            .collect();
        assert!(names.iter().all(|n| valid_name(n)));
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        assert!(units.into_iter().all(valid_unit));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let json = include_str!("../../BENCHMARK.json");
        let listed =
            |name: &str, rest: &str| json.contains(&format!("{{\"name\": \"{name}\", {rest}"));
        for m in &END_TO_END {
            let better = if m.better == Lower { "lower" } else { "higher" };
            let rest = format!(
                "\"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                m.unit, m.bound
            );
            assert!(
                listed(m.name, &rest),
                "{} differs in BENCHMARK.json",
                m.name
            );
        }
        for m in &PER_LAYER {
            let better = if m.better == Lower { "lower" } else { "higher" };
            let rest = format!("\"unit\": \"{}\", \"better\": \"{better}\"}}", m.unit);
            assert!(
                listed(m.name, &rest),
                "{} differs in BENCHMARK.json",
                m.name
            );
        }
        for name in crate::workloads::NAMES {
            assert!(
                listed(name, "\"why\": "),
                "workload {name} is not in BENCHMARK.json"
            );
        }
        let entries = END_TO_END.len() + PER_LAYER.len() + crate::workloads::NAMES.len();
        assert_eq!(json.matches("{\"name\": ").count(), entries);
    }
}
