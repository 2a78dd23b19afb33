//! What a set of runs leaves behind, and whether two sets agree.
//!
//! Every record names the host it was made on — a figure that depends on
//! threads means nothing without the core count beside it — and keeps each
//! timing as a median with its quartiles and sample count.

use crate::metrics::{self, Better};
use crate::stats::Summary;
use crate::workloads::Load;

/// Where and on what a record was made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    pub load: Load,
    pub rustc: String,
    pub commit: String,
    pub seed: u64,
}

/// One workload's results in one set.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRecord {
    pub workload: &'static str,
    /// Every end-to-end metric, in table order.
    pub end_to_end: Vec<(&'static str, Summary)>,
    /// Every per-layer metric of the traced run that named this workload.
    pub per_layer: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub host: Host,
    pub workloads: Vec<WorkloadRecord>,
}

impl Record {
    /// Operations that failed across all workloads.
    pub fn failed(&self) -> u64 {
        self.workloads.iter().map(|w| w.failed).sum()
    }

    pub fn to_json(&self) -> String {
        let Host {
            load,
            rustc,
            commit,
            seed,
        } = &self.host;
        let workloads: Vec<String> = self
            .workloads
            .iter()
            .map(|w| {
                let end_to_end: Vec<String> = w
                    .end_to_end
                    .iter()
                    .map(|(name, s)| {
                        let unit = metrics::end_to_end(name).map_or("", |m| m.unit);
                        format!(
                            "       \"{name}\": {{\"median\": {}, \"q1\": {}, \"q3\": {}, \
                             \"n\": {}, \"unit\": \"{unit}\"}}",
                            s.median, s.q1, s.q3, s.n
                        )
                    })
                    .collect();
                let per_layer: Vec<String> = w
                    .per_layer
                    .iter()
                    .map(|(name, value)| format!("       \"{name}\": {value}"))
                    .collect();
                format!(
                    "    {{\"name\": \"{}\", \"attempted\": {}, \"failed\": {}, \"failed_share\": {},\n     \
                     \"end_to_end\": {{\n{}\n     }},\n     \"per_layer\": {{\n{}\n     }}}}",
                    w.workload,
                    w.attempted,
                    w.failed,
                    w.failed as f64 / w.attempted.max(1) as f64,
                    end_to_end.join(",\n"),
                    per_layer.join(",\n"),
                )
            })
            .collect();
        format!(
            "{{\n  \"nproc\": {}, \"T\": {}, \"C\": {}, \"seed\": {seed},\n  \
             \"rustc\": \"{}\", \"commit\": \"{}\",\n  \"workloads\": [\n{}\n  ]\n}}\n",
            load.nproc,
            load.threads,
            load.clients,
            escape(rustc),
            escape(commit),
            workloads.join(",\n"),
        )
    }
}

/// Escapes the two characters a version string could break a JSON string
/// with.
pub fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

/// How one metric of one workload compares between two sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agreement {
    Agree,
    /// The second set's median is worse than the first's by more than the
    /// bound, or an exact metric differs at all.
    Regressed,
    /// A set's own spread is wider than the bound, so the bound cannot be
    /// checked.
    Unresolved,
}

impl Agreement {
    pub fn name(self) -> &'static str {
        match self {
            Agreement::Agree => "agree",
            Agreement::Regressed => "regressed",
            Agreement::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct AgreementRow {
    pub workload: &'static str,
    pub metric: &'static str,
    pub first: f64,
    pub second: f64,
    pub agreement: Agreement,
}

/// By what share of `first` the value `second` is worse.
fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Compares two sets metric by metric. Records made with different thread
/// counts or seeds measure different things and are refused.
pub fn agree(first: &Record, second: &Record) -> Result<Vec<AgreementRow>, String> {
    if first.host.load != second.host.load {
        return Err(format!(
            "the records were made under different loads: {:?} and {:?}",
            first.host.load, second.host.load
        ));
    }
    if first.host.seed != second.host.seed {
        return Err(format!(
            "the records were made from different seeds: {} and {}",
            first.host.seed, second.host.seed
        ));
    }
    let mut rows = Vec::new();
    for (a, b) in first.workloads.iter().zip(&second.workloads) {
        if a.workload != b.workload {
            return Err(format!(
                "workloads differ: {} and {}",
                a.workload, b.workload
            ));
        }
        for ((name, sa), (_, sb)) in a.end_to_end.iter().zip(&b.end_to_end) {
            let metric = metrics::end_to_end(name).ok_or(format!("unknown metric {name}"))?;
            // Set-up is timed once per child process, three times a run: too
            // few for a spread, so like the driver's acceptance check this
            // holds only its median against the bound.
            let spread = if *name == "setup_s" {
                0.0
            } else {
                sa.spread().max(sb.spread())
            };
            let agreement = if spread > metric.bound {
                Agreement::Unresolved
            } else if worsening(metric.better, sa.median, sb.median) > metric.bound {
                Agreement::Regressed
            } else {
                Agreement::Agree
            };
            rows.push(AgreementRow {
                workload: a.workload,
                metric: name,
                first: sa.median,
                second: sb.median,
                agreement,
            });
        }
        for ((name, va), (_, vb)) in a.per_layer.iter().zip(&b.per_layer) {
            let exact = metrics::PER_LAYER
                .iter()
                .any(|m| m.name == *name && m.exact);
            if exact {
                rows.push(AgreementRow {
                    workload: a.workload,
                    metric: name,
                    first: *va,
                    second: *vb,
                    agreement: if va == vb {
                        Agreement::Agree
                    } else {
                        Agreement::Regressed
                    },
                });
            }
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(median: f64, half_iqr: f64) -> Summary {
        Summary {
            median,
            q1: median - half_iqr,
            q3: median + half_iqr,
            n: 12,
        }
    }

    fn record(seed: u64, threads: usize, wall: Summary, events: f64) -> Record {
        Record {
            host: Host {
                load: Load {
                    nproc: threads,
                    threads,
                    clients: threads,
                },
                rustc: "rustc 1.0 \"quoted\"".into(),
                commit: "unknown".into(),
                seed,
            },
            workloads: vec![WorkloadRecord {
                workload: "kernel",
                end_to_end: vec![("wall_s", wall)],
                per_layer: vec![("sim.events", events), ("sim.fork_us", 3.0)],
                attempted: 4,
                failed: 0,
            }],
        }
    }

    fn verdicts(first: &Record, second: &Record) -> Vec<(&'static str, Agreement)> {
        agree(first, second)
            .unwrap()
            .into_iter()
            .map(|r| (r.metric, r.agreement))
            .collect()
    }

    #[test]
    fn agreement_follows_bound_spread_and_exactness() {
        let bound = metrics::end_to_end("wall_s").unwrap().bound;
        let base = record(42, 2, summary(1.0, 0.02), 4e6);
        assert_eq!(
            verdicts(&base, &record(42, 2, summary(1.0 + 0.8 * bound, 0.02), 4e6)),
            [
                ("wall_s", Agreement::Agree),
                ("sim.events", Agreement::Agree)
            ]
        );
        // Worse by more than the bound; an exact count that moved at all.
        assert_eq!(
            verdicts(
                &base,
                &record(42, 2, summary(1.0 + 1.2 * bound, 0.02), 4e6 + 1.0)
            ),
            [
                ("wall_s", Agreement::Regressed),
                ("sim.events", Agreement::Regressed)
            ]
        );
        // Better by any amount is no regression.
        assert_eq!(
            verdicts(&base, &record(42, 2, summary(0.5, 0.01), 4e6))[0].1,
            Agreement::Agree
        );
        // A spread wider than the bound decides nothing.
        assert_eq!(
            verdicts(&base, &record(42, 2, summary(1.0, 0.6 * bound), 4e6))[0].1,
            Agreement::Unresolved
        );
        // ... except for set-up, whose three samples a run give no spread.
        let mut wide = record(42, 2, summary(1.0, 0.6 * bound), 4e6);
        wide.workloads[0].end_to_end[0].0 = "setup_s";
        assert_eq!(verdicts(&wide, &wide)[0].1, Agreement::Agree);
    }

    #[test]
    fn records_of_different_threads_or_seeds_are_refused() {
        let base = record(42, 2, summary(1.0, 0.02), 4e6);
        assert!(agree(&base, &record(7, 2, summary(1.0, 0.02), 4e6)).is_err());
        assert!(agree(&base, &record(42, 4, summary(1.0, 0.02), 4e6)).is_err());
    }

    #[test]
    fn json_carries_host_and_quartiles() {
        let json = record(42, 2, summary(1.0, 0.25), 4e6).to_json();
        assert!(json.contains("\"nproc\": 2, \"T\": 2, \"C\": 2, \"seed\": 42"));
        assert!(json.contains("\"rustc\": \"rustc 1.0 \\\"quoted\\\"\""));
        assert!(json.contains(
            "\"wall_s\": {\"median\": 1, \"q1\": 0.75, \"q3\": 1.25, \"n\": 12, \"unit\": \"s\"}"
        ));
        assert!(json.contains("\"sim.events\": 4000000"));
    }
}
