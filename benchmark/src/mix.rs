//! The seeded job mix each `serve` client submits.
//!
//! A client's sequence is 40% `cold`, 30% `family` and 30% `repeat` jobs, so
//! that the daemon's checkpoint store and result cache are read (`family`,
//! `repeat`) beside being written (`cold`). A dependent job names a job the
//! same client submitted shortly before it, and it has completed by then
//! because the loop is closed: what a job finds in the store and the cache
//! never depends on how the clients interleave.

use mtvar_serve::protocol::{ConfigSpec, PlanSpec, Priority, SweepSpec, WorkloadSpec};
use mtvar_sim::rng::Xoshiro256StarStar;

/// What a job shares with earlier jobs of its client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobClass {
    /// A new base seed: the warmup and every run simulate.
    Cold,
    /// An earlier job's warmup with a new perturbation magnitude: the
    /// checkpoint store hits, the runs simulate.
    Family,
    /// An earlier job again: every run is a result-cache hit.
    Repeat,
}

impl JobClass {
    pub const ALL: [JobClass; 3] = [JobClass::Cold, JobClass::Family, JobClass::Repeat];
}

/// One job of a client's sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedJob {
    pub class: JobClass,
    pub spec: SweepSpec,
    /// Index, in the same client's sequence, of the job this one re-uses.
    pub depends_on: Option<usize>,
}

/// Runs per job and transactions per run.
pub const RUNS: u64 = 8;
pub const TRANSACTIONS: u64 = 50;
/// How far back a dependent job may reach. Kept short so that the store's
/// LRU (32 snapshots, shared by at most 4 clients) still holds the target.
const WINDOW: usize = 6;
const COLD_PERTURBATION_NS: u64 = 4;
/// Warmup transactions and DRAM latency override of a cold job.
const COLD_SHAPES: [(u64, Option<u64>); 4] =
    [(200, None), (200, Some(150)), (400, None), (400, Some(150))];

/// Number of jobs of each class in a sequence of `jobs`, in
/// [`JobClass::ALL`] order: 40/30/30, rounding in favour of `repeat`, with
/// one `cold` job at least for the others to depend on.
pub fn class_counts(jobs: usize) -> [usize; 3] {
    let cold = (jobs * 4 / 10).max(jobs.min(1));
    let family = (jobs * 3 / 10).min(jobs - cold);
    [cold, family, jobs - cold - family]
}

/// The sequence client number `client` submits under `seed`: the same
/// arguments always give the same sequence.
pub fn client_sequence(seed: u64, client: usize, jobs: usize) -> Vec<PlannedJob> {
    assert!(client < 256, "the client number is packed into 8 bits");
    let mut rng = Xoshiro256StarStar::new(seed).fork(client as u64);

    let mut classes: Vec<JobClass> = JobClass::ALL
        .into_iter()
        .zip(class_counts(jobs))
        .flat_map(|(class, count)| std::iter::repeat_n(class, count))
        .collect();
    for i in (1..classes.len()).rev() {
        classes.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    // The first job has nothing to depend on.
    if let Some(first_cold) = classes.iter().position(|&c| c == JobClass::Cold) {
        classes.swap(0, first_cold);
    }

    let mut sequence: Vec<PlannedJob> = Vec::with_capacity(jobs);
    // Perturbation magnitudes handed out so far, per warmup family.
    let mut family_sizes: Vec<(u64, u64)> = Vec::new();
    // Cold jobs take the four (warmup, DRAM) shapes in turn, in an order
    // shuffled afresh every four, so that every seed gives the daemon the
    // same amount of warmup to simulate.
    let mut shapes = COLD_SHAPES;
    for (index, class) in classes.into_iter().enumerate() {
        let job = if class == JobClass::Cold {
            let turn = family_sizes.len() % shapes.len();
            if turn == 0 {
                for i in (1..shapes.len()).rev() {
                    shapes.swap(i, rng.next_below(i as u64 + 1) as usize);
                }
            }
            // The low byte keeps base seeds of different clients apart.
            let base_seed = (rng.next_u64() << 8) | client as u64;
            family_sizes.push((base_seed, 0));
            PlannedJob {
                class,
                spec: cold_spec(shapes[turn], seed, base_seed),
                depends_on: None,
            }
        } else {
            let target = index - 1 - rng.next_below(index.min(WINDOW) as u64) as usize;
            let mut spec = sequence[target].spec.clone();
            if class == JobClass::Family {
                let size = family_sizes
                    .iter_mut()
                    .find(|(base, _)| *base == spec.plan.base_seed)
                    .map(|(_, size)| size)
                    .expect("every job descends from a cold job");
                *size += 1;
                spec.config.perturbation_max_ns = COLD_PERTURBATION_NS + *size;
            }
            PlannedJob {
                class,
                spec,
                depends_on: Some(target),
            }
        };
        sequence.push(job);
    }
    sequence
}

fn cold_spec(
    (warmup, dram_latency_ns): (u64, Option<u64>),
    seed: u64,
    base_seed: u64,
) -> SweepSpec {
    SweepSpec {
        config: ConfigSpec {
            dram_latency_ns,
            perturbation_max_ns: COLD_PERTURBATION_NS,
            ..ConfigSpec::hpca2003()
        },
        workload: WorkloadSpec::Benchmark {
            name: "oltp".into(),
            cpus: 16,
            seed,
        },
        plan: PlanSpec {
            runs: RUNS,
            transactions: TRANSACTIONS,
            warmup,
            base_seed,
            shared_warmup: true,
        },
        priority: Priority::Normal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_gives_the_same_sequences() {
        assert_eq!(client_sequence(42, 0, 30), client_sequence(42, 0, 30));
        assert_ne!(client_sequence(42, 0, 30), client_sequence(42, 1, 30));
        assert_ne!(client_sequence(42, 0, 30), client_sequence(7, 0, 30));
    }

    #[test]
    fn shares_are_forty_thirty_thirty() {
        for jobs in [10, 30, 300] {
            let sequence = client_sequence(42, 1, jobs);
            let count = |class| sequence.iter().filter(|j| j.class == class).count();
            assert_eq!(count(JobClass::Cold), jobs * 4 / 10);
            assert_eq!(count(JobClass::Family), jobs * 3 / 10);
            assert_eq!(count(JobClass::Repeat), jobs * 3 / 10);
            assert_eq!(sequence[0].class, JobClass::Cold);
        }
    }

    #[test]
    fn every_seed_demands_the_same_cold_work() {
        let demand = |seed| -> Vec<(u64, Option<u64>)> {
            let mut shapes: Vec<_> = client_sequence(seed, 0, 20)
                .iter()
                .filter(|j| j.class == JobClass::Cold)
                .map(|j| (j.spec.plan.warmup, j.spec.config.dram_latency_ns))
                .collect();
            shapes.sort_unstable();
            shapes
        };
        assert_eq!(demand(42).len(), 8);
        assert_eq!(demand(42), demand(7));
        assert_eq!(demand(42), demand(1234));
    }

    #[test]
    fn dependencies_stay_inside_the_client_and_the_window() {
        let clients: Vec<Vec<PlannedJob>> = (0..4).map(|c| client_sequence(7, c, 60)).collect();
        let mut seen = HashSet::new();
        for (client, sequence) in clients.iter().enumerate() {
            let bases: HashSet<u64> = sequence.iter().map(|j| j.spec.plan.base_seed).collect();
            for base in bases {
                assert_eq!(base & 0xff, client as u64);
                assert!(seen.insert(base), "clients share a warmup family");
            }
            for (index, job) in sequence.iter().enumerate() {
                match (job.class, job.depends_on) {
                    (JobClass::Cold, None) => {}
                    (JobClass::Cold, Some(_)) => panic!("a cold job depends on nothing"),
                    (_, None) => panic!("a dependent job names its target"),
                    (class, Some(target)) => {
                        assert!(target < index && index - target <= WINDOW);
                        let earlier = &sequence[target].spec;
                        assert_eq!(job.spec.plan, earlier.plan);
                        assert_eq!(job.spec.workload, earlier.workload);
                        let same_runs = job.spec == *earlier;
                        assert_eq!(same_runs, class == JobClass::Repeat);
                    }
                }
            }
        }
    }

    #[test]
    fn family_jobs_never_reuse_a_perturbation_magnitude() {
        let sequence = client_sequence(42, 0, 300);
        let mut simulated = HashSet::new();
        for job in sequence.iter().filter(|j| j.class != JobClass::Repeat) {
            let key = (job.spec.plan.base_seed, job.spec.config.perturbation_max_ns);
            assert!(simulated.insert(key), "a non-repeat job re-ran {key:?}");
        }
    }
}
