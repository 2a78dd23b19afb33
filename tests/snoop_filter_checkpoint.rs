//! Residency checkpoint coverage: the sharer table is derived state,
//! rebuilt from the L2 contents on restore rather than serialized. A machine
//! checkpointed mid-run with a warm table must therefore restore to one
//! equal to the table of a machine that was never checkpointed — for every
//! coherence protocol, snooping and directory, on either side of 16 CPUs —
//! and the continued run must stay digest-identical.
//!
//! The file and test names predate the sharer table, which replaced the
//! snooping protocols' presence filter and the directory protocols' block
//! map; the three tests between them cover all six protocols at 8 and at
//! 24 CPUs.

use mtvar::core::golden::run_digest;
use mtvar::sim::config::MachineConfig;
use mtvar::sim::machine::Machine;
use mtvar::sim::mem::CoherenceProtocol;
use mtvar::workloads::profile::ProfiledWorkload;
use mtvar::workloads::Benchmark;

const WORKLOAD_SEED: u64 = 42;
const WARMUP: u64 = 40;
const MEASURE: u64 = 40;

const SNOOPING: [CoherenceProtocol; 3] = [
    CoherenceProtocol::Mosi,
    CoherenceProtocol::Mesi,
    CoherenceProtocol::Moesi,
];

const DIRECTORY: [CoherenceProtocol; 3] = [
    CoherenceProtocol::DirMosi,
    CoherenceProtocol::DirMesi,
    CoherenceProtocol::DirMoesi,
];

/// Runs one machine straight through and one across a mid-run checkpoint,
/// and asserts the restored sharer table, the continued run and the final
/// state all match the never-checkpointed machine.
fn assert_restore_matches_a_straight_run(cpus: usize, protocol: CoherenceProtocol) {
    let config = MachineConfig::hpca2003()
        .with_cpus(cpus)
        .with_protocol(protocol)
        .with_perturbation(4, 0x1DE7);
    let workload = Benchmark::Oltp.workload(cpus, WORKLOAD_SEED);

    // Reference: never checkpointed.
    let mut straight = Machine::new(config.clone(), workload.clone()).unwrap();
    straight.run_transactions(WARMUP).expect("straight warmup");

    // Checkpointed mid-run, with the table warm from the warmup.
    let mut warmed = Machine::new(config, workload).unwrap();
    warmed.run_transactions(WARMUP).expect("warmup");
    assert!(
        warmed.memory().sharer_table().live_blocks() > 0,
        "{protocol:?} at {cpus} cpus: warmup must fill the sharer table, \
         or this test proves nothing"
    );
    let snapshot = warmed.snapshot();
    drop(warmed);
    let mut restored: Machine<ProfiledWorkload> = Machine::restore(&snapshot).expect("restore");

    // The rebuilt table must equal the never-checkpointed one...
    assert_eq!(
        restored.memory().sharer_table(),
        straight.memory().sharer_table(),
        "{protocol:?} at {cpus} cpus: table rebuilt on restore diverged"
    );
    // ...and the continued run must be indistinguishable from never
    // having checkpointed: same statistics, same digest, same final
    // table, same follow-up snapshot bytes.
    let want = straight
        .run_transactions(MEASURE)
        .expect("straight measure");
    let got = restored
        .run_transactions(MEASURE)
        .expect("restored measure");
    assert_eq!(
        want, got,
        "{protocol:?} at {cpus} cpus: continued run diverged"
    );
    assert_eq!(
        run_digest(&want),
        run_digest(&got),
        "{protocol:?} at {cpus} cpus"
    );
    assert_eq!(
        restored.memory().sharer_table(),
        straight.memory().sharer_table(),
        "{protocol:?} at {cpus} cpus: post-measurement table diverged"
    );
    assert_eq!(
        restored.snapshot().fingerprint(),
        straight.snapshot().fingerprint(),
        "{protocol:?} at {cpus} cpus: post-measurement state diverged"
    );
}

#[test]
fn restored_filter_matches_a_never_checkpointed_run_for_every_protocol() {
    for protocol in SNOOPING {
        assert_restore_matches_a_straight_run(8, protocol);
    }
}

#[test]
fn filter_stays_enabled_above_sixteen_cpus_and_checkpoints_round_trip() {
    // Residency tracking once stopped at 16 nodes; the table holds up to 64,
    // so a 24-CPU machine must track sharers under every protocol, restore
    // an equal table and continue bit-identically.
    for protocol in SNOOPING.into_iter().chain(DIRECTORY) {
        assert_restore_matches_a_straight_run(24, protocol);
    }
}

#[test]
fn restored_directory_matches_a_never_checkpointed_run() {
    for protocol in DIRECTORY {
        assert_restore_matches_a_straight_run(8, protocol);
    }
}
