//! Decode-robustness fuzz over checkpoint frames and payloads.
//!
//! A spill file can come back truncated, bit-flipped, or spliced together
//! from two writes; an adversarial one can claim absurd lengths. The frame
//! layers enough validation (magic, version, payload length against both
//! `usize` and the bytes present, trailing bytes, payload fingerprint) that
//! **every** such mutation must surface as a [`CheckpointError`] from
//! `Checkpoint::from_bytes` — never a panic, and never an `Ok` carrying
//! different bytes than were framed.
//!
//! Payload-level damage is a separate layer: `Checkpoint::from_payload`
//! recomputes the fingerprint, so the frame validates and the corruption
//! must instead be caught (or harmlessly absorbed) by `Machine::restore`'s
//! structural decode — which must not panic regardless of input.

use mtvar_sim::checkpoint::Checkpoint;
use mtvar_sim::config::MachineConfig;
use mtvar_sim::machine::Machine;
use mtvar_sim::rng::SplitMix64;
use mtvar_sim::workload::SharingWorkload;

fn below(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

fn warmed_frame() -> (Checkpoint, Vec<u8>) {
    let cfg = MachineConfig::hpca2003()
        .with_cpus(4)
        .with_perturbation(4, 9);
    let wl = SharingWorkload::new(8, 7, 40, 4096, 10);
    let mut m = Machine::new(cfg, wl).unwrap();
    m.run_transactions(40).unwrap();
    let ck = m.snapshot();
    let bytes = ck.to_bytes();
    (ck, bytes)
}

/// Every single-bit flip anywhere in the frame — magic, version, length,
/// fingerprint, payload — must be rejected. Exhaustive over byte positions
/// (one pseudo-random bit per byte) so no field escapes coverage.
#[test]
fn every_bit_flip_in_the_frame_is_rejected() {
    let (ck, bytes) = warmed_frame();
    let mut rng = SplitMix64::new(0xF1A9);
    let mut buf = bytes.clone();
    for i in 0..bytes.len() {
        let bit = 1u8 << below(&mut rng, 8);
        buf[i] ^= bit;
        match Checkpoint::from_bytes(&buf) {
            Err(_) => {}
            Ok(got) => panic!(
                "bit flip at byte {i} decoded Ok (fingerprint {:#x} vs original {:#x})",
                got.fingerprint(),
                ck.fingerprint()
            ),
        }
        buf[i] ^= bit; // restore for the next position
    }
    // Sanity: the unmutated frame still parses.
    assert_eq!(Checkpoint::from_bytes(&buf).unwrap(), ck);
}

/// Every proper prefix must be rejected as truncated/corrupt — an
/// interrupted write can cut the frame anywhere, including mid-header.
#[test]
fn every_truncation_is_rejected() {
    let (_, bytes) = warmed_frame();
    let mut rng = SplitMix64::new(0x7249);
    // All short prefixes exhaustively (they exercise header parsing), then
    // random cuts across the body.
    for len in 0..256.min(bytes.len()) {
        assert!(
            Checkpoint::from_bytes(&bytes[..len]).is_err(),
            "prefix of {len} bytes decoded Ok"
        );
    }
    for _ in 0..500 {
        let len = below(&mut rng, bytes.len() - 1);
        assert!(
            Checkpoint::from_bytes(&bytes[..len]).is_err(),
            "prefix of {len} bytes decoded Ok"
        );
    }
}

/// Random splices — insertions, deletions, range duplications, and
/// cross-splices of two distinct valid frames — must be rejected.
#[test]
fn random_splices_are_rejected() {
    let (_, a) = warmed_frame();
    // A second, different machine: same format, different content.
    let cfg = MachineConfig::hpca2003()
        .with_cpus(2)
        .with_perturbation(4, 3);
    let mut m2 = Machine::new(cfg, SharingWorkload::new(4, 7, 40, 4096, 10)).unwrap();
    m2.run_transactions(25).unwrap();
    let b = m2.snapshot().to_bytes();

    let mut rng = SplitMix64::new(0x0057_11CE);
    for round in 0..400 {
        let mut buf = a.clone();
        match below(&mut rng, 4) {
            0 => {
                // Insert 1..32 random bytes at a random offset.
                let at = below(&mut rng, buf.len() + 1);
                let n = 1 + below(&mut rng, 32);
                let mut chunk = Vec::with_capacity(n);
                for _ in 0..n {
                    chunk.push(rng.next_u64() as u8);
                }
                buf.splice(at..at, chunk);
            }
            1 => {
                // Delete a random nonempty range.
                let at = below(&mut rng, buf.len());
                let n = 1 + below(&mut rng, (buf.len() - at).min(64));
                buf.drain(at..at + n);
            }
            2 => {
                // Duplicate a range over another (simulates torn pages).
                let src = below(&mut rng, buf.len());
                let n = 1 + below(&mut rng, (buf.len() - src).min(64));
                let chunk: Vec<u8> = buf[src..src + n].to_vec();
                let dst = below(&mut rng, buf.len() - n + 1);
                if dst == src {
                    continue; // identity overwrite: not a mutation
                }
                buf[dst..dst + n].copy_from_slice(&chunk);
                if buf == a {
                    continue; // overwrote with identical bytes
                }
            }
            _ => {
                // Head of one valid frame + tail of the other.
                let cut_a = below(&mut rng, a.len());
                let cut_b = below(&mut rng, b.len());
                buf = a[..cut_a].to_vec();
                buf.extend_from_slice(&b[cut_b..]);
                if buf == a || buf == b {
                    continue;
                }
            }
        }
        assert!(
            Checkpoint::from_bytes(&buf).is_err(),
            "splice round {round} decoded Ok"
        );
    }
}

/// Hostile headers: absurd payload lengths must be rejected *before* they
/// can size an allocation. (The `u64::MAX` length
/// also covers the 32-bit `as usize` truncation this PR fixes: on any
/// platform the length is rejected, not wrapped.)
#[test]
fn hostile_lengths_are_rejected() {
    let (_, bytes) = warmed_frame();
    for (offset, value) in [
        (12u64, u64::MAX),  // payload_len
        (12, u64::MAX / 2), // payload_len (positive i64 range)
        (12, 1u64 << 33),   // payload_len just past 32-bit usize
    ] {
        let mut buf = bytes.clone();
        buf[offset as usize..offset as usize + 8].copy_from_slice(&value.to_le_bytes());
        assert!(Checkpoint::from_bytes(&buf).is_err());
    }
}

/// Payload-level corruption re-wrapped through `from_payload` (which makes
/// the frame self-consistent again) must never panic `Machine::restore` —
/// it either errors or decodes into some structurally valid machine.
#[test]
fn mutated_payloads_never_panic_restore() {
    let (ck, _) = warmed_frame();
    let mut rng = SplitMix64::new(0xDEC0DE);
    for _ in 0..300 {
        let mut payload = ck.payload().to_vec();
        match below(&mut rng, 3) {
            0 => {
                let i = below(&mut rng, payload.len());
                payload[i] ^= 1 << below(&mut rng, 8);
            }
            1 => {
                payload.truncate(below(&mut rng, payload.len()));
            }
            _ => {
                let at = below(&mut rng, payload.len());
                let n = 1 + below(&mut rng, 16);
                let mut chunk = Vec::with_capacity(n);
                for _ in 0..n {
                    chunk.push(rng.next_u64() as u8);
                }
                payload.splice(at..at, chunk);
            }
        }
        let rewrapped = Checkpoint::from_payload(payload);
        // Err is the expected outcome; Ok means the mutation happened to
        // produce a coherent encoding, which restore validated. A panic
        // fails the test harness either way.
        let _ = Machine::<SharingWorkload>::restore(&rewrapped);
    }
}
