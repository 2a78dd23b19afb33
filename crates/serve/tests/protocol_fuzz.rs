//! Decode-robustness fuzz over service protocol frames, mirroring the
//! checkpoint codec's fuzz suite: a hostile or damaged client (or a
//! corrupted stream) can hand the server truncated, bit-flipped, spliced, or
//! absurd-length frames, and **every** such mutation must surface as an
//! error — never a panic, and never an allocation sized by attacker bytes.
//!
//! Both directions are covered: request frames (what the server decodes)
//! and response frames (what the client decodes). Both travel in the
//! workspace's one frame (`mtvar_sim::checkpoint::frame`), under their own
//! magic.

use mtvar_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_message, ConfigSpec,
    ErrorCode, PlanSpec, Priority, Request, Response, ServerStats, SweepSpec, WorkloadSpec,
    MAX_FRAME_BODY, PROTOCOL_VERSION, REQUEST_MAGIC, RESPONSE_MAGIC,
};
use mtvar_serve::ServeError;
use mtvar_sim::checkpoint::{frame, unframe, CheckpointError, FRAME_HEADER_BYTES};
use mtvar_sim::rng::SplitMix64;

fn below(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

fn sample_request() -> Request {
    Request::Submit(SweepSpec {
        config: ConfigSpec {
            cpus: 8,
            perturbation_max_ns: 4,
            l2_associativity: Some(2),
            dram_latency_ns: Some(90),
            directory: true,
        },
        workload: WorkloadSpec::Benchmark {
            name: "oltp".into(),
            cpus: 8,
            seed: 7,
        },
        plan: PlanSpec {
            runs: 12,
            transactions: 200,
            warmup: 50,
            base_seed: 3,
            shared_warmup: true,
        },
        priority: Priority::High,
    })
}

fn sample_response() -> Response {
    Response::StatsReport(ServerStats {
        submitted: 5,
        completed: 3,
        rejected: 1,
        runs_cached: 12,
        coalesce_leaders: 1,
        coalesce_followers: 4,
        draining: true,
        warnings: vec!["disk spill degraded: permission denied".into()],
        ..ServerStats::default()
    })
}

/// Every single-bit flip anywhere in either frame — magic, version, length,
/// fingerprint, body — must be rejected. One pseudo-random
/// bit per byte position keeps the sweep exhaustive over fields.
#[test]
fn every_bit_flip_is_rejected() {
    let req = sample_request();
    let resp = sample_response();
    let mut rng = SplitMix64::new(0xF1A9);
    for (frame, decodes) in [
        (encode_request(&req), true),
        (encode_response(&resp), false),
    ] {
        let mut buf = frame.clone();
        for i in 0..frame.len() {
            let bit = 1u8 << below(&mut rng, 8);
            buf[i] ^= bit;
            let rejected = if decodes {
                decode_request(&buf).is_err()
            } else {
                decode_response(&buf).is_err()
            };
            assert!(rejected, "bit flip at byte {i} decoded Ok");
            buf[i] ^= bit; // restore for the next position
        }
        // Sanity: the unmutated frame still parses.
        if decodes {
            assert_eq!(decode_request(&buf).unwrap(), req);
        } else {
            assert_eq!(decode_response(&buf).unwrap(), resp);
        }
    }
}

/// Every proper prefix must be rejected — a cut can land mid-header or
/// mid-body. Trailing garbage is rejected too: a frame is
/// exactly as long as its header says.
#[test]
fn every_truncation_and_extension_is_rejected() {
    let frame = encode_request(&sample_request());
    for len in 0..frame.len() {
        assert!(
            decode_request(&frame[..len]).is_err(),
            "prefix of {len} bytes decoded Ok"
        );
    }
    let mut extended = frame.clone();
    extended.push(0);
    assert!(decode_request(&extended).is_err(), "trailing byte accepted");

    let frame = encode_response(&sample_response());
    for len in 0..frame.len() {
        assert!(
            decode_response(&frame[..len]).is_err(),
            "prefix of {len} bytes decoded Ok"
        );
    }
}

/// Random splices — insertions, deletions, duplicated ranges, and
/// cross-splices of a request with a response frame — must be rejected.
#[test]
fn random_splices_are_rejected() {
    let a = encode_request(&sample_request());
    let b = encode_response(&sample_response());
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
                // Duplicate a range over another (simulates a torn buffer).
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
                // Head of the request frame + tail of the response frame.
                // Even a clean 0/0 cut yields a whole response frame, which
                // decode_request must still reject on its magic.
                let cut_a = below(&mut rng, a.len());
                let cut_b = below(&mut rng, b.len());
                buf = a[..cut_a].to_vec();
                buf.extend_from_slice(&b[cut_b..]);
                if buf == a {
                    continue;
                }
            }
        }
        assert!(
            decode_request(&buf).is_err(),
            "splice round {round} decoded Ok"
        );
    }
}

/// A frame sent to the wrong side fails on its magic, on the slice path and
/// the stream path alike.
#[test]
fn a_request_decoded_as_a_response_is_bad_magic() {
    let request = encode_request(&sample_request());
    assert_eq!(decode_response(&request), Err(CheckpointError::BadMagic));
    match read_message::<Response>(&mut std::io::Cursor::new(request)) {
        Err(ServeError::Protocol(CheckpointError::BadMagic)) => {}
        other => panic!("expected BadMagic, got {other:?}"),
    }
    let response = encode_response(&sample_response());
    assert_eq!(decode_request(&response), Err(CheckpointError::BadMagic));
}

/// Hostile `payload_len` values must be rejected from the 28-byte header
/// alone, before any allocation. The stream reader is handed the header and
/// nothing more: had it sized a buffer and tried to read the body, it would
/// report `Truncated`; rejecting from the header it reports `Corrupt` — over
/// [`MAX_FRAME_BODY`], or over `usize` where that is narrower than `u64`.
#[test]
fn hostile_lengths_are_rejected_before_allocation() {
    let frame = encode_request(&sample_request());
    for value in [
        u64::MAX,
        u64::MAX / 2,
        1 << 40,
        u64::from(u32::MAX),
        1 << 30,
        (MAX_FRAME_BODY + 1) as u64,
    ] {
        let mut buf = frame.clone();
        buf[12..20].copy_from_slice(&value.to_le_bytes());
        assert!(
            decode_request(&buf).is_err(),
            "payload_len {value} accepted on the slice path"
        );
        let header = buf[..FRAME_HEADER_BYTES].to_vec();
        match read_message::<Request>(&mut std::io::Cursor::new(header)) {
            Err(ServeError::Protocol(CheckpointError::Corrupt { what })) => assert!(
                what.contains("exceeds"),
                "payload_len {value}: unexpected rejection {what}"
            ),
            other => panic!("payload_len {value} not rejected from the header: {other:?}"),
        }
    }
    // A stream that dries up mid-body is Truncated, not a hang or a panic.
    let mut cursor = std::io::Cursor::new(frame[..FRAME_HEADER_BYTES + 3].to_vec());
    assert!(matches!(
        read_message::<Request>(&mut cursor),
        Err(ServeError::Protocol(CheckpointError::Truncated))
    ));
}

/// Body-level corruption re-wrapped in a *valid* frame (fresh fingerprint,
/// so the frame layer passes) must never panic the message decoder, and
/// length fields inside the body must never drive an allocation past the
/// body's own size — the Snap decoder's `decode_len` discipline.
#[test]
fn mutated_bodies_never_panic_the_message_decoder() {
    let body_of =
        |magic, frame: Vec<u8>| unframe(magic, PROTOCOL_VERSION, &frame).unwrap().0.to_vec();
    let req_body = body_of(REQUEST_MAGIC, encode_request(&sample_request()));
    let resp_body = body_of(RESPONSE_MAGIC, encode_response(&sample_response()));
    let mut rng = SplitMix64::new(0xDEC0DE);
    for round in 0..600 {
        let (body, magic) = if round % 2 == 0 {
            (&req_body, REQUEST_MAGIC)
        } else {
            (&resp_body, RESPONSE_MAGIC)
        };
        let mut mutated = body.clone();
        match below(&mut rng, 3) {
            0 => {
                let i = below(&mut rng, mutated.len());
                mutated[i] ^= 1 << below(&mut rng, 8);
            }
            1 => {
                mutated.truncate(below(&mut rng, mutated.len()));
            }
            _ => {
                let at = below(&mut rng, mutated.len());
                let n = 1 + below(&mut rng, 16);
                let mut chunk = Vec::with_capacity(n);
                for _ in 0..n {
                    chunk.push(rng.next_u64() as u8);
                }
                mutated.splice(at..at, chunk);
            }
        }
        let framed = frame(magic, PROTOCOL_VERSION, &mutated);
        // Err is the expected outcome; Ok means the mutation happened to
        // produce a coherent encoding. A panic fails the harness either way.
        if magic == REQUEST_MAGIC {
            let _ = decode_request(&framed);
        } else {
            let _ = decode_response(&framed);
        }
    }
}

/// Pure noise — random bytes framed as a valid body — decodes to an error
/// for every seed tried, across both message types.
#[test]
fn random_bodies_decode_to_errors() {
    let mut rng = SplitMix64::new(0x5EED);
    for _ in 0..300 {
        let n = below(&mut rng, 256);
        let mut body = Vec::with_capacity(n);
        for _ in 0..n {
            body.push(rng.next_u64() as u8);
        }
        // Tags 0..=4 (requests) and 0..=10 (responses) exist, so a random
        // first byte frequently names a real variant — the inner field
        // decode still has to fail gracefully on the noise that follows.
        let _ = decode_request(&frame(REQUEST_MAGIC, PROTOCOL_VERSION, &body));
        let _ = decode_response(&frame(RESPONSE_MAGIC, PROTOCOL_VERSION, &body));
    }
    // Spot-check a specifically nasty body: a valid Error tag followed by a
    // string length claiming the whole address space.
    let mut body = vec![10u8, 0u8]; // Response::Error, ErrorCode::QueueFull
    body.extend_from_slice(&u64::MAX.to_le_bytes());
    assert!(decode_response(&frame(RESPONSE_MAGIC, PROTOCOL_VERSION, &body)).is_err());
    let _ = ErrorCode::QueueFull; // keep the import honest
}
