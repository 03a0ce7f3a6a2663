//! The `nvpd` wire protocol: length-prefixed, CRC-framed messages.
//!
//! The campaign server and its client ([`crate::client`], which `repro
//! --connect` drives) exchange [`Message`]s over a byte stream, one per
//! frame of the shared record format ([`crate::record`]), which the
//! simulation cache's shards and the `nvpd` journal use too:
//!
//! ```text
//! [len: u32 le] [crc32: u32 le] [payload: len bytes]
//! payload = tag (1 byte) ++ body
//! ```
//!
//! Bodies are built with the record module's field codec, so a
//! [`CampaignResult`] decoded on the client renders artifacts
//! byte-identical to an in-process run.
//!
//! Decoding is strictly total: a truncated frame, a flipped CRC byte,
//! an implausible length prefix, an unknown message tag, or a malformed
//! body all come back as [`io::ErrorKind::InvalidData`] /
//! [`io::ErrorKind::UnexpectedEof`] errors — never a panic, and never a
//! partially decoded message.

use std::io::{self, Read, Write};
use std::sync::Arc;

use nvp_energy::PowerTrace;

#[cfg(test)]
use nvp_sim::crc32_bytes;

use crate::job::{CampaignRequest, CampaignResult};
use crate::record::{self, bad, put_f64, put_f64s, put_str, put_u32, put_u64, Reader};
use crate::sched::SchedStats;
use crate::simcache::{Sha256, SimCacheStats};
use crate::stats::ExecStats;
use crate::{ExpConfig, Table};

/// Protocol schema tag carried inside every [`Message::Submit`]; bump
/// when the request or result encoding changes shape. `nvpd/2` added
/// the execution-tier counters (superblocks, lane groups) to results;
/// `nvpd/3` added the cache quarantine counter, the `retryable` hint on
/// `Reject` frames, and the `replayed` idempotency marker on `Result`
/// frames (crash-durable server); `nvpd/4` dropped the three superblock
/// chain counters from results with the tier that produced them;
/// `nvpd/5` dropped the cache-policy byte from requests; `nvpd/6`
/// carries each F1 profile as its sample period and raw `f64` samples
/// (8 bytes each) instead of its CSV text (about 21).
pub const PROTOCOL: &str = "nvpd/6";

/// Upper bound a frame's length prefix may claim. Large enough for any
/// full-evaluation result with headroom, small enough that a corrupt or
/// hostile prefix cannot make the reader allocate unbounded memory.
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// Everything that travels between a campaign client and the server.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server: run this campaign job.
    Submit(CampaignRequest),
    /// Server → client status frame, streamed immediately at admission:
    /// the job id and how many jobs sit ahead of it in the queue.
    Accepted {
        /// Server-assigned job id (monotone per server).
        job: u64,
        /// Queue depth in front of this job at admission time.
        queued: u32,
    },
    /// Server → client: the finished job's values, including per-job
    /// cache and scheduler counter deltas.
    Result {
        /// The job id this result answers.
        job: u64,
        /// `true` when the server answered from its content-addressed
        /// result store (idempotent replay of an earlier identical
        /// submission) without scheduling any simulation work; the
        /// counters inside `result` then describe the original job.
        replayed: bool,
        /// The campaign output.
        result: CampaignResult,
    },
    /// Server → client: the job was refused (admission control, unknown
    /// id, protocol mismatch, …).
    Reject {
        /// Human-readable refusal reason.
        reason: String,
        /// `true` when the refusal is transient (e.g. a full admission
        /// queue) and an identical resubmission may succeed; the client
        /// retry loop keys off this instead of parsing the reason.
        retryable: bool,
    },
}

const TAG_SUBMIT: u8 = 1;
const TAG_ACCEPTED: u8 = 2;
const TAG_RESULT: u8 = 3;
const TAG_REJECT: u8 = 4;

// ---------------------------------------------------------------------
// Body encoding.
// ---------------------------------------------------------------------

fn put_config(out: &mut Vec<u8>, cfg: &ExpConfig) {
    put_f64(out, cfg.trace_duration_s);
    put_u32(out, u32::try_from(cfg.profile_seeds.len()).expect("seed list below frame cap"));
    for &s in &cfg.profile_seeds {
        put_u64(out, s);
    }
    put_u64(out, cfg.frame_seed);
    put_u64(out, u64::try_from(cfg.frame_w).expect("frame width fits u64"));
    put_u64(out, u64::try_from(cfg.frame_h).expect("frame height fits u64"));
    put_u64(out, u64::try_from(cfg.fault_trials).expect("trial count fits u64"));
    put_u64(out, cfg.fault_seed);
}

fn put_request(out: &mut Vec<u8>, req: &CampaignRequest) {
    put_str(out, PROTOCOL);
    out.push(u8::from(req.only.is_some()));
    if let Some(ids) = &req.only {
        put_u32(out, u32::try_from(ids.len()).expect("id list below frame cap"));
        ids.iter().for_each(|id| put_str(out, id));
    }
    put_config(out, &req.config);
    out.push(u8::from(req.seed.is_some()));
    if let Some(seed) = req.seed {
        put_u64(out, seed);
    }
}

fn put_table(out: &mut Vec<u8>, table: &Table) {
    put_str(out, table.id());
    put_str(out, table.title());
    put_u32(out, u32::try_from(table.columns().len()).expect("columns below frame cap"));
    for c in table.columns() {
        put_str(out, c);
    }
    put_u32(out, u32::try_from(table.rows().len()).expect("rows below frame cap"));
    for row in table.rows() {
        for cell in row {
            put_str(out, cell);
        }
    }
}

fn put_result(out: &mut Vec<u8>, result: &CampaignResult) {
    put_u32(out, u32::try_from(result.tables.len()).expect("tables below frame cap"));
    for t in &result.tables {
        put_table(out, t);
    }
    put_u32(out, u32::try_from(result.profiles.len()).expect("profiles below frame cap"));
    for (seed, trace) in &result.profiles {
        put_u64(out, *seed);
        put_f64(out, trace.dt_s());
        put_f64s(out, trace.samples());
    }
    for v in [
        result.cache.hits,
        result.cache.disk_hits,
        result.cache.misses,
        result.cache.persisted,
        result.cache.quarantined,
    ] {
        put_u64(out, v);
    }
    for v in [result.sched.tasks, result.sched.steals, result.sched.helpers] {
        put_u64(out, v);
    }
    for v in [result.exec.lane_groups, result.exec.lane_group_items] {
        put_u64(out, v);
    }
}

/// Serializes a message payload (tag + body), without framing.
fn encode_payload(msg: &Message) -> Vec<u8> {
    let mut out = Vec::new();
    match msg {
        Message::Submit(req) => {
            out.push(TAG_SUBMIT);
            put_request(&mut out, req);
        }
        Message::Accepted { job, queued } => {
            out.push(TAG_ACCEPTED);
            put_u64(&mut out, *job);
            put_u32(&mut out, *queued);
        }
        Message::Result { job, replayed, result } => {
            out.push(TAG_RESULT);
            put_u64(&mut out, *job);
            out.push(u8::from(*replayed));
            put_result(&mut out, result);
        }
        Message::Reject { reason, retryable } => {
            out.push(TAG_REJECT);
            put_str(&mut out, reason);
            out.push(u8::from(*retryable));
        }
    }
    out
}

// ---------------------------------------------------------------------
// Body decoding.
// ---------------------------------------------------------------------

fn get_config(r: &mut Reader<'_>) -> io::Result<ExpConfig> {
    let trace_duration_s = r.f64()?;
    let n = r.count(8)?;
    let profile_seeds = (0..n).map(|_| r.u64()).collect::<io::Result<_>>()?;
    Ok(ExpConfig {
        trace_duration_s,
        profile_seeds,
        frame_seed: r.u64()?,
        frame_w: r.usize()?,
        frame_h: r.usize()?,
        fault_trials: r.usize()?,
        fault_seed: r.u64()?,
    })
}

fn get_request(r: &mut Reader<'_>) -> io::Result<CampaignRequest> {
    let proto = r.str()?;
    if proto != PROTOCOL {
        return Err(bad(&format!("protocol mismatch (expected {PROTOCOL}, got {proto})")));
    }
    let only = if r.flag("id-selection")? {
        let n = r.count(4)?;
        Some((0..n).map(|_| r.str()).collect::<io::Result<_>>()?)
    } else {
        None
    };
    let config = get_config(r)?;
    let seed = if r.flag("seed")? { Some(r.u64()?) } else { None };
    Ok(CampaignRequest { only, config, seed })
}

fn get_table(r: &mut Reader<'_>) -> io::Result<Table> {
    let id = r.str()?;
    let title = r.str()?;
    let ncols = r.count(4)?;
    if ncols == 0 {
        // `Table::push_row` asserts on width; an empty header with
        // nonzero rows would otherwise panic below.
        return Err(bad("table with zero columns"));
    }
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        columns.push(r.str()?);
    }
    let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut table = Table::new(&id, &title, &col_refs);
    let nrows = r.count(4)?;
    for _ in 0..nrows {
        let mut row = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            row.push(r.str()?);
        }
        table.push_row(row);
    }
    Ok(table)
}

/// One `(seed, trace)` profile. Checked here, so that
/// [`PowerTrace::from_samples`] cannot panic on what a peer sent.
fn get_profile(r: &mut Reader<'_>) -> io::Result<(u64, Arc<PowerTrace>)> {
    let seed = r.u64()?;
    let dt_s = r.f64()?;
    if !(dt_s.is_finite() && dt_s > 0.0) {
        return Err(bad("profile sample period is not finite and positive"));
    }
    let samples = r.f64s()?;
    if !samples.iter().all(|p| p.is_finite() && *p >= 0.0) {
        return Err(bad("profile sample is not finite and non-negative"));
    }
    Ok((seed, Arc::new(PowerTrace::from_samples(dt_s, samples))))
}

fn get_result(r: &mut Reader<'_>) -> io::Result<CampaignResult> {
    let ntables = r.count(4)?;
    let tables = (0..ntables).map(|_| get_table(r)).collect::<io::Result<_>>()?;
    let nprofiles = r.count(20)?;
    let profiles = (0..nprofiles).map(|_| get_profile(r)).collect::<io::Result<_>>()?;
    let cache = SimCacheStats {
        hits: r.u64()?,
        disk_hits: r.u64()?,
        misses: r.u64()?,
        persisted: r.u64()?,
        quarantined: r.u64()?,
    };
    let sched = SchedStats { tasks: r.u64()?, steals: r.u64()?, helpers: r.u64()? };
    let exec =
        ExecStats { lane_groups: r.u64()?, lane_group_items: r.u64()?, ..ExecStats::default() };
    Ok(CampaignResult { tables, profiles, cache, sched, exec })
}

/// Decodes one payload (tag + body) into a [`Message`].
fn decode_payload(payload: &[u8]) -> io::Result<Message> {
    let mut r = Reader::new(payload);
    let msg = match r.u8()? {
        TAG_SUBMIT => Message::Submit(get_request(&mut r)?),
        TAG_ACCEPTED => Message::Accepted { job: r.u64()?, queued: r.u32()? },
        TAG_RESULT => {
            let (job, replayed) = (r.u64()?, r.flag("replay")?);
            Message::Result { job, replayed, result: get_result(&mut r)? }
        }
        TAG_REJECT => Message::Reject { reason: r.str()?, retryable: r.flag("retryable")? },
        tag => return Err(bad(&format!("unknown message tag {tag}"))),
    };
    r.done()?;
    Ok(msg)
}

// ---------------------------------------------------------------------
// Standalone value codecs: the crash-durable `nvpd` journal and its
// content-addressed result store persist requests and results with the
// exact wire encoding, so a replayed value is bit-identical to one that
// travelled a socket.
// ---------------------------------------------------------------------

/// Serializes a [`CampaignRequest`] body (the `Submit` payload without
/// its tag byte) — the canonical durable encoding of a request.
#[must_use]
pub fn encode_request_bytes(req: &CampaignRequest) -> Vec<u8> {
    let mut out = Vec::new();
    put_request(&mut out, req);
    out
}

/// Decodes a [`CampaignRequest`] from [`encode_request_bytes`] output.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] for any malformed or trailing bytes —
/// including requests journalled under a different protocol version.
pub fn decode_request_bytes(bytes: &[u8]) -> io::Result<CampaignRequest> {
    let mut r = Reader::new(bytes);
    let req = get_request(&mut r)?;
    r.done()?;
    Ok(req)
}

/// Serializes a [`CampaignResult`] body — the canonical durable
/// encoding of a finished job's values.
#[must_use]
pub fn encode_result_bytes(result: &CampaignResult) -> Vec<u8> {
    let mut out = Vec::new();
    put_result(&mut out, result);
    out
}

/// Decodes a [`CampaignResult`] from [`encode_result_bytes`] output.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] for any malformed or trailing bytes.
pub fn decode_result_bytes(bytes: &[u8]) -> io::Result<CampaignResult> {
    let mut r = Reader::new(bytes);
    let result = get_result(&mut r)?;
    r.done()?;
    Ok(result)
}

/// The content-addressed idempotency key of a request: a SHA-256 over
/// its canonical wire encoding (which embeds [`PROTOCOL`], so keys
/// never alias across protocol revisions). Two byte-identical
/// submissions — e.g. a client retry after an observed failure — map to
/// the same key, which is what lets the server deduplicate them through
/// its result store.
#[must_use]
pub fn request_key(req: &CampaignRequest) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"nvpd-idem/1");
    h.update(&encode_request_bytes(req));
    h.finalize()
}

/// SHA-256 content digest of an arbitrary byte string (the same
/// in-tree FIPS 180-4 core the simulation cache keys on). The `nvpd`
/// journal writes this digest of each stored result into its
/// `Completed` record. Recovery reads past it and does not check the
/// result store against it; a stored result that fails to decode is
/// quarantined on lookup instead.
#[must_use]
pub fn content_digest(bytes: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(bytes);
    h.finalize()
}

// ---------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------

/// Writes one framed message, then flushes.
///
/// # Errors
///
/// Any I/O error from the underlying writer, or
/// [`io::ErrorKind::InvalidData`] for a message past [`MAX_FRAME_BYTES`].
pub fn write_frame<W: Write>(w: &mut W, msg: &Message) -> io::Result<()> {
    let mut frame = Vec::new();
    record::put_frame(&mut frame, &encode_payload(msg), MAX_FRAME_BYTES)?;
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one framed message, verifying the length bound and CRC before
/// decoding. Malformed input of any kind is an error, never a panic:
/// truncation surfaces as [`io::ErrorKind::UnexpectedEof`], everything
/// else as [`io::ErrorKind::InvalidData`].
///
/// # Errors
///
/// Any I/O error from the underlying reader, or the malformed-frame
/// errors above.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Message> {
    decode_payload(&record::read_frame(r, MAX_FRAME_BYTES)?)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample_request() -> CampaignRequest {
        let mut req = CampaignRequest::only(ExpConfig::quick(), &["f2", "F12"]);
        req.seed = Some(42);
        req
    }

    fn sample_result() -> CampaignResult {
        let mut t = Table::new("F2", "outage stats", &["metric", "value"]);
        t.push_row(vec!["emergencies/min".into(), "12.5".into()]);
        t.push_row(vec!["mean_outage_ms".into(), "3.25".into()]);
        CampaignResult {
            tables: vec![t],
            profiles: vec![(
                1,
                Arc::new(PowerTrace::from_samples(1e-4, vec![12.5e-6, 0.0, 2.0e-3, 1.0e-9])),
            )],
            cache: SimCacheStats { hits: 7, disk_hits: 2, misses: 3, persisted: 3, quarantined: 1 },
            sched: SchedStats { tasks: 10, steals: 4, helpers: 2 },
            exec: ExecStats { lane_groups: 4, lane_group_items: 30, ..ExecStats::default() },
        }
    }

    fn roundtrip(msg: &Message) -> Message {
        let mut buf = Vec::new();
        write_frame(&mut buf, msg).unwrap();
        read_frame(&mut Cursor::new(buf)).unwrap()
    }

    #[test]
    fn every_message_kind_round_trips() {
        let submit = Message::Submit(sample_request());
        assert_eq!(roundtrip(&submit), submit);
        let full = Message::Submit(CampaignRequest::all(ExpConfig::default()));
        assert_eq!(roundtrip(&full), full);
        let accepted = Message::Accepted { job: 9, queued: 3 };
        assert_eq!(roundtrip(&accepted), accepted);
        let result = Message::Result { job: 9, replayed: false, result: sample_result() };
        assert_eq!(roundtrip(&result), result);
        let replay = Message::Result { job: 10, replayed: true, result: sample_result() };
        assert_eq!(roundtrip(&replay), replay);
        let reject = Message::Reject { reason: "queue full".into(), retryable: true };
        assert_eq!(roundtrip(&reject), reject);
        let fatal = Message::Reject { reason: "unknown id".into(), retryable: false };
        assert_eq!(roundtrip(&fatal), fatal);
    }

    #[test]
    fn result_tables_render_identically_after_the_wire() {
        let result = sample_result();
        let Message::Result { result: decoded, .. } =
            roundtrip(&Message::Result { job: 1, replayed: false, result: result.clone() })
        else {
            panic!("wrong message kind");
        };
        assert_eq!(decoded.tables[0].to_csv(), result.tables[0].to_csv());
        assert_eq!(decoded.tables[0].to_markdown(), result.tables[0].to_markdown());
        assert_eq!(decoded.results_markdown(), result.results_markdown());
        assert_eq!(decoded.profiles[0].1.to_csv(), result.profiles[0].1.to_csv());
    }

    /// A quick `f1` job with two profiles, cut to a few dozen samples
    /// each so that sweeps over its every byte and bit stay fast.
    pub(crate) fn short_f1_result() -> CampaignResult {
        let mut config = ExpConfig::quick();
        config.trace_duration_s = 0.003;
        let result = crate::run_request(&CampaignRequest::only(config, &["f1"])).unwrap();
        assert_eq!(result.profiles.len(), 2);
        assert!(result.profiles.iter().all(|(_, t)| t.len() == 30));
        result
    }

    #[test]
    fn profiles_travel_as_their_exact_samples() {
        let result = short_f1_result();
        let bytes = encode_result_bytes(&result);
        let decoded = decode_result_bytes(&bytes).unwrap();
        assert_eq!(decoded, result);
        for ((seed, got), (want_seed, want)) in decoded.profiles.iter().zip(&result.profiles) {
            assert_eq!(seed, want_seed);
            assert_eq!(got.dt_s().to_bits(), want.dt_s().to_bits());
            let bits = |t: &PowerTrace| t.samples().iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(want), "profile {seed}: samples are bit-identical");
        }
        assert_eq!(encode_result_bytes(&decoded), bytes, "re-encoding reproduces the bytes");
        // Eight bytes a sample, behind a seed, a period and a count.
        let samples: usize = result.profiles.iter().map(|(_, t)| t.len()).sum();
        let mut no_profiles = result.clone();
        no_profiles.profiles.clear();
        assert_eq!(
            bytes.len() - encode_result_bytes(&no_profiles).len(),
            8 * samples + 20 * result.profiles.len()
        );
    }

    /// Every strict prefix of a result body is an error, and every
    /// flipped bit decodes to an error or to a result whose encoding is
    /// the flipped bytes: never a panic, never a value the codec would
    /// not write.
    #[test]
    fn every_cut_and_bit_flip_of_a_result_body_errors_or_decodes_canonically() {
        let bytes = encode_result_bytes(&short_f1_result());
        for cut in 0..bytes.len() {
            let err = decode_result_bytes(&bytes[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
        }
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            match decode_result_bytes(&flipped) {
                Ok(result) => assert_eq!(encode_result_bytes(&result), flipped, "bit {bit}"),
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "bit {bit}"),
            }
        }
    }

    /// A result body with no tables, one profile of `dt_s` and
    /// `samples` under a sample count of `count`, and zeroed counters.
    fn profile_body(dt_s: f64, samples: &[f64], count: u32) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, 0);
        put_u32(&mut out, 1);
        put_u64(&mut out, 1);
        put_f64(&mut out, dt_s);
        put_u32(&mut out, count);
        samples.iter().for_each(|&p| put_f64(&mut out, p));
        out.extend_from_slice(&[0; 10 * 8]);
        out
    }

    #[test]
    fn malformed_profiles_are_invalid_data() {
        let ok = decode_result_bytes(&profile_body(1e-4, &[1e-6, 0.0], 2)).unwrap();
        assert_eq!(ok.profiles[0].1.samples(), [1e-6, 0.0]);
        let cases = [
            ("NaN sample", profile_body(1e-4, &[1e-6, f64::NAN], 2)),
            ("negative sample", profile_body(1e-4, &[-1e-6, 0.0], 2)),
            ("infinite sample", profile_body(1e-4, &[f64::INFINITY, 0.0], 2)),
            ("zero period", profile_body(0.0, &[1e-6, 0.0], 2)),
            ("negative period", profile_body(-1e-4, &[1e-6, 0.0], 2)),
            ("NaN period", profile_body(f64::NAN, &[1e-6, 0.0], 2)),
            ("infinite period", profile_body(f64::INFINITY, &[1e-6, 0.0], 2)),
            ("count past the bytes left", profile_body(1e-4, &[1e-6, 0.0], 1000)),
        ];
        for (what, body) in cases {
            let err = decode_result_bytes(&body).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
    }

    #[test]
    fn truncated_frames_error_instead_of_panicking() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Message::Submit(sample_request())).unwrap();
        // Every possible truncation point: header, payload, mid-field.
        for cut in 0..buf.len() {
            let err = read_frame(&mut Cursor::new(&buf[..cut])).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn flipped_crc_byte_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Message::Accepted { job: 1, queued: 0 }).unwrap();
        buf[4] ^= 0xFF; // CRC field
        let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("CRC"), "{err}");
        // A payload flip fails the same check.
        let mut buf2 = Vec::new();
        write_frame(&mut buf2, &Message::Accepted { job: 1, queued: 0 }).unwrap();
        let last = buf2.len() - 1;
        buf2[last] ^= 0x01;
        assert_eq!(
            read_frame(&mut Cursor::new(&buf2)).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("length"), "{err}");
        // A zero-length frame is equally implausible (no tag byte).
        let mut zero = Vec::new();
        zero.extend_from_slice(&0u32.to_le_bytes());
        zero.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            read_frame(&mut Cursor::new(&zero)).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn unknown_message_tag_is_rejected() {
        let payload = [0xEEu8, 1, 2, 3];
        let mut buf = Vec::new();
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32_bytes(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);
        let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("tag"), "{err}");
    }

    /// A CRC-valid frame whose *body* lies about its element counts
    /// must error (not panic, not over-allocate).
    #[test]
    fn corrupt_counts_inside_a_valid_frame_are_rejected() {
        let mut payload = vec![TAG_RESULT];
        payload.extend_from_slice(&1u64.to_le_bytes()); // job id
        payload.push(0); // replayed flag
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // "tables"
        let mut buf = Vec::new();
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32_bytes(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);
        let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn protocol_tag_mismatch_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Message::Submit(sample_request())).unwrap();
        // The protocol string sits at a fixed offset: frame header (8),
        // tag (1), string length (4), then "nvpd/1". Flip the digit —
        // but then the CRC catches it, so recompute the CRC to emulate
        // a *well-formed* frame from a future protocol.
        let digit = 8 + 1 + 4 + PROTOCOL.len() - 1;
        buf[digit] = b'9';
        let crc = crc32_bytes(&buf[8..]);
        buf[4..8].copy_from_slice(&crc.to_le_bytes());
        let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("protocol"), "{err}");
    }

    #[test]
    fn durable_value_codecs_round_trip_and_reject_trailing_bytes() {
        let req = sample_request();
        let bytes = encode_request_bytes(&req);
        assert_eq!(decode_request_bytes(&bytes).unwrap(), req);
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(decode_request_bytes(&trailing).unwrap_err().kind(), io::ErrorKind::InvalidData);

        let result = sample_result();
        let bytes = encode_result_bytes(&result);
        assert_eq!(decode_result_bytes(&bytes).unwrap(), result);
        assert_eq!(
            decode_result_bytes(&bytes[..bytes.len() - 1]).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn request_keys_are_content_addresses() {
        let a = sample_request();
        let mut b = sample_request();
        assert_eq!(request_key(&a), request_key(&a), "same request, same key");
        assert_eq!(request_key(&a), request_key(&b), "byte-identical clones collide");
        b.seed = Some(43);
        assert_ne!(request_key(&a), request_key(&b), "any field change moves the key");
        let digest = content_digest(b"abc");
        // Pinned FIPS vector: content_digest is plain SHA-256.
        assert_eq!(
            digest[..4],
            [0xba, 0x78, 0x16, 0xbf],
            "content digest must be the standard SHA-256"
        );
    }

    /// A peer that delivers half a frame and then stalls must trip the
    /// socket read timeout, not hang the reader forever — the failure
    /// mode behind the old `repro --connect` hang.
    #[test]
    fn stalled_peer_trips_the_read_timeout_instead_of_hanging() {
        use std::io::Write as _;
        use std::net::{TcpListener, TcpStream};
        use std::time::Duration;

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            let mut buf = Vec::new();
            write_frame(&mut buf, &Message::Accepted { job: 1, queued: 0 }).unwrap();
            s.write_all(&buf[..buf.len() / 2]).expect("half a frame");
            s.flush().expect("flush");
            s // ... then stall, keeping the socket open
        });
        let (mut conn, _) = listener.accept().expect("accept");
        conn.set_read_timeout(Some(Duration::from_millis(200))).expect("read timeout");
        let err = read_frame(&mut conn).unwrap_err();
        assert!(
            matches!(err.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut),
            "expected a read timeout, got {err:?}"
        );
        drop(writer.join().expect("writer thread"));
    }

    /// A slow writer that dribbles the frame byte-by-byte (but does
    /// finish) must still parse cleanly: framing cannot assume whole
    /// frames arrive in one read.
    #[test]
    fn a_dribbled_frame_still_reads_whole() {
        use std::io::Write as _;
        use std::net::{TcpListener, TcpStream};
        use std::time::Duration;

        let msg = Message::Accepted { job: 42, queued: 7 };
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.set_nodelay(true).expect("nodelay");
            for byte in buf {
                s.write_all(&[byte]).expect("dribble");
                s.flush().expect("flush");
            }
        });
        let (mut conn, _) = listener.accept().expect("accept");
        conn.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
        assert_eq!(read_frame(&mut conn).expect("reassembled frame"), msg);
        writer.join().expect("writer thread");
    }

    #[test]
    fn trailing_garbage_after_a_valid_body_is_rejected() {
        let mut payload = encode_payload(&Message::Accepted { job: 1, queued: 0 });
        payload.push(0xAA);
        let mut buf = Vec::new();
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32_bytes(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);
        let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("trailing"), "{err}");
    }
}
