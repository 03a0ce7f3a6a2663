//! Retrying client for the `nvpd` campaign server.
//!
//! [`submit`] connects, sends one [`CampaignRequest`], and reads the
//! streamed status/result frames back. The returned
//! [`crate::job::CampaignResult`] is the same value an in-process
//! [`crate::job::run_request`] call produces — render it with
//! `CampaignResult::write` and the artifacts are byte-identical to a
//! local run (pinned by the golden digests and the loopback tests).
//!
//! ## Failure handling
//!
//! Every socket operation is bounded: connects use
//! [`TcpStream::connect_timeout`], the submit/accept handshake runs
//! under [`ClientConfig::timeout`], and the (potentially long) wait for
//! the result frame under the separate, generous
//! [`ClientConfig::result_timeout`] — a dead server or a half-delivered
//! frame can no longer hang the client forever. Failures are *typed*
//! ([`ClientError`]): transport-level problems are `Unreachable` or
//! `Retryable` and are retried up to [`ClientConfig::retries`] times
//! with jittered exponential backoff, while protocol violations
//! (`Fatal`) and explicit non-retryable server rejections (`Rejected`)
//! fail fast.
//!
//! Retrying a submission is safe because the server deduplicates by
//! content-addressed idempotency key ([`crate::wire::request_key`]): a
//! resubmitted request after a client-observed failure returns the
//! original job's result instead of simulating twice.
//!
//! The backoff schedule is deterministic — delays derive from the
//! request key and attempt number through a splitmix-style mixer, not
//! from the wall clock — so test runs and reproductions see identical
//! retry timing.

use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::job::{CampaignRequest, CampaignResult};
use crate::wire::{read_frame, request_key, write_frame, Message};

/// Socket-level policy for [`submit_with`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientConfig {
    /// Bound on connecting and on the submit/accept handshake (each
    /// read/write individually). Short: a healthy server answers the
    /// handshake immediately even when the queue is deep.
    pub timeout: Duration,
    /// Bound on waiting for the result frame after admission. Generous:
    /// a full-campaign simulation legitimately takes minutes.
    pub result_timeout: Duration,
    /// Additional attempts after the first (so `retries: 2` means at
    /// most three connects) for `Unreachable`/`Retryable` failures.
    pub retries: u32,
    /// Base delay of the exponential backoff between attempts; attempt
    /// `n` waits roughly `backoff_base * 2^n`, jittered ±50% and capped
    /// at 64× the base.
    pub backoff_base: Duration,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            timeout: Duration::from_secs(10),
            result_timeout: Duration::from_secs(900),
            retries: 2,
            backoff_base: Duration::from_millis(50),
        }
    }
}

/// Why a submission failed, split by what the caller should do next.
#[derive(Debug)]
pub enum ClientError {
    /// No server answered at the address: resolution failed, the
    /// connect was refused, or it timed out. `repro --connect` renders
    /// this as a usage error (exit 2).
    Unreachable {
        /// The address as given by the caller.
        addr: String,
        /// Underlying failure detail.
        detail: String,
    },
    /// A transient transport failure after connecting (timeout, reset,
    /// truncated frame). Retried automatically; safe to resubmit —
    /// the server deduplicates by idempotency key.
    Retryable {
        /// Underlying failure detail.
        detail: String,
    },
    /// A protocol violation (undecodable or out-of-order frame).
    /// Never retried: the peer is not speaking this build's protocol.
    Fatal {
        /// Underlying failure detail.
        detail: String,
    },
    /// The server explicitly rejected the request and marked the
    /// rejection non-retryable (e.g. an admission-gate failure).
    Rejected {
        /// The server's reason string.
        reason: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Unreachable { addr, detail } => {
                write!(f, "server unreachable at {addr}: {detail}")
            }
            ClientError::Retryable { detail } => write!(f, "transient failure: {detail}"),
            ClientError::Fatal { detail } => write!(f, "protocol error: {detail}"),
            ClientError::Rejected { reason } => write!(f, "server rejected job: {reason}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// Whether [`submit_with`] may try this submission again.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        matches!(self, ClientError::Unreachable { .. } | ClientError::Retryable { .. })
    }
}

/// A completed remote job: admission status plus the result values.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteOutcome {
    /// Server-assigned job id.
    pub job: u64,
    /// Jobs that were ahead of this one in the admission queue.
    pub queued: u32,
    /// True when the server answered from its completed-job store (the
    /// request's idempotency key matched an already-finished job)
    /// without running any new simulation.
    pub replayed: bool,
    /// The campaign output, identical in shape and bytes to an
    /// in-process run of the same request.
    pub result: CampaignResult,
}

/// Splitmix64-style mixer: the deterministic jitter source for backoff.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic jittered exponential backoff delay before retry
/// attempt `attempt` (1-based): `base * 2^(attempt-1)` capped at
/// `base * 64`, jittered to 50–150% by a mix of the request key and
/// the attempt number. No wall-clock input — identical requests see
/// identical schedules.
fn backoff_delay(cfg: &ClientConfig, key: &[u8; 32], attempt: u32) -> Duration {
    let base_ms = cfg.backoff_base.as_millis() as u64;
    let exp = base_ms.saturating_mul(1u64 << attempt.saturating_sub(1).min(6));
    let seed =
        u64::from_le_bytes(key[..8].try_into().expect("8 bytes")).wrapping_add(u64::from(attempt));
    // Jitter factor in [0.5, 1.5): keeps retry storms from phase-locking
    // while staying reproducible.
    let jitter_milli = 500 + mix64(seed) % 1000;
    Duration::from_millis(exp.saturating_mul(jitter_milli) / 1000)
}

/// Maps a transport-layer error seen mid-conversation to a typed one.
/// Timeouts, resets, and truncation are transient; an undecodable
/// frame (`InvalidData`) means the peer is not speaking our protocol.
fn classify_io(e: &io::Error) -> ClientError {
    match e.kind() {
        io::ErrorKind::InvalidData => ClientError::Fatal { detail: e.to_string() },
        _ => ClientError::Retryable { detail: e.to_string() },
    }
}

/// One connect-submit-await cycle; [`submit_with`] wraps it in retry.
fn attempt(
    addr: &str,
    req: &CampaignRequest,
    cfg: &ClientConfig,
) -> Result<RemoteOutcome, ClientError> {
    let unreachable = |detail: String| ClientError::Unreachable { addr: addr.to_string(), detail };
    let mut candidates = addr.to_socket_addrs().map_err(|e| unreachable(e.to_string()))?;
    let sock_addr =
        candidates.next().ok_or_else(|| unreachable("address resolved to nothing".into()))?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, cfg.timeout)
        .map_err(|e| unreachable(e.to_string()))?;
    stream
        .set_write_timeout(Some(cfg.timeout))
        .and_then(|()| stream.set_read_timeout(Some(cfg.timeout)))
        .map_err(|e| ClientError::Retryable { detail: e.to_string() })?;

    write_frame(&mut stream, &Message::Submit(req.clone())).map_err(|e| classify_io(&e))?;
    let (job, queued) = match read_frame(&mut stream).map_err(|e| classify_io(&e))? {
        Message::Accepted { job, queued } => (job, queued),
        Message::Reject { reason, retryable: true } => {
            return Err(ClientError::Retryable {
                detail: format!("server rejected job: {reason}"),
            });
        }
        Message::Reject { reason, retryable: false } => {
            return Err(ClientError::Rejected { reason });
        }
        other => {
            return Err(ClientError::Fatal {
                detail: format!("expected Accepted frame, got {other:?}"),
            });
        }
    };

    // Admitted: the wait for the result is legitimately long (a cold
    // full campaign simulates for minutes), so switch to the generous
    // bound for the remaining reads.
    stream
        .set_read_timeout(Some(cfg.result_timeout))
        .map_err(|e| ClientError::Retryable { detail: e.to_string() })?;
    match read_frame(&mut stream).map_err(|e| classify_io(&e))? {
        Message::Result { job: done, replayed, result } if done == job => {
            Ok(RemoteOutcome { job, queued, replayed, result })
        }
        Message::Result { job: done, .. } => Err(ClientError::Fatal {
            detail: format!("result frame for job {done}, expected {job}"),
        }),
        Message::Reject { reason, retryable: true } => {
            Err(ClientError::Retryable { detail: format!("job {job} failed: {reason}") })
        }
        Message::Reject { reason, retryable: false } => Err(ClientError::Rejected { reason }),
        other => {
            Err(ClientError::Fatal { detail: format!("expected Result frame, got {other:?}") })
        }
    }
}

/// Submits one campaign job to a server at `addr` (e.g.
/// `127.0.0.1:7117`) under an explicit [`ClientConfig`], retrying
/// transient failures with deterministic jittered backoff.
///
/// # Errors
///
/// The *last* attempt's [`ClientError`] once retries are exhausted;
/// `Fatal` and `Rejected` errors return immediately without retry.
pub fn submit_with(
    addr: &str,
    req: &CampaignRequest,
    cfg: &ClientConfig,
) -> Result<RemoteOutcome, ClientError> {
    let key = request_key(req);
    let mut tries = 0u32;
    loop {
        match attempt(addr, req, cfg) {
            Ok(outcome) => return Ok(outcome),
            Err(e) if e.is_retryable() && tries < cfg.retries => {
                tries += 1;
                eprintln!("warning: {e}; retrying ({tries}/{})", cfg.retries);
                std::thread::sleep(backoff_delay(cfg, &key, tries));
            }
            Err(e) => return Err(e),
        }
    }
}

/// [`submit_with`] under the default [`ClientConfig`], with the typed
/// error flattened into an [`io::Error`] for callers that only
/// propagate.
///
/// # Errors
///
/// Any [`ClientError`], stringified; the typed variants are available
/// through [`submit_with`].
pub fn submit(addr: &str, req: &CampaignRequest) -> io::Result<RemoteOutcome> {
    submit_with(addr, req, &ClientConfig::default()).map_err(io::Error::other)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn quick_cfg() -> ClientConfig {
        ClientConfig {
            timeout: Duration::from_millis(200),
            result_timeout: Duration::from_millis(200),
            retries: 1,
            backoff_base: Duration::from_millis(1),
        }
    }

    fn tiny_request() -> CampaignRequest {
        CampaignRequest::all(crate::ExpConfig::quick())
    }

    #[test]
    fn connecting_to_a_dead_port_is_unreachable() {
        // Bind-then-drop: the port was just free, so the connect is
        // refused (or times out) rather than hanging.
        let port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let err = submit_with(&addr, &tiny_request(), &quick_cfg()).unwrap_err();
        match &err {
            ClientError::Unreachable { addr: a, .. } => assert_eq!(a, &addr),
            other => panic!("expected Unreachable, got {other:?}"),
        }
        assert!(err.to_string().contains(&format!("server unreachable at {addr}")));
        assert!(err.is_retryable());
    }

    #[test]
    fn unresolvable_address_is_unreachable() {
        let err = submit_with("definitely-not-a-host.invalid:1", &tiny_request(), &quick_cfg())
            .unwrap_err();
        assert!(matches!(err, ClientError::Unreachable { .. }), "got {err:?}");
    }

    #[test]
    fn bound_but_never_accepting_socket_trips_the_read_timeout() {
        // The listener's kernel backlog completes the TCP handshake, so
        // the connect and the submit write succeed — then no Accepted
        // frame ever arrives. The read must time out (Retryable), not
        // wedge the client forever.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let err = submit_with(&addr, &tiny_request(), &quick_cfg()).unwrap_err();
        match err {
            ClientError::Retryable { .. } => {}
            other => panic!("expected Retryable timeout, got {other:?}"),
        }
        drop(listener);
    }

    #[test]
    fn backoff_is_deterministic_jittered_and_capped() {
        let cfg =
            ClientConfig { backoff_base: Duration::from_millis(100), ..ClientConfig::default() };
        let key = request_key(&tiny_request());
        for attempt in 1..=10u32 {
            let a = backoff_delay(&cfg, &key, attempt);
            let b = backoff_delay(&cfg, &key, attempt);
            assert_eq!(a, b, "same inputs, same delay");
            // Exponent is capped at 2^6; jitter stays within ±50%.
            assert!(a >= Duration::from_millis(50), "attempt {attempt}: {a:?}");
            assert!(a < Duration::from_millis(100 * 64 * 3 / 2), "attempt {attempt}: {a:?}");
        }
        // Different attempts (and different keys) jitter differently.
        let d1 = backoff_delay(&cfg, &key, 1);
        let d2 = backoff_delay(&cfg, &key, 2);
        assert_ne!(d1, d2);
    }

    #[test]
    fn fatal_errors_are_not_retryable() {
        let fatal = ClientError::Fatal { detail: "bad frame".into() };
        let rejected = ClientError::Rejected { reason: "nope".into() };
        assert!(!fatal.is_retryable());
        assert!(!rejected.is_retryable());
    }
}
