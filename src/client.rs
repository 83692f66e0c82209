//! The `ccmm query` client: framed round-trips with timeouts, capped
//! exponential backoff, and seeded jitter.
//!
//! The client is deliberately paranoid about the transport — the serve
//! fault plan tears frames, drops connections, and delays replies on
//! purpose — and deliberately trusting of reply *contents*: a decoded
//! [`Reply`] is final. Retries happen only on transport failures
//! (connect/read/write errors, EOF, torn frames) and on the two
//! explicitly-retryable statuses, `overloaded` (after at least its
//! `retry-after-ms` hint) and `shutting-down`. Verdict-bearing replies
//! (`ok`, `error`, `degraded`, `partial`) are never retried: retrying a
//! verdict would mask nondeterminism instead of measuring it.
//!
//! Backoff is capped exponential with seeded half-jitter: attempt `k`
//! sleeps `base·2^k` capped at `cap`, minus up to half of itself chosen
//! by a splitmix64 stream over the seed — deterministic per seed, so
//! soak failures replay with the same timing shape.

use ccmm_core::fault::splitmix64;
use ccmm_core::serve::{encode_frame, FrameDecoder, FrameEvent, Reply, MAX_FRAME};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Capped exponential backoff with seeded jitter.
#[derive(Clone, Debug)]
pub struct Backoff {
    base_ms: u64,
    cap_ms: u64,
    seed: u64,
    attempt: u32,
}

impl Backoff {
    /// A fresh schedule: attempt `k` waits ~`base_ms << k`, capped.
    pub fn new(base_ms: u64, cap_ms: u64, seed: u64) -> Self {
        Backoff { base_ms, cap_ms, seed, attempt: 0 }
    }

    /// The next delay. `floor_ms` lifts the wait to at least the
    /// server's `retry-after-ms` hint when one was given.
    pub fn next_delay(&mut self, floor_ms: u64) -> Duration {
        let raw = self.base_ms.saturating_shl(self.attempt.min(16)).min(self.cap_ms);
        self.attempt += 1;
        // Half-jitter: keep [raw/2, raw], deterministically per seed.
        let jitter =
            if raw > 1 { splitmix64(self.seed ^ self.attempt as u64) % (raw / 2 + 1) } else { 0 };
        Duration::from_millis((raw - jitter).max(floor_ms))
    }

    /// Attempts taken so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }
}

trait SaturatingShl {
    fn saturating_shl(self, n: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, n: u32) -> u64 {
        if n >= 64 || self > (u64::MAX >> n) {
            u64::MAX
        } else {
            self << n
        }
    }
}

/// A transport-level failure (retryable, unlike a decoded [`Reply`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// Connecting failed.
    Connect(String),
    /// The socket errored mid-round-trip.
    Io(String),
    /// The peer closed before a whole reply frame arrived (includes
    /// injected drops and truncations).
    TornReply,
    /// No reply within the timeout.
    TimedOut,
    /// The reply frame arrived but did not decode.
    BadReply(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Connect(e) => write!(f, "connect failed: {e}"),
            TransportError::Io(e) => write!(f, "transport error: {e}"),
            TransportError::TornReply => write!(f, "connection closed mid-reply (torn frame)"),
            TransportError::TimedOut => write!(f, "timed out waiting for a reply"),
            TransportError::BadReply(e) => write!(f, "undecodable reply: {e}"),
        }
    }
}

/// One framed connection to a server.
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    decoder: FrameDecoder,
    timeout: Duration,
}

impl Connection {
    /// Connects with `timeout_ms` applied to the connect *and* each
    /// subsequent round-trip.
    pub fn connect(addr: &str, timeout_ms: u64) -> Result<Connection, TransportError> {
        let timeout = Duration::from_millis(timeout_ms.max(1));
        let sockaddr: std::net::SocketAddr =
            addr.parse().map_err(|e| TransportError::Connect(format!("bad address: {e}")))?;
        let stream = TcpStream::connect_timeout(&sockaddr, timeout)
            .map_err(|e| TransportError::Connect(e.to_string()))?;
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(Duration::from_millis(20)))
            .map_err(|e| TransportError::Connect(e.to_string()))?;
        Ok(Connection { stream, decoder: FrameDecoder::new(), timeout })
    }

    /// Sends one request payload and waits for its reply frame.
    pub fn roundtrip(&mut self, payload: &[u8]) -> Result<Reply, TransportError> {
        self.stream
            .write_all(&encode_frame(payload))
            .and_then(|_| self.stream.flush())
            .map_err(|e| TransportError::Io(e.to_string()))?;
        let deadline = Instant::now() + self.timeout;
        let mut buf = [0u8; 16 * 1024];
        loop {
            if let Some(event) = self.decoder.next_event() {
                return match event {
                    FrameEvent::Frame(p) => Reply::decode(&p).map_err(TransportError::BadReply),
                    FrameEvent::Oversized { len } => Err(TransportError::BadReply(format!(
                        "reply frame of {len} bytes exceeds the {MAX_FRAME} byte cap"
                    ))),
                };
            }
            if Instant::now() >= deadline {
                return Err(TransportError::TimedOut);
            }
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(TransportError::TornReply),
                Ok(n) => self.decoder.push(&buf[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(e) => return Err(TransportError::Io(e.to_string())),
            }
        }
    }
}

/// The outcome of [`query_with_retries`]: the final reply plus how the
/// transport behaved getting it.
#[derive(Debug)]
pub struct QueryOutcome {
    /// The decoded reply (None if every attempt failed in transport).
    pub reply: Option<Reply>,
    /// Attempts made (1 = first try succeeded).
    pub attempts: u32,
    /// Transport failures along the way, for diagnostics.
    pub transport_errors: Vec<TransportError>,
}

/// Sends `payload` to `addr`, retrying transport failures and
/// `overloaded`/`shutting-down` replies up to `retries` times with
/// seeded backoff. Each attempt reconnects — under a fault plan that
/// drops and tears connections, a fresh connection per attempt is the
/// simplest correct recovery.
pub fn query_with_retries(
    addr: &str,
    payload: &[u8],
    timeout_ms: u64,
    retries: u32,
    seed: u64,
) -> QueryOutcome {
    let mut backoff = Backoff::new(5, 250, seed);
    let mut transport_errors = Vec::new();
    let mut attempts = 0;
    loop {
        attempts += 1;
        let outcome =
            Connection::connect(addr, timeout_ms).and_then(|mut conn| conn.roundtrip(payload));
        let (floor, last_reply) = match outcome {
            Ok(Reply::Overloaded { retry_after_ms }) => {
                (retry_after_ms, Some(Reply::Overloaded { retry_after_ms }))
            }
            Ok(Reply::ShuttingDown) => (0, Some(Reply::ShuttingDown)),
            Ok(reply) => {
                return QueryOutcome { reply: Some(reply), attempts, transport_errors };
            }
            Err(e) => {
                transport_errors.push(e);
                (0, None)
            }
        };
        if attempts > retries {
            // Give up: report the last overloaded/shutting-down reply if
            // there was one, else a pure transport failure.
            return QueryOutcome { reply: last_reply, attempts, transport_errors };
        }
        std::thread::sleep(backoff.next_delay(floor));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_exponential_and_deterministic() {
        let mut a = Backoff::new(5, 100, 42);
        let mut b = Backoff::new(5, 100, 42);
        let mut last = Duration::ZERO;
        for k in 0..12 {
            let da = a.next_delay(0);
            let db = b.next_delay(0);
            assert_eq!(da, db, "attempt {k}: same seed, same delay");
            assert!(da <= Duration::from_millis(100), "cap respected at attempt {k}");
            last = da;
        }
        assert!(last >= Duration::from_millis(50), "late attempts sit in [cap/2, cap]");
        // The floor lifts short waits to the server's hint.
        let mut c = Backoff::new(1, 2, 0);
        assert!(c.next_delay(40) >= Duration::from_millis(40));
        // Different seeds jitter differently somewhere.
        let mut d = Backoff::new(5, 100, 43);
        let mut e = Backoff::new(5, 100, 44);
        assert!((0..12).any(|_| d.next_delay(0) != e.next_delay(0)));
    }

    #[test]
    fn connect_to_nothing_is_a_transport_error_not_a_panic() {
        // Port 1 on localhost is essentially never listening.
        let err = Connection::connect("127.0.0.1:1", 200).unwrap_err();
        assert!(matches!(err, TransportError::Connect(_)), "{err:?}");
        let out = query_with_retries("127.0.0.1:1", b"x", 100, 1, 7);
        assert!(out.reply.is_none());
        assert_eq!(out.attempts, 2, "one retry after the first failure");
        assert_eq!(out.transport_errors.len(), 2);
    }
}
