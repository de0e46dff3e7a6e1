//! A synchronous client for the serving frontend.
//!
//! One [`Client`] is one connection with one outstanding request at a
//! time — concurrency comes from opening more clients (each gets its own
//! fair-queue lane in the server's admission controller). The handshake
//! reuses the transport plane's HELLO, so version skew is refused before
//! any query bytes are exchanged.
//!
//! The connection is any [`Conn`]: [`Client::connect`] dials TCP, while
//! [`Client::handshake_over`] accepts a caller-supplied stream — the
//! deterministic wire simulator's `SimNet::connect` in the chaos tests.

use crate::proto::{Failure, Query, Reject, ResponseBody};
use mssg_net::wire::{read_frame, write_frame};
use mssg_net::{Conn, Frame, FrameKind};
use mssg_types::{GraphStorageError, Result};
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// What the server said to one request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The query executed; here is its result.
    Answer(ResponseBody),
    /// The query was refused at admission.
    Rejected(Reject),
    /// The query was admitted and its execution failed.
    Failed(Failure),
}

impl Outcome {
    /// The response body, or an error if the query was rejected or failed.
    pub fn into_answer(self) -> Result<ResponseBody> {
        match self {
            Outcome::Answer(body) => Ok(body),
            Outcome::Rejected(Reject::Overloaded { retry_after_ms }) => Err(
                GraphStorageError::Net(format!("server overloaded; retry in {retry_after_ms}ms")),
            ),
            Outcome::Failed(Failure { kind, message }) => Err(GraphStorageError::Query(format!(
                "served query failed ({kind:?}): {message}"
            ))),
        }
    }
}

/// Bounds for [`Client::request_with_policy`]: how many attempts, and —
/// crucially — how much *total* time may be spent sleeping between them.
///
/// The cumulative cap is what makes retry termination a guarantee rather
/// than a hope: a server hinting `retry_after_ms: u32::MAX` (or a long
/// reject streak) cannot wedge the client past `max_total_backoff`, and
/// a `0` hint never busy-loops because every sleep is at least
/// `min_backoff` (floored at 1ms).
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Maximum request attempts (at least 1).
    pub attempts: u32,
    /// Smallest sleep between attempts; also the floor applied to a 0ms
    /// server hint.
    pub min_backoff: Duration,
    /// Hard cap on the *sum* of all backoff sleeps across the attempts.
    pub max_total_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 4,
            min_backoff: Duration::from_millis(1),
            max_total_backoff: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// The next sleep for a server hint of `hint_ms`, given `waited`
    /// already spent sleeping — or `None` when the budget is exhausted
    /// and the client should give up instead of sleeping again.
    ///
    /// Pure so the property tests can sweep it: the returned duration is
    /// always > 0 and never pushes the running total past
    /// [`max_total_backoff`](RetryPolicy::max_total_backoff).
    pub fn backoff(&self, hint_ms: u32, waited: Duration) -> Option<Duration> {
        let remaining = self.max_total_backoff.checked_sub(waited)?;
        if remaining.is_zero() {
            return None;
        }
        let floor = self.min_backoff.max(Duration::from_millis(1));
        Some(
            Duration::from_millis(u64::from(hint_ms))
                .max(floor)
                .min(remaining),
        )
    }
}

/// A connected serving client.
pub struct Client {
    /// Reads go through the buffer, so an answer's length prefix, header
    /// and payload take one read; writes go to the stream underneath.
    stream: BufReader<Box<dyn Conn>>,
    next_id: u32,
}

impl Client {
    /// Connects and handshakes with a 30-second I/O deadline.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        Client::connect_with_timeout(addr, Duration::from_secs(30))
    }

    /// Connects and handshakes; every read/write on the connection (not
    /// just the dial) is bounded by `timeout`, so a wedged server
    /// surfaces as a typed timeout instead of a hang.
    pub fn connect_with_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> Result<Client> {
        let addr = addr
            .to_socket_addrs()
            .map_err(GraphStorageError::Io)?
            .next()
            .ok_or_else(|| GraphStorageError::Net("address resolved to nothing".into()))?;
        let stream = TcpStream::connect_timeout(&addr, timeout).map_err(GraphStorageError::Io)?;
        let _ = stream.set_nodelay(true);
        Client::handshake_over(Box::new(stream), timeout)
    }

    /// Handshakes over a caller-supplied connection (the deterministic
    /// wire simulator, a unix socket, …); reads and writes are bounded
    /// by `timeout` where the stream supports deadlines.
    pub fn handshake_over(stream: Box<dyn Conn>, timeout: Duration) -> Result<Client> {
        stream
            .set_read_deadline(Some(timeout))
            .map_err(GraphStorageError::Io)?;
        stream
            .set_write_deadline(Some(timeout))
            .map_err(GraphStorageError::Io)?;
        let mut stream = BufReader::new(stream);
        write_frame(stream.get_mut(), &Frame::hello(u32::MAX, 0, 0, 0))
            .map_err(GraphStorageError::Io)?;
        let reply = read_frame(&mut stream)?
            .ok_or_else(|| GraphStorageError::Net("server closed during handshake".into()))?;
        reply.parse_hello()?;
        Ok(Client { stream, next_id: 1 })
    }

    /// Sends `query` and blocks for the server's answer, rejection or failure.
    pub fn request(&mut self, query: &Query) -> Result<Outcome> {
        let id = self.send(query)?;
        let (got, outcome) = self.recv()?;
        if got != id {
            return Err(GraphStorageError::Net(format!(
                "response for request {got} while waiting on {id}"
            )));
        }
        Ok(outcome)
    }

    /// Fires `query` without waiting, returning its request id. Pair
    /// with [`Client::recv`]; a burst of sends is how a single client
    /// exercises the server's admission queue.
    pub fn send(&mut self, query: &Query) -> Result<u32> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        let frame = Frame::serve(FrameKind::Request, id, &query.encode())?;
        write_frame(self.stream.get_mut(), &frame).map_err(GraphStorageError::Io)?;
        Ok(id)
    }

    /// Blocks for the next outcome, whichever request it belongs to.
    /// Responses to a burst may arrive out of send order (rejections come
    /// back immediately; answers and failures when executed).
    pub fn recv(&mut self) -> Result<(u32, Outcome)> {
        let reply = read_frame(&mut self.stream)?.ok_or_else(|| {
            GraphStorageError::Net("server closed with a request outstanding".into())
        })?;
        let outcome = match reply.kind {
            FrameKind::Response => Outcome::Answer(ResponseBody::decode(&reply.payload)?),
            FrameKind::Reject => Outcome::Rejected(Reject::decode(&reply.payload)?),
            FrameKind::Failed => Outcome::Failed(Failure::decode(&reply.payload)?),
            other => {
                return Err(GraphStorageError::Net(format!(
                    "{other:?} frame in answer to a request"
                )))
            }
        };
        Ok((reply.stream, outcome))
    }

    /// Sends `query`, retrying after the server's hinted backoff when it is
    /// overloaded (never after a failure), up to `attempts` tries under the
    /// default [`RetryPolicy`] bounds (cumulative backoff capped at 2s; a
    /// 0ms hint still sleeps ≥ 1ms, never busy-loops).
    pub fn request_with_retry(&mut self, query: &Query, attempts: u32) -> Result<ResponseBody> {
        self.request_with_policy(
            query,
            &RetryPolicy {
                attempts,
                ..RetryPolicy::default()
            },
        )
    }

    /// [`Client::request_with_retry`] with explicit bounds. Total wall
    /// time spent backing off never exceeds
    /// [`RetryPolicy::max_total_backoff`], whatever the server hints.
    pub fn request_with_policy(
        &mut self,
        query: &Query,
        policy: &RetryPolicy,
    ) -> Result<ResponseBody> {
        let attempts = policy.attempts.max(1);
        let mut waited = Duration::ZERO;
        let mut last_hint = 0;
        for attempt in 0..attempts {
            match self.request(query)? {
                Outcome::Rejected(Reject::Overloaded { retry_after_ms }) => {
                    last_hint = retry_after_ms;
                    if attempt + 1 == attempts {
                        break; // no sleep after the final attempt
                    }
                    let Some(pause) = policy.backoff(retry_after_ms, waited) else {
                        return Err(GraphStorageError::Net(format!(
                            "still overloaded with the {:?} backoff budget spent \
                             after {} attempt(s) (last hint {last_hint}ms)",
                            policy.max_total_backoff,
                            attempt + 1
                        )));
                    };
                    waited += pause;
                    std::thread::sleep(pause);
                }
                done => return done.into_answer(),
            }
        }
        Err(GraphStorageError::Net(format!(
            "still overloaded after {attempts} attempts (last hint {last_hint}ms)"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_respects_hint_floor_and_budget() {
        let p = RetryPolicy::default();
        // A 0ms hint still sleeps (no busy-loop)...
        assert_eq!(p.backoff(0, Duration::ZERO), Some(Duration::from_millis(1)));
        // ...a sane hint is honored...
        assert_eq!(
            p.backoff(25, Duration::ZERO),
            Some(Duration::from_millis(25))
        );
        // ...a hostile hint is clamped to the remaining budget...
        assert_eq!(
            p.backoff(u32::MAX, Duration::from_secs(1)),
            Some(Duration::from_secs(1))
        );
        // ...and a spent budget refuses to sleep at all.
        assert_eq!(p.backoff(5, Duration::from_secs(2)), None);
        assert_eq!(p.backoff(5, Duration::from_secs(3)), None);
    }
}
