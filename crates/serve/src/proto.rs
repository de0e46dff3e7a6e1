//! The client wire protocol: versioned response/reject/failure encodings.
//!
//! Serving-plane traffic rides the mssg-net framing (`[len][kind][stream]
//! [tag][span][payload]`): a client sends a [`FrameKind::Request`] whose
//! `stream` field carries its request id and whose payload is
//! [`Query::encode`] (`Query` is `mssg_core::query`'s); the server answers
//! on the same id with a [`FrameKind::Response`] ([`ResponseBody`]), a
//! typed [`FrameKind::Reject`] ([`Reject`]) or a typed
//! [`FrameKind::Failed`] ([`Failure`]). Every payload starts with
//! [`ENCODING_VERSION`], so a peer speaking a different encoding gets a
//! typed `Unsupported` error, not a scrambled decode.
//!
//! [`FrameKind::Request`]: mssg_net::FrameKind
//! [`FrameKind::Response`]: mssg_net::FrameKind
//! [`FrameKind::Reject`]: mssg_net::FrameKind
//! [`FrameKind::Failed`]: mssg_net::FrameKind

use mssg_core::query::{bytes_at, versioned};
pub use mssg_core::query::{Query, ENCODING_VERSION};
use mssg_types::{GraphStorageError, Result};

/// A completed query's answer as carried by a `Response` frame:
/// `[version][epoch u64][cached u8][utf-8 result]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResponseBody {
    /// Graph epoch the query was pinned to.
    pub epoch: u64,
    /// `true` when the answer came from the result cache.
    pub cached: bool,
    /// The analysis result, as the query service's summary string.
    pub result: String,
}

impl ResponseBody {
    /// Encodes the response payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![ENCODING_VERSION];
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.push(self.cached as u8);
        out.extend_from_slice(self.result.as_bytes());
        out
    }

    /// Decodes a response payload.
    pub fn decode(bytes: &[u8]) -> Result<ResponseBody> {
        let rest = versioned(bytes, "response")?;
        let epoch = u64::from_le_bytes(bytes_at(rest, 0, "response.epoch")?);
        let cached = match bytes_at(rest, 8, "response.cached")? {
            [0] => false,
            [1] => true,
            [other] => {
                return Err(GraphStorageError::Corrupt(format!(
                    "response cached flag {other:#x} (want 0 or 1)"
                )))
            }
        };
        let result = std::str::from_utf8(&rest[9..])
            .map_err(|_| GraphStorageError::Corrupt("response result is not UTF-8".into()))?
            .to_string();
        Ok(ResponseBody {
            epoch,
            cached,
            result,
        })
    }
}

/// A typed admission rejection as carried by a `Reject` frame:
/// `[version][code u8][retry_after_ms u32]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reject {
    /// Every in-flight slot and the client's queue allowance are taken;
    /// retry after the hinted backoff instead of queueing unboundedly.
    Overloaded {
        /// Server's backoff hint, milliseconds.
        retry_after_ms: u32,
    },
}

impl Reject {
    const CODE_OVERLOADED: u8 = 1;

    /// Encodes the reject payload.
    pub fn encode(&self) -> Vec<u8> {
        let Reject::Overloaded { retry_after_ms } = self;
        let mut out = vec![ENCODING_VERSION, Self::CODE_OVERLOADED];
        out.extend_from_slice(&retry_after_ms.to_le_bytes());
        out
    }

    /// Decodes a reject payload.
    pub fn decode(bytes: &[u8]) -> Result<Reject> {
        match versioned(bytes, "reject")? {
            [Self::CODE_OVERLOADED, ms @ ..] => Ok(Reject::Overloaded {
                retry_after_ms: u32::from_le_bytes(bytes_at(ms, 0, "reject.retry_after_ms")?),
            }),
            [other, ..] => Err(GraphStorageError::Corrupt(format!(
                "unknown reject code {other:#x}"
            ))),
            [] => Err(GraphStorageError::Corrupt("reject missing a code".into())),
        }
    }
}

/// Why an admitted query failed to execute, typed so a client need not
/// parse the message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The graph's storage failed: an I/O error or a corrupt read.
    Storage = 1,
    /// The query cannot run as asked: a bad operand or vertex, an operation
    /// a backend lacks, a limit.
    Invalid = 2,
    /// The cluster's engines failed: a filter copy, a stream deadline, the
    /// transport, an injected fault.
    Engine = 3,
    /// The execution panicked; the worker caught it and lives on.
    Panicked = 4,
}

/// A failed execution as carried by a `Failed` frame:
/// `[version][kind u8][utf-8 message]`. Never cached, never retried.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Failure {
    /// What class of error ended the execution.
    pub kind: FailureKind,
    /// The error's text, for people.
    pub message: String,
}

impl Failure {
    /// The failure an execution error answers.
    pub fn of(e: &GraphStorageError) -> Failure {
        let kind = match e {
            GraphStorageError::Io(_) | GraphStorageError::Corrupt(_) => FailureKind::Storage,
            GraphStorageError::InvalidVertex(_)
            | GraphStorageError::CapacityExceeded(_)
            | GraphStorageError::Unsupported(_)
            | GraphStorageError::Query(_) => FailureKind::Invalid,
            GraphStorageError::Timeout(_)
            | GraphStorageError::FilterFailed(_)
            | GraphStorageError::Fault(_)
            | GraphStorageError::Net(_)
            | GraphStorageError::Verify(_)
            | GraphStorageError::NodeFailed { .. } => FailureKind::Engine,
        };
        Failure {
            kind,
            message: e.to_string(),
        }
    }

    /// Encodes the failure payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![ENCODING_VERSION, self.kind as u8];
        out.extend_from_slice(self.message.as_bytes());
        out
    }

    /// Decodes a failure payload.
    pub fn decode(bytes: &[u8]) -> Result<Failure> {
        let (&code, message) = versioned(bytes, "failure")?
            .split_first()
            .ok_or_else(|| GraphStorageError::Corrupt("failure missing a kind".into()))?;
        let kind = match code {
            1 => FailureKind::Storage,
            2 => FailureKind::Invalid,
            3 => FailureKind::Engine,
            4 => FailureKind::Panicked,
            other => {
                return Err(GraphStorageError::Corrupt(format!(
                    "unknown failure kind {other:#x}"
                )))
            }
        };
        let message = std::str::from_utf8(message)
            .map_err(|_| GraphStorageError::Corrupt("failure message is not UTF-8".into()))?
            .to_string();
        Ok(Failure { kind, message })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_round_trips() {
        let r = ResponseBody {
            epoch: 41,
            cached: true,
            result: "path_length=4 rounds=5 edges_scanned=80".into(),
        };
        assert_eq!(ResponseBody::decode(&r.encode()).unwrap(), r);
        let empty = ResponseBody {
            epoch: 0,
            cached: false,
            result: String::new(),
        };
        assert_eq!(ResponseBody::decode(&empty.encode()).unwrap(), empty);
        assert!(ResponseBody::decode(&[ENCODING_VERSION, 1, 2]).is_err());
    }

    #[test]
    fn reject_round_trips() {
        let r = Reject::Overloaded {
            retry_after_ms: 250,
        };
        assert_eq!(Reject::decode(&r.encode()).unwrap(), r);
        assert!(Reject::decode(&[ENCODING_VERSION, 0xCC, 0, 0, 0, 0]).is_err());
        assert!(Reject::decode(&[ENCODING_VERSION]).is_err());
    }

    #[test]
    fn failure_round_trips() {
        for kind in [
            FailureKind::Storage,
            FailureKind::Invalid,
            FailureKind::Engine,
            FailureKind::Panicked,
        ] {
            let f = Failure {
                kind,
                message: "graph storage I/O error: failed to fill whole buffer".into(),
            };
            assert_eq!(Failure::decode(&f.encode()).unwrap(), f);
        }
        assert!(Failure::decode(&[ENCODING_VERSION, 0]).is_err());
        assert!(Failure::decode(&[ENCODING_VERSION, 5]).is_err());
        assert!(Failure::decode(&[ENCODING_VERSION]).is_err());
        assert!(matches!(
            Failure::decode(&[1, 1]),
            Err(GraphStorageError::Unsupported(_))
        ));
    }

    #[test]
    fn failures_are_classed_by_error() {
        let io = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "short read");
        for (e, kind) in [
            (GraphStorageError::Io(io), FailureKind::Storage),
            (
                GraphStorageError::corrupt("bad block"),
                FailureKind::Storage,
            ),
            (GraphStorageError::Query("k".into()), FailureKind::Invalid),
            (GraphStorageError::Timeout("t".into()), FailureKind::Engine),
        ] {
            assert_eq!(Failure::of(&e).kind, kind, "{e}");
            assert_eq!(Failure::of(&e).message, e.to_string());
        }
    }
}
