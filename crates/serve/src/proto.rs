//! The client wire protocol: versioned query/response/reject encodings.
//!
//! Serving-plane traffic rides the mssg-net framing (`[len][kind][stream]
//! [tag][span][payload]`): a client sends a [`FrameKind::Request`] whose
//! `stream` field carries its request id and whose payload is
//! [`Query::encode`]; the server answers on the same id with a
//! [`FrameKind::Response`] ([`ResponseBody`]) or a typed
//! [`FrameKind::Reject`] ([`Reject`]). Every payload starts with
//! [`ENCODING_VERSION`] so the query encoding can evolve independently of
//! the frame format — a peer speaking a different encoding gets a typed
//! `Unsupported` error, not a scrambled decode.
//!
//! [`FrameKind::Request`]: mssg_net::FrameKind
//! [`FrameKind::Response`]: mssg_net::FrameKind
//! [`FrameKind::Reject`]: mssg_net::FrameKind

use mssg_types::{Gid, GraphStorageError, Result};

/// Version byte leading every serving-plane payload.
pub const ENCODING_VERSION: u8 = 1;

/// One query a client can ask of a serving MSSG deployment.
///
/// The variants mirror the registered analyses of `core::query`: a
/// shortest-path search, a k-hop neighborhood expansion, a degree
/// lookup, and a whole-graph connected-components count.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Query {
    /// Shortest path length from `source` to `dest` (BFS).
    Bfs {
        /// Search source vertex.
        source: Gid,
        /// Search destination vertex.
        dest: Gid,
    },
    /// Every vertex within `k` hops of `source`.
    KHop {
        /// Expansion source vertex.
        source: Gid,
        /// Hop bound.
        k: u32,
    },
    /// Total degree of `vertex` across the cluster.
    Degree {
        /// The vertex to look up.
        vertex: Gid,
    },
    /// Connected-component count over the whole graph.
    Components,
}

impl Query {
    const OP_BFS: u8 = 1;
    const OP_KHOP: u8 = 2;
    const OP_DEGREE: u8 = 3;
    const OP_COMPONENTS: u8 = 4;

    /// The wire encoding: `[version][op][operands LE]`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![ENCODING_VERSION];
        match self {
            Query::Bfs { source, dest } => {
                out.push(Self::OP_BFS);
                out.extend_from_slice(&source.raw().to_le_bytes());
                out.extend_from_slice(&dest.raw().to_le_bytes());
            }
            Query::KHop { source, k } => {
                out.push(Self::OP_KHOP);
                out.extend_from_slice(&source.raw().to_le_bytes());
                out.extend_from_slice(&k.to_le_bytes());
            }
            Query::Degree { vertex } => {
                out.push(Self::OP_DEGREE);
                out.extend_from_slice(&vertex.raw().to_le_bytes());
            }
            Query::Components => out.push(Self::OP_COMPONENTS),
        }
        out
    }

    /// Decodes an encoded query, validating version, opcode, and length.
    pub fn decode(bytes: &[u8]) -> Result<Query> {
        let (version, rest) = split_version(bytes, "query")?;
        if version != ENCODING_VERSION {
            return Err(GraphStorageError::Unsupported(format!(
                "query encoding v{version} (this server speaks v{ENCODING_VERSION})"
            )));
        }
        let (&op, operands) = rest
            .split_first()
            .ok_or_else(|| GraphStorageError::Corrupt("query missing an opcode".into()))?;
        let q = match op {
            Self::OP_BFS => Query::Bfs {
                source: read_gid(operands, 0, "bfs.source")?,
                dest: read_gid(operands, 8, "bfs.dest")?,
            },
            Self::OP_KHOP => Query::KHop {
                source: read_gid(operands, 0, "khop.source")?,
                k: read_u32(operands, 8, "khop.k")?,
            },
            Self::OP_DEGREE => Query::Degree {
                vertex: read_gid(operands, 0, "degree.vertex")?,
            },
            Self::OP_COMPONENTS => Query::Components,
            other => {
                return Err(GraphStorageError::Corrupt(format!(
                    "unknown query opcode {other:#x}"
                )))
            }
        };
        if q.encode() != bytes {
            return Err(GraphStorageError::Corrupt(
                "query payload has trailing or missing bytes".into(),
            ));
        }
        Ok(q)
    }

    /// Short human label, used for labels in bench output and spans.
    pub fn label(&self) -> &'static str {
        match self {
            Query::Bfs { .. } => "bfs",
            Query::KHop { .. } => "khop",
            Query::Degree { .. } => "degree",
            Query::Components => "components",
        }
    }
}

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
        let (version, rest) = split_version(bytes, "response")?;
        if version != ENCODING_VERSION {
            return Err(GraphStorageError::Unsupported(format!(
                "response encoding v{version} (this client speaks v{ENCODING_VERSION})"
            )));
        }
        if rest.len() < 9 {
            return Err(GraphStorageError::Corrupt(format!(
                "response payload of {} bytes (want >= 10)",
                bytes.len()
            )));
        }
        let epoch = read_u64(rest, 0, "response.epoch")?;
        let cached = match rest[8] {
            0 => false,
            1 => true,
            other => {
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
        let (version, rest) = split_version(bytes, "reject")?;
        if version != ENCODING_VERSION {
            return Err(GraphStorageError::Unsupported(format!(
                "reject encoding v{version} (this client speaks v{ENCODING_VERSION})"
            )));
        }
        match rest {
            [Self::CODE_OVERLOADED, ms @ ..] => Ok(Reject::Overloaded {
                retry_after_ms: read_u32(ms, 0, "reject.retry_after_ms")?,
            }),
            [other, ..] => Err(GraphStorageError::Corrupt(format!(
                "unknown reject code {other:#x}"
            ))),
            [] => Err(GraphStorageError::Corrupt("reject missing a code".into())),
        }
    }
}

fn split_version<'a>(bytes: &'a [u8], what: &str) -> Result<(u8, &'a [u8])> {
    bytes
        .split_first()
        .map(|(&v, rest)| (v, rest))
        .ok_or_else(|| GraphStorageError::Corrupt(format!("empty {what} payload")))
}

fn read_u64(bytes: &[u8], at: usize, what: &str) -> Result<u64> {
    bytes
        .get(at..at + 8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
        .ok_or_else(|| GraphStorageError::Corrupt(format!("{what}: payload too short")))
}

/// A vertex id off the wire: a word with a tag bit set is corrupt, not a
/// panic in the connection's reader.
fn read_gid(bytes: &[u8], at: usize, what: &str) -> Result<Gid> {
    let raw = read_u64(bytes, at, what)?;
    Gid::try_new(raw).ok_or_else(|| {
        GraphStorageError::Corrupt(format!(
            "{what}: {raw:#x} overflows the 61-bit vertex id space"
        ))
    })
}

fn read_u32(bytes: &[u8], at: usize, what: &str) -> Result<u32> {
    bytes
        .get(at..at + 4)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4-byte slice")))
        .ok_or_else(|| GraphStorageError::Corrupt(format!("{what}: payload too short")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_queries() -> Vec<Query> {
        vec![
            Query::Bfs {
                source: Gid::new(7),
                dest: Gid::new(999),
            },
            Query::KHop {
                source: Gid::new(0),
                k: 3,
            },
            Query::Degree {
                vertex: Gid::new(u64::MAX >> 8),
            },
            Query::Components,
        ]
    }

    #[test]
    fn queries_round_trip() {
        for q in all_queries() {
            assert_eq!(Query::decode(&q.encode()).unwrap(), q, "{q:?}");
        }
    }

    #[test]
    fn version_opcode_and_length_are_validated() {
        let mut wrong_version = Query::Components.encode();
        wrong_version[0] = 9;
        assert!(matches!(
            Query::decode(&wrong_version),
            Err(GraphStorageError::Unsupported(_))
        ));
        assert!(matches!(
            Query::decode(&[ENCODING_VERSION, 0xEE]),
            Err(GraphStorageError::Corrupt(_))
        ));
        // Truncated operands and trailing garbage are both corrupt.
        let bfs = Query::Bfs {
            source: Gid::new(1),
            dest: Gid::new(2),
        }
        .encode();
        assert!(Query::decode(&bfs[..bfs.len() - 1]).is_err());
        let mut extra = bfs.clone();
        extra.push(0);
        assert!(Query::decode(&extra).is_err());
        assert!(Query::decode(&[]).is_err());
        // A vertex id with a tag bit set is corrupt, in every id operand.
        let tagged = Gid::tagged(1, 0).raw().to_le_bytes();
        let q = all_queries();
        for (q, at) in [(&q[0], 2), (&q[0], 10), (&q[1], 2), (&q[2], 2)] {
            let mut e = q.encode();
            e[at..at + 8].copy_from_slice(&tagged);
            assert!(
                matches!(Query::decode(&e), Err(GraphStorageError::Corrupt(_))),
                "{q:?} with a tagged id at byte {at}"
            );
        }
    }

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
}
