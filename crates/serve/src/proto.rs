//! The serving wire protocol: length-prefixed frames over TCP.
//!
//! Every message is `[u32 LE payload length][payload]`; the first
//! payload byte is the message type and the rest is a
//! `hotspot_tensor::wire` little-endian body.  Requests carry a caller
//! chosen `id` that the matching response echoes, so clients may
//! pipeline requests and match replies out of order.
//!
//! The same listener also answers plain `GET` HTTP requests with the
//! Prometheus metrics text — the server sniffs the first four bytes,
//! which for the binary protocol are a frame length and for a scrape
//! are the ASCII `"GET "` (0x20544547, ~545 MiB as a length: far above
//! any sane [`MAX_FRAME_LEN`], so the two framings cannot collide).
//!
//! Decoding is fully typed: a malformed payload yields a
//! [`FrameError`], never a panic, and the server answers it with an
//! [`ErrorCode::CorruptFrame`] response before closing the connection.

use hotspot_tensor::{WireError, WireReader, WireWriter};
use std::fmt;
use std::io::{Read, Write};

/// Hard ceiling on a frame payload, sanity-checking the length prefix
/// before any allocation (a 2048×2048 clip is ~0.5 MiB; 16 MiB leaves
/// generous headroom).
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Request type bytes.
const T_CLASSIFY: u8 = 0x01;
const T_PING: u8 = 0x02;
const T_METRICS: u8 = 0x03;
const T_SWAP: u8 = 0x04;
const T_STATS: u8 = 0x05;
const T_SCAN: u8 = 0x06;

/// Response type bytes (request type | 0x80).
const T_R_CLASSIFY: u8 = 0x81;
const T_R_ERROR: u8 = 0x82;
const T_R_METRICS: u8 = 0x83;
const T_R_PONG: u8 = 0x84;
const T_R_SWAP_OK: u8 = 0x85;
const T_R_STATS: u8 = 0x86;
const T_R_SCAN: u8 = 0x87;

/// A malformed frame (bad length prefix, unknown type byte, or a
/// payload that fails structural decode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError(pub String);

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frame error: {}", self.0)
    }
}

impl std::error::Error for FrameError {}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError(e.0)
    }
}

/// Typed rejection causes a client can observe.  The numeric value is
/// the wire byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The request's latency deadline expired before a worker reached
    /// it.
    Deadline = 1,
    /// The bounded queue was past its high-water mark; the request was
    /// shed without being enqueued.
    Overloaded = 2,
    /// The worker processing this request panicked (or another internal
    /// failure); other requests in the same batch are unaffected.
    Internal = 3,
    /// The request itself was invalid (wrong clip size, inconsistent
    /// raster words).
    BadRequest = 4,
    /// The server is draining for shutdown and will not accept or
    /// finish this request.
    Shutdown = 5,
    /// A model hot-swap was rejected (load error, architecture
    /// mismatch, or failed canary).
    SwapFailed = 6,
    /// The frame could not be decoded; the connection closes after
    /// this response.
    CorruptFrame = 7,
}

impl ErrorCode {
    fn from_u8(b: u8) -> Result<Self, FrameError> {
        Ok(match b {
            1 => ErrorCode::Deadline,
            2 => ErrorCode::Overloaded,
            3 => ErrorCode::Internal,
            4 => ErrorCode::BadRequest,
            5 => ErrorCode::Shutdown,
            6 => ErrorCode::SwapFailed,
            7 => ErrorCode::CorruptFrame,
            _ => return Err(FrameError(format!("unknown error code {b}"))),
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorCode::Deadline => "deadline",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Internal => "internal",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::Shutdown => "shutdown",
            ErrorCode::SwapFailed => "swap-failed",
            ErrorCode::CorruptFrame => "corrupt-frame",
        };
        write!(f, "{name}")
    }
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Classify one clip, given as a bit-packed raster (the
    /// `BitImage` word layout: rows of `ceil(width/64)` u64 words).
    /// `deadline_ms == 0` means "use the server's default deadline".
    Classify {
        /// Caller-chosen id echoed in the response.
        id: u64,
        /// Per-request latency budget in milliseconds from arrival.
        deadline_ms: u32,
        /// Clip width in pixels.
        width: u32,
        /// Clip height in pixels.
        height: u32,
        /// Bit-packed raster words.
        words: Vec<u64>,
        /// Client-supplied trace id, or 0 to let the server mint one at
        /// admission.  Encoded as an *optional trailing* field: frames
        /// from older clients simply omit it and still parse.
        trace_id: u64,
    },
    /// Liveness probe.
    Ping {
        /// Echoed id.
        id: u64,
    },
    /// Prometheus metrics over the binary protocol (the HTTP `GET`
    /// path returns the same text).
    Metrics,
    /// Load, validate, and atomically publish a new model artifact.
    SwapModel {
        /// Echoed id.
        id: u64,
        /// Server-local path of a `BRNNHS` artifact.
        path: String,
    },
    /// Serving status snapshot.
    Stats {
        /// Echoed id.
        id: u64,
    },
    /// Scan a full-chip raster for hotspot regions with the streaming
    /// scanner (crop → triage/confirm cascade → dedup → region
    /// merging).
    Scan {
        /// Caller-chosen id echoed in the response.
        id: u64,
        /// Per-request latency budget in milliseconds from arrival.
        deadline_ms: u32,
        /// Window grid stride in pixels.
        stride: u32,
        /// Chip width in pixels.
        width: u32,
        /// Chip height in pixels.
        height: u32,
        /// Bit-packed chip raster words (`BitImage` layout).
        words: Vec<u64>,
        /// Client-supplied trace id, or 0 to let the server mint one
        /// (optional trailing field, like `Classify`).
        trace_id: u64,
    },
}

/// One merged hotspot region in a [`Response::ScanRegions`] reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanHit {
    /// Left edge, chip pixels.
    pub x0: u32,
    /// Top edge.
    pub y0: u32,
    /// Right edge (exclusive, clamped to the chip).
    pub x1: u32,
    /// Bottom edge (exclusive).
    pub y1: u32,
    /// Best member-window margin.
    pub score: f32,
    /// Member window count.
    pub windows: u32,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A classification result.
    Classify {
        /// The request id.
        id: u64,
        /// The decision (logit margin ≥ 0).
        hotspot: bool,
        /// The logit margin (hotspot − non-hotspot) that produced it.
        margin: f32,
        /// `true` when the server was in triage-only degradation and
        /// skipped the confirmation stage.
        degraded: bool,
        /// `true` when the cascade escalated this clip to the full
        /// M-level confirmation pass.
        escalated: bool,
        /// The trace id that indexes this request in the flight
        /// recorder (`GET /debug/requests`).  Optional trailing field;
        /// 0 from servers that predate tracing.
        trace_id: u64,
    },
    /// A typed rejection.
    Error {
        /// The request id (0 when the request could not be decoded far
        /// enough to learn it).
        id: u64,
        /// Why the request was rejected.
        code: ErrorCode,
        /// Human-readable detail.
        msg: String,
    },
    /// Prometheus metrics text.
    MetricsText(String),
    /// Ping reply.
    Pong {
        /// The request id.
        id: u64,
    },
    /// A hot-swap succeeded.
    SwapOk {
        /// The request id.
        id: u64,
        /// The model generation now serving.
        generation: u64,
    },
    /// Serving status.
    Stats {
        /// The request id.
        id: u64,
        /// Current model generation.
        generation: u64,
        /// `true` while the degradation ladder is in triage-only mode.
        degraded: bool,
        /// Requests currently queued.
        queue_depth: u64,
    },
    /// A full-chip scan result.
    ScanRegions {
        /// The request id.
        id: u64,
        /// Merged hotspot regions, best score first.
        regions: Vec<ScanHit>,
        /// Window positions scored.
        windows: u32,
        /// Windows the confirm stage re-scored.
        escalated: u32,
        /// `true` when triage-only degradation skipped confirmation.
        degraded: bool,
        /// Flight-recorder trace id (optional trailing field).
        trace_id: u64,
    },
}

fn put_string(w: &mut WireWriter, s: &str) {
    w.put_usize(s.len());
    w.put_raw(s.as_bytes());
}

fn get_string(r: &mut WireReader<'_>) -> Result<String, FrameError> {
    let len = r.get_count(1)?;
    let mut bytes = Vec::with_capacity(len);
    for _ in 0..len {
        bytes.push(r.get_u8()?);
    }
    String::from_utf8(bytes).map_err(|_| FrameError("string is not UTF-8".into()))
}

/// Encodes a request as a complete frame (length prefix included).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut w = WireWriter::new();
    match req {
        Request::Classify {
            id,
            deadline_ms,
            width,
            height,
            words,
            trace_id,
        } => {
            w.put_u8(T_CLASSIFY);
            w.put_u64(*id);
            w.put_u32(*deadline_ms);
            w.put_u32(*width);
            w.put_u32(*height);
            w.put_u64_slice(words);
            // Optional trailing field: only written when set, so the
            // zero case stays byte-identical to the pre-tracing frame.
            if *trace_id != 0 {
                w.put_u64(*trace_id);
            }
        }
        Request::Ping { id } => {
            w.put_u8(T_PING);
            w.put_u64(*id);
        }
        Request::Metrics => w.put_u8(T_METRICS),
        Request::SwapModel { id, path } => {
            w.put_u8(T_SWAP);
            w.put_u64(*id);
            put_string(&mut w, path);
        }
        Request::Stats { id } => {
            w.put_u8(T_STATS);
            w.put_u64(*id);
        }
        Request::Scan {
            id,
            deadline_ms,
            stride,
            width,
            height,
            words,
            trace_id,
        } => {
            w.put_u8(T_SCAN);
            w.put_u64(*id);
            w.put_u32(*deadline_ms);
            w.put_u32(*stride);
            w.put_u32(*width);
            w.put_u32(*height);
            w.put_u64_slice(words);
            if *trace_id != 0 {
                w.put_u64(*trace_id);
            }
        }
    }
    frame(w.into_bytes())
}

/// Decodes a request payload (the bytes after the length prefix).
///
/// # Errors
///
/// Returns [`FrameError`] on an empty payload, unknown type byte,
/// truncated body, or trailing bytes.
pub fn decode_request(payload: &[u8]) -> Result<Request, FrameError> {
    let mut r = WireReader::new(payload);
    let ty = r.get_u8().map_err(|_| FrameError("empty frame".into()))?;
    let req = match ty {
        T_CLASSIFY => Request::Classify {
            id: r.get_u64()?,
            deadline_ms: r.get_u32()?,
            width: r.get_u32()?,
            height: r.get_u32()?,
            words: r.get_u64_vec()?,
            trace_id: if r.remaining() > 0 { r.get_u64()? } else { 0 },
        },
        T_PING => Request::Ping { id: r.get_u64()? },
        T_METRICS => Request::Metrics,
        T_SWAP => Request::SwapModel {
            id: r.get_u64()?,
            path: get_string(&mut r)?,
        },
        T_STATS => Request::Stats { id: r.get_u64()? },
        T_SCAN => Request::Scan {
            id: r.get_u64()?,
            deadline_ms: r.get_u32()?,
            stride: r.get_u32()?,
            width: r.get_u32()?,
            height: r.get_u32()?,
            words: r.get_u64_vec()?,
            trace_id: if r.remaining() > 0 { r.get_u64()? } else { 0 },
        },
        b => return Err(FrameError(format!("unknown request type byte {b:#04x}"))),
    };
    if r.remaining() != 0 {
        return Err(FrameError(format!(
            "{} trailing bytes after request",
            r.remaining()
        )));
    }
    Ok(req)
}

/// Encodes a response as a complete frame (length prefix included).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut w = WireWriter::new();
    match resp {
        Response::Classify {
            id,
            hotspot,
            margin,
            degraded,
            escalated,
            trace_id,
        } => {
            w.put_u8(T_R_CLASSIFY);
            w.put_u64(*id);
            w.put_bool(*hotspot);
            w.put_f32(*margin);
            w.put_bool(*degraded);
            w.put_bool(*escalated);
            if *trace_id != 0 {
                w.put_u64(*trace_id);
            }
        }
        Response::Error { id, code, msg } => {
            w.put_u8(T_R_ERROR);
            w.put_u64(*id);
            w.put_u8(*code as u8);
            put_string(&mut w, msg);
        }
        Response::MetricsText(text) => {
            w.put_u8(T_R_METRICS);
            put_string(&mut w, text);
        }
        Response::Pong { id } => {
            w.put_u8(T_R_PONG);
            w.put_u64(*id);
        }
        Response::SwapOk { id, generation } => {
            w.put_u8(T_R_SWAP_OK);
            w.put_u64(*id);
            w.put_u64(*generation);
        }
        Response::Stats {
            id,
            generation,
            degraded,
            queue_depth,
        } => {
            w.put_u8(T_R_STATS);
            w.put_u64(*id);
            w.put_u64(*generation);
            w.put_bool(*degraded);
            w.put_u64(*queue_depth);
        }
        Response::ScanRegions {
            id,
            regions,
            windows,
            escalated,
            degraded,
            trace_id,
        } => {
            w.put_u8(T_R_SCAN);
            w.put_u64(*id);
            w.put_u32(*windows);
            w.put_u32(*escalated);
            w.put_bool(*degraded);
            w.put_usize(regions.len());
            for hit in regions {
                w.put_u32(hit.x0);
                w.put_u32(hit.y0);
                w.put_u32(hit.x1);
                w.put_u32(hit.y1);
                w.put_f32(hit.score);
                w.put_u32(hit.windows);
            }
            if *trace_id != 0 {
                w.put_u64(*trace_id);
            }
        }
    }
    frame(w.into_bytes())
}

/// Decodes a response payload (the bytes after the length prefix).
///
/// # Errors
///
/// Returns [`FrameError`] on an empty payload, unknown type byte,
/// truncated body, or trailing bytes.
pub fn decode_response(payload: &[u8]) -> Result<Response, FrameError> {
    let mut r = WireReader::new(payload);
    let ty = r.get_u8().map_err(|_| FrameError("empty frame".into()))?;
    let resp = match ty {
        T_R_CLASSIFY => Response::Classify {
            id: r.get_u64()?,
            hotspot: r.get_bool()?,
            margin: r.get_f32()?,
            degraded: r.get_bool()?,
            escalated: r.get_bool()?,
            trace_id: if r.remaining() > 0 { r.get_u64()? } else { 0 },
        },
        T_R_ERROR => Response::Error {
            id: r.get_u64()?,
            code: ErrorCode::from_u8(r.get_u8()?)?,
            msg: get_string(&mut r)?,
        },
        T_R_METRICS => Response::MetricsText(get_string(&mut r)?),
        T_R_PONG => Response::Pong { id: r.get_u64()? },
        T_R_SWAP_OK => Response::SwapOk {
            id: r.get_u64()?,
            generation: r.get_u64()?,
        },
        T_R_STATS => Response::Stats {
            id: r.get_u64()?,
            generation: r.get_u64()?,
            degraded: r.get_bool()?,
            queue_depth: r.get_u64()?,
        },
        T_R_SCAN => {
            let id = r.get_u64()?;
            let windows = r.get_u32()?;
            let escalated = r.get_u32()?;
            let degraded = r.get_bool()?;
            let count = r.get_count(24)?;
            let mut regions = Vec::with_capacity(count);
            for _ in 0..count {
                regions.push(ScanHit {
                    x0: r.get_u32()?,
                    y0: r.get_u32()?,
                    x1: r.get_u32()?,
                    y1: r.get_u32()?,
                    score: r.get_f32()?,
                    windows: r.get_u32()?,
                });
            }
            Response::ScanRegions {
                id,
                regions,
                windows,
                escalated,
                degraded,
                trace_id: if r.remaining() > 0 { r.get_u64()? } else { 0 },
            }
        }
        b => return Err(FrameError(format!("unknown response type byte {b:#04x}"))),
    };
    if r.remaining() != 0 {
        return Err(FrameError(format!(
            "{} trailing bytes after response",
            r.remaining()
        )));
    }
    Ok(resp)
}

/// Prepends the length prefix to a payload.
fn frame(payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Reads one frame payload from a stream, given its already-read
/// 4-byte length prefix.
///
/// # Errors
///
/// Returns `Ok(Err(FrameError))` when the advertised length exceeds
/// `max_len` (protocol violation, connection should close) and
/// `Err(io)` on transport failure or truncation mid-payload.
pub fn read_frame_body<R: Read>(
    stream: &mut R,
    len_prefix: [u8; 4],
    max_len: usize,
) -> std::io::Result<Result<Vec<u8>, FrameError>> {
    let len = u32::from_le_bytes(len_prefix) as usize;
    if len > max_len {
        return Ok(Err(FrameError(format!(
            "frame length {len} exceeds the {max_len}-byte limit"
        ))));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok(Ok(payload))
}

/// Writes a pre-encoded frame to a stream.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_frame<W: Write>(stream: &mut W, frame: &[u8]) -> std::io::Result<()> {
    stream.write_all(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strip(frame: Vec<u8>) -> Vec<u8> {
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(len, frame.len() - 4, "length prefix covers the payload");
        frame[4..].to_vec()
    }

    #[test]
    fn requests_round_trip() {
        let cases = vec![
            Request::Classify {
                id: 42,
                deadline_ms: 250,
                width: 64,
                height: 64,
                words: vec![0xDEAD_BEEF; 64],
                trace_id: 0,
            },
            Request::Classify {
                id: 43,
                deadline_ms: 250,
                width: 64,
                height: 64,
                words: vec![0xDEAD_BEEF; 64],
                trace_id: 0xFACE_FEED,
            },
            Request::Scan {
                id: 44,
                deadline_ms: 5000,
                stride: 64,
                width: 512,
                height: 256,
                words: vec![0xAAAA_5555; 8 * 256],
                trace_id: 0,
            },
            Request::Scan {
                id: 45,
                deadline_ms: 0,
                stride: 128,
                width: 128,
                height: 128,
                words: vec![1; 2 * 128],
                trace_id: 0xBEEF,
            },
            Request::Ping { id: 7 },
            Request::Metrics,
            Request::SwapModel {
                id: 9,
                path: "/tmp/model.brnn".into(),
            },
            Request::Stats { id: 11 },
        ];
        for req in cases {
            let payload = strip(encode_request(&req));
            assert_eq!(decode_request(&payload).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let cases = vec![
            Response::Classify {
                id: 1,
                hotspot: true,
                margin: -0.75,
                degraded: false,
                escalated: true,
                trace_id: 0,
            },
            Response::Classify {
                id: 6,
                hotspot: false,
                margin: 0.25,
                degraded: true,
                escalated: false,
                trace_id: 0x1234_5678_9ABC,
            },
            Response::Error {
                id: 2,
                code: ErrorCode::Overloaded,
                msg: "queue full".into(),
            },
            Response::MetricsText("# HELP x\n".into()),
            Response::Pong { id: 3 },
            Response::SwapOk {
                id: 4,
                generation: 2,
            },
            Response::Stats {
                id: 5,
                generation: 3,
                degraded: true,
                queue_depth: 17,
            },
            Response::ScanRegions {
                id: 8,
                regions: vec![],
                windows: 25,
                escalated: 0,
                degraded: false,
                trace_id: 0,
            },
            Response::ScanRegions {
                id: 9,
                regions: vec![
                    ScanHit {
                        x0: 0,
                        y0: 64,
                        x1: 256,
                        y1: 192,
                        score: 3.25,
                        windows: 4,
                    },
                    ScanHit {
                        x0: 448,
                        y0: 0,
                        x1: 512,
                        y1: 128,
                        score: 0.5,
                        windows: 1,
                    },
                ],
                windows: 49,
                escalated: 6,
                degraded: true,
                trace_id: 0xABCD,
            },
        ];
        for resp in cases {
            let payload = strip(encode_response(&resp));
            assert_eq!(decode_response(&payload).unwrap(), resp);
        }
    }

    #[test]
    fn pre_tracing_classify_frames_still_parse() {
        // A frame without the trailing trace id — exactly what an old
        // client sends — decodes with trace_id 0; and a zero trace id
        // encodes byte-identically to the old framing, so old servers
        // can also read new clients that don't opt in.
        let old_style = strip(encode_request(&Request::Classify {
            id: 5,
            deadline_ms: 100,
            width: 32,
            height: 32,
            words: vec![7, 8],
            trace_id: 0,
        }));
        let traced = strip(encode_request(&Request::Classify {
            id: 5,
            deadline_ms: 100,
            width: 32,
            height: 32,
            words: vec![7, 8],
            trace_id: 99,
        }));
        assert_eq!(traced.len(), old_style.len() + 8);
        match decode_request(&old_style).unwrap() {
            Request::Classify { trace_id, .. } => assert_eq!(trace_id, 0),
            other => panic!("unexpected {other:?}"),
        }
        let old_resp = strip(encode_response(&Response::Classify {
            id: 5,
            hotspot: true,
            margin: 1.5,
            degraded: false,
            escalated: false,
            trace_id: 0,
        }));
        match decode_response(&old_resp).unwrap() {
            Response::Classify { trace_id, .. } => assert_eq!(trace_id, 0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn truncated_and_unknown_frames_are_typed_errors() {
        let payload = strip(encode_request(&Request::Classify {
            id: 1,
            deadline_ms: 0,
            width: 32,
            height: 32,
            words: vec![1, 2, 3],
            trace_id: 0,
        }));
        // Every strict prefix of a valid payload must fail cleanly.
        for cut in 0..payload.len() {
            assert!(
                decode_request(&payload[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        let scan = strip(encode_request(&Request::Scan {
            id: 1,
            deadline_ms: 0,
            stride: 32,
            width: 64,
            height: 64,
            words: vec![1, 2, 3],
            trace_id: 0,
        }));
        for cut in 0..scan.len() {
            assert!(
                decode_request(&scan[..cut]).is_err(),
                "scan prefix of {cut} bytes decoded"
            );
        }
        let scan_resp = strip(encode_response(&Response::ScanRegions {
            id: 1,
            regions: vec![ScanHit {
                x0: 0,
                y0: 0,
                x1: 64,
                y1: 64,
                score: 1.0,
                windows: 1,
            }],
            windows: 9,
            escalated: 1,
            degraded: false,
            trace_id: 0,
        }));
        for cut in 1..scan_resp.len() {
            assert!(
                decode_response(&scan_resp[..cut]).is_err(),
                "scan response prefix of {cut} bytes decoded"
            );
        }
        assert!(decode_request(&[0x7F]).is_err(), "unknown type byte");
        assert!(decode_response(&[0x10]).is_err(), "unknown response type");
        // Trailing garbage after a valid body is rejected too.
        let mut padded = strip(encode_request(&Request::Ping { id: 1 }));
        padded.push(0);
        assert!(decode_request(&padded).is_err());
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let prefix = (u32::MAX).to_le_bytes();
        let mut empty: &[u8] = &[];
        let result = read_frame_body(&mut empty, prefix, MAX_FRAME_LEN).unwrap();
        assert!(result.is_err(), "4 GiB frame must be refused");
    }

    #[test]
    fn error_codes_round_trip_and_get_prefix_cannot_be_a_frame() {
        for code in [
            ErrorCode::Deadline,
            ErrorCode::Overloaded,
            ErrorCode::Internal,
            ErrorCode::BadRequest,
            ErrorCode::Shutdown,
            ErrorCode::SwapFailed,
            ErrorCode::CorruptFrame,
        ] {
            assert_eq!(ErrorCode::from_u8(code as u8).unwrap(), code);
        }
        assert!(ErrorCode::from_u8(0).is_err());
        // The HTTP sniff: "GET " as a little-endian length is far past
        // MAX_FRAME_LEN, so a binary frame can never start with it.
        let as_len = u32::from_le_bytes(*b"GET ") as usize;
        assert!(as_len > MAX_FRAME_LEN);
    }
}
