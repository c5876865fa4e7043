//! The `LCRQ`/`LCRS` request/response framing — the wire surface of
//! `lcpio-serve`, specified normatively in
//! [`PROTOCOL.md`](https://example.invalid/lcpio) at the repo root.
//!
//! Both directions share one frame shape, reusing the LCW1 envelope's
//! building blocks ([`lcpio_wire::varint`] LEB128 integers, `(tag, len,
//! value)` TLV headers, skip-unknown forward compatibility):
//!
//! ```text
//! offset 0   magic            b"LCRQ" (request) / b"LCRS" (response)
//!        4   version major    u8  (peer rejects newer majors)
//!        5   version minor    u8  (peer accepts any minor)
//!        6   header length    varint, bytes of the TLV block
//!        ..  TLV block        sequence of (u8 tag, varint len, value)
//!        ..  payload length   varint
//!        ..  payload          raw bytes
//! ```
//!
//! Requests carry an operation ([`Op`]) plus operation-specific fields;
//! responses carry a [`status`] code plus result metadata. Payloads are
//! the bulk data: raw little-endian `f32` elements on a compress request,
//! a self-describing compressed container (LCW1 or legacy) on a compress
//! response or decompress request.
//!
//! Validation mirrors `lcpio-wire`: every length is checked against a
//! hard ceiling *before* any allocation ([`MAX_HEADER_LEN`],
//! [`MAX_PAYLOAD_LEN`], [`MAX_RANK`]), known TLV tags may appear at most
//! once, unknown tags are skipped, and every failure mode is a distinct
//! [`ProtoError`] variant that maps onto a typed [`status`] code.

use lcpio_codec::policy::CodecId;
use lcpio_codec::BoundSpec;
use lcpio_core::PolicyKind;
use lcpio_wire::{push_tlv, varint, RawField, TlvError};

/// Request-frame magic.
pub const REQUEST_MAGIC: [u8; 4] = *b"LCRQ";

/// Response-frame magic.
pub const RESPONSE_MAGIC: [u8; 4] = *b"LCRS";

/// Highest protocol major version this build speaks (and the one it
/// writes). A frame with a newer major fails with
/// [`ProtoError::UnsupportedMajor`].
pub const VERSION_MAJOR: u8 = 1;

/// Minor version written by this build. Peers accept any minor: new
/// minors may only add TLV fields, which old peers skip.
pub const VERSION_MINOR: u8 = 0;

/// Ceiling on the TLV header block in bytes. Real headers are tens of
/// bytes; a forged multi-megabyte claim is rejected before any buffering.
pub const MAX_HEADER_LEN: usize = 1 << 16;

/// Hard ceiling on a frame payload. Servers may configure a lower
/// admission cap (`ServeConfig::max_payload`); this constant bounds what
/// the codec layer will ever buffer for one frame.
pub const MAX_PAYLOAD_LEN: usize = 1 << 30;

/// Ceiling on array rank in the `DIMS` field (mirrors
/// [`lcpio_wire::MAX_RANK`]).
pub const MAX_RANK: usize = lcpio_wire::MAX_RANK;

/// Request operations (the value of the [`reqtag::OP`] field).
pub mod op {
    /// Compress the payload (raw little-endian `f32`s shaped by `DIMS`).
    pub const COMPRESS: u8 = 1;
    /// Decompress the payload (any registry container, LCW1 or legacy).
    pub const DECOMPRESS: u8 = 2;
    /// Describe the payload container without decoding it.
    pub const INFO: u8 = 3;
    /// Liveness probe; empty payload, empty response.
    pub const PING: u8 = 4;
    /// Begin a graceful drain: in-flight requests complete, new requests
    /// are rejected with [`super::status::SHUTTING_DOWN`], then the
    /// server exits.
    pub const SHUTDOWN: u8 = 5;

    /// Every operation with its spec name, in wire order.
    pub const ALL: &[(u8, &str)] = &[
        (COMPRESS, "COMPRESS"),
        (DECOMPRESS, "DECOMPRESS"),
        (INFO, "INFO"),
        (PING, "PING"),
        (SHUTDOWN, "SHUTDOWN"),
    ];
}

/// Request TLV tags. Unknown tags are skipped on decode (forward
/// compatibility); known tags may appear at most once.
pub mod reqtag {
    /// Required. Operation code (1 byte, see [`super::op`]).
    pub const OP: u8 = 0x01;
    /// Optional. Client-chosen request id (varint), echoed in the
    /// response. Defaults to 0.
    pub const REQUEST_ID: u8 = 0x02;
    /// Optional (compress). Requested codec id (1 byte, `1` = SZ, `2` =
    /// ZFP; the codec-tag values of `lcpio-codec`). Absent ⇒ the server's
    /// configured default codec applies.
    pub const CODEC: u8 = 0x03;
    /// Optional (compress). Error bound: 1 mode byte (`0` absolute, `1`
    /// value-range-relative, `2` pointwise-relative) + 8 bytes `f64` LE.
    /// Absent ⇒ the server's configured default bound applies.
    pub const BOUND: u8 = 0x04;
    /// Required for compress. Array dims: varint rank (≤
    /// [`super::MAX_RANK`]), then one varint per extent.
    pub const DIMS: u8 = 0x05;
    /// Optional (compress). Chunk policy (1 byte: `0` fixed, `1`
    /// heuristic, `2` adaptive). Absent ⇒ the server's configured default
    /// policy applies.
    pub const POLICY: u8 = 0x06;

    /// Every request tag with its spec name, in wire order.
    pub const ALL: &[(u8, &str)] = &[
        (OP, "OP"),
        (REQUEST_ID, "REQUEST_ID"),
        (CODEC, "CODEC"),
        (BOUND, "BOUND"),
        (DIMS, "DIMS"),
        (POLICY, "POLICY"),
    ];
}

/// Response TLV tags. Unknown tags are skipped on decode (forward
/// compatibility); known tags may appear at most once.
pub mod resptag {
    /// Required. Status code (1 byte, see [`super::status`]).
    pub const STATUS: u8 = 0x01;
    /// Optional. Echo of the request's `REQUEST_ID` (varint).
    pub const REQUEST_ID: u8 = 0x02;
    /// Optional. Server-side service latency in microseconds (varint),
    /// from dequeue to completion.
    pub const LATENCY_US: u8 = 0x03;
    /// Optional. Modeled compression/decompression energy in microjoules
    /// (varint) at the planned DVFS frequency.
    pub const ENERGY_UJ: u8 = 0x04;
    /// Optional. Human-readable detail (UTF-8): error context, or the
    /// container description on an `INFO` response.
    pub const MESSAGE: u8 = 0x05;
    /// Optional (decompress). Dims of the restored field: varint rank,
    /// then one varint per extent.
    pub const DIMS: u8 = 0x06;
    /// Optional (compress). Codec id actually used after policy planning
    /// (1 byte).
    pub const CODEC: u8 = 0x07;

    /// Every response tag with its spec name, in wire order.
    pub const ALL: &[(u8, &str)] = &[
        (STATUS, "STATUS"),
        (REQUEST_ID, "REQUEST_ID"),
        (LATENCY_US, "LATENCY_US"),
        (ENERGY_UJ, "ENERGY_UJ"),
        (MESSAGE, "MESSAGE"),
        (DIMS, "DIMS"),
        (CODEC, "CODEC"),
    ];
}

/// Response status codes (the value of the [`resptag::STATUS`] field).
pub mod status {
    /// Success.
    pub const OK: u8 = 0;
    /// The request frame is structurally invalid (bad varint, malformed
    /// TLV, duplicate or missing required field).
    pub const MALFORMED: u8 = 1;
    /// The request's major version is newer than this server speaks.
    pub const UNSUPPORTED_VERSION: u8 = 2;
    /// A header/payload length exceeds a hard ceiling or the server's
    /// configured admission cap.
    pub const LIMIT: u8 = 3;
    /// The `OP` field names no operation this server knows.
    pub const UNKNOWN_OP: u8 = 4;
    /// The frame parsed but the request is semantically invalid (dims do
    /// not match the payload, unknown codec/policy/bound ids, ...).
    pub const BAD_REQUEST: u8 = 5;
    /// The codec backend rejected or failed the work (corrupt container,
    /// unsupported bound, ...).
    pub const CODEC: u8 = 6;
    /// Admission control rejected the request: every worker-shard queue
    /// the request could join is full. Retry later.
    pub const BUSY: u8 = 7;
    /// The server is draining; no new work is accepted.
    pub const SHUTTING_DOWN: u8 = 8;

    /// Every status with its spec name, in wire order.
    pub const ALL: &[(u8, &str)] = &[
        (OK, "OK"),
        (MALFORMED, "MALFORMED"),
        (UNSUPPORTED_VERSION, "UNSUPPORTED_VERSION"),
        (LIMIT, "LIMIT"),
        (UNKNOWN_OP, "UNKNOWN_OP"),
        (BAD_REQUEST, "BAD_REQUEST"),
        (CODEC, "CODEC"),
        (BUSY, "BUSY"),
        (SHUTTING_DOWN, "SHUTTING_DOWN"),
    ];

    /// The spec name of a status code (`"?"` for unknown values).
    pub fn name(code: u8) -> &'static str {
        ALL.iter().find(|(c, _)| *c == code).map(|(_, n)| *n).unwrap_or("?")
    }
}

/// Typed protocol decode error. Every failure mode is a distinct variant
/// so the server can map it onto the right [`status`] code (see
/// [`ProtoError::status`]) and tests can tell a cut frame from a forged
/// one from a version skew.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The buffer ends before `section` is complete.
    Truncated {
        /// Frame section the bytes ran out in.
        section: &'static str,
    },
    /// First four bytes are neither `LCRQ` nor `LCRS`.
    BadMagic([u8; 4]),
    /// Frame major version is newer than this peer understands.
    UnsupportedMajor {
        /// Major version in the frame.
        have: u8,
        /// Highest major this build speaks.
        supported: u8,
    },
    /// Structurally invalid data (bad varint, malformed field, ...).
    Malformed {
        /// What was malformed.
        what: &'static str,
    },
    /// A header/payload field exceeds its hard ceiling.
    LimitExceeded {
        /// Which ceiling was hit.
        what: &'static str,
    },
    /// A known TLV tag appeared more than once.
    DuplicateField {
        /// The repeated tag.
        tag: u8,
    },
    /// A required TLV field is missing.
    MissingField {
        /// The absent tag.
        tag: u8,
    },
    /// The request `OP` byte names no known operation.
    UnknownOp(u8),
    /// The frame parsed but its fields are semantically invalid.
    BadRequest {
        /// What was invalid.
        what: &'static str,
    },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated { section } => write!(f, "frame truncated in {section}"),
            ProtoError::BadMagic(m) => {
                write!(f, "not a protocol frame (magic {:?})", String::from_utf8_lossy(m))
            }
            ProtoError::UnsupportedMajor { have, supported } => {
                write!(f, "frame major version {have} is newer than supported {supported}")
            }
            ProtoError::Malformed { what } => write!(f, "malformed frame: {what}"),
            ProtoError::LimitExceeded { what } => write!(f, "{what} exceeds hard limit"),
            ProtoError::DuplicateField { tag } => {
                write!(f, "TLV field 0x{tag:02x} appears more than once")
            }
            ProtoError::MissingField { tag } => {
                write!(f, "required TLV field 0x{tag:02x} missing")
            }
            ProtoError::UnknownOp(v) => write!(f, "unknown operation {v}"),
            ProtoError::BadRequest { what } => write!(f, "bad request: {what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl ProtoError {
    /// The [`status`] code a server should answer this decode error with.
    pub fn status(&self) -> u8 {
        match self {
            ProtoError::Truncated { .. }
            | ProtoError::Malformed { .. }
            | ProtoError::DuplicateField { .. }
            | ProtoError::MissingField { .. }
            | ProtoError::BadMagic(_) => status::MALFORMED,
            ProtoError::UnsupportedMajor { .. } => status::UNSUPPORTED_VERSION,
            ProtoError::LimitExceeded { .. } => status::LIMIT,
            ProtoError::UnknownOp(_) => status::UNKNOWN_OP,
            ProtoError::BadRequest { .. } => status::BAD_REQUEST,
        }
    }
}

/// A request operation, decoded from the [`reqtag::OP`] byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Compress raw `f32` elements into a container.
    Compress,
    /// Decompress a container back into elements.
    Decompress,
    /// Describe a container.
    Info,
    /// Liveness probe.
    Ping,
    /// Graceful drain.
    Shutdown,
}

impl Op {
    /// Decode a wire op byte (`None` for unknown values — the server
    /// turns that into a typed [`status::UNKNOWN_OP`], never a panic).
    pub fn from_u8(v: u8) -> Option<Op> {
        match v {
            op::COMPRESS => Some(Op::Compress),
            op::DECOMPRESS => Some(Op::Decompress),
            op::INFO => Some(Op::Info),
            op::PING => Some(Op::Ping),
            op::SHUTDOWN => Some(Op::Shutdown),
            _ => None,
        }
    }

    /// The wire byte.
    pub fn as_u8(self) -> u8 {
        match self {
            Op::Compress => op::COMPRESS,
            Op::Decompress => op::DECOMPRESS,
            Op::Info => op::INFO,
            Op::Ping => op::PING,
            Op::Shutdown => op::SHUTDOWN,
        }
    }
}

/// Encode a policy kind as its wire byte.
pub fn policy_to_u8(kind: PolicyKind) -> u8 {
    match kind {
        PolicyKind::Fixed => 0,
        PolicyKind::Heuristic => 1,
        PolicyKind::Adaptive => 2,
    }
}

/// Decode a policy wire byte (`None` for unknown values).
pub fn policy_from_u8(v: u8) -> Option<PolicyKind> {
    match v {
        0 => Some(PolicyKind::Fixed),
        1 => Some(PolicyKind::Heuristic),
        2 => Some(PolicyKind::Adaptive),
        _ => None,
    }
}

fn bound_to_bytes(bound: BoundSpec) -> [u8; 9] {
    let (mode, eb) = match bound {
        BoundSpec::Absolute(eb) => (0u8, eb),
        BoundSpec::ValueRangeRelative(r) => (1, r),
        BoundSpec::PointwiseRelative(r) => (2, r),
    };
    let mut out = [0u8; 9];
    out[0] = mode;
    out[1..].copy_from_slice(&eb.to_le_bytes());
    out
}

fn bound_from_bytes(raw: &[u8]) -> Result<BoundSpec, ProtoError> {
    if raw.len() != 9 {
        return Err(ProtoError::Malformed { what: "BOUND field length" });
    }
    let eb = f64::from_le_bytes(raw[1..9].try_into().expect("8 bytes"));
    if !eb.is_finite() || eb <= 0.0 {
        return Err(ProtoError::BadRequest { what: "error bound must be finite and positive" });
    }
    match raw[0] {
        0 => Ok(BoundSpec::Absolute(eb)),
        1 => Ok(BoundSpec::ValueRangeRelative(eb)),
        2 => Ok(BoundSpec::PointwiseRelative(eb)),
        _ => Err(ProtoError::BadRequest { what: "unknown bound mode" }),
    }
}

/// Read a varint out of `buf` at `pos`, mapping wire errors onto protocol
/// errors with a section label.
fn read_varint(buf: &[u8], pos: &mut usize, section: &'static str) -> Result<u64, ProtoError> {
    varint::read(buf, pos).map_err(|e| varint_error(e, section))
}

fn varint_error(e: lcpio_wire::WireError, section: &'static str) -> ProtoError {
    match e {
        lcpio_wire::WireError::Truncated { .. } => ProtoError::Truncated { section },
        lcpio_wire::WireError::Overflow { .. } => ProtoError::Malformed { what: "varint overflow" },
        lcpio_wire::WireError::LimitExceeded { what } => ProtoError::LimitExceeded { what },
        _ => ProtoError::Malformed { what: "varint" },
    }
}

/// A decoded compression-service request.
///
/// The compress-tuning fields are `None` when the corresponding TLV was
/// absent from the frame — the server then applies its configured
/// defaults; [`Request::encode`] emits only the fields that are set.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen id, echoed in the response.
    pub id: u64,
    /// The operation.
    pub op: Op,
    /// Requested codec (compress only; `None` ⇒ server default).
    pub codec: Option<CodecId>,
    /// Error bound (compress only; `None` ⇒ server default).
    pub bound: Option<BoundSpec>,
    /// Chunk policy (compress only; `None` ⇒ server default).
    pub policy: Option<PolicyKind>,
    /// Array dims (compress only; empty otherwise).
    pub dims: Vec<usize>,
    /// Bulk payload.
    pub payload: Vec<u8>,
}

impl Request {
    /// A compress request for `data`-shaped-by-`dims` at the given codec,
    /// bound and policy.
    pub fn compress(
        id: u64,
        data: &[f32],
        dims: &[usize],
        codec: CodecId,
        bound: BoundSpec,
        policy: PolicyKind,
    ) -> Request {
        let mut payload = Vec::with_capacity(data.len() * 4);
        for &v in data {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        Request {
            id,
            op: Op::Compress,
            codec: Some(codec),
            bound: Some(bound),
            policy: Some(policy),
            dims: dims.to_vec(),
            payload,
        }
    }

    /// A decompress request for a compressed container.
    pub fn decompress(id: u64, container: &[u8]) -> Request {
        Request { payload: container.to_vec(), ..Request::control(id, Op::Decompress) }
    }

    /// An info request for a compressed container.
    pub fn info(id: u64, container: &[u8]) -> Request {
        Request { payload: container.to_vec(), ..Request::control(id, Op::Info) }
    }

    /// A payload-less control request (`Ping`/`Shutdown`).
    pub fn control(id: u64, op: Op) -> Request {
        Request {
            id,
            op,
            codec: None,
            bound: None,
            policy: None,
            dims: Vec::new(),
            payload: Vec::new(),
        }
    }

    /// The request's `f32` elements, decoded from the payload (compress
    /// requests carry raw little-endian elements).
    pub fn elements(&self) -> Result<Vec<f32>, ProtoError> {
        if !self.payload.len().is_multiple_of(4) {
            return Err(ProtoError::BadRequest { what: "payload is not whole f32 elements" });
        }
        let byte_len = self
            .dims
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .and_then(|n| n.checked_mul(4))
            .ok_or(ProtoError::LimitExceeded { what: "dims product" })?;
        if byte_len != self.payload.len() {
            return Err(ProtoError::BadRequest { what: "dims do not match payload length" });
        }
        Ok(self
            .payload
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Serialize to one wire frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut header = Vec::with_capacity(64);
        push_tlv(&mut header, reqtag::OP, &[self.op.as_u8()]);
        if self.id != 0 {
            let mut v = Vec::new();
            varint::write_u64(&mut v, self.id);
            push_tlv(&mut header, reqtag::REQUEST_ID, &v);
        }
        if let Some(codec) = self.codec {
            push_tlv(&mut header, reqtag::CODEC, &[codec.as_u8()]);
        }
        if let Some(bound) = self.bound {
            push_tlv(&mut header, reqtag::BOUND, &bound_to_bytes(bound));
        }
        if !self.dims.is_empty() {
            push_tlv(&mut header, reqtag::DIMS, &varint::encode_dims(&self.dims));
        }
        if let Some(policy) = self.policy {
            push_tlv(&mut header, reqtag::POLICY, &[policy_to_u8(policy)]);
        }
        encode_frame(REQUEST_MAGIC, &header, &self.payload)
    }

    /// Decode one request frame from the front of `buf`, returning the
    /// request and the bytes consumed.
    pub fn decode(buf: &[u8]) -> Result<(Request, usize), ProtoError> {
        let (fields, payload, used) = decode_frame(buf, REQUEST_MAGIC, reqtag::ALL)?;
        let op_raw = fields
            .one_byte(reqtag::OP)?
            .ok_or(ProtoError::MissingField { tag: reqtag::OP })?;
        let op = Op::from_u8(op_raw).ok_or(ProtoError::UnknownOp(op_raw))?;
        let id = fields.varint(reqtag::REQUEST_ID)?.unwrap_or(0);
        let codec = match fields.one_byte(reqtag::CODEC)? {
            None => None,
            Some(v) => match CodecId::from_u8(v) {
                Some(CodecId::Raw) | None => {
                    return Err(ProtoError::BadRequest { what: "unknown codec id" })
                }
                Some(c) => Some(c),
            },
        };
        let bound = match fields.get(reqtag::BOUND) {
            Some(raw) => Some(bound_from_bytes(raw)?),
            None => None,
        };
        let policy = match fields.one_byte(reqtag::POLICY)? {
            None => None,
            Some(v) => Some(
                policy_from_u8(v).ok_or(ProtoError::BadRequest { what: "unknown policy id" })?,
            ),
        };
        let dims = fields.dims(reqtag::DIMS)?;
        if op == Op::Compress && dims.is_empty() {
            return Err(ProtoError::MissingField { tag: reqtag::DIMS });
        }
        Ok((Request { id, op, codec, bound, policy, dims, payload }, used))
    }
}

/// A decoded compression-service response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echo of the request id.
    pub id: u64,
    /// Status code (see [`status`]).
    pub status: u8,
    /// Server-side service latency in microseconds.
    pub latency_us: u64,
    /// Modeled energy in microjoules.
    pub energy_uj: u64,
    /// Human-readable detail (errors, `INFO` description).
    pub message: String,
    /// Dims of a restored field (decompress responses).
    pub dims: Vec<usize>,
    /// Codec actually used after policy planning (compress responses).
    pub codec: Option<CodecId>,
    /// Bulk payload (container bytes or raw elements).
    pub payload: Vec<u8>,
}

impl Response {
    /// An empty-payload response with the given status.
    pub fn of_status(id: u64, status_code: u8, message: impl Into<String>) -> Response {
        Response {
            id,
            status: status_code,
            latency_us: 0,
            energy_uj: 0,
            message: message.into(),
            dims: Vec::new(),
            codec: None,
            payload: Vec::new(),
        }
    }

    /// True when the status is [`status::OK`].
    pub fn is_ok(&self) -> bool {
        self.status == status::OK
    }

    /// The response's `f32` elements, decoded from the payload
    /// (decompress responses carry raw little-endian elements).
    pub fn elements(&self) -> Result<Vec<f32>, ProtoError> {
        if !self.payload.len().is_multiple_of(4) {
            return Err(ProtoError::Malformed { what: "payload is not whole f32 elements" });
        }
        Ok(self
            .payload
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Serialize to one wire frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut header = Vec::with_capacity(64);
        push_tlv(&mut header, resptag::STATUS, &[self.status]);
        if self.id != 0 {
            let mut v = Vec::new();
            varint::write_u64(&mut v, self.id);
            push_tlv(&mut header, resptag::REQUEST_ID, &v);
        }
        if self.latency_us != 0 {
            let mut v = Vec::new();
            varint::write_u64(&mut v, self.latency_us);
            push_tlv(&mut header, resptag::LATENCY_US, &v);
        }
        if self.energy_uj != 0 {
            let mut v = Vec::new();
            varint::write_u64(&mut v, self.energy_uj);
            push_tlv(&mut header, resptag::ENERGY_UJ, &v);
        }
        if !self.message.is_empty() {
            push_tlv(&mut header, resptag::MESSAGE, self.message.as_bytes());
        }
        if !self.dims.is_empty() {
            push_tlv(&mut header, resptag::DIMS, &varint::encode_dims(&self.dims));
        }
        if let Some(codec) = self.codec {
            push_tlv(&mut header, resptag::CODEC, &[codec.as_u8()]);
        }
        encode_frame(RESPONSE_MAGIC, &header, &self.payload)
    }

    /// Decode one response frame from the front of `buf`, returning the
    /// response and the bytes consumed.
    pub fn decode(buf: &[u8]) -> Result<(Response, usize), ProtoError> {
        let (fields, payload, used) = decode_frame(buf, RESPONSE_MAGIC, resptag::ALL)?;
        let status_code = fields
            .one_byte(resptag::STATUS)?
            .ok_or(ProtoError::MissingField { tag: resptag::STATUS })?;
        let id = fields.varint(resptag::REQUEST_ID)?.unwrap_or(0);
        let latency_us = fields.varint(resptag::LATENCY_US)?.unwrap_or(0);
        let energy_uj = fields.varint(resptag::ENERGY_UJ)?.unwrap_or(0);
        let message = match fields.get(resptag::MESSAGE) {
            Some(raw) => String::from_utf8(raw.to_vec())
                .map_err(|_| ProtoError::Malformed { what: "MESSAGE is not UTF-8" })?,
            None => String::new(),
        };
        let dims = fields.dims(resptag::DIMS)?;
        let codec = match fields.one_byte(resptag::CODEC)? {
            None => None,
            Some(v) => Some(
                CodecId::from_u8(v).ok_or(ProtoError::Malformed { what: "unknown codec id" })?,
            ),
        };
        Ok((
            Response { id, status: status_code, latency_us, energy_uj, message, dims, codec, payload },
            used,
        ))
    }
}

fn encode_frame(magic: [u8; 4], header: &[u8], payload: &[u8]) -> Vec<u8> {
    debug_assert!(header.len() <= MAX_HEADER_LEN && payload.len() <= MAX_PAYLOAD_LEN);
    let mut out = Vec::with_capacity(6 + header.len() + payload.len() + 12);
    out.extend_from_slice(&magic);
    out.push(VERSION_MAJOR);
    out.push(VERSION_MINOR);
    varint::write_u64(&mut out, header.len() as u64);
    out.extend_from_slice(header);
    varint::write_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    out
}

/// Decoded TLV block: known fields (at most once each) by tag.
struct Fields<'a> {
    entries: Vec<(u8, &'a [u8])>,
}

impl<'a> Fields<'a> {
    fn get(&self, tag: u8) -> Option<&'a [u8]> {
        self.entries.iter().find(|(t, _)| *t == tag).map(|(_, v)| *v)
    }

    fn one_byte(&self, tag: u8) -> Result<Option<u8>, ProtoError> {
        match self.get(tag) {
            None => Ok(None),
            Some([b]) => Ok(Some(*b)),
            Some(_) => Err(ProtoError::Malformed { what: "one-byte field length" }),
        }
    }

    /// A `DIMS` field's extents; empty when the field is absent.
    fn dims(&self, tag: u8) -> Result<Vec<usize>, ProtoError> {
        self.get(tag).map_or(Ok(Vec::new()), |raw| {
            varint::decode_dims(raw).map_err(|e| varint_error(e, "DIMS field"))
        })
    }

    fn varint(&self, tag: u8) -> Result<Option<u64>, ProtoError> {
        match self.get(tag) {
            None => Ok(None),
            Some(raw) => {
                let mut pos = 0;
                let v = read_varint(raw, &mut pos, "varint field")?;
                if pos != raw.len() {
                    return Err(ProtoError::Malformed { what: "trailing bytes in varint field" });
                }
                Ok(Some(v))
            }
        }
    }
}

/// Shared frame decoder: this direction's magic, the frame boundary from
/// [`frame_len`] (version and both bounded length prefixes), then the TLV
/// walk (skip unknown, reject duplicate known). Returns the known fields,
/// the payload, and the total bytes consumed.
fn decode_frame<'a>(
    buf: &'a [u8],
    magic: [u8; 4],
    known: &[(u8, &str)],
) -> Result<(Fields<'a>, Vec<u8>, usize), ProtoError> {
    // `frame_len` accepts either magic.
    if let Some(got) = buf.first_chunk::<4>().filter(|got| **got != magic) {
        return Err(ProtoError::BadMagic(*got));
    }
    let end = match frame_len(buf)? {
        Some(end) if end <= buf.len() => end,
        _ => return Err(ProtoError::Truncated { section: "frame" }),
    };
    // `frame_len` has bounded both length prefixes, so the header block
    // and the payload lie inside `..end`.
    let mut pos = 6usize;
    let header_len = read_varint(buf, &mut pos, "header length")? as usize;
    let header_end = pos + header_len;
    let mut entries: Vec<(u8, &[u8])> = Vec::new();
    for field in lcpio_wire::tlv::fields(&buf[pos..header_end]) {
        let RawField { tag, value } = field.map_err(|e| match e {
            TlvError::Length(e) => varint_error(e, "TLV length"),
            TlvError::LengthOverflow => ProtoError::Malformed { what: "TLV length overflow" },
            TlvError::ValueTruncated => ProtoError::Truncated { section: "TLV value" },
        })?;
        if known.iter().any(|(t, _)| *t == tag) {
            if entries.iter().any(|(t, _)| *t == tag) {
                return Err(ProtoError::DuplicateField { tag });
            }
            entries.push((tag, value));
        }
        // Unknown tags are skipped: forward compatibility.
    }
    pos = header_end;
    read_varint(buf, &mut pos, "payload length")?;
    Ok((Fields { entries }, buf[pos..end].to_vec(), end))
}

/// The number of bytes the frame at the front of `buf` occupies, or
/// `None` if more bytes are needed to tell. Checks only what framing
/// requires — magic, major version, and the two length prefixes; all
/// other errors are deferred to the full decode. A [`ProtoError`] here
/// means the frame boundary is unknowable (forged lengths, junk
/// prefix): answer once with the typed status and close the
/// connection.
pub fn frame_len(buf: &[u8]) -> Result<Option<usize>, ProtoError> {
    // Reject junk as soon as the prefix can be judged: waiting for more
    // bytes of a frame that can never become valid would turn garbage
    // into a slow-loris stall instead of a typed error.
    if buf.len() >= 4 {
        let got: [u8; 4] = buf[..4].try_into().expect("4-byte slice");
        if got != REQUEST_MAGIC && got != RESPONSE_MAGIC {
            return Err(ProtoError::BadMagic(got));
        }
    }
    if buf.len() >= 5 && buf[4] > VERSION_MAJOR {
        return Err(ProtoError::UnsupportedMajor { have: buf[4], supported: VERSION_MAJOR });
    }
    if buf.len() < 6 {
        return Ok(None);
    }
    let mut pos = 6usize;
    let header_len = match varint::read_partial(&buf[pos..]) {
        Ok(varint::Partial::Ready(v, n)) => {
            pos += n;
            v
        }
        Ok(varint::Partial::NeedMore) => return Ok(None),
        Err(_) => return Err(ProtoError::Malformed { what: "header length varint" }),
    };
    if header_len as usize > MAX_HEADER_LEN {
        return Err(ProtoError::LimitExceeded { what: "header length" });
    }
    pos = match pos.checked_add(header_len as usize) {
        Some(p) => p,
        None => return Err(ProtoError::Malformed { what: "header length overflow" }),
    };
    if buf.len() < pos {
        return Ok(None);
    }
    let payload_len = match varint::read_partial(&buf[pos..]) {
        Ok(varint::Partial::Ready(v, n)) => {
            pos += n;
            v
        }
        Ok(varint::Partial::NeedMore) => return Ok(None),
        Err(_) => return Err(ProtoError::Malformed { what: "payload length varint" }),
    };
    if payload_len as usize > MAX_PAYLOAD_LEN {
        return Err(ProtoError::LimitExceeded { what: "payload length" });
    }
    match pos.checked_add(payload_len as usize) {
        Some(end) => Ok(Some(end)),
        None => Err(ProtoError::Malformed { what: "payload length overflow" }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips_every_op() {
        let data: Vec<f32> = (0..64).map(|i| i as f32 * 0.5).collect();
        let reqs = vec![
            Request::compress(
                7,
                &data,
                &[8, 8],
                CodecId::Zfp,
                BoundSpec::Absolute(1e-4),
                PolicyKind::Adaptive,
            ),
            Request::decompress(8, b"SZL1fakebytes"),
            Request::info(9, b"ZFL1fake"),
            Request::control(0, Op::Ping),
            Request::control(11, Op::Shutdown),
        ];
        for req in reqs {
            let bytes = req.encode();
            let (back, used) = Request::decode(&bytes).expect("roundtrip");
            assert_eq!(used, bytes.len());
            assert_eq!(back, req);
            assert_eq!(frame_len(&bytes).unwrap(), Some(bytes.len()));
        }
    }

    #[test]
    fn response_roundtrips() {
        let resp = Response {
            id: 42,
            status: status::OK,
            latency_us: 1234,
            energy_uj: 99,
            message: "hi".to_string(),
            dims: vec![16, 4],
            codec: Some(CodecId::Sz),
            payload: vec![1, 2, 3],
        };
        let bytes = resp.encode();
        let (back, used) = Response::decode(&bytes).expect("roundtrip");
        assert_eq!(used, bytes.len());
        assert_eq!(back, resp);
        let err = Response::of_status(0, status::BUSY, "queue full");
        let bytes = err.encode();
        let (back, _) = Response::decode(&bytes).expect("roundtrip");
        assert_eq!(back.status, status::BUSY);
        assert!(!back.is_ok());
        assert_eq!(back.message, "queue full");
    }

    #[test]
    fn elements_guard_dims_payload_mismatch() {
        let req = Request::compress(
            1,
            &[1.0, 2.0, 3.0, 4.0],
            &[4],
            CodecId::Sz,
            BoundSpec::Absolute(1e-3),
            PolicyKind::Fixed,
        );
        assert_eq!(req.elements().unwrap(), vec![1.0, 2.0, 3.0, 4.0]);
        let mut forged = req.clone();
        forged.dims = vec![5];
        assert_eq!(
            forged.elements().unwrap_err(),
            ProtoError::BadRequest { what: "dims do not match payload length" }
        );
        // The element count may fit a `usize` while its byte length does
        // not: with an empty payload, `(1 << 62) * 4` wrapping to 0 would
        // pass as "0 elements".
        for dims in [vec![usize::MAX, usize::MAX], vec![1 << 62]] {
            let overflow = Request { dims, payload: Vec::new(), ..req.clone() };
            assert_eq!(
                overflow.elements().unwrap_err(),
                ProtoError::LimitExceeded { what: "dims product" }
            );
        }
    }

    #[test]
    fn forged_dims_fields_keep_their_statuses() {
        // Rank past the ceiling is LIMIT; a cut extent or a byte after the
        // last one is MALFORMED.
        let frame = |dims: &[u8]| {
            let mut header = Vec::new();
            push_tlv(&mut header, reqtag::OP, &[op::COMPRESS]);
            push_tlv(&mut header, reqtag::DIMS, dims);
            encode_frame(REQUEST_MAGIC, &header, &[0u8; 4])
        };
        let mut deep = vec![MAX_RANK as u8 + 1];
        deep.resize(MAX_RANK + 2, 1);
        for (dims, want) in [
            (deep, status::LIMIT),
            (vec![2, 1], status::MALFORMED),
            (vec![1, 1, 0], status::MALFORMED),
        ] {
            let err = Request::decode(&frame(&dims)).expect_err("forged DIMS must not decode");
            assert_eq!(err.status(), want, "{dims:?}: {err}");
        }
        assert_eq!(Request::decode(&frame(&[1, 1])).expect("one element").0.dims, vec![1]);
    }

    #[test]
    fn forged_frames_are_typed_errors() {
        // Bad magic.
        assert_eq!(
            Request::decode(b"NOPE\x01\x00\x00\x00").unwrap_err(),
            ProtoError::BadMagic(*b"NOPE")
        );
        // Newer major.
        assert_eq!(
            Request::decode(b"LCRQ\x02\x00\x00\x00").unwrap_err(),
            ProtoError::UnsupportedMajor { have: 2, supported: VERSION_MAJOR }
        );
        // Oversized header claim rejected before buffering.
        let mut oversized = b"LCRQ\x01\x00".to_vec();
        varint::write_u64(&mut oversized, (MAX_HEADER_LEN + 1) as u64);
        assert_eq!(
            Request::decode(&oversized).unwrap_err(),
            ProtoError::LimitExceeded { what: "header length" }
        );
        assert_eq!(
            frame_len(&oversized).unwrap_err(),
            ProtoError::LimitExceeded { what: "header length" }
        );
        // Oversized payload claim.
        let mut frame = b"LCRQ\x01\x00".to_vec();
        varint::write_u64(&mut frame, 3);
        frame.extend_from_slice(&[reqtag::OP, 1, op::PING]);
        varint::write_u64(&mut frame, (MAX_PAYLOAD_LEN + 1) as u64);
        assert_eq!(
            Request::decode(&frame).unwrap_err(),
            ProtoError::LimitExceeded { what: "payload length" }
        );
        // Missing OP.
        let mut frame = b"LCRQ\x01\x00".to_vec();
        varint::write_u64(&mut frame, 0);
        varint::write_u64(&mut frame, 0);
        assert_eq!(
            Request::decode(&frame).unwrap_err(),
            ProtoError::MissingField { tag: reqtag::OP }
        );
        // Unknown op.
        let mut frame = b"LCRQ\x01\x00".to_vec();
        varint::write_u64(&mut frame, 3);
        frame.extend_from_slice(&[reqtag::OP, 1, 200]);
        varint::write_u64(&mut frame, 0);
        assert_eq!(Request::decode(&frame).unwrap_err(), ProtoError::UnknownOp(200));
        // Duplicate field.
        let mut frame = b"LCRQ\x01\x00".to_vec();
        varint::write_u64(&mut frame, 6);
        frame.extend_from_slice(&[reqtag::OP, 1, op::PING, reqtag::OP, 1, op::PING]);
        varint::write_u64(&mut frame, 0);
        assert_eq!(
            Request::decode(&frame).unwrap_err(),
            ProtoError::DuplicateField { tag: reqtag::OP }
        );
    }

    #[test]
    fn truncation_at_every_offset_is_a_typed_error() {
        let req = Request::compress(
            3,
            &[1.0f32; 32],
            &[32],
            CodecId::Sz,
            BoundSpec::Absolute(1e-3),
            PolicyKind::Heuristic,
        );
        let bytes = req.encode();
        for cut in 0..bytes.len() {
            let err = Request::decode(&bytes[..cut]).expect_err("cut frame must not decode");
            // Any typed error is fine; a panic is not.
            let _ = err.to_string();
            // frame_len either asks for more bytes or (once both length
            // prefixes are visible) knows the full frame length.
            if let Some(n) = frame_len(&bytes[..cut]).expect("no forged lengths here") {
                assert_eq!(n, bytes.len());
            }
        }
    }

    #[test]
    fn unknown_tlv_tags_are_skipped_and_minor_versions_accepted() {
        let req = Request::control(5, Op::Ping);
        let mut bytes = req.encode();
        // Rewrite: bump the minor and splice an unknown TLV into the
        // header block.
        bytes[5] = VERSION_MINOR + 3;
        // Header currently: OP tlv (3 bytes) + REQUEST_ID tlv (3 bytes).
        // Re-encode by hand with an extra unknown field 0x7f.
        let mut frame = b"LCRQ\x01\x09".to_vec();
        let mut header = Vec::new();
        push_tlv(&mut header, reqtag::OP, &[op::PING]);
        let mut idv = Vec::new();
        varint::write_u64(&mut idv, 5);
        push_tlv(&mut header, reqtag::REQUEST_ID, &idv);
        push_tlv(&mut header, 0x7f, b"future");
        varint::write_u64(&mut frame, header.len() as u64);
        frame.extend_from_slice(&header);
        varint::write_u64(&mut frame, 0);
        let (back, _) = Request::decode(&frame).expect("unknown tag skipped");
        assert_eq!(back.op, Op::Ping);
        assert_eq!(back.id, 5);
    }

    #[test]
    fn status_names_cover_all_codes() {
        for (code, name) in status::ALL {
            assert_eq!(status::name(*code), *name);
        }
        assert_eq!(status::name(200), "?");
    }

    #[test]
    fn errors_display_without_panicking() {
        let cases = vec![
            ProtoError::Truncated { section: "payload" },
            ProtoError::BadMagic(*b"XXXX"),
            ProtoError::UnsupportedMajor { have: 9, supported: 1 },
            ProtoError::Malformed { what: "x" },
            ProtoError::LimitExceeded { what: "y" },
            ProtoError::DuplicateField { tag: 1 },
            ProtoError::MissingField { tag: 2 },
            ProtoError::UnknownOp(77),
            ProtoError::BadRequest { what: "z" },
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
            assert!(status::ALL.iter().any(|(c, _)| *c == e.status()));
        }
    }
}
