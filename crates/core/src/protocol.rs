//! The `starsimd` wire protocol: length-prefixed, versioned frames.
//!
//! Every frame is an 11-byte header followed by a payload:
//!
//! | bytes | field | value |
//! |-------|-------|-------|
//! | 0..4  | magic | `b"SSIM"` |
//! | 4..6  | version | [`PROTOCOL_VERSION`], little-endian u16 |
//! | 6     | type  | message discriminant |
//! | 7..11 | payload length | little-endian u32, ≤ [`MAX_PAYLOAD`] |
//!
//! The boundary is **hardened against untrusted clients**: magic, version
//! and payload length are validated *before* any payload allocation, so a
//! hostile length field cannot OOM the server; every numeric field is
//! range-checked on decode; strings are length-prefixed and capped; and
//! [`SessionSpec::validate`] bounds image dimensions, star counts and
//! frame counts (on top of [`crate::SimConfig::validate`]) so a decoded
//! request cannot panic a worker either. Decode never trusts, encode
//! never truncates.

use std::io::{Read, Write};

use crate::config::SimConfig;

/// Protocol magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"SSIM";
/// Current protocol version. Frames with any other version are rejected
/// at the header, before their payload is read.
pub const PROTOCOL_VERSION: u16 = 1;
/// Hard cap on a frame payload. Checked before allocation.
pub const MAX_PAYLOAD: usize = 1 << 20;
/// Hard cap on requested image width/height, pixels. Aliases
/// [`gpusim::device::MAX_IMAGE_DIM`] — the server boundary and the
/// pre-launch validator (`gpusim::sanitize::validate_roi`) share one
/// source of truth, so the caps cannot drift apart.
pub const MAX_DIM: usize = gpusim::device::MAX_IMAGE_DIM;
/// Hard cap on a session's synthetic-sky star count.
pub const MAX_STARS: usize = 1 << 20;
/// Hard cap on frames per render request.
pub const MAX_FRAMES_PER_REQUEST: u32 = 1024;
/// Hard cap on a tenant identifier, bytes.
pub const MAX_TENANT_LEN: usize = 64;
/// Header size, bytes.
pub const HEADER_LEN: usize = 11;

/// Errors crossing the protocol boundary.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying transport failed (includes clean EOF mid-frame).
    Io(std::io::Error),
    /// The frame did not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The frame's version is not [`PROTOCOL_VERSION`].
    Version(u16),
    /// The declared payload length exceeds [`MAX_PAYLOAD`]. Raised before
    /// any allocation.
    Oversized(u32),
    /// The payload ended before (or extended past) its message's fields.
    Truncated,
    /// Unknown message discriminant.
    UnknownType(u8),
    /// A field failed validation.
    Malformed(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "transport error: {e}"),
            ProtoError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            ProtoError::Version(v) => write!(
                f,
                "unsupported protocol version {v} (this server speaks {PROTOCOL_VERSION})"
            ),
            ProtoError::Oversized(len) => {
                write!(f, "payload length {len} exceeds cap {MAX_PAYLOAD}")
            }
            ProtoError::Truncated => write!(f, "payload truncated or over-long for its type"),
            ProtoError::UnknownType(t) => write!(f, "unknown message type {t}"),
            ProtoError::Malformed(m) => write!(f, "malformed message: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Why a request was turned away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCode {
    /// Admission gate at capacity — honor `retry_after_ms` and retry.
    Saturated = 1,
    /// The server is draining for shutdown; find another replica.
    Draining = 2,
    /// The request failed validation; retrying unchanged will not help.
    BadRequest = 3,
    /// The request crashed its handler; the session is gone.
    Internal = 4,
    /// Protocol version mismatch.
    VersionUnsupported = 5,
    /// Per-connection session limit reached.
    SessionLimit = 6,
    /// The referenced session does not exist on this connection.
    UnknownSession = 7,
}

impl RejectCode {
    fn from_u8(v: u8) -> Option<RejectCode> {
        Some(match v {
            1 => RejectCode::Saturated,
            2 => RejectCode::Draining,
            3 => RejectCode::BadRequest,
            4 => RejectCode::Internal,
            5 => RejectCode::VersionUnsupported,
            6 => RejectCode::SessionLimit,
            7 => RejectCode::UnknownSession,
            _ => return None,
        })
    }

    /// Stable wire/JSON name.
    pub fn name(self) -> &'static str {
        match self {
            RejectCode::Saturated => "saturated",
            RejectCode::Draining => "draining",
            RejectCode::BadRequest => "bad-request",
            RejectCode::Internal => "internal",
            RejectCode::VersionUnsupported => "version-unsupported",
            RejectCode::SessionLimit => "session-limit",
            RejectCode::UnknownSession => "unknown-session",
        }
    }
}

/// What a client asks a session to be. The server derives the full
/// [`SimConfig`] (and the deterministic synthetic scene) from this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSpec {
    /// Image width, pixels (≤ [`MAX_DIM`]).
    pub width: u32,
    /// Image height, pixels (≤ [`MAX_DIM`]).
    pub height: u32,
    /// ROI side length, pixels.
    pub roi_side: u32,
    /// Synthetic-sky star count (≤ [`MAX_STARS`]).
    pub stars: u32,
    /// Scene seed — same spec + seed ⇒ bit-identical frames.
    pub seed: u64,
    /// Reserved; must be 0 ([`Self::validate`] rejects any other value).
    /// The byte stays so the wire layout does not change.
    pub backend: u8,
    /// Tenant identifier for cache-quota attribution (≤
    /// [`MAX_TENANT_LEN`] bytes; must be non-empty).
    pub tenant: String,
}

impl SessionSpec {
    /// Validates the spec's caps and derives the session's [`SimConfig`]
    /// (which is itself validated, ROI against image included) — the
    /// single choke point every deserialized open-session request passes
    /// through, so a bad spec is answered `bad request` before the server
    /// looks up or builds a table for it.
    pub fn validate(&self) -> Result<SimConfig, ProtoError> {
        let bad = |m: String| Err(ProtoError::Malformed(m));
        if self.width as usize > MAX_DIM || self.height as usize > MAX_DIM {
            return bad(format!(
                "image {}x{} exceeds the {MAX_DIM}px cap",
                self.width, self.height
            ));
        }
        if self.stars as usize > MAX_STARS {
            return bad(format!("{} stars exceeds the {MAX_STARS} cap", self.stars));
        }
        if self.tenant.is_empty() || self.tenant.len() > MAX_TENANT_LEN {
            return bad(format!(
                "tenant must be 1..={MAX_TENANT_LEN} bytes, got {}",
                self.tenant.len()
            ));
        }
        if self.backend != 0 {
            return bad(format!(
                "backend byte is reserved and must be 0, got {}",
                self.backend
            ));
        }
        let config = SimConfig::new(
            self.width as usize,
            self.height as usize,
            self.roi_side as usize,
        );
        // The sky the server generates for this spec spans magnitudes
        // [0, 6]; the default rated range covers it.
        config
            .validate()
            .map_err(|e| ProtoError::Malformed(e.to_string()))?;
        // The ROI must fit the image and the device's thread-block cap;
        // SimConfig::validate leaves both to the launch validator, but the
        // boundary rejects them eagerly so a worker never sees them.
        gpusim::sanitize::validate_roi(config.roi_side, config.width, config.height)
            .map_err(|e| ProtoError::Malformed(e.to_string()))?;
        Ok(config)
    }
}

/// A render request's completion report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenderDone {
    /// The session rendered.
    pub session: u64,
    /// Frames requested.
    pub requested: u32,
    /// Frames completed before the deadline/cancel (= `requested` on a
    /// full burst).
    pub completed: u32,
    /// FNV-1a digest over every frame's pixel bits, **cumulative for the
    /// session** — a deadline-split sequence of bursts ends on the same
    /// digest as one uninterrupted burst iff the frames are bit-identical.
    pub digest: u64,
    /// Modeled GPU time over the burst, microseconds.
    pub app_time_us: u64,
    /// Host wall-clock over the burst, microseconds.
    pub wall_us: u64,
    /// The server's shed level while the burst ran
    /// ([`crate::admission::ShedLevel::index`]).
    pub shed_level: u8,
    /// Whether the burst's deadline budget expired before `requested`
    /// frames completed.
    pub deadline_missed: bool,
}

/// A monitoring snapshot reply. `detail` is false when the shed ladder
/// has coarsened monitoring — headline fields stay, `body` (per-tenant
/// cache stats, metric histograms, GPU diagnostics as JSON text) is
/// empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorReply {
    /// Current shed level ([`crate::admission::ShedLevel::index`]).
    pub shed_level: u8,
    /// Admission permits outstanding.
    pub depth: u32,
    /// Admission capacity.
    pub capacity: u32,
    /// Requests admitted since start.
    pub admitted: u64,
    /// Requests rejected since start.
    pub rejected: u64,
    /// Render bursts that missed their deadline.
    pub deadline_misses: u64,
    /// Sessions currently open (across all connections).
    pub sessions: u32,
    /// Whether `body` carries the full-resolution detail.
    pub detail: bool,
    /// One-line resilience-rung summary (frames per rung + retries),
    /// e.g. `rungs configured=12 spawn=1 reference=0 direct-psf=0
    /// retries=1`. **Preserved at every shed level** — coarse monitoring
    /// drops `body`, never this.
    pub rung_summary: String,
    /// JSON text: metrics histograms, GPU diagnostics, per-tenant LUT
    /// cache stats. Empty when `detail` is false.
    pub body: String,
}

/// Aggregate SLO state carried by [`Message::AlertsReply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloState {
    /// Every objective is inside budget.
    Ok = 0,
    /// At least one objective's slow burn rate is over budget.
    Warn = 1,
    /// At least one objective's fast burn rate is over budget — page.
    Page = 2,
}

impl SloState {
    fn from_u8(v: u8) -> Option<SloState> {
        Some(match v {
            0 => SloState::Ok,
            1 => SloState::Warn,
            2 => SloState::Page,
            _ => return None,
        })
    }

    /// Stable wire/JSON name.
    pub fn name(self) -> &'static str {
        match self {
            SloState::Ok => "ok",
            SloState::Warn => "warn",
            SloState::Page => "page",
        }
    }

    /// The more severe of two states.
    pub fn max(self, other: SloState) -> SloState {
        if (other as u8) > (self as u8) {
            other
        } else {
            self
        }
    }
}

/// One protocol message. See the module docs for the frame layout.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client hello: opens version negotiation.
    Hello {
        /// The highest protocol version the client speaks.
        version: u16,
    },
    /// Server accepts: both sides speak `version`.
    HelloAck {
        /// The negotiated version.
        version: u16,
    },
    /// Open a session for the given spec.
    OpenSession(SessionSpec),
    /// A session is open and ready to render.
    SessionOpen {
        /// Server-assigned session id, scoped to this connection.
        session: u64,
        /// Whether the session's lookup table came from the shared cache.
        lut_cache_hit: bool,
    },
    /// Render `frames` frames on `session`, with an optional deadline.
    Render {
        /// The session to render on.
        session: u64,
        /// Frames to render (1..=[`MAX_FRAMES_PER_REQUEST`]).
        frames: u32,
        /// Deadline budget in milliseconds; 0 = no deadline.
        deadline_ms: u32,
    },
    /// A render request completed (fully, or up to its deadline).
    RenderDone(RenderDone),
    /// The server turned a request away.
    Reject {
        /// Why.
        code: RejectCode,
        /// Suggested back-off before retrying, milliseconds (0 = do not
        /// retry).
        retry_after_ms: u32,
        /// Human-readable detail.
        message: String,
    },
    /// Ask for a monitoring snapshot.
    Monitor,
    /// The monitoring snapshot.
    MonitorReply(MonitorReply),
    /// Begin graceful shutdown: stop admitting, finish in-flight work.
    Drain,
    /// Drain finished; `pending` is the depth still outstanding (0 on a
    /// clean drain).
    DrainAck {
        /// Admission depth at ack time.
        pending: u32,
    },
    /// Close a session and free its resources.
    CloseSession {
        /// The session to close.
        session: u64,
    },
    /// The session is closed.
    SessionClosed {
        /// The closed session.
        session: u64,
    },
    /// Ask for the time-series metrics exposition (the scrape request).
    Metrics,
    /// The scrape reply: a Prometheus-style text exposition of every
    /// counter/gauge/histogram series the observability plane retains.
    MetricsReply {
        /// Snapshots currently held in the server's time-series ring.
        snapshots: u32,
        /// The text exposition (see `obsplane::expose`).
        exposition: String,
    },
    /// Ask for the SLO engine's burn-rate alert evaluation.
    Alerts,
    /// The alert evaluation: aggregate state plus per-objective detail.
    AlertsReply {
        /// Worst state across all objectives.
        state: SloState,
        /// JSON text: one entry per objective with its window value,
        /// budget, and fast/slow burn rates.
        body: String,
    },
}

impl Message {
    fn type_code(&self) -> u8 {
        match self {
            Message::Hello { .. } => 1,
            Message::HelloAck { .. } => 2,
            Message::OpenSession(_) => 3,
            Message::SessionOpen { .. } => 4,
            Message::Render { .. } => 5,
            Message::RenderDone(_) => 6,
            Message::Reject { .. } => 7,
            Message::Monitor => 8,
            Message::MonitorReply(_) => 9,
            Message::Drain => 10,
            Message::DrainAck { .. } => 11,
            Message::CloseSession { .. } => 12,
            Message::SessionClosed { .. } => 13,
            Message::Metrics => 14,
            Message::MetricsReply { .. } => 15,
            Message::Alerts => 16,
            Message::AlertsReply { .. } => 17,
        }
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            Message::Hello { version } | Message::HelloAck { version } => {
                put_u16(out, *version);
            }
            Message::OpenSession(spec) => {
                put_u32(out, spec.width);
                put_u32(out, spec.height);
                put_u32(out, spec.roi_side);
                put_u32(out, spec.stars);
                put_u64(out, spec.seed);
                out.push(spec.backend);
                put_str(out, &spec.tenant);
            }
            Message::SessionOpen {
                session,
                lut_cache_hit,
            } => {
                put_u64(out, *session);
                out.push(u8::from(*lut_cache_hit));
            }
            Message::Render {
                session,
                frames,
                deadline_ms,
            } => {
                put_u64(out, *session);
                put_u32(out, *frames);
                put_u32(out, *deadline_ms);
            }
            Message::RenderDone(done) => {
                put_u64(out, done.session);
                put_u32(out, done.requested);
                put_u32(out, done.completed);
                put_u64(out, done.digest);
                put_u64(out, done.app_time_us);
                put_u64(out, done.wall_us);
                out.push(done.shed_level);
                out.push(u8::from(done.deadline_missed));
            }
            Message::Reject {
                code,
                retry_after_ms,
                message,
            } => {
                out.push(*code as u8);
                put_u32(out, *retry_after_ms);
                put_str(out, message);
            }
            Message::Monitor | Message::Drain | Message::Metrics | Message::Alerts => {}
            Message::MonitorReply(reply) => {
                out.push(reply.shed_level);
                put_u32(out, reply.depth);
                put_u32(out, reply.capacity);
                put_u64(out, reply.admitted);
                put_u64(out, reply.rejected);
                put_u64(out, reply.deadline_misses);
                put_u32(out, reply.sessions);
                out.push(u8::from(reply.detail));
                put_str(out, &reply.rung_summary);
                put_long_str(out, &reply.body);
            }
            Message::MetricsReply {
                snapshots,
                exposition,
            } => {
                put_u32(out, *snapshots);
                put_long_str(out, exposition);
            }
            Message::AlertsReply { state, body } => {
                out.push(*state as u8);
                put_long_str(out, body);
            }
            Message::DrainAck { pending } => put_u32(out, *pending),
            Message::CloseSession { session } | Message::SessionClosed { session } => {
                put_u64(out, *session);
            }
        }
    }

    fn decode_payload(code: u8, payload: &[u8]) -> Result<Message, ProtoError> {
        let mut r = Reader::new(payload);
        let message = match code {
            1 => Message::Hello { version: r.u16()? },
            2 => Message::HelloAck { version: r.u16()? },
            3 => Message::OpenSession(SessionSpec {
                width: r.u32()?,
                height: r.u32()?,
                roi_side: r.u32()?,
                stars: r.u32()?,
                seed: r.u64()?,
                backend: r.u8()?,
                tenant: r.str(MAX_TENANT_LEN)?,
            }),
            4 => Message::SessionOpen {
                session: r.u64()?,
                lut_cache_hit: r.bool()?,
            },
            5 => Message::Render {
                session: r.u64()?,
                frames: r.u32()?,
                deadline_ms: r.u32()?,
            },
            6 => Message::RenderDone(RenderDone {
                session: r.u64()?,
                requested: r.u32()?,
                completed: r.u32()?,
                digest: r.u64()?,
                app_time_us: r.u64()?,
                wall_us: r.u64()?,
                shed_level: r.u8()?,
                deadline_missed: r.bool()?,
            }),
            7 => Message::Reject {
                code: RejectCode::from_u8(r.u8()?)
                    .ok_or_else(|| ProtoError::Malformed("unknown reject code".into()))?,
                retry_after_ms: r.u32()?,
                message: r.str(1024)?,
            },
            8 => Message::Monitor,
            9 => Message::MonitorReply(MonitorReply {
                shed_level: r.u8()?,
                depth: r.u32()?,
                capacity: r.u32()?,
                admitted: r.u64()?,
                rejected: r.u64()?,
                deadline_misses: r.u64()?,
                sessions: r.u32()?,
                detail: r.bool()?,
                rung_summary: r.str(1024)?,
                body: r.long_str(MAX_PAYLOAD)?,
            }),
            10 => Message::Drain,
            11 => Message::DrainAck { pending: r.u32()? },
            12 => Message::CloseSession { session: r.u64()? },
            13 => Message::SessionClosed { session: r.u64()? },
            14 => Message::Metrics,
            15 => Message::MetricsReply {
                snapshots: r.u32()?,
                exposition: r.long_str(MAX_PAYLOAD)?,
            },
            16 => Message::Alerts,
            17 => Message::AlertsReply {
                state: SloState::from_u8(r.u8()?)
                    .ok_or_else(|| ProtoError::Malformed("unknown SLO state".into()))?,
                body: r.long_str(MAX_PAYLOAD)?,
            },
            other => return Err(ProtoError::UnknownType(other)),
        };
        r.finish()?;
        Ok(message)
    }
}

/// Writes one framed message to `w` (header + payload, flushed).
pub fn write_message(w: &mut impl Write, message: &Message) -> Result<(), ProtoError> {
    let mut payload = Vec::new();
    message.encode_payload(&mut payload);
    debug_assert!(payload.len() <= MAX_PAYLOAD, "encoder exceeded its own cap");
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    frame.push(message.type_code());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one framed message from `r`, validating magic, version and
/// payload length **before** allocating or reading the payload.
pub fn read_message(r: &mut impl Read) -> Result<Message, ProtoError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let magic: [u8; 4] = header[0..4].try_into().expect("4-byte slice");
    if magic != MAGIC {
        return Err(ProtoError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(header[4..6].try_into().expect("2-byte slice"));
    if version != PROTOCOL_VERSION {
        return Err(ProtoError::Version(version));
    }
    let code = header[6];
    let len = u32::from_le_bytes(header[7..11].try_into().expect("4-byte slice"));
    if len as usize > MAX_PAYLOAD {
        // The whole point: reject before the allocation a hostile length
        // field is fishing for.
        return Err(ProtoError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Message::decode_payload(code, &payload)
}

// ---- little-endian field helpers -----------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// u16 length-prefixed UTF-8 (short fields: tenant ids, messages).
fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    put_u16(out, len as u16);
    out.extend_from_slice(&bytes[..len]);
}

/// u32 length-prefixed UTF-8 (the monitoring body).
fn put_long_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked payload reader; every accessor fails on truncation
/// instead of panicking, and [`Reader::finish`] rejects trailing bytes.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).ok_or(ProtoError::Truncated)?;
        if end > self.buf.len() {
            return Err(ProtoError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, ProtoError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(ProtoError::Malformed(format!("bool byte {other}"))),
        }
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2-byte slice"),
        ))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4-byte slice"),
        ))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8-byte slice"),
        ))
    }

    fn str(&mut self, cap: usize) -> Result<String, ProtoError> {
        let len = self.u16()? as usize;
        if len > cap {
            return Err(ProtoError::Malformed(format!(
                "string length {len} exceeds cap {cap}"
            )));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ProtoError::Malformed("string is not UTF-8".into()))
    }

    fn long_str(&mut self, cap: usize) -> Result<String, ProtoError> {
        let len = self.u32()? as usize;
        if len > cap {
            return Err(ProtoError::Malformed(format!(
                "string length {len} exceeds cap {cap}"
            )));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ProtoError::Malformed("string is not UTF-8".into()))
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::Truncated)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn round_trip(message: Message) {
        let mut wire = Vec::new();
        write_message(&mut wire, &message).unwrap();
        let decoded = read_message(&mut Cursor::new(&wire)).unwrap();
        assert_eq!(message, decoded);
    }

    fn spec() -> SessionSpec {
        SessionSpec {
            width: 256,
            height: 256,
            roi_side: 10,
            stars: 4096,
            seed: 7,
            backend: 0,
            tenant: "tenant-a".into(),
        }
    }

    #[test]
    fn every_message_round_trips() {
        round_trip(Message::Hello { version: 1 });
        round_trip(Message::HelloAck { version: 1 });
        round_trip(Message::OpenSession(spec()));
        round_trip(Message::SessionOpen {
            session: 42,
            lut_cache_hit: true,
        });
        round_trip(Message::Render {
            session: 42,
            frames: 16,
            deadline_ms: 250,
        });
        round_trip(Message::RenderDone(RenderDone {
            session: 42,
            requested: 16,
            completed: 9,
            digest: 0xdead_beef_cafe_f00d,
            app_time_us: 1234,
            wall_us: 5678,
            shed_level: 2,
            deadline_missed: true,
        }));
        round_trip(Message::Reject {
            code: RejectCode::Saturated,
            retry_after_ms: 50,
            message: "come back later".into(),
        });
        round_trip(Message::Monitor);
        round_trip(Message::MonitorReply(MonitorReply {
            shed_level: 1,
            depth: 3,
            capacity: 8,
            admitted: 100,
            rejected: 7,
            deadline_misses: 2,
            sessions: 5,
            detail: true,
            rung_summary: "rungs configured=12 spawn=1 reference=0 direct-psf=0 retries=1".into(),
            body: "{\"metrics\":{}}".into(),
        }));
        round_trip(Message::Drain);
        round_trip(Message::DrainAck { pending: 0 });
        round_trip(Message::CloseSession { session: 42 });
        round_trip(Message::SessionClosed { session: 42 });
        round_trip(Message::Metrics);
        round_trip(Message::MetricsReply {
            snapshots: 12,
            exposition: "# TYPE starsim_frames_rendered counter\n\
                         starsim_frames_rendered 42\n"
                .into(),
        });
        round_trip(Message::Alerts);
        for state in [SloState::Ok, SloState::Warn, SloState::Page] {
            round_trip(Message::AlertsReply {
                state,
                body: "{\"objectives\":[]}".into(),
            });
        }
    }

    #[test]
    fn slo_state_orders_by_severity() {
        assert_eq!(SloState::Ok.max(SloState::Warn), SloState::Warn);
        assert_eq!(SloState::Page.max(SloState::Warn), SloState::Page);
        assert_eq!(SloState::Ok.name(), "ok");
        assert_eq!(SloState::Page.name(), "page");
    }

    #[test]
    fn bad_magic_is_rejected_at_the_header() {
        let mut wire = Vec::new();
        write_message(&mut wire, &Message::Monitor).unwrap();
        wire[0] = b'X';
        assert!(matches!(
            read_message(&mut Cursor::new(&wire)),
            Err(ProtoError::BadMagic(_))
        ));
    }

    #[test]
    fn wrong_version_is_rejected_before_the_payload() {
        let mut wire = Vec::new();
        write_message(&mut wire, &Message::Hello { version: 1 }).unwrap();
        wire[4] = 99; // version LE low byte
        match read_message(&mut Cursor::new(&wire)) {
            Err(ProtoError::Version(99)) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn oversized_length_is_rejected_without_reading_the_payload() {
        // A header declaring a 2 GiB payload, with no payload behind it:
        // the reader must error on the length check, not on a failed
        // allocation or a blocking read.
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC);
        wire.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        wire.push(8); // Monitor
        wire.extend_from_slice(&(2u32 << 30).to_le_bytes());
        match read_message(&mut Cursor::new(&wire)) {
            Err(ProtoError::Oversized(len)) => assert_eq!(len, 2 << 30),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn truncated_and_overlong_payloads_are_rejected() {
        let mut wire = Vec::new();
        write_message(
            &mut wire,
            &Message::Render {
                session: 1,
                frames: 2,
                deadline_ms: 3,
            },
        )
        .unwrap();
        // Truncate the payload but fix the declared length to match.
        let truncated_len = (wire.len() - HEADER_LEN - 4) as u32;
        wire.truncate(wire.len() - 4);
        wire[7..11].copy_from_slice(&truncated_len.to_le_bytes());
        assert!(matches!(
            read_message(&mut Cursor::new(&wire)),
            Err(ProtoError::Truncated)
        ));

        // Trailing garbage after a well-formed payload is also rejected.
        let mut wire = Vec::new();
        write_message(&mut wire, &Message::DrainAck { pending: 1 }).unwrap();
        wire.push(0xff);
        let fixed_len = (wire.len() - HEADER_LEN) as u32;
        wire[7..11].copy_from_slice(&fixed_len.to_le_bytes());
        assert!(matches!(
            read_message(&mut Cursor::new(&wire)),
            Err(ProtoError::Truncated)
        ));
    }

    #[test]
    fn unknown_type_and_bad_enum_bytes_are_rejected() {
        let mut wire = Vec::new();
        write_message(&mut wire, &Message::Monitor).unwrap();
        wire[6] = 200;
        assert!(matches!(
            read_message(&mut Cursor::new(&wire)),
            Err(ProtoError::UnknownType(200))
        ));

        let mut wire = Vec::new();
        write_message(
            &mut wire,
            &Message::Reject {
                code: RejectCode::Draining,
                retry_after_ms: 0,
                message: String::new(),
            },
        )
        .unwrap();
        wire[HEADER_LEN] = 99; // invalid reject code
        assert!(matches!(
            read_message(&mut Cursor::new(&wire)),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn truncated_header_reports_io() {
        let wire = [b'S', b'S'];
        assert!(matches!(
            read_message(&mut Cursor::new(&wire[..])),
            Err(ProtoError::Io(_))
        ));
    }

    #[test]
    fn session_spec_caps_are_enforced() {
        let config = spec().validate().unwrap();
        assert_eq!((config.width, config.height), (256, 256));

        let mut s = spec();
        s.width = MAX_DIM as u32 + 1;
        assert!(matches!(s.validate(), Err(ProtoError::Malformed(_))));

        let mut s = spec();
        s.stars = MAX_STARS as u32 + 1;
        assert!(s.validate().is_err());

        let mut s = spec();
        s.tenant = String::new();
        assert!(s.validate().is_err());

        let mut s = spec();
        s.tenant = "x".repeat(MAX_TENANT_LEN + 1);
        assert!(s.validate().is_err());

        // The reserved byte accepts only 0.
        for backend in [1, 9] {
            let mut s = spec();
            s.backend = backend;
            match s.validate() {
                Err(ProtoError::Malformed(m)) => assert!(m.contains("reserved"), "{m}"),
                other => panic!("backend {backend}: expected Malformed, got {other:?}"),
            }
        }

        let mut s = spec();
        s.roi_side = 0; // SimConfig::validate catches this
        assert!(s.validate().is_err());

        let mut s = spec();
        s.roi_side = 33; // device thread-block cap
        assert!(s.validate().is_err());

        let mut s = spec();
        s.width = 0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn non_utf8_tenant_is_rejected() {
        let mut wire = Vec::new();
        write_message(&mut wire, &Message::OpenSession(spec())).unwrap();
        // The tenant string is the last field; corrupt its bytes.
        let n = wire.len();
        wire[n - 3] = 0xff;
        wire[n - 2] = 0xfe;
        assert!(matches!(
            read_message(&mut Cursor::new(&wire)),
            Err(ProtoError::Malformed(_))
        ));
    }
}
