//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! Every message is one frame: a magic/version byte ([`FRAME_MAGIC`]), a
//! little-endian `u32` payload length, then the payload. The first payload
//! byte is the opcode; the rest is the fixed-layout body. Keys are
//! little-endian `u64`; values are raw bytes (the kvstore stores fixed
//! 64-byte records, but the framing itself is length-agnostic so STATS can
//! carry JSON in the same envelope).
//!
//! The magic byte makes version drift fail fast and loud: a peer speaking
//! an older protocol revision (or not this protocol at all) is rejected on
//! its first frame with a clear error, instead of having its length prefix
//! misread as garbage opcodes.
//!
//! Requests: GET `0x01`, SET `0x02`, DEL `0x03`, STATS `0x04`,
//! SHUTDOWN `0x05`, PING `0x06`. Responses: VALUE `0x80`, NOT_FOUND
//! `0x81`, OK `0x82`, STATS_JSON `0x83`, ERR `0x84`, PONG `0x85`.
//!
//! **In-band trace propagation.** A frame whose magic byte carries
//! [`FLAG_TRACE`] prepends a 16-byte [`SpanContext`] (trace id, origin
//! stamp, hop count) to its payload — the length prefix covers both. The
//! readers strip the context before handing the payload up
//! ([`FrameReader::take_span`] surfaces it), so request decoding is
//! untouched; frames without the flag are byte-identical to the
//! pre-trace protocol, which is what keeps old clients and new servers
//! (and vice versa) interoperable. This is the in-band-telemetry idea
//! from the P4 world: the trace context shares the request's own packet
//! path instead of a sidecar channel.
//!
//! **Pipelining.** A peer may send any number of request frames before
//! reading a response; the server guarantees responses come back in request
//! order on that connection, even though the requests fan out across shard
//! threads internally. [`FrameReader`] and [`FrameWriter`] are the buffered
//! endpoints of that contract: the reader drains many frames per `read`
//! syscall, the writer coalesces many frames per `write`.

use std::io::{self, Read, Write};

use p4lru_obs::span::{SpanContext, SPAN_BYTES};

/// Wire-format revision. Bump when the frame or payload layout changes.
pub const PROTOCOL_VERSION: u8 = 1;

/// First byte of every frame: a fixed marker nibble carrying the protocol
/// version in its low bits. Chosen to collide with neither request nor
/// response opcodes, so a peer that skips the magic entirely is also caught.
pub const FRAME_MAGIC: u8 = 0xB0 | PROTOCOL_VERSION;

/// Magic-byte flag: the frame's payload is prefixed by a 16-byte
/// [`SpanContext`]. The only defined flag bit; anything else in the magic
/// byte is still a version-drift error.
pub const FLAG_TRACE: u8 = 0x40;

/// Whether a magic byte is acceptable: the fixed marker, with or without
/// the trace flag.
fn magic_ok(b: u8) -> bool {
    b & !FLAG_TRACE == FRAME_MAGIC
}

/// Largest accepted payload. Frames beyond this are a protocol error, not an
/// allocation: a garbage length prefix must not make the server reserve
/// gigabytes.
pub const MAX_FRAME: usize = 1 << 20;

/// A request from client to server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Read the value of a key.
    Get {
        /// The key to read.
        key: u64,
    },
    /// Write a key's value (write-through: backing store then cache).
    Set {
        /// The key to write.
        key: u64,
        /// The value bytes; the store pads/validates to its record size.
        value: Vec<u8>,
    },
    /// Delete a key (and invalidate any cached address for it).
    Del {
        /// The key to delete.
        key: u64,
    },
    /// Fetch per-shard metrics as JSON.
    Stats,
    /// Ask the server to stop accepting connections and exit cleanly.
    Shutdown,
    /// Liveness probe: the cheapest possible round trip (no shard
    /// dispatch, no trace, answered inline like STATS). The router's
    /// health prober drives these on an interval.
    Ping,
}

/// A response from server to client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// The value of a key that was present.
    Value(Vec<u8>),
    /// The key was absent.
    NotFound,
    /// A SET/DEL/SHUTDOWN was applied.
    Ok,
    /// The STATS payload.
    StatsJson(String),
    /// The request could not be served.
    Err(String),
    /// The answer to a PING.
    Pong,
}

const OP_GET: u8 = 0x01;
const OP_SET: u8 = 0x02;
const OP_DEL: u8 = 0x03;
const OP_STATS: u8 = 0x04;
const OP_SHUTDOWN: u8 = 0x05;
const OP_PING: u8 = 0x06;

const RE_VALUE: u8 = 0x80;
const RE_NOT_FOUND: u8 = 0x81;
const RE_OK: u8 = 0x82;
const RE_STATS_JSON: u8 = 0x83;
const RE_ERR: u8 = 0x84;
const RE_PONG: u8 = 0x85;

/// A malformed frame or payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

impl From<ProtocolError> for io::Error {
    fn from(e: ProtocolError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

fn err(msg: impl Into<String>) -> ProtocolError {
    ProtocolError(msg.into())
}

fn take_u64(payload: &[u8], at: usize) -> Result<u64, ProtocolError> {
    let bytes: [u8; 8] = payload
        .get(at..at + 8)
        .ok_or_else(|| err("truncated u64 field"))?
        .try_into()
        .expect("slice of length 8");
    Ok(u64::from_le_bytes(bytes))
}

/// Encodes a GET payload into `buf` (cleared first) without building a
/// [`Request`] — the pipelined client's allocation-free path.
pub fn encode_get(key: u64, buf: &mut Vec<u8>) {
    buf.clear();
    buf.push(OP_GET);
    buf.extend_from_slice(&key.to_le_bytes());
}

/// Encodes a SET payload into `buf` (cleared first) from borrowed value
/// bytes, avoiding the owned `Vec` a [`Request::Set`] would need.
pub fn encode_set(key: u64, value: &[u8], buf: &mut Vec<u8>) {
    buf.clear();
    buf.push(OP_SET);
    buf.extend_from_slice(&key.to_le_bytes());
    buf.extend_from_slice(value);
}

/// Encodes a DEL payload into `buf` (cleared first).
pub fn encode_del(key: u64, buf: &mut Vec<u8>) {
    buf.clear();
    buf.push(OP_DEL);
    buf.extend_from_slice(&key.to_le_bytes());
}

/// Encodes a VALUE response payload into `buf` (cleared first) from
/// borrowed bytes — the server's hot GET path, which answers straight from
/// a fixed-size record without an intermediate `Vec`.
pub fn encode_value(value: &[u8], buf: &mut Vec<u8>) {
    buf.clear();
    buf.push(RE_VALUE);
    buf.extend_from_slice(value);
}

impl Request {
    /// Serializes the request payload (opcode + body, no length prefix).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Get { key } => encode_get(*key, buf),
            Request::Set { key, value } => encode_set(*key, value, buf),
            Request::Del { key } => encode_del(*key, buf),
            Request::Stats => {
                buf.clear();
                buf.push(OP_STATS);
            }
            Request::Shutdown => {
                buf.clear();
                buf.push(OP_SHUTDOWN);
            }
            Request::Ping => {
                buf.clear();
                buf.push(OP_PING);
            }
        }
    }

    /// Parses a request payload.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtocolError> {
        let (&op, body) = payload.split_first().ok_or_else(|| err("empty frame"))?;
        let req = match op {
            OP_GET => Request::Get {
                key: take_u64(body, 0)?,
            },
            OP_SET => Request::Set {
                key: take_u64(body, 0)?,
                value: body
                    .get(8..)
                    .ok_or_else(|| err("SET missing value"))?
                    .to_vec(),
            },
            OP_DEL => Request::Del {
                key: take_u64(body, 0)?,
            },
            OP_STATS => Request::Stats,
            OP_SHUTDOWN => Request::Shutdown,
            OP_PING => Request::Ping,
            other => return Err(err(format!("unknown request opcode {other:#04x}"))),
        };
        // Fixed-layout requests must not carry trailing bytes.
        let expect = match &req {
            Request::Get { .. } | Request::Del { .. } => 9,
            Request::Stats | Request::Shutdown | Request::Ping => 1,
            Request::Set { .. } => payload.len(),
        };
        if payload.len() != expect {
            return Err(err(format!(
                "request opcode {op:#04x}: expected {expect} payload bytes, got {}",
                payload.len()
            )));
        }
        Ok(req)
    }
}

impl Response {
    /// Serializes the response payload (opcode + body, no length prefix).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.clear();
        match self {
            Response::Value(v) => encode_value(v, buf),
            Response::NotFound => buf.push(RE_NOT_FOUND),
            Response::Ok => buf.push(RE_OK),
            Response::StatsJson(s) => {
                buf.push(RE_STATS_JSON);
                buf.extend_from_slice(s.as_bytes());
            }
            Response::Err(s) => {
                buf.push(RE_ERR);
                buf.extend_from_slice(s.as_bytes());
            }
            Response::Pong => buf.push(RE_PONG),
        }
    }

    /// Parses a response payload.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtocolError> {
        let (&op, body) = payload.split_first().ok_or_else(|| err("empty frame"))?;
        let utf8 = |body: &[u8], what: &str| {
            String::from_utf8(body.to_vec()).map_err(|_| err(format!("{what} is not UTF-8")))
        };
        match op {
            RE_VALUE => Ok(Response::Value(body.to_vec())),
            RE_NOT_FOUND if body.is_empty() => Ok(Response::NotFound),
            RE_OK if body.is_empty() => Ok(Response::Ok),
            RE_PONG if body.is_empty() => Ok(Response::Pong),
            RE_NOT_FOUND | RE_OK | RE_PONG => Err(err("unexpected body on bare response")),
            RE_STATS_JSON => Ok(Response::StatsJson(utf8(body, "STATS payload")?)),
            RE_ERR => Ok(Response::Err(utf8(body, "ERR payload")?)),
            other => Err(err(format!("unknown response opcode {other:#04x}"))),
        }
    }
}

/// Writes one frame: [`FRAME_MAGIC`], `u32` little-endian payload length,
/// then the payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(err(format!(
            "frame of {} bytes exceeds MAX_FRAME",
            payload.len()
        ))
        .into());
    }
    w.write_all(&[FRAME_MAGIC])?;
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Writes one trace-flagged frame: [`FRAME_MAGIC`]` | `[`FLAG_TRACE`],
/// a length covering context + payload, the 16-byte context, then the
/// payload.
pub fn write_frame_spanned(
    w: &mut impl Write,
    payload: &[u8],
    span: &SpanContext,
) -> io::Result<()> {
    if payload.len() + SPAN_BYTES > MAX_FRAME {
        return Err(err(format!(
            "frame of {} bytes exceeds MAX_FRAME",
            payload.len() + SPAN_BYTES
        ))
        .into());
    }
    w.write_all(&[FRAME_MAGIC | FLAG_TRACE])?;
    w.write_all(&((payload.len() + SPAN_BYTES) as u32).to_le_bytes())?;
    w.write_all(&span.encode())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame's payload into `buf` (cleared and resized). A
/// trace-flagged frame has its span context stripped and *discarded* —
/// use [`FrameReader`] (and [`FrameReader::take_span`]) where the context
/// matters.
///
/// Returns `Ok(false)` on clean EOF *before* the magic byte — the peer hung
/// up between requests, which is not an error. A wrong magic byte is an
/// error naming the likely cause (a peer on a different protocol version).
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<bool> {
    let mut magic = [0u8; 1];
    // A clean disconnect shows up as EOF on the magic byte.
    match r.read(&mut magic) {
        Ok(0) => return Ok(false),
        Ok(_) => {}
        Err(e) => return Err(e),
    }
    if !magic_ok(magic[0]) {
        return Err(err(format!(
            "bad frame magic {:#04x} (expected {FRAME_MAGIC:#04x}; \
             mixed protocol versions?)",
            magic[0]
        ))
        .into());
    }
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(err(format!("incoming frame of {n} bytes exceeds MAX_FRAME")).into());
    }
    buf.clear();
    buf.resize(n, 0);
    r.read_exact(buf)?;
    if magic[0] & FLAG_TRACE != 0 {
        if n < SPAN_BYTES {
            return Err(err("trace-flagged frame shorter than its span context").into());
        }
        buf.drain(..SPAN_BYTES);
    }
    Ok(true)
}

/// Bytes of a frame header: the magic byte plus the `u32` payload length.
const HEADER: usize = 5;

/// How much socket data the buffered endpoints hold before a syscall. Large
/// enough that a pipelined burst of small GET/SET frames is one `read` (or
/// one `write`), small enough to stay cache-friendly per connection.
const IO_BUF: usize = 64 * 1024;

/// A buffered frame reader: one `read` syscall pulls in as many frames as
/// the kernel has queued, and subsequent frames are parsed straight out of
/// the buffer. A blocking pipelined loop (routerd's, for one) uses
/// [`FrameReader::has_buffered_frame`] to drain every already-received
/// request before blocking.
///
/// Reads are resumable: if the underlying stream has a read timeout and
/// returns `WouldBlock`/`TimedOut` mid-frame, the partial bytes stay
/// buffered and the next call continues where it left off.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Span context stripped from the most recent trace-flagged frame
    /// ([`FrameReader::take_span`]); cleared by every plain frame.
    span: Option<SpanContext>,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a stream with a fresh (empty) buffer.
    pub fn new(inner: R) -> Self {
        Self::with_capacity(inner, IO_BUF)
    }

    /// Wraps a stream with a caller-sized buffer. The reactor front-end
    /// uses small buffers here: at 10k+ connections the default 64 KiB per
    /// side is most of the memory bill, and [`FrameReader::fill`] still
    /// grows on demand when a frame outsizes the buffer.
    pub fn with_capacity(inner: R, cap: usize) -> Self {
        Self {
            inner,
            buf: vec![0; cap.max(HEADER)],
            start: 0,
            end: 0,
            span: None,
        }
    }

    fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// The span context carried by the most recently read frame, if it
    /// was trace-flagged. Taking consumes it; a later plain frame also
    /// clears it, so a stale span can never attach to the wrong request.
    pub fn take_span(&mut self) -> Option<SpanContext> {
        self.span.take()
    }

    /// Payload length of the buffered frame header, if a full header is
    /// buffered and well-formed. `Err` variants are reported by
    /// [`FrameReader::read_frame`]; this only peeks.
    fn peek_len(&self) -> Option<usize> {
        if self.buffered() < HEADER || !magic_ok(self.buf[self.start]) {
            return None;
        }
        let len: [u8; 4] = self.buf[self.start + 1..self.start + HEADER]
            .try_into()
            .expect("four header bytes");
        Some(u32::from_le_bytes(len) as usize)
    }

    /// Whether a complete frame (or a malformed header, which
    /// [`FrameReader::read_frame`] will turn into an immediate error) is
    /// already buffered, so the next `read_frame` will not touch the socket.
    pub fn has_buffered_frame(&self) -> bool {
        if self.buffered() >= 1 && !magic_ok(self.buf[self.start]) {
            return true; // bad magic: read_frame errors without blocking
        }
        match self.peek_len() {
            Some(len) => len > MAX_FRAME || self.buffered() >= HEADER + len,
            None => false,
        }
    }

    /// Pulls more bytes from the stream into the buffer (compacting first,
    /// and growing it if `need` bytes must fit). `Ok(false)` means EOF.
    fn fill(&mut self, need: usize) -> io::Result<bool> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() < need {
            self.buf.resize(need, 0);
        }
        let n = self.inner.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n > 0)
    }

    /// Reads one frame's payload into `buf` (cleared and resized), from the
    /// internal buffer when possible, from the stream otherwise.
    ///
    /// Returns `Ok(false)` on clean EOF *before* a frame starts (peer hung
    /// up between requests). EOF mid-frame is an `UnexpectedEof` error, and
    /// a wrong magic byte is an `InvalidData` error, exactly like the
    /// unbuffered [`read_frame`].
    pub fn read_frame(&mut self, buf: &mut Vec<u8>) -> io::Result<bool> {
        loop {
            if self.buffered() >= 1 && !magic_ok(self.buf[self.start]) {
                return Err(err(format!(
                    "bad frame magic {:#04x} (expected {FRAME_MAGIC:#04x}; \
                     mixed protocol versions?)",
                    self.buf[self.start]
                ))
                .into());
            }
            if let Some(len) = self.peek_len() {
                if len > MAX_FRAME {
                    return Err(
                        err(format!("incoming frame of {len} bytes exceeds MAX_FRAME")).into(),
                    );
                }
                if self.buffered() >= HEADER + len {
                    let mut at = self.start + HEADER;
                    let mut body = len;
                    self.span = None;
                    if self.buf[self.start] & FLAG_TRACE != 0 {
                        if len < SPAN_BYTES {
                            return Err(
                                err("trace-flagged frame shorter than its span context").into()
                            );
                        }
                        self.span = SpanContext::decode(&self.buf[at..at + SPAN_BYTES]);
                        at += SPAN_BYTES;
                        body -= SPAN_BYTES;
                    }
                    buf.clear();
                    buf.extend_from_slice(&self.buf[at..at + body]);
                    self.start += HEADER + len;
                    if self.start == self.end {
                        self.start = 0;
                        self.end = 0;
                    }
                    return Ok(true);
                }
                // Header is sane but the payload is partial: make sure the
                // whole frame can fit, then read more.
                if !self.fill(HEADER + len)? {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "stream ended mid-frame",
                    ));
                }
                continue;
            }
            let was_empty = self.buffered() == 0;
            if !self.fill(HEADER)? {
                return if was_empty {
                    Ok(false) // clean disconnect between frames
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "stream ended mid-frame",
                    ))
                };
            }
        }
    }
}

/// A buffered frame writer: frames accumulate in memory and go to the
/// stream in one `write` syscall per [`FrameWriter::flush`] (or when the
/// buffer passes its flush threshold). A blocking caller flushes before
/// every potential block, so a peer is never left waiting on a buffered
/// reply.
///
/// Writes are resumable: on a nonblocking stream,
/// [`FrameWriter::flush_nonblocking`] can stop at any byte boundary with
/// `WouldBlock` and the next call picks up exactly where the kernel
/// stopped accepting — `pos` tracks how much of the buffer is already on
/// the wire, so a partially written frame is never restarted.
#[derive(Debug)]
pub struct FrameWriter<W> {
    inner: W,
    buf: Vec<u8>,
    /// Bytes of `buf` already written to the stream (nonzero only after a
    /// partial nonblocking flush).
    pos: usize,
    /// Queue size past which [`FrameWriter::write_frame`] tries an interim
    /// flush.
    threshold: usize,
}

impl<W: Write> FrameWriter<W> {
    /// Wraps a stream with an empty write buffer.
    pub fn new(inner: W) -> Self {
        Self::with_capacity(inner, IO_BUF)
    }

    /// Wraps a stream with a caller-sized write buffer, which is also the
    /// interim-flush threshold. The reactor front-end keeps this small:
    /// per-connection memory dominates at 10k+ connections, and the
    /// pipeline window already bounds how many replies can queue.
    pub fn with_capacity(inner: W, cap: usize) -> Self {
        let cap = cap.max(HEADER);
        Self {
            inner,
            buf: Vec::with_capacity(cap),
            pos: 0,
            threshold: cap,
        }
    }

    /// Queues one frame. Only touches the stream if the buffer is already
    /// past its threshold (a burst bigger than the buffer still coalesces
    /// into buffer-sized writes). The interim flush is the nonblocking
    /// kind: on a blocking stream it drains fully, and on a nonblocking
    /// stream a stalled peer leaves the bytes queued instead of erroring.
    pub fn write_frame(&mut self, payload: &[u8]) -> io::Result<()> {
        if payload.len() > MAX_FRAME {
            return Err(err(format!(
                "frame of {} bytes exceeds MAX_FRAME",
                payload.len()
            ))
            .into());
        }
        if self.pending() >= self.threshold {
            self.flush_nonblocking()?;
        }
        self.buf.push(FRAME_MAGIC);
        self.buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(payload);
        Ok(())
    }

    /// Queues one trace-flagged frame: same coalescing as
    /// [`FrameWriter::write_frame`], with `span`'s 16 bytes prefixed to
    /// the payload (and covered by the length).
    pub fn write_frame_spanned(&mut self, payload: &[u8], span: &SpanContext) -> io::Result<()> {
        if payload.len() + SPAN_BYTES > MAX_FRAME {
            return Err(err(format!(
                "frame of {} bytes exceeds MAX_FRAME",
                payload.len() + SPAN_BYTES
            ))
            .into());
        }
        if self.pending() >= self.threshold {
            self.flush_nonblocking()?;
        }
        self.buf.push(FRAME_MAGIC | FLAG_TRACE);
        self.buf
            .extend_from_slice(&((payload.len() + SPAN_BYTES) as u32).to_le_bytes());
        self.buf.extend_from_slice(&span.encode());
        self.buf.extend_from_slice(payload);
        Ok(())
    }

    /// Number of bytes queued but not yet written.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Borrows the underlying stream.
    pub fn inner(&self) -> &W {
        &self.inner
    }

    /// Mutably borrows the underlying stream (does not touch the queue).
    pub fn inner_mut(&mut self) -> &mut W {
        &mut self.inner
    }

    /// Writes every queued frame to the stream. On a nonblocking stream a
    /// stalled peer surfaces as `WouldBlock` with the unwritten remainder
    /// still queued; use [`FrameWriter::flush_nonblocking`] there instead.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.pending() > 0 {
            self.inner.write_all(&self.buf[self.pos..])?;
        }
        self.buf.clear();
        self.pos = 0;
        self.inner.flush()
    }

    /// Writes queued frames until done or the stream would block.
    ///
    /// Returns `Ok(true)` when the queue fully drained, `Ok(false)` when
    /// the kernel stopped accepting bytes mid-queue (`WouldBlock`) — call
    /// again when the socket reports writable. Progress survives across
    /// calls at any byte boundary, including inside a frame header.
    pub fn flush_nonblocking(&mut self) -> io::Result<bool> {
        while self.pos < self.buf.len() {
            match self.inner.write(&self.buf[self.pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "stream refused queued frame bytes",
                    ))
                }
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.pos = 0;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let mut buf = Vec::new();
        req.encode(&mut buf);
        assert_eq!(Request::decode(&buf).unwrap(), req);
    }

    fn roundtrip_response(res: Response) {
        let mut buf = Vec::new();
        res.encode(&mut buf);
        assert_eq!(Response::decode(&buf).unwrap(), res);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Get { key: 0 });
        roundtrip_request(Request::Get { key: u64::MAX });
        roundtrip_request(Request::Set {
            key: 7,
            value: vec![0xAB; 64],
        });
        roundtrip_request(Request::Set {
            key: 7,
            value: vec![],
        });
        roundtrip_request(Request::Del { key: 42 });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::Ping);
    }

    #[test]
    fn ping_and_pong_roundtrip_and_reject_bodies() {
        let mut buf = Vec::new();
        Request::Ping.encode(&mut buf);
        assert_eq!(buf, [OP_PING], "PING is a single opcode byte");
        assert_eq!(Request::decode(&buf).unwrap(), Request::Ping);
        assert!(Request::decode(&[OP_PING, 0]).is_err(), "PING with body");

        Response::Pong.encode(&mut buf);
        assert_eq!(buf, [RE_PONG]);
        assert_eq!(Response::decode(&buf).unwrap(), Response::Pong);
        assert!(Response::decode(&[RE_PONG, 1]).is_err(), "PONG with body");
        roundtrip_response(Response::Pong);
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Value(vec![1, 2, 3]));
        roundtrip_response(Response::Value(vec![]));
        roundtrip_response(Response::NotFound);
        roundtrip_response(Response::Ok);
        roundtrip_response(Response::StatsJson("{\"x\":1}".into()));
        roundtrip_response(Response::Err("nope".into()));
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0xFF]).is_err());
        assert!(Request::decode(&[OP_GET, 1, 2]).is_err(), "truncated key");
        assert!(
            Request::decode(&[OP_GET, 0, 0, 0, 0, 0, 0, 0, 0, 9]).is_err(),
            "trailing byte"
        );
        assert!(Request::decode(&[OP_STATS, 0]).is_err(), "STATS with body");
        assert!(Response::decode(&[RE_OK, 1]).is_err(), "OK with body");
        assert!(Response::decode(&[0x00]).is_err());
    }

    #[test]
    fn frames_roundtrip_over_a_stream() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        let mut buf = Vec::new();
        assert!(read_frame(&mut cursor, &mut buf).unwrap());
        assert_eq!(buf, b"hello");
        assert!(read_frame(&mut cursor, &mut buf).unwrap());
        assert_eq!(buf, b"");
        assert!(!read_frame(&mut cursor, &mut buf).unwrap(), "clean EOF");
    }

    #[test]
    fn wrong_magic_is_rejected_with_a_version_hint() {
        // A v0-era frame (no magic): its length prefix's first byte arrives
        // where the magic belongs.
        let mut wire = Vec::new();
        wire.extend_from_slice(&5u32.to_le_bytes());
        wire.extend_from_slice(b"hello");
        let mut cursor = std::io::Cursor::new(wire);
        let e = read_frame(&mut cursor, &mut Vec::new()).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("protocol versions"), "{e}");

        // Every frame leads with the magic, and it is version-stamped.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"x").unwrap();
        assert_eq!(wire[0], FRAME_MAGIC);
        assert_eq!(FRAME_MAGIC & 0x0F, PROTOCOL_VERSION);
    }

    #[test]
    fn oversized_frames_are_refused_without_allocating() {
        let mut wire = vec![FRAME_MAGIC];
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = std::io::Cursor::new(wire);
        let mut buf = Vec::new();
        assert!(read_frame(&mut cursor, &mut buf).is_err());
        assert!(
            buf.capacity() < MAX_FRAME,
            "must not reserve the bogus length"
        );

        let huge = vec![0u8; MAX_FRAME + 1];
        assert!(write_frame(&mut Vec::new(), &huge).is_err());
    }

    #[test]
    fn truncated_stream_is_an_error_not_eof() {
        // Length says 10 bytes; only 3 arrive.
        let mut wire = vec![FRAME_MAGIC];
        wire.extend_from_slice(&10u32.to_le_bytes());
        wire.extend_from_slice(&[1, 2, 3]);
        let mut cursor = std::io::Cursor::new(wire);
        assert!(read_frame(&mut cursor, &mut Vec::new()).is_err());
    }

    #[test]
    fn buffered_reader_drains_many_frames_per_read() {
        // A Cursor hands the whole wire over in one `read`; the FrameReader
        // must then serve every frame without touching the source again.
        let mut wire = Vec::new();
        let mut writer = FrameWriter::new(&mut wire);
        for i in 0..100u32 {
            writer.write_frame(&i.to_le_bytes()).unwrap();
        }
        writer.flush().unwrap();

        let mut reader = FrameReader::new(std::io::Cursor::new(wire));
        let mut buf = Vec::new();
        assert!(reader.read_frame(&mut buf).unwrap());
        assert_eq!(buf, 0u32.to_le_bytes());
        assert!(
            reader.has_buffered_frame(),
            "one read syscall must buffer the rest"
        );
        for i in 1..100u32 {
            assert!(reader.read_frame(&mut buf).unwrap());
            assert_eq!(buf, i.to_le_bytes());
        }
        assert!(!reader.read_frame(&mut buf).unwrap(), "clean EOF");
    }

    /// A reader that hands out one byte per `read` call — the worst-case
    /// fragmentation a TCP stream can produce.
    struct OneByte(std::io::Cursor<Vec<u8>>);
    impl io::Read for OneByte {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let take = buf.len().min(1);
            self.0.read(&mut buf[..take])
        }
    }

    #[test]
    fn buffered_reader_survives_byte_at_a_time_arrival() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"split me").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut reader = FrameReader::new(OneByte(std::io::Cursor::new(wire)));
        let mut buf = Vec::new();
        assert!(reader.read_frame(&mut buf).unwrap());
        assert_eq!(buf, b"split me");
        assert!(reader.read_frame(&mut buf).unwrap());
        assert_eq!(buf, b"");
        assert!(!reader.read_frame(&mut buf).unwrap(), "clean EOF");
    }

    #[test]
    fn buffered_reader_handles_frames_larger_than_its_buffer() {
        // A max-size frame dwarfs the 64 KiB read buffer; the reader grows
        // to fit it and shrinks back to normal operation afterwards.
        let big = vec![0xC3u8; MAX_FRAME];
        let mut wire = Vec::new();
        write_frame(&mut wire, &big).unwrap();
        write_frame(&mut wire, b"after").unwrap();
        let mut reader = FrameReader::new(std::io::Cursor::new(wire));
        let mut buf = Vec::new();
        assert!(reader.read_frame(&mut buf).unwrap());
        assert_eq!(buf, big);
        assert!(reader.read_frame(&mut buf).unwrap());
        assert_eq!(buf, b"after");
        assert!(!reader.read_frame(&mut buf).unwrap());
    }

    #[test]
    fn buffered_reader_rejects_bad_magic_and_bogus_lengths() {
        let mut reader = FrameReader::new(std::io::Cursor::new(vec![0u8; 16]));
        assert!(
            reader.has_buffered_frame() || reader.buffered() == 0,
            "before any read nothing is buffered"
        );
        let e = reader.read_frame(&mut Vec::new()).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);

        let mut wire = vec![FRAME_MAGIC];
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut reader = FrameReader::new(std::io::Cursor::new(wire));
        let mut buf = Vec::new();
        assert!(reader.read_frame(&mut buf).is_err());
        assert!(buf.capacity() < MAX_FRAME);
    }

    #[test]
    fn buffered_reader_reports_mid_frame_eof() {
        let mut wire = vec![FRAME_MAGIC];
        wire.extend_from_slice(&10u32.to_le_bytes());
        wire.extend_from_slice(&[1, 2, 3]);
        let mut reader = FrameReader::new(std::io::Cursor::new(wire));
        let e = reader.read_frame(&mut Vec::new()).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn buffered_writer_coalesces_frames_until_flush() {
        let mut wire = Vec::new();
        {
            let mut writer = FrameWriter::new(&mut wire);
            writer.write_frame(b"one").unwrap();
            writer.write_frame(b"two").unwrap();
            assert!(writer.pending() > 0, "small frames stay buffered");
            assert_eq!(writer.inner().len(), 0, "nothing on the wire yet");
            writer.flush().unwrap();
            assert_eq!(writer.pending(), 0);
        }
        let mut cursor = std::io::Cursor::new(wire);
        let mut buf = Vec::new();
        assert!(read_frame(&mut cursor, &mut buf).unwrap());
        assert_eq!(buf, b"one");
        assert!(read_frame(&mut cursor, &mut buf).unwrap());
        assert_eq!(buf, b"two");
        assert!(!read_frame(&mut cursor, &mut buf).unwrap());
    }

    #[test]
    fn buffered_writer_flushes_itself_when_full() {
        let mut wire = Vec::new();
        let mut writer = FrameWriter::new(&mut wire);
        let chunk = vec![7u8; 8 * 1024];
        for _ in 0..32 {
            writer.write_frame(&chunk).unwrap();
        }
        assert!(
            !writer.inner().is_empty(),
            "exceeding the buffer must trigger an interim flush"
        );
        writer.flush().unwrap();
        let total = writer.inner().len();
        assert_eq!(total, 32 * (HEADER + chunk.len()));
        assert!(writer.write_frame(&vec![0u8; MAX_FRAME + 1]).is_err());
    }

    /// A nonblocking stream at its most hostile: every other `read`/`write`
    /// call returns `WouldBlock`, and the calls in between move exactly one
    /// byte. Every byte boundary in every frame becomes a suspension point.
    struct WouldBlockEveryByte {
        data: Vec<u8>,
        at: usize,
        ready: bool,
        wire: Vec<u8>,
    }

    impl WouldBlockEveryByte {
        fn reading(data: Vec<u8>) -> Self {
            Self {
                data,
                at: 0,
                // Starts "ready" so the first call already blocks: turn()
                // flips before reporting, putting a WouldBlock before every
                // single byte moved.
                ready: true,
                wire: Vec::new(),
            }
        }

        fn writing() -> Self {
            Self::reading(Vec::new())
        }

        fn turn(&mut self) -> bool {
            self.ready = !self.ready;
            self.ready
        }
    }

    impl io::Read for WouldBlockEveryByte {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.at == self.data.len() {
                return Ok(0); // clean EOF once the wire is exhausted
            }
            if !self.turn() {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            buf[0] = self.data[self.at];
            self.at += 1;
            Ok(1)
        }
    }

    impl io::Write for WouldBlockEveryByte {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if buf.is_empty() {
                return Ok(0);
            }
            if !self.turn() {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            self.wire.push(buf[0]);
            Ok(1)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn reader_resumes_across_wouldblock_at_every_byte_boundary() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"first").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, &[0xEE; 300]).unwrap();
        let total = wire.len();

        let mut reader = FrameReader::new(WouldBlockEveryByte::reading(wire));
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let mut buf = Vec::new();
        let mut blocks = 0u32;
        loop {
            match reader.read_frame(&mut buf) {
                Ok(true) => frames.push(buf.clone()),
                Ok(false) => break,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => blocks += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0], b"first");
        assert_eq!(frames[1], b"");
        assert_eq!(frames[2], vec![0xEE; 300]);
        assert_eq!(
            blocks as usize, total,
            "one WouldBlock before every byte, none lost or double-read"
        );
    }

    #[test]
    fn writer_resumes_across_wouldblock_at_every_byte_boundary() {
        let mut writer = FrameWriter::with_capacity(WouldBlockEveryByte::writing(), 16);
        writer.write_frame(b"first").unwrap();
        writer.write_frame(b"").unwrap();
        writer.write_frame(&[0xAB; 300]).unwrap();
        let queued = writer.pending();
        assert!(queued > 0);

        let mut blocks = 0u32;
        let mut last_pending = writer.pending();
        loop {
            match writer.flush_nonblocking().unwrap() {
                true => break,
                false => {
                    blocks += 1;
                    // Progress is never lost: pending() only shrinks, one
                    // byte per unblocked call here.
                    let now = writer.pending();
                    assert!(now <= last_pending);
                    last_pending = now;
                }
            }
        }
        assert_eq!(writer.pending(), 0);
        assert!(
            blocks >= queued as u32,
            "a WouldBlock preceded every byte ({blocks} blocks, {queued} bytes)"
        );

        // The wire holds the exact frames, uncorrupted by the suspensions.
        let wire = std::mem::take(&mut writer.inner_mut().wire);
        let mut cursor = std::io::Cursor::new(wire);
        let mut buf = Vec::new();
        assert!(read_frame(&mut cursor, &mut buf).unwrap());
        assert_eq!(buf, b"first");
        assert!(read_frame(&mut cursor, &mut buf).unwrap());
        assert_eq!(buf, b"");
        assert!(read_frame(&mut cursor, &mut buf).unwrap());
        assert_eq!(buf, vec![0xAB; 300]);
        assert!(!read_frame(&mut cursor, &mut buf).unwrap());
    }

    fn span(trace_id: u64, hop: u8) -> SpanContext {
        SpanContext {
            trace_id,
            origin_us: 123_456,
            hop,
        }
    }

    #[test]
    fn spanned_frames_carry_the_context_and_plain_frames_clear_it() {
        let mut wire = Vec::new();
        {
            let mut writer = FrameWriter::new(&mut wire);
            writer
                .write_frame_spanned(b"traced", &span(0xAA55, 2))
                .unwrap();
            writer.write_frame(b"plain").unwrap();
            writer.write_frame_spanned(b"", &span(7, 0)).unwrap();
            writer.flush().unwrap();
        }
        assert_eq!(wire[0], FRAME_MAGIC | FLAG_TRACE);
        let mut reader = FrameReader::new(std::io::Cursor::new(wire));
        let mut buf = Vec::new();

        assert!(reader.read_frame(&mut buf).unwrap());
        assert_eq!(buf, b"traced", "the context is stripped from the payload");
        assert_eq!(reader.take_span(), Some(span(0xAA55, 2)));
        assert_eq!(reader.take_span(), None, "taking consumes");

        assert!(reader.read_frame(&mut buf).unwrap());
        assert_eq!(buf, b"plain");
        assert_eq!(reader.take_span(), None, "plain frames carry no span");

        assert!(reader.read_frame(&mut buf).unwrap());
        assert_eq!(buf, b"", "a spanned frame can have an empty payload");
        assert_eq!(reader.take_span(), Some(span(7, 0)));

        // A stale span never leaks onto a later plain frame even if the
        // caller forgot to take it.
        let mut wire = Vec::new();
        {
            let mut writer = FrameWriter::new(&mut wire);
            writer.write_frame_spanned(b"a", &span(1, 0)).unwrap();
            writer.write_frame(b"b").unwrap();
            writer.flush().unwrap();
        }
        let mut reader = FrameReader::new(std::io::Cursor::new(wire));
        assert!(reader.read_frame(&mut buf).unwrap());
        assert!(reader.read_frame(&mut buf).unwrap());
        assert_eq!(reader.take_span(), None);
    }

    #[test]
    fn unbuffered_reader_strips_and_discards_the_span() {
        let mut wire = Vec::new();
        write_frame_spanned(&mut wire, b"payload", &span(9, 1)).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        let mut buf = Vec::new();
        assert!(read_frame(&mut cursor, &mut buf).unwrap());
        assert_eq!(buf, b"payload");
    }

    #[test]
    fn old_clients_and_new_servers_interoperate_both_ways() {
        // A pre-PING, pre-trace client's frames are plain; the upgraded
        // reader must parse them byte-for-byte as before.
        let mut wire = Vec::new();
        for req in [
            Request::Get { key: 3 },
            Request::Set {
                key: 4,
                value: vec![9; 64],
            },
            Request::Stats,
        ] {
            let mut payload = Vec::new();
            req.encode(&mut payload);
            write_frame(&mut wire, &payload).unwrap();
        }
        let mut reader = FrameReader::new(std::io::Cursor::new(wire));
        let mut buf = Vec::new();
        for _ in 0..3 {
            assert!(reader.read_frame(&mut buf).unwrap());
            Request::decode(&buf).expect("pre-trace frames still parse");
            assert_eq!(reader.take_span(), None);
        }

        // And the trace flag is the *only* tolerated magic deviation: any
        // other flag bit (0x08 is not part of 0xB1) still fails fast as
        // version drift.
        let mut wire = vec![FRAME_MAGIC | 0x08];
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.push(OP_PING);
        let mut reader = FrameReader::new(std::io::Cursor::new(wire));
        let e = reader.read_frame(&mut buf).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);

        // A trace-flagged frame too short to hold its context is
        // malformed, not a truncated read.
        let mut wire = vec![FRAME_MAGIC | FLAG_TRACE];
        wire.extend_from_slice(&4u32.to_le_bytes());
        wire.extend_from_slice(&[0; 4]);
        let mut reader = FrameReader::new(std::io::Cursor::new(wire));
        let e = reader.read_frame(&mut buf).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("span context"), "{e}");
    }

    #[test]
    fn spanned_writer_respects_max_frame_including_the_context() {
        let mut writer = FrameWriter::new(Vec::new());
        let almost = vec![0u8; MAX_FRAME - SPAN_BYTES];
        writer.write_frame_spanned(&almost, &span(1, 0)).unwrap();
        let too_big = vec![0u8; MAX_FRAME - SPAN_BYTES + 1];
        assert!(writer.write_frame_spanned(&too_big, &span(1, 0)).is_err());
    }

    #[test]
    fn blocking_flush_finishes_what_a_partial_nonblocking_flush_started() {
        // Drain part of the queue nonblockingly, then hand the same writer
        // to the blocking flush: the remainder must come out exactly once
        // (pos accounting), never the already-written prefix again.
        struct Half {
            wire: Vec<u8>,
            budget: usize,
        }
        impl io::Write for Half {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.budget == 0 {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                let n = buf.len().min(self.budget);
                self.budget -= n;
                self.wire.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let mut writer = FrameWriter::new(Half {
            wire: Vec::new(),
            budget: 7, // stops mid-way through the second frame's header
        });
        writer.write_frame(b"abc").unwrap();
        writer.write_frame(b"defgh").unwrap();
        assert!(!writer.flush_nonblocking().unwrap());
        assert_eq!(writer.pending(), (HEADER + 3) + (HEADER + 5) - 7);

        writer.inner_mut().budget = usize::MAX;
        writer.flush().unwrap();
        assert_eq!(writer.pending(), 0);

        let wire = std::mem::take(&mut writer.inner_mut().wire);
        let mut cursor = std::io::Cursor::new(wire);
        let mut buf = Vec::new();
        assert!(read_frame(&mut cursor, &mut buf).unwrap());
        assert_eq!(buf, b"abc");
        assert!(read_frame(&mut cursor, &mut buf).unwrap());
        assert_eq!(buf, b"defgh");
        assert!(!read_frame(&mut cursor, &mut buf).unwrap());
    }
}
