//! Push-based incremental envelope decoding.
//!
//! [`StreamDecoder`] accepts byte slices of arbitrary size (network
//! reads, file reads, single bytes) and yields each frame payload as soon
//! as its last byte arrives — decode of frame *k* can overlap arrival of
//! frame *k+1* without ever buffering the whole container. Internal
//! buffering is bounded by one partial frame (plus the most recent feed),
//! which [`StreamDecoder::peak_buffered`] exposes so pipelines can assert
//! the bound instead of eyeballing it.

use crate::envelope::{parse_header_partial, Envelope};
use crate::varint::{self, Partial};
use crate::{WireError, MAX_FRAME_LEN};

/// One completed frame, in wire order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamFrame {
    /// Zero-based frame index.
    pub index: usize,
    /// The frame's payload bytes.
    pub payload: Vec<u8>,
}

/// The envelope header, owned by the decoder once it completes.
#[derive(Debug, Clone)]
pub struct StreamHeader {
    raw: Vec<u8>,
    /// Envelope major version.
    pub major: u8,
    /// Envelope minor version.
    pub minor: u8,
    /// Inner legacy container magic.
    pub container: [u8; 4],
    /// Total frames the envelope declares.
    pub frame_count: usize,
}

impl StreamHeader {
    /// Re-parse the stored header bytes into a borrowed [`Envelope`] for
    /// access to the typed TLV fields (dims, params, ...).
    pub fn envelope(&self) -> Envelope<'_> {
        match parse_header_partial(&self.raw) {
            Ok(Partial::Ready(env, _)) => env,
            // The decoder only stores bytes that already parsed once.
            _ => unreachable!("stored header bytes no longer parse"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Header,
    Frames,
    Done,
}

/// Incremental push decoder for one LCW1 envelope.
///
/// Feed byte slices as they arrive; completed frames come back from the
/// same call. Any error is terminal — the decoder must be discarded.
#[derive(Debug)]
pub struct StreamDecoder {
    buf: Vec<u8>,
    state: State,
    header: Option<StreamHeader>,
    next_frame: usize,
    peak_buffered: usize,
}

impl Default for StreamDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamDecoder {
    /// Fresh decoder awaiting the envelope magic.
    pub fn new() -> Self {
        StreamDecoder {
            buf: Vec::new(),
            state: State::Header,
            header: None,
            next_frame: 0,
            peak_buffered: 0,
        }
    }

    /// Push `chunk` into the decoder, returning every frame it completed.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<Vec<StreamFrame>, WireError> {
        if self.state == State::Done {
            if chunk.is_empty() {
                return Ok(Vec::new());
            }
            return Err(WireError::TrailingBytes { extra: chunk.len() });
        }
        self.buf.extend_from_slice(chunk);
        self.peak_buffered = self.peak_buffered.max(self.buf.len());
        let mut out = Vec::new();
        let mut cursor = 0usize;
        loop {
            match self.state {
                State::Header => match parse_header_partial(&self.buf[cursor..])? {
                    Partial::Ready(env, used) => {
                        let frame_count = env.frame_count;
                        self.header = Some(StreamHeader {
                            raw: self.buf[cursor..cursor + used].to_vec(),
                            major: env.major,
                            minor: env.minor,
                            container: env.container,
                            frame_count,
                        });
                        cursor += used;
                        if frame_count == 0 {
                            self.state = State::Done;
                            if cursor != self.buf.len() {
                                return Err(WireError::TrailingBytes {
                                    extra: self.buf.len() - cursor,
                                });
                            }
                            break;
                        }
                        self.state = State::Frames;
                    }
                    Partial::NeedMore => break,
                },
                State::Frames => {
                    let rest = &self.buf[cursor..];
                    match varint::read_partial(rest)? {
                        Partial::Ready(len, used) => {
                            if len > MAX_FRAME_LEN {
                                return Err(WireError::LimitExceeded { what: "frame length" });
                            }
                            let len = len as usize;
                            let total = used
                                .checked_add(len)
                                .ok_or(WireError::Overflow { what: "frame extent" })?;
                            if rest.len() < total {
                                break; // partial frame: wait for more bytes
                            }
                            out.push(StreamFrame {
                                index: self.next_frame,
                                payload: rest[used..total].to_vec(),
                            });
                            self.next_frame += 1;
                            cursor += total;
                            let declared =
                                self.header.as_ref().expect("header precedes frames").frame_count;
                            if self.next_frame == declared {
                                self.state = State::Done;
                                if cursor != self.buf.len() {
                                    return Err(WireError::TrailingBytes {
                                        extra: self.buf.len() - cursor,
                                    });
                                }
                                break;
                            }
                        }
                        Partial::NeedMore => break,
                    }
                }
                State::Done => break,
            }
        }
        self.buf.drain(..cursor);
        Ok(out)
    }

    /// Declare end-of-input. Errors if the envelope is incomplete.
    pub fn finish(&self) -> Result<(), WireError> {
        match self.state {
            State::Done => Ok(()),
            State::Header => Err(WireError::Truncated { section: "envelope header" }),
            State::Frames => Err(WireError::Truncated { section: "frame payload" }),
        }
    }

    /// The parsed header, available once enough bytes arrived.
    pub fn header(&self) -> Option<&StreamHeader> {
        self.header.as_ref()
    }

    /// True once every declared frame has been yielded.
    pub fn is_done(&self) -> bool {
        self.state == State::Done
    }

    /// Bytes currently buffered (the unconsumed partial frame or header).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// High-water mark of internal buffering across all feeds. Bounded by
    /// the largest frame (payload + length prefix) plus the largest
    /// single feed.
    pub fn peak_buffered(&self) -> usize {
        self.peak_buffered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::EnvelopeBuilder;

    fn sample(frames: &[&[u8]]) -> Vec<u8> {
        EnvelopeBuilder::new(*b"SZLP").element_type(1).dims(&[4, 4]).build(frames)
    }

    #[test]
    fn byte_at_a_time_equals_whole_buffer() {
        let frames: Vec<Vec<u8>> =
            vec![vec![1u8; 37], vec![2u8; 1], Vec::new(), (0..=255).collect()];
        let refs: Vec<&[u8]> = frames.iter().map(|f| f.as_slice()).collect();
        let bytes = sample(&refs);

        let mut whole = StreamDecoder::new();
        let got_whole = whole.feed(&bytes).unwrap();
        whole.finish().unwrap();

        let mut trickle = StreamDecoder::new();
        let mut got_trickle = Vec::new();
        for b in &bytes {
            got_trickle.extend(trickle.feed(std::slice::from_ref(b)).unwrap());
        }
        trickle.finish().unwrap();

        assert_eq!(got_whole, got_trickle);
        assert_eq!(got_whole.len(), frames.len());
        for (i, f) in got_whole.iter().enumerate() {
            assert_eq!(f.index, i);
            assert_eq!(f.payload, frames[i]);
        }
        assert_eq!(trickle.header().unwrap().container, *b"SZLP");
    }

    #[test]
    fn frames_yield_as_soon_as_complete() {
        let bytes = sample(&[b"aaaa", b"bb"]);
        let env = Envelope::parse(&bytes).unwrap();
        let idx = env.index(&bytes).unwrap();
        let first_end = idx.entries[0].off + idx.entries[0].len;
        let mut dec = StreamDecoder::new();
        // Feeding exactly through frame 0's last byte yields frame 0 only.
        let got = dec.feed(&bytes[..first_end]).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, b"aaaa");
        assert!(!dec.is_done());
        let got = dec.feed(&bytes[first_end..]).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, b"bb");
        assert!(dec.is_done());
    }

    #[test]
    fn buffering_stays_bounded_by_one_frame_plus_feed() {
        let big = vec![7u8; 10_000];
        let frames: Vec<&[u8]> = vec![&big, &big, &big];
        let bytes = sample(&frames);
        const FEED: usize = 256;
        let mut dec = StreamDecoder::new();
        let mut n_frames = 0;
        for chunk in bytes.chunks(FEED) {
            n_frames += dec.feed(chunk).unwrap().len();
        }
        dec.finish().unwrap();
        assert_eq!(n_frames, 3);
        let bound = big.len() + varint::MAX_LEN + FEED;
        assert!(
            dec.peak_buffered() <= bound,
            "peak {} exceeds one frame + feed bound {}",
            dec.peak_buffered(),
            bound
        );
        assert_eq!(dec.buffered(), 0, "everything consumed at the end");
    }

    #[test]
    fn truncated_stream_reported_on_finish() {
        let bytes = sample(&[b"payload"]);
        let mut dec = StreamDecoder::new();
        dec.feed(&bytes[..bytes.len() - 1]).unwrap();
        assert!(!dec.is_done());
        assert_eq!(dec.finish().unwrap_err(), WireError::Truncated { section: "frame payload" });
        // Cut inside the header reports the header section.
        let mut dec = StreamDecoder::new();
        dec.feed(&bytes[..5]).unwrap();
        assert_eq!(
            dec.finish().unwrap_err(),
            WireError::Truncated { section: "envelope header" }
        );
    }

    #[test]
    fn trailing_bytes_rejected_in_and_after_final_feed() {
        let mut bytes = sample(&[b"p"]);
        let clean = bytes.clone();
        bytes.push(0xff);
        let mut dec = StreamDecoder::new();
        assert!(matches!(dec.feed(&bytes), Err(WireError::TrailingBytes { extra: 1 })));
        // Bytes pushed after completion are also trailing.
        let mut dec = StreamDecoder::new();
        dec.feed(&clean).unwrap();
        assert!(dec.is_done());
        assert!(matches!(dec.feed(&[0]), Err(WireError::TrailingBytes { extra: 1 })));
        assert!(dec.feed(&[]).unwrap().is_empty());
    }

    #[test]
    fn corrupt_streams_fail_typed_never_panic() {
        let bytes = sample(&[b"aaaa", b"bb"]);
        // Flip every byte of the header one at a time; decode must yield
        // a typed error or a (possibly wrong) clean decode, never panic.
        let env = Envelope::parse(&bytes).unwrap();
        for i in 0..env.frames_at {
            let mut bad = bytes.clone();
            bad[i] ^= 0xff;
            let mut dec = StreamDecoder::new();
            let mut result = Ok(());
            for chunk in bad.chunks(3) {
                if let Err(e) = dec.feed(chunk) {
                    result = Err(e);
                    break;
                }
            }
            let _ = result.and_then(|()| dec.finish());
        }
    }

    #[test]
    fn zero_frame_envelope_completes_immediately() {
        let bytes = EnvelopeBuilder::new(*b"LCS1").build(&[]);
        let mut dec = StreamDecoder::new();
        assert!(dec.feed(&bytes).unwrap().is_empty());
        assert!(dec.is_done());
        dec.finish().unwrap();
        assert_eq!(dec.header().unwrap().frame_count, 0);
    }

    #[test]
    fn header_envelope_accessor_roundtrips_fields() {
        let bytes = sample(&[b"x"]);
        let mut dec = StreamDecoder::new();
        dec.feed(&bytes).unwrap();
        let header = dec.header().unwrap();
        let env = header.envelope();
        assert_eq!(env.dims().unwrap(), Some(vec![4, 4]));
        assert_eq!(env.element_type().unwrap(), Some(1));
    }
}
