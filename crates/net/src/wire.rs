//! The length-prefixed wire protocol carried on every TCP connection.
//!
//! A connection is a stream of **frames**. Every frame has a fixed 13-byte
//! header — kind (1 B), source rank (u32 LE), tag (u32 LE), payload length
//! (u32 LE) — followed by the payload. Data connections carry [`KIND_MSG`]
//! frames (the `(src, tag, payload)` triple the matching engine consumes)
//! plus the control frames that make the runtime hang-free: [`KIND_GONE`]
//! announces a clean departure, [`KIND_ABORT`] propagates a cooperative
//! abort (the origin rank rides in the `src` field). Bootstrap connections
//! carry [`KIND_HELLO`] / [`KIND_TABLE`] (rendezvous) and [`KIND_IDENT`]
//! (mesh connection ownership).
//!
//! Because each ordered rank pair shares exactly one TCP stream and TCP is
//! FIFO, frames from a given sender arrive in send order — which is what
//! gives the backend MPI's non-overtaking guarantee per (sender, receiver,
//! tag) once the matching queue preserves arrival order.

use exacoll_comm::{Rank, Tag};
use std::io::{self, IoSlice, Read, Write};

/// A message frame: `(src, tag, payload)`, matched by the receiver.
pub const KIND_MSG: u8 = 0;
/// The sender's endpoint is going away; no further frames will follow.
pub const KIND_GONE: u8 = 1;
/// Cooperative abort; the origin rank is carried in `src`.
pub const KIND_ABORT: u8 = 2;
/// Bootstrap: a worker reports `(rank, data-listener address)` to the
/// rendezvous (address as UTF-8 payload).
pub const KIND_HELLO: u8 = 3;
/// Bootstrap: the rendezvous answers with the full rank↔address table
/// (newline-joined addresses in rank order).
pub const KIND_TABLE: u8 = 4;
/// Mesh: the connecting side of a data connection announces its rank.
pub const KIND_IDENT: u8 = 5;

/// The largest payload one frame carries. Readers refuse longer lengths so a
/// corrupted or misaligned stream fails fast with `InvalidData` instead of
/// an OOM; writers refuse them with `InvalidInput` before writing a byte.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 30;

/// Frame header size in bytes.
pub const HEADER_LEN: usize = 13;

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// One of the `KIND_*` constants.
    pub kind: u8,
    /// Source rank (or abort origin for [`KIND_ABORT`]).
    pub src: u32,
    /// Message tag (zero for control frames).
    pub tag: u32,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A data message frame.
    pub fn msg(src: Rank, tag: Tag, payload: Vec<u8>) -> Frame {
        Frame {
            kind: KIND_MSG,
            src: src as u32,
            tag,
            payload,
        }
    }

    /// A payload-free control frame.
    pub fn control(kind: u8, src: Rank) -> Frame {
        Frame {
            kind,
            src: src as u32,
            tag: 0,
            payload: Vec::new(),
        }
    }
}

/// Serialize one frame onto `w` and flush it. Header and payload go out in
/// one vectored write (one syscall on sockets), not two `write_all`s.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    write_frame_parts(w, frame.kind, frame.src, frame.tag, &[&frame.payload])
}

/// Serialize one frame whose payload is the ordered concatenation of
/// `segments`, then flush. This is the zero-copy send path: the segments
/// are borrowed straight from the caller's buffer and handed to the kernel
/// as one vectored write (`writev`) together with the header — no
/// intermediate payload `Vec` is ever built, and the wire bytes are
/// identical to [`write_frame`] on the gathered payload.
///
/// # Errors
///
/// `InvalidInput`, with nothing written, when the payload exceeds
/// [`MAX_FRAME_PAYLOAD`] — the reader would tear the connection down, and
/// past 4 GiB the header's `u32` length would wrap; otherwise any error of
/// `w`.
pub fn write_frame_parts(
    w: &mut impl Write,
    kind: u8,
    src: u32,
    tag: u32,
    segments: &[&[u8]],
) -> io::Result<()> {
    let payload_len: usize = segments.iter().map(|s| s.len()).sum();
    if payload_len > MAX_FRAME_PAYLOAD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload of {payload_len} B exceeds the {MAX_FRAME_PAYLOAD} B limit"),
        ));
    }
    let mut header = [0u8; HEADER_LEN];
    header[0] = kind;
    header[1..5].copy_from_slice(&src.to_le_bytes());
    header[5..9].copy_from_slice(&tag.to_le_bytes());
    header[9..13].copy_from_slice(&(payload_len as u32).to_le_bytes());

    // The common case is one full write; on a short write the slice list is
    // rebuilt past the written prefix (`IoSlice::advance_slices` is not
    // stable, so the skip is done by hand).
    let total = HEADER_LEN + payload_len;
    let mut written = 0usize;
    let mut bufs: Vec<IoSlice<'_>> = Vec::with_capacity(segments.len() + 1);
    while written < total {
        bufs.clear();
        let mut skip = written;
        for part in std::iter::once(&header[..]).chain(segments.iter().copied()) {
            if skip >= part.len() {
                skip -= part.len();
                continue;
            }
            bufs.push(IoSlice::new(&part[skip..]));
            skip = 0;
        }
        match w.write_vectored(&bufs)? {
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                ))
            }
            n => written += n,
        }
    }
    w.flush()
}

/// Read exactly one frame from `r`.
pub fn read_frame(r: &mut impl Read) -> io::Result<Frame> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let kind = header[0];
    let src = u32::from_le_bytes(header[1..5].try_into().expect("4-byte slice"));
    let tag = u32::from_le_bytes(header[5..9].try_into().expect("4-byte slice"));
    let len = u32::from_le_bytes(header[9..13].try_into().expect("4-byte slice")) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame payload of {len} B exceeds the {MAX_FRAME_PAYLOAD} B limit"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Frame {
        kind,
        src,
        tag,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let frames = vec![
            Frame::msg(3, 42, vec![1, 2, 3, 4, 5]),
            Frame::msg(0, 0, Vec::new()),
            Frame::control(KIND_GONE, 7),
            Frame::control(KIND_ABORT, 1),
            Frame {
                kind: KIND_HELLO,
                src: 2,
                tag: 0,
                payload: b"127.0.0.1:5000".to_vec(),
            },
        ];
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut cursor = &buf[..];
        for f in &frames {
            assert_eq!(&read_frame(&mut cursor).unwrap(), f);
        }
        assert!(cursor.is_empty());
    }

    /// Satellite regression: the vectored encoder must put byte-identical
    /// frames on the wire as the historical two-`write_all` encoding
    /// (header array, then payload), for both whole payloads and
    /// scatter-gather segment lists.
    #[test]
    fn vectored_frames_match_the_legacy_encoding() {
        let payload: Vec<u8> = (0..200u8).collect();
        let frame = Frame::msg(3, 42, payload.clone());
        // The pre-vectored encoding, reproduced literally.
        let mut legacy = Vec::new();
        legacy.push(frame.kind);
        legacy.extend_from_slice(&frame.src.to_le_bytes());
        legacy.extend_from_slice(&frame.tag.to_le_bytes());
        legacy.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        legacy.extend_from_slice(&payload);

        let mut whole = Vec::new();
        write_frame(&mut whole, &frame).unwrap();
        assert_eq!(whole, legacy);

        // Same payload as three segments (plus an empty one) — identical
        // wire bytes.
        let mut parts = Vec::new();
        write_frame_parts(
            &mut parts,
            KIND_MSG,
            3,
            42,
            &[
                &payload[..7],
                &payload[7..7],
                &payload[7..150],
                &payload[150..],
            ],
        )
        .unwrap();
        assert_eq!(parts, legacy);
    }

    /// A writer that accepts at most 3 bytes per call exercises the
    /// partial-write resume loop.
    #[test]
    fn partial_writes_resume_mid_segment() {
        struct Trickle(Vec<u8>);
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let n = buf.len().min(3);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let payload: Vec<u8> = (0..37u8).collect();
        let mut trickle = Trickle(Vec::new());
        write_frame_parts(
            &mut trickle,
            KIND_MSG,
            1,
            9,
            &[&payload[..20], &payload[20..]],
        )
        .unwrap();
        let mut whole = Vec::new();
        write_frame(&mut whole, &Frame::msg(1, 9, payload)).unwrap();
        assert_eq!(trickle.0, whole);
    }

    #[test]
    fn truncated_stream_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::msg(0, 1, vec![9; 100])).unwrap();
        buf.truncate(buf.len() - 10);
        let mut cursor = &buf[..];
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn oversize_frames_are_refused_before_any_byte_is_written() {
        struct Counting(usize);
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0 += buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        // 1025 views of one 1 MiB slice: just over the limit, one MiB
        // allocated.
        let mib = vec![7u8; 1 << 20];
        let segments = vec![&mib[..]; (MAX_FRAME_PAYLOAD >> 20) + 1];
        let mut w = Counting(0);
        let err = write_frame_parts(&mut w, KIND_MSG, 0, 1, &segments).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(w.0, 0, "nothing may reach the stream");
        // Exactly at the limit still goes out whole.
        let segments = vec![&mib[..]; MAX_FRAME_PAYLOAD >> 20];
        write_frame_parts(&mut w, KIND_MSG, 0, 1, &segments).unwrap();
        assert_eq!(w.0, HEADER_LEN + MAX_FRAME_PAYLOAD);
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut buf = vec![KIND_MSG];
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = &buf[..];
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
