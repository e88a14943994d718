//! The TCP socket runtime: every rank is an OS **process** (or a thread in
//! the in-process test harness), messages are wire frames over a full mesh
//! of TCP connections.
//!
//! ## Progress engine
//!
//! Each endpoint runs one dedicated **reader thread per peer**. Readers
//! decode frames off their stream and append messages to a shared matching
//! queue (arrival order), waking any blocked `wait`/`waitall` through a
//! condvar. Sends are eager: `isend` writes the frame into the kernel
//! socket buffer and completes locally — the peer's reader always drains,
//! so writes cannot deadlock against unposted receives.
//!
//! ## Matching semantics
//!
//! Identical to [`exacoll_comm::ThreadComm`]: `(source, tag)` matching
//! against an unexpected-message queue, non-overtaking per (sender, tag)
//! (one FIFO TCP stream per ordered pair + arrival-order scan), truncation
//! errors when a message exceeds its posted receive. `waitall` completes
//! requests **out of order** — whichever receive's message is already
//! queued finishes first, so a slow first request never serializes the
//! rest.
//!
//! ## Hang-free guarantee
//!
//! The same three mechanisms as the threaded runtime, carried over the
//! wire: departure poison (a `GONE` frame on drop, and reader threads mark
//! a peer gone on EOF/error, so a dead **process** is observed exactly like
//! a departed thread), blocking-receive deadlines mapped to
//! [`CommError::Timeout`], and cooperative abort (`ABORT` frames fan out to
//! every peer and fail all pending operations with [`CommError::Aborted`]).

use crate::bootstrap::{
    connect_with_retry_seeded, map_io, parse_table, serve_rendezvous, SocketOptions, TAG_BOOTSTRAP,
    TAG_MESH,
};
use crate::wire::{
    read_frame, write_frame, write_frame_parts, Frame, KIND_ABORT, KIND_GONE, KIND_HELLO,
    KIND_IDENT, KIND_MSG, KIND_TABLE, MAX_FRAME_PAYLOAD,
};
use exacoll_comm::{Comm, CommError, CommResult, Rank, Req, SgView, Tag};
use std::collections::VecDeque;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a blocked receive waits between deadline checks when no frame
/// arrives (arrivals wake it immediately through the condvar).
const POLL_QUANTUM: Duration = Duration::from_millis(25);

/// State of a posted request. Indices are monotonically allocated and never
/// reused, which `TimedComm`'s back-patching relies on.
enum ReqState {
    /// Send already completed (eager protocol).
    SendDone,
    /// Receive posted, not yet matched.
    RecvPosted { from: Rank, tag: Tag, bytes: usize },
    /// Handle already consumed by `wait`/`waitall`.
    Consumed,
}

/// Shared matching state fed by the reader threads.
struct InboxState {
    /// MPI-style unexpected-message queue, in arrival order.
    unexpected: VecDeque<(Rank, Tag, Vec<u8>)>,
    /// Peers whose departure (GONE frame, EOF, or socket error) has been
    /// observed.
    gone: Vec<bool>,
    /// First abort origin observed, if any.
    abort_origin: Option<Rank>,
}

impl InboxState {
    /// Take the first queued message matching `(from, tag)`.
    fn match_take(&mut self, from: Rank, tag: Tag) -> Option<Vec<u8>> {
        let pos = self
            .unexpected
            .iter()
            .position(|(s, t, _)| *s == from && *t == tag)?;
        self.unexpected.remove(pos).map(|(_, _, data)| data)
    }
}

struct Inbox {
    state: Mutex<InboxState>,
    cv: Condvar,
}

impl Inbox {
    /// Lock the matching state. A poisoned mutex (a panicking reader) must
    /// not wedge the endpoint, so the poison is swallowed.
    fn lock(&self) -> MutexGuard<'_, InboxState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// One rank's endpoint of a TCP socket world.
pub struct SocketComm {
    rank: Rank,
    size: usize,
    /// Write halves of the mesh, `None` at `self.rank`.
    writers: Vec<Option<TcpStream>>,
    inbox: Arc<Inbox>,
    reqs: Vec<ReqState>,
    deadline: Duration,
    readers: Vec<JoinHandle<()>>,
}

impl SocketComm {
    /// Join a size-`size` world as `rank`: bind a data listener, report to
    /// the rendezvous at `opts.root`, receive the address table, and build
    /// the full mesh. Returns once every peer connection is live.
    pub fn join(rank: Rank, size: usize, opts: &SocketOptions) -> CommResult<SocketComm> {
        assert!(size > 0, "communicator must have at least one rank");
        assert!(rank < size, "rank {rank} out of range for world of {size}");
        let listener = TcpListener::bind((opts.bind_host, 0))
            .map_err(|e| map_io(rank, rank, TAG_BOOTSTRAP, &e))?;
        let my_addr = listener
            .local_addr()
            .map_err(|e| map_io(rank, rank, TAG_BOOTSTRAP, &e))?;

        // Phase 1: rendezvous. Root rank 0 of the *error taxonomy* is the
        // rendezvous host; peers that cannot reach it fail with Timeout.
        let table = rendezvous(rank, size, my_addr, opts)?;

        // Phase 2: mesh. Connect to lower ranks, accept from higher ranks.
        let mut streams: Vec<Option<TcpStream>> = (0..size).map(|_| None).collect();
        for (peer, &addr) in table.iter().enumerate().take(rank) {
            let mut s = connect_with_retry_seeded(addr, opts.connect_budget, rank as u64)
                .map_err(|e| map_io(rank, peer, TAG_MESH, &e))?;
            write_frame(&mut s, &Frame::control(KIND_IDENT, rank))
                .map_err(|e| map_io(rank, peer, TAG_MESH, &e))?;
            streams[peer] = Some(s);
        }
        accept_higher(rank, size, &listener, &mut streams, opts.deadline)?;

        // Split each stream: the clone feeds a reader thread, the original
        // stays with the endpoint for writes. Clones share the underlying
        // socket, so `shutdown` on drop unblocks the reader too.
        let inbox = Arc::new(Inbox {
            state: Mutex::new(InboxState {
                unexpected: VecDeque::new(),
                gone: vec![false; size],
                abort_origin: None,
            }),
            cv: Condvar::new(),
        });
        let mut readers = Vec::new();
        for (peer, slot) in streams.iter().enumerate() {
            if let Some(stream) = slot {
                let rd = stream
                    .try_clone()
                    .map_err(|e| map_io(rank, peer, TAG_MESH, &e))?;
                let inbox = Arc::clone(&inbox);
                readers.push(
                    std::thread::Builder::new()
                        .name(format!("exacoll-net-r{rank}p{peer}"))
                        .spawn(move || reader_loop(peer, rd, inbox))
                        .expect("spawn reader thread"),
                );
            }
        }
        Ok(SocketComm {
            rank,
            size,
            writers: streams,
            inbox,
            reqs: Vec::new(),
            deadline: opts.deadline,
            readers,
        })
    }

    /// Override the blocking-receive deadline for this endpoint.
    pub fn set_deadline(&mut self, deadline: Duration) {
        self.deadline = deadline;
    }

    /// Raise the world-wide abort flag, attributing it to `origin`: fails
    /// local pending operations and fans ABORT frames out to every peer.
    pub fn abort(&mut self, origin: Rank) {
        {
            let mut st = self.inbox.lock();
            st.abort_origin.get_or_insert(origin);
        }
        self.inbox.cv.notify_all();
        let frame = Frame {
            kind: KIND_ABORT,
            src: origin as u32,
            tag: 0,
            payload: Vec::new(),
        };
        for w in self.writers.iter_mut().flatten() {
            let _ = write_frame(w, &frame);
        }
    }

    fn check_rank(&self, r: Rank) -> CommResult<()> {
        if r >= self.size {
            return Err(CommError::InvalidRank {
                rank: r,
                size: self.size,
            });
        }
        Ok(())
    }

    fn check_abort(&self) -> CommResult<()> {
        match self.inbox.lock().abort_origin {
            Some(origin) => Err(CommError::Aborted { origin }),
            None => Ok(()),
        }
    }

    /// Consume a request handle, erroring on stale/unknown handles.
    fn take_state(&mut self, req: Req) -> CommResult<ReqState> {
        let idx = req.index();
        if idx >= self.reqs.len() {
            return Err(CommError::UnknownRequest { handle: idx });
        }
        match std::mem::replace(&mut self.reqs[idx], ReqState::Consumed) {
            ReqState::Consumed => Err(CommError::UnknownRequest { handle: idx }),
            live => Ok(live),
        }
    }
}

/// Rendezvous phase of [`SocketComm::join`].
fn rendezvous(
    rank: Rank,
    size: usize,
    my_addr: SocketAddr,
    opts: &SocketOptions,
) -> CommResult<Vec<SocketAddr>> {
    let mut boot = connect_with_retry_seeded(opts.root, opts.connect_budget, rank as u64)
        .map_err(|e| map_io(rank, 0, TAG_BOOTSTRAP, &e))?;
    write_frame(
        &mut boot,
        &Frame {
            kind: KIND_HELLO,
            src: rank as u32,
            tag: 0,
            payload: my_addr.to_string().into_bytes(),
        },
    )
    .map_err(|e| map_io(rank, 0, TAG_BOOTSTRAP, &e))?;
    boot.set_read_timeout(Some(opts.deadline))
        .map_err(|e| map_io(rank, 0, TAG_BOOTSTRAP, &e))?;
    let frame = read_frame(&mut boot).map_err(|e| map_io(rank, 0, TAG_BOOTSTRAP, &e))?;
    if frame.kind != KIND_TABLE {
        return Err(CommError::PeerGone { peer: 0 });
    }
    parse_table(&frame.payload, size).map_err(|e| map_io(rank, 0, TAG_BOOTSTRAP, &e))
}

/// Accept one IDENT-announced connection from every rank above `rank`.
fn accept_higher(
    rank: Rank,
    size: usize,
    listener: &TcpListener,
    streams: &mut [Option<TcpStream>],
    deadline: Duration,
) -> CommResult<()> {
    let expected = size - 1 - rank;
    let mut got = 0usize;
    if expected == 0 {
        return Ok(());
    }
    listener
        .set_nonblocking(true)
        .map_err(|e| map_io(rank, rank, TAG_MESH, &e))?;
    let start = Instant::now();
    while got < expected {
        if start.elapsed() >= deadline {
            return Err(CommError::Timeout {
                rank,
                from: rank,
                tag: TAG_MESH,
                bytes: 0,
            });
        }
        match listener.accept() {
            Ok((mut s, _)) => {
                let _ = s.set_nodelay(true);
                s.set_read_timeout(Some(Duration::from_secs(5)))
                    .map_err(|e| map_io(rank, rank, TAG_MESH, &e))?;
                let ident = read_frame(&mut s).map_err(|e| map_io(rank, rank, TAG_MESH, &e))?;
                let peer = ident.src as usize;
                if ident.kind != KIND_IDENT || peer <= rank || peer >= size {
                    return Err(CommError::InvalidRank { rank: peer, size });
                }
                s.set_read_timeout(None)
                    .map_err(|e| map_io(rank, peer, TAG_MESH, &e))?;
                streams[peer] = Some(s);
                got += 1;
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(map_io(rank, rank, TAG_MESH, &e)),
        }
    }
    Ok(())
}

/// One peer's progress thread: decode frames, feed the matching queue,
/// wake waiters. Exits on GONE, EOF, or socket error (all of which mark
/// the peer departed — a crashed process looks exactly like a clean exit).
fn reader_loop(peer: Rank, mut stream: TcpStream, inbox: Arc<Inbox>) {
    loop {
        match read_frame(&mut stream) {
            Ok(frame) => {
                let mut st = inbox.lock();
                match frame.kind {
                    KIND_MSG => {
                        st.unexpected
                            .push_back((frame.src as Rank, frame.tag, frame.payload));
                    }
                    KIND_ABORT => {
                        st.abort_origin.get_or_insert(frame.src as Rank);
                    }
                    // GONE — or any unrecognized kind, which means the
                    // stream is corrupt: either way the peer is done.
                    _ => {
                        st.gone[peer] = true;
                        drop(st);
                        inbox.cv.notify_all();
                        return;
                    }
                }
                drop(st);
                inbox.cv.notify_all();
            }
            Err(_) => {
                inbox.lock().gone[peer] = true;
                inbox.cv.notify_all();
                return;
            }
        }
    }
}

impl Drop for SocketComm {
    fn drop(&mut self) {
        // Departure poison: announce GONE, then shut the sockets down. The
        // GONE frame precedes FIN on the wire, so peers drain every earlier
        // message first (per-sender FIFO). Shutdown also unblocks our own
        // reader threads so the joins below cannot hang.
        //
        // An observed abort is relayed ahead of GONE: without the relay, a
        // rank two hops from the origin can see its neighbor's departure
        // before the origin's ABORT frame and misreport `PeerGone`. The
        // relay makes abort attribution flood-fill through the departure
        // cascade on the same FIFO streams.
        let abort = self.inbox.lock().abort_origin;
        for w in self.writers.iter_mut().flatten() {
            if let Some(origin) = abort {
                let _ = write_frame(w, &Frame::control(KIND_ABORT, origin));
            }
            let _ = write_frame(w, &Frame::control(KIND_GONE, self.rank));
            let _ = w.shutdown(Shutdown::Both);
        }
        for h in self.readers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Refuse a payload one frame cannot carry, before anything reaches the
/// stream: the peer is fine, so this must not read as [`CommError::PeerGone`].
fn check_frame_len(bytes: usize) -> CommResult<()> {
    if bytes > MAX_FRAME_PAYLOAD {
        return Err(CommError::MessageTooLarge {
            bytes,
            limit: MAX_FRAME_PAYLOAD,
        });
    }
    Ok(())
}

impl Comm for SocketComm {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn isend(&mut self, to: Rank, tag: Tag, data: Vec<u8>) -> CommResult<Req> {
        self.check_abort()?;
        self.check_rank(to)?;
        if to == self.rank {
            // Collectives never send to self, but keep the semantics total.
            let mut st = self.inbox.lock();
            st.unexpected.push_back((self.rank, tag, data));
            drop(st);
            self.inbox.cv.notify_all();
        } else {
            check_frame_len(data.len())?;
            if self.inbox.lock().gone[to] {
                return Err(CommError::PeerGone { peer: to });
            }
            let frame = Frame::msg(self.rank, tag, data);
            let w = self.writers[to].as_mut().expect("mesh stream for peer");
            write_frame(w, &frame).map_err(|_| CommError::PeerGone { peer: to })?;
        }
        self.reqs.push(ReqState::SendDone);
        Ok(Req::from_index(self.reqs.len() - 1))
    }

    /// Zero-copy scatter-gather send: the borrowed segments go to the
    /// kernel as one vectored write together with the frame header — no
    /// intermediate payload `Vec`. Wire bytes are identical to
    /// `isend(to, tag, view.to_vec())`, so receivers cannot tell the paths
    /// apart.
    fn send_sg(&mut self, to: Rank, tag: Tag, view: SgView<'_>) -> CommResult<Req> {
        self.check_abort()?;
        self.check_rank(to)?;
        if to == self.rank {
            // Self-sends land in the local queue; gathering is the move
            // into the mailbox, same as the owned-payload path.
            let mut st = self.inbox.lock();
            st.unexpected.push_back((self.rank, tag, view.to_vec()));
            drop(st);
            self.inbox.cv.notify_all();
        } else {
            check_frame_len(view.len())?;
            if self.inbox.lock().gone[to] {
                return Err(CommError::PeerGone { peer: to });
            }
            let segments: Vec<&[u8]> = view.segments().collect();
            let w = self.writers[to].as_mut().expect("mesh stream for peer");
            write_frame_parts(w, KIND_MSG, self.rank as u32, tag, &segments)
                .map_err(|_| CommError::PeerGone { peer: to })?;
        }
        self.reqs.push(ReqState::SendDone);
        Ok(Req::from_index(self.reqs.len() - 1))
    }

    fn irecv(&mut self, from: Rank, tag: Tag, bytes: usize) -> CommResult<Req> {
        self.check_abort()?;
        self.check_rank(from)?;
        self.reqs.push(ReqState::RecvPosted { from, tag, bytes });
        Ok(Req::from_index(self.reqs.len() - 1))
    }

    fn wait(&mut self, req: Req) -> CommResult<Option<Vec<u8>>> {
        Ok(self
            .waitall(vec![req])?
            .pop()
            .expect("waitall returns one entry per request"))
    }

    /// Out-of-order completion: matches whichever pending receive's message
    /// is queued first, so one slow sender never serializes the rest. All
    /// pending receives share one deadline window measured from entry.
    fn waitall(&mut self, reqs: Vec<Req>) -> CommResult<Vec<Option<Vec<u8>>>> {
        let mut out: Vec<Option<Vec<u8>>> = (0..reqs.len()).map(|_| None).collect();
        // (result slot, from, tag, posted) for still-unmatched receives, in
        // posting order so same-(from, tag) requests match FIFO.
        let mut pending: Vec<(usize, Rank, Tag, usize)> = Vec::new();
        for (slot, req) in reqs.into_iter().enumerate() {
            match self.take_state(req)? {
                ReqState::SendDone => {}
                ReqState::RecvPosted { from, tag, bytes } => {
                    pending.push((slot, from, tag, bytes));
                }
                ReqState::Consumed => unreachable!("take_state rejects consumed handles"),
            }
        }
        if pending.is_empty() {
            return Ok(out);
        }
        let start = Instant::now();
        let inbox = Arc::clone(&self.inbox);
        let mut st = inbox.lock();
        loop {
            if let Some(origin) = st.abort_origin {
                return Err(CommError::Aborted { origin });
            }
            let mut progressed = false;
            let mut i = 0;
            while i < pending.len() {
                let (slot, from, tag, posted) = pending[i];
                match st.match_take(from, tag) {
                    Some(data) => {
                        if data.len() > posted {
                            return Err(CommError::Truncation {
                                rank: self.rank,
                                from,
                                tag,
                                posted,
                                arrived: data.len(),
                            });
                        }
                        out[slot] = Some(data);
                        pending.remove(i);
                        progressed = true;
                    }
                    None => i += 1,
                }
            }
            if pending.is_empty() {
                return Ok(out);
            }
            if progressed {
                continue;
            }
            // No queued match for anything pending: a departed sender can
            // never satisfy its receive now (per-sender FIFO: everything it
            // sent was drained before its GONE/EOF was observed).
            for &(_, from, _, _) in &pending {
                if st.gone[from] {
                    return Err(CommError::PeerGone { peer: from });
                }
            }
            let elapsed = start.elapsed();
            if elapsed >= self.deadline {
                let (_, from, tag, bytes) = pending[0];
                return Err(CommError::Timeout {
                    rank: self.rank,
                    from,
                    tag,
                    bytes,
                });
            }
            let wait = (self.deadline - elapsed).min(POLL_QUANTUM);
            st = inbox
                .cv
                .wait_timeout(st, wait)
                .unwrap_or_else(|e| {
                    let (guard, timeout) = e.into_inner();
                    (guard, timeout)
                })
                .0;
        }
    }

    fn compute(&mut self, _bytes: usize) {
        // Real computation happens in the algorithm via `reduce_into`.
    }
}

/// Render a panic payload as a string for [`CommError::RankPanicked`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run closure `f` on every rank of a fresh size-`p` socket world — one OS
/// thread per rank in this process, full TCP mesh over loopback, rendezvous
/// hosted on an ephemeral port. The multi-process path
/// (`exacoll launch`) exercises identical code; this harness is what makes
/// the backend testable under `cargo test`.
///
/// Panics if any rank fails, reporting every failing rank.
pub fn run_socket_ranks<T, F>(p: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut SocketComm) -> CommResult<T> + Send + Sync,
{
    let results = try_run_socket_ranks(p, f);
    let mut out = Vec::with_capacity(p);
    let mut failures = Vec::new();
    for (rank, res) in results.into_iter().enumerate() {
        match res {
            Ok(v) => out.push(v),
            Err(e) => failures.push(format!("rank {rank}: {e}")),
        }
    }
    if !failures.is_empty() {
        panic!(
            "{}/{} ranks failed:\n  {}",
            failures.len(),
            p,
            failures.join("\n  ")
        );
    }
    out
}

/// Like [`run_socket_ranks`] but collects per-rank `Result`s, for
/// failure-injection tests. A panicking rank yields
/// [`CommError::RankPanicked`] (its dropped endpoint poisons peers).
pub fn try_run_socket_ranks<T, F>(p: usize, f: F) -> Vec<CommResult<T>>
where
    T: Send,
    F: Fn(&mut SocketComm) -> CommResult<T> + Send + Sync,
{
    try_run_socket_ranks_with(p, Duration::from_secs(60), f)
}

/// [`try_run_socket_ranks`] with an explicit receive deadline.
pub fn try_run_socket_ranks_with<T, F>(p: usize, deadline: Duration, f: F) -> Vec<CommResult<T>>
where
    T: Send,
    F: Fn(&mut SocketComm) -> CommResult<T> + Send + Sync,
{
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind rendezvous listener");
    let root = listener.local_addr().expect("rendezvous address");
    // The server outlives the slowest joiner by a margin so bootstrap never
    // races the deadline check.
    let server_deadline = deadline + Duration::from_secs(5);
    let server = std::thread::spawn(move || serve_rendezvous(&listener, p, server_deadline));
    let mut opts = SocketOptions::new(root);
    opts.deadline = deadline;
    let mut out: Vec<Option<CommResult<T>>> = (0..p).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..p)
            .map(|rank| {
                let f = &f;
                scope.spawn(move || {
                    let res =
                        match std::panic::catch_unwind(AssertUnwindSafe(|| -> CommResult<T> {
                            let mut c = SocketComm::join(rank, p, &opts)?;
                            f(&mut c)
                        })) {
                            Ok(r) => r,
                            Err(payload) => Err(CommError::RankPanicked {
                                rank,
                                message: panic_message(payload.as_ref()),
                            }),
                        };
                    (rank, res)
                })
            })
            .collect();
        for h in handles {
            let (rank, res) = h.join().expect("rank thread infrastructure panicked");
            out[rank] = Some(res);
        }
    });
    let _ = server.join();
    out.into_iter()
        .map(|o| o.expect("rank produced result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pingpong_over_tcp() {
        let out = run_socket_ranks(2, |c| {
            if c.rank() == 0 {
                c.send(1, 0, vec![1, 2, 3])?;
                c.recv(1, 1, 3)
            } else {
                let d = c.recv(0, 0, 3)?;
                c.send(0, 1, d.iter().map(|x| x * 2).collect())?;
                Ok(d)
            }
        });
        assert_eq!(out[0], vec![2, 4, 6]);
        assert_eq!(out[1], vec![1, 2, 3]);
    }

    #[test]
    fn same_tag_is_fifo_over_tcp() {
        let out = run_socket_ranks(2, |c| {
            if c.rank() == 0 {
                for i in 0..32u8 {
                    c.send(1, 7, vec![i; 3])?;
                }
                Ok(vec![])
            } else {
                let mut got = Vec::new();
                for _ in 0..32 {
                    got.push(c.recv(0, 7, 3)?[0]);
                }
                Ok(got)
            }
        });
        assert_eq!(out[1], (0..32).collect::<Vec<u8>>());
    }

    #[test]
    fn tag_matching_out_of_order_over_tcp() {
        let out = run_socket_ranks(2, |c| {
            if c.rank() == 0 {
                c.send(1, 5, vec![5])?;
                c.send(1, 6, vec![6])?;
                Ok(vec![])
            } else {
                let six = c.recv(0, 6, 1)?;
                let five = c.recv(0, 5, 1)?;
                Ok(vec![six[0], five[0]])
            }
        });
        assert_eq!(out[1], vec![6, 5]);
    }

    #[test]
    fn waitall_completes_out_of_order() {
        // Rank 0 posts recvs from the slow sender FIRST; messages from the
        // fast senders must still be matched while the slow one is pending.
        let p = 4;
        let out = run_socket_ranks(p, |c| match c.rank() {
            0 => {
                let reqs: Vec<Req> = (1..p)
                    .map(|r| c.irecv(r, 0, 8))
                    .collect::<CommResult<_>>()?;
                let msgs = c.waitall(reqs)?;
                Ok(msgs.into_iter().map(|m| m.unwrap()[0]).collect::<Vec<u8>>())
            }
            1 => {
                std::thread::sleep(Duration::from_millis(150));
                c.send(0, 0, vec![1u8; 8])?;
                Ok(vec![])
            }
            r => {
                c.send(0, 0, vec![r as u8; 8])?;
                Ok(vec![])
            }
        });
        assert_eq!(out[0], vec![1, 2, 3]);
    }

    #[test]
    fn truncation_detected_over_tcp() {
        let results = try_run_socket_ranks(2, |c| {
            if c.rank() == 0 {
                c.send(1, 0, vec![0u8; 16])?;
                Ok(())
            } else {
                c.recv(0, 0, 8).map(|_| ())
            }
        });
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(CommError::Truncation {
                posted: 8,
                arrived: 16,
                ..
            })
        ));
    }

    #[test]
    fn deadline_timeout_reports_pending_op() {
        let results = try_run_socket_ranks_with(2, Duration::from_millis(200), |c| {
            if c.rank() == 0 {
                // Outlive rank 1's deadline so it times out rather than
                // observing our departure.
                std::thread::sleep(Duration::from_millis(600));
                Ok(vec![])
            } else {
                c.recv(0, 9, 256)
            }
        });
        assert_eq!(
            results[1],
            Err(CommError::Timeout {
                rank: 1,
                from: 0,
                tag: 9,
                bytes: 256,
            })
        );
    }

    #[test]
    fn departed_process_unblocks_receiver() {
        let start = Instant::now();
        let results = try_run_socket_ranks(2, |c| {
            if c.rank() == 0 {
                Ok(vec![])
            } else {
                c.recv(0, 0, 8)
            }
        });
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(CommError::PeerGone { peer: 0 })));
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "PeerGone should be near-immediate, not deadline-bound"
        );
    }

    #[test]
    fn messages_before_departure_still_delivered() {
        let out = run_socket_ranks(2, |c| {
            if c.rank() == 0 {
                c.send(1, 0, vec![42])?;
                Ok(vec![])
            } else {
                std::thread::sleep(Duration::from_millis(50));
                c.recv(0, 0, 1)
            }
        });
        assert_eq!(out[1], vec![42]);
    }

    #[test]
    fn abort_unblocks_all_ranks() {
        let start = Instant::now();
        let results = try_run_socket_ranks(4, |c| {
            if c.rank() == 2 {
                c.abort(2);
                Err(CommError::Aborted { origin: 2 })
            } else {
                c.recv((c.rank() + 1) % 4, 77, 8).map(|_| ())
            }
        });
        for r in results {
            assert!(matches!(r, Err(CommError::Aborted { origin: 2 })));
        }
        assert!(start.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn panicking_rank_is_captured_and_unblocks_peers() {
        let results = try_run_socket_ranks(2, |c| {
            if c.rank() == 0 {
                panic!("injected panic");
            }
            c.recv(0, 0, 8).map(|_| ())
        });
        assert!(matches!(
            &results[0],
            Err(CommError::RankPanicked { rank: 0, message }) if message.contains("injected panic")
        ));
        assert!(matches!(results[1], Err(CommError::PeerGone { peer: 0 })));
    }

    #[test]
    fn double_wait_is_error() {
        let results = try_run_socket_ranks(2, |c| {
            if c.rank() == 0 {
                let r = c.isend(1, 0, vec![1])?;
                let idx = r.index();
                c.wait(r)?;
                c.wait(Req::from_index(idx)).map(|_| ())
            } else {
                c.recv(0, 0, 1).map(|_| ())
            }
        });
        assert!(matches!(results[0], Err(CommError::UnknownRequest { .. })));
    }

    #[test]
    fn invalid_rank_rejected() {
        let results = try_run_socket_ranks(1, |c| c.send(5, 0, vec![]));
        assert!(matches!(
            results[0],
            Err(CommError::InvalidRank { rank: 5, size: 1 })
        ));
    }

    #[test]
    fn sendrecv_exchange_and_large_world() {
        let p = 8;
        let out = run_socket_ranks(p, |c| {
            let peer = (c.rank() + 1) % p;
            let from = (c.rank() + p - 1) % p;
            c.sendrecv(peer, 0, vec![c.rank() as u8; 16], from, 0, 16)
        });
        for (r, got) in out.iter().enumerate() {
            assert_eq!(got, &vec![((r + p - 1) % p) as u8; 16]);
        }
    }

    #[test]
    fn send_sg_delivers_identical_bytes_to_isend() {
        let out = run_socket_ranks(2, |c| {
            if c.rank() == 0 {
                let buf: Vec<u8> = (0..64).collect();
                // Out-of-order segments with a gap: payload is 40..64 ++ 0..16.
                let ranges = [40..64, 0..16];
                let view = SgView::new(&buf, &ranges);
                let expect = view.to_vec();
                let r1 = c.send_sg(1, 7, view)?;
                let r2 = c.isend(1, 7, expect)?;
                c.waitall(vec![r1, r2])?;
                Ok(vec![])
            } else {
                let a = c.recv(0, 7, 40)?;
                let b = c.recv(0, 7, 40)?;
                assert_eq!(a, b, "vectored and gathered sends must match");
                Ok(a)
            }
        });
        let mut expect: Vec<u8> = (40..64).collect();
        expect.extend(0..16);
        assert_eq!(out[1], expect);
    }

    #[test]
    fn oversized_send_is_message_too_large_and_the_peer_stays_alive() {
        let out = run_socket_ranks(2, |c| {
            if c.rank() == 0 {
                // 1025 views of one 1 MiB slice: one MiB allocated, one MiB
                // over the frame limit.
                let mib = vec![7u8; 1 << 20];
                let ranges = vec![0..mib.len(); (MAX_FRAME_PAYLOAD >> 20) + 1];
                let err = c.send_sg(1, 4, SgView::new(&mib, &ranges)).unwrap_err();
                assert_eq!(
                    err,
                    CommError::MessageTooLarge {
                        bytes: MAX_FRAME_PAYLOAD + (1 << 20),
                        limit: MAX_FRAME_PAYLOAD,
                    }
                );
                c.send(1, 4, vec![1, 2, 3])?;
                Ok(vec![])
            } else {
                c.recv(0, 4, 3)
            }
        });
        assert_eq!(
            out[1],
            vec![1, 2, 3],
            "the refused send must not poison the link"
        );
    }

    #[test]
    fn send_sg_to_self_lands_in_local_queue() {
        let out = run_socket_ranks(1, |c| {
            let buf = [9u8, 8, 7, 6];
            let ranges = [2..4, 0..2];
            let r = c.send_sg(0, 1, SgView::new(&buf, &ranges))?;
            c.wait(r)?;
            c.recv(0, 1, 4)
        });
        assert_eq!(out[0], vec![7, 6, 9, 8]);
    }

    #[test]
    fn large_payload_survives_the_wire() {
        let n = 1 << 20;
        let out = run_socket_ranks(2, |c| {
            if c.rank() == 0 {
                let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
                c.send(1, 3, data)?;
                Ok(vec![])
            } else {
                c.recv(0, 3, n)
            }
        });
        assert_eq!(out[1].len(), n);
        assert!(out[1]
            .iter()
            .enumerate()
            .all(|(i, &b)| b == (i % 251) as u8));
    }
}
