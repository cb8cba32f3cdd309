//! Transport capability: framed, unreliable, unordered message exchange.
//!
//! Semantics are deliberately datagram-shaped to match what the protocol
//! tolerates anyway (the paper's channels are lossy and unordered):
//! `send` is fire-and-forget, `recv` polls with a short timeout and
//! returns `Ok(None)` when nothing arrived. Two implementations:
//!
//! * [`UdsTransport`] — one Unix-domain datagram socket per process in a
//!   shared directory, which it receives on, and a connected socket per
//!   peer, which it sends on; this is what `rdt serve` workers use across
//!   real OS process boundaries, and what the kill-9 chaos harness tears
//!   through.
//! * [`ChannelTransport`] — an in-process mpsc mesh for tests that want
//!   real transport semantics without touching the filesystem.
//!
//! # Connected per-peer sockets
//!
//! A `sendto` by path makes the kernel resolve `dir/p<rank>.sock` one
//! component at a time on every frame. [`UdsTransport`] resolves it once
//! per peer: an unbound datagram socket is `connect`ed to the peer's path,
//! and a frame is one `send` on it. The send sockets live in a
//! direct-mapped table of 64 slots, keyed by the peer's rank among the
//! *other* processes (its rank, less one above the transport's own) mod 64:
//!
//! * a system of up to 65 processes never shares a slot;
//! * in a larger one, a send to a rank whose slot holds another peer
//!   re-`connect`s the slot — one path walk, what every send cost before;
//! * a worker holds at most 65 sockets (64 slots and the bound one), so
//!   even the largest system a frame can carry (5 457 processes) stays far
//!   from the descriptor limit.
//!
//! The failure semantics are those of a send by path. A peer that is not
//! bound (not started yet, or killed) fails the `connect` and the frame is
//! dropped; the slot is then connected to no one, and the next send to it
//! `connect`s again. A socket is connected to the peer's *socket*, not its
//! path, so a send to a peer that was killed answers `ECONNREFUSED`: the
//! transport `connect`s again and resends **once**, and a peer bound again
//! on the same path gets that very frame. A send still blocks while the
//! receiver's queue is full.

use std::io;
use std::os::unix::net::UnixDatagram;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::time::Duration;

use rdt_base::ProcessId;

/// Maximum frame size any transport must carry. Generous for piggybacked
/// dependency vectors (12 bytes per process plus a fixed header: systems
/// of up to 5 457 processes, see `WireFrame::encoded_len`).
pub const MAX_FRAME: usize = 64 * 1024;

/// A frame beyond [`MAX_FRAME`] would be cut by the receiver's buffer, fail
/// its checksum and vanish: refuse it where it is sent instead.
fn check_frame_len(frame: &[u8]) -> io::Result<()> {
    if frame.len() <= MAX_FRAME {
        return Ok(());
    }
    let what = format!(
        "frame of {} bytes exceeds MAX_FRAME ({MAX_FRAME})",
        frame.len()
    );
    Err(io::Error::new(io::ErrorKind::InvalidInput, what))
}

/// Fire-and-forget framed messaging between the `n` processes of a
/// system. Loss and reordering are allowed; duplication is not expected
/// but the protocol survives it.
pub trait Transport {
    /// Sends one frame towards `to`. Undeliverable frames (peer not yet
    /// bound, peer dead) are dropped silently — that is a lossy channel,
    /// not an error. A frame longer than [`MAX_FRAME`] is the caller's
    /// bug and an [`io::ErrorKind::InvalidInput`] error.
    fn send(&mut self, to: ProcessId, frame: &[u8]) -> io::Result<()>;

    /// Polls for one incoming frame, waiting at most the transport's
    /// configured timeout. `Ok(None)` means "nothing right now".
    fn recv(&mut self, buf: &mut [u8]) -> io::Result<Option<usize>>;
}

/// The Unix-domain socket path for process `rank` under `dir`.
pub fn socket_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("p{rank}.sock"))
}

/// Slots in [`UdsTransport`]'s table of connected send sockets.
const SLOTS: usize = 64;

/// Whether a `connect` or `send` failed because the peer is not bound
/// (not started yet, or killed): a lossy channel drops the frame and moves
/// on.
fn unbound_peer(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::NotFound | io::ErrorKind::ConnectionRefused | io::ErrorKind::WouldBlock
    )
}

/// One slot of the send table.
#[derive(Debug)]
struct Slot {
    socket: UnixDatagram,
    /// The rank `socket` is connected to; `None` after a failed `connect`,
    /// when a `send` on it would fail with `ENOTCONN` or reach the slot's
    /// previous peer.
    peer: Option<usize>,
}

/// One `UnixDatagram` per process, named `p<rank>.sock` in a shared
/// directory, that only receives; frames go out through connected per-peer
/// sockets (see the [module docs](self)). Datagram sockets preserve frame
/// boundaries, so no extra length-prefixing is needed on the wire.
#[derive(Debug)]
pub struct UdsTransport {
    dir: PathBuf,
    rank: usize,
    socket: UnixDatagram,
    /// The send table, [`SLOTS`] long; a slot's socket is made by the
    /// first send that needs it.
    slots: Vec<Option<Slot>>,
}

impl UdsTransport {
    /// Binds `dir/p<rank>.sock`, replacing any stale socket file left by
    /// a killed predecessor (the chaos harness depends on rebinding).
    pub fn bind(dir: &Path, rank: usize, timeout: Duration) -> io::Result<Self> {
        let path = socket_path(dir, rank);
        match std::fs::remove_file(&path) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let socket = UnixDatagram::bind(&path)?;
        socket.set_read_timeout(Some(timeout))?;
        Ok(Self {
            dir: dir.to_path_buf(),
            rank,
            socket,
            slots: (0..SLOTS).map(|_| None).collect(),
        })
    }

    /// The send socket for `rank`, its slot `connect`ed to
    /// `dir/p<rank>.sock` first unless already connected there and
    /// `reconnect` is false; `None` if the peer is not bound.
    fn socket_to(&mut self, rank: usize, reconnect: bool) -> io::Result<Option<&UnixDatagram>> {
        // Numbered among the other processes, so that 65 share no slot.
        let slot = &mut self.slots[(rank - usize::from(rank > self.rank)) % SLOTS];
        if reconnect || !matches!(slot, Some(s) if s.peer == Some(rank)) {
            let s = match slot {
                Some(s) => s,
                None => slot.insert(Slot {
                    socket: UnixDatagram::unbound()?,
                    peer: None,
                }),
            };
            s.peer = None;
            match s.socket.connect(socket_path(&self.dir, rank)) {
                Ok(()) => s.peer = Some(rank),
                Err(e) if unbound_peer(&e) => return Ok(None),
                Err(e) => return Err(e),
            }
        }
        Ok(slot.as_ref().map(|s| &s.socket))
    }
}

impl Transport for UdsTransport {
    fn send(&mut self, to: ProcessId, frame: &[u8]) -> io::Result<()> {
        check_frame_len(frame)?;
        let rank = to.index();
        let Some(socket) = self.socket_to(rank, false)? else {
            return Ok(());
        };
        let mut sent = socket.send(frame);
        // Killed since the `connect`, and perhaps bound again: resend once.
        if matches!(&sent, Err(e) if e.kind() == io::ErrorKind::ConnectionRefused) {
            sent = match self.socket_to(rank, true)? {
                Some(socket) => socket.send(frame),
                None => return Ok(()),
            };
        }
        match sent {
            Ok(_) => Ok(()),
            Err(e) if unbound_peer(&e) => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn recv(&mut self, buf: &mut [u8]) -> io::Result<Option<usize>> {
        match self.socket.recv(buf) {
            Ok(len) => Ok(Some(len)),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }
}

/// In-process transport mesh over bounded mpsc channels: same trait
/// semantics as the socket transport, no filesystem.
#[derive(Debug)]
pub struct ChannelTransport {
    inbox: Receiver<Vec<u8>>,
    peers: Vec<SyncSender<Vec<u8>>>,
    timeout: Duration,
    /// Frames [`send`](Transport::send) dropped on a full or disconnected
    /// inbox.
    dropped: u64,
}

impl ChannelTransport {
    /// Builds a fully-connected mesh of `n` endpoints. Endpoint `i` of
    /// the returned vector belongs to process `i`.
    pub fn mesh(n: usize, timeout: Duration) -> Vec<Self> {
        let (senders, inboxes): (Vec<_>, Vec<_>) =
            (0..n).map(|_| mpsc::sync_channel::<Vec<u8>>(1024)).unzip();
        inboxes
            .into_iter()
            .map(|inbox| Self {
                inbox,
                peers: senders.clone(),
                timeout,
                dropped: 0,
            })
            .collect()
    }

    /// The frames this endpoint's sends dropped on a full or disconnected
    /// inbox.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Transport for ChannelTransport {
    fn send(&mut self, to: ProcessId, frame: &[u8]) -> io::Result<()> {
        check_frame_len(frame)?;
        // A full or disconnected inbox is a dropped frame, per the lossy
        // contract.
        if self.peers[to.index()].try_send(frame.to_vec()).is_err() {
            self.dropped += 1;
        }
        Ok(())
    }

    fn recv(&mut self, buf: &mut [u8]) -> io::Result<Option<usize>> {
        match self.inbox.recv_timeout(self.timeout) {
            Ok(frame) => {
                let len = frame.len().min(buf.len());
                buf[..len].copy_from_slice(&frame[..len]);
                Ok(Some(len))
            }
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_mesh_routes_frames() {
        let mut mesh = ChannelTransport::mesh(3, Duration::from_millis(10));
        let frame = b"hello from 0";
        mesh[0].send(ProcessId::new(2), frame).unwrap();
        let mut buf = [0u8; 64];
        let got = mesh[2].recv(&mut buf).unwrap().expect("frame arrives");
        assert_eq!(&buf[..got], frame);
        // Nothing else pending: recv times out as None, not an error.
        assert!(mesh[2].recv(&mut buf).unwrap().is_none());
        assert_eq!(mesh[0].dropped(), 0);
        // A full inbox drops the frame, and the sender counts it; so does a
        // disconnected one.
        for _ in 0..1025 {
            mesh[1].send(ProcessId::new(0), frame).unwrap();
        }
        assert_eq!(mesh[1].dropped(), 1);
        drop(mesh.pop());
        mesh[0].send(ProcessId::new(2), frame).unwrap();
        assert_eq!(mesh[0].dropped(), 1);
    }

    #[test]
    fn uds_transport_round_trips_and_tolerates_dead_peers() {
        let dir = std::env::temp_dir().join(format!("rdt-env-uds-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut a = UdsTransport::bind(&dir, 0, Duration::from_millis(20)).unwrap();
        let mut b = UdsTransport::bind(&dir, 1, Duration::from_millis(20)).unwrap();
        a.send(ProcessId::new(1), b"ping").unwrap();
        let mut buf = [0u8; 16];
        let got = b.recv(&mut buf).unwrap().expect("frame arrives");
        assert_eq!(&buf[..got], b"ping");
        // Sending to an unbound rank is a silent drop, the first time and
        // again through the slot its failed `connect` left unconnected.
        a.send(ProcessId::new(2), b"void").unwrap();
        a.send(ProcessId::new(2), b"void").unwrap();
        // And an idle socket times out cleanly.
        assert!(a.recv(&mut buf).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_remembered_address_reaches_a_rebound_peer() {
        let dir = std::env::temp_dir().join(format!("rdt-env-readdr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let timeout = Duration::from_millis(20);
        let mut a = UdsTransport::bind(&dir, 0, timeout).unwrap();
        let mut b = UdsTransport::bind(&dir, 1, timeout).unwrap();
        let mut buf = [0u8; 16];
        a.send(ProcessId::new(1), b"one").unwrap();
        assert_eq!(b.recv(&mut buf).unwrap(), Some(3));
        // Killed: sends are dropped. Restarted on the same path: reached.
        drop(b);
        a.send(ProcessId::new(1), b"lost").unwrap();
        let mut b = UdsTransport::bind(&dir, 1, timeout).unwrap();
        a.send(ProcessId::new(1), b"again").unwrap();
        let got = b.recv(&mut buf).unwrap().expect("frame arrives");
        assert_eq!(&buf[..got], b"again");
        // Killed and restarted with nothing sent in between: the slot is
        // still connected to the dead socket, and the very next frame
        // reaches the new one (the resend after `ECONNREFUSED`).
        drop(b);
        let mut b = UdsTransport::bind(&dir, 1, timeout).unwrap();
        a.send(ProcessId::new(1), b"next").unwrap();
        let got = b.recv(&mut buf).unwrap().expect("frame arrives");
        assert_eq!(&buf[..got], b"next");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Receives one frame on `t` and checks it.
    fn expect_frame(t: &mut UdsTransport, want: &[u8]) {
        let mut buf = [0u8; 32];
        let got = t.recv(&mut buf).unwrap().expect("frame arrives");
        assert_eq!(&buf[..got], want);
    }

    #[test]
    fn survivors_keep_sending_while_a_peer_is_down() {
        let dir = std::env::temp_dir().join(format!("rdt-env-subset-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let timeout = Duration::from_millis(20);
        let bind = |rank| UdsTransport::bind(&dir, rank, timeout).unwrap();
        let p = ProcessId::new;
        let (mut t0, mut t1, mut t2) = (bind(0), bind(1), bind(2));
        // Everyone connected to everyone.
        for (from, to) in [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)] {
            let t = [&mut t0, &mut t1, &mut t2];
            t[from].send(p(to), b"hello").unwrap();
            expect_frame(t[to], b"hello");
        }
        // Rank 1 is killed; the survivors keep sending to it and to each
        // other, and no send of theirs fails.
        drop(t1);
        for round in 0..3 {
            let frame = format!("up {round}");
            t0.send(p(1), b"lost").unwrap();
            t0.send(p(2), frame.as_bytes()).unwrap();
            expect_frame(&mut t2, frame.as_bytes());
            t2.send(p(1), b"lost").unwrap();
            t2.send(p(0), frame.as_bytes()).unwrap();
            expect_frame(&mut t0, frame.as_bytes());
        }
        // Restarted: the first frame from each survivor arrives, and
        // nothing sent while it was down does.
        let mut t1 = bind(1);
        t0.send(p(1), b"from 0").unwrap();
        expect_frame(&mut t1, b"from 0");
        t2.send(p(1), b"from 2").unwrap();
        expect_frame(&mut t1, b"from 2");
        let mut buf = [0u8; 32];
        assert!(t1.recv(&mut buf).unwrap().is_none());
        t1.send(p(0), b"back").unwrap();
        expect_frame(&mut t0, b"back");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ranks_that_share_a_slot_are_all_reached() {
        let dir = std::env::temp_dir().join(format!("rdt-env-slots-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let timeout = Duration::from_millis(20);
        let peers = 2 * SLOTS + 3;
        let mut t: Vec<UdsTransport> = (0..=peers)
            .map(|rank| UdsTransport::bind(&dir, rank, timeout).unwrap())
            .collect();
        let (sender, receivers) = t.split_first_mut().unwrap();
        let mut send = |to: usize, frame: &[u8]| sender.send(ProcessId::new(to), frame).unwrap();
        // Round robin: every send after the first 64 evicts another peer.
        for round in 0..2 {
            for to in 1..=peers {
                let frame = format!("{round}:{to}");
                send(to, frame.as_bytes());
                expect_frame(&mut receivers[to - 1], frame.as_bytes());
            }
        }
        // Ping-pong between two ranks of one slot.
        for r in [1, 5, SLOTS] {
            for k in 0..4 {
                let to = if k % 2 == 0 { r } else { r + SLOTS };
                let frame = format!("{k}:{to}");
                send(to, frame.as_bytes());
                expect_frame(&mut receivers[to - 1], frame.as_bytes());
            }
        }
        // A rank never bound is a silent drop and leaves its slot free for
        // the bound rank that shares it.
        let never = 8 + 4 * SLOTS;
        send(never, b"void");
        send(8, b"after");
        expect_frame(&mut receivers[7], b"after");
        send(never, b"void");
        send(never, b"void");
        send(8, b"again");
        expect_frame(&mut receivers[7], b"again");
        let mut buf = [0u8; 32];
        assert!(receivers[7].recv(&mut buf).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_frames_are_an_error_not_a_silent_loss() {
        let frame = vec![0u8; MAX_FRAME + 1];
        let mut mesh = ChannelTransport::mesh(2, Duration::from_millis(5));
        let err = mesh[0].send(ProcessId::new(1), &frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        mesh[0]
            .send(ProcessId::new(1), &frame[..MAX_FRAME])
            .unwrap();

        let dir = std::env::temp_dir().join(format!("rdt-env-big-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut a = UdsTransport::bind(&dir, 0, Duration::from_millis(5)).unwrap();
        let err = a.send(ProcessId::new(1), &frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn uds_rebind_replaces_stale_socket() {
        let dir = std::env::temp_dir().join(format!("rdt-env-rebind-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let first = UdsTransport::bind(&dir, 0, Duration::from_millis(5)).unwrap();
        drop(first); // socket file is left behind, as after a kill -9
        let mut again = UdsTransport::bind(&dir, 0, Duration::from_millis(5)).unwrap();
        let mut buf = [0u8; 8];
        assert!(again.recv(&mut buf).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
