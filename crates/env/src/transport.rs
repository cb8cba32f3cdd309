//! Transport capability: framed, unreliable, unordered message exchange.
//!
//! Semantics are deliberately datagram-shaped to match what the protocol
//! tolerates anyway (the paper's channels are lossy and unordered):
//! `send` is fire-and-forget, `recv` polls with a short timeout and
//! returns `Ok(None)` when nothing arrived. Two implementations:
//!
//! * [`UdsTransport`] — one Unix-domain datagram socket per process in a
//!   shared directory; this is what `rdt serve` workers use across real
//!   OS process boundaries, and what the kill-9 chaos harness tears
//!   through.
//! * [`ChannelTransport`] — an in-process mpsc mesh for tests that want
//!   real transport semantics without touching the filesystem.

use std::io;
use std::os::unix::net::{SocketAddr, UnixDatagram};
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

/// One `UnixDatagram` per process, named `p<rank>.sock` in a shared
/// directory. Datagram sockets preserve frame boundaries, so no extra
/// length-prefixing is needed on the wire.
#[derive(Debug)]
pub struct UdsTransport {
    dir: PathBuf,
    socket: UnixDatagram,
    /// `peers[rank]`: the address of `dir/p<rank>.sock`, built on the first
    /// send to that rank. An address is a path, not a binding, so it also
    /// reaches a peer that was killed and bound the same path again.
    peers: Vec<Option<SocketAddr>>,
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
            socket,
            peers: Vec::new(),
        })
    }
}

impl Transport for UdsTransport {
    fn send(&mut self, to: ProcessId, frame: &[u8]) -> io::Result<()> {
        check_frame_len(frame)?;
        let rank = to.index();
        if self.peers.len() <= rank {
            self.peers.resize(rank + 1, None);
        }
        let addr = match &mut self.peers[rank] {
            Some(addr) => addr,
            slot => slot.insert(SocketAddr::from_pathname(socket_path(&self.dir, rank))?),
        };
        match self.socket.send_to_addr(frame, addr) {
            Ok(_) => Ok(()),
            // The peer is not bound (not started yet, or killed): a lossy
            // channel drops the frame and moves on.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::NotFound
                        | io::ErrorKind::ConnectionRefused
                        | io::ErrorKind::WouldBlock
                ) =>
            {
                Ok(())
            }
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
            })
            .collect()
    }
}

impl Transport for ChannelTransport {
    fn send(&mut self, to: ProcessId, frame: &[u8]) -> io::Result<()> {
        check_frame_len(frame)?;
        // A full or disconnected inbox is a dropped frame, per the lossy
        // contract.
        let _ = self.peers[to.index()].try_send(frame.to_vec());
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
        // through the remembered address.
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
