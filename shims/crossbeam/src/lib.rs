//! Offline shim for `crossbeam` covering the surface this workspace uses:
//! `channel::{unbounded, bounded, Sender, Receiver}`.
//!
//! Channels are MPMC queues built on `Mutex<VecDeque>` + `Condvar`;
//! bounded senders block while the queue is at capacity. Adequate for the
//! sharded engine's command, reply and window-barrier channels; swap
//! `[workspace.dependencies]` to the real crates.io `crossbeam` when a
//! registry is reachable.

/// Multi-producer multi-consumer channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    struct Chan<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        /// Signalled when a bounded queue makes room.
        space: Condvar,
        /// `None` for unbounded channels.
        cap: Option<usize>,
        senders: AtomicUsize,
    }

    /// The sending half of an unbounded channel.
    pub struct Sender<T>(Arc<Chan<T>>);

    /// The receiving half of an unbounded channel.
    pub struct Receiver<T>(Arc<Chan<T>>);

    /// Error returned when every receiver is gone (never observed through
    /// this shim's API: receivers do not track their own count).
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    /// Error returned by `recv` when the channel is empty and every sender
    /// is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_cap(None)
    }

    /// Creates a bounded channel: `send` blocks while `cap` messages are
    /// queued. A capacity of 0 is rounded up to 1 (the real crossbeam's
    /// rendezvous semantics are not needed here).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_cap(Some(cap.max(1)))
    }

    fn with_cap<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            space: Condvar::new(),
            cap,
            senders: AtomicUsize::new(1),
        });
        (Sender(Arc::clone(&chan)), Receiver(chan))
    }

    impl<T> Sender<T> {
        /// Enqueues `value`; blocks while a bounded channel is full.
        ///
        /// # Errors
        ///
        /// This shim cannot observe receiver disconnection, so `send`
        /// always succeeds; the `Result` mirrors the real API.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut queue = self.0.queue.lock().expect("channel poisoned");
            if let Some(cap) = self.0.cap {
                while queue.len() >= cap {
                    queue = self.0.space.wait(queue).expect("channel poisoned");
                }
            }
            queue.push_back(value);
            drop(queue);
            self.0.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.senders.fetch_add(1, Ordering::SeqCst);
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.0.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Last sender: wake blocked receivers so they observe
                // disconnection.
                self.0.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or the channel disconnects.
        ///
        /// # Errors
        ///
        /// [`RecvError`] if the channel is empty and all senders dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut queue = self.0.queue.lock().expect("channel poisoned");
            loop {
                if let Some(v) = queue.pop_front() {
                    self.0.space.notify_one();
                    return Ok(v);
                }
                if self.0.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvError);
                }
                queue = self.0.ready.wait(queue).expect("channel poisoned");
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            Receiver(Arc::clone(&self.0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel;

    #[test]
    fn send_recv_roundtrip() {
        let (tx, rx) = channel::unbounded();
        tx.send(7).unwrap();
        assert_eq!(rx.recv(), Ok(7));
    }

    #[test]
    fn disconnection_is_observed() {
        let (tx, rx) = channel::unbounded::<u8>();
        drop(tx);
        assert_eq!(rx.recv(), Err(channel::RecvError));
        let (tx2, rx2) = channel::unbounded::<u8>();
        tx2.send(1).unwrap();
        drop(tx2);
        // Queued messages drain before disconnection reports.
        assert_eq!(rx2.recv(), Ok(1));
        assert!(rx2.recv().is_err());
    }

    #[test]
    fn bounded_send_blocks_until_room() {
        let (tx, rx) = channel::bounded::<u32>(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        // The third send must wait for the receiver to make room.
        let h = std::thread::spawn(move || {
            tx.send(3).unwrap();
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(rx.recv(), Ok(1));
        h.join().unwrap();
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
    }

    #[test]
    fn cross_thread_delivery() {
        let (tx, rx) = channel::unbounded();
        let h = std::thread::spawn(move || {
            for i in 0..100u32 {
                tx.send(i).unwrap();
            }
        });
        let mut sum = 0;
        for _ in 0..100 {
            sum += rx.recv().unwrap();
        }
        h.join().unwrap();
        assert_eq!(sum, 4950);
    }
}
