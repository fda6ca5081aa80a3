//! Minimal offline shim of [`crossbeam`](https://crates.io/crates/crossbeam):
//! the `channel` module surface this workspace uses — cloneable MPMC
//! channels (`unbounded`/`bounded`) with blocking, timed and non-blocking
//! receives.

#![forbid(unsafe_code)]

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        cond: Condvar,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone;
    /// carries the unsent value.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Nothing buffered right now.
        Empty,
        /// Empty and no sender remains.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The timeout elapsed first.
        Timeout,
        /// Empty and no sender remains.
        Disconnected,
    }

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl std::fmt::Display for RecvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(match self {
                TryRecvError::Empty => "receiving on an empty channel",
                TryRecvError::Disconnected => "receiving on an empty and disconnected channel",
            })
        }
    }

    impl std::fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(match self {
                RecvTimeoutError::Timeout => "timed out waiting on receive operation",
                RecvTimeoutError::Disconnected => "channel is empty and disconnected",
            })
        }
    }

    impl std::error::Error for RecvError {}
    impl std::error::Error for TryRecvError {}
    impl std::error::Error for RecvTimeoutError {}
    impl<T> std::error::Error for SendError<T> where T: std::fmt::Debug {}

    /// The sending half of a channel.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// The receiving half of a channel (cloneable: clones share the queue).
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    /// An unbounded FIFO channel.
    #[must_use]
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            cond: Condvar::new(),
        });
        (
            Sender {
                chan: Arc::clone(&chan),
            },
            Receiver { chan },
        )
    }

    /// A bounded channel. This shim does not enforce the capacity (sends
    /// never block); the workspace only uses small rendezvous replies where
    /// the distinction is unobservable.
    #[must_use]
    pub fn bounded<T>(_cap: usize) -> (Sender<T>, Receiver<T>) {
        unbounded()
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            self.chan.state.lock().unwrap().senders += 1;
            Sender {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.chan.state.lock().unwrap();
            st.senders -= 1;
            if st.senders == 0 {
                self.chan.cond.notify_all();
            }
        }
    }

    impl<T> std::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> Sender<T> {
        /// How many values are currently buffered in the channel.
        #[must_use]
        pub fn len(&self) -> usize {
            self.chan.state.lock().unwrap().queue.len()
        }

        /// Whether the channel currently buffers no values.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Enqueues `value`, failing only if every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.chan.state.lock().unwrap();
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            st.queue.push_back(value);
            self.chan.cond.notify_one();
            Ok(())
        }

        /// Enqueues every item of `values` under a single lock with a
        /// single wakeup, and returns how many were queued. Not part of
        /// the real crossbeam API — a batching extension for hot paths
        /// where per-item `send` would pay one lock + one `notify_one`
        /// each. Fails (returning the unsent items) only if every
        /// receiver is gone.
        pub fn send_many<I: IntoIterator<Item = T>>(
            &self,
            values: I,
        ) -> Result<usize, SendError<Vec<T>>> {
            let mut st = self.chan.state.lock().unwrap();
            if st.receivers == 0 {
                return Err(SendError(values.into_iter().collect()));
            }
            let before = st.queue.len();
            st.queue.extend(values);
            let n = st.queue.len() - before;
            drop(st);
            match n {
                0 => {}
                // With cloned receivers each blocked in `recv`, one
                // notification per queued item would be needed;
                // `notify_all` covers that in a single call.
                1 => self.chan.cond.notify_one(),
                _ => self.chan.cond.notify_all(),
            }
            Ok(n)
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Receiver<T> {
            self.chan.state.lock().unwrap().receivers += 1;
            Receiver {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        /// The last receiver to go discards whatever is still queued, as
        /// the real crate does: a reply sender parked in a dead channel
        /// must not keep its caller waiting forever.
        fn drop(&mut self) {
            let orphans = {
                let mut st = self.chan.state.lock().unwrap();
                st.receivers -= 1;
                if st.receivers == 0 {
                    std::mem::take(&mut st.queue)
                } else {
                    VecDeque::new()
                }
            };
            // Dropped outside the lock: a queued value may hold a sender
            // of this very channel.
            drop(orphans);
        }
    }

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a value or sender-side disconnection.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.chan.state.lock().unwrap();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.chan.cond.wait(st).unwrap();
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.chan.state.lock().unwrap();
            match st.queue.pop_front() {
                Some(v) => Ok(v),
                None if st.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Blocks up to `timeout` for a value.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self.chan.state.lock().unwrap();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _) = self.chan.cond.wait_timeout(st, deadline - now).unwrap();
                st = guard;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::channel::unbounded;
    use std::time::Duration;

    #[test]
    fn channel_roundtrip_and_disconnect() {
        let (tx, rx) = unbounded();
        tx.send(7u32).unwrap();
        assert_eq!(rx.recv(), Ok(7));
        drop(tx);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn last_receiver_drop_discards_queued_values() {
        let (tx, rx) = unbounded();
        let (reply_tx, reply_rx) = unbounded::<u32>();
        tx.send(reply_tx).unwrap();
        drop(rx);
        // The queued reply sender went with the channel's last receiver.
        assert!(reply_rx.recv_timeout(Duration::from_secs(5)).is_err());
        assert!(tx.send(unbounded().0).is_err());
    }
}
